// Slurm-like batch scheduler with the paper's hardening (§IV-B):
//
//  - `PrivateData` view filtering: squeue/sacct queries by ordinary users
//    return only their own jobs; operators (e.g. support staff) and root
//    see everything.
//  - Three node-sharing policies, including LLSC's user-based whole-node
//    scheduling: once a user's job lands on a node, only that user's jobs
//    may co-schedule there until the node drains.
//  - pam_slurm support: `user_has_job_on()` backs SSH admission.
//  - Prolog/epilog hooks per (job, node) for GPU binding/scrubbing and
//    process cleanup.
//
// Dispatch is FCFS with optional EASY backfill (aggressive backfill with a
// reservation for the head job), which is what most production Slurm sites
// run and what the utilization experiment (E3) sweeps.
#pragma once

#include <cassert>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <queue>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "common/clock.h"
#include "common/flat_map.h"
#include "common/ids.h"
#include "common/result.h"
#include "obs/decision.h"
#include "sched/job_lifecycle.h"
#include "sched/types.h"
#include "simos/credentials.h"

namespace heus::sched {

/// Queue ordering discipline.
enum class PriorityPolicy {
  fcfs,       ///< strict submission order
  fairshare,  ///< users with less consumed cpu-time go first
};

/// Slurm's PrivateData flags, reduced to the ones the paper discusses.
struct PrivateData {
  bool jobs = false;        ///< hide other users' queue entries
  bool accounting = false;  ///< hide other users' sacct records
  bool usage = false;       ///< hide other users' utilization reports

  [[nodiscard]] static PrivateData all() { return {true, true, true}; }
  [[nodiscard]] static PrivateData none() { return {false, false, false}; }

  [[nodiscard]] bool operator==(const PrivateData&) const = default;
};

struct SchedulerConfig {
  SharingPolicy policy = SharingPolicy::shared;
  PrivateData private_data{};
  bool backfill = true;
  PriorityPolicy priority = PriorityPolicy::fcfs;
  /// How long a crashed node stays down before auto-reviving.
  std::int64_t node_reboot_ns = 600 * common::kSecond;
  /// Cap on --requeue round-trips per job (spec.max_requeues overrides).
  unsigned default_max_requeues = 3;
  /// How long a node whose prolog failed stays drained before the
  /// scheduler tries placing work on it again.
  std::int64_t prolog_drain_ns = 120 * common::kSecond;
  /// Retry cadence for failed epilogs on a node held in maintenance.
  std::int64_t epilog_retry_ns = 30 * common::kSecond;
  /// Per-partition overrides of the sharing policy. The paper keeps
  /// interactive-debug (and login/DTN) nodes multi-user even when the
  /// cluster runs user-whole-node scheduling (§IV-B) — which is exactly
  /// why hidepid stays necessary there. Transparent comparator: policy
  /// lookups on the placement path take string_views without
  /// materialising a temporary key.
  std::map<std::string, SharingPolicy, std::less<>> partition_policy;
};

/// Failure-injection accounting (paper §IV-B motivation: "if a node fails
/// because one of the tasks executing on it tries to use more memory than
/// is available on the node, all of the jobs running on that same node
/// will fail").
struct FailureStats {
  std::uint64_t oom_events = 0;
  std::uint64_t node_crashes = 0;
  std::uint64_t culprit_jobs_failed = 0;
  std::uint64_t victim_jobs_failed = 0;      ///< co-resident collateral
  std::uint64_t cross_user_victims = 0;      ///< collateral of OTHER users
  std::uint64_t jobs_requeued = 0;
  std::uint64_t requeue_capped = 0;   ///< --requeue jobs failed at the cap
  std::uint64_t prolog_failures = 0;  ///< prolog hook returned an error
  std::uint64_t nodes_drained = 0;    ///< drains caused by prolog failures
  std::uint64_t epilog_failures = 0;  ///< epilog hook returned an error
  std::uint64_t epilog_retries = 0;   ///< maintenance re-runs attempted
  std::uint64_t maintenance_recovered = 0;  ///< nodes released from hold
};

/// Cumulative utilization accounting, integrated between events.
struct UtilizationStats {
  std::int64_t horizon_ns = 0;       ///< integration window
  double cpu_busy_ns = 0;            ///< Σ allocated-task cpus × dt
  double cpu_blocked_ns = 0;         ///< Σ cpus unavailable to others × dt
  double cpu_capacity_ns = 0;        ///< Σ total cpus × dt

  [[nodiscard]] double utilization() const {
    return cpu_capacity_ns > 0 ? cpu_busy_ns / cpu_capacity_ns : 0.0;
  }
  /// Fraction of capacity fenced off (allocated or policy-blocked).
  [[nodiscard]] double blocked_fraction() const {
    return cpu_capacity_ns > 0 ? cpu_blocked_ns / cpu_capacity_ns : 0.0;
  }
};

/// Hot-path work accounting (E20): placement cost is measured in nodes
/// examined, not wall clock, so the numbers are machine-independent. A
/// pre-index scheduler examines every node per attempt; the indexed one
/// examines only candidate-set members.
struct SchedStats {
  std::uint64_t placement_attempts = 0;  ///< try_start invocations
  std::uint64_t placement_failures = 0;  ///< attempts that placed nothing
  std::uint64_t nodes_examined = 0;      ///< candidate nodes visited
  std::uint64_t completion_heap_pops = 0;
  std::uint64_t node_event_pops = 0;
};

/// Hook invoked on each node a job starts/ends on. `gpus` lists the gres
/// devices bound on that node.
struct JobNodeContext {
  JobId job{};
  Uid user{};
  NodeId node{};
  std::vector<GpuId> gpus;
};
/// Prolog/epilog hooks report success or failure. A failing prolog aborts
/// the start (allocation rolled back, node drained); a failing epilog
/// holds the node in maintenance — and re-runs the hook — until it
/// succeeds, so residue can never meet the next tenant.
using NodeHook = std::function<Result<void>(const JobNodeContext&)>;

class Scheduler {
 public:
  Scheduler(common::SimClock* clock, SchedulerConfig config)
      : clock_(clock), config_(config) {}

  // ---- cluster assembly --------------------------------------------------

  NodeId add_node(const NodeInfo& info);
  [[nodiscard]] const NodeInfo* node_info(NodeId id) const;
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }

  void set_prolog(NodeHook hook) { prolog_ = std::move(hook); }
  void set_epilog(NodeHook hook) { epilog_ = std::move(hook); }

  /// The table driver behind every Job::state change: per-transition
  /// fire counts and illegal-event tally, for tests and diagnostics.
  [[nodiscard]] const lifecycle::Driver& job_lifecycle() const {
    return job_lc_;
  }

  [[nodiscard]] const SchedulerConfig& config() const { return config_; }
  void set_policy(SharingPolicy p) { config_.policy = p; }
  void set_partition_policy(std::string_view partition, SharingPolicy p) {
    auto it = config_.partition_policy.find(partition);
    if (it == config_.partition_policy.end()) {
      config_.partition_policy.emplace(std::string(partition), p);
    } else {
      it->second = p;
    }
  }
  [[nodiscard]] SharingPolicy policy_for(std::string_view partition) const {
    auto it = config_.partition_policy.find(partition);
    return it == config_.partition_policy.end() ? config_.policy
                                                : it->second;
  }
  void set_private_data(PrivateData pd) { config_.private_data = pd; }

  /// Route PrivateData query filtering and whole-node placement refusals
  /// through the cluster decision trace. Null (the default) disables it.
  void set_trace(obs::DecisionTrace* trace) { trace_ = trace; }

  /// Operators (Slurm `Operator` privilege): exempt from PrivateData.
  void add_operator(Uid uid) { operators_.insert(uid); }

  // ---- job lifecycle -------------------------------------------------------

  /// Validate and enqueue. EINVAL if the request can never be satisfied by
  /// the partition (prevents head-of-line deadlock).
  Result<JobId> submit(const simos::Credentials& cred, JobSpec spec);

  /// Job array (sbatch --array): `count` clones of `spec`, named
  /// "<name>[<index>]". Returns the member ids in index order.
  Result<std::vector<JobId>> submit_array(const simos::Credentials& cred,
                                          const JobSpec& spec,
                                          unsigned count);

  /// Owner or root; pending jobs are dropped, running jobs are torn down
  /// (epilog runs).
  Result<void> cancel(const simos::Credentials& cred, JobId id);

  /// Advance the scheduler to the clock's current time: complete/expire
  /// running jobs due by now, revive rebooted nodes, then dispatch.
  void step();

  // ---- failure injection ---------------------------------------------------

  /// A task of `job` exceeds its memory allocation and takes its node
  /// down (the §IV-B failure mode): every job with tasks on that node
  /// fails (or is requeued if its spec asks for it); the node reboots for
  /// config.node_reboot_ns. The culprit job always fails.
  Result<void> inject_oom(JobId job);

  /// Administrative node crash (power/hardware): same collateral rules,
  /// but with no culprit job.
  Result<void> crash_node(NodeId node);

  [[nodiscard]] bool node_is_down(NodeId node) const;
  /// Drained after a prolog failure (auto-resumes after prolog_drain_ns).
  [[nodiscard]] bool node_is_drained(NodeId node) const;
  /// Held in maintenance behind a failed epilog (resumes on epilog
  /// success — never by timeout, because residue must not meet a tenant).
  [[nodiscard]] bool node_in_maintenance(NodeId node) const;
  [[nodiscard]] const FailureStats& failure_stats() const {
    return failures_;
  }

  /// Invoked when a node crashes, so the embedding cluster can wipe its
  /// process table / device state the way a real crash would.
  using NodeCrashHook = std::function<void(NodeId)>;
  void set_node_crash_hook(NodeCrashHook hook) {
    node_crash_hook_ = std::move(hook);
  }

  /// Earliest future event (job completion/timeout), if any.
  [[nodiscard]] std::optional<common::SimTime> next_event_time() const;

  /// Convenience driver: repeatedly advance the clock to the next event
  /// and step, until the queue drains or `deadline` passes.
  void run_until_drained(
      common::SimTime deadline = common::SimTime{
          std::numeric_limits<std::int64_t>::max()});

  // ---- queries (PrivateData-filtered) -------------------------------------

  /// squeue: pending+running jobs visible to `cred`.
  [[nodiscard]] std::vector<JobView> list_jobs(
      const simos::Credentials& cred) const;

  /// Detail view; ESRCH when hidden by PrivateData (indistinguishable from
  /// nonexistent, as in Slurm).
  Result<JobView> job_info(const simos::Credentials& cred, JobId id) const;

  /// Raw state for tests/audits (not a user-facing query).
  [[nodiscard]] const Job* find_job(JobId id) const;

  /// sacct: completed records visible to `cred`.
  [[nodiscard]] std::vector<AccountingRecord> accounting(
      const simos::Credentials& cred) const;

  /// sreport-style aggregate usage per user; PrivateData::usage restricts
  /// it to the caller's own row.
  [[nodiscard]] std::map<Uid, std::uint64_t> usage_by_user(
      const simos::Credentials& cred) const;

  // ---- pam_slurm / node state ---------------------------------------------

  [[nodiscard]] bool user_has_job_on(Uid uid, NodeId node) const;
  /// Jobs currently running on a node.
  [[nodiscard]] std::vector<JobId> jobs_on(NodeId node) const;
  /// The single user currently owning the node (user_whole_node), if any.
  [[nodiscard]] std::optional<Uid> node_user(NodeId node) const;
  [[nodiscard]] unsigned node_free_cpus(NodeId node) const;

  // ---- metrics --------------------------------------------------------------

  [[nodiscard]] const UtilizationStats& utilization() const { return util_; }
  [[nodiscard]] std::size_t pending_count() const { return queue_.size(); }
  [[nodiscard]] std::size_t running_count() const { return running_.size(); }
  [[nodiscard]] std::size_t completed_count() const {
    return accounting_.size();
  }
  /// Mean queue wait among completed jobs, ns.
  [[nodiscard]] double mean_wait_ns() const;
  /// Makespan: last end time among completed jobs.
  [[nodiscard]] common::SimTime last_completion() const {
    return last_completion_;
  }
  /// True iff at any point two different users' tasks shared a node.
  [[nodiscard]] std::uint64_t cross_user_coresidency_events() const {
    return cross_user_coresidency_;
  }
  [[nodiscard]] const SchedStats& sched_stats() const { return sched_stats_; }
  void reset_sched_stats() { sched_stats_ = {}; }

 private:
  struct NodeState {
    NodeInfo info;
    unsigned cpus_used = 0;
    std::uint64_t mem_used = 0;
    std::vector<bool> gpu_used;  ///< per-index occupancy
    /// Running tasks per job, iterated in job-id order (crash requeue and
    /// coresidency sweeps depend on that order). Sorted dense vector: the
    /// handful of co-resident jobs per node never justified a tree.
    common::OrderedMap<JobId, unsigned> tasks;
    std::optional<Uid> bound_user;    ///< user_whole_node binding
    std::optional<JobId> bound_job;   ///< exclusive binding
    std::optional<common::SimTime> down_until;  ///< rebooting when set
    /// Prolog failed here: no placements until this passes.
    std::optional<common::SimTime> drained_until;
    /// Epilogs that failed on this node, re-run every epilog_retry_ns.
    /// Non-empty == the node is in maintenance and accepts no work.
    std::vector<JobNodeContext> pending_epilogs;
    std::optional<common::SimTime> epilog_retry_at;
    // -- index bookkeeping (maintained by reindex_node) ------------------
    /// Which user_avail set this node currently sits in, if any.
    std::optional<Uid> indexed_user;
    /// This node's current contribution to the utilization aggregates.
    unsigned busy_contrib = 0;
    unsigned blocked_contrib = 0;
  };

  /// Per-partition placement indices. Candidate sets are *supersets* of
  /// the nodes where tasks_fitting() > 0 under the matching policy branch
  /// (a member may still fail the full fit check — candidates are always
  /// re-validated); ordered by node index so the indexed scan visits
  /// nodes in exactly the order the full scan did, which is what keeps
  /// the produced schedules bit-for-bit identical.
  /// Candidate sets are sorted dense vectors (common::OrderedSet): a
  /// placement scan is a linear sweep over contiguous node indices
  /// instead of red-black-tree pointer hops, and the ascending order the
  /// bit-for-bit schedules depend on is the storage order itself.
  struct PartitionIndex {
    /// Available, no tasks, unbound: candidates for exclusive placement.
    common::OrderedSet<std::uint32_t> empty_avail;
    /// Available, unbound, free cpus: user_whole_node candidates for any
    /// user not yet owning the node.
    common::OrderedSet<std::uint32_t> unowned_avail;
    /// Available, not job-bound, free cpus: shared-policy candidates.
    common::OrderedSet<std::uint32_t> shared_avail;
    /// Available, owned by this user, free cpus (user_whole_node).
    common::FlatMap<Uid, common::OrderedSet<std::uint32_t>> user_avail;
    /// Static node-shape census (cpus, mem_mb, gpus) -> count, for O(#
    /// shapes) submit-time satisfiability instead of an O(nodes) scan.
    common::OrderedMap<std::tuple<unsigned, std::uint64_t, unsigned>,
                       unsigned>
        shape_census;
  };

  /// Lazy min-heap entries: stale entries are discarded on pop by
  /// re-checking the referenced object's current state.
  struct CompletionEntry {
    std::int64_t end_ns = 0;
    JobId job{};
    friend bool operator>(const CompletionEntry& x,
                          const CompletionEntry& y) {
      if (x.end_ns != y.end_ns) return x.end_ns > y.end_ns;
      return x.job > y.job;
    }
  };
  struct NodeEventEntry {
    std::int64_t at_ns = 0;
    std::uint32_t node = 0;
    friend bool operator>(const NodeEventEntry& x, const NodeEventEntry& y) {
      if (x.at_ns != y.at_ns) return x.at_ns > y.at_ns;
      return x.node > y.node;
    }
  };

  enum class DependencyState { satisfied, waiting, never };
  [[nodiscard]] DependencyState dependency_state(const Job& job) const;

  /// Fail/requeue every job with tasks on `node` and take the node down.
  void crash_node_internal(NodeId node, std::optional<JobId> culprit);
  /// Re-sort the pending queue per the priority policy.
  void order_queue();

  /// Can `job` place at least one task on `node` right now, under the
  /// active policy? Returns how many tasks fit (0 = none).
  [[nodiscard]] unsigned tasks_fitting(const NodeState& node,
                                       const Job& job) const;

  /// Try to place and start a job now. Returns true on success.
  bool try_start(Job& job);

  /// Whether `job` could start on an *empty* cluster (submit validation).
  [[nodiscard]] bool satisfiable(const Job& job) const;

  /// Earliest time the head job could start, assuming running jobs end at
  /// their limits; used for EASY backfill reservations.
  [[nodiscard]] common::SimTime head_reservation(const Job& head) const;

  void integrate_utilization();
  /// Recompute node `idx`'s membership in every placement index and its
  /// utilization contributions. Called after *every* node-state mutation;
  /// the indices are therefore exact, never merely eventually consistent.
  void reindex_node(std::size_t idx);
  /// Record that a node timer (down/drain/epilog-retry) was set.
  void push_node_event(std::size_t idx, common::SimTime at) {
    node_event_heap_.push(
        NodeEventEntry{at.ns, static_cast<std::uint32_t>(idx)});
  }
  /// `run_epilog` is false on the crash path: a dead node cannot run its
  /// epilog; the node-crash hook does the (power-loss) cleanup instead.
  /// `dependency_never` marks a pending-state cancellation that came from
  /// an unsatisfiable dependency, which is a distinct lifecycle event.
  void finish_job(Job& job, JobState final_state, bool run_epilog = true,
                  bool dependency_never = false);
  /// Route one lifecycle event through the job table. `outcome` answers
  /// whichever guard the resolved row consults. Returns the fired
  /// transition (nullptr = illegal event; state untouched).
  const lifecycle::Transition* fire_job(Job& job, JobEvent event,
                                        bool outcome);
  void release_allocations(Job& job);
  /// Run the epilog for one allocation; on failure, park the context on
  /// the node's maintenance queue.
  void run_epilog_on(const Job& job, const Allocation& alloc);
  /// Re-run pending epilogs due for retry; release recovered nodes.
  void retry_pending_epilogs();
  void dispatch();

  /// Job ids are dense and never recycled: jobs_[id-1] is job `id`, for
  /// every id in [1, jobs_.size()]. Finished jobs stay in place (they are
  /// the dependency / accounting ground truth), so lookup is an index
  /// computation, not a hash probe.
  [[nodiscard]] Job* job_ptr(JobId id) {
    return id.value() >= 1 && id.value() <= jobs_.size()
               ? &jobs_[id.value() - 1]
               : nullptr;
  }
  [[nodiscard]] const Job* job_ptr(JobId id) const {
    return id.value() >= 1 && id.value() <= jobs_.size()
               ? &jobs_[id.value() - 1]
               : nullptr;
  }
  [[nodiscard]] Job& job_at(JobId id) {
    assert(id.value() >= 1 && id.value() <= jobs_.size());
    return jobs_[id.value() - 1];
  }
  [[nodiscard]] const Job& job_at(JobId id) const {
    assert(id.value() >= 1 && id.value() <= jobs_.size());
    return jobs_[id.value() - 1];
  }
  /// True unless the entry's job is running and due to end at its time.
  [[nodiscard]] bool is_stale(const CompletionEntry& e) const {
    const Job* jp = job_ptr(e.job);
    return jp == nullptr || jp->state != JobState::running ||
           jp->end_time.ns != e.end_ns;
  }

  common::SimClock* clock_;
  SchedulerConfig config_;
  std::vector<NodeState> nodes_;
  std::map<std::string, PartitionIndex, std::less<>> partitions_;
  /// Nodes currently holding failed epilogs (maintenance), by index.
  common::OrderedSet<std::uint32_t> maintenance_nodes_;
  /// Mutable: next_event_time() lazily discards stale tops while peeking.
  mutable std::priority_queue<CompletionEntry, std::vector<CompletionEntry>,
                              std::greater<>>
      completion_heap_;
  mutable std::priority_queue<NodeEventEntry, std::vector<NodeEventEntry>,
                              std::greater<>>
      node_event_heap_;
  /// Utilization aggregates (compute nodes only), kept exact by
  /// reindex_node so integration is O(1) instead of O(nodes).
  std::uint64_t total_compute_cpus_ = 0;
  std::uint64_t busy_cpus_ = 0;
  std::uint64_t blocked_cpus_ = 0;
  std::vector<JobId> queue_;  ///< FCFS order, pending only
  std::vector<Job> jobs_;  ///< dense by id: see job_ptr()
  std::vector<JobId> running_;
  std::vector<AccountingRecord> accounting_;
  common::FlatSet<Uid> operators_;
  obs::DecisionTrace* trace_ = nullptr;
  NodeHook prolog_;
  NodeHook epilog_;
  lifecycle::Driver job_lc_{&job_machine()};
  NodeCrashHook node_crash_hook_;
  FailureStats failures_;
  common::FlatMap<Uid, std::uint64_t> consumed_cpu_ns_;  ///< fairshare input
  UtilizationStats util_;
  common::SimTime last_integration_{};
  common::SimTime last_completion_{};
  std::uint64_t cross_user_coresidency_ = 0;
  std::uint64_t next_job_ = 1;
  SchedStats sched_stats_;
};

}  // namespace heus::sched
