#include "sched/scheduler.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

namespace heus::sched {

NodeId Scheduler::add_node(const NodeInfo& info) {
  const NodeId id{static_cast<std::uint32_t>(nodes_.size())};
  NodeState st;
  st.info = info;
  st.info.id = id;
  st.gpu_used.assign(info.gpus, false);
  nodes_.push_back(std::move(st));
  if (info.node_class == NodeClass::compute) {
    total_compute_cpus_ += info.cpus;
    ++partitions_[info.partition]
          .shape_census[{info.cpus, info.mem_mb, info.gpus}];
  }
  reindex_node(id.value());
  return id;
}

const NodeInfo* Scheduler::node_info(NodeId id) const {
  if (id.value() >= nodes_.size()) return nullptr;
  return &nodes_[id.value()].info;
}

void Scheduler::reindex_node(std::size_t idx) {
  NodeState& n = nodes_[idx];
  const auto i = static_cast<std::uint32_t>(idx);
  PartitionIndex& pi = partitions_[n.info.partition];

  pi.empty_avail.erase(i);
  pi.unowned_avail.erase(i);
  pi.shared_avail.erase(i);
  if (n.indexed_user) {
    if (common::OrderedSet<std::uint32_t>* mine =
            pi.user_avail.find(*n.indexed_user)) {
      mine->erase(i);
      if (mine->empty()) pi.user_avail.erase(*n.indexed_user);
    }
    n.indexed_user.reset();
  }

  if (n.info.node_class != NodeClass::compute) return;

  // Utilization contributions, matching integrate_utilization()'s old
  // per-node formula exactly.
  const bool fenced = n.bound_job.has_value() ||
                      (n.bound_user.has_value() && !n.tasks.empty());
  const unsigned busy = n.cpus_used;
  const unsigned blocked = fenced ? n.info.cpus : n.cpus_used;
  busy_cpus_ -= n.busy_contrib;
  busy_cpus_ += busy;
  blocked_cpus_ -= n.blocked_contrib;
  blocked_cpus_ += blocked;
  n.busy_contrib = busy;
  n.blocked_contrib = blocked;

  const bool available = !n.down_until.has_value() &&
                         !n.drained_until.has_value() &&
                         n.pending_epilogs.empty();
  if (!available || n.bound_job.has_value()) return;
  const bool has_free_cpus = n.cpus_used < n.info.cpus;
  if (has_free_cpus) pi.shared_avail.insert(i);
  if (n.bound_user) {
    if (has_free_cpus) {
      pi.user_avail[*n.bound_user].insert(i);
      n.indexed_user = n.bound_user;
    }
  } else {
    if (has_free_cpus) pi.unowned_avail.insert(i);
    if (n.tasks.empty()) pi.empty_avail.insert(i);
  }
}

bool Scheduler::satisfiable(const Job& job) const {
  // O(# distinct node shapes) via the partition census; the sum it
  // computes is exactly what the old full scan accumulated.
  const auto pit = partitions_.find(job.spec.partition);
  if (pit == partitions_.end()) return false;
  unsigned capacity = 0;
  for (const auto& [shape, count] : pit->second.shape_census) {
    const auto& [cpus, mem_mb, gpus] = shape;
    unsigned fit = cpus / job.spec.cpus_per_task;
    fit = std::min<unsigned>(
        fit, static_cast<unsigned>(mem_mb / job.spec.mem_mb_per_task));
    if (job.spec.gpus_per_task > 0) {
      fit = std::min(fit, gpus / job.spec.gpus_per_task);
    }
    capacity += fit * count;
    if (capacity >= job.spec.num_tasks) return true;
  }
  return false;
}

Result<JobId> Scheduler::submit(const simos::Credentials& cred,
                                JobSpec spec) {
  if (spec.num_tasks == 0 || spec.cpus_per_task == 0 ||
      spec.mem_mb_per_task == 0 || spec.duration_ns <= 0 ||
      spec.time_limit_ns <= 0) {
    return Errno::einval;
  }
  for (JobId dep : spec.depends_on) {
    if (job_ptr(dep) == nullptr) return Errno::esrch;
  }
  Job job;
  job.id = JobId{next_job_++};
  job.user = cred.uid;
  job.group = cred.egid;
  job.spec = std::move(spec);
  job.submit_time = clock_->now();
  if (!satisfiable(job)) {
    --next_job_;
    return Errno::einval;  // can never run in this partition
  }
  const JobId id = job.id;
  assert(id.value() == jobs_.size() + 1);  // ids stay dense, never reused
  jobs_.push_back(std::move(job));
  queue_.push_back(id);
  return id;
}

Result<std::vector<JobId>> Scheduler::submit_array(
    const simos::Credentials& cred, const JobSpec& spec, unsigned count) {
  if (count == 0 || count > 100'000) return Errno::einval;
  std::vector<JobId> members;
  members.reserve(count);
  for (unsigned i = 0; i < count; ++i) {
    JobSpec member = spec;
    member.name = spec.name + "[" + std::to_string(i) + "]";
    member.array_index = i;
    auto id = submit(cred, std::move(member));
    if (!id) {
      // Roll back already-queued members so arrays are all-or-nothing.
      for (JobId queued : members) (void)cancel(cred, queued);
      return id.error();
    }
    members.push_back(*id);
  }
  return members;
}

Result<void> Scheduler::cancel(const simos::Credentials& cred, JobId id) {
  Job* jp = job_ptr(id);
  if (jp == nullptr) return Errno::esrch;
  Job& job = *jp;
  if (!cred.is_root() && cred.uid != job.user) return Errno::eperm;
  switch (job.state) {
    case JobState::pending: {
      std::erase(queue_, id);
      integrate_utilization();
      finish_job(job, JobState::cancelled);
      return ok_result();
    }
    case JobState::running: {
      integrate_utilization();
      finish_job(job, JobState::cancelled);
      std::erase(running_, id);
      dispatch();  // freed resources may admit queued work
      return ok_result();
    }
    default:
      return Errno::einval;  // already finished
  }
}

unsigned Scheduler::tasks_fitting(const NodeState& node,
                                  const Job& job) const {
  if (node.down_until.has_value()) return 0;
  if (node.drained_until.has_value()) return 0;
  if (!node.pending_epilogs.empty()) return 0;  // maintenance hold
  if (node.info.node_class != NodeClass::compute) return 0;
  if (node.info.partition != job.spec.partition) return 0;

  const SharingPolicy policy = policy_for(job.spec.partition);
  const bool exclusive =
      job.spec.exclusive || policy == SharingPolicy::exclusive_job;
  if (exclusive) {
    // Whole empty node or nothing.
    if (!node.tasks.empty() || node.bound_job || node.bound_user) return 0;
  } else if (policy == SharingPolicy::user_whole_node) {
    // A node is usable iff unowned, or owned by this same user. A node
    // occupied by an exclusive job is owned via bound_job.
    if (node.bound_job) return 0;
    if (node.bound_user && *node.bound_user != job.user) return 0;
  } else {
    // shared: respect other jobs' exclusive bindings only.
    if (node.bound_job) return 0;
  }

  const unsigned free_cpus = node.info.cpus - node.cpus_used;
  const std::uint64_t free_mem = node.info.mem_mb - node.mem_used;
  unsigned free_gpus = 0;
  for (bool used : node.gpu_used) {
    if (!used) ++free_gpus;
  }

  unsigned fit = free_cpus / job.spec.cpus_per_task;
  fit = std::min<unsigned>(
      fit, static_cast<unsigned>(free_mem / job.spec.mem_mb_per_task));
  if (job.spec.gpus_per_task > 0) {
    fit = std::min(fit, free_gpus / job.spec.gpus_per_task);
  }
  return fit;
}

bool Scheduler::try_start(Job& job) {
  ++sched_stats_.placement_attempts;
  const SharingPolicy policy = policy_for(job.spec.partition);
  const bool exclusive =
      job.spec.exclusive || policy == SharingPolicy::exclusive_job;

  // Tentative placement pass over the partition's candidate sets instead
  // of all of nodes_. The sets are supersets of {fit > 0} for each policy
  // branch and are ordered by node index, so visiting them ascending and
  // re-validating with tasks_fitting() reproduces the full scan's plan
  // exactly — only the nodes that could never fit are skipped.
  std::vector<std::pair<std::size_t, unsigned>> plan;  // node idx, tasks
  unsigned remaining = job.spec.num_tasks;
  const auto visit = [&](std::uint32_t i) {
    ++sched_stats_.nodes_examined;
    const unsigned fit = std::min(remaining, tasks_fitting(nodes_[i], job));
    if (fit > 0) plan.emplace_back(i, fit);
    remaining -= fit;
  };

  if (const auto pit = partitions_.find(job.spec.partition);
      pit != partitions_.end()) {
    const PartitionIndex& pi = pit->second;
    if (exclusive) {
      for (auto it = pi.empty_avail.begin();
           it != pi.empty_avail.end() && remaining > 0; ++it) {
        visit(*it);
      }
    } else if (policy == SharingPolicy::user_whole_node) {
      // Merge the unowned and owned-by-this-user sets in ascending node
      // order (they are disjoint by construction).
      static const common::OrderedSet<std::uint32_t> kNone;
      const common::OrderedSet<std::uint32_t>* uit =
          pi.user_avail.find(job.user);
      const common::OrderedSet<std::uint32_t>& mine =
          uit == nullptr ? kNone : *uit;
      auto a = pi.unowned_avail.begin();
      auto b = mine.begin();
      while (remaining > 0 &&
             (a != pi.unowned_avail.end() || b != mine.end())) {
        if (b == mine.end() ||
            (a != pi.unowned_avail.end() && *a < *b)) {
          visit(*a++);
        } else {
          visit(*b++);
        }
      }
    } else {
      for (auto it = pi.shared_avail.begin();
           it != pi.shared_avail.end() && remaining > 0; ++it) {
        visit(*it);
      }
    }
  }
  if (remaining > 0) {
    ++sched_stats_.placement_failures;
    if (trace_ != nullptr) {
      // No taxonomy channel: a placement refusal is containment, not a
      // leak. Attribute the sharing knob when user-whole-node scheduling
      // is what kept foreign-owned nodes out of the candidate set.
      trace_->record(obs::DecisionPoint::sched_placement,
                     obs::Outcome::deny, job.user, Gid{}, kRootUid,
                     std::nullopt,
                     policy == SharingPolicy::user_whole_node
                         ? obs::knob::sharing
                         : nullptr,
                     [&](std::string& out) {
                       out += "job ";
                       obs::append_uint(out, job.id.value());
                       out += " partition ";
                       out += job.spec.partition;
                     });
    }
    return false;
  }

  // Commit.
  job.allocations.clear();
  std::uint64_t coresidency_delta = 0;
  for (auto [idx, tasks] : plan) {
    NodeState& node = nodes_[idx];

    // Cross-user co-residency census: did we just co-schedule two users?
    // Tallied locally and folded in only after the prologs succeed, so a
    // rolled-back start does not count as co-residency.
    for (const auto& [other_id, other_tasks] : node.tasks) {
      (void)other_tasks;
      if (job_at(other_id).user != job.user) ++coresidency_delta;
    }

    node.cpus_used += tasks * job.spec.cpus_per_task;
    node.mem_used +=
        static_cast<std::uint64_t>(tasks) * job.spec.mem_mb_per_task;
    Allocation alloc;
    alloc.node = node.info.id;
    alloc.tasks = tasks;
    unsigned need_gpus = tasks * job.spec.gpus_per_task;
    for (std::uint32_t g = 0; g < node.gpu_used.size() && need_gpus > 0;
         ++g) {
      if (!node.gpu_used[g]) {
        node.gpu_used[g] = true;
        alloc.gpus.push_back(GpuId{g});
        --need_gpus;
      }
    }
    assert(need_gpus == 0);
    node.tasks[job.id] += tasks;
    if (exclusive) node.bound_job = job.id;
    if (policy == SharingPolicy::user_whole_node) {
      node.bound_user = job.user;
    }
    job.allocations.push_back(std::move(alloc));
    reindex_node(idx);
  }

  // Prologs run before the job is marked running, and a failure aborts
  // the start: the allocation is rolled back, the failing node drains
  // (auto-resuming after prolog_drain_ns), and the job stays pending.
  if (prolog_) {
    for (std::size_t i = 0; i < job.allocations.size(); ++i) {
      const Allocation& alloc = job.allocations[i];
      auto r = prolog_(
          JobNodeContext{job.id, job.user, alloc.node, alloc.gpus});
      if (r.ok()) continue;

      ++failures_.prolog_failures;
      // Undo the nodes whose prolog already ran. These epilogs clean up a
      // job that never started; if one of them fails too, its node goes
      // to maintenance like any failed epilog.
      if (epilog_) {
        for (std::size_t k = 0; k < i; ++k) {
          run_epilog_on(job, job.allocations[k]);
        }
      }
      NodeState& bad = nodes_[alloc.node.value()];
      if (!bad.drained_until.has_value()) ++failures_.nodes_drained;
      bad.drained_until =
          common::SimTime{clock_->now().ns + config_.prolog_drain_ns};
      push_node_event(alloc.node.value(), *bad.drained_until);
      release_allocations(job);
      reindex_node(alloc.node.value());
      job.allocations.clear();
      job.pending_reason = "PrologFailed";
      return false;
    }
  }
  cross_user_coresidency_ += coresidency_delta;

  fire_job(job, JobEvent::start, /*outcome=*/false);
  job.start_time = clock_->now();
  const std::int64_t run_ns =
      std::min(job.spec.duration_ns, job.spec.time_limit_ns);
  job.end_time = job.start_time + run_ns;
  running_.push_back(job.id);
  completion_heap_.push(CompletionEntry{job.end_time.ns, job.id});
  return true;
}

void Scheduler::release_allocations(Job& job) {
  for (const auto& alloc : job.allocations) {
    NodeState& node = nodes_[alloc.node.value()];
    node.cpus_used -= alloc.tasks * job.spec.cpus_per_task;
    node.mem_used -=
        static_cast<std::uint64_t>(alloc.tasks) * job.spec.mem_mb_per_task;
    for (GpuId g : alloc.gpus) node.gpu_used[g.value()] = false;
    node.tasks.erase(job.id);
    if (node.bound_job == job.id) node.bound_job.reset();
    if (node.tasks.empty()) node.bound_user.reset();
    reindex_node(alloc.node.value());
  }
}

void Scheduler::run_epilog_on(const Job& job, const Allocation& alloc) {
  if (!epilog_) return;
  const JobNodeContext ctx{job.id, job.user, alloc.node, alloc.gpus};
  if (epilog_(ctx).ok()) return;
  // The node keeps whatever the epilog failed to clean (processes, GPU
  // residue). Hold it in maintenance and re-run the hook until it
  // succeeds: the failure costs capacity, never isolation.
  ++failures_.epilog_failures;
  NodeState& st = nodes_[alloc.node.value()];
  st.pending_epilogs.push_back(ctx);
  st.epilog_retry_at =
      common::SimTime{clock_->now().ns + config_.epilog_retry_ns};
  maintenance_nodes_.insert(static_cast<std::uint32_t>(alloc.node.value()));
  push_node_event(alloc.node.value(), *st.epilog_retry_at);
  reindex_node(alloc.node.value());
}

void Scheduler::retry_pending_epilogs() {
  if (maintenance_nodes_.empty()) return;
  const common::SimTime now = clock_->now();
  // Only nodes actually holding failed epilogs are visited — the set
  // iterates in index order, matching the old full scan's visit order.
  // Snapshot first: recovery erases members as we go.
  const std::vector<std::uint32_t> held(maintenance_nodes_.begin(),
                                        maintenance_nodes_.end());
  for (const std::uint32_t idx : held) {
    NodeState& node = nodes_[idx];
    if (node.pending_epilogs.empty()) {
      // Shouldn't happen (recovery erases eagerly), but self-heal.
      maintenance_nodes_.erase(idx);
      continue;
    }
    if (!node.epilog_retry_at || *node.epilog_retry_at > now) continue;
    std::vector<JobNodeContext> still_failing;
    for (const JobNodeContext& ctx : node.pending_epilogs) {
      ++failures_.epilog_retries;
      if (epilog_ && !epilog_(ctx).ok()) still_failing.push_back(ctx);
    }
    node.pending_epilogs = std::move(still_failing);
    if (node.pending_epilogs.empty()) {
      node.epilog_retry_at.reset();
      ++failures_.maintenance_recovered;
      reindex_node(idx);
      maintenance_nodes_.erase(idx);
    } else {
      node.epilog_retry_at =
          common::SimTime{now.ns + config_.epilog_retry_ns};
      push_node_event(idx, *node.epilog_retry_at);
    }
  }
}

const lifecycle::Transition* Scheduler::fire_job(Job& job, JobEvent event,
                                                 bool outcome) {
  lifecycle::StateId s = static_cast<lifecycle::StateId>(job.state);
  const lifecycle::Transition* t = job_lc_.fire(
      s, static_cast<lifecycle::EventId>(event),
      [outcome](const lifecycle::Guard&) { return outcome; }, job.user,
      job.group, job.user);
  job.state = static_cast<JobState>(s);
  return t;
}

void Scheduler::finish_job(Job& job, JobState final_state,
                           bool run_epilog, bool dependency_never) {
  const bool was_running = (job.state == JobState::running);
  if (was_running && run_epilog) {
    for (const auto& alloc : job.allocations) {
      run_epilog_on(job, alloc);
    }
  }
  if (was_running) release_allocations(job);

  // Route the exit through the job table. From pending only cancel (or
  // its dependency-never flavour) arrives here; from running the final
  // state picks the event, and the gpu-scrub guard's runtime ground
  // truth is "an epilog hook runs for this finish" (Cluster wires that
  // hook's scrub behaviour from the same policy knob the table names).
  JobEvent event;
  if (!was_running) {
    event = dependency_never ? JobEvent::dep_never : JobEvent::cancel;
  } else if (final_state == JobState::completed) {
    event = JobEvent::complete;
  } else if (final_state == JobState::timeout) {
    event = JobEvent::time_limit;
  } else if (final_state == JobState::cancelled) {
    event = JobEvent::cancel;
  } else {
    event = JobEvent::node_fail;
  }
  const bool scrubbed = was_running && run_epilog &&
                        event != JobEvent::node_fail &&
                        static_cast<bool>(epilog_);
  const lifecycle::Transition* t = fire_job(job, event, scrubbed);
  if (t == nullptr || static_cast<JobState>(t->to) != final_state) {
    // Fail closed: a second finish would rewrite the job's accounting.
    throw std::logic_error("Scheduler: job finished from an illegal state");
  }
  job.end_time = clock_->now();
  if (was_running) last_completion_ = std::max(last_completion_,
                                               job.end_time);

  AccountingRecord rec;
  rec.id = job.id;
  rec.user = job.user;
  rec.group = job.group;
  rec.name = job.spec.name;
  rec.final_state = final_state;
  rec.submit_time = job.submit_time;
  rec.start_time = job.start_time;
  rec.end_time = job.end_time;
  rec.cpus = job.total_cpus();
  rec.cpu_ns = was_running
                   ? static_cast<std::uint64_t>(job.end_time.ns -
                                                job.start_time.ns) *
                         rec.cpus
                   : 0;
  consumed_cpu_ns_[job.user] += rec.cpu_ns;
  accounting_.push_back(std::move(rec));
}

void Scheduler::integrate_utilization() {
  const common::SimTime now = clock_->now();
  const std::int64_t dt = now.ns - last_integration_.ns;
  if (dt <= 0) return;
  last_integration_ = now;
  util_.horizon_ns += dt;
  // O(1): the per-node busy/blocked sums are maintained incrementally by
  // reindex_node at every mutation site. Blocked capacity still means:
  // under node-granular policies an occupied node is entirely unavailable
  // to other users, regardless of cpus_used.
  util_.cpu_capacity_ns +=
      static_cast<double>(total_compute_cpus_) * static_cast<double>(dt);
  util_.cpu_busy_ns +=
      static_cast<double>(busy_cpus_) * static_cast<double>(dt);
  util_.cpu_blocked_ns +=
      static_cast<double>(blocked_cpus_) * static_cast<double>(dt);
}

common::SimTime Scheduler::head_reservation(const Job& head) const {
  // EASY backfill: pretend each running job ends at start + time_limit,
  // release resources in that order on a scratch copy, and find the first
  // time the head job fits.
  std::vector<NodeState> scratch = nodes_;
  std::vector<const Job*> by_limit;
  by_limit.reserve(running_.size());
  for (JobId id : running_) by_limit.push_back(&job_at(id));
  std::sort(by_limit.begin(), by_limit.end(),
            [](const Job* a, const Job* b) {
              return a->start_time.ns + a->spec.time_limit_ns <
                     b->start_time.ns + b->spec.time_limit_ns;
            });

  auto fits_now = [&]() {
    unsigned remaining = head.spec.num_tasks;
    for (const auto& node : scratch) {
      // Reservation ignores user bindings (they lapse when jobs end).
      NodeState probe = node;
      probe.bound_user.reset();
      probe.bound_job.reset();
      if (!probe.tasks.empty() &&
          (head.spec.exclusive ||
           policy_for(head.spec.partition) ==
               SharingPolicy::exclusive_job)) {
        continue;
      }
      const unsigned fit = tasks_fitting(probe, head);
      if (fit >= remaining) return true;
      remaining -= std::min(remaining, fit);
    }
    return remaining == 0;
  };

  for (const Job* j : by_limit) {
    // Release j on the scratch copy.
    for (const auto& alloc : j->allocations) {
      NodeState& node = scratch[alloc.node.value()];
      node.cpus_used -= alloc.tasks * j->spec.cpus_per_task;
      node.mem_used -= static_cast<std::uint64_t>(alloc.tasks) *
                       j->spec.mem_mb_per_task;
      for (GpuId g : alloc.gpus) node.gpu_used[g.value()] = false;
      node.tasks.erase(j->id);
      if (node.tasks.empty()) {
        node.bound_user.reset();
        node.bound_job.reset();
      }
    }
    if (fits_now()) {
      return common::SimTime{j->start_time.ns + j->spec.time_limit_ns};
    }
  }
  return common::SimTime{std::numeric_limits<std::int64_t>::max()};
}

void Scheduler::order_queue() {
  if (config_.priority != PriorityPolicy::fairshare) return;
  // Fairshare: users with the least consumed cpu-time go first; ties
  // break by submission order (job id), keeping the sort stable across
  // dispatch rounds.
  std::stable_sort(queue_.begin(), queue_.end(),
                   [this](JobId a, JobId b) {
                     const Job& ja = job_at(a);
                     const Job& jb = job_at(b);
                     const std::uint64_t* pa = consumed_cpu_ns_.find(ja.user);
                     const std::uint64_t* pb = consumed_cpu_ns_.find(jb.user);
                     const std::uint64_t ua = pa != nullptr ? *pa : 0;
                     const std::uint64_t ub = pb != nullptr ? *pb : 0;
                     if (ua != ub) return ua < ub;
                     return a < b;
                   });
}

void Scheduler::crash_node_internal(NodeId node,
                                    std::optional<JobId> culprit) {
  integrate_utilization();
  NodeState& st = nodes_[node.value()];
  ++failures_.node_crashes;

  std::optional<Uid> culprit_user;
  if (culprit) culprit_user = job_at(*culprit).user;

  // Snapshot: finish_job/requeue mutates st.tasks as it releases.
  std::vector<JobId> affected;
  for (const auto& [job_id, tasks] : st.tasks) {
    (void)tasks;
    affected.push_back(job_id);
  }
  for (JobId id : affected) {
    Job& job = job_at(id);
    const bool is_culprit = culprit && id == *culprit;
    if (!is_culprit) {
      ++failures_.victim_jobs_failed;
      if (culprit_user && job.user != *culprit_user) {
        ++failures_.cross_user_victims;
      }
    } else {
      ++failures_.culprit_jobs_failed;
    }
    // No epilog runs on a crashed node — the node is dead; the
    // node-crash hook below models the power-loss cleanup instead.
    const unsigned requeue_cap =
        job.spec.max_requeues.value_or(config_.default_max_requeues);
    if (!is_culprit && job.spec.requeue_on_failure &&
        job.requeues < requeue_cap) {
      // Tear down the allocation but return the job to the queue.
      release_allocations(job);
      job.allocations.clear();
      fire_job(job, JobEvent::node_fail, /*outcome=*/true);
      job.pending_reason = "NodeFail(requeued)";
      ++job.requeues;
      queue_.push_back(id);
      ++failures_.jobs_requeued;
    } else {
      if (!is_culprit && job.spec.requeue_on_failure) {
        // The job asked to be requeued but has hit its cap: it keeps
        // taking nodes down with it, so it fails for good.
        ++failures_.requeue_capped;
      }
      finish_job(job, JobState::failed, /*run_epilog=*/false);
    }
    std::erase(running_, id);
  }

  st.down_until = common::SimTime{clock_->now().ns +
                                  config_.node_reboot_ns};
  push_node_event(node.value(), *st.down_until);
  reindex_node(node.value());
  if (node_crash_hook_) node_crash_hook_(node);
}

Result<void> Scheduler::inject_oom(JobId id) {
  Job* jp = job_ptr(id);
  if (jp == nullptr) return Errno::esrch;
  Job& job = *jp;
  if (job.state != JobState::running || job.allocations.empty()) {
    return Errno::einval;
  }
  ++failures_.oom_events;
  crash_node_internal(job.allocations.front().node, id);
  dispatch();
  return ok_result();
}

Result<void> Scheduler::crash_node(NodeId node) {
  if (node.value() >= nodes_.size()) return Errno::einval;
  if (nodes_[node.value()].down_until.has_value()) return Errno::ebusy;
  crash_node_internal(node, std::nullopt);
  dispatch();
  return ok_result();
}

bool Scheduler::node_is_down(NodeId node) const {
  return node.value() < nodes_.size() &&
         nodes_[node.value()].down_until.has_value();
}

bool Scheduler::node_is_drained(NodeId node) const {
  return node.value() < nodes_.size() &&
         nodes_[node.value()].drained_until.has_value();
}

bool Scheduler::node_in_maintenance(NodeId node) const {
  return node.value() < nodes_.size() &&
         !nodes_[node.value()].pending_epilogs.empty();
}

Scheduler::DependencyState Scheduler::dependency_state(
    const Job& job) const {
  for (JobId dep : job.spec.depends_on) {
    const Job* dp = job_ptr(dep);
    if (dp == nullptr) continue;  // validated at submit; be lenient
    switch (dp->state) {
      case JobState::pending:
      case JobState::running:
        return DependencyState::waiting;
      case JobState::completed:
        break;  // satisfied
      case JobState::failed:
      case JobState::cancelled:
      case JobState::timeout:
        if (job.spec.dependency_afterok) {
          return DependencyState::never;  // afterok: broken forever
        }
        break;  // afterany: any terminal state satisfies
    }
  }
  return DependencyState::satisfied;
}

void Scheduler::dispatch() {
  order_queue();

  // Dependency pass: drop jobs whose afterok dependency failed, and skip
  // (but keep queued) jobs whose dependencies are still in flight.
  for (std::size_t i = 0; i < queue_.size();) {
    Job& job = job_at(queue_[i]);
    const DependencyState dep = dependency_state(job);
    if (dep == DependencyState::never) {
      // Slurm: DependencyNeverSatisfied — the job is cancelled.
      finish_job(job, JobState::cancelled, /*run_epilog=*/true,
                 /*dependency_never=*/true);
      queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
      continue;
    }
    ++i;
  }

  std::size_t i = 0;
  bool head_blocked = false;
  common::SimTime reservation{};
  while (i < queue_.size()) {
    Job& job = job_at(queue_[i]);
    if (dependency_state(job) == DependencyState::waiting) {
      job.pending_reason = "Dependency";
      ++i;
      continue;
    }
    if (!head_blocked) {
      if (try_start(job)) {
        queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
        continue;
      }
      job.pending_reason = "Resources";
      if (!config_.backfill) break;  // strict FCFS
      head_blocked = true;
      reservation = head_reservation(job);
      ++i;
      continue;
    }
    // Backfill phase: a later job may start only if it cannot delay the
    // head job's reservation (EASY rule on time limits).
    const common::SimTime would_end{clock_->now().ns +
                                    job.spec.time_limit_ns};
    if (would_end <= reservation && try_start(job)) {
      queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
      continue;
    }
    job.pending_reason = "Priority";
    ++i;
  }
}

void Scheduler::step() {
  integrate_utilization();
  const common::SimTime now = clock_->now();

  // Revive rebooted nodes and resume drained ones — event-driven: only
  // nodes with a due timer entry are visited, never the whole fleet.
  // Stale entries (timer since cleared or replaced) pop harmlessly.
  while (!node_event_heap_.empty() &&
         node_event_heap_.top().at_ns <= now.ns) {
    const std::uint32_t idx = node_event_heap_.top().node;
    node_event_heap_.pop();
    ++sched_stats_.node_event_pops;
    NodeState& node = nodes_[idx];
    bool changed = false;
    if (node.down_until && *node.down_until <= now) {
      node.down_until.reset();
      changed = true;
    }
    if (node.drained_until && *node.drained_until <= now) {
      node.drained_until.reset();
      changed = true;
    }
    if (changed) reindex_node(idx);
  }

  // Maintenance nodes re-run their failed epilogs on a timer.
  retry_pending_epilogs();

  // Complete due jobs in (end-time, id) order so epilogs observe a
  // consistent sequence. The heap pops exactly the due jobs; stale
  // entries (job cancelled/requeued since push) are discarded.
  std::vector<JobId> due;
  while (!completion_heap_.empty() &&
         completion_heap_.top().end_ns <= now.ns) {
    const CompletionEntry e = completion_heap_.top();
    completion_heap_.pop();
    ++sched_stats_.completion_heap_pops;
    // A job requeued at the instant it started restarts with the same end
    // time: both runs' entries are live, equal and pop back to back.
    if (is_stale(e) || (!due.empty() && due.back() == e.job)) continue;
    due.push_back(e.job);
  }
  for (JobId id : due) {
    Job& job = job_at(id);
    const bool timed_out = job.spec.duration_ns > job.spec.time_limit_ns;
    finish_job(job, timed_out ? JobState::timeout : JobState::completed);
    std::erase(running_, id);
  }

  dispatch();
}

std::optional<common::SimTime> Scheduler::next_event_time() const {
  std::optional<common::SimTime> next;
  // Earliest valid completion: discard stale tops (job no longer running
  // at that end time) so callers can never loop on a dead event.
  while (!completion_heap_.empty() && is_stale(completion_heap_.top())) {
    completion_heap_.pop();
  }
  if (!completion_heap_.empty()) {
    next = common::SimTime{completion_heap_.top().end_ns};
  }
  // Node reboots, drain expiries, and epilog retries are events too:
  // pending work may be waiting on any of them. An entry is live iff it
  // matches one of the node's current timers exactly (replaced timers
  // pushed a fresh entry).
  while (!node_event_heap_.empty()) {
    const NodeEventEntry e = node_event_heap_.top();
    const NodeState& node = nodes_[e.node];
    const common::SimTime at{e.at_ns};
    const bool live = (node.down_until && *node.down_until == at) ||
                      (node.drained_until && *node.drained_until == at) ||
                      (node.epilog_retry_at && *node.epilog_retry_at == at);
    if (!live) {
      node_event_heap_.pop();
      continue;
    }
    if (!next || at < *next) next = at;
    break;
  }
  return next;
}

void Scheduler::run_until_drained(common::SimTime deadline) {
  step();
  while (clock_->now() < deadline &&
         (!queue_.empty() || !running_.empty())) {
    auto next = next_event_time();
    if (!next) break;  // pending work but nothing running: wedged
    clock_->advance_to(std::min(*next, deadline));
    step();
  }
}

namespace {
JobView make_view(const Job& job) {
  return JobView{job.id,          job.user,
                 job.spec.name,   job.spec.partition,
                 job.state,       job.spec.command,
                 job.spec.working_dir, job.submit_time,
                 job.start_time,  job.spec.num_tasks,
                 job.state == JobState::pending ? job.pending_reason
                                                : std::string{}};
}
}  // namespace

std::vector<JobView> Scheduler::list_jobs(
    const simos::Credentials& cred) const {
  const bool privileged =
      cred.is_root() || operators_.contains(cred.uid);
  std::vector<JobView> out;
  // Dense sweep in id order: the output needs no sort, and the visit
  // order (hence the trace-record order) is deterministic by
  // construction instead of by hash-table accident.
  for (const Job& job : jobs_) {
    if (job.state != JobState::pending && job.state != JobState::running) {
      continue;
    }
    const bool hidden =
        config_.private_data.jobs && !privileged && job.user != cred.uid;
    if (trace_ != nullptr && !cred.is_root() && job.user != cred.uid) {
      trace_->record(obs::DecisionPoint::sched_query,
                     hidden ? obs::Outcome::deny : obs::Outcome::allow,
                     cred.uid, cred.egid, job.user,
                     obs::ChannelKind::scheduler_queue,
                     hidden ? obs::knob::private_data_jobs : nullptr,
                     [&](std::string& out_label) {
                       out_label += "squeue job ";
                       obs::append_uint(out_label, job.id.value());
                     });
    }
    if (hidden) continue;
    out.push_back(make_view(job));
  }
  return out;
}

Result<JobView> Scheduler::job_info(const simos::Credentials& cred,
                                    JobId id) const {
  const Job* jp = job_ptr(id);
  if (jp == nullptr) return Errno::esrch;
  const bool privileged =
      cred.is_root() || operators_.contains(cred.uid);
  const bool hidden = config_.private_data.jobs && !privileged &&
                      jp->user != cred.uid;
  if (trace_ != nullptr && !cred.is_root() && jp->user != cred.uid) {
    trace_->record(obs::DecisionPoint::sched_query,
                   hidden ? obs::Outcome::deny : obs::Outcome::allow,
                   cred.uid, cred.egid, jp->user,
                   obs::ChannelKind::scheduler_queue,
                   hidden ? obs::knob::private_data_jobs : nullptr,
                   [&](std::string& out) {
                     out += "scontrol job ";
                     obs::append_uint(out, id.value());
                   });
  }
  if (hidden) {
    // Indistinguishable from "no such job", as with Slurm PrivateData.
    return Errno::esrch;
  }
  return make_view(*jp);
}

const Job* Scheduler::find_job(JobId id) const { return job_ptr(id); }

std::vector<AccountingRecord> Scheduler::accounting(
    const simos::Credentials& cred) const {
  const bool privileged =
      cred.is_root() || operators_.contains(cred.uid);
  std::vector<AccountingRecord> out;
  for (const auto& rec : accounting_) {
    const bool hidden = config_.private_data.accounting && !privileged &&
                        rec.user != cred.uid;
    if (trace_ != nullptr && !cred.is_root() && rec.user != cred.uid) {
      trace_->record(obs::DecisionPoint::sched_query,
                     hidden ? obs::Outcome::deny : obs::Outcome::allow,
                     cred.uid, cred.egid, rec.user,
                     obs::ChannelKind::scheduler_accounting,
                     hidden ? obs::knob::private_data_accounting : nullptr,
                     [&](std::string& out_label) {
                       out_label += "sacct job ";
                       obs::append_uint(out_label, rec.id.value());
                     });
    }
    if (hidden) continue;
    out.push_back(rec);
  }
  return out;
}

std::map<Uid, std::uint64_t> Scheduler::usage_by_user(
    const simos::Credentials& cred) const {
  const bool privileged =
      cred.is_root() || operators_.contains(cred.uid);
  std::map<Uid, std::uint64_t> out;
  for (const auto& rec : accounting_) {
    const bool hidden = config_.private_data.usage && !privileged &&
                        rec.user != cred.uid;
    if (trace_ != nullptr && !cred.is_root() && rec.user != cred.uid) {
      trace_->record(obs::DecisionPoint::sched_query,
                     hidden ? obs::Outcome::deny : obs::Outcome::allow,
                     cred.uid, cred.egid, rec.user,
                     obs::ChannelKind::scheduler_usage,
                     hidden ? obs::knob::private_data_usage : nullptr,
                     [&](std::string& out_label) {
                       out_label += "sreport job ";
                       obs::append_uint(out_label, rec.id.value());
                     });
    }
    if (hidden) continue;
    out[rec.user] += rec.cpu_ns;
  }
  return out;
}

bool Scheduler::user_has_job_on(Uid uid, NodeId node) const {
  if (node.value() >= nodes_.size()) return false;
  for (const auto& [job_id, tasks] : nodes_[node.value()].tasks) {
    (void)tasks;
    if (job_at(job_id).user == uid) return true;
  }
  return false;
}

std::vector<JobId> Scheduler::jobs_on(NodeId node) const {
  std::vector<JobId> out;
  if (node.value() >= nodes_.size()) return out;
  for (const auto& [job_id, tasks] : nodes_[node.value()].tasks) {
    (void)tasks;
    out.push_back(job_id);
  }
  return out;
}

std::optional<Uid> Scheduler::node_user(NodeId node) const {
  if (node.value() >= nodes_.size()) return std::nullopt;
  const NodeState& st = nodes_[node.value()];
  if (st.bound_user) return st.bound_user;
  std::optional<Uid> user;
  for (const auto& [job_id, tasks] : st.tasks) {
    (void)tasks;
    const Uid u = job_at(job_id).user;
    if (user && *user != u) return std::nullopt;  // mixed node
    user = u;
  }
  return user;
}

unsigned Scheduler::node_free_cpus(NodeId node) const {
  if (node.value() >= nodes_.size()) return 0;
  const NodeState& st = nodes_[node.value()];
  return st.info.cpus - st.cpus_used;
}

double Scheduler::mean_wait_ns() const {
  double total = 0;
  std::size_t n = 0;
  for (const auto& rec : accounting_) {
    if (rec.final_state == JobState::cancelled &&
        rec.start_time.ns == 0) {
      continue;  // never started
    }
    total += static_cast<double>(rec.start_time.ns - rec.submit_time.ns);
    ++n;
  }
  return n > 0 ? total / static_cast<double>(n) : 0.0;
}

}  // namespace heus::sched
