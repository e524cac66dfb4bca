// job_storm: per-group Slurm-like schedulers under a heavy-tailed job
// stream, with PrivateData-filtered queries and pam_slurm probes.
//
// 24 node groups of 64 nodes (16 cpus) run on 3 workers; each group owns a
// user-whole-node scheduler with PrivateData::all() and EASY backfill, and
// a PamSlurm gate over it. Per (group, tick) a Pareto burst of jobs (1–128
// tasks, Pareto durations) arrives from Zipf-drawn users, then step(),
// then 4 queries per submit and one ssh probe per submit. Offered load
// exceeds capacity, so queues grow into the thousands within an episode
// and query cost tracks the backlog. No network traffic.
//
// Oracle: submit must return the next dense job id; every squeue/sacct row
// must belong to the caller; scontrol on a foreign job must be ESRCH; an
// ssh probe must pass exactly when the caller has a job on that node.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "core/engine.h"
#include "engine_tick.h"
#include "net/network.h"
#include "obs/decision.h"
#include "sched/scheduler.h"
#include "simos/credentials.h"
#include "simos/pam.h"
#include "simos/user_db.h"
#include "workloads.h"

namespace heus::e2e {
namespace {

using common::kSecond;

enum Kind : std::size_t {
  kSubmit, kStep, kListJobs, kJobInfo, kAccounting, kPamAuthorize,
};
constexpr OpKind kKinds[] = {
    {"sched.submit", Layer::sched},     {"sched.step", Layer::sched},
    {"sched.list_jobs", Layer::sched},  {"sched.job_info", Layer::sched},
    {"sched.accounting", Layer::sched}, {"simos.pam_authorize", Layer::simos},
};

struct Sizes {
  std::uint32_t groups;
  std::uint32_t nodes;   ///< per group
  std::uint32_t users;
  std::uint32_t ticks;   ///< per episode
  double submit_mean;    ///< jobs per (group, tick)
  std::size_t streams;   ///< independent op streams
  std::size_t episodes;  ///< measured phase
};

// Ten streams of 120 ticks: tick_p99_ms then rests on the 12 slowest of
// 1,200 distinct ticks rather than on one seed's one or two heaviest.
Sizes sizes(bool smoke) {
  if (smoke) return {4, 16, 256, 30, 2, 2, 2};
  return {24, 64, 4096, 120, 4, 10, 60};
}

constexpr unsigned kCpus = 16;
constexpr std::uint64_t kMemMb = 64 * 1024;
constexpr std::int64_t kTickAdvance = 10 * kSecond;
// Exactly this many per submit, with no random factor on top of the Pareto
// burst: a second heavy tail would let a few ticks, different for every
// seed, set tick_p99_ms.
constexpr std::uint32_t kQueriesPerSubmit = 4;

enum class QueryKind : std::uint8_t { list_jobs, job_info, accounting };

/// A job submission, kept compact (ten streams of them are held at once);
/// spec() builds the sched::JobSpec handed to submit().
struct Submit {
  std::uint32_t user = 0;
  std::uint32_t tasks = 1;
  std::uint64_t id = 0;  ///< ids are dense per scheduler, from 1
  std::int64_t duration_ns = 0;

  [[nodiscard]] sched::JobSpec spec() const {
    sched::JobSpec s;
    s.num_tasks = tasks;
    s.cpus_per_task = 1;
    s.mem_mb_per_task = 1024;
    s.duration_ns = duration_ns;
    s.time_limit_ns = 2 * duration_ns;
    return s;
  }
};

struct Query {
  QueryKind kind = QueryKind::list_jobs;
  std::uint32_t user = 0;
  std::uint64_t job = 0;  ///< job_info target
  bool visible = false;   ///< job_info: the caller owns the job
};

struct Probe {
  std::uint32_t user = 0;
  std::uint32_t node = 0;
};

/// One op stream; each vector is indexed through its *_begin by
/// (tick, group).
struct Stream {
  std::vector<Submit> submits;
  std::vector<std::size_t> submit_begin;
  std::vector<Query> queries;
  std::vector<std::size_t> query_begin;
  std::vector<Probe> probes;
  std::vector<std::size_t> probe_begin;
};

class JobStorm final : public Workload {
 public:
  JobStorm(bool smoke, std::uint64_t seed)
      : sz_(sizes(smoke)),
        seed_(seed),
        map_(core::ShardMap::blocks(
            static_cast<std::size_t>(sz_.groups) * sz_.nodes, sz_.groups)) {}

  [[nodiscard]] std::span<const OpKind> kinds() const override {
    return kKinds;
  }
  [[nodiscard]] std::size_t lanes() const override { return sz_.groups + 1; }
  [[nodiscard]] bool engine() const override { return true; }
  [[nodiscard]] std::size_t episodes() const override { return sz_.episodes; }
  [[nodiscard]] std::size_t streams() const override { return sz_.streams; }
  [[nodiscard]] std::uint64_t setup_failures() const override {
    return setup_failures_;
  }
  // PrivateData filtering renders one verdict per row scanned; with the
  // ring on, materialising those records would outweigh the scheduler.
  // The trace stays attached (its counters give decisions_per_s).
  [[nodiscard]] std::size_t ring() const override { return 0; }

  void generate() override;
  void setup() override;
  void reset() override { build_fabric(); }
  void run(Episode& ep) override;
  void finish(std::map<std::string, double>& c) const override;

 private:
  void draw_stream(Stream& st, Gen& gen) const;
  void build_fabric();
  void group_tick(const Stream& st, std::uint32_t g, std::uint32_t t,
                  Recorder& lane);
  [[nodiscard]] std::uint64_t schedule_digest() const;

  const Sizes sz_;
  const std::uint64_t seed_;
  const core::ShardMap map_;

  std::vector<Stream> streams_;

  std::unique_ptr<simos::UserDb> db_;
  std::vector<simos::Credentials> creds_;
  std::unique_ptr<common::SimClock> clock_;
  std::unique_ptr<net::Network> nw_;
  std::unique_ptr<core::ShardedEngine> engine_;
  std::vector<std::unique_ptr<sched::Scheduler>> scheds_;
  std::vector<std::unique_ptr<simos::PamSlurm>> pams_;
  obs::DecisionTrace trace_;
  unsigned workers_ = 3;
  std::uint64_t setup_failures_ = 0;
};

void JobStorm::generate() {
  streams_.resize(sz_.streams);
  for (std::size_t k = 0; k < sz_.streams; ++k) {
    Gen gen(seed_, 2 + k);
    draw_stream(streams_[k], gen);
  }
}

void JobStorm::draw_stream(Stream& st, Gen& gen) const {
  const Zipf users(sz_.users, 1.1);
  // Jobs submitted so far per group, and their owners: job ids are dense
  // per scheduler, so the generator knows every id before it exists.
  std::vector<std::vector<std::uint32_t>> owners(sz_.groups);
  for (std::uint32_t t = 0; t < sz_.ticks; ++t) {
    for (std::uint32_t g = 0; g < sz_.groups; ++g) {
      st.submit_begin.push_back(st.submits.size());
      st.query_begin.push_back(st.queries.size());
      st.probe_begin.push_back(st.probes.size());
      const std::uint32_t burst = pareto_burst(gen, sz_.submit_mean);
      for (std::uint32_t b = 0; b < burst; ++b) {
        Submit s;
        s.user = static_cast<std::uint32_t>(users.draw(gen));
        // Log-uniform 1..128 tasks; Pareto(1.5) durations from 60 s,
        // capped at an hour; limits at twice the true runtime.
        s.tasks = std::min<std::uint32_t>(
            128, static_cast<std::uint32_t>(std::exp2(gen.uniform() * 7.0)));
        const double d =
            std::min(60.0 / std::pow(1.0 - gen.uniform(), 1.0 / 1.5), 3600.0);
        s.duration_ns = static_cast<std::int64_t>(d * 1e9);
        owners[g].push_back(s.user);
        s.id = owners[g].size();
        st.submits.push_back(s);
      }
      const std::uint32_t queries = kQueriesPerSubmit * burst;
      for (std::uint32_t q = 0; q < queries; ++q) {
        Query query;
        query.user = static_cast<std::uint32_t>(users.draw(gen));
        const std::uint64_t pick = gen.below(4);
        if (pick == 0) {
          query.kind = QueryKind::list_jobs;
        } else if (pick == 3) {
          query.kind = QueryKind::accounting;
        } else {
          query.kind = QueryKind::job_info;
          const std::vector<std::uint32_t>& own = owners[g];
          query.job = 1 + gen.below(own.size());
          if (gen.chance(0.5)) query.user = own[query.job - 1];
          query.visible = own[query.job - 1] == query.user;
        }
        st.queries.push_back(query);
      }
      for (std::uint32_t p = 0; p < burst; ++p) {
        // Half the probes come from someone who just submitted here.
        const std::uint32_t user =
            gen.chance(0.5) ? owners[g][owners[g].size() - 1 - gen.below(burst)]
                            : static_cast<std::uint32_t>(users.draw(gen));
        st.probes.push_back(
            {user, static_cast<std::uint32_t>(gen.below(sz_.nodes))});
      }
    }
  }
  st.submit_begin.push_back(st.submits.size());
  st.query_begin.push_back(st.queries.size());
  st.probe_begin.push_back(st.probes.size());
}

void JobStorm::setup() {
  db_ = std::make_unique<simos::UserDb>();
  for (std::uint32_t u = 0; u < sz_.users; ++u) {
    auto uid = db_->create_user("u" + std::to_string(u));
    auto cred = uid ? simos::login(*db_, *uid)
                    : Result<simos::Credentials>(uid.error());
    if (!cred) ++setup_failures_;
    creds_.push_back(cred ? *cred : simos::Credentials{});
  }
  build_fabric();
}

void JobStorm::build_fabric() {
  pams_.clear();
  scheds_.clear();
  engine_.reset();
  nw_.reset();
  clock_ = std::make_unique<common::SimClock>();
  nw_ = std::make_unique<net::Network>(clock_.get());
  for (std::size_t h = 0; h < map_.host_group.size(); ++h) {
    (void)nw_->add_host("n" + std::to_string(h));
  }
  core::EngineConfig ec;
  ec.workers = workers_;
  ec.seed = seed_;
  engine_ = std::make_unique<core::ShardedEngine>(nw_.get(), clock_.get(),
                                                  map_, ec);
  for (std::uint32_t g = 0; g < sz_.groups; ++g) {
    sched::SchedulerConfig cfg;
    cfg.policy = sched::SharingPolicy::user_whole_node;
    cfg.private_data = sched::PrivateData::all();
    cfg.backfill = true;
    scheds_.push_back(std::make_unique<sched::Scheduler>(clock_.get(), cfg));
    for (std::uint32_t n = 0; n < sz_.nodes; ++n) {
      sched::NodeInfo info;
      info.hostname = "g" + std::to_string(g) + "-n" + std::to_string(n);
      info.host = HostId{g * sz_.nodes + n};
      info.cpus = kCpus;
      info.mem_mb = kMemMb;
      (void)scheds_[g]->add_node(info);
    }
    sched::Scheduler* s = scheds_[g].get();
    pams_.push_back(std::make_unique<simos::PamSlurm>(
        [s](Uid uid, NodeId node) { return s->user_has_job_on(uid, node); }));
  }
  trace_.clear();
  trace_.set_clock(clock_.get());
}

void JobStorm::group_tick(const Stream& st, std::uint32_t g, std::uint32_t t,
                          Recorder& lane) {
  sched::Scheduler& s = *scheds_[g];
  const std::size_t k = static_cast<std::size_t>(t) * sz_.groups + g;
  for (std::size_t j = st.submit_begin[k]; j < st.submit_begin[k + 1]; ++j) {
    const Submit& sub = st.submits[j];
    const sched::JobSpec spec = sub.spec();
    auto id =
        lane.call(kSubmit, [&] { return s.submit(creds_[sub.user], spec); });
    if (!id || id->value() != sub.id) lane.fail();
  }
  lane.call(kStep, [&] { s.step(); });

  for (std::size_t j = st.query_begin[k]; j < st.query_begin[k + 1]; ++j) {
    const Query& q = st.queries[j];
    const simos::Credentials& cred = creds_[q.user];
    switch (q.kind) {
      case QueryKind::list_jobs: {
        const auto rows = lane.call(kListJobs, [&] { return s.list_jobs(cred); });
        for (const sched::JobView& row : rows) {
          if (row.user != cred.uid) lane.fail();
        }
        break;
      }
      case QueryKind::accounting: {
        const auto rows =
            lane.call(kAccounting, [&] { return s.accounting(cred); });
        for (const sched::AccountingRecord& row : rows) {
          if (row.user != cred.uid) lane.fail();
        }
        break;
      }
      case QueryKind::job_info: {
        const auto r = lane.call(kJobInfo,
                                 [&] { return s.job_info(cred, JobId{q.job}); });
        if (q.visible ? !r || r->user != cred.uid
                      : r || r.error() != Errno::esrch) {
          lane.fail();
        }
        break;
      }
    }
  }

  for (std::size_t j = st.probe_begin[k]; j < st.probe_begin[k + 1]; ++j) {
    const Probe& p = st.probes[j];
    const simos::Credentials& cred = creds_[p.user];
    const NodeId node{p.node};
    bool expect = false;
    for (const JobId job : s.jobs_on(node)) {
      expect = expect || s.find_job(job)->user == cred.uid;
    }
    const auto r = lane.call(kPamAuthorize, [&] {
      return pams_[g]->authorize_ssh(cred, node);
    });
    if (r.ok() != expect || (!r && r.error() != Errno::eperm)) lane.fail();
  }
}

std::uint64_t JobStorm::schedule_digest() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto fold = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& s : scheds_) {
    for (std::uint64_t id = 1;; ++id) {
      const sched::Job* job = s->find_job(JobId{id});
      if (job == nullptr) break;
      fold(static_cast<std::uint64_t>(job->state));
      fold(static_cast<std::uint64_t>(job->start_time.ns));
      fold(static_cast<std::uint64_t>(job->end_time.ns));
      for (const sched::Allocation& a : job->allocations) {
        fold(a.node.value());
        fold(a.tasks);
      }
    }
  }
  return h;
}

void JobStorm::run(Episode& ep) {
  if (engine_->workers() != ep.workers) {
    workers_ = ep.workers;
    build_fabric();
  }
  trace_.set_capacity(std::max<std::size_t>(ep.ring, 1));
  trace_.set_enabled(ep.ring > 0);
  obs::DecisionTrace* trace = ep.detach_trace ? nullptr : &trace_;
  for (std::uint32_t g = 0; g < sz_.groups; ++g) {
    scheds_[g]->set_trace(trace);
    pams_[g]->set_trace(trace);
  }

  std::vector<Recorder>& lanes = *ep.lanes;
  EngineTicker ticker(*engine_, lanes, ep);
  std::uint32_t tick = 0;
  const Stream& stream = streams_[ep.stream];
  ticker.set_group_body([&](std::uint32_t g, Recorder& lane) {
    group_tick(stream, g, tick, lane);
  });

  const std::int64_t start = now_ns();
  for (tick = 0; tick < sz_.ticks; ++tick) {
    if (!ticker.tick(tick)) lanes.back().fail();
    std::size_t pending = 0;
    for (const auto& s : scheds_) pending += s->pending_count();
    ep.sample("sched.pending_p50", static_cast<double>(pending));
    clock_->advance(kTickAdvance);
  }
  ep.wall = now_ns() - start;

  ep.decisions = 0;
  for (const obs::DecisionPoint p : obs::kAllDecisionPoints) {
    ep.decisions += trace_.counters(p).allowed + trace_.counters(p).denied;
  }
  ep.digest = (core::network_digest(*nw_) * 31 +
               core::decision_digest(trace_)) * 31 + schedule_digest();

  std::uint64_t fired = 0;
  std::uint64_t illegal = 0;
  sched::SchedStats st;
  for (const auto& s : scheds_) {
    fired += s->job_lifecycle().fired_total();
    illegal += s->job_lifecycle().illegal_events();
    st.placement_attempts += s->sched_stats().placement_attempts;
    st.placement_failures += s->sched_stats().placement_failures;
    st.nodes_examined += s->sched_stats().nodes_examined;
  }
  if (illegal != 0) lanes.back().fail();
  ep.count("lifecycle.fired_total", static_cast<double>(fired));
  ep.count("lifecycle.illegal_events", static_cast<double>(illegal));
  ep.count("sched.placement_attempts",
           static_cast<double>(st.placement_attempts));
  ep.count("sched.placement_failures",
           static_cast<double>(st.placement_failures));
  ep.count("sched.nodes_examined", static_cast<double>(st.nodes_examined));
  ep.count("obs.decisions_total", static_cast<double>(trace_.total()));
  ep.count("obs.overwritten", static_cast<double>(trace_.overwritten()));
  ep.count("core.total_work_ns",
           static_cast<double>(engine_->stats().total_work_ns));
  ep.count("core.modeled_span_ns",
           static_cast<double>(engine_->stats().modeled_span_ns));
}

void JobStorm::finish(std::map<std::string, double>& c) const {
  c["sched.placement_success_ratio"] =
      1.0 - ratio(c["sched.placement_failures"], c["sched.placement_attempts"]);
  c["sched.nodes_examined_per_attempt"] =
      ratio(c["sched.nodes_examined"], c["sched.placement_attempts"]);
  // No network charges: the work model has nothing to spread.
  c["core.modeled_speedup"] =
      c["core.modeled_span_ns"] > 0
          ? ratio(c["core.total_work_ns"], c["core.modeled_span_ns"])
          : 1.0;
}

}  // namespace

std::unique_ptr<Workload> make_job_storm(bool smoke, std::uint64_t seed) {
  return std::make_unique<JobStorm>(smoke, seed);
}

}  // namespace heus::e2e
