// E25 (ISSUE 9): sharded-engine scaling at fleet scale.
//
// The sharded BSP engine partitions the cluster into node groups and runs
// each group's tick work (connection churn, conntrack GC, scheduler
// events) on a worker pool, with cross-group traffic drained in a fixed
// order at the barrier. Two claims are measured here:
//
//  - Tick throughput scales with the worker count: on the 100k-host /
//    2M-user workload the modeled speedup at 4+ workers must be >= 3x.
//  - The parallelism is behaviour-preserving: the network digest of the
//    run is bit-identical at every worker count (the shard-invariance
//    tests pin this exhaustively; the bench re-checks it at scale).
//
// Speedup is *modeled*, not wall clock: work is simulated nanoseconds
// (the network's latency charges), assigned greedily to an idealized
// `workers`-thread machine per tick (makespan), plus the serial phase.
// This makes the number machine-independent and honest on a CI container
// whose real core count is 1 — wall clock there is flat by construction,
// while the model answers the question the paper cares about: how much
// parallel headroom the per-group separation actually exposes.
//
// Always writes BENCH_E25.json (override with --json=PATH); --smoke runs
// reduced sizes for CI.
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench/common/table.h"
#include "bench/common/workloads.h"
#include "common/clock.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/engine.h"
#include "net/network.h"
#include "net/ubf.h"
#include "sched/scheduler.h"
#include "simos/user_db.h"

namespace heus::bench {
namespace {

using common::Json;
using common::kSecond;

struct Sizes {
  std::size_t hosts = 0;
  std::size_t users = 0;        ///< account-database population
  std::uint32_t groups = 0;     ///< node groups (fixed across the sweep)
  int ticks = 0;
  int connects_per_group = 0;   ///< per group, per tick
  std::size_t jobs_per_group = 0;
};

Sizes full_sizes() { return {100'000, 2'000'000, 64, 20, 30, 40}; }
Sizes smoke_sizes() { return {2'000, 20'000, 8, 10, 12, 10}; }

struct ScaleRun {
  unsigned workers = 0;
  std::uint32_t groups = 0;
  std::int64_t total_work_ns = 0;
  std::int64_t modeled_span_ns = 0;
  double speedup = 0;
  std::uint64_t digest = 0;
  std::uint64_t established = 0;
  std::uint64_t ubf_decisions = 0;
  std::uint64_t cross_ops = 0;
  std::uint64_t jobs_submitted = 0;
};

/// One engine run: `sz.groups` node groups over `sz.hosts` hosts, per-group
/// connection churn + GC + a per-group scheduler (mode B), cross-group
/// connects through the outbox. The UserDb is shared (read-only during
/// ticks) so its multi-million-user build cost is paid once per sweep.
ScaleRun engine_run(const Sizes& sz, std::uint32_t groups, unsigned workers,
                    const simos::UserDb& db,
                    const std::vector<simos::Credentials>& active,
                    const simos::Credentials& wanderer) {
  common::SimClock clock;
  net::Network nw(&clock);
  nw.set_flow_ttl(3 * kSecond);
  std::vector<HostId> hosts;
  hosts.reserve(sz.hosts);
  for (std::size_t h = 0; h < sz.hosts; ++h) {
    hosts.push_back(nw.add_host(common::strformat("n%zu", h)));
  }

  const core::ShardMap map = core::ShardMap::blocks(sz.hosts, groups);
  core::EngineConfig ec;
  ec.workers = workers;
  ec.seed = 0xe25;
  core::ShardedEngine engine(&nw, &clock, map, ec);

  net::Ubf ubf(&db, &nw);
  ubf.set_clock(&clock);
  ubf.set_log_limit(0);
  ubf.attach();

  // Group g's hosts; every host serves its group's user (port 5000) and
  // the global wanderer (port 5001) — the latter is what lets cross-group
  // connects pass admission.
  std::vector<std::vector<HostId>> group_hosts(map.groups);
  for (std::size_t h = 0; h < sz.hosts; ++h) {
    const std::uint32_t g = map.host_group[h];
    group_hosts[g].push_back(hosts[h]);
    const simos::Credentials& owner = active[g % active.size()];
    (void)nw.listen(hosts[h], owner, Pid{1}, net::Proto::tcp, 5000);
    (void)nw.listen(hosts[h], wanderer, Pid{2}, net::Proto::tcp, 5001);
  }

  // Mode B: one scheduler per group over that group's nodes.
  std::vector<std::unique_ptr<sched::Scheduler>> scheds;
  std::vector<std::vector<WorkloadJob>> jobs(map.groups);
  std::vector<std::size_t> next(map.groups, 0);
  for (std::uint32_t g = 0; g < map.groups; ++g) {
    sched::SchedulerConfig cfg;
    cfg.policy = sched::SharingPolicy::user_whole_node;
    scheds.push_back(std::make_unique<sched::Scheduler>(&clock, cfg));
    for (std::size_t n = 0; n < group_hosts[g].size(); ++n) {
      sched::NodeInfo info;
      info.hostname = common::strformat("g%u-n%zu", g, n);
      info.cpus = 16;
      info.mem_mb = 16 * 4096ULL;
      scheds[g]->add_node(info);
    }
    WorkloadParams wp;
    wp.users = 2;
    wp.jobs = sz.jobs_per_group;
    wp.mean_interarrival_ns = kSecond / 4;
    wp.seed = 0x9000 + g;
    jobs[g] = make_bsp_sweep(wp);
  }

  std::vector<std::vector<FlowId>> open(map.groups);
  engine.set_group_tick([&](std::uint32_t g, common::Rng& rng) {
    const auto& gh = group_hosts[g];
    const simos::Credentials& owner = active[g % active.size()];
    for (int i = 0; i < sz.connects_per_group; ++i) {
      const HostId src = gh[rng.bounded(gh.size())];
      const HostId dst = gh[rng.bounded(gh.size())];
      const bool as_wanderer = rng.chance(0.3);
      const std::uint16_t port = rng.chance(0.5) ? 5000 : 5001;
      auto r = nw.connect(src, as_wanderer ? wanderer : owner, Pid{3}, dst,
                          net::Proto::tcp, port);
      if (r) open[g].push_back(*r);
    }
    auto& fl = open[g];
    for (std::size_t k = 0; k < fl.size();) {
      if (rng.chance(0.5)) {
        (void)nw.send(fl[k], net::FlowEnd::client, "x");
      }
      if (rng.chance(0.2)) {
        (void)nw.close(fl[k]);
        fl[k] = fl.back();
        fl.pop_back();
      } else {
        ++k;
      }
    }
    (void)nw.gc_bucket(g);

    auto& js = jobs[g];
    while (next[g] < js.size() &&
           js[next[g]].submit_offset_ns <= clock.now().ns) {
      (void)scheds[g]->submit(
          js[next[g]].user_index % 2 == 0 ? owner : wanderer,
          js[next[g]].spec);
      ++next[g];
    }
    scheds[g]->step();

    if (rng.chance(0.3)) {
      const std::uint32_t og = (g + 1) % map.groups;
      const HostId src = gh[rng.bounded(gh.size())];
      const HostId dst =
          group_hosts[og][rng.bounded(group_hosts[og].size())];
      engine.post_cross(g, [&nw, &wanderer, src, dst] {
        (void)nw.connect(src, wanderer, Pid{3}, dst, net::Proto::tcp, 5001);
      });
    }
  });
  engine.set_serial_tick([&] {
    (void)nw.gc_bucket(nw.cross_bucket());
    clock.advance(kSecond / 2);
  });

  for (int t = 0; t < sz.ticks; ++t) engine.tick();

  ScaleRun out;
  out.workers = workers;
  out.groups = map.groups;
  out.total_work_ns = engine.stats().total_work_ns;
  out.modeled_span_ns = engine.stats().modeled_span_ns;
  out.speedup = engine.stats().modeled_speedup();
  out.digest = core::network_digest(nw);
  out.established = nw.stats().connections_established;
  out.ubf_decisions = ubf.stats().decisions;
  out.cross_ops = engine.stats().cross_ops;
  for (std::uint32_t g = 0; g < map.groups; ++g) {
    out.jobs_submitted += next[g];
  }
  return out;
}

void worker_sweep_section(Json& results, const Sizes& sz,
                          const simos::UserDb& db,
                          const std::vector<simos::Credentials>& active,
                          const simos::Credentials& wanderer) {
  print_banner(
      "E25a: tick throughput vs. worker count (fixed node groups)",
      "Modeled speedup of the parallel intra-group phase on an idealized "
      "S-thread machine; the behaviour digest must not move.");

  Table table({"workers", "groups", "work-ms", "span-ms", "speedup",
               "established", "ubf-decisions", "cross-ops", "jobs",
               "digest"});
  Json series = Json::array();
  std::uint64_t digest0 = 0;
  bool digest_stable = true;
  for (const unsigned workers : {1u, 2u, 4u, 8u, 16u}) {
    const ScaleRun r =
        engine_run(sz, sz.groups, workers, db, active, wanderer);
    if (workers == 1u) digest0 = r.digest;
    digest_stable = digest_stable && r.digest == digest0;
    table.add_row(
        {std::to_string(r.workers), std::to_string(r.groups),
         common::strformat("%.1f", r.total_work_ns / 1e6),
         common::strformat("%.1f", r.modeled_span_ns / 1e6),
         common::strformat("%.2fx", r.speedup),
         std::to_string(r.established), std::to_string(r.ubf_decisions),
         std::to_string(r.cross_ops), std::to_string(r.jobs_submitted),
         common::strformat("%016llx",
                           static_cast<unsigned long long>(r.digest))});
    Json row = Json::object();
    row.set("workers", r.workers);
    row.set("groups", r.groups);
    row.set("total_work_ns", r.total_work_ns);
    row.set("modeled_span_ns", r.modeled_span_ns);
    row.set("speedup_x", r.speedup);
    row.set("established", r.established);
    row.set("ubf_decisions", r.ubf_decisions);
    row.set("cross_ops", r.cross_ops);
    row.set("jobs_submitted", r.jobs_submitted);
    row.set("digest", common::strformat(
                          "%016llx",
                          static_cast<unsigned long long>(r.digest)));
    series.push(std::move(row));
  }
  table.print();
  results.set("worker_sweep", std::move(series));
  results.set("digest_stable", digest_stable);
}

void group_sweep_section(Json& results, const Sizes& sz,
                         const simos::UserDb& db,
                         const std::vector<simos::Credentials>& active,
                         const simos::Credentials& wanderer) {
  print_banner(
      "E25b: available parallelism vs. node-group count (8 workers)",
      "Speedup is bounded by min(groups, workers) minus the serial "
      "cross-group fraction: one group is the serial baseline by "
      "construction, and headroom grows with the partition grain.");

  Table table({"groups", "workers", "work-ms", "span-ms", "speedup"});
  Json series = Json::array();
  for (const std::uint32_t groups : {1u, 2u, 4u, 8u}) {
    const ScaleRun r = engine_run(sz, groups, 8, db, active, wanderer);
    table.add_row({std::to_string(r.groups), std::to_string(r.workers),
                   common::strformat("%.1f", r.total_work_ns / 1e6),
                   common::strformat("%.1f", r.modeled_span_ns / 1e6),
                   common::strformat("%.2fx", r.speedup)});
    Json row = Json::object();
    row.set("groups", r.groups);
    row.set("workers", r.workers);
    row.set("total_work_ns", r.total_work_ns);
    row.set("modeled_span_ns", r.modeled_span_ns);
    row.set("speedup_x", r.speedup);
    series.push(std::move(row));
  }
  table.print();
  results.set("group_sweep", std::move(series));
}

}  // namespace
}  // namespace heus::bench

int main(int argc, char** argv) {
  const bool smoke = heus::bench::has_flag(argc, argv, "--smoke");
  const std::string path =
      heus::common::json_flag(argc, argv, "BENCH_E25.json")
          .value_or("BENCH_E25.json");
  const heus::bench::Sizes sz =
      smoke ? heus::bench::smoke_sizes() : heus::bench::full_sizes();

  // The account database is the paper's "millions of users" axis: built
  // once, shared read-only by every run in the sweep. Only a handful of
  // principals are *active* (own listeners / submit jobs); the rest are
  // the population the UBF's UserDb lookups run against.
  heus::simos::UserDb db;
  std::vector<heus::simos::Credentials> active;
  constexpr std::size_t kActive = 16;
  for (std::size_t u = 0; u < sz.users; ++u) {
    const auto uid = *db.create_user("u" + std::to_string(u));
    if (u < kActive) {
      active.push_back(*heus::simos::login(db, uid));
    }
  }
  const auto wanderer =
      *heus::simos::login(db, *db.create_user("wanderer"));

  heus::common::Json results = heus::common::Json::object();
  heus::bench::worker_sweep_section(results, sz, db, active, wanderer);
  heus::bench::group_sweep_section(results, sz, db, active, wanderer);

  results.set("hosts", sz.hosts);
  results.set("users", sz.users + 1);
  results.set("smoke", smoke);
  return heus::bench::write_report("E25", std::move(results), path) ? 0 : 1;
}
