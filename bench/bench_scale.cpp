// E20 (ISSUE 4): fleet-scale hot paths.
//
// Claims under test (all measured in touched-entry counters, never wall
// clock, so results are machine-independent and diffable across commits):
//  - Conntrack GC with an expiry-ordered heap touches only due entries:
//    at 100k live flows a sweep that expires 5% of them must do >=10x
//    less work than the full-table scan it replaced.
//  - The UBF admission cache converts repeated (initiator, listener)
//    decisions into O(1) hits, and epoch invalidation bounds the miss
//    cost by the UserDb mutation rate — the hit rate degrades gracefully
//    as churn rises.
//  - Indexed placement examines candidate nodes, not the fleet: at 4096
//    nodes the examined-node count must be >=5x below the
//    attempts x fleet-size cost of the replaced full scan.
//
// Always writes BENCH_E20.json (override with --json=PATH); --smoke runs
// reduced sizes for CI.
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "bench/common/table.h"
#include "bench/common/workloads.h"
#include "common/clock.h"
#include "common/rng.h"
#include "common/strings.h"
#include "net/ubf.h"
#include "sched/scheduler.h"

namespace heus::bench {
namespace {

using common::Json;
using common::kSecond;
using sched::SharingPolicy;

net::LatencyModel zero_latency() {
  // The probes reason about explicit clock positions; implicit per-call
  // latency charges would skew expiry deadlines.
  net::LatencyModel zero;
  zero.base_syn_ns = 0;
  zero.conntrack_lookup_ns = 0;
  zero.hook_dispatch_ns = 0;
  zero.ident_local_ns = 0;
  zero.ident_remote_ns = 0;
  zero.per_packet_ns = 0;
  return zero;
}

simos::Credentials plain_user(std::uint32_t uid) {
  simos::Credentials c;
  c.uid = Uid{uid};
  c.egid = Gid{uid};
  return c;
}

// ---------------------------------------------------------------------------
// Shape 1: conntrack GC work at fleet-scale flow counts.
// ---------------------------------------------------------------------------

struct GcProbe {
  std::uint64_t flows = 0;          ///< live flows when the sweep ran
  std::uint64_t expired = 0;        ///< flows the sweep reaped
  std::uint64_t touched = 0;        ///< heap entries the sweep popped
  std::uint64_t full_scan_cost = 0; ///< entries the old scan would visit
  double reduction = 0;             ///< full_scan_cost / touched
};

GcProbe conntrack_gc_probe(unsigned n_flows) {
  common::SimClock clock;
  net::Network nw(&clock);
  nw.set_latency(zero_latency());

  // Ephemeral source ports are per-host (28232 each), so fleet-scale flow
  // counts need several client hosts — as they would in production.
  const HostId server = nw.add_host("server");
  std::vector<HostId> clients;
  for (unsigned i = 0; i < 4; ++i) {
    clients.push_back(nw.add_host(common::strformat("client%u", i)));
  }
  const auto alice = plain_user(1000);
  (void)nw.listen(server, alice, Pid{1}, net::Proto::tcp, 7000);

  const std::int64_t ttl = 10 * kSecond;
  const std::int64_t window = 10 * kSecond;
  nw.set_flow_ttl(ttl);

  // Stagger connects uniformly across the window so deadlines spread out.
  for (unsigned i = 0; i < n_flows; ++i) {
    clock.advance_to(common::SimTime{
        static_cast<std::int64_t>(i) * window / n_flows});
    (void)nw.connect(clients[i % clients.size()], alice, Pid{2}, server,
                     net::Proto::tcp, 7000);
  }

  // Sweep when 5% of the flows are past their deadline. The replaced
  // implementation walked the whole conntrack table here.
  clock.advance_to(common::SimTime{ttl + window / 20});
  GcProbe out;
  out.flows = nw.flow_count();
  out.full_scan_cost = out.flows;
  const std::uint64_t touched_before = nw.stats().gc_entries_touched;
  out.expired = nw.gc();
  out.touched = nw.stats().gc_entries_touched - touched_before;
  out.reduction = out.touched == 0
                      ? 0.0
                      : static_cast<double>(out.full_scan_cost) /
                            static_cast<double>(out.touched);
  return out;
}

void conntrack_section(Json& results, bool smoke) {
  print_banner(
      "E20a: conntrack GC work vs. live-flow count",
      "Expiry-heap sweeps touch only due entries; the replaced "
      "implementation scanned every live flow per sweep.");

  std::vector<unsigned> sizes =
      smoke ? std::vector<unsigned>{1000, 10000}
            : std::vector<unsigned>{10000, 100000};
  Table table({"live-flows", "expired", "entries-touched",
               "full-scan-cost", "reduction"});
  Json series = Json::array();
  for (unsigned n : sizes) {
    const GcProbe p = conntrack_gc_probe(n);
    table.add_row({std::to_string(p.flows), std::to_string(p.expired),
                   std::to_string(p.touched),
                   std::to_string(p.full_scan_cost),
                   common::strformat("%.1fx", p.reduction)});
    Json row = Json::object();
    row.set("live_flows", p.flows);
    row.set("expired", p.expired);
    row.set("entries_touched", p.touched);
    row.set("full_scan_cost", p.full_scan_cost);
    row.set("reduction_x", p.reduction);
    series.push(std::move(row));
  }
  table.print();
  results.set("conntrack_gc", std::move(series));
}

// ---------------------------------------------------------------------------
// Shape 2: UBF admission-cache hit rate vs. UserDb churn.
// ---------------------------------------------------------------------------

struct CacheProbe {
  double churn = 0;
  std::uint64_t decisions = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t invalidations = 0;
  double hit_rate = 0;
};

CacheProbe ubf_cache_probe(double churn, unsigned decisions,
                           std::uint64_t seed) {
  common::SimClock clock;
  simos::UserDb db;
  net::Network nw(&clock);
  nw.set_latency(zero_latency());
  const HostId ha = nw.add_host("node-a");
  const HostId hb = nw.add_host("node-b");

  constexpr unsigned kUsers = 64;
  constexpr unsigned kGroups = 8;
  std::vector<Uid> uids;
  std::vector<simos::Credentials> creds;
  for (unsigned u = 0; u < kUsers; ++u) {
    uids.push_back(*db.create_user("user" + std::to_string(u)));
    creds.push_back(*simos::login(db, uids.back()));
  }
  std::vector<Gid> groups;
  for (unsigned g = 0; g < kGroups; ++g) {
    groups.push_back(
        *db.create_project_group("proj" + std::to_string(g), uids[g]));
  }

  // Each user serves once under their UPG and once under a project group;
  // one client flow per user gives the initiator an attributable port.
  std::vector<std::uint16_t> upg_port(kUsers), proj_port(kUsers),
      client_port(kUsers);
  std::uint16_t next_port = 20000;
  for (unsigned u = 0; u < kUsers; ++u) {
    upg_port[u] = next_port;
    (void)nw.listen(ha, creds[u], Pid{u + 1}, net::Proto::tcp, next_port);
    ++next_port;
    const Gid g = groups[u % kGroups];
    (void)db.add_member(kRootUid, g, uids[u]);
    auto member_cred = *simos::login(db, uids[u]);
    auto server = simos::newgrp(db, member_cred, g);
    proj_port[u] = next_port;
    (void)nw.listen(ha, *server, Pid{u + 1}, net::Proto::tcp, next_port);
    ++next_port;
    auto f = nw.connect(hb, creds[u], Pid{u + 100}, ha, net::Proto::tcp,
                        upg_port[u]);
    client_port[u] = nw.find_flow(*f)->client_port;
  }

  net::Ubf ubf(&db, &nw);
  ubf.set_log_limit(0);
  common::Rng rng(seed);
  for (unsigned i = 0; i < decisions; ++i) {
    if (churn > 0 && rng.chance(churn)) {
      const Gid g = groups[static_cast<std::size_t>(
          rng.uniform_int(0, kGroups - 1))];
      const Uid u =
          uids[static_cast<std::size_t>(rng.uniform_int(0, kUsers - 1))];
      if (rng.chance(0.5)) {
        (void)db.add_member(kRootUid, g, u);
      } else {
        (void)db.remove_member(kRootUid, g, u);
      }
    }
    const auto initiator =
        static_cast<unsigned>(rng.uniform_int(0, kUsers - 1));
    const auto target =
        static_cast<unsigned>(rng.uniform_int(0, kUsers - 1));
    const std::uint16_t port =
        rng.chance(0.5) ? upg_port[target] : proj_port[target];
    net::ConnRequest req{hb, client_port[initiator], ha, port,
                         net::Proto::tcp};
    (void)ubf.decide(req);
  }

  CacheProbe out;
  out.churn = churn;
  out.decisions = decisions;
  out.hits = ubf.stats().cache_hits;
  out.misses = ubf.stats().cache_misses;
  out.invalidations = ubf.stats().cache_invalidations;
  const std::uint64_t attributed = out.hits + out.misses;
  out.hit_rate = attributed == 0 ? 0.0
                                 : static_cast<double>(out.hits) /
                                       static_cast<double>(attributed);
  return out;
}

void ubf_cache_section(Json& results, bool smoke) {
  print_banner(
      "E20b: UBF admission-cache hit rate vs. account-db churn",
      "Epoch invalidation clears the whole cache on any UserDb mutation "
      "(fail-safe); the hit rate is bounded by the mutation rate, not by "
      "guesswork about which entries a mutation affects.");

  const unsigned decisions = smoke ? 20000 : 200000;
  Table table({"churn-per-decision", "decisions", "hits", "misses",
               "invalidations", "hit-rate"});
  Json series = Json::array();
  std::uint64_t seed = 0xe20cac4e;
  for (double churn : {0.0, 0.001, 0.01, 0.1}) {
    const CacheProbe p = ubf_cache_probe(churn, decisions, seed++);
    table.add_row({common::strformat("%.3f", p.churn),
                   std::to_string(p.decisions), std::to_string(p.hits),
                   std::to_string(p.misses),
                   std::to_string(p.invalidations),
                   common::strformat("%.3f", p.hit_rate)});
    Json row = Json::object();
    row.set("churn_per_decision", p.churn);
    row.set("decisions", p.decisions);
    row.set("cache_hits", p.hits);
    row.set("cache_misses", p.misses);
    row.set("cache_invalidations", p.invalidations);
    row.set("hit_rate", p.hit_rate);
    series.push(std::move(row));
  }
  table.print();
  results.set("ubf_cache", std::move(series));
}

// ---------------------------------------------------------------------------
// Shape 3: placement work vs. fleet size.
// ---------------------------------------------------------------------------

struct PlacementProbe {
  unsigned nodes = 0;
  std::uint64_t attempts = 0;
  std::uint64_t failures = 0;
  std::uint64_t examined = 0;
  std::uint64_t old_cost_lb = 0;  ///< lower bound on pre-index work
  double speedup = 0;
  double utilization = 0;
  std::size_t completed = 0;
};

// A saturating whole-node stream: the fleet fills, a queue builds, and
// every dispatch round re-attempts the queued jobs. This is the regime
// the index exists for — the replaced implementation walked all N nodes
// on every failed attempt, so scheduler work grew as queue x fleet.
std::vector<WorkloadJob> make_saturating(unsigned nodes,
                                         unsigned cpus_per_node,
                                         std::size_t n_users) {
  common::Rng rng(0xe20'90b5);
  std::vector<WorkloadJob> jobs;
  const std::size_t n_jobs = static_cast<std::size_t>(nodes) * 2;
  jobs.reserve(n_jobs);
  // Mean duration ~70s, capacity = one job per node: offered load 1.5x.
  const double mean_interarrival_ns =
      70.0 * static_cast<double>(kSecond) / (1.5 * nodes);
  std::int64_t t = 0;
  for (std::size_t i = 0; i < n_jobs; ++i) {
    t += static_cast<std::int64_t>(rng.exponential(mean_interarrival_ns));
    WorkloadJob job;
    job.user_index = rng.bounded(n_users);
    job.submit_offset_ns = t;
    job.spec.name = "whole-node-" + std::to_string(i);
    job.spec.num_tasks = 1;
    job.spec.cpus_per_task = cpus_per_node;
    job.spec.mem_mb_per_task = 1024;
    job.spec.duration_ns = rng.uniform_int(20, 120) * kSecond;
    job.spec.time_limit_ns = job.spec.duration_ns * 2;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

PlacementProbe placement_probe(SharingPolicy policy, unsigned nodes,
                               unsigned cpus_per_node,
                               const std::vector<WorkloadJob>& jobs,
                               std::size_t n_users) {
  common::SimClock clock;
  simos::UserDb db;
  std::vector<simos::Credentials> users;
  for (std::size_t u = 0; u < n_users; ++u) {
    users.push_back(
        *simos::login(db, *db.create_user("user" + std::to_string(u))));
  }
  sched::SchedulerConfig cfg;
  cfg.policy = policy;
  sched::Scheduler sched(&clock, cfg);
  for (unsigned i = 0; i < nodes; ++i) {
    sched::NodeInfo info;
    info.hostname = common::strformat("c%u", i);
    info.cpus = cpus_per_node;
    info.mem_mb = static_cast<std::uint64_t>(cpus_per_node) * 4096;
    sched.add_node(info);
  }

  std::size_t next = 0;
  constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max();
  while (true) {
    const std::int64_t t_submit =
        next < jobs.size() ? jobs[next].submit_offset_ns : kInf;
    const auto event = sched.next_event_time();
    const std::int64_t t_event = event ? event->ns : kInf;
    const std::int64_t t = std::min(t_submit, t_event);
    if (t == kInf) break;
    clock.advance_to(common::SimTime{t});
    while (next < jobs.size() && jobs[next].submit_offset_ns <= t) {
      (void)sched.submit(users[jobs[next].user_index], jobs[next].spec);
      ++next;
    }
    sched.step();
  }

  PlacementProbe out;
  out.nodes = nodes;
  out.attempts = sched.sched_stats().placement_attempts;
  out.failures = sched.sched_stats().placement_failures;
  out.examined = sched.sched_stats().nodes_examined;
  // Conservative baseline: the replaced scan walked all N nodes on every
  // failed attempt and at least one node on every successful one (it
  // stopped early on success, so this is a strict lower bound).
  out.old_cost_lb = out.failures * nodes + (out.attempts - out.failures);
  out.speedup = out.examined == 0
                    ? 0.0
                    : static_cast<double>(out.old_cost_lb) /
                          static_cast<double>(out.examined);
  out.utilization = sched.utilization().utilization();
  out.completed = sched.completed_count();
  return out;
}

void placement_section(Json& results, bool smoke) {
  print_banner(
      "E20c: placement work vs. fleet size (saturated queue)",
      "Candidate-set indices examine eligible nodes only; the replaced "
      "scan visited every node per failed placement attempt, so a deep "
      "queue over a busy fleet cost queue x fleet per dispatch round. "
      "Work is counted in nodes examined; schedules are bit-for-bit "
      "identical (see sched_digest_test).");

  constexpr unsigned kCpus = 16;
  constexpr std::size_t kUsers = 64;
  const std::vector<unsigned> fleets =
      smoke ? std::vector<unsigned>{64, 256}
            : std::vector<unsigned>{256, 1024, 4096};
  Table table({"nodes", "policy", "attempts", "failures",
               "nodes-examined", "old-scan-cost-lb", "speedup",
               "utilization", "completed"});
  Json series = Json::array();
  for (unsigned nodes : fleets) {
    const auto jobs = make_saturating(nodes, kCpus, kUsers);
    for (auto policy :
         {SharingPolicy::shared, SharingPolicy::user_whole_node}) {
      const PlacementProbe p =
          placement_probe(policy, nodes, kCpus, jobs, kUsers);
      table.add_row({std::to_string(p.nodes), sched::to_string(policy),
                     std::to_string(p.attempts),
                     std::to_string(p.failures),
                     std::to_string(p.examined),
                     std::to_string(p.old_cost_lb),
                     common::strformat("%.1fx", p.speedup),
                     common::strformat("%.3f", p.utilization),
                     std::to_string(p.completed)});
      Json row = Json::object();
      row.set("nodes", p.nodes);
      row.set("policy", sched::to_string(policy));
      row.set("placement_attempts", p.attempts);
      row.set("placement_failures", p.failures);
      row.set("nodes_examined", p.examined);
      row.set("old_scan_cost_lb", p.old_cost_lb);
      row.set("speedup_x", p.speedup);
      row.set("utilization", p.utilization);
      row.set("completed", p.completed);
      series.push(std::move(row));
    }
  }
  table.print();
  results.set("placement", std::move(series));
}

}  // namespace
}  // namespace heus::bench

int main(int argc, char** argv) {
  const bool smoke = heus::bench::has_flag(argc, argv, "--smoke");
  const std::string path =
      heus::common::json_flag(argc, argv, "BENCH_E20.json")
          .value_or("BENCH_E20.json");

  heus::common::Json results = heus::common::Json::object();
  heus::bench::conntrack_section(results, smoke);
  heus::bench::ubf_cache_section(results, smoke);
  heus::bench::placement_section(results, smoke);

  results.set("smoke", smoke);
  return heus::bench::write_report("E20", std::move(results), path) ? 0 : 1;
}
