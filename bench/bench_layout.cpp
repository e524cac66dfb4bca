// E26 (ISSUE 10): memory layout of the per-decision hot path.
//
// Claims under test (counted in allocations and bytes requested from the
// global heap, never wall clock alone, so results are machine-independent
// and diffable across commits):
//  - Flow admission/teardown churn at steady state performs no per-op
//    node allocations: the flow table, conntrack, per-host indices and
//    message queues live in dense open-addressing / slot-map / arena
//    storage that recycles in place.
//  - A placement round at steady state allocates nothing per queued-job
//    attempt: candidate sets are sorted dense vectors, the jobs table is
//    a dense array.
//  - The enabled-trace record() path appends each label into a reusable
//    buffer and stores decisions SoA with labels interned into a
//    per-trace ring, so it allocates nothing per decision at steady
//    state (and the disabled path stays at exactly zero allocations —
//    E21's guarantee, re-checked here).
//  - Touched-bytes proxies: the bytes a GC sweep or cross-user scan must
//    drag through cache per entry (hot split only, not payload).
//
// Always writes BENCH_E26.json (override with --json=PATH); --smoke runs
// reduced sizes for CI.
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include "bench/common/table.h"
#include "common/clock.h"
#include "common/rng.h"
#include "common/strings.h"
#include "net/network.h"
#include "obs/decision.h"
#include "sched/scheduler.h"
#include "simos/user_db.h"

// ---------------------------------------------------------------------------
// Allocation counting: global operator new instrumented with a gate so
// only the probe windows are measured. Single-threaded by construction.
// ---------------------------------------------------------------------------

namespace {
std::uint64_t g_allocs = 0;
std::uint64_t g_bytes = 0;
bool g_counting = false;

void* counted_alloc(std::size_t size) {
  if (g_counting) {
    ++g_allocs;
    g_bytes += size;
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace heus::bench {
namespace {

using common::Json;
using common::kSecond;

struct Window {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
  std::int64_t wall_ns = 0;
};

template <typename Fn>
Window measure(Fn&& fn) {
  g_allocs = 0;
  g_bytes = 0;
  g_counting = true;
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  g_counting = false;
  Window w;
  w.allocs = g_allocs;
  w.bytes = g_bytes;
  w.wall_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
  return w;
}

net::LatencyModel zero_latency() {
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
// E26a: flow admission/teardown churn. Steady-state connect+send+recv+
// close cycles against one listener; half the flows are closed
// explicitly (exercising the freed-port ring and index erase paths),
// half are left for TTL GC (exercising the expiry heap sweep).
// ---------------------------------------------------------------------------

void flow_churn_section(Json& results, bool smoke) {
  print_banner(
      "E26a: flow admission/teardown churn (steady state)",
      "Per-op heap traffic of the connect/send/recv/close/gc cycle after "
      "warm-up. Every allocation here is a node or queue block the dense "
      "layout is supposed to have eliminated.");

  const std::uint64_t ops = smoke ? 20000 : 200000;
  common::SimClock clock;
  net::Network nw(&clock);
  nw.set_latency(zero_latency());
  nw.set_flow_ttl(10 * kSecond);

  const HostId server = nw.add_host("server");
  std::vector<HostId> clients;
  for (unsigned i = 0; i < 4; ++i) {
    clients.push_back(nw.add_host(common::strformat("client%u", i)));
  }
  const auto alice = plain_user(1000);
  (void)nw.listen(server, alice, Pid{1}, net::Proto::tcp, 7000);

  std::int64_t now_ns = 0;
  auto one = [&](std::uint64_t i) {
    now_ns += common::kMillisecond;
    clock.advance_to(common::SimTime{now_ns});
    auto flow = nw.connect(clients[i % clients.size()], alice, Pid{2},
                           server, net::Proto::tcp, 7000);
    if (!flow.ok()) return;
    (void)nw.send(*flow, net::FlowEnd::client, "ping-payload");
    (void)nw.send(*flow, net::FlowEnd::server, "pong-payload");
    (void)nw.recv(*flow, net::FlowEnd::server);
    (void)nw.recv(*flow, net::FlowEnd::client);
    if (i % 2 == 0) {
      (void)nw.close(*flow);
    }
    if (i % 1024 == 1023) (void)nw.gc();
  };

  for (std::uint64_t i = 0; i < 30000; ++i) one(i);  // warm-up
  const Window w = measure([&] {
    for (std::uint64_t i = 0; i < ops; ++i) one(i);
  });

  Table table({"ops", "allocs", "allocs/op", "bytes", "bytes/op", "ns/op"});
  table.add_row(
      {std::to_string(ops), std::to_string(w.allocs),
       common::strformat("%.4f", static_cast<double>(w.allocs) /
                                     static_cast<double>(ops)),
       std::to_string(w.bytes),
       common::strformat("%.1f", static_cast<double>(w.bytes) /
                                     static_cast<double>(ops)),
       common::strformat("%.1f", static_cast<double>(w.wall_ns) /
                                     static_cast<double>(ops))});
  table.print();

  results.set("flow_churn_ops", ops);
  results.set("alloc_flow_churn_allocs", w.allocs);
  results.set("alloc_flow_churn_bytes", w.bytes);
  results.set("flow_churn_wall_ns_per_op",
              static_cast<double>(w.wall_ns) / static_cast<double>(ops));
}

// ---------------------------------------------------------------------------
// E26b: placement micro-loop. A saturating whole-node stream over a
// fleet; the steady-state cost of a dispatch round is candidate-set
// maintenance + job-table bookkeeping.
// ---------------------------------------------------------------------------

void placement_section(Json& results, bool smoke) {
  print_banner(
      "E26b: placement rounds over a saturating whole-node stream",
      "Heap traffic of submit+dispatch+finish at fleet scale. Candidate "
      "sets and the jobs table are the per-attempt cost drivers.");

  const unsigned nodes = smoke ? 64 : 512;
  const unsigned cpus_per_node = 8;
  const std::size_t n_jobs = static_cast<std::size_t>(nodes) * 6;

  common::SimClock clock;
  simos::UserDb db;
  std::vector<simos::Credentials> users;
  for (std::size_t u = 0; u < 16; ++u) {
    users.push_back(
        *simos::login(db, *db.create_user("user" + std::to_string(u))));
  }
  sched::SchedulerConfig cfg;
  cfg.policy = sched::SharingPolicy::user_whole_node;
  sched::Scheduler sched(&clock, cfg);
  for (unsigned i = 0; i < nodes; ++i) {
    sched::NodeInfo info;
    info.hostname = common::strformat("c%u", i);
    info.cpus = cpus_per_node;
    info.mem_mb = static_cast<std::uint64_t>(cpus_per_node) * 4096;
    sched.add_node(info);
  }

  common::Rng rng(0xe26'0b5);
  struct Pending {
    std::int64_t at_ns;
    std::size_t user;
    sched::JobSpec spec;
  };
  std::vector<Pending> jobs;
  jobs.reserve(n_jobs);
  const double mean_interarrival_ns =
      70.0 * static_cast<double>(kSecond) / (1.5 * nodes);
  std::int64_t t = 0;
  for (std::size_t i = 0; i < n_jobs; ++i) {
    t += static_cast<std::int64_t>(rng.exponential(mean_interarrival_ns));
    Pending p;
    p.at_ns = t;
    p.user = rng.bounded(users.size());
    p.spec.name = "j";  // short: SSO, so job names are not the story
    p.spec.num_tasks = 1;
    p.spec.cpus_per_task = cpus_per_node;
    p.spec.mem_mb_per_task = 1024;
    p.spec.duration_ns = rng.uniform_int(20, 120) * kSecond;
    p.spec.time_limit_ns = p.spec.duration_ns * 2;
    jobs.push_back(std::move(p));
  }

  constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max();
  std::size_t next = 0;
  const Window w = measure([&] {
    while (true) {
      const std::int64_t t_submit = next < jobs.size() ? jobs[next].at_ns : kInf;
      const auto event = sched.next_event_time();
      const std::int64_t t_event = event ? event->ns : kInf;
      const std::int64_t now = std::min(t_submit, t_event);
      if (now == kInf) break;
      clock.advance_to(common::SimTime{now});
      while (next < jobs.size() && jobs[next].at_ns <= now) {
        (void)sched.submit(users[jobs[next].user], jobs[next].spec);
        ++next;
      }
      sched.step();
    }
  });

  const std::uint64_t attempts = sched.sched_stats().placement_attempts;
  const std::uint64_t examined = sched.sched_stats().nodes_examined;
  Table table({"nodes", "jobs", "attempts", "examined", "allocs",
               "allocs/attempt", "bytes", "ns/attempt"});
  table.add_row(
      {std::to_string(nodes), std::to_string(n_jobs),
       std::to_string(attempts), std::to_string(examined),
       std::to_string(w.allocs),
       common::strformat("%.3f", static_cast<double>(w.allocs) /
                                     static_cast<double>(attempts)),
       std::to_string(w.bytes),
       common::strformat("%.1f", static_cast<double>(w.wall_ns) /
                                     static_cast<double>(attempts))});
  table.print();

  results.set("placement_nodes", nodes);
  results.set("placement_jobs", n_jobs);
  results.set("placement_attempts", attempts);
  results.set("placement_nodes_examined", examined);
  results.set("alloc_placement_allocs", w.allocs);
  results.set("alloc_placement_bytes", w.bytes);
  results.set("placement_wall_ns_per_attempt",
              static_cast<double>(w.wall_ns) / static_cast<double>(attempts));
}

// ---------------------------------------------------------------------------
// E26c: enabled-trace record() cost. The disabled path must stay at
// exactly zero (E21's gate, re-checked); the enabled path appends each
// label into the trace's reusable scratch buffer and interns it in the
// SoA label ring, so at steady state it must allocate nothing either.
// ---------------------------------------------------------------------------

struct TraceProbe {
  std::uint64_t decisions = 0;
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
};

TraceProbe trace_probe(bool enabled, std::uint64_t decisions) {
  obs::DecisionTrace trace;
  trace.set_capacity(1024);
  trace.set_enabled(enabled);
  auto one = [&](std::uint64_t i) {
    trace.record(obs::DecisionPoint::ubf_admission,
                 i % 3 == 0 ? obs::Outcome::deny : obs::Outcome::allow,
                 Uid{1000}, Gid{1000}, Uid{1001},
                 obs::ChannelKind::tcp_cross_user,
                 i % 3 == 0 ? obs::knob::ubf : nullptr,
                 [&](std::string& out) {
                   out += "host 12 port 23456 proto tcp attempt ";
                   obs::append_uint(out, i);
                 });
  };
  for (std::uint64_t i = 0; i < 4096; ++i) one(i);  // steady state
  const Window w = measure([&] {
    for (std::uint64_t i = 0; i < decisions; ++i) one(i);
  });
  TraceProbe out;
  out.decisions = decisions;
  out.allocs = w.allocs;
  out.bytes = w.bytes;
  return out;
}

void trace_section(Json& results, bool smoke) {
  print_banner(
      "E26c: per-decision bytes on the trace paths",
      "The SoA ring interns label bytes in place, so the enabled path "
      "allocates nothing at steady state. Disabled must remain exactly "
      "zero-alloc.");

  const std::uint64_t decisions = smoke ? 50000 : 500000;
  Table table({"path", "decisions", "allocs", "bytes", "bytes/decision"});
  Json series = Json::array();
  bool disabled_clean = true;
  std::uint64_t append_bytes = 0;
  for (const bool enabled : {false, true}) {
    const TraceProbe p = trace_probe(enabled, decisions);
    // Row names key the ratchet baseline (bench/baselines/BENCH_E26.json).
    const char* name = enabled ? "append-form" : "disabled";
    if (enabled) {
      append_bytes = p.bytes;
    } else if (p.allocs != 0) {
      disabled_clean = false;
    }
    table.add_row({name, std::to_string(p.decisions),
                   std::to_string(p.allocs), std::to_string(p.bytes),
                   common::strformat("%.1f", static_cast<double>(p.bytes) /
                                                 static_cast<double>(
                                                     p.decisions))});
    Json row = Json::object();
    row.set("path", name);
    row.set("decisions", p.decisions);
    row.set("allocs", p.allocs);
    row.set("bytes", p.bytes);
    series.push(std::move(row));
  }
  table.print();

  results.set("trace_paths", std::move(series));
  results.set("alloc_trace_append_bytes", append_bytes);
  results.set("trace_disabled_zero_alloc", disabled_clean);
  if (!disabled_clean) {
    std::fprintf(stderr, "FAIL: disabled-mode record() allocated\n");
    std::exit(1);
  }
}

// ---------------------------------------------------------------------------
// E26d: touched-bytes proxies. What one entry drags through cache on the
// sweeps that scan flow or decision storage. Pure sizeof arithmetic —
// deterministic, so the ratchet pins layout regressions directly.
// ---------------------------------------------------------------------------

void footprint_section(Json& results) {
  print_banner(
      "E26d: per-entry footprint of the scanned records",
      "Bytes per entry a GC sweep / cross-user scan / trace snapshot "
      "touches. Hot/cold splits show up here as a smaller hot size.");

  const std::size_t flow_record =
      net::Network::flow_hot_bytes() + net::Network::flow_cold_bytes();
  const std::size_t flow_sweep = net::Network::flow_hot_bytes();
  const std::size_t decision_record = sizeof(obs::Decision);

  Table table({"record", "bytes"});
  table.add_row({"flow (hot+cold SoA row)", std::to_string(flow_record)});
  table.add_row({"flow (GC/scan touched = hot)", std::to_string(flow_sweep)});
  table.add_row({"flow (snapshot struct)",
                 std::to_string(sizeof(net::Flow))});
  table.add_row({"decision (ring entry)", std::to_string(decision_record)});
  table.print();

  results.set("flow_record_bytes", flow_record);
  results.set("flow_sweep_touched_bytes", flow_sweep);
  results.set("decision_record_bytes", decision_record);
}

}  // namespace
}  // namespace heus::bench

int main(int argc, char** argv) {
  const bool smoke = heus::bench::has_flag(argc, argv, "--smoke");
  const std::string path =
      heus::common::json_flag(argc, argv, "BENCH_E26.json")
          .value_or("BENCH_E26.json");

  heus::common::Json results = heus::common::Json::object();
  heus::bench::flow_churn_section(results, smoke);
  heus::bench::placement_section(results, smoke);
  heus::bench::trace_section(results, smoke);
  heus::bench::footprint_section(results);

  results.set("smoke", smoke);
  return heus::bench::write_report("E26", std::move(results), path) ? 0 : 1;
}
