// E21: decision-spine overhead, enabled vs disabled.
//
// Claims under test (counted in allocations and record-materialisations,
// never wall clock, so results are machine-independent and diffable):
//  - Disabled (the default), record() costs ZERO heap allocations and
//    never invokes the caller's object-label callback; the bench exits
//    non-zero if a single allocation is observed.
//  - Disabled, the per-point allow/deny counters are still exact: an
//    end-to-end leakage audit produces bit-identical counters with the
//    trace on and off.
//  - Enabled, the steady-state cost is bounded: the ring never grows
//    after reaching capacity, and the label callback appends into a
//    reusable buffer, so the only allocations are the ring's bring-up
//    after clear(), not one per decision.
//
// Always writes BENCH_E21.json (override with --json=PATH); --smoke runs
// reduced sizes for CI.
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "bench/common/json.h"
#include "bench/common/table.h"
#include "common/strings.h"
#include "core/audit.h"
#include "core/cluster.h"
#include "obs/decision.h"

// ---------------------------------------------------------------------------
// Allocation counting: global operator new instrumented with a gate so
// only the probe windows are measured. Single-threaded by construction.
// ---------------------------------------------------------------------------

namespace {
std::uint64_t g_allocs = 0;
bool g_counting = false;

void* counted_alloc(std::size_t size) {
  if (g_counting) ++g_allocs;
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

struct ModeProbe {
  bool enabled = false;
  std::uint64_t decisions = 0;
  std::uint64_t allocations = 0;
  std::uint64_t objects_built = 0;  ///< label callbacks invoked
  std::uint64_t retained = 0;       ///< records resident in the ring
  std::uint64_t counted_total = 0;  ///< counter total (must == decisions)
};

ModeProbe trace_mode_probe(bool enabled, std::uint64_t decisions) {
  obs::DecisionTrace trace;
  trace.set_capacity(1024);
  trace.set_enabled(enabled);

  std::uint64_t built = 0;
  auto one = [&](std::uint64_t i) {
    trace.record(obs::DecisionPoint::ubf_admission,
                 i % 3 == 0 ? obs::Outcome::deny : obs::Outcome::allow,
                 Uid{1000}, Gid{1000}, Uid{1001},
                 obs::ChannelKind::tcp_cross_user,
                 i % 3 == 0 ? obs::knob::ubf : nullptr,
                 [&](std::string& out) {
                   ++built;
                   // Long enough to defeat SSO: a per-decision string
                   // would show up here as one allocation per record.
                   out += "host 12 port 23456 proto tcp attempt ";
                   obs::append_uint(out, i);
                 });
  };

  // Warm-up to steady state (fills the ring when enabled), then measure.
  for (std::uint64_t i = 0; i < 2048; ++i) one(i);
  trace.clear();
  built = 0;
  g_allocs = 0;
  g_counting = true;
  for (std::uint64_t i = 0; i < decisions; ++i) one(i);
  g_counting = false;

  ModeProbe out;
  out.enabled = enabled;
  out.decisions = decisions;
  out.allocations = g_allocs;
  out.objects_built = built;
  out.retained = trace.size();
  out.counted_total = trace.total();
  return out;
}

void mode_overhead_section(bool smoke) {
  print_banner(
      "E21a: per-decision record() cost, disabled vs enabled",
      "Disabled is the shipped default: zero allocations, zero object "
      "labels built, counters still exact. Enabled appends labels into "
      "a fixed-capacity ring and allocates only while bringing it up.");

  const std::uint64_t decisions = smoke ? 50000 : 1000000;
  Table table({"mode", "decisions", "allocations", "allocs/decision",
               "objects-built", "retained", "counted-total"});
  JsonValue series = JsonValue::array();
  bool disabled_clean = true;
  for (bool enabled : {false, true}) {
    const ModeProbe p = trace_mode_probe(enabled, decisions);
    if (!p.enabled && (p.allocations != 0 || p.objects_built != 0)) {
      disabled_clean = false;
    }
    table.add_row(
        {p.enabled ? "enabled" : "disabled", std::to_string(p.decisions),
         std::to_string(p.allocations),
         common::strformat("%.4f",
                           static_cast<double>(p.allocations) /
                               static_cast<double>(p.decisions)),
         std::to_string(p.objects_built), std::to_string(p.retained),
         std::to_string(p.counted_total)});
    JsonValue row = JsonValue::object();
    row.set("enabled", JsonValue::boolean(p.enabled));
    row.set("decisions", JsonValue::integer(p.decisions));
    row.set("allocations", JsonValue::integer(p.allocations));
    row.set("objects_built", JsonValue::integer(p.objects_built));
    row.set("retained", JsonValue::integer(p.retained));
    row.set("counted_total", JsonValue::integer(p.counted_total));
    series.push(std::move(row));
  }
  table.print();
  JsonReport::instance().set("mode_overhead", std::move(series));
  JsonReport::instance().set("disabled_zero_alloc",
                             JsonValue::boolean(disabled_clean));
  if (!disabled_clean) {
    std::fprintf(stderr,
                 "FAIL: disabled-mode record() performed heap work\n");
    std::exit(1);
  }
}

// ---------------------------------------------------------------------------
// End-to-end: the full leakage audit driven twice over identical
// clusters, trace off and trace on. The per-point counters must match
// bit-for-bit — proof the disabled spine loses no accounting — and the
// enabled run yields the decision census by enforcement point.
// ---------------------------------------------------------------------------

core::ClusterConfig audit_config() {
  core::ClusterConfig cfg;
  cfg.compute_nodes = 2;
  cfg.login_nodes = 1;
  cfg.cpus_per_node = 8;
  cfg.gpus_per_node = 1;
  cfg.gpu_mem_bytes = 1024;
  cfg.policy = core::SeparationPolicy::hardened();
  return cfg;
}

struct AuditProbe {
  std::uint64_t total = 0;
  std::uint64_t retained = 0;
  std::uint64_t overwritten = 0;
  obs::DecisionTrace::CountersArray counters{};
};

AuditProbe audit_probe(bool enabled) {
  core::Cluster cluster(audit_config());
  cluster.trace().set_enabled(enabled);
  const Uid victim = *cluster.add_user("victim");
  const Uid observer = *cluster.add_user("observer");
  core::LeakageAuditor auditor(&cluster);
  (void)auditor.audit_pair(victim, observer);
  AuditProbe out;
  out.total = cluster.trace().total();
  out.retained = cluster.trace().size();
  out.overwritten = cluster.trace().overwritten();
  for (obs::DecisionPoint point : obs::kAllDecisionPoints) {
    out.counters[obs::point_index(point)] =
        cluster.trace().counters(point);
  }
  return out;
}

void audit_census_section() {
  print_banner(
      "E21b: decision census over a full leakage audit (hardened)",
      "One audit_pair() under the hardened policy, every enforcement "
      "point routed through the spine. Counters are identical with the "
      "trace disabled — the spine loses nothing when off.");

  const AuditProbe off = audit_probe(false);
  const AuditProbe on = audit_probe(true);

  Table table({"decision-point", "allowed", "denied"});
  JsonValue series = JsonValue::array();
  for (obs::DecisionPoint point : obs::kAllDecisionPoints) {
    const obs::PointCounters& c = on.counters[obs::point_index(point)];
    table.add_row({obs::to_string(point), std::to_string(c.allowed),
                   std::to_string(c.denied)});
    JsonValue row = JsonValue::object();
    row.set("point", JsonValue::str(obs::to_string(point)));
    row.set("allowed", JsonValue::integer(c.allowed));
    row.set("denied", JsonValue::integer(c.denied));
    series.push(std::move(row));
  }
  table.print();

  bool counters_match = off.total == on.total;
  for (obs::DecisionPoint point : obs::kAllDecisionPoints) {
    const auto idx = obs::point_index(point);
    if (off.counters[idx].allowed != on.counters[idx].allowed ||
        off.counters[idx].denied != on.counters[idx].denied) {
      counters_match = false;
    }
  }
  std::printf("\ntotal decisions: %llu (retained %llu, overwritten %llu); "
              "disabled-run counters %s\n",
              static_cast<unsigned long long>(on.total),
              static_cast<unsigned long long>(on.retained),
              static_cast<unsigned long long>(on.overwritten),
              counters_match ? "match" : "MISMATCH");

  JsonReport::instance().set("audit_census", std::move(series));
  JsonReport::instance().set("audit_total_decisions",
                             JsonValue::integer(on.total));
  JsonReport::instance().set("audit_retained", JsonValue::integer(on.retained));
  JsonReport::instance().set("counters_match_disabled",
                             JsonValue::boolean(counters_match));
  if (!counters_match) {
    std::fprintf(stderr,
                 "FAIL: counters diverge between enabled and disabled\n");
    std::exit(1);
  }
}

}  // namespace
}  // namespace heus::bench

int main(int argc, char** argv) {
  using heus::bench::JsonReport;
  using heus::bench::JsonValue;
  const bool smoke = heus::bench::has_flag(argc, argv, "--smoke");
  const std::string json_path =
      heus::bench::json_output_path(argc, argv, "BENCH_E21.json")
          .value_or("BENCH_E21.json");

  heus::bench::mode_overhead_section(smoke);
  heus::bench::audit_census_section();

  JsonReport::instance().set("smoke", JsonValue::boolean(smoke));
  return JsonReport::instance().write("E21", json_path) ? 0 : 1;
}
