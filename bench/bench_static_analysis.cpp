// E17: static-verdict latency vs a full dynamic audit.
//
// The static analyzer answers "which channels does this policy leave
// open" from the knobs alone; the LeakageAuditor answers it by building a
// simulated cluster and actively probing. Both must agree (the
// differential suite in tests/analyze enforces exact agreement across the
// sweep); this experiment quantifies why the static path is the one you
// can put in front of every policy change at a million-user site: a full
// 18-channel census is orders of magnitude cheaper than one dynamic
// audit, let alone a cluster build.
#include <chrono>

#include "analyze/analyzer.h"
#include "analyze/policy_space.h"
#include "analyze/report.h"
#include "bench/common/table.h"
#include "common/strings.h"
#include "core/audit.h"

namespace heus::bench {
namespace {

using common::Json;
using core::Cluster;
using core::ClusterConfig;
using core::LeakageAuditor;
using core::SeparationPolicy;

ClusterConfig config(SeparationPolicy policy) {
  ClusterConfig cfg;
  cfg.compute_nodes = 4;
  cfg.login_nodes = 1;
  cfg.cpus_per_node = 16;
  cfg.gpus_per_node = 2;
  cfg.gpu_mem_bytes = 4096;
  cfg.policy = policy;
  return cfg;
}

double elapsed_ns(std::chrono::steady_clock::time_point t0,
                  std::chrono::steady_clock::time_point t1) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
          .count());
}

std::string fmt_ns(double ns) {
  if (ns >= 1e6) return common::strformat("%.2f ms", ns / 1e6);
  if (ns >= 1e3) return common::strformat("%.2f us", ns / 1e3);
  return common::strformat("%.0f ns", ns);
}

void static_vs_dynamic(Json& results) {
  print_banner(
      "E17: static analysis vs dynamic audit latency",
      "One full 18-channel census per policy. The static path derives "
      "verdicts from the knobs; the dynamic path probes a live simulated "
      "cluster. Both agree exactly (tests/analyze differential suite).");

  const auto sweep = analyze::differential_sweep(32, 20240521);
  const analyze::StaticAnalyzer analyzer;

  // Static: full census (verdicts + attribution + minimal hardening)
  // over the whole sweep, repeated to get stable numbers.
  constexpr int kStaticReps = 50;
  std::size_t censuses = 0;
  std::size_t crossable = 0;
  const auto s0 = std::chrono::steady_clock::now();
  for (int rep = 0; rep < kStaticReps; ++rep) {
    for (const analyze::NamedPolicy& np : sweep) {
      const analyze::AnalysisReport report = analyzer.analyze(np.policy);
      crossable += report.crossable_count();
      ++censuses;
    }
  }
  const auto s1 = std::chrono::steady_clock::now();
  const double static_ns = elapsed_ns(s0, s1) / static_cast<double>(censuses);

  // Verdicts only (the inner pure function): what a bulk pre-submit gate
  // would run per (policy, channel).
  std::size_t verdicts = 0;
  const auto v0 = std::chrono::steady_clock::now();
  for (int rep = 0; rep < kStaticReps * 10; ++rep) {
    for (const analyze::NamedPolicy& np : sweep) {
      for (core::ChannelKind kind : core::kAllChannels) {
        crossable += analyze::is_crossable(analyzer.verdict(np.policy, kind))
                         ? 1
                         : 0;
        ++verdicts;
      }
    }
  }
  const auto v1 = std::chrono::steady_clock::now();
  const double verdict_ns = elapsed_ns(v0, v1) / static_cast<double>(verdicts);
  const double verdict_census_ns =
      verdict_ns * static_cast<double>(core::kAllChannels.size());

  // Dynamic, audit only: cluster prebuilt, one audit_pair per census.
  constexpr int kDynamicReps = 10;
  Cluster prebuilt(config(SeparationPolicy::hardened()));
  const Uid victim = *prebuilt.add_user("victim");
  const Uid observer = *prebuilt.add_user("observer");
  LeakageAuditor auditor(&prebuilt);
  std::size_t open_dyn = 0;
  const auto a0 = std::chrono::steady_clock::now();
  for (int rep = 0; rep < kDynamicReps; ++rep) {
    open_dyn += LeakageAuditor::open_count(
        auditor.audit_pair(victim, observer));
  }
  const auto a1 = std::chrono::steady_clock::now();
  const double audit_ns =
      elapsed_ns(a0, a1) / static_cast<double>(kDynamicReps);

  // Dynamic, end to end: cluster build + audit, what a naive pre-submit
  // check would actually cost per policy change.
  std::size_t open_e2e = 0;
  const auto e0 = std::chrono::steady_clock::now();
  for (int rep = 0; rep < kDynamicReps; ++rep) {
    Cluster cluster(config(SeparationPolicy::hardened()));
    const Uid v = *cluster.add_user("victim");
    const Uid o = *cluster.add_user("observer");
    LeakageAuditor a(&cluster);
    open_e2e += LeakageAuditor::open_count(a.audit_pair(v, o));
  }
  const auto e1 = std::chrono::steady_clock::now();
  const double e2e_ns = elapsed_ns(e0, e1) / static_cast<double>(kDynamicReps);

  Table table({"path", "census latency", "vs static verdicts"});
  Json series = Json::array();
  auto add_path = [&series](const char* path, double ns, double ratio) {
    Json row = Json::object();
    row.set("path", path);
    row.set("census_ns", ns);
    row.set("vs_static_verdicts_x", ratio);
    series.push(std::move(row));
  };
  add_path("static_verdicts", verdict_census_ns, 1.0);
  add_path("static_census", static_ns, static_ns / verdict_census_ns);
  add_path("dynamic_audit_prebuilt", audit_ns,
           audit_ns / verdict_census_ns);
  add_path("dynamic_audit_end_to_end", e2e_ns,
           e2e_ns / verdict_census_ns);
  table.add_row({"static verdicts (18 channels)", fmt_ns(verdict_census_ns),
                 "1.0x"});
  table.add_row({"static census (verdicts + attribution)", fmt_ns(static_ns),
                 common::strformat("%.0fx", static_ns / verdict_census_ns)});
  table.add_row({"dynamic audit (prebuilt cluster)", fmt_ns(audit_ns),
                 common::strformat("%.0fx", audit_ns / verdict_census_ns)});
  table.add_row({"dynamic audit (cluster build + audit)", fmt_ns(e2e_ns),
                 common::strformat("%.0fx", e2e_ns / verdict_census_ns)});
  table.print();

  std::printf(
      "\nsweep: %zu policies; checksum crossable=%zu open_dyn=%zu "
      "open_e2e=%zu\n",
      sweep.size(), crossable, open_dyn, open_e2e);
  std::printf(
      "gate throughput: %.0f policy censuses/sec static vs %.1f/sec "
      "dynamic end-to-end\n",
      1e9 / static_ns, 1e9 / e2e_ns);

  results.set("latency", std::move(series));
  results.set("sweep_policies", sweep.size());
  results.set("static_censuses_per_sec", 1e9 / static_ns);
  results.set("dynamic_e2e_per_sec", 1e9 / e2e_ns);
}

}  // namespace
}  // namespace heus::bench

int main(int argc, char** argv) {
  heus::common::Json results = heus::common::Json::object();
  heus::bench::static_vs_dynamic(results);
  const auto path = heus::common::json_flag(argc, argv, "BENCH_E17.json");
  if (!path) return 0;
  return heus::bench::write_report("E17", std::move(results), *path) ? 0 : 1;
}
