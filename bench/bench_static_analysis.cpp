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
  analyze::AnalysisReport report;
  const double static_total_ns = fastest_ns(1, [&] {
    for (int rep = 0; rep < kStaticReps; ++rep) {
      for (const analyze::NamedPolicy& np : sweep) {
        report = analyzer.analyze(np.policy);
        crossable += report.crossable_count();
        ++censuses;
      }
    }
  });
  const double static_ns = static_total_ns / static_cast<double>(censuses);

  // Verdicts only (the inner pure function): what a bulk pre-submit gate
  // would run per (policy, channel).
  std::size_t verdicts = 0;
  const double verdict_total_ns = fastest_ns(1, [&] {
    for (int rep = 0; rep < kStaticReps * 10; ++rep) {
      for (const analyze::NamedPolicy& np : sweep) {
        for (core::ChannelKind kind : core::kAllChannels) {
          const analyze::Verdict v = analyzer.verdict(np.policy, kind);
          crossable += analyze::is_crossable(v) ? 1 : 0;
          ++verdicts;
        }
      }
    }
  });
  const double verdict_ns = verdict_total_ns / static_cast<double>(verdicts);
  const double verdict_census_ns =
      verdict_ns * static_cast<double>(core::kAllChannels.size());

  // Dynamic, audit only: cluster prebuilt, one audit_pair per census.
  constexpr int kDynamicReps = 10;
  Cluster prebuilt(config(SeparationPolicy::hardened()));
  const Uid victim = *prebuilt.add_user("victim");
  const Uid observer = *prebuilt.add_user("observer");
  LeakageAuditor auditor(&prebuilt);
  std::size_t open_dyn = 0;
  std::vector<core::ChannelReport> census;
  const double audit_total_ns = fastest_ns(1, [&] {
    for (int rep = 0; rep < kDynamicReps; ++rep) {
      census = auditor.audit_pair(victim, observer);
      open_dyn += LeakageAuditor::open_count(census);
    }
  });
  const double audit_ns = audit_total_ns / kDynamicReps;

  // Dynamic, end to end: cluster build + audit, what a naive pre-submit
  // check would actually cost per policy change.
  std::size_t open_e2e = 0;
  const double e2e_total_ns = fastest_ns(1, [&] {
    for (int rep = 0; rep < kDynamicReps; ++rep) {
      Cluster cluster(config(SeparationPolicy::hardened()));
      const Uid v = *cluster.add_user("victim");
      const Uid o = *cluster.add_user("observer");
      LeakageAuditor a(&cluster);
      census = a.audit_pair(v, o);
      open_e2e += LeakageAuditor::open_count(census);
    }
  });
  const double e2e_ns = e2e_total_ns / kDynamicReps;

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
