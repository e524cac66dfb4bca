// E24 (ISSUE 8): transitive escalation-path analysis cost.
//
// The paths gate (`heus-lint --paths`) composes the per-channel verdicts
// into a typed capability graph, enumerates every multi-hop escalation
// path, sweeps the full 73,728-point policy lattice, ablates each
// hardened knob, and cross-checks a sample of paths against a live
// 2-cluster federation. For the gate to sit in CI next to the reach
// gate, all of that has to stay cheap. This experiment prices each
// stage: graph build + enumeration per policy, the exhaustive lattice
// sweep (and the signature-class quotient that keeps it exhaustive),
// the mutation sweep, the minimal-cut search on the baseline path set,
// the dead-knob lint census, and one healthy oracle run.
//
// Always writes BENCH_E24.json (override with --json=PATH); --smoke runs
// fewer repetitions for CI.
#include <cstdio>
#include <string>
#include <vector>

#include "analyze/channel_graph.h"
#include "analyze/knob_lint.h"
#include "analyze/path_analyzer.h"
#include "analyze/path_oracle.h"
#include "analyze/policy_space.h"
#include "bench/common/table.h"
#include "common/strings.h"
#include "core/policy.h"

namespace heus::bench {
namespace {

using analyze::AttackPath;
using analyze::ChannelGraph;
using analyze::ClusterSpec;
using analyze::PathAnalyzer;
using analyze::PathReport;
using common::Json;

void run(Json& results, bool smoke) {
  print_banner(
      "E24: transitive escalation-path analysis cost",
      "Capability-graph build, multi-hop path enumeration, the full "
      "policy-lattice sweep, the hardened mutation sweep, minimal-cut "
      "search, the dead-knob lint, and one differential oracle run. The "
      "static side must stay cheap enough to gate every push.");

  const PathAnalyzer analyzer;
  const int reps = smoke ? 1 : 5;
  const std::size_t policies = analyze::policy_space_size();

  // Stage 1: graph build + enumeration per policy point.
  struct PolicyCase {
    const char* name;
    core::SeparationPolicy policy;
  };
  const std::vector<PolicyCase> cases = {
      {"hardened", core::SeparationPolicy::hardened()},
      {"baseline", core::SeparationPolicy::baseline()},
  };
  Table per_policy({"policy", "nodes", "edges", "present", "paths",
                    "escalation", "build+enumerate"});
  Json policy_series = Json::array();
  for (const PolicyCase& pc : cases) {
    const std::vector<ClusterSpec> members = {{"a", pc.policy},
                                              {"b", pc.policy}};
    ChannelGraph graph;
    std::vector<AttackPath> found;
    const double best_ms = fastest_ns(reps, [&] {
      graph = ChannelGraph::build(members, analyzer.principal(),
                                  analyzer.facts());
      found = PathAnalyzer::enumerate(graph);
    }) / 1e6;
    std::size_t present = 0;
    for (const auto& e : graph.edges()) present += e.present ? 1 : 0;
    const std::size_t paths = found.size();
    std::size_t escalation = 0;
    for (const AttackPath& p : found) escalation += p.has_open_hop ? 1 : 0;
    per_policy.add_row({pc.name,
                        common::strformat("%zu", graph.nodes().size()),
                        common::strformat("%zu", graph.edges().size()),
                        common::strformat("%zu", present),
                        common::strformat("%zu", paths),
                        common::strformat("%zu", escalation),
                        common::strformat("%.3f ms", best_ms)});
    Json row = Json::object();
    row.set("policy", pc.name);
    row.set("nodes", graph.nodes().size());
    row.set("edges", graph.edges().size());
    row.set("present_edges", present);
    row.set("paths", paths);
    row.set("escalation_paths", escalation);
    row.set("build_enumerate_ms", best_ms);
    policy_series.push(std::move(row));
  }
  per_policy.print();
  results.set("policies_analyzed", std::move(policy_series));

  // Stage 2: the exhaustive lattice sweep, as the gate runs it.
  analyze::LatticeSweep sweep;
  const double sweep_ms =
      fastest_ns(reps, [&] { sweep = analyzer.sweep(); }) / 1e6;
  std::printf("\nlattice sweep: %zu policies -> %zu behaviour classes in "
              "%.2f ms — %zu with escalation, hardened admits %zu, worst "
              "point admits %zu\n",
              sweep.policies, sweep.behaviour_classes, sweep_ms,
              sweep.policies_with_escalation,
              sweep.hardened_escalation_paths, sweep.max_escalation_paths);
  results.set("lattice_policies", sweep.policies);
  results.set("behaviour_classes", sweep.behaviour_classes);
  results.set("policies_with_escalation", sweep.policies_with_escalation);
  results.set("hardened_escalation_paths", sweep.hardened_escalation_paths);
  results.set("sweep_ms", sweep_ms);

  // Stage 3: the hardened mutation sweep (one ablation per knob).
  std::vector<analyze::MutationFinding> mutations;
  const double mutation_ms =
      fastest_ns(reps, [&] { mutations = analyzer.mutation_sweep(); }) / 1e6;
  std::size_t flagged = 0;
  for (const auto& m : mutations) flagged += m.escalation_paths > 0;
  std::printf("mutation sweep: %zu ablations (%zu flagged) in %.2f ms\n",
              mutations.size(), flagged, mutation_ms);
  results.set("mutations", mutations.size());
  results.set("mutations_flagged", flagged);
  results.set("mutation_sweep_ms", mutation_ms);

  // Stage 4: minimal-cut search on the baseline escalation set — the
  // hardest instance the gate ever solves (every path open at once).
  const std::vector<ClusterSpec> baseline_members = {
      {"a", core::SeparationPolicy::baseline()},
      {"b", core::SeparationPolicy::baseline()}};
  const ChannelGraph baseline_graph = ChannelGraph::build(
      baseline_members, analyzer.principal(), analyzer.facts());
  std::vector<AttackPath> baseline_escalation;
  for (AttackPath& p : PathAnalyzer::enumerate(baseline_graph))
    if (p.has_open_hop) baseline_escalation.push_back(std::move(p));
  std::vector<std::string> cut;
  const double cut_ms = fastest_ns(reps, [&] {
    cut = analyzer.minimal_cut(baseline_members, baseline_escalation);
  }) / 1e6;
  std::printf("baseline minimal cut: %zu paths severed by %zu knob(s) in "
              "%.2f ms\n",
              baseline_escalation.size(), cut.size(), cut_ms);
  results.set("baseline_escalation_paths", baseline_escalation.size());
  results.set("minimal_cut_size", cut.size());
  results.set("minimal_cut_ms", cut_ms);

  // Stage 5: the dead-knob lint (runs a live enforcement census, so it
  // dominates the static side — priced here so CI regressions show up).
  analyze::KnobLintReport lint;
  const double lint_ms =
      fastest_ns(1, [&] { lint = analyze::knob_lint(); }) / 1e6;
  std::printf("dead-knob lint: %zu knobs, %zu finding(s) in %.2f ms\n",
              lint.knobs.size(), lint.findings.size(), lint_ms);
  results.set("lint_knobs", lint.knobs.size());
  results.set("lint_findings", lint.findings.size());
  results.set("lint_ms", lint_ms);

  // Stage 6: one healthy hardened/hardened oracle run — the dynamic
  // price of one differential confirmation of the static claims.
  analyze::OracleOptions opts;
  opts.policy_a = core::SeparationPolicy::hardened();
  opts.policy_b = core::SeparationPolicy::hardened();
  opts.label = "bench hardened/hardened";
  analyze::OracleRun oracle;
  const double oracle_ms =
      fastest_ns(1, [&] { oracle = analyze::run_path_oracle(opts); }) / 1e6;
  std::printf("oracle run: %zu path trials (%zu multi-hop, %zu "
              "cross-cluster), %zu agreed, in %.2f ms\n",
              oracle.trials.size(), oracle.multi_hop_count,
              oracle.cross_cluster_count, oracle.agree_count, oracle_ms);
  results.set("oracle_trials", oracle.trials.size());
  results.set("oracle_agreed", oracle.agree_count);
  results.set("oracle_multi_hop", oracle.multi_hop_count);
  results.set("oracle_ms", oracle_ms);

  results.set("lattice_size", policies);
}

}  // namespace
}  // namespace heus::bench

int main(int argc, char** argv) {
  const bool smoke = heus::bench::has_flag(argc, argv, "--smoke");
  const std::string path =
      heus::common::json_flag(argc, argv, "BENCH_E24.json")
          .value_or("BENCH_E24.json");

  heus::common::Json results = heus::common::Json::object();
  heus::bench::run(results, smoke);

  results.set("smoke", smoke);
  return heus::bench::write_report("E24", std::move(results), path) ? 0 : 1;
}
