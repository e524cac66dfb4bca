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
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "analyze/channel_graph.h"
#include "analyze/knob_lint.h"
#include "analyze/path_analyzer.h"
#include "analyze/path_oracle.h"
#include "analyze/policy_space.h"
#include "bench/common/json.h"
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

double elapsed_ms(std::chrono::steady_clock::time_point t0,
                  std::chrono::steady_clock::time_point t1) {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
                 .count()) /
         1000.0;
}

void run(bool smoke) {
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
  JsonValue policy_series = JsonValue::array();
  for (const PolicyCase& pc : cases) {
    const std::vector<ClusterSpec> members = {{"a", pc.policy},
                                              {"b", pc.policy}};
    double best_ms = 0;
    std::size_t present = 0;
    std::size_t paths = 0;
    std::size_t escalation = 0;
    ChannelGraph graph;
    for (int rep = 0; rep < reps; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      graph = ChannelGraph::build(members, analyzer.principal(),
                                  analyzer.facts());
      const std::vector<AttackPath> found =
          PathAnalyzer::enumerate(graph);
      const auto t1 = std::chrono::steady_clock::now();
      const double ms = elapsed_ms(t0, t1);
      if (rep == 0 || ms < best_ms) best_ms = ms;
      present = 0;
      for (const auto& e : graph.edges()) present += e.present ? 1 : 0;
      paths = found.size();
      escalation = 0;
      for (const AttackPath& p : found)
        escalation += p.has_open_hop ? 1 : 0;
    }
    per_policy.add_row({pc.name,
                        common::strformat("%zu", graph.nodes().size()),
                        common::strformat("%zu", graph.edges().size()),
                        common::strformat("%zu", present),
                        common::strformat("%zu", paths),
                        common::strformat("%zu", escalation),
                        common::strformat("%.3f ms", best_ms)});
    JsonValue row = JsonValue::object();
    row.set("policy", JsonValue::str(pc.name));
    row.set("nodes", JsonValue::integer(graph.nodes().size()));
    row.set("edges", JsonValue::integer(graph.edges().size()));
    row.set("present_edges", JsonValue::integer(present));
    row.set("paths", JsonValue::integer(paths));
    row.set("escalation_paths", JsonValue::integer(escalation));
    row.set("build_enumerate_ms", JsonValue::number(best_ms));
    policy_series.push(std::move(row));
  }
  per_policy.print();
  JsonReport::instance().set("policies_analyzed",
                             std::move(policy_series));

  // Stage 2: the exhaustive lattice sweep, as the gate runs it.
  double sweep_ms = 0;
  analyze::LatticeSweep sweep;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    sweep = analyzer.sweep();
    const auto t1 = std::chrono::steady_clock::now();
    const double ms = elapsed_ms(t0, t1);
    if (rep == 0 || ms < sweep_ms) sweep_ms = ms;
  }
  std::printf("\nlattice sweep: %zu policies -> %zu behaviour classes in "
              "%.2f ms — %zu with escalation, hardened admits %zu, worst "
              "point admits %zu\n",
              sweep.policies, sweep.behaviour_classes, sweep_ms,
              sweep.policies_with_escalation,
              sweep.hardened_escalation_paths, sweep.max_escalation_paths);
  JsonReport::instance().set("lattice_policies",
                             JsonValue::integer(sweep.policies));
  JsonReport::instance().set("behaviour_classes",
                             JsonValue::integer(sweep.behaviour_classes));
  JsonReport::instance().set(
      "policies_with_escalation",
      JsonValue::integer(sweep.policies_with_escalation));
  JsonReport::instance().set(
      "hardened_escalation_paths",
      JsonValue::integer(sweep.hardened_escalation_paths));
  JsonReport::instance().set("sweep_ms", JsonValue::number(sweep_ms));

  // Stage 3: the hardened mutation sweep (one ablation per knob).
  double mutation_ms = 0;
  std::vector<analyze::MutationFinding> mutations;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    mutations = analyzer.mutation_sweep();
    const auto t1 = std::chrono::steady_clock::now();
    const double ms = elapsed_ms(t0, t1);
    if (rep == 0 || ms < mutation_ms) mutation_ms = ms;
  }
  std::size_t flagged = 0;
  for (const auto& m : mutations) flagged += m.escalation_paths > 0;
  std::printf("mutation sweep: %zu ablations (%zu flagged) in %.2f ms\n",
              mutations.size(), flagged, mutation_ms);
  JsonReport::instance().set("mutations",
                             JsonValue::integer(mutations.size()));
  JsonReport::instance().set("mutations_flagged",
                             JsonValue::integer(flagged));
  JsonReport::instance().set("mutation_sweep_ms",
                             JsonValue::number(mutation_ms));

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
  double cut_ms = 0;
  std::vector<std::string> cut;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    cut = analyzer.minimal_cut(baseline_members, baseline_escalation);
    const auto t1 = std::chrono::steady_clock::now();
    const double ms = elapsed_ms(t0, t1);
    if (rep == 0 || ms < cut_ms) cut_ms = ms;
  }
  std::printf("baseline minimal cut: %zu paths severed by %zu knob(s) in "
              "%.2f ms\n",
              baseline_escalation.size(), cut.size(), cut_ms);
  JsonReport::instance().set("baseline_escalation_paths",
                             JsonValue::integer(baseline_escalation.size()));
  JsonReport::instance().set("minimal_cut_size",
                             JsonValue::integer(cut.size()));
  JsonReport::instance().set("minimal_cut_ms", JsonValue::number(cut_ms));

  // Stage 5: the dead-knob lint (runs a live enforcement census, so it
  // dominates the static side — priced here so CI regressions show up).
  double lint_ms = 0;
  analyze::KnobLintReport lint;
  {
    const auto t0 = std::chrono::steady_clock::now();
    lint = analyze::knob_lint();
    const auto t1 = std::chrono::steady_clock::now();
    lint_ms = elapsed_ms(t0, t1);
  }
  std::printf("dead-knob lint: %zu knobs, %zu finding(s) in %.2f ms\n",
              lint.knobs.size(), lint.findings.size(), lint_ms);
  JsonReport::instance().set("lint_knobs",
                             JsonValue::integer(lint.knobs.size()));
  JsonReport::instance().set("lint_findings",
                             JsonValue::integer(lint.findings.size()));
  JsonReport::instance().set("lint_ms", JsonValue::number(lint_ms));

  // Stage 6: one healthy hardened/hardened oracle run — the dynamic
  // price of one differential confirmation of the static claims.
  double oracle_ms = 0;
  analyze::OracleRun oracle;
  {
    analyze::OracleOptions opts;
    opts.policy_a = core::SeparationPolicy::hardened();
    opts.policy_b = core::SeparationPolicy::hardened();
    opts.label = "bench hardened/hardened";
    const auto t0 = std::chrono::steady_clock::now();
    oracle = analyze::run_path_oracle(opts);
    const auto t1 = std::chrono::steady_clock::now();
    oracle_ms = elapsed_ms(t0, t1);
  }
  std::printf("oracle run: %zu path trials (%zu multi-hop, %zu "
              "cross-cluster), %zu agreed, in %.2f ms\n",
              oracle.trials.size(), oracle.multi_hop_count,
              oracle.cross_cluster_count, oracle.agree_count, oracle_ms);
  JsonReport::instance().set("oracle_trials",
                             JsonValue::integer(oracle.trials.size()));
  JsonReport::instance().set("oracle_agreed",
                             JsonValue::integer(oracle.agree_count));
  JsonReport::instance().set("oracle_multi_hop",
                             JsonValue::integer(oracle.multi_hop_count));
  JsonReport::instance().set("oracle_ms", JsonValue::number(oracle_ms));

  JsonReport::instance().set("lattice_size", JsonValue::integer(policies));
}

}  // namespace
}  // namespace heus::bench

int main(int argc, char** argv) {
  using heus::bench::JsonReport;
  using heus::bench::JsonValue;
  const bool smoke = heus::bench::has_flag(argc, argv, "--smoke");
  const std::string json_path =
      heus::bench::json_output_path(argc, argv, "BENCH_E24.json")
          .value_or("BENCH_E24.json");

  heus::bench::run(smoke);

  JsonReport::instance().set("smoke", JsonValue::boolean(smoke));
  return JsonReport::instance().write("E24", json_path) ? 0 : 1;
}
