// Transitive escalation-path analysis over the ChannelGraph (ISSUE 8
// tentpole, the closure half).
//
// Enumerates every simple path from the adversary's start vantage
// (login shell, cluster 0) to a victim asset, purely statically:
// per-hop presence comes from the graph (i.e. from the StaticAnalyzer
// verdicts, the structural predicates and the lifecycle tables), and
// each hop carries the registry knobs that would sever it. On top of
// the enumeration sit the three report products the `heus-lint --paths`
// gate runs on:
//
//  - a minimal cut: the smallest registry-knob set whose hardening
//    severs every escalation path (the multi-hop generalisation of the
//    per-channel minimal_hardening sets from PR 2);
//  - a full 73,728-point lattice sweep proving the hardened policy
//    admits zero escalation paths (and quantifying everything else);
//  - a mutation sweep: every single-knob ablation of hardened, with
//    the exact re-opened path and hop named for each flagged knob.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "analyze/channel_graph.h"
#include "analyze/knob_lint.h"

namespace heus::analyze {

/// One simple path from the start vantage to an asset, as indices into
/// ChannelGraph::edges().
struct AttackPath {
  std::vector<std::uint32_t> edges;
  bool has_open_hop = false;   ///< some hop is EdgeClass::open
  bool cross_cluster = false;  ///< some hop crosses the WAN
};

/// Sweep statistics over the full policy lattice (2-cluster
/// homogeneous instantiation per point).
struct LatticeSweep {
  std::size_t policies = 0;
  std::size_t behaviour_classes = 0;  ///< distinct presence signatures
  std::size_t policies_with_escalation = 0;
  std::size_t hardened_escalation_paths = 0;
  std::size_t max_escalation_paths = 0;
  std::string worst_policy;  ///< describe_policy() of a max witness
};

/// One single-knob ablation of hardened, and what it re-opens.
struct MutationFinding {
  std::string knob;
  std::size_t escalation_paths = 0;  ///< 0: defense-in-depth knob
  std::string witness;               ///< first re-opened path, rendered
  int reopened_hop = -1;  ///< hop index absent under pure hardened
  std::string reopened_mechanism;
  std::vector<std::string> hop_knobs;  ///< per-hop responsible knobs
};

struct PathReport {
  ChannelGraph graph;
  std::vector<AttackPath> escalation;  ///< >= 1 open hop: gate failures
  std::vector<AttackPath> residual;    ///< documented residuals only
  std::vector<std::string> minimal_cut;
  bool swept = false;
  LatticeSweep sweep;
  std::vector<MutationFinding> mutations;

  /// Gate rule: the reviewed deployment admits no escalation path, and
  /// (when swept) neither does the hardened lattice point.
  [[nodiscard]] bool gate_ok() const {
    return escalation.empty() &&
           (!swept || sweep.hardened_escalation_paths == 0);
  }
};

class PathAnalyzer {
 public:
  explicit PathAnalyzer(TopologyFacts facts = {},
                        PrincipalClass cls = PrincipalClass::unprivileged)
      : facts_(facts), principal_(cls) {}

  [[nodiscard]] const TopologyFacts& facts() const { return facts_; }
  [[nodiscard]] PrincipalClass principal() const { return principal_; }

  /// Every simple path start -> asset over present edges (DFS, catalog
  /// order, deterministic). With `include_absent`, walks the full
  /// catalogue shape instead — the oracle's potential-path universe.
  [[nodiscard]] static std::vector<AttackPath> enumerate(
      const ChannelGraph& graph, bool include_absent = false);

  /// Graph + path census for an explicit member list.
  [[nodiscard]] PathReport analyze(
      std::span<const ClusterSpec> clusters) const;

  /// Smallest registry-knob set whose hardening (applied to every
  /// member) severs all of `escalation`. Exhaustive for cuts of size
  /// <= 3, greedy set-cover with redundancy pruning above that.
  [[nodiscard]] std::vector<std::string> minimal_cut(
      std::span<const ClusterSpec> clusters,
      const std::vector<AttackPath>& escalation) const;

  /// Escalation-path count over the whole lattice (homogeneous
  /// 2-cluster instantiation per point), memoized on the presence
  /// signature — the lattice collapses to a few behaviour classes.
  [[nodiscard]] LatticeSweep sweep() const;

  /// Every single-knob ablation of hardened, flagged with the exact
  /// re-opened path and hop.
  [[nodiscard]] std::vector<MutationFinding> mutation_sweep() const;

  /// The `heus-lint --paths` product: 2-cluster homogeneous analysis
  /// of `policy` plus the lattice and mutation sweeps.
  [[nodiscard]] PathReport full_report(
      const core::SeparationPolicy& policy) const;

 private:
  [[nodiscard]] std::size_t escalation_count(
      std::span<const ClusterSpec> clusters) const;

  TopologyFacts facts_;
  PrincipalClass principal_ = PrincipalClass::unprivileged;
};

/// "c0/login-shell --[tcp connect]--> c0/victim-service" rendering.
[[nodiscard]] std::string path_label(const ChannelGraph& graph,
                                     const AttackPath& path);

/// Review artifact (optionally folding in the dead-knob lint section).
[[nodiscard]] std::string paths_to_markdown(
    const PathReport& report, const KnobLintReport* lint = nullptr);

/// Machine-readable gate output (heus-lint --paths --format json).
[[nodiscard]] std::string paths_to_json(
    const PathReport& report, const KnobLintReport* lint = nullptr);

}  // namespace heus::analyze
