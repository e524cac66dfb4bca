// Site review: the reconstructed per-node policies fed through the
// static analyzer and degraded census, merged with drift analysis, and
// rendered with artifact file:line citations in place of bare knob names
// — the `heus-lint --site` output.
#pragma once

#include <string>
#include <vector>

#include "analyze/degraded.h"
#include "analyze/ingest/drift.h"
#include "analyze/ingest/site.h"
#include "common/json.h"

namespace heus::analyze::ingest {

struct NodeReview {
  std::string name;
  AnalysisReport analysis;
  DegradedReport degraded;
};

struct SiteReview {
  SiteSnapshot site;
  std::vector<NodeReview> nodes;  ///< parallel to site.nodes
  std::vector<DriftFinding> drift;

  [[nodiscard]] std::size_t unexpected_open_total() const;
  /// Error-severity diagnostics across site, intent, and every node.
  [[nodiscard]] std::size_t error_count() const;
  /// The --gate criterion: no parse errors, no unexpectedly-open channel
  /// on any node, no drift.
  [[nodiscard]] bool gate_ok() const;
};

/// Analyze every node of `site`. Artifact-carried facts (inspected port
/// range, portal app port, GPU inventory) come from each node's parse;
/// `observer` contributes the account-database side (support staff,
/// Operator privilege, shared project group) that no artifact encodes.
[[nodiscard]] SiteReview review_site(SiteSnapshot site,
                                     const TopologyFacts& observer = {});

/// The knob whose artifact line a reviewer should read for `kind` when a
/// verdict has no load-bearing knob of its own (structural residuals,
/// doubly-held closures).
[[nodiscard]] const char* primary_knob(core::ChannelKind kind);

[[nodiscard]] std::string to_markdown(const SiteReview& review);
[[nodiscard]] common::Json to_json(const SiteReview& review);

}  // namespace heus::analyze::ingest
