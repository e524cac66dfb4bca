// Dead-knob lint (ISSUE 8 satellite): every knob string in
// src/obs/taxonomy.h must still be wired to BOTH ends of the
// attribution contract —
//
//  (a) the static side: the knob is in the policy-space registry (or is
//      a federation deployment knob) and flipping it changes some
//      analyzer verdict or ChannelGraph edge;
//  (b) the dynamic side: at least one Decision-recording enforcement
//      site names the knob, proven by a scripted census run against a
//      live hardened cluster pair (audit probes plus the enforcement
//      scenarios the audit alone does not reach: foreign /dev opens,
//      group-peer admits, whole-node placement refusals, partitioned
//      federation ops).
//
// A knob that fails either end is drift: either a misspelled/orphaned
// name, or enforcement that silently stopped attributing. Three knobs
// are documented exemptions — two on the enforcement side, whose
// effect is the *absence* of another knob's decision, and one on the
// static side, whose hardened surface the channel census does not
// model (see knob_lint.cpp). The lint runs inside `heus-lint --paths
// --gate`, so CI catches drift at the same place it proves the path
// closure.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/json.h"

namespace heus::analyze {

struct KnobEvidence {
  std::string knob;
  bool in_registry = false;   ///< policy-space KnobSpec exists
  bool fed_knob = false;      ///< federation deployment knob
  bool analyzer_referenced = false;  ///< flips a verdict or an edge
  bool analyzer_exempt = false;
  std::string analyzer_exemption_reason;
  std::vector<std::string> decision_points;  ///< census observations
  bool enforcement_exempt = false;
  std::string exemption_reason;
};

struct KnobLintReport {
  std::vector<KnobEvidence> knobs;
  std::vector<std::string> findings;

  [[nodiscard]] bool clean() const { return findings.empty(); }
};

/// Lint the shipped name list (obs::all_knob_names()).
[[nodiscard]] KnobLintReport knob_lint();

/// Lint an explicit name list — the mutation tests feed misspelled and
/// missing names through this.
[[nodiscard]] KnobLintReport knob_lint(
    std::span<const char* const> names);

[[nodiscard]] std::string knob_lint_to_markdown(
    const KnobLintReport& report);
/// The `knob_lint` section of the `--paths` JSON document.
[[nodiscard]] common::Json knob_lint_to_json(const KnobLintReport& report);

}  // namespace heus::analyze
