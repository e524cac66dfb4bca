// Report rendering for AnalysisReport: markdown (the security-review
// artifact, in the style of LeakageAuditor::to_markdown) and JSON (the
// machine-readable pre-submit-gate output heus-lint emits).
#pragma once

#include <string>

#include "analyze/analyzer.h"
#include "common/json.h"

namespace heus::analyze {

/// Markdown census table plus per-channel hardening suggestions.
[[nodiscard]] std::string to_markdown(const AnalysisReport& report);

/// Stable JSON document: policy knobs, facts, per-channel findings with
/// explanations/responsible knobs/minimal hardening, and summary counts.
[[nodiscard]] common::Json to_json(const AnalysisReport& report);

}  // namespace heus::analyze
