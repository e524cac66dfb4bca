#include "analyze/report.h"

#include "common/json.h"
#include "common/strings.h"

namespace heus::analyze {

using common::strformat;

namespace {

std::string join_names(const std::vector<std::string>& names,
                       const char* empty) {
  if (names.empty()) return empty;
  return common::join(names, ", ");
}

}  // namespace

std::string to_markdown(const AnalysisReport& report) {
  std::string out = "# Static separation analysis\n\n";
  out += strformat("policy: `%s`\n\n",
                   describe_policy(report.policy).c_str());
  out +=
      "| channel | § | verdict | responsible knobs | explanation |\n"
      "|---|---|---|---|---|\n";
  for (const ChannelFinding& f : report.findings) {
    const char* verdict = f.verdict == Verdict::open
                              ? "**OPEN**"
                              : to_string(f.verdict);
    out += strformat("| %s | %s | %s | %s | %s |\n",
                     core::to_string(f.kind), core::channel_section(f.kind),
                     verdict,
                     join_names(f.responsible_knobs, "—").c_str(),
                     f.explanation.c_str());
  }
  out += strformat(
      "\ncrossable: %zu / %zu (unexpected open: %zu, residual: %zu)\n",
      report.crossable_count(), report.findings.size(),
      report.unexpected_open_count(), report.residual_set().size());
  bool any = false;
  for (const ChannelFinding& f : report.findings) {
    if (f.verdict != Verdict::open) continue;
    if (!any) {
      out += "\n## Minimal hardening\n\n";
      any = true;
    }
    if (f.minimal_hardening.empty()) {
      // Possible when a topology fact (e.g. a service port below the
      // UBF's inspected range) holds the channel open: no knob set
      // closes it, only changing the deployment does.
      out += strformat(
          "- `%s`: no knob closes this under the given topology facts\n",
          core::to_string(f.kind));
    } else {
      out += strformat("- `%s`: harden %s\n", core::to_string(f.kind),
                       join_names(f.minimal_hardening, "(none)").c_str());
    }
  }
  return out;
}

common::Json to_json(const AnalysisReport& report) {
  using common::Json;
  Json facts = Json::object().compact();
  facts.set("observer_support_staff", report.facts.observer_support_staff)
      .set("observer_operator", report.facts.observer_operator)
      .set("shared_service_group", report.facts.shared_service_group)
      .set("has_gpus", report.facts.has_gpus)
      .set("service_port", report.facts.service_port);
  Json channels = Json::array();
  for (const ChannelFinding& f : report.findings) {
    Json row = Json::object().compact();
    row.set("channel", core::to_string(f.kind))
        .set("section", core::channel_section(f.kind))
        .set("verdict", to_string(f.verdict))
        .set("explanation", f.explanation)
        .set("responsible_knobs", f.responsible_knobs)
        .set("minimal_hardening", f.minimal_hardening);
    channels.push(std::move(row));
  }
  Json summary = Json::object().compact();
  summary.set("channels", report.findings.size())
      .set("crossable", report.crossable_count())
      .set("unexpected_open", report.unexpected_open_count())
      .set("residual", report.residual_set().size());

  Json doc = Json::object();
  doc.set("policy", describe_policy(report.policy))
      .set("facts", std::move(facts))
      .set("channels", std::move(channels))
      .set("summary", std::move(summary));
  return doc;
}

}  // namespace heus::analyze
