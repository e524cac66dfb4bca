// heus-lint: static separation-policy linter (the pre-submit gate).
//
// Reads a SeparationPolicy from the command line (a named starting point
// plus knob overrides) or reconstructs one per node from a deployment
// snapshot directory (--site), runs the static analyzer — no cluster is
// built, no probe runs — and emits the channel census as markdown and/or
// JSON. With --gate, exits nonzero when any channel is unexpectedly open
// (and, under --site, on drift or parse errors), which is what lets a
// site wire it in front of every policy change the way one reviews an
// iptables ruleset before loading it.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <utility>

#include "analyze/analyzer.h"
#include "analyze/degraded.h"
#include "analyze/ingest/site.h"
#include "analyze/ingest/site_report.h"
#include "analyze/knob_lint.h"
#include "analyze/path_analyzer.h"
#include "analyze/policy_space.h"
#include "analyze/reachability.h"
#include "analyze/report.h"
#include "common/json.h"
#include "common/strings.h"
#include "core/audit.h"
#include "core/cluster.h"
#include "obs/decision.h"

namespace {

void usage(std::FILE* to) {
  std::fputs(
      "heus-lint: static separation-policy analyzer\n"
      "usage: heus-lint [options]\n"
      "  runs the channel census, or one of --reach, --paths, --trace,\n"
      "  --site, --degraded; --gate does not combine with --trace or\n"
      "  --degraded\n"
      "  --policy=baseline|hardened  starting policy (default: baseline)\n"
      "  --set=<knob>=<value>        override one knob (repeatable)\n"
      "  --site=<dir>                review a deployment snapshot: parse\n"
      "                              per-node artifacts, report drift and\n"
      "                              per-node verdicts with file:line\n"
      "                              provenance\n"
      "  --format=markdown|json|both report format (default: markdown)\n"
      "  --gate                      exit 1 on any unexpectedly-open "
      "channel\n"
      "                              (with --site: also on drift or parse "
      "errors)\n"
      "  --reach                     model-check the six lifecycle "
      "tables\n"
      "                              (flow, job, transfer, portal "
      "session,\n"
      "                              container entry, federation "
      "breaker)\n"
      "                              over the full policy\n"
      "                              lattice: reachability, dead rows, "
      "guard/\n"
      "                              knob agreement, and zero "
      "separation-\n"
      "                              opening transitions (honors "
      "--format;\n"
      "                              --gate exits 1 on any finding)\n"
      "  --paths                     compose the per-channel verdicts "
      "into a\n"
      "                              2-cluster capability graph, "
      "enumerate\n"
      "                              every multi-hop escalation path "
      "with the\n"
      "                              responsible knob per hop, propose "
      "a\n"
      "                              minimal hardening cut, sweep the "
      "full\n"
      "                              policy lattice, flag every "
      "single-knob\n"
      "                              ablation of hardened, and run the\n"
      "                              dead-knob lint (honors --format;\n"
      "                              --gate exits 1 on any escalation "
      "path\n"
      "                              or lint finding)\n"
      "  --json[=PATH]               emit the subcommand's JSON "
      "document to\n"
      "                              stdout (bare) or to PATH, "
      "independent\n"
      "                              of --format; shared across all\n"
      "                              subcommands\n"
      "  --degraded                  report which closed channels rely on\n"
      "                              fail-closed behavior under "
      "ident/network\n"
      "                              faults (availability casualties, "
      "never leaks),\n"
      "                              plus the federation's remote-op "
      "census\n"
      "                              under WAN link faults\n"
      "  --trace                     build a demo cluster under the "
      "policy,\n"
      "                              run one leakage audit with the "
      "decision\n"
      "                              trace enabled, and print the "
      "incident\n"
      "                              timeline (honors --format)\n"
      "  --staff                     observer is seepid staff (gid= "
      "exempt)\n"
      "  --operator                  observer holds Slurm Operator\n"
      "  --project-peers             victim services run under a shared "
      "project group\n"
      "  --no-gpus                   cluster has no allocatable GPUs\n"
      "  --port=<n>                  victim service port (default 23456)\n"
      "  --list-knobs                print the knob registry and exit\n"
      "  --help\n",
      to);
}

using heus::common::Json;
using heus::common::strformat;

/// Every subcommand ends here. Route its rendered documents: markdown/
/// JSON to stdout per --format, plus the --json[=PATH] destination
/// (empty: stdout, and then the JSON is not printed twice). Then exit 2
/// on a write error, 1 with `why` on stderr when `gate_failed`, else 0.
int finish(const std::string& format,
           const std::optional<std::string>& json_path,
           const std::string& markdown, const Json& json, bool gate_failed,
           const std::string& why = {}) {
  if (format == "markdown" || format == "both") {
    std::fputs(markdown.c_str(), stdout);
  }
  const bool json_to_stdout = json_path && json_path->empty();
  if ((format == "json" || format == "both") && !json_to_stdout) {
    std::fputs(json.dump().c_str(), stdout);
  }
  if (json_path && !heus::common::write_json(json, *json_path)) {
    std::fprintf(stderr, "heus-lint: cannot write --json=%s\n",
                 json_path->c_str());
    return 2;
  }
  if (!gate_failed) return 0;
  std::fprintf(stderr, "heus-lint: %s\n", why.c_str());
  return 1;
}

/// --trace: one leakage audit over a live demo cluster with the decision
/// spine enabled; every enforcement verdict becomes a timeline row.
std::string trace_row_markdown(const heus::obs::Decision& d) {
  using heus::obs::to_string;
  std::string row = "| " + std::to_string(d.seq);
  row += " | " + std::to_string(d.time.ns);
  row += std::string(" | ") + to_string(d.point);
  row += std::string(" | ") + to_string(d.outcome);
  row += " | " + std::to_string(d.subject.value());
  row += " | " + std::to_string(d.object_owner.value());
  row += std::string(" | ") + (d.channel ? to_string(*d.channel) : "-");
  row += std::string(" | ") + (d.knob != nullptr ? d.knob : "-");
  row += std::string(" | ") + (d.from_cache ? "hit" : "-");
  row += " | " + d.object + " |";
  return row;
}

Json trace_row_json(const heus::obs::Decision& d) {
  using heus::obs::to_string;
  Json row = Json::object().compact();
  row.set("seq", d.seq)
      .set("t_ns", d.time.ns)
      .set("point", to_string(d.point))
      .set("outcome", to_string(d.outcome))
      .set("subject", d.subject.value())
      .set("owner", d.object_owner.value())
      .set("channel", d.channel ? Json(to_string(*d.channel)) : Json())
      .set("knob", d.knob != nullptr ? Json(d.knob) : Json())
      .set("from_cache", d.from_cache)
      .set("object", d.object);
  return row;
}

int run_trace(const heus::core::SeparationPolicy& policy,
              const std::string& format,
              const std::optional<std::string>& json_path) {
  using namespace heus;
  core::ClusterConfig cfg;
  cfg.compute_nodes = 2;
  cfg.login_nodes = 1;
  cfg.cpus_per_node = 8;
  cfg.gpus_per_node = 1;
  cfg.gpu_mem_bytes = 1024;
  cfg.policy = policy;
  core::Cluster cluster(cfg);
  cluster.trace().set_capacity(65536);
  cluster.trace().set_enabled(true);
  const Uid victim = *cluster.add_user("victim");
  const Uid observer = *cluster.add_user("observer");
  core::LeakageAuditor auditor(&cluster);
  const auto reports = auditor.audit_pair(victim, observer);
  const auto decisions = cluster.trace().snapshot();
  const std::size_t open = core::LeakageAuditor::open_count(reports);

  std::string md = "# heus decision trace\n\n";
  md += "policy: " + analyze::describe_policy(policy) + "\n\n";
  md += std::to_string(decisions.size()) +
        " decision(s) recorded over one leakage audit (victim=" +
        std::to_string(victim.value()) +
        ", observer=" + std::to_string(observer.value()) + "); " +
        std::to_string(reports.size()) + " channels probed, " +
        std::to_string(open) + " open.\n\n";
  md += "| seq | t(ns) | point | outcome | subject | owner | "
        "channel | knob | cache | object |\n";
  md += "|----:|------:|-------|---------|--------:|------:|"
        "---------|------|-------|--------|\n";
  for (const obs::Decision& d : decisions) {
    md += trace_row_markdown(d) + "\n";
  }

  Json rows = Json::array();
  for (const obs::Decision& d : decisions) rows.push(trace_row_json(d));
  Json json = Json::object();
  json.set("policy", analyze::describe_policy(policy))
      .set("decisions", std::move(rows));
  return finish(format, json_path, md, json, /*gate_failed=*/false);
}

/// JSON rendering of the degraded census (the markdown emitter lives in
/// analyze/degraded.cpp; this stays here until a second consumer wants
/// it).
Json degraded_to_json(const heus::analyze::DegradedReport& report) {
  Json channels = Json::array();
  for (const auto& f : report.findings) {
    Json row = Json::object().compact();
    row.set("channel", to_string(f.kind))
        .set("behavior", to_string(f.behavior))
        .set("note", f.note);
    channels.push(std::move(row));
  }
  Json federation = Json::array();
  for (const auto& f : report.federation) {
    Json row = Json::object().compact();
    row.set("operation", f.operation)
        .set("behavior", to_string(f.behavior))
        .set("note", f.note);
    federation.push(std::move(row));
  }
  Json out = Json::object();
  out.set("policy", heus::analyze::describe_policy(report.policy))
      .set("channels", std::move(channels))
      .set("federation", std::move(federation));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace heus;

  core::SeparationPolicy policy = core::SeparationPolicy::baseline();
  analyze::TopologyFacts facts;
  std::string format = "markdown";
  std::string site_dir;
  std::optional<std::string> json_path;
  bool gate = false;
  bool degraded = false;
  bool trace = false;
  bool reach = false;
  bool paths = false;

  auto value_of = [](const char* arg, const char* flag) -> const char* {
    const std::size_t n = std::strlen(flag);
    if (std::strncmp(arg, flag, n) == 0 && arg[n] == '=') {
      return arg + n + 1;
    }
    return nullptr;
  };

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0) {
      usage(stdout);
      return 0;
    }
    if (std::strcmp(arg, "--list-knobs") == 0) {
      for (const analyze::KnobSpec& k : analyze::knobs()) {
        std::printf("%-26s %s\n", k.name, k.description);
      }
      return 0;
    }
    if (std::strcmp(arg, "--gate") == 0) {
      gate = true;
    } else if (std::strcmp(arg, "--degraded") == 0) {
      degraded = true;
    } else if (std::strcmp(arg, "--trace") == 0) {
      trace = true;
    } else if (std::strcmp(arg, "--reach") == 0) {
      reach = true;
    } else if (std::strcmp(arg, "--paths") == 0) {
      paths = true;
    } else if (auto path = common::json_flag(arg, "")) {
      json_path = std::move(path);
    } else if (std::strcmp(arg, "--staff") == 0) {
      facts.observer_support_staff = true;
    } else if (std::strcmp(arg, "--operator") == 0) {
      facts.observer_operator = true;
    } else if (std::strcmp(arg, "--project-peers") == 0) {
      facts.shared_service_group = true;
    } else if (std::strcmp(arg, "--no-gpus") == 0) {
      facts.has_gpus = false;
    } else if (const char* v = value_of(arg, "--policy")) {
      if (std::strcmp(v, "baseline") == 0) {
        policy = core::SeparationPolicy::baseline();
      } else if (std::strcmp(v, "hardened") == 0) {
        policy = core::SeparationPolicy::hardened();
      } else {
        std::fprintf(stderr, "heus-lint: unknown policy '%s'\n", v);
        return 2;
      }
    } else if (const char* kv = value_of(arg, "--set")) {
      const char* eq = std::strchr(kv, '=');
      if (eq == nullptr ||
          !analyze::set_knob_from_string(
              policy, std::string(kv, eq - kv), std::string(eq + 1))) {
        std::fprintf(stderr,
                     "heus-lint: bad --set '%s' (try --list-knobs)\n", kv);
        return 2;
      }
    } else if (const char* dir = value_of(arg, "--site")) {
      site_dir = dir;
      if (site_dir.empty()) {
        std::fprintf(stderr, "heus-lint: --site needs a directory\n");
        return 2;
      }
    } else if (const char* fmt = value_of(arg, "--format")) {
      format = fmt;
      if (format != "markdown" && format != "json" && format != "both") {
        std::fprintf(stderr, "heus-lint: unknown format '%s'\n", fmt);
        return 2;
      }
    } else if (const char* port = value_of(arg, "--port")) {
      char* end = nullptr;
      const long parsed = std::strtol(port, &end, 10);
      if (end == port || *end != '\0' || parsed < 0 || parsed > 65535) {
        std::fprintf(stderr, "heus-lint: bad --port '%s' (want 0-65535)\n",
                     port);
        return 2;
      }
      facts.service_port = static_cast<std::uint16_t>(parsed);
    } else {
      std::fprintf(stderr, "heus-lint: unknown option '%s'\n", arg);
      usage(stderr);
      return 2;
    }
  }

  // One subcommand per run, and --gate only where a gate exists: fail
  // closed on a flag this run would otherwise drop.
  const char* subcommand = nullptr;
  const std::pair<bool, const char*> subcommands[] = {
      {reach, "--reach"},         {paths, "--paths"},
      {trace, "--trace"},         {!site_dir.empty(), "--site"},
      {degraded, "--degraded"},
  };
  for (const auto& [chosen, name] : subcommands) {
    if (!chosen) continue;
    if (subcommand != nullptr) {
      std::fprintf(stderr, "heus-lint: %s does not combine with %s\n",
                   subcommand, name);
      return 2;
    }
    subcommand = name;
  }
  if (gate && (trace || degraded)) {
    std::fprintf(stderr,
                 "heus-lint: --gate does not combine with %s, which has "
                 "no gate\n",
                 subcommand);
    return 2;
  }

  if (reach) {
    const analyze::ReachReport report =
        analyze::ReachabilityChecker(facts).check_shipped();
    return finish(format, json_path, analyze::reach_to_markdown(report),
                  analyze::reach_to_json(report), gate && !report.clean(),
                  strformat("REACH GATE FAILED — %zu lifecycle-table "
                            "finding(s)",
                            report.findings.size()));
  }
  if (paths) {
    const analyze::PathReport report =
        analyze::PathAnalyzer(facts).full_report(policy);
    const analyze::KnobLintReport lint = analyze::knob_lint();
    return finish(format, json_path, analyze::paths_to_markdown(report, &lint),
                  analyze::paths_to_json(report, &lint),
                  gate && !(report.gate_ok() && lint.clean()),
                  strformat("PATHS GATE FAILED — %zu escalation path(s), "
                            "%zu hardened lattice path(s), %zu dead-knob "
                            "finding(s)",
                            report.escalation.size(),
                            report.sweep.hardened_escalation_paths,
                            lint.findings.size()));
  }
  if (trace) return run_trace(policy, format, json_path);
  if (!site_dir.empty()) {
    std::string error;
    auto site = analyze::ingest::load_site(site_dir, &error);
    if (!site) {
      std::fprintf(stderr, "heus-lint: %s\n", error.c_str());
      return 2;
    }
    const analyze::ingest::SiteReview review =
        analyze::ingest::review_site(std::move(*site), facts);
    return finish(format, json_path, analyze::ingest::to_markdown(review),
                  analyze::ingest::to_json(review),
                  gate && !review.gate_ok(),
                  strformat("SITE GATE FAILED — %zu unexpectedly-open "
                            "channel(s), %zu drift finding(s), %zu parse "
                            "error(s)",
                            review.unexpected_open_total(),
                            review.drift.size(), review.error_count()));
  }
  const analyze::StaticAnalyzer analyzer(facts);
  if (degraded) {
    const analyze::DegradedReport census =
        analyze::degraded_census(analyzer, policy);
    return finish(format, json_path, analyze::to_markdown(census),
                  degraded_to_json(census), /*gate_failed=*/false);
  }
  const analyze::AnalysisReport report = analyzer.analyze(policy);
  return finish(format, json_path, analyze::to_markdown(report),
                analyze::to_json(report),
                gate && report.unexpected_open_count() > 0,
                strformat("GATE FAILED — %zu unexpectedly-open channel(s)",
                          report.unexpected_open_count()));
}
