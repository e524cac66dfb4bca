#include "analyze/ingest/site_report.h"

#include "analyze/policy_space.h"
#include "common/json.h"
#include "common/strings.h"
#include "obs/taxonomy.h"

namespace heus::analyze::ingest {

using common::strformat;
using core::ChannelKind;
namespace knob = obs::knob;

std::size_t SiteReview::unexpected_open_total() const {
  std::size_t n = 0;
  for (const NodeReview& node : nodes) {
    n += node.analysis.unexpected_open_count();
  }
  return n;
}

std::size_t SiteReview::error_count() const {
  std::size_t n = 0;
  auto count = [&n](const std::vector<Diagnostic>& diags) {
    for (const Diagnostic& d : diags) {
      if (d.severity == Severity::error) ++n;
    }
  };
  count(site.site_diagnostics);
  if (site.intent) count(site.intent->diagnostics);
  for (const NodeSnapshot& node : site.nodes) {
    count(node.ingested.diagnostics);
  }
  return n;
}

bool SiteReview::gate_ok() const {
  return error_count() == 0 && unexpected_open_total() == 0 &&
         drift.empty();
}

SiteReview review_site(SiteSnapshot site, const TopologyFacts& observer) {
  SiteReview review;
  review.drift = analyze_drift(site);
  for (const NodeSnapshot& node : site.nodes) {
    TopologyFacts facts = node.ingested.facts;
    facts.observer_support_staff = observer.observer_support_staff;
    facts.observer_operator = observer.observer_operator;
    facts.shared_service_group = observer.shared_service_group;
    const StaticAnalyzer analyzer(facts);
    NodeReview nr;
    nr.name = node.name;
    nr.analysis = analyzer.analyze(node.ingested.policy);
    nr.degraded = degraded_census(analyzer, node.ingested.policy);
    review.nodes.push_back(std::move(nr));
  }
  review.site = std::move(site);
  return review;
}

const char* primary_knob(ChannelKind kind) {
  switch (kind) {
    case ChannelKind::procfs_process_list:
    case ChannelKind::procfs_cmdline:
      return knob::hidepid;
    case ChannelKind::scheduler_queue:
      return knob::private_data_jobs;
    case ChannelKind::scheduler_accounting:
      return knob::private_data_accounting;
    case ChannelKind::scheduler_usage:
      return knob::private_data_usage;
    case ChannelKind::ssh_foreign_node:
      return knob::pam_slurm;
    case ChannelKind::fs_home_read:
      return knob::root_owned_homes;
    case ChannelKind::fs_tmp_content:
    case ChannelKind::fs_tmp_names:
    case ChannelKind::fs_devshm_content:
      return knob::fs_enforce_smask;
    case ChannelKind::fs_acl_user_grant:
      return knob::fs_restrict_acl;
    case ChannelKind::tcp_cross_user:
    case ChannelKind::udp_cross_user:
    case ChannelKind::abstract_uds:
    case ChannelKind::rdma_tcp_setup:
    case ChannelKind::rdma_native_cm:
    case ChannelKind::portal_foreign_app:
      return knob::ubf;
    case ChannelKind::gpu_residue:
      return knob::gpu_epilog_scrub;
  }
  return knob::ubf;
}

namespace {

/// The knobs whose artifact lines justify this finding: the load-bearing
/// knobs when attribution found any, the minimal hardening set for
/// multi-knob open channels, the channel's primary knob otherwise.
std::vector<std::string> cited_knobs(const ChannelFinding& f) {
  if (!f.responsible_knobs.empty()) return f.responsible_knobs;
  if (!f.minimal_hardening.empty()) return f.minimal_hardening;
  return {primary_knob(f.kind)};
}

std::string citation(const IngestedPolicy& ingested,
                     const ChannelFinding& f) {
  std::vector<std::string> parts;
  for (const std::string& knob : cited_knobs(f)) {
    parts.push_back(strformat("%s @ %s", knob.c_str(),
                              ingested.where(knob).to_string().c_str()));
  }
  return common::join(parts, ", ");
}

const NodeSnapshot& snapshot_of(const SiteReview& review,
                                std::size_t index) {
  return review.site.nodes[index];
}

std::string render_diagnostics(const SiteReview& review) {
  std::string out;
  auto render = [&out](const std::vector<Diagnostic>& diags) {
    for (const Diagnostic& d : diags) {
      out += strformat("- %s %s: %s\n", to_string(d.severity),
                       d.where.to_string().c_str(), d.message.c_str());
    }
  };
  render(review.site.site_diagnostics);
  if (review.site.intent) render(review.site.intent->diagnostics);
  for (const NodeSnapshot& node : review.site.nodes) {
    render(node.ingested.diagnostics);
  }
  return out;
}

}  // namespace

std::string to_markdown(const SiteReview& review) {
  std::string out = "# Site separation review\n\n";
  out += strformat("snapshot: `%s` — %zu node(s), intent: %s\n\n",
                   review.site.root.c_str(), review.site.nodes.size(),
                   review.site.intent ? "declared" : "none");

  out += "## Drift\n\n";
  if (review.drift.empty()) {
    out += "(none detected)\n";
  } else {
    out +=
        "| kind | node | knob | expected | actual | artifact |\n"
        "|---|---|---|---|---|---|\n";
    for (const DriftFinding& f : review.drift) {
      out += strformat("| %s | %s | %s | %s | %s | %s |\n",
                       to_string(f.kind), f.node.c_str(), f.knob.c_str(),
                       f.expected.c_str(), f.actual.c_str(),
                       f.where.to_string().c_str());
    }
  }

  const std::string diagnostics = render_diagnostics(review);
  out += "\n## Diagnostics\n\n";
  out += diagnostics.empty() ? "(none)\n" : diagnostics;

  out += "\n## Node review\n\n";
  out +=
      "| node | crossable | unexpected open | residual | "
      "fail-closed-dependent |\n|---|---|---|---|---|\n";
  for (const NodeReview& node : review.nodes) {
    out += strformat(
        "| %s | %zu/%zu | %zu | %zu | %zu |\n", node.name.c_str(),
        node.analysis.crossable_count(), node.analysis.findings.size(),
        node.analysis.unexpected_open_count(),
        node.analysis.residual_set().size(),
        node.degraded.count(DegradedBehavior::fail_closed_dependent));
  }

  for (std::size_t i = 0; i < review.nodes.size(); ++i) {
    const NodeReview& node = review.nodes[i];
    if (node.analysis.unexpected_open_count() == 0) continue;
    const IngestedPolicy& ingested = snapshot_of(review, i).ingested;
    out += strformat("\n### %s — unexpectedly open\n\n",
                     node.name.c_str());
    for (const ChannelFinding& f : node.analysis.findings) {
      if (f.verdict != Verdict::open) continue;
      out += strformat("- `%s` **OPEN** — %s [%s]\n",
                       core::to_string(f.kind), f.explanation.c_str(),
                       citation(ingested, f).c_str());
      if (!f.minimal_hardening.empty()) {
        std::vector<std::string> fixes;
        for (const std::string& knob : f.minimal_hardening) {
          fixes.push_back(strformat(
              "`%s` (currently set at %s)", knob.c_str(),
              ingested.where(knob).to_string().c_str()));
        }
        out += strformat("  - harden %s\n",
                         common::join(fixes, " and ").c_str());
      }
    }
  }

  out += strformat(
      "\nsite gate: %s (unexpected open: %zu, drift findings: %zu, parse "
      "errors: %zu)\n",
      review.gate_ok() ? "PASS" : "FAIL", review.unexpected_open_total(),
      review.drift.size(), review.error_count());
  return out;
}

namespace {

using common::Json;

Json provenance_json(const Provenance& p) {
  Json out = Json::object().compact();
  out.set("file", p.file).set("line", p.line);
  return out;
}

Json diagnostics_json(const std::vector<Diagnostic>& diags) {
  Json out = Json::array().compact();
  for (const Diagnostic& d : diags) {
    Json row = Json::object();
    row.set("severity", to_string(d.severity))
        .set("where", provenance_json(d.where))
        .set("message", d.message);
    out.push(std::move(row));
  }
  return out;
}

Json node_json(const NodeReview& node, const IngestedPolicy& ingested) {
  Json facts = Json::object().compact();
  facts.set("service_port", ingested.facts.service_port)
      .set("ubf_inspect_from", ingested.facts.ubf_inspect_from)
      .set("has_gpus", ingested.facts.has_gpus);
  Json channels = Json::array();
  for (const ChannelFinding& f : node.analysis.findings) {
    Json cited = Json::array();
    for (const std::string& knob : cited_knobs(f)) {
      Json cite = Json::object();
      cite.set("knob", knob)
          .set("where", provenance_json(ingested.where(knob)));
      cited.push(std::move(cite));
    }
    Json row = Json::object().compact();
    row.set("channel", core::to_string(f.kind))
        .set("verdict", to_string(f.verdict))
        .set("explanation", f.explanation)
        .set("cited", std::move(cited));
    channels.push(std::move(row));
  }
  Json summary = Json::object().compact();
  summary.set("crossable", node.analysis.crossable_count())
      .set("unexpected_open", node.analysis.unexpected_open_count())
      .set("residual", node.analysis.residual_set().size())
      .set("fail_closed_dependent",
           node.degraded.count(DegradedBehavior::fail_closed_dependent));
  Json out = Json::object();
  out.set("name", node.name)
      .set("policy", describe_policy(ingested.policy))
      .set("facts", std::move(facts))
      .set("diagnostics", diagnostics_json(ingested.diagnostics))
      .set("channels", std::move(channels))
      .set("summary", std::move(summary));
  return out;
}

}  // namespace

Json to_json(const SiteReview& review) {
  Json intent;
  if (review.site.intent) {
    intent = Json::object().compact();
    intent.set("policy", describe_policy(review.site.intent->policy))
        .set("diagnostics", diagnostics_json(review.site.intent->diagnostics));
  }
  Json drift = Json::array();
  for (const DriftFinding& f : review.drift) {
    Json row = Json::object().compact();
    row.set("kind", to_string(f.kind))
        .set("node", f.node)
        .set("knob", f.knob)
        .set("expected", f.expected)
        .set("actual", f.actual)
        .set("where", provenance_json(f.where));
    drift.push(std::move(row));
  }
  Json nodes = Json::array();
  for (std::size_t n = 0; n < review.nodes.size(); ++n) {
    nodes.push(node_json(review.nodes[n], snapshot_of(review, n).ingested));
  }
  Json gate = Json::object().compact();
  gate.set("ok", review.gate_ok())
      .set("unexpected_open", review.unexpected_open_total())
      .set("drift_findings", review.drift.size())
      .set("parse_errors", review.error_count());

  Json doc = Json::object();
  doc.set("snapshot", review.site.root)
      .set("intent", std::move(intent))
      .set("site_diagnostics", diagnostics_json(review.site.site_diagnostics))
      .set("drift", std::move(drift))
      .set("nodes", std::move(nodes))
      .set("gate", std::move(gate));
  return doc;
}

}  // namespace heus::analyze::ingest
