#include "analyze/knob_lint.h"

#include <cstring>
#include <map>
#include <set>

#include "analyze/channel_graph.h"
#include "analyze/policy_space.h"
#include "common/strings.h"
#include "core/audit.h"
#include "core/cluster.h"
#include "fed/federation.h"
#include "obs/taxonomy.h"
#include "simos/credentials.h"

namespace heus::analyze {

using common::strformat;
using core::SeparationPolicy;

namespace {

constexpr PrincipalClass kAllClasses[] = {
    PrincipalClass::unprivileged,
    PrincipalClass::support_staff,
    PrincipalClass::operator_role,
    PrincipalClass::project_peer,
};

/// Does flipping `k` change any verdict or any graph-edge presence,
/// under any principal class, anywhere on the differential corpus?
bool analyzer_references(const KnobSpec& k) {
  const std::vector<NamedPolicy> corpus = differential_sweep(0, 1);
  for (const PrincipalClass cls : kAllClasses) {
    const StaticAnalyzer analyzer(facts_for(cls, TopologyFacts{}));
    for (const NamedPolicy& np : corpus) {
      const SeparationPolicy flipped = flip_knob(np.policy, k);
      for (const obs::ChannelKind kind : obs::kAllChannels) {
        if (analyzer.verdict(np.policy, kind) !=
            analyzer.verdict(flipped, kind)) {
          return true;
        }
      }
      for (const EdgeSpec& e : edge_catalog()) {
        if (edge_presence(analyzer, e, np.policy) !=
            edge_presence(analyzer, e, flipped)) {
          return true;
        }
      }
    }
  }
  return false;
}

/// The federation knobs are referenced by the fed-layer edges: the
/// PathOracle predicts fed.fail_closed / fed.breaker as the severing
/// knob of the WAN hop under partition (channel_graph.cpp wan_knob +
/// breaker-table tag).
bool fed_edge_references(const char* name) {
  for (const EdgeSpec& e : edge_catalog()) {
    if (std::strcmp(e.layer, "fed") != 0) continue;
    if (e.wan_knob != nullptr && std::strcmp(e.wan_knob, name) == 0) {
      return true;
    }
    if (std::strcmp(name, obs::knob::fed_breaker) == 0 &&
        e.lifecycle != nullptr) {
      return true;
    }
  }
  return false;
}

using Census = std::map<std::string, std::set<std::string>>;

void absorb(Census& census, const obs::DecisionTrace& trace) {
  for (const obs::Decision& d : trace.snapshot()) {
    if (d.knob != nullptr) {
      census[d.knob].insert(obs::to_string(d.point));
    }
  }
}

class PartitionedLink final : public fed::LinkFaultModel {
 public:
  [[nodiscard]] bool partitioned(fed::ClusterIdx,
                                 fed::ClusterIdx) const override {
    return true;
  }
  [[nodiscard]] std::int64_t extra_ns(fed::ClusterIdx,
                                      fed::ClusterIdx) const override {
    return 0;
  }
  bool drop_message(fed::ClusterIdx, fed::ClusterIdx) override {
    return true;
  }
};

/// The scripted enforcement census: one hardened cluster pair, every
/// attributable Decision site exercised at least once.
Census run_census() {
  core::ClusterConfig cfg;
  cfg.compute_nodes = 1;
  cfg.login_nodes = 1;
  cfg.cpus_per_node = 8;
  cfg.gpus_per_node = 1;
  cfg.gpu_mem_bytes = 1024;
  cfg.policy = SeparationPolicy::hardened();
  core::Cluster a(cfg);
  a.trace().set_capacity(65536);
  a.trace().set_enabled(true);
  const Uid victim = *a.add_user("victim");
  const Uid observer = *a.add_user("observer");

  // The audit probes cover hidepid, private_data.*, pam_slurm,
  // root_owned_homes, fs.enforce_smask, fs.restrict_acl, ubf and
  // gpu_epilog_scrub.
  core::LeakageAuditor auditor(&a);
  (void)auditor.audit_pair(victim, observer);

  // gpu_dev_binding: a foreign /dev/nvidiaN open while the victim's
  // job holds the device; sharing: a placement refusal against the
  // victim's whole-node binding.
  {
    auto vs = a.login(victim);
    auto os = a.login(observer);
    sched::JobSpec spec;
    spec.name = "census-gpu-holder";
    spec.gpus_per_task = 1;
    spec.duration_ns = 3600 * common::kSecond;
    auto job = a.submit(*vs, spec);
    if (job) {
      a.scheduler().step();
      const sched::Job* j = a.scheduler().find_job(*job);
      if (j != nullptr && !j->allocations.empty()) {
        core::Node& nd = a.node(j->allocations.front().node);
        const GpuId g = j->allocations.front().gpus.front();
        (void)nd.local_fs().open_device(
            os->cred, core::Node::gpu_dev_path(g.value()),
            vfs::Access::read);
      }
      sched::JobSpec probe;
      probe.name = "census-placement-probe";
      probe.duration_ns = common::kSecond;
      auto blocked = a.submit(*os, probe);
      a.scheduler().step();
      if (blocked) (void)a.scheduler().cancel(os->cred, *blocked);
      (void)a.scheduler().cancel(vs->cred, *job);
      a.run_jobs();
    }
    a.logout(*vs);
    a.logout(*os);
  }

  // ubf_group_peers: a cross-user connect admitted because the victim
  // serves under a project group the observer belongs to (UBF rule b).
  {
    const Gid project = *a.create_project("census-proj", victim);
    (void)a.add_to_project(victim, project, observer);
    auto vs = a.login(victim);
    auto os = a.login(observer);
    const auto vcred = *simos::newgrp(a.users(), vs->cred, project);
    net::Network& nw = a.network();
    const HostId vhost = a.node(vs->node).host();
    (void)nw.listen(vhost, vcred, vs->shell, net::Proto::tcp, 25000);
    auto flow = nw.connect(a.node(os->node).host(), os->cred, os->shell,
                           vhost, net::Proto::tcp, 25000);
    if (flow) (void)nw.close(*flow);
    (void)nw.close_listener(vhost, net::Proto::tcp, 25000);
    a.logout(*vs);
    a.logout(*os);
  }

  // fed.fail_closed / fed.breaker: remote ops against a partitioned
  // peer until the breaker trips.
  Census census;
  {
    core::ClusterConfig bcfg;
    bcfg.compute_nodes = 1;
    bcfg.login_nodes = 1;
    bcfg.cpus_per_node = 8;
    bcfg.policy = SeparationPolicy::hardened();
    core::Cluster b(bcfg);
    const Uid peer_uid = *b.add_user("victim");
    fed::Federation federation;
    (void)federation.add_cluster("a", &a);
    (void)federation.add_cluster("b", &b);
    PartitionedLink wan;
    federation.set_link_faults(&wan);
    for (int i = 0; i < 5; ++i) {
      (void)federation.remote_ident(0, 1, peer_uid);
    }
    absorb(census, a.trace());
    absorb(census, b.trace());
  }
  return census;
}

struct Exemption {
  const char* knob;
  const char* reason;
};

/// Documented enforcement exemptions: knobs whose runtime effect is
/// the *absence* of another knob's decision, so no site can name them.
constexpr Exemption kExemptions[] = {
    {"hidepid_gid_exemption",
     "staff exemption manifests as the absence of hidepid's deny; "
     "the deny rows name hidepid"},
    {"fs.honor_smask",
     "decides whether the smask clamp applies at all; the clamp rows "
     "name fs.enforce_smask"},
};

/// Documented static-side exemptions: knobs whose hardened surface the
/// channel census does not model as a ChannelKind, so no verdict or
/// graph edge can flip on them — their evidence is purely dynamic.
constexpr Exemption kStaticExemptions[] = {
    {"gpu_dev_binding",
     "hardens the foreign /dev/nvidiaN DAC surface, which §IV-F models "
     "as enforcement only (no ChannelKind); the gpu-dev-access "
     "decision site carries its evidence"},
};

}  // namespace

KnobLintReport knob_lint() { return knob_lint(obs::all_knob_names()); }

KnobLintReport knob_lint(std::span<const char* const> names) {
  KnobLintReport report;
  const Census census = run_census();

  for (const char* name : names) {
    KnobEvidence ev;
    ev.knob = name;
    const KnobSpec* spec = find_knob(name);
    ev.in_registry = spec != nullptr;
    ev.fed_knob = std::strcmp(name, obs::knob::fed_fail_closed) == 0 ||
                  std::strcmp(name, obs::knob::fed_breaker) == 0;
    if (!ev.in_registry && !ev.fed_knob) {
      report.findings.push_back(strformat(
          "knob '%s' is neither in the policy-space registry nor a "
          "federation deployment knob (misspelled or orphaned?)",
          name));
    }
    ev.analyzer_referenced = spec != nullptr
                                 ? analyzer_references(*spec)
                                 : fed_edge_references(name);
    for (const Exemption& ex : kStaticExemptions) {
      if (std::strcmp(ex.knob, name) == 0) {
        ev.analyzer_exempt = true;
        ev.analyzer_exemption_reason = ex.reason;
      }
    }
    if ((ev.in_registry || ev.fed_knob) && !ev.analyzer_referenced &&
        !ev.analyzer_exempt) {
      report.findings.push_back(strformat(
          "knob '%s' no longer changes any analyzer verdict or "
          "channel-graph edge (dead on the static side)",
          name));
    }
    for (const Exemption& ex : kExemptions) {
      if (std::strcmp(ex.knob, name) == 0) {
        ev.enforcement_exempt = true;
        ev.exemption_reason = ex.reason;
      }
    }
    if (const auto it = census.find(name); it != census.end()) {
      ev.decision_points.assign(it->second.begin(), it->second.end());
    }
    if (!ev.enforcement_exempt && ev.decision_points.empty()) {
      report.findings.push_back(strformat(
          "knob '%s' was never named by a Decision-recording "
          "enforcement site during the census run",
          name));
    }
    report.knobs.push_back(std::move(ev));
  }

  // Reverse direction: every knob the runtime attributes must be in
  // the shared name list.
  for (const auto& [knob, points] : census) {
    bool known = false;
    for (const char* name : names) {
      if (knob == name) {
        known = true;
        break;
      }
    }
    if (!known) {
      report.findings.push_back(strformat(
          "runtime decisions attribute knob '%s', which is missing "
          "from obs::all_knob_names()",
          knob.c_str()));
    }
  }
  return report;
}

std::string knob_lint_to_markdown(const KnobLintReport& report) {
  std::string out = "## dead-knob lint\n\n";
  out += "| knob | registry | analyzer | enforcement sites |\n";
  out += "|------|----------|----------|-------------------|\n";
  for (const KnobEvidence& ev : report.knobs) {
    std::string sites;
    for (const std::string& p : ev.decision_points) {
      sites += sites.empty() ? p : ", " + p;
    }
    if (ev.enforcement_exempt) {
      sites = "exempt: " + ev.exemption_reason;
    }
    out += strformat("| %s | %s | %s | %s |\n", ev.knob.c_str(),
                     ev.in_registry  ? "yes"
                     : ev.fed_knob   ? "fed"
                                     : "NO",
                     ev.analyzer_referenced ? "yes"
                     : ev.analyzer_exempt   ? "exempt"
                                            : "NO",
                     sites.empty() ? "NONE" : sites.c_str());
  }
  out += strformat("\nfindings: %zu\n", report.findings.size());
  for (const std::string& f : report.findings) {
    out += "- " + f + "\n";
  }
  return out;
}

common::Json knob_lint_to_json(const KnobLintReport& report) {
  using common::Json;
  Json knobs = Json::array();
  for (const KnobEvidence& ev : report.knobs) {
    Json row = Json::object().compact();
    row.set("knob", ev.knob)
        .set("in_registry", ev.in_registry)
        .set("fed_knob", ev.fed_knob)
        .set("analyzer_referenced", ev.analyzer_referenced)
        .set("analyzer_exempt", ev.analyzer_exempt)
        .set("enforcement_exempt", ev.enforcement_exempt)
        .set("decision_points", ev.decision_points);
    knobs.push(std::move(row));
  }
  Json doc = Json::object();
  doc.set("knobs", std::move(knobs))
      .set("findings", report.findings)
      .set("clean", report.clean());
  return doc;
}

}  // namespace heus::analyze
