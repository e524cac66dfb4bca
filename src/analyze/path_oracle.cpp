#include "analyze/path_oracle.h"

#include <cstring>
#include <functional>
#include <optional>
#include <utility>

#include "analyze/channel_graph.h"
#include "analyze/policy_space.h"
#include "common/clock.h"
#include "common/strings.h"
#include "core/audit.h"
#include "core/cluster.h"
#include "fed/federation.h"
#include "obs/decision.h"
#include "obs/taxonomy.h"
#include "portal/gateway.h"
#include "simos/credentials.h"

namespace heus::analyze {

using common::strformat;
using core::SeparationPolicy;

namespace {

class AlwaysPartitioned final : public fed::LinkFaultModel {
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

core::ClusterConfig oracle_config(const SeparationPolicy& policy) {
  core::ClusterConfig cfg;
  cfg.compute_nodes = 1;  // placement refusals attribute `sharing`
  cfg.login_nodes = 1;
  cfg.cpus_per_node = 8;
  cfg.gpus_per_node = 1;
  cfg.gpu_mem_bytes = 1024;
  cfg.policy = policy;
  return cfg;
}

struct HopResult {
  bool crossed = false;
  std::string detail;
};

/// Mutable adversary state threaded through the hops of one path trial.
struct Ctx {
  core::Cluster* a = nullptr;  ///< mallory's home cluster
  core::Cluster* b = nullptr;  ///< federated peer
  fed::Federation* fed = nullptr;
  Uid victim_a{};
  Uid victim_b{};
  Uid mallory{};
  std::optional<core::Session> adv;  ///< mallory's login shell on a
  std::optional<NodeId> vantage_node;  ///< victim's node, once won
  /// Cross-hop resources (anchor jobs, shells), reverse-run at the end
  /// of the trial; single-hop resources tear down inline.
  std::vector<std::function<void()>> cleanup;
};

std::optional<NodeId> running_node(core::Cluster& c, JobId id) {
  const sched::Job* j = c.scheduler().find_job(id);
  if (j == nullptr || j->state != sched::JobState::running ||
      j->allocations.empty()) {
    return std::nullopt;
  }
  return j->allocations.front().node;
}

// ---------------------------------------------------------------------------
// Foothold hops
// ---------------------------------------------------------------------------

HopResult exec_ssh_gate(Ctx& ctx) {
  core::Cluster* a = ctx.a;
  auto vs = a->login(ctx.victim_a);
  if (!vs) return {false, "victim login failed"};
  sched::JobSpec spec;
  spec.name = "oracle-ssh-anchor";
  spec.duration_ns = 3600 * common::kSecond;
  auto job = a->submit(*vs, spec);
  ctx.cleanup.push_back([a, vs = *vs, job]() mutable {
    if (job) (void)a->scheduler().cancel(vs.cred, *job);
    a->logout(vs);
  });
  if (!job) return {false, "victim anchor job submit failed"};
  a->scheduler().step();
  const auto node = running_node(*a, *job);
  if (!node) return {false, "victim anchor job not running"};
  auto shell = a->ssh(*ctx.adv, *node);
  if (!shell) return {false, "ssh into victim's node denied"};
  ctx.vantage_node = *node;
  ctx.cleanup.push_back(
      [a, shell = *shell]() mutable { a->logout(shell); });
  return {true, "ssh into victim's node admitted"};
}

HopResult exec_colocation(Ctx& ctx) {
  core::Cluster* a = ctx.a;
  auto vs = a->login(ctx.victim_a);
  if (!vs) return {false, "victim login failed"};
  sched::JobSpec vspec;
  vspec.name = "oracle-coloc-victim";
  vspec.duration_ns = 3600 * common::kSecond;
  auto vjob = a->submit(*vs, vspec);
  ctx.cleanup.push_back([a, vs = *vs, vjob]() mutable {
    if (vjob) (void)a->scheduler().cancel(vs.cred, *vjob);
    a->logout(vs);
  });
  if (!vjob) return {false, "victim job submit failed"};
  a->scheduler().step();
  const auto vnode = running_node(*a, *vjob);
  if (!vnode) return {false, "victim job not running"};
  sched::JobSpec aspec;
  aspec.name = "oracle-coloc-adversary";
  aspec.duration_ns = 3600 * common::kSecond;
  auto ajob = a->submit(*ctx.adv, aspec);
  const simos::Credentials adv_cred = ctx.adv->cred;
  ctx.cleanup.push_back([a, adv_cred, ajob]() {
    if (ajob) (void)a->scheduler().cancel(adv_cred, *ajob);
  });
  if (!ajob) return {false, "adversary job submit failed"};
  a->scheduler().step();
  const auto anode = running_node(*a, *ajob);
  if (!anode || *anode != *vnode) {
    return {false, "co-scheduling refused (adversary job held pending)"};
  }
  ctx.vantage_node = *anode;
  return {true, "co-scheduled beside the victim's job"};
}

// ---------------------------------------------------------------------------
// Portal and channel hops
// ---------------------------------------------------------------------------

/// The portal login itself; the forwarded request that follows is the
/// auditor's portal probe, which opens its own portal session.
HopResult exec_portal_auth(Ctx& ctx) {
  auto token = ctx.a->portal().login(ctx.adv->cred);
  if (!token) return {false, "portal login rejected"};
  (void)ctx.a->portal().logout(*token);
  return {true, "portal login accepted"};
}

/// A hop whose edge names a channel runs the LeakageAuditor's probe for
/// it, with mallory as the observer. Edges from victim_node probe the
/// foothold node's local surface (the multi-hop payoff: it is only
/// reachable once ssh_gate or colocation has landed there); the rest
/// probe from the victim's login node.
HopResult exec_channel(Ctx& ctx, const EdgeSpec& spec) {
  const bool from_node = spec.from == Vantage::victim_node;
  if (from_node && !ctx.vantage_node) return {false, "no node vantage"};
  core::Cluster& a = *ctx.a;
  auto vs = a.login(ctx.victim_a);
  if (!vs) return {false, "victim login failed"};
  const NodeId where = from_node ? *ctx.vantage_node : vs->node;
  const core::ChannelReport rep =
      core::LeakageAuditor(&a).probe(*spec.channel, *vs, *ctx.adv, where);
  a.logout(*vs);
  return {rep.open, rep.detail};
}

// ---------------------------------------------------------------------------
// Federation hops
// ---------------------------------------------------------------------------

HopResult exec_fed_gateway(Ctx& ctx) {
  // The WAN hop every federated operation starts with: the enforcing
  // peer verifies mallory's claimed identity with their home cluster.
  auto ident = ctx.fed->remote_ident(1, 0, ctx.mallory);
  if (!ident) {
    return {false, "peer could not verify identity (failed closed)"};
  }
  return {true, "peer verified mallory with the home cluster"};
}

HopResult exec_fed_connect(Ctx& ctx) {
  core::Cluster& b = *ctx.b;
  auto vs = b.login(ctx.victim_b);
  if (!vs) return {false, "victim login failed on peer"};
  net::Network& nw = b.network();
  const HostId vhost = b.node(vs->node).host();
  const std::uint16_t port = 23456;
  (void)nw.listen(vhost, vs->cred, vs->shell, net::Proto::tcp, port);
  auto flow =
      ctx.fed->connect(0, ctx.adv->cred, 1, vhost, net::Proto::tcp, port);
  HopResult r{false, "federated connect denied"};
  if (flow) {
    r = {true, "federated flow to the victim's service established"};
    (void)nw.close(*flow);
  }
  (void)nw.close_listener(vhost, net::Proto::tcp, port);
  b.logout(*vs);
  return r;
}

HopResult exec_fed_portal(Ctx& ctx) {
  core::Cluster& b = *ctx.b;
  auto vs = b.login(ctx.victim_b);
  if (!vs) return {false, "victim login failed on peer"};
  sched::JobSpec spec;
  spec.name = "oracle-fed-jupyter";
  spec.interactive = true;
  spec.duration_ns = 3600 * common::kSecond;
  auto job = b.submit(*vs, spec);
  HopResult r{false, "federated portal forward denied"};
  if (job) {
    b.scheduler().step();
    const auto jn = running_node(b, *job);
    if (jn) {
      auto app = b.portal().register_app(
          vs->cred, Pid{}, *job, b.node(*jn).host(), 8888, "jupyter",
          [](const std::string&) {
            return std::string("NOTEBOOK-TOKEN");
          });
      if (app) {
        auto resp = ctx.fed->portal_request(0, ctx.adv->cred, 1, *app,
                                            "GET / HTTP/1.1");
        if (resp && resp->find("NOTEBOOK-TOKEN") != std::string::npos) {
          r = {true, "victim's notebook served across the federation"};
        }
        (void)b.portal().unregister_app(vs->cred, *app);
      }
    }
    (void)b.scheduler().cancel(vs->cred, *job);
  } else {
    r.detail = "victim submit failed";
  }
  b.logout(*vs);
  return r;
}

HopResult execute_edge(Ctx& ctx, const GraphEdge& e) {
  switch (e.spec->id) {
    case EdgeId::ssh_gate: return exec_ssh_gate(ctx);
    case EdgeId::colocation: return exec_colocation(ctx);
    case EdgeId::portal_auth: return exec_portal_auth(ctx);
    case EdgeId::fed_gateway: return exec_fed_gateway(ctx);
    case EdgeId::fed_connect: return exec_fed_connect(ctx);
    case EdgeId::fed_portal: return exec_fed_portal(ctx);
    default: return exec_channel(ctx, *e.spec);
  }
}

/// The knob a Decision should attribute when this (statically absent)
/// edge fails to cross. "" = the block is silent by design (residual
/// channels never block; fs read denials carry no knob, so fs hops are
/// attributed through the victim-side chmod/acl denial inside the same
/// trace window).
std::string blocked_knob(const SeparationPolicy& p, EdgeId id) {
  switch (id) {
    case EdgeId::ssh_gate:
      return obs::knob::pam_slurm;
    case EdgeId::colocation:
      // The placement refusal is only attributed when the victim's
      // whole-node binding is what exhausts the cluster.
      return p.sharing == sched::SharingPolicy::user_whole_node
                 ? obs::knob::sharing
                 : "";
    case EdgeId::sched_queue:
      return obs::knob::private_data_jobs;
    case EdgeId::sched_accounting:
      return obs::knob::private_data_accounting;
    case EdgeId::sched_usage:
      return obs::knob::private_data_usage;
    case EdgeId::tcp_direct:
    case EdgeId::udp_direct:
    case EdgeId::rdma_tcp:
    case EdgeId::portal_forward:
    case EdgeId::fed_connect:
    case EdgeId::fed_portal:
      return obs::knob::ubf;
    case EdgeId::procfs_list_login:
    case EdgeId::procfs_cmdline_login:
    case EdgeId::procfs_list_node:
    case EdgeId::procfs_cmdline_node:
      return obs::knob::hidepid;
    case EdgeId::tmp_content_login:
    case EdgeId::devshm_login:
    case EdgeId::tmp_content_node:
    case EdgeId::devshm_node:
      return obs::knob::fs_enforce_smask;
    case EdgeId::home_read:
      return p.root_owned_homes ? obs::knob::root_owned_homes
                                : obs::knob::fs_enforce_smask;
    case EdgeId::acl_grant:
      return p.fs.restrict_acl ? obs::knob::fs_restrict_acl
                               : obs::knob::root_owned_homes;
    case EdgeId::gpu_residue:
      return obs::knob::gpu_epilog_scrub;
    default:
      return "";
  }
}

bool knob_in_window(core::Cluster& c, std::uint64_t start,
                    const std::string& knob) {
  for (const obs::Decision& d : c.trace().snapshot()) {
    if (d.seq >= start && d.knob != nullptr && knob == d.knob) {
      return true;
    }
  }
  return false;
}

PathTrial execute_path(const ChannelGraph& graph, const AttackPath& path,
                       Ctx ctx, bool partitioned) {
  PathTrial trial;
  trial.label = path_label(graph, path);
  trial.hops_total = path.edges.size();
  trial.multi_hop = path.edges.size() >= 2;
  trial.cross_cluster = path.cross_cluster;

  auto adv = ctx.a->login(ctx.mallory);
  if (!adv) {
    trial.agree = false;
    return trial;
  }
  ctx.adv = *adv;

  bool all_agree = true;
  for (const std::uint32_t ei : path.edges) {
    const GraphEdge& e = graph.edges().at(ei);
    HopTrial hop;
    hop.mechanism = e.spec->mechanism;
    hop.edge_index = ei;
    hop.static_present = e.present;
    const bool fed_layer = std::strcmp(e.spec->layer, "fed") == 0;
    // Partition is a dynamic fact the static graph does not model: any
    // fed-layer hop is expected severed while the WAN is down.
    hop.expected_cross = e.present && !(partitioned && fed_layer);
    if (e.spec->id == EdgeId::fed_gateway) {
      if (partitioned) {
        hop.predicted_knob =
            ctx.fed->breaker_state(1, 0) == fed::BreakerState::open
                ? obs::knob::fed_breaker
                : obs::knob::fed_fail_closed;
      }
    } else if (!hop.expected_cross) {
      hop.predicted_knob = blocked_knob(
          graph.clusters().at(e.enforcing_cluster).policy, e.spec->id);
    }
    const std::uint64_t start_a = ctx.a->trace().total();
    const std::uint64_t start_b = ctx.b->trace().total();
    const HopResult res = execute_edge(ctx, e);
    hop.crossed = res.crossed;
    hop.detail = res.detail;
    if (!hop.crossed && !hop.predicted_knob.empty()) {
      hop.knob_observed =
          knob_in_window(*ctx.a, start_a, hop.predicted_knob) ||
          knob_in_window(*ctx.b, start_b, hop.predicted_knob);
    }
    hop.agree =
        hop.crossed == hop.expected_cross &&
        (hop.crossed || hop.predicted_knob.empty() || hop.knob_observed);
    all_agree = all_agree && hop.agree;
    const bool stop = !hop.crossed;
    trial.hops.push_back(std::move(hop));
    if (stop) break;
  }
  for (auto it = ctx.cleanup.rbegin(); it != ctx.cleanup.rend(); ++it) {
    (*it)();
  }
  ctx.a->logout(*ctx.adv);
  trial.agree = all_agree;
  return trial;
}

}  // namespace

OracleRun run_path_oracle(const OracleOptions& opts) {
  OracleRun run;
  run.label = opts.label;
  run.policy_a = describe_policy(opts.policy_a);
  run.policy_b = describe_policy(opts.policy_b);
  run.partitioned = opts.partition_link;

  const std::vector<ClusterSpec> specs = {{"a", opts.policy_a},
                                          {"b", opts.policy_b}};
  const ChannelGraph graph = ChannelGraph::build(
      specs, PrincipalClass::unprivileged, TopologyFacts{}, false);
  const std::vector<AttackPath> universe =
      PathAnalyzer::enumerate(graph, /*include_absent=*/true);

  core::Cluster a(oracle_config(opts.policy_a));
  core::Cluster b(oracle_config(opts.policy_b));
  for (core::Cluster* c : {&a, &b}) {
    c->trace().set_capacity(65536);
    c->trace().set_enabled(true);
  }
  const Uid victim_a = *a.add_user("victim");
  const Uid mallory = *a.add_user("mallory");
  const Uid victim_b = *b.add_user("victim");
  (void)b.add_user("mallory");  // federated mapping is by account name

  fed::Federation fed;
  (void)fed.add_cluster("a", &a);
  (void)fed.add_cluster("b", &b);
  AlwaysPartitioned wan;
  if (opts.partition_link) fed.set_link_faults(&wan);

  const auto run_one = [&](const AttackPath& path) {
    Ctx ctx;
    ctx.a = &a;
    ctx.b = &b;
    ctx.fed = &fed;
    ctx.victim_a = victim_a;
    ctx.victim_b = victim_b;
    ctx.mallory = mallory;
    PathTrial trial =
        execute_path(graph, path, std::move(ctx), opts.partition_link);
    run.agree_count += trial.agree ? 1 : 0;
    run.multi_hop_count += trial.multi_hop ? 1 : 0;
    run.cross_cluster_count += trial.cross_cluster ? 1 : 0;
    run.trials.push_back(std::move(trial));
  };

  if (opts.partition_link) {
    // Repeat the WAN paths until the breaker arc is fully exercised:
    // the first trips record fed.fail_closed, the later fast-fails
    // record fed.breaker — the per-trial prediction tracks the state.
    for (int rep = 0; rep < 5; ++rep) {
      for (const AttackPath& p : universe) {
        if (p.cross_cluster) run_one(p);
      }
    }
  } else {
    for (const AttackPath& p : universe) run_one(p);
  }
  return run;
}

OracleReport run_standard_oracle() {
  const SeparationPolicy hard = SeparationPolicy::hardened();
  const SeparationPolicy base{};
  SeparationPolicy no_pam = hard;
  no_pam.pam_slurm = false;

  const OracleOptions matrix[] = {
      {hard, hard, false, "hardened/hardened"},
      {base, base, false, "baseline/baseline"},
      {hard, base, false, "hardened/baseline"},
      {base, hard, false, "baseline/hardened"},
      {no_pam, no_pam, false, "hardened minus pam_slurm"},
      {hard, hard, true, "hardened/hardened, WAN partitioned"},
  };

  OracleReport report;
  for (const OracleOptions& opts : matrix) {
    OracleRun run = run_path_oracle(opts);
    report.trials += run.trials.size();
    report.agreed += run.agree_count;
    report.multi_hop += run.multi_hop_count;
    report.cross_cluster += run.cross_cluster_count;
    for (const PathTrial& t : run.trials) {
      if (t.agree) continue;
      for (const HopTrial& h : t.hops) {
        if (h.agree) continue;
        std::string msg = strformat(
            "[%s] %s — hop '%s': expected %s, got %s", run.label.c_str(),
            t.label.c_str(), h.mechanism.c_str(),
            h.expected_cross ? "cross" : "block",
            h.crossed ? "cross" : "block");
        if (!h.crossed && !h.predicted_knob.empty() && !h.knob_observed) {
          msg += strformat("; knob '%s' not attributed",
                           h.predicted_knob.c_str());
        }
        msg += " (" + h.detail + ")";
        report.disagreements.push_back(std::move(msg));
        break;
      }
    }
    report.runs.push_back(std::move(run));
  }
  report.all_agree =
      report.trials > 0 && report.agreed == report.trials;
  return report;
}

std::string oracle_to_markdown(const OracleReport& report) {
  std::string out = "## differential path oracle\n\n";
  out += "| run | trials | agree | multi-hop | cross-cluster |\n";
  out += "|-----|--------|-------|-----------|---------------|\n";
  for (const OracleRun& run : report.runs) {
    out += strformat("| %s%s | %zu | %zu | %zu | %zu |\n",
                     run.label.c_str(),
                     run.partitioned ? " (partitioned)" : "",
                     run.trials.size(), run.agree_count,
                     run.multi_hop_count, run.cross_cluster_count);
  }
  out += strformat(
      "\ntotal: %zu trials, %zu agree, %zu multi-hop, %zu "
      "cross-cluster — %s\n",
      report.trials, report.agreed, report.multi_hop,
      report.cross_cluster,
      report.all_agree ? "static and dynamic agree on every hop"
                       : "DISAGREEMENT");
  for (const std::string& d : report.disagreements) {
    out += "- " + d + "\n";
  }
  return out;
}

}  // namespace heus::analyze
