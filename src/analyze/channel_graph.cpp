#include "analyze/channel_graph.h"

#include <algorithm>
#include <cassert>

#include "common/strings.h"
#include "fed/breaker_lifecycle.h"
#include "net/flow_lifecycle.h"
#include "portal/session_lifecycle.h"
#include "sched/job_lifecycle.h"

namespace heus::analyze {

using core::SeparationPolicy;
using obs::ChannelKind;

const char* to_string(PrincipalClass cls) {
  switch (cls) {
    case PrincipalClass::unprivileged: return "unprivileged";
    case PrincipalClass::support_staff: return "support-staff";
    case PrincipalClass::operator_role: return "operator";
    case PrincipalClass::project_peer: return "project-peer";
  }
  return "?";
}

TopologyFacts facts_for(PrincipalClass cls, TopologyFacts base) {
  switch (cls) {
    case PrincipalClass::unprivileged:
      break;
    case PrincipalClass::support_staff:
      base.observer_support_staff = true;
      break;
    case PrincipalClass::operator_role:
      base.observer_operator = true;
      break;
    case PrincipalClass::project_peer:
      base.shared_service_group = true;
      break;
  }
  return base;
}

const char* to_string(Vantage v) {
  switch (v) {
    case Vantage::login_shell: return "login-shell";
    case Vantage::victim_node: return "victim-node";
    case Vantage::portal_session: return "portal-session";
    case Vantage::fed_gateway: return "fed-gateway";
    case Vantage::victim_service: return "victim-service";
    case Vantage::victim_files: return "victim-files";
    case Vantage::victim_process_info: return "victim-process-info";
    case Vantage::victim_sched_info: return "victim-sched-info";
    case Vantage::victim_gpu_residue: return "victim-gpu-residue";
  }
  return "?";
}

bool is_asset(Vantage v) {
  switch (v) {
    case Vantage::victim_service:
    case Vantage::victim_files:
    case Vantage::victim_process_info:
    case Vantage::victim_sched_info:
    case Vantage::victim_gpu_residue:
      return true;
    default:
      return false;
  }
}

const char* to_string(EdgeClass cls) {
  switch (cls) {
    case EdgeClass::open: return "open";
    case EdgeClass::residual: return "residual";
    case EdgeClass::structural: return "structural";
  }
  return "?";
}

namespace {

/// Co-location is a stance, not a leak: with nodes shared, the
/// adversary's own 1-task job lands beside the victim's.
bool coloc_present(const SeparationPolicy& p) {
  return p.sharing == sched::SharingPolicy::shared;
}

EdgeSpec chan(EdgeId id, const char* mechanism, const char* layer,
              Vantage from, Vantage to, ChannelKind channel,
              const lifecycle::MachineDef* lc = nullptr) {
  EdgeSpec e;
  e.id = id;
  e.mechanism = mechanism;
  e.layer = layer;
  e.from = from;
  e.to = to;
  e.channel = channel;
  e.lifecycle = lc;
  return e;
}

EdgeSpec structural(EdgeId id, const char* mechanism, const char* layer,
                    Vantage from, Vantage to,
                    bool (*present)(const SeparationPolicy&) = nullptr) {
  EdgeSpec e;
  e.id = id;
  e.mechanism = mechanism;
  e.layer = layer;
  e.from = from;
  e.to = to;
  e.structurally_present = present;
  return e;
}

std::vector<EdgeSpec> make_catalog() {
  using V = Vantage;
  const lifecycle::MachineDef* flow = &net::flow_machine();
  const lifecycle::MachineDef* job = &sched::job_machine();
  const lifecycle::MachineDef* session = &portal::session_machine();
  const lifecycle::MachineDef* breaker = &fed::breaker_machine();

  std::vector<EdgeSpec> out;
  // Footholds: reaching the victim's compute node.
  out.push_back(chan(EdgeId::ssh_gate, "ssh to victim's node", "simos",
                     V::login_shell, V::victim_node,
                     ChannelKind::ssh_foreign_node));
  out.push_back(structural(EdgeId::colocation, "co-scheduled job",
                           "sched", V::login_shell, V::victim_node,
                           &coloc_present));
  // Scheduler query surface.
  out.push_back(chan(EdgeId::sched_queue, "squeue", "sched",
                     V::login_shell, V::victim_sched_info,
                     ChannelKind::scheduler_queue));
  out.push_back(chan(EdgeId::sched_accounting, "sacct", "sched",
                     V::login_shell, V::victim_sched_info,
                     ChannelKind::scheduler_accounting));
  out.push_back(chan(EdgeId::sched_usage, "sreport", "sched",
                     V::login_shell, V::victim_sched_info,
                     ChannelKind::scheduler_usage));
  // Network reach to the victim's service.
  out.push_back(chan(EdgeId::tcp_direct, "tcp connect", "net",
                     V::login_shell, V::victim_service,
                     ChannelKind::tcp_cross_user, flow));
  out.push_back(chan(EdgeId::udp_direct, "udp flow", "net",
                     V::login_shell, V::victim_service,
                     ChannelKind::udp_cross_user, flow));
  out.push_back(chan(EdgeId::rdma_tcp, "rdma qp via tcp", "net",
                     V::login_shell, V::victim_service,
                     ChannelKind::rdma_tcp_setup));
  out.push_back(chan(EdgeId::rdma_cm, "rdma qp via ib cm", "net",
                     V::login_shell, V::victim_service,
                     ChannelKind::rdma_native_cm));
  out.push_back(chan(EdgeId::uds_login, "abstract uds", "net",
                     V::login_shell, V::victim_service,
                     ChannelKind::abstract_uds));
  // Portal chain.
  out.push_back(structural(EdgeId::portal_auth, "portal login",
                           "portal", V::login_shell,
                           V::portal_session));
  out.push_back(chan(EdgeId::portal_forward, "portal forward", "portal",
                     V::portal_session, V::victim_service,
                     ChannelKind::portal_foreign_app, session));
  // Filesystem surface from the login node.
  out.push_back(chan(EdgeId::home_read, "world-chmod'ed home file",
                     "vfs", V::login_shell, V::victim_files,
                     ChannelKind::fs_home_read));
  out.push_back(chan(EdgeId::acl_grant, "setfacl user grant", "vfs",
                     V::login_shell, V::victim_files,
                     ChannelKind::fs_acl_user_grant));
  out.push_back(chan(EdgeId::tmp_names, "/tmp file names", "vfs",
                     V::login_shell, V::victim_files,
                     ChannelKind::fs_tmp_names));
  out.push_back(chan(EdgeId::tmp_content_login, "/tmp content (login)",
                     "vfs", V::login_shell, V::victim_files,
                     ChannelKind::fs_tmp_content));
  out.push_back(chan(EdgeId::devshm_login, "/dev/shm content (login)",
                     "vfs", V::login_shell, V::victim_files,
                     ChannelKind::fs_devshm_content));
  // procfs surface from the login node.
  out.push_back(chan(EdgeId::procfs_list_login, "procfs list (login)",
                     "simos", V::login_shell, V::victim_process_info,
                     ChannelKind::procfs_process_list));
  out.push_back(chan(EdgeId::procfs_cmdline_login,
                     "procfs cmdline (login)", "simos", V::login_shell,
                     V::victim_process_info,
                     ChannelKind::procfs_cmdline));
  // The multi-hop payoff: the same local surfaces *from the victim's
  // node*, reachable only after ssh_gate or colocation.
  out.push_back(chan(EdgeId::tmp_content_node, "/tmp content (node)",
                     "vfs", V::victim_node, V::victim_files,
                     ChannelKind::fs_tmp_content));
  out.push_back(chan(EdgeId::devshm_node, "/dev/shm content (node)",
                     "vfs", V::victim_node, V::victim_files,
                     ChannelKind::fs_devshm_content));
  out.push_back(chan(EdgeId::procfs_list_node, "procfs list (node)",
                     "simos", V::victim_node, V::victim_process_info,
                     ChannelKind::procfs_process_list));
  out.push_back(chan(EdgeId::procfs_cmdline_node,
                     "procfs cmdline (node)", "simos", V::victim_node,
                     V::victim_process_info,
                     ChannelKind::procfs_cmdline));
  out.push_back(chan(EdgeId::uds_node, "abstract uds (node)", "net",
                     V::victim_node, V::victim_service,
                     ChannelKind::abstract_uds));
  // Accelerators.
  out.push_back(chan(EdgeId::gpu_residue, "stale gpu memory", "gpu",
                     V::login_shell, V::victim_gpu_residue,
                     ChannelKind::gpu_residue, job));
  // Federation: the WAN hop is structurally open on a healthy link (a
  // partition severs it dynamically — fed.fail_closed / fed.breaker);
  // the relayed operation is then admitted by the *enforcing* cluster's
  // own UBF/portal, exactly like a local flow.
  {
    EdgeSpec gw = structural(EdgeId::fed_gateway, "federation gateway",
                             "fed", Vantage::login_shell,
                             Vantage::fed_gateway);
    gw.cross_cluster = true;
    gw.wan_knob = obs::knob::fed_fail_closed;
    out.push_back(gw);
  }
  {
    EdgeSpec fc = chan(EdgeId::fed_connect, "federated connect", "fed",
                       Vantage::fed_gateway, Vantage::victim_service,
                       ChannelKind::tcp_cross_user, breaker);
    fc.cross_cluster = true;
    out.push_back(fc);
  }
  {
    EdgeSpec fp = chan(EdgeId::fed_portal, "federated portal forward",
                       "fed", Vantage::fed_gateway, Vantage::victim_service,
                       ChannelKind::portal_foreign_app, breaker);
    fp.cross_cluster = true;
    out.push_back(fp);
  }
  return out;
}

}  // namespace

std::span<const EdgeSpec> edge_catalog() {
  static const std::vector<EdgeSpec> kCatalog = make_catalog();
  return kCatalog;
}

const EdgeSpec* find_edge_spec(EdgeId id) {
  for (const EdgeSpec& e : edge_catalog()) {
    if (e.id == id) return &e;
  }
  return nullptr;
}

std::optional<EdgeClass> edge_presence(const StaticAnalyzer& analyzer,
                                       const EdgeSpec& spec,
                                       const SeparationPolicy& enforcing) {
  if (spec.channel) {
    const Verdict v = analyzer.verdict(enforcing, *spec.channel);
    if (v == Verdict::closed) return std::nullopt;
    return v == Verdict::open ? EdgeClass::open : EdgeClass::residual;
  }
  if (spec.structurally_present != nullptr &&
      !spec.structurally_present(enforcing)) {
    return std::nullopt;
  }
  return EdgeClass::structural;
}

ChannelGraph ChannelGraph::build(std::span<const ClusterSpec> clusters,
                                 PrincipalClass cls,
                                 TopologyFacts base_facts, bool attribute) {
  assert(!clusters.empty());
  ChannelGraph g;
  g.clusters_.assign(clusters.begin(), clusters.end());
  g.principal_ = cls;
  g.facts_ = facts_for(cls, base_facts);
  const StaticAnalyzer analyzer(g.facts_);

  g.nodes_.reserve(clusters.size() * kVantageCount);
  for (std::uint32_t c = 0; c < clusters.size(); ++c) {
    for (std::size_t v = 0; v < kVantageCount; ++v) {
      g.nodes_.push_back(GraphNode{c, static_cast<Vantage>(v)});
    }
  }

  auto add_edge = [&](const EdgeSpec& spec, std::uint32_t from_cluster,
                      std::uint32_t to_cluster,
                      std::uint32_t enforcing) {
    GraphEdge e;
    e.from = g.node_index(from_cluster, spec.from);
    e.to = g.node_index(to_cluster, spec.to);
    e.spec = &spec;
    e.enforcing_cluster = enforcing;
    const SeparationPolicy& policy = g.clusters_[enforcing].policy;
    const std::optional<EdgeClass> presence =
        edge_presence(analyzer, spec, policy);
    e.present = presence.has_value();
    e.cls = presence.value_or(EdgeClass::structural);
    if (attribute) {
      for (const KnobSpec& k : knobs()) {
        const SeparationPolicy flipped = flip_knob(policy, k);
        if (edge_presence(analyzer, spec, flipped).has_value() !=
            e.present) {
          e.responsible_knobs.emplace_back(k.name);
        }
      }
    }
    g.edges_.push_back(std::move(e));
  };

  for (const EdgeSpec& spec : edge_catalog()) {
    if (!spec.cross_cluster) {
      for (std::uint32_t c = 0; c < clusters.size(); ++c) {
        add_edge(spec, c, c, c);
      }
      continue;
    }
    if (spec.from == Vantage::login_shell) {
      // The WAN hop itself: one instance per ordered (home, peer) pair.
      for (std::uint32_t i = 0; i < clusters.size(); ++i) {
        for (std::uint32_t j = 0; j < clusters.size(); ++j) {
          if (i != j) add_edge(spec, i, j, j);
        }
      }
    } else if (clusters.size() > 1) {
      // Relayed operations out of a peer's gateway: one instance per
      // enforcing cluster.
      for (std::uint32_t j = 0; j < clusters.size(); ++j) {
        add_edge(spec, j, j, j);
      }
    }
  }
  return g;
}

std::uint32_t ChannelGraph::node_index(std::uint32_t cluster,
                                       Vantage v) const {
  const std::uint32_t idx =
      cluster * static_cast<std::uint32_t>(kVantageCount) +
      static_cast<std::uint32_t>(v);
  assert(idx < nodes_.size());
  return idx;
}

std::vector<std::uint32_t> ChannelGraph::reachable() const {
  std::vector<bool> seen(nodes_.size(), false);
  std::vector<std::uint32_t> queue{start_node()};
  seen[start_node()] = true;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::uint32_t at = queue[head];
    for (const GraphEdge& e : edges_) {
      if (!e.present || e.from != at || seen[e.to]) continue;
      seen[e.to] = true;
      queue.push_back(e.to);
    }
  }
  std::sort(queue.begin(), queue.end());
  return queue;
}

std::string ChannelGraph::node_label(std::uint32_t index) const {
  const GraphNode& n = node(index);
  return clusters_.at(n.cluster).name + "/" + to_string(n.vantage);
}

}  // namespace heus::analyze
