// Typed capability graph over the per-channel verdicts (ISSUE 8
// tentpole, the graph half).
//
// The StaticAnalyzer answers "is this single channel crossable"; real
// compromises chain channels across subsystem boundaries and, since
// src/fed, across clusters. This module gives those chains a shape:
// nodes are (cluster, vantage) pairs — where an adversary of a given
// principal class can *stand* — and edges are the catalogued mechanisms
// that move them (or their eyes) from one vantage to another. Edge
// presence is derived from three existing sources of truth, never
// restated:
//
//  - channel edges take the StaticAnalyzer verdict for their
//    ChannelKind under the *enforcing* cluster's policy;
//  - structural edges (co-location, portal login, the federation
//    gateway) take a pure predicate of the enforcing policy;
//  - lifecycle-tagged edges carry a pointer to the MachineDef whose
//    `opens()` rows admit them, so the opens() <-> graph agreement
//    property test can hold the two catalogues together.
//
// The PathAnalyzer (path_analyzer.h) walks this graph transitively; the
// PathOracle (path_oracle.h) executes the same edges against a live
// 2-cluster Federation and holds the graph to step-by-step agreement.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "analyze/analyzer.h"
#include "core/policy.h"
#include "lifecycle/machine.h"
#include "obs/taxonomy.h"

namespace heus::analyze {

/// Who the adversary is relative to the victim — the graph-level
/// projection of TopologyFacts' observer_* switches.
enum class PrincipalClass {
  unprivileged,   ///< unrelated user, no special membership
  support_staff,  ///< seepid staff (hidepid gid= exemption)
  operator_role,  ///< Slurm Operator (PrivateData-exempt)
  project_peer,   ///< shares the victim service's project group
};

[[nodiscard]] const char* to_string(PrincipalClass cls);

/// Project a principal class onto base topology facts (only the class's
/// own switches are overridden; everything else passes through).
[[nodiscard]] TopologyFacts facts_for(PrincipalClass cls,
                                      TopologyFacts base);

/// Where an adversary (or their line of sight) can stand. The first
/// four are footholds; the victim_* vantages are the assets a path
/// terminates at.
enum class Vantage : std::uint8_t {
  login_shell,          ///< shell on a login node (the start vantage)
  victim_node,          ///< shell on the victim's compute node
  portal_session,       ///< authenticated portal session
  fed_gateway,          ///< federation gateway of a *peer* cluster
  victim_service,       ///< victim's listening service reached
  victim_files,         ///< victim file content or names read
  victim_process_info,  ///< victim pids / command lines observed
  victim_sched_info,    ///< victim queue/accounting/usage rows read
  victim_gpu_residue,   ///< victim's stale GPU memory read
};

inline constexpr std::size_t kVantageCount = 9;

[[nodiscard]] const char* to_string(Vantage v);

/// True for the victim_* vantages paths terminate at.
[[nodiscard]] bool is_asset(Vantage v);

/// Stable identity of a catalogue entry; the dynamic oracle dispatches
/// its structural-hop executors on this (channel hops run the
/// LeakageAuditor probe named by EdgeSpec::channel).
enum class EdgeId : std::uint8_t {
  ssh_gate,
  colocation,
  sched_queue,
  sched_accounting,
  sched_usage,
  tcp_direct,
  udp_direct,
  rdma_tcp,
  rdma_cm,
  uds_login,
  portal_auth,
  portal_forward,
  home_read,
  acl_grant,
  tmp_names,
  tmp_content_login,
  devshm_login,
  procfs_list_login,
  procfs_cmdline_login,
  tmp_content_node,
  devshm_node,
  procfs_list_node,
  procfs_cmdline_node,
  uds_node,
  gpu_residue,
  fed_gateway,
  fed_connect,
  fed_portal,
};

enum class EdgeClass {
  open,        ///< crossable via a channel the paper does not excuse
  residual,    ///< crossable via a documented structural residual (§V)
  structural,  ///< not a leak by itself: a stance change (login, ssh, …)
};

[[nodiscard]] const char* to_string(EdgeClass cls);

/// One catalogued mechanism. Exactly one of `channel` /
/// `structurally_present` decides presence; `lifecycle` ties the edge
/// to the MachineDef whose opens() rows admit it (nullptr otherwise).
struct EdgeSpec {
  EdgeId id{};
  const char* mechanism = "";  ///< short label for reports
  const char* layer = "";      ///< "simos", "sched", "vfs", "net", …
  Vantage from{};
  Vantage to{};
  bool cross_cluster = false;
  std::optional<obs::ChannelKind> channel;
  bool (*structurally_present)(const core::SeparationPolicy&) = nullptr;
  /// Knob attributed when the edge is severed *dynamically* rather than
  /// by a registry knob (WAN partition on the federation gateway).
  const char* wan_knob = nullptr;
  const lifecycle::MachineDef* lifecycle = nullptr;
};

/// The full mechanism catalogue, stable order. Same-cluster entries are
/// instantiated once per cluster; cross-cluster entries once per
/// ordered cluster pair (fed_gateway) or per enforcing cluster
/// (fed_connect / fed_portal).
[[nodiscard]] std::span<const EdgeSpec> edge_catalog();

/// Catalogue lookup by id; never nullptr for a valid EdgeId.
[[nodiscard]] const EdgeSpec* find_edge_spec(EdgeId id);

/// Presence of one catalogue entry under its enforcing cluster's
/// policy, the rule ChannelGraph::build applies to every instance: the
/// edge's class when present, nullopt when absent. Lattice sweeps key a
/// point with it without building the point's graph.
[[nodiscard]] std::optional<EdgeClass> edge_presence(
    const StaticAnalyzer& analyzer, const EdgeSpec& spec,
    const core::SeparationPolicy& enforcing);

/// One federation member as the graph sees it.
struct ClusterSpec {
  std::string name;
  core::SeparationPolicy policy;
};

struct GraphNode {
  std::uint32_t cluster = 0;
  Vantage vantage{};
};

struct GraphEdge {
  std::uint32_t from = 0;  ///< node index
  std::uint32_t to = 0;    ///< node index
  const EdgeSpec* spec = nullptr;
  std::uint32_t enforcing_cluster = 0;
  bool present = false;
  EdgeClass cls = EdgeClass::structural;
  /// Registry knobs individually load-bearing for presence: flipping
  /// any one of them on the enforcing cluster toggles the edge.
  std::vector<std::string> responsible_knobs;
};

/// The instantiated graph for one (clusters, principal class) question.
class ChannelGraph {
 public:
  /// Instantiate the catalogue over `clusters`. With `attribute` false
  /// the per-edge responsible-knob search is skipped (lattice sweeps
  /// only need presence).
  [[nodiscard]] static ChannelGraph build(
      std::span<const ClusterSpec> clusters,
      PrincipalClass cls = PrincipalClass::unprivileged,
      TopologyFacts base_facts = {}, bool attribute = true);

  [[nodiscard]] const std::vector<ClusterSpec>& clusters() const {
    return clusters_;
  }
  [[nodiscard]] PrincipalClass principal() const { return principal_; }
  [[nodiscard]] const TopologyFacts& facts() const { return facts_; }
  [[nodiscard]] const std::vector<GraphNode>& nodes() const {
    return nodes_;
  }
  [[nodiscard]] const std::vector<GraphEdge>& edges() const {
    return edges_;
  }

  [[nodiscard]] std::uint32_t node_index(std::uint32_t cluster,
                                         Vantage v) const;
  [[nodiscard]] const GraphNode& node(std::uint32_t index) const {
    return nodes_.at(index);
  }
  /// The adversary's start vantage: login_shell on cluster 0.
  [[nodiscard]] std::uint32_t start_node() const {
    return node_index(0, Vantage::login_shell);
  }

  /// Node indices reachable from the start over *present* edges.
  [[nodiscard]] std::vector<std::uint32_t> reachable() const;

  /// "cluster/vantage" label for reports.
  [[nodiscard]] std::string node_label(std::uint32_t index) const;

 private:
  std::vector<ClusterSpec> clusters_;
  PrincipalClass principal_ = PrincipalClass::unprivileged;
  TopologyFacts facts_{};
  std::vector<GraphNode> nodes_;
  std::vector<GraphEdge> edges_;
};

}  // namespace heus::analyze
