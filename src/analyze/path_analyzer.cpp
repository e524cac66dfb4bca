#include "analyze/path_analyzer.h"

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "common/json.h"
#include "common/strings.h"

namespace heus::analyze {

using common::strformat;
using core::SeparationPolicy;

namespace {

/// DFS state for the simple-path enumeration.
struct PathWalker {
  const ChannelGraph* graph = nullptr;
  bool include_absent = false;
  std::vector<bool> visited;
  std::vector<std::uint32_t> stack;
  std::vector<AttackPath> out;

  void record() {
    AttackPath p;
    p.edges = stack;
    for (const std::uint32_t ei : stack) {
      const GraphEdge& e = graph->edges()[ei];
      if (e.cls == EdgeClass::open) p.has_open_hop = true;
      if (e.spec->cross_cluster) p.cross_cluster = true;
    }
    out.push_back(std::move(p));
  }

  void dfs(std::uint32_t at) {
    const auto& edges = graph->edges();
    for (std::uint32_t ei = 0; ei < edges.size(); ++ei) {
      const GraphEdge& e = edges[ei];
      if (e.from != at) continue;
      if (!include_absent && !e.present) continue;
      if (visited[e.to]) continue;
      stack.push_back(ei);
      if (is_asset(graph->node(e.to).vantage)) {
        record();
      } else {
        visited[e.to] = true;
        dfs(e.to);
        visited[e.to] = false;
      }
      stack.pop_back();
    }
  }
};

std::vector<ClusterSpec> homogeneous_pair(const SeparationPolicy& p) {
  return {ClusterSpec{"c0", p}, ClusterSpec{"c1", p}};
}

}  // namespace

std::vector<AttackPath> PathAnalyzer::enumerate(const ChannelGraph& graph,
                                                bool include_absent) {
  PathWalker w;
  w.graph = &graph;
  w.include_absent = include_absent;
  w.visited.assign(graph.nodes().size(), false);
  w.visited[graph.start_node()] = true;
  w.dfs(graph.start_node());
  return std::move(w.out);
}

PathReport PathAnalyzer::analyze(
    std::span<const ClusterSpec> clusters) const {
  PathReport report;
  report.graph = ChannelGraph::build(clusters, principal_, facts_);
  for (AttackPath& p : enumerate(report.graph)) {
    (p.has_open_hop ? report.escalation : report.residual)
        .push_back(std::move(p));
  }
  report.minimal_cut = minimal_cut(clusters, report.escalation);
  return report;
}

std::size_t PathAnalyzer::escalation_count(
    std::span<const ClusterSpec> clusters) const {
  std::size_t n = 0;
  for (const AttackPath& p : enumerate(ChannelGraph::build(
           clusters, principal_, facts_, /*attribute=*/false))) {
    if (p.has_open_hop) ++n;
  }
  return n;
}

std::vector<std::string> PathAnalyzer::minimal_cut(
    std::span<const ClusterSpec> clusters,
    const std::vector<AttackPath>& escalation) const {
  if (escalation.empty()) return {};

  // Candidates: the whole registry, not just the per-edge responsible
  // knobs — AND-gated pairs (fs.enforce_smask / fs.honor_smask) have no
  // single load-bearing member, yet both belong in the cut.
  std::vector<const KnobSpec*> candidates;
  for (const KnobSpec& k : knobs()) candidates.push_back(&k);

  auto remaining = [&](std::span<const KnobSpec* const> cut) {
    std::vector<ClusterSpec> hardened(clusters.begin(), clusters.end());
    for (ClusterSpec& c : hardened) {
      for (const KnobSpec* k : cut) k->set(c.policy, /*hardened=*/true);
    }
    return escalation_count(hardened);
  };

  // Exhaustive over small cuts.
  std::vector<std::string> small = first_knob_subset(
      candidates, [&](std::span<const KnobSpec* const> cut) {
        return remaining(cut) == 0;
      });
  if (!small.empty()) return small;

  // Greedy set cover with pair lookahead (an AND-gated pair makes no
  // progress one knob at a time), then prune redundant members.
  std::vector<const KnobSpec*> cut;
  auto chosen = [&](const KnobSpec* k) {
    return std::find(cut.begin(), cut.end(), k) != cut.end();
  };
  std::size_t left = escalation.size();
  while (left > 0) {
    const KnobSpec* best = nullptr;
    std::size_t best_left = left;
    for (const KnobSpec* k : candidates) {
      if (chosen(k)) continue;
      std::vector<const KnobSpec*> trial = cut;
      trial.push_back(k);
      const std::size_t after = remaining(trial);
      if (after < best_left) {
        best = k;
        best_left = after;
      }
    }
    if (best != nullptr) {
      cut.push_back(best);
      left = best_left;
      continue;
    }
    std::pair<const KnobSpec*, const KnobSpec*> best_pair{};
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (chosen(candidates[i])) continue;
      for (std::size_t j = i + 1; j < candidates.size(); ++j) {
        if (chosen(candidates[j])) continue;
        std::vector<const KnobSpec*> trial = cut;
        trial.push_back(candidates[i]);
        trial.push_back(candidates[j]);
        const std::size_t after = remaining(trial);
        if (after < best_left) {
          best_pair = {candidates[i], candidates[j]};
          best_left = after;
        }
      }
    }
    if (best_pair.first == nullptr) break;  // no progress even in pairs
    cut.push_back(best_pair.first);
    cut.push_back(best_pair.second);
    left = best_left;
  }
  for (std::size_t i = 0; i < cut.size();) {
    std::vector<const KnobSpec*> trial = cut;
    trial.erase(trial.begin() + static_cast<std::ptrdiff_t>(i));
    if (remaining(trial) == 0) {
      cut = std::move(trial);
    } else {
      ++i;
    }
  }
  std::vector<std::string> names;
  for (const KnobSpec* k : cut) names.emplace_back(k->name);
  return names;
}

LatticeSweep PathAnalyzer::sweep() const {
  LatticeSweep s;
  s.policies = policy_space_size();
  const SeparationPolicy hardened = SeparationPolicy::hardened();
  const StaticAnalyzer analyzer(facts_for(principal_, facts_));
  const std::span<const EdgeSpec> catalog = edge_catalog();
  // A point's behaviour class: every catalogue entry's presence under
  // it. Both members of the homogeneous pair enforce the same policy,
  // so each entry decides all of its instances, and one graph per class
  // answers the escalation count.
  std::unordered_map<std::string, std::size_t> classes;
  std::string key(catalog.size(), '.');
  for (std::size_t i = 0; i < s.policies; ++i) {
    const SeparationPolicy p = policy_at(i);
    for (std::size_t e = 0; e < catalog.size(); ++e) {
      const std::optional<EdgeClass> c =
          edge_presence(analyzer, catalog[e], p);
      key[e] = !c ? '.' : *c == EdgeClass::open ? 'o' : 'r';
    }
    auto it = classes.find(key);
    if (it == classes.end()) {
      it = classes.emplace(key, escalation_count(homogeneous_pair(p))).first;
    }
    const std::size_t count = it->second;
    if (p == hardened) s.hardened_escalation_paths = count;
    if (count > 0) ++s.policies_with_escalation;
    if (count > s.max_escalation_paths) {
      s.max_escalation_paths = count;
      s.worst_policy = describe_policy(p);
    }
  }
  s.behaviour_classes = classes.size();
  return s;
}

std::vector<MutationFinding> PathAnalyzer::mutation_sweep() const {
  const SeparationPolicy hardened = SeparationPolicy::hardened();
  const ChannelGraph clean = ChannelGraph::build(
      homogeneous_pair(hardened), principal_, facts_,
      /*attribute=*/false);
  std::vector<MutationFinding> out;
  for (const KnobSpec& k : knobs()) {
    MutationFinding f;
    f.knob = k.name;
    const ChannelGraph g =
        ChannelGraph::build(homogeneous_pair(flip_knob(hardened, k)),
                            principal_, facts_);
    for (const AttackPath& p : enumerate(g)) {
      if (!p.has_open_hop) continue;
      ++f.escalation_paths;
      if (!f.witness.empty()) continue;
      f.witness = path_label(g, p);
      for (std::size_t hop = 0; hop < p.edges.size(); ++hop) {
        const GraphEdge& e = g.edges()[p.edges[hop]];
        std::string joined;
        for (const std::string& name : e.responsible_knobs) {
          joined += joined.empty() ? name : "," + name;
        }
        f.hop_knobs.push_back(std::move(joined));
        // Edge indices are stable across builds with equal member
        // counts, so the clean graph answers "was this hop already
        // present under pure hardened".
        if (f.reopened_hop < 0 &&
            !clean.edges()[p.edges[hop]].present) {
          f.reopened_hop = static_cast<int>(hop);
          f.reopened_mechanism = e.spec->mechanism;
        }
      }
    }
    out.push_back(std::move(f));
  }
  return out;
}

PathReport PathAnalyzer::full_report(
    const SeparationPolicy& policy) const {
  PathReport report = analyze(homogeneous_pair(policy));
  report.swept = true;
  report.sweep = sweep();
  report.mutations = mutation_sweep();
  return report;
}

std::string path_label(const ChannelGraph& graph, const AttackPath& path) {
  if (path.edges.empty()) return "";
  std::string out =
      graph.node_label(graph.edges()[path.edges.front()].from);
  for (const std::uint32_t ei : path.edges) {
    const GraphEdge& e = graph.edges()[ei];
    out += strformat(" --[%s]--> ", e.spec->mechanism);
    out += graph.node_label(e.to);
  }
  return out;
}

namespace {

void render_paths_md(std::string& out, const ChannelGraph& g,
                     const std::vector<AttackPath>& paths) {
  for (const AttackPath& p : paths) {
    out += "- " + path_label(g, p) + "\n";
    for (std::size_t hop = 0; hop < p.edges.size(); ++hop) {
      const GraphEdge& e = g.edges()[p.edges[hop]];
      std::string knobs_str;
      for (const std::string& k : e.responsible_knobs) {
        knobs_str += knobs_str.empty() ? k : ", " + k;
      }
      out += strformat("  - hop %zu: %s [%s/%s, enforced by %s]%s\n",
                       hop + 1, e.spec->mechanism, e.spec->layer,
                       to_string(e.cls),
                       g.clusters()[e.enforcing_cluster].name.c_str(),
                       knobs_str.empty()
                           ? ""
                           : (" — severed by: " + knobs_str).c_str());
    }
  }
}

common::Json paths_json(const ChannelGraph& g,
                        const std::vector<AttackPath>& paths) {
  using common::Json;
  Json out = Json::array();
  for (const AttackPath& p : paths) {
    Json hop_knobs = Json::array();
    for (const std::uint32_t e : p.edges) {
      hop_knobs.push(g.edges()[e].responsible_knobs);
    }
    Json row = Json::object().compact();
    row.set("path", path_label(g, p))
        .set("hops", p.edges.size())
        .set("cross_cluster", p.cross_cluster)
        .set("hop_knobs", std::move(hop_knobs));
    out.push(std::move(row));
  }
  return out;
}

}  // namespace

std::string paths_to_markdown(const PathReport& report,
                              const KnobLintReport* lint) {
  const ChannelGraph& g = report.graph;
  std::string out = "# heus escalation-path analysis\n\n";
  out += strformat("principal class: %s\n\n",
                   to_string(g.principal()));
  for (const ClusterSpec& c : g.clusters()) {
    out += strformat("- cluster `%s`: %s\n", c.name.c_str(),
                     describe_policy(c.policy).c_str());
  }
  std::size_t present = 0;
  for (const GraphEdge& e : g.edges()) present += e.present ? 1 : 0;
  out += strformat("\ngraph: %zu nodes, %zu edges (%zu present); "
                   "adversary reaches %zu vantage(s)\n\n",
                   g.nodes().size(), g.edges().size(), present,
                   g.reachable().size());

  out += strformat("## escalation paths (%zu)\n\n",
                   report.escalation.size());
  if (report.escalation.empty()) {
    out += "none — every multi-hop chain is severed.\n";
  } else {
    render_paths_md(out, g, report.escalation);
  }
  out += strformat("\n## residual-exposure paths (%zu)\n\n",
                   report.residual.size());
  render_paths_md(out, g, report.residual);

  out += "\n## minimal cut\n\n";
  if (report.minimal_cut.empty()) {
    out += report.escalation.empty()
               ? "not needed — no escalation path to sever.\n"
               : "none found within the knob registry.\n";
  } else {
    out += "smallest registry-knob set severing every escalation "
           "path:\n\n";
    for (const std::string& k : report.minimal_cut) {
      out += "- `" + k + "`\n";
    }
  }

  if (report.swept) {
    const LatticeSweep& s = report.sweep;
    out += strformat(
        "\n## lattice sweep\n\n%zu policies (%zu behaviour classes): "
        "%zu admit at least one escalation path; hardened admits %zu; "
        "worst admits %zu (%s)\n",
        s.policies, s.behaviour_classes, s.policies_with_escalation,
        s.hardened_escalation_paths, s.max_escalation_paths,
        s.worst_policy.c_str());
    out += "\n## hardened single-knob mutations\n\n";
    out += "| knob | escalation paths | re-opened hop | witness |\n";
    out += "|------|-----------------:|---------------|---------|\n";
    for (const MutationFinding& m : report.mutations) {
      out += strformat(
          "| %s | %zu | %s | %s |\n", m.knob.c_str(),
          m.escalation_paths,
          m.reopened_hop >= 0
              ? strformat("hop %d: %s", m.reopened_hop + 1,
                          m.reopened_mechanism.c_str())
                    .c_str()
              : "-",
          m.witness.empty() ? "- (defense in depth)"
                            : m.witness.c_str());
    }
  }
  if (lint != nullptr) {
    out += "\n" + knob_lint_to_markdown(*lint);
  }
  out += strformat("\ngate: %s\n",
                   (report.gate_ok() && (lint == nullptr || lint->clean()))
                       ? "ok"
                       : "FAIL");
  return out;
}

common::Json paths_to_json(const PathReport& report,
                           const KnobLintReport* lint) {
  using common::Json;
  const ChannelGraph& g = report.graph;
  Json clusters = Json::array();
  for (const ClusterSpec& c : g.clusters()) {
    Json row = Json::object().compact();
    row.set("name", c.name).set("policy", describe_policy(c.policy));
    clusters.push(std::move(row));
  }
  std::size_t present = 0;
  for (const GraphEdge& e : g.edges()) present += e.present ? 1 : 0;

  Json doc = Json::object();
  doc.set("principal", to_string(g.principal()))
      .set("clusters", std::move(clusters))
      .set("nodes", g.nodes().size())
      .set("edges", g.edges().size())
      .set("edges_present", present)
      .set("escalation_paths", paths_json(g, report.escalation))
      .set("residual_paths", paths_json(g, report.residual))
      .set("minimal_cut", Json(report.minimal_cut).compact());
  if (report.swept) {
    const LatticeSweep& s = report.sweep;
    Json sweep = Json::object().compact();
    sweep.set("policies", s.policies)
        .set("behaviour_classes", s.behaviour_classes)
        .set("policies_with_escalation", s.policies_with_escalation)
        .set("hardened_escalation_paths", s.hardened_escalation_paths)
        .set("max_escalation_paths", s.max_escalation_paths)
        .set("worst_policy", s.worst_policy);
    Json mutations = Json::array();
    for (const MutationFinding& m : report.mutations) {
      Json row = Json::object().compact();
      row.set("knob", m.knob)
          .set("escalation_paths", m.escalation_paths)
          .set("reopened_hop", m.reopened_hop)
          .set("reopened_mechanism", m.reopened_mechanism)
          .set("witness", m.witness)
          .set("hop_knobs", m.hop_knobs);
      mutations.push(std::move(row));
    }
    doc.set("sweep", std::move(sweep)).set("mutations", std::move(mutations));
  }
  if (lint != nullptr) doc.set("knob_lint", knob_lint_to_json(*lint));
  doc.set("gate_ok", report.gate_ok() && (lint == nullptr || lint->clean()));
  return doc;
}

}  // namespace heus::analyze
