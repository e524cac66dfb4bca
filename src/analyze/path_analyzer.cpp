#include "analyze/path_analyzer.h"

#include <algorithm>
#include <unordered_map>

#include "analyze/json_util.h"
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

/// Presence signature of the homogeneous 2-cluster graph: enough to
/// memoize path counts across the lattice.
std::string presence_signature(const ChannelGraph& g) {
  std::string sig;
  sig.reserve(g.edges().size());
  for (const GraphEdge& e : g.edges()) {
    sig += e.present ? (e.cls == EdgeClass::open ? 'o' : 'r') : '.';
  }
  return sig;
}

std::size_t count_escalation(const ChannelGraph& g) {
  std::size_t n = 0;
  for (const AttackPath& p : PathAnalyzer::enumerate(g)) {
    if (p.has_open_hop) ++n;
  }
  return n;
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
  return count_escalation(ChannelGraph::build(
      clusters, principal_, facts_, /*attribute=*/false));
}

std::vector<std::string> PathAnalyzer::minimal_cut(
    std::span<const ClusterSpec> clusters,
    const std::vector<AttackPath>& escalation) const {
  if (escalation.empty()) return {};

  // Candidates: the whole registry, not just the per-edge responsible
  // knobs — AND-gated pairs (fs.enforce_smask / fs.honor_smask) have no
  // single load-bearing member, yet both belong in the cut.
  std::vector<std::string> candidates;
  for (const KnobSpec& k : knobs()) candidates.emplace_back(k.name);

  auto remaining = [&](const std::vector<std::string>& cut) {
    std::vector<ClusterSpec> hardened(clusters.begin(), clusters.end());
    for (ClusterSpec& c : hardened) {
      for (const std::string& name : cut) {
        const KnobSpec* k = find_knob(name);
        if (k != nullptr) k->set(c.policy, /*hardened=*/true);
      }
    }
    return escalation_count(hardened);
  };

  // Exhaustive over small cuts.
  for (std::size_t size = 1; size <= 3 && size <= candidates.size();
       ++size) {
    std::vector<std::size_t> pick(size);
    for (std::size_t i = 0; i < size; ++i) pick[i] = i;
    for (;;) {
      std::vector<std::string> cut;
      for (const std::size_t i : pick) cut.push_back(candidates[i]);
      if (remaining(cut) == 0) return cut;
      std::size_t at = size;
      while (at > 0 &&
             pick[at - 1] == candidates.size() - (size - at) - 1) {
        --at;
      }
      if (at == 0) break;
      ++pick[at - 1];
      for (std::size_t i = at; i < size; ++i) {
        pick[i] = pick[i - 1] + 1;
      }
    }
  }

  // Greedy set cover with pair lookahead (an AND-gated pair makes no
  // progress one knob at a time), then prune redundant members.
  std::vector<std::string> cut;
  auto chosen = [&](const std::string& name) {
    return std::find(cut.begin(), cut.end(), name) != cut.end();
  };
  std::size_t left = escalation.size();
  while (left > 0) {
    std::string best;
    std::size_t best_left = left;
    for (const std::string& name : candidates) {
      if (chosen(name)) continue;
      std::vector<std::string> trial = cut;
      trial.push_back(name);
      const std::size_t after = remaining(trial);
      if (after < best_left) {
        best = name;
        best_left = after;
      }
    }
    if (!best.empty()) {
      cut.push_back(best);
      left = best_left;
      continue;
    }
    std::pair<std::string, std::string> best_pair;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (chosen(candidates[i])) continue;
      for (std::size_t j = i + 1; j < candidates.size(); ++j) {
        if (chosen(candidates[j])) continue;
        std::vector<std::string> trial = cut;
        trial.push_back(candidates[i]);
        trial.push_back(candidates[j]);
        const std::size_t after = remaining(trial);
        if (after < best_left) {
          best_pair = {candidates[i], candidates[j]};
          best_left = after;
        }
      }
    }
    if (best_pair.first.empty()) break;  // no progress even in pairs
    cut.push_back(best_pair.first);
    cut.push_back(best_pair.second);
    left = best_left;
  }
  for (std::size_t i = 0; i < cut.size();) {
    std::vector<std::string> trial = cut;
    trial.erase(trial.begin() + static_cast<std::ptrdiff_t>(i));
    if (remaining(trial) == 0) {
      cut = std::move(trial);
    } else {
      ++i;
    }
  }
  return cut;
}

LatticeSweep PathAnalyzer::sweep() const {
  LatticeSweep s;
  s.policies = policy_space_size();
  const SeparationPolicy hardened = SeparationPolicy::hardened();
  std::unordered_map<std::string, std::size_t> classes;
  for (std::size_t i = 0; i < s.policies; ++i) {
    const SeparationPolicy p = policy_at(i);
    const ChannelGraph g = ChannelGraph::build(
        homogeneous_pair(p), principal_, facts_, /*attribute=*/false);
    const std::string sig = presence_signature(g);
    auto it = classes.find(sig);
    if (it == classes.end()) {
      it = classes.emplace(sig, count_escalation(g)).first;
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

std::string path_json(const ChannelGraph& g, const AttackPath& p) {
  std::string out = "{\"path\": \"" + json_escape(path_label(g, p));
  out += strformat("\", \"hops\": %zu, \"cross_cluster\": %s, "
                   "\"hop_knobs\": [",
                   p.edges.size(), p.cross_cluster ? "true" : "false");
  for (std::size_t i = 0; i < p.edges.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string_array(g.edges()[p.edges[i]].responsible_knobs);
  }
  out += "]}";
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

std::string paths_to_json(const PathReport& report,
                          const KnobLintReport* lint) {
  const ChannelGraph& g = report.graph;
  std::string out = "{\n";
  out += strformat("  \"principal\": \"%s\",\n",
                   to_string(g.principal()));
  out += "  \"clusters\": [";
  for (std::size_t i = 0; i < g.clusters().size(); ++i) {
    if (i > 0) out += ", ";
    out += strformat(
        "{\"name\": \"%s\", \"policy\": \"%s\"}",
        json_escape(g.clusters()[i].name).c_str(),
        json_escape(describe_policy(g.clusters()[i].policy)).c_str());
  }
  out += "],\n";
  std::size_t present = 0;
  for (const GraphEdge& e : g.edges()) present += e.present ? 1 : 0;
  out += strformat(
      "  \"nodes\": %zu, \"edges\": %zu, \"edges_present\": %zu,\n",
      g.nodes().size(), g.edges().size(), present);
  out += "  \"escalation_paths\": [\n";
  for (std::size_t i = 0; i < report.escalation.size(); ++i) {
    out += "    " + path_json(g, report.escalation[i]);
    out += i + 1 < report.escalation.size() ? ",\n" : "\n";
  }
  out += "  ],\n  \"residual_paths\": [\n";
  for (std::size_t i = 0; i < report.residual.size(); ++i) {
    out += "    " + path_json(g, report.residual[i]);
    out += i + 1 < report.residual.size() ? ",\n" : "\n";
  }
  out += "  ],\n";
  out += "  \"minimal_cut\": " + json_string_array(report.minimal_cut);
  out += ",\n";
  if (report.swept) {
    const LatticeSweep& s = report.sweep;
    out += strformat(
        "  \"sweep\": {\"policies\": %zu, \"behaviour_classes\": %zu, "
        "\"policies_with_escalation\": %zu, "
        "\"hardened_escalation_paths\": %zu, "
        "\"max_escalation_paths\": %zu, \"worst_policy\": \"%s\"},\n",
        s.policies, s.behaviour_classes, s.policies_with_escalation,
        s.hardened_escalation_paths, s.max_escalation_paths,
        json_escape(s.worst_policy).c_str());
    out += "  \"mutations\": [\n";
    for (std::size_t i = 0; i < report.mutations.size(); ++i) {
      const MutationFinding& m = report.mutations[i];
      out += strformat(
          "    {\"knob\": \"%s\", \"escalation_paths\": %zu, "
          "\"reopened_hop\": %d, \"reopened_mechanism\": \"%s\", "
          "\"witness\": \"%s\", \"hop_knobs\": %s}",
          json_escape(m.knob).c_str(), m.escalation_paths,
          m.reopened_hop, json_escape(m.reopened_mechanism).c_str(),
          json_escape(m.witness).c_str(),
          json_string_array(m.hop_knobs).c_str());
      out += i + 1 < report.mutations.size() ? ",\n" : "\n";
    }
    out += "  ],\n";
  }
  if (lint != nullptr) {
    out += "  \"knob_lint\": " + knob_lint_to_json(*lint) + ",\n";
  }
  out += strformat(
      "  \"gate_ok\": %s\n}\n",
      (report.gate_ok() && (lint == nullptr || lint->clean()))
          ? "true"
          : "false");
  return out;
}

}  // namespace heus::analyze
