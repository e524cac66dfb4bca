#include "analyze/reachability.h"

#include <algorithm>
#include <map>
#include <set>

#include "analyze/policy_space.h"
#include "common/json.h"
#include "common/strings.h"
#include "container/entry_lifecycle.h"
#include "fed/breaker_lifecycle.h"
#include "net/flow_lifecycle.h"
#include "portal/session_lifecycle.h"
#include "sched/job_lifecycle.h"
#include "xfer/transfer_lifecycle.h"

namespace heus::analyze {

using common::strformat;
using lifecycle::Guard;
using lifecycle::GuardKind;
using lifecycle::kNoGuard;
using lifecycle::MachineDef;
using lifecycle::Transition;

lifecycle::PolicyView view_of(const core::SeparationPolicy& p) {
  lifecycle::PolicyView v;
  v.hidepid = static_cast<std::uint8_t>(p.hidepid);
  v.hidepid_gid_exemption = p.hidepid_gid_exemption;
  v.private_data_jobs = p.private_data.jobs;
  v.private_data_accounting = p.private_data.accounting;
  v.private_data_usage = p.private_data.usage;
  v.sharing = static_cast<std::uint8_t>(p.sharing);
  v.pam_slurm = p.pam_slurm;
  v.fs_enforce_smask = p.fs.enforce_smask;
  v.fs_honor_smask = p.fs.honor_smask;
  v.fs_restrict_acl = p.fs.restrict_acl;
  v.root_owned_homes = p.root_owned_homes;
  v.ubf = p.ubf;
  v.ubf_group_peers = p.ubf_group_peers;
  v.gpu_dev_binding = p.gpu_dev_binding;
  v.gpu_epilog_scrub = p.gpu_epilog_scrub;
  return v;
}

std::span<const MachineDef* const> lifecycle_machines() {
  static const MachineDef* const kMachines[] = {
      &net::flow_machine(),        &sched::job_machine(),
      &xfer::transfer_machine(),   &portal::session_machine(),
      &container::entry_machine(), &fed::breaker_machine(),
  };
  return kMachines;
}

const char* to_string(ReachFindingKind kind) {
  switch (kind) {
    case ReachFindingKind::bad_guard: return "bad-guard";
    case ReachFindingKind::unknown_knob: return "unknown-knob";
    case ReachFindingKind::guard_knob_mismatch: return "guard-knob-mismatch";
    case ReachFindingKind::shadowed_transition: return "shadowed-transition";
    case ReachFindingKind::unreachable_state: return "unreachable-state";
    case ReachFindingKind::dead_transition: return "dead-transition";
    case ReachFindingKind::separation_opening: return "separation-opening";
  }
  return "?";
}

namespace {

/// The rows one exhaustive walk of `def` fires, in first-fire order:
/// from the initial state, every event in every reached state, policy
/// guard g pinned to `pinned[g]`, environment guards explored both
/// ways, first match wins. The walk reads the policy only through
/// `pinned`. It reaches the initial state and every fired row's target.
std::vector<std::size_t> walk_table(const MachineDef& def,
                                    const std::vector<bool>& pinned) {
  std::vector<std::size_t> env_slot(def.guards.size(), 0);
  std::size_t env_count = 0;
  for (std::size_t g = 0; g < def.guards.size(); ++g) {
    if (def.guards[g].kind != GuardKind::policy) env_slot[g] = env_count++;
  }
  std::vector<std::size_t> order;
  std::vector<bool> fired(def.transitions.size(), false);
  std::vector<bool> seen(def.states.size(), false);
  std::vector<lifecycle::StateId> frontier{def.initial};
  seen[def.initial] = true;
  while (!frontier.empty()) {
    const lifecycle::StateId s = frontier.back();
    frontier.pop_back();
    for (std::size_t e = 0; e < def.events.size(); ++e) {
      for (std::uint32_t env = 0; env < (1u << env_count); ++env) {
        auto outcome = [&](const Guard& g) {
          const std::size_t gi =
              static_cast<std::size_t>(&g - def.guards.data());
          if (g.kind == GuardKind::policy) {
            return static_cast<bool>(pinned[gi]);
          }
          return ((env >> env_slot[gi]) & 1u) != 0;
        };
        const Transition* t = lifecycle::resolve(
            def, s, static_cast<lifecycle::EventId>(e), outcome);
        if (t == nullptr) continue;
        const std::size_t idx =
            static_cast<std::size_t>(t - def.transitions.data());
        if (!fired[idx]) {
          fired[idx] = true;
          order.push_back(idx);
        }
        if (!seen[t->to]) {
          seen[t->to] = true;
          frontier.push_back(t->to);
        }
      }
    }
  }
  return order;
}

/// Per-machine working set for one check_all() sweep.
struct MachineScan {
  const MachineDef* def = nullptr;
  /// Well-formed policy guards, by index. The structural pass leaves
  /// malformed ones out (they stay unpinned, i.e. false), so one bad
  /// guard yields one finding, not thousands.
  std::vector<std::size_t> policy_guards;
  std::vector<const KnobSpec*> guard_knob; ///< registry knob per guard
  std::vector<obs::ChannelKind> annotated; ///< distinct opened channels

  /// The fired rows of one walk per pinned-outcome vector seen so far:
  /// every lattice point with the same outcomes fires the same rows.
  std::map<std::vector<bool>, std::vector<std::size_t>> walks;
  std::vector<bool> pinned;  ///< the current point's outcomes, by guard

  // Sweep accumulators.
  std::vector<bool> fired;  ///< row ever selected, any policy/env
  std::uint64_t triples = 0;
  std::set<std::uint64_t> signatures;

  // Guard/knob agreement: per policy guard, the outcome seen per knob
  // token.
  std::vector<std::map<std::string, bool>> outcome_by_token;
  std::vector<bool> mismatch_reported;

  // separation_opening dedup: (row index << 8) | channel.
  std::set<std::uint64_t> openings_reported;
};

void structural_pass(MachineScan& scan, std::vector<ReachFinding>& findings) {
  const MachineDef& def = *scan.def;
  scan.guard_knob.assign(def.guards.size(), nullptr);
  for (std::size_t g = 0; g < def.guards.size(); ++g) {
    const Guard& guard = def.guards[g];
    if (guard.kind == GuardKind::policy) {
      const KnobSpec* knob =
          guard.knob != nullptr ? find_knob(guard.knob) : nullptr;
      if (guard.eval == nullptr || guard.knob == nullptr) {
        findings.push_back(
            {ReachFindingKind::bad_guard, def.name,
             strformat("policy guard `%s` lacks %s", guard.name,
                       guard.eval == nullptr ? "a predicate" : "a knob"),
             guard.knob != nullptr ? guard.knob : "", "", -1, -1});
      } else if (knob == nullptr) {
        findings.push_back(
            {ReachFindingKind::unknown_knob, def.name,
             strformat("policy guard `%s` names unknown knob `%s`",
                       guard.name, guard.knob),
             guard.knob, "", -1, -1});
      } else {
        scan.guard_knob[g] = knob;
        scan.policy_guards.push_back(g);
      }
    } else if (guard.eval != nullptr || guard.knob != nullptr) {
      findings.push_back(
          {ReachFindingKind::bad_guard, def.name,
           strformat("environment guard `%s` carries %s", guard.name,
                     guard.eval != nullptr ? "a policy predicate"
                                           : "a knob"),
           guard.knob != nullptr ? guard.knob : "", "", -1, -1});
    }
  }

  // Shadowing: group rows by (from, event); for every guard-outcome
  // assignment over the guards the group consults, find the first match.
  // A row no assignment selects can never fire, whatever the policy.
  for (std::size_t i = 0; i < def.transitions.size(); ++i) {
    const Transition& row = def.transitions[i];
    std::vector<std::size_t> group;  // row indices, table order
    std::vector<std::size_t> consulted;
    for (std::size_t j = 0; j < def.transitions.size(); ++j) {
      const Transition& t = def.transitions[j];
      if (t.from != row.from || t.event != row.event) continue;
      group.push_back(j);
      if (t.guard != kNoGuard &&
          std::find(consulted.begin(), consulted.end(),
                    static_cast<std::size_t>(t.guard)) == consulted.end()) {
        consulted.push_back(t.guard);
      }
    }
    if (group.front() == i) continue;  // report once, at later rows only
    bool selectable = false;
    for (std::uint32_t bits = 0; bits < (1u << consulted.size()); ++bits) {
      auto outcome = [&](const Guard& g) {
        const std::size_t gi = static_cast<std::size_t>(&g - def.guards.data());
        for (std::size_t k = 0; k < consulted.size(); ++k) {
          if (consulted[k] == gi) return ((bits >> k) & 1u) != 0;
        }
        return false;
      };
      const Transition* hit =
          lifecycle::resolve(def, row.from, row.event, outcome);
      if (hit == &row) {
        selectable = true;
        break;
      }
    }
    if (!selectable) {
      findings.push_back(
          {ReachFindingKind::shadowed_transition, def.name,
           strformat("row %zu (%s) is shadowed by an earlier row for the "
                     "same (state, event)",
                     i, lifecycle::describe(def, row).c_str()),
           "", "", static_cast<int>(i), -1});
    }
  }

  for (const Transition& t : def.transitions) {
    for (std::uint8_t c = 0; c < t.opens_channels.count; ++c) {
      const obs::ChannelKind ch = t.opens_channels.channel[c];
      if (std::find(scan.annotated.begin(), scan.annotated.end(), ch) ==
          scan.annotated.end()) {
        scan.annotated.push_back(ch);
      }
    }
  }

  scan.pinned.assign(def.guards.size(), false);
  scan.fired.assign(def.transitions.size(), false);
  scan.outcome_by_token.resize(def.guards.size());
  scan.mismatch_reported.assign(def.guards.size(), false);
}

void sweep_policy(MachineScan& scan, const core::SeparationPolicy& policy,
                  const lifecycle::PolicyView& view,
                  const StaticAnalyzer& analyzer,
                  std::vector<ReachFinding>& findings) {
  const MachineDef& def = *scan.def;

  // Pin the policy guards; check each against its declared knob.
  std::uint64_t signature = 0;
  for (std::size_t k = 0; k < scan.policy_guards.size(); ++k) {
    const std::size_t g = scan.policy_guards[k];
    const Guard& guard = def.guards[g];
    const bool outcome = guard.eval(view);
    scan.pinned[g] = outcome;
    signature |= static_cast<std::uint64_t>(outcome) << k;
    if (scan.mismatch_reported[g]) continue;
    const std::string token = knob_value(policy, *scan.guard_knob[g]);
    auto [it, inserted] = scan.outcome_by_token[g].try_emplace(token, outcome);
    if (!inserted && it->second != outcome) {
      scan.mismatch_reported[g] = true;
      findings.push_back(
          {ReachFindingKind::guard_knob_mismatch, def.name,
           strformat("policy guard `%s` changes outcome while `%s=%s` is "
                     "fixed — it depends on some other knob",
                     guard.name, guard.knob, token.c_str()),
           guard.knob, describe_policy(policy), -1, -1});
    }
  }

  // The walk of this point's outcome class, run on first sight.
  auto walk = scan.walks.find(scan.pinned);
  if (walk == scan.walks.end()) {
    walk = scan.walks.emplace(scan.pinned, walk_table(def, scan.pinned))
               .first;
    for (const std::size_t idx : walk->second) scan.fired[idx] = true;
  }
  scan.triples += walk->second.size();

  // Every channel the walk opens, judged under this point's policy.
  for (const std::size_t idx : walk->second) {
    const Transition& t = def.transitions[idx];
    for (std::uint8_t c = 0; c < t.opens_channels.count; ++c) {
      const obs::ChannelKind ch = t.opens_channels.channel[c];
      if (analyzer.verdict(policy, ch) != Verdict::closed) continue;
      const std::uint64_t key = (static_cast<std::uint64_t>(idx) << 8) |
                                static_cast<std::uint64_t>(ch);
      if (!scan.openings_reported.insert(key).second) continue;
      std::string knob =
          t.guard != kNoGuard && def.guards[t.guard].knob != nullptr
              ? def.guards[t.guard].knob
              : "";
      if (knob.empty()) {
        const AnalysisReport rep = analyzer.analyze(policy);
        const auto& resp = rep.finding(ch).responsible_knobs;
        if (!resp.empty()) knob = common::join(resp, ", ");
      }
      findings.push_back(
          {ReachFindingKind::separation_opening, def.name,
           strformat("reachable transition %s opens `%s` while the "
                     "analyzer holds it closed",
                     lifecycle::describe(def, t).c_str(),
                     obs::to_string(ch)),
           knob, describe_policy(policy), static_cast<int>(idx), -1});
    }
  }
  for (std::size_t k = 0; k < scan.annotated.size(); ++k) {
    signature |= static_cast<std::uint64_t>(
                     analyzer.verdict(policy, scan.annotated[k]))
                 << (scan.policy_guards.size() + 2 * k);
  }
  scan.signatures.insert(signature);
}

void finish_machine(MachineScan& scan, std::vector<ReachFinding>& findings) {
  const MachineDef& def = *scan.def;
  for (const std::size_t g : scan.policy_guards) {
    if (scan.mismatch_reported[g]) continue;
    const auto& by_token = scan.outcome_by_token[g];
    const bool varies =
        std::any_of(by_token.begin(), by_token.end(), [&](const auto& t) {
          return t.second != by_token.begin()->second;
        });
    if (!varies) {
      findings.push_back(
          {ReachFindingKind::guard_knob_mismatch, def.name,
           strformat("policy guard `%s` never varies with its declared "
                     "knob `%s` over the whole lattice",
                     def.guards[g].name, def.guards[g].knob),
           def.guards[g].knob, "", -1, -1});
    }
  }
  std::vector<bool> reached(def.states.size(), false);
  reached[def.initial] = true;
  for (std::size_t i = 0; i < def.transitions.size(); ++i) {
    if (scan.fired[i]) reached[def.transitions[i].to] = true;
  }
  for (std::size_t s = 0; s < def.states.size(); ++s) {
    if (reached[s]) continue;
    findings.push_back({ReachFindingKind::unreachable_state, def.name,
                        strformat("state `%s` is unreachable from `%s` "
                                  "under every policy and environment",
                                  def.state_name(
                                      static_cast<lifecycle::StateId>(s)),
                                  def.state_name(def.initial)),
                        "", "", -1, static_cast<int>(s)});
  }
  for (std::size_t i = 0; i < def.transitions.size(); ++i) {
    if (scan.fired[i]) continue;
    // Shadowed rows are already reported with the sharper diagnosis.
    if (std::any_of(findings.begin(), findings.end(),
                    [&](const ReachFinding& f) {
                      return f.kind == ReachFindingKind::shadowed_transition &&
                             f.machine == def.name &&
                             f.transition_index == static_cast<int>(i);
                    })) {
      continue;
    }
    findings.push_back(
        {ReachFindingKind::dead_transition, def.name,
         strformat("row %zu (%s) never fires under any policy or "
                   "environment",
                   i, lifecycle::describe(def, def.transitions[i]).c_str()),
         "", "", static_cast<int>(i), -1});
  }
}

}  // namespace

ReachReport ReachabilityChecker::check_all(
    std::span<const MachineDef* const> machines) const {
  ReachReport report;
  report.policies = policy_space_size();
  std::vector<MachineScan> scans(machines.size());
  for (std::size_t m = 0; m < machines.size(); ++m) {
    scans[m].def = machines[m];
    structural_pass(scans[m], report.findings);
  }
  for (std::size_t i = 0; i < report.policies; ++i) {
    const core::SeparationPolicy policy = policy_at(i);
    const lifecycle::PolicyView view = view_of(policy);
    for (MachineScan& scan : scans) {
      sweep_policy(scan, policy, view, analyzer_, report.findings);
    }
  }
  for (MachineScan& scan : scans) {
    finish_machine(scan, report.findings);
    report.machines.push_back({scan.def->name, scan.def->states.size(),
                               scan.def->transitions.size(), scan.triples,
                               scan.signatures.size()});
  }
  return report;
}

ReachReport ReachabilityChecker::check(const MachineDef& def) const {
  const MachineDef* const one[] = {&def};
  return check_all(one);
}

std::vector<obs::ChannelKind> reachable_openings(
    const MachineDef& def, const core::SeparationPolicy& policy) {
  const lifecycle::PolicyView view = view_of(policy);
  std::vector<bool> pinned(def.guards.size(), false);
  for (std::size_t g = 0; g < def.guards.size(); ++g) {
    const Guard& guard = def.guards[g];
    if (guard.kind == GuardKind::policy && guard.eval != nullptr) {
      pinned[g] = guard.eval(view);
    }
  }
  std::vector<obs::ChannelKind> opened;
  for (const std::size_t row : walk_table(def, pinned)) {
    const lifecycle::Opens& o = def.transitions[row].opens_channels;
    opened.insert(opened.end(), o.channel.begin(),
                  o.channel.begin() + o.count);
  }
  std::sort(opened.begin(), opened.end());
  opened.erase(std::unique(opened.begin(), opened.end()), opened.end());
  return opened;
}

std::string reach_to_markdown(const ReachReport& report) {
  std::string out = "# Lifecycle reachability analysis\n\n";
  out += strformat(
      "Exhaustive sweep: %zu machines x %zu policies (full knob "
      "lattice), environment guards explored both ways.\n\n",
      report.machines.size(), report.policies);
  out +=
      "| machine | states | transitions | fired triples | signature "
      "classes |\n|---|---|---|---|---|\n";
  for (const MachineStats& m : report.machines) {
    out += strformat("| %s | %zu | %zu | %llu | %zu |\n", m.machine.c_str(),
                     m.states, m.transitions,
                     static_cast<unsigned long long>(m.triples),
                     m.signature_classes);
  }
  if (report.findings.empty()) {
    out +=
        "\nNo findings: every state is reachable, every row can fire, "
        "every policy guard agrees with its declared knob, and no "
        "reachable transition opens a channel the analyzer holds "
        "closed.\n";
    return out;
  }
  out += strformat("\n## Findings (%zu)\n\n", report.findings.size());
  for (const ReachFinding& f : report.findings) {
    out += strformat("- **%s** `%s`: %s", to_string(f.kind),
                     f.machine.c_str(), f.detail.c_str());
    if (!f.knob.empty()) {
      out += strformat(" [knob: %s]", f.knob.c_str());
    }
    if (!f.example_policy.empty()) {
      out += strformat("\n  - witness: `%s`", f.example_policy.c_str());
    }
    out += "\n";
  }
  return out;
}

common::Json reach_to_json(const ReachReport& report) {
  using common::Json;
  Json machines = Json::array();
  for (const MachineStats& m : report.machines) {
    Json row = Json::object().compact();
    row.set("name", m.machine)
        .set("states", m.states)
        .set("transitions", m.transitions)
        .set("triples", m.triples)
        .set("signature_classes", m.signature_classes);
    machines.push(std::move(row));
  }
  Json findings = Json::array();
  for (const ReachFinding& f : report.findings) {
    Json row = Json::object().compact();
    row.set("kind", to_string(f.kind))
        .set("machine", f.machine)
        .set("detail", f.detail)
        .set("knob", f.knob)
        .set("witness", f.example_policy)
        .set("transition", f.transition_index)
        .set("state", f.state);
    findings.push(std::move(row));
  }
  Json doc = Json::object();
  doc.set("policies", report.policies)
      .set("clean", report.clean())
      .set("machines", std::move(machines))
      .set("findings", std::move(findings));
  return doc;
}

}  // namespace heus::analyze
