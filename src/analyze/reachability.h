// Exhaustive reachability model checker over the lifecycle tables
// (ISSUE 6 tentpole, the static half).
//
// The tables in src/lifecycle (network flow, job, transfer, portal
// session, container entry) annotate exactly which transitions open a
// cross-user channel without an enforcement decision. This checker
// closes the loop with the per-channel StaticAnalyzer: it walks the
// reachable (state, event, guard-outcome) triples of each table —
// policy guards pinned by the policy, environment guards explored both
// ways — and proves that no reachable transition sequence opens a
// channel the analyzer holds closed under any point of the policy
// lattice. On the way it enforces the table hygiene rules the runtime
// Driver assumes:
//
//  - every policy guard names a registry knob and its predicate is a
//    function of that knob's value alone (the transition/knob
//    agreement rule, DESIGN.md §3);
//  - no transition row is shadowed: first-match resolution can select
//    every row under some (state, event, guard-outcome) combination;
//  - every state is reachable and every transition fires under some
//    policy/environment — dead rows are drift between table and code.
//
// The sweep is exact, not sampled: all policy_space_size() points (the
// full 73,728-policy lattice). A walk reads the policy only through the
// pinned outcomes of the table's policy guards, so it runs once per
// distinct outcome vector (at most two per shipped table); every point
// still gets its own guard/knob agreement check, its own verdict for
// each channel its class's walk opens, and its own fired-triple count.
// Per machine the report also counts *policy-guard signature* classes —
// distinct (guard outcomes, annotated-channel verdicts) vectors.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "analyze/analyzer.h"
#include "common/json.h"
#include "lifecycle/machine.h"

namespace heus::analyze {

/// Project a SeparationPolicy into the flat view lifecycle guards
/// consume. Field encodings match knob_value() token-for-token.
[[nodiscard]] lifecycle::PolicyView view_of(const core::SeparationPolicy& p);

/// The six shipped lifecycle tables, stable order: flow, job,
/// transfer, portal-session, container-entry, fed-breaker.
[[nodiscard]] std::span<const lifecycle::MachineDef* const>
lifecycle_machines();

/// Channels that some reachable transition of `def` opens under
/// `policy`: the checker's walk of the table with the policy guards
/// pinned by `policy`, projected onto the rows' opens() annotations.
/// Sorted, deduplicated. The opens() <-> graph property test holds this
/// equal to the channel set of the present edges tagged with `def`.
[[nodiscard]] std::vector<obs::ChannelKind> reachable_openings(
    const lifecycle::MachineDef& def, const core::SeparationPolicy& policy);

enum class ReachFindingKind {
  bad_guard,          ///< malformed guard (policy w/o eval, env w/ eval)
  unknown_knob,       ///< policy guard names no registry knob
  guard_knob_mismatch,///< eval is not a function of the declared knob
  shadowed_transition,///< first-match resolution can never select row
  unreachable_state,  ///< no policy/env path reaches the state
  dead_transition,    ///< row never fires under any policy/env
  separation_opening, ///< reachable opening while analyzer says closed
};

[[nodiscard]] const char* to_string(ReachFindingKind kind);

struct ReachFinding {
  ReachFindingKind kind{};
  std::string machine;       ///< MachineDef::name
  std::string detail;        ///< prose: row/state/guard and why
  std::string knob;          ///< responsible knob, when one is known
  std::string example_policy;///< describe_policy() of a witness policy
  int transition_index = -1; ///< row index, when the finding has one
  int state = -1;            ///< state id, for unreachable_state
};

struct MachineStats {
  std::string machine;
  std::size_t states = 0;
  std::size_t transitions = 0;
  std::uint64_t triples = 0;  ///< distinct fired (state,event,outcome)×policy
  std::size_t signature_classes = 0;  ///< exact-equivalence quotient size
};

struct ReachReport {
  std::size_t policies = 0;  ///< lattice points swept (policy_space_size())
  std::vector<MachineStats> machines;
  std::vector<ReachFinding> findings;

  [[nodiscard]] bool clean() const { return findings.empty(); }
  [[nodiscard]] std::uint64_t triples_total() const {
    std::uint64_t n = 0;
    for (const MachineStats& m : machines) n += m.triples;
    return n;
  }
};

/// The checker. Stateless apart from the analyzer it cross-examines;
/// check() may be called with any MachineDef (the mutation tests build
/// deliberately-broken copies of the shipped tables).
class ReachabilityChecker {
 public:
  explicit ReachabilityChecker(TopologyFacts facts = {})
      : analyzer_(facts) {}

  /// Sweep one table over the full policy lattice.
  [[nodiscard]] ReachReport check(const lifecycle::MachineDef& def) const;

  /// Sweep several tables in one lattice pass.
  [[nodiscard]] ReachReport check_all(
      std::span<const lifecycle::MachineDef* const> machines) const;

  /// The six shipped tables.
  [[nodiscard]] ReachReport check_shipped() const {
    return check_all(lifecycle_machines());
  }

 private:
  StaticAnalyzer analyzer_;
};

/// Review artifact: per-machine census table plus findings, markdown.
[[nodiscard]] std::string reach_to_markdown(const ReachReport& report);

/// Machine-readable gate output (heus-lint --reach --format json).
[[nodiscard]] common::Json reach_to_json(const ReachReport& report);

}  // namespace heus::analyze
