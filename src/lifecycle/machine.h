// Table-driven lifecycle machines (ISSUE 6 tentpole, ROADMAP item 3).
//
// Five lifecycles in this codebase used to be implicit in scattered
// conditionals: network flows (conntrack admission/teardown/GC), jobs,
// DTN transfers, portal sessions and container entries. This header is
// the shared vocabulary that makes them explicit: a MachineDef is a
// declarative table of states, events, guards and actions, and every
// state change in the owning subsystem goes through Driver::fire()
// against that table. The payoff is twofold:
//
//  - at runtime, the table is the single source of truth for which
//    event is legal in which state (teardown eligibility, retry
//    eligibility, …), with per-transition counters and optional
//    decision-trace rows for free;
//  - statically, `heus::analyze::ReachabilityChecker` walks the same
//    tables over the full policy lattice and proves that no reachable
//    transition sequence opens a channel the per-channel analyzer
//    holds closed (src/analyze/reachability.h).
//
// Guards come in two kinds. A *policy* guard is a pure predicate over
// PolicyView — a flat mirror of core::SeparationPolicy — and names the
// single obs::knob::* knob it depends on; the checker verifies that
// claim exhaustively (the transition/knob agreement rule, DESIGN.md
// §3). An *environment* guard is runtime ground truth the policy does
// not determine (retries left, requeue budget, listener identity); the
// checker explores both outcomes of every environment guard.
//
// Layering: this library depends only on common + obs, so every
// subsystem (net, sched, xfer, portal, container) can define its table
// here without cycles, and `analyze` can read all five through core.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/ids.h"
#include "obs/decision.h"
#include "obs/taxonomy.h"

namespace heus::lifecycle {

// Packed ids: states/events/guards/actions are small dense enums in the
// owning subsystem; tables index them as bytes.
using StateId = std::uint8_t;
using EventId = std::uint8_t;
using GuardId = std::uint8_t;
using ActionId = std::uint8_t;

inline constexpr GuardId kNoGuard = 0xff;
inline constexpr ActionId kNoAction = 0xff;

/// Flat mirror of core::SeparationPolicy, so policy guards stay pure
/// function pointers without a core dependency. `analyze::view_of()`
/// projects a SeparationPolicy into this; field encodings match the
/// knob registry (`heus-lint --list-knobs`) value-for-value.
struct PolicyView {
  std::uint8_t hidepid = 0;  ///< 0 off, 1 restrict, 2 invisible
  bool hidepid_gid_exemption = false;
  bool private_data_jobs = false;
  bool private_data_accounting = false;
  bool private_data_usage = false;
  std::uint8_t sharing = 0;  ///< 0 shared, 1 exclusive-job, 2 user-whole-node
  bool pam_slurm = false;
  bool fs_enforce_smask = false;
  bool fs_honor_smask = false;
  bool fs_restrict_acl = false;
  bool root_owned_homes = false;
  bool ubf = false;
  bool ubf_group_peers = true;
  bool gpu_dev_binding = false;
  bool gpu_epilog_scrub = false;
};

enum class GuardKind {
  policy,  ///< pure predicate over PolicyView; `knob` names its knob
  env,     ///< runtime ground truth; the checker explores both outcomes
};

/// A named predicate gating transitions. For policy guards, `eval` must
/// be a function of `knob`'s value alone — the reachability checker
/// enforces this over the whole policy lattice.
struct Guard {
  const char* name = "";
  GuardKind kind = GuardKind::env;
  const char* knob = nullptr;  ///< obs::knob::* for policy guards
  bool (*eval)(const PolicyView&) = nullptr;  ///< null for env guards
};

/// Channels a transition opens *without* an enforcement decision — the
/// property the reachability checker cross-examines against the static
/// analyzer's per-channel verdicts. Most transitions open nothing.
struct Opens {
  std::uint8_t count = 0;
  std::array<obs::ChannelKind, 2> channel{};
};

[[nodiscard]] constexpr Opens opens(obs::ChannelKind a) {
  return Opens{1, {a, a}};
}
[[nodiscard]] constexpr Opens opens(obs::ChannelKind a, obs::ChannelKind b) {
  return Opens{2, {a, b}};
}

struct Transition {
  StateId from = 0;
  EventId event = 0;
  GuardId guard = kNoGuard;  ///< kNoGuard: unconditional
  bool when = true;          ///< fires when the guard evaluates to `when`
  StateId to = 0;
  ActionId action = kNoAction;
  Opens opens_channels{};
};

/// One lifecycle, fully declarative. All spans reference static storage
/// in the owning subsystem; a MachineDef is immutable and shareable.
struct MachineDef {
  const char* name = "";
  std::span<const char* const> states;
  StateId initial = 0;
  std::uint32_t terminal_mask = 0;  ///< bit i set: state i is terminal
  std::span<const char* const> events;
  std::span<const Guard> guards;
  std::span<const char* const> actions;
  std::span<const Transition> transitions;

  [[nodiscard]] bool is_terminal(StateId s) const {
    return (terminal_mask >> s) & 1u;
  }
  [[nodiscard]] const char* state_name(StateId s) const {
    return s < states.size() ? states[s] : "?";
  }
  [[nodiscard]] const char* event_name(EventId e) const {
    return e < events.size() ? events[e] : "?";
  }
  [[nodiscard]] const char* action_name(ActionId a) const {
    return a == kNoAction ? "-" : (a < actions.size() ? actions[a] : "?");
  }
};

/// Find the transition the table prescribes for (state, event), with
/// guard outcomes supplied by `guard_true(const Guard&) -> bool`. First
/// match wins; the reachability checker rejects tables where two rows
/// could match the same (state, event, outcome). Returns nullptr when
/// the table has no row — an illegal event in this state.
template <typename GuardFn>
[[nodiscard]] const Transition* resolve(const MachineDef& def, StateId state,
                                        EventId event, GuardFn&& guard_true) {
  for (const Transition& t : def.transitions) {
    if (t.from != state || t.event != event) continue;
    if (t.guard == kNoGuard) return &t;
    if (static_cast<bool>(guard_true(def.guards[t.guard])) == t.when) {
      return &t;
    }
  }
  return nullptr;
}

/// "state --event[guard]--> state" label for traces and reports,
/// appended to `out`.
void describe(const MachineDef& def, const Transition& t, std::string& out);
[[nodiscard]] std::string describe(const MachineDef& def,
                                   const Transition& t);

/// Runtime driver: the subsystem owns one per machine, keeps the state
/// variable wherever it likes (typically a packed enum field on the
/// domain object) and routes every change through fire(). Guard
/// outcomes come from the subsystem's ground truth — e.g. the flow
/// table answers "is this port inspected" from the installed hook, the
/// scheduler answers "requeue budget left" from the job spec — while
/// the static checker evaluates the same guards from policy.
class Driver {
 public:
  explicit Driver(const MachineDef* def)
      : def_(def), fired_(def->transitions.size()) {}

  [[nodiscard]] const MachineDef& def() const { return *def_; }

  /// Route fired transitions through a decision trace (one
  /// lifecycle_transition row each, opened channel and guard knob
  /// attached). Null disables recording.
  void set_trace(obs::DecisionTrace* trace) { trace_ = trace; }

  /// Fire `event` on `state`: resolve against the table, advance the
  /// state, bump the per-transition counter, optionally record a trace
  /// row. Returns the transition, or nullptr (counted as an illegal
  /// event) when the table has no row for (state, event, outcome) —
  /// callers treat that as a hard logic error.
  template <typename GuardFn>
  const Transition* fire(StateId& state, EventId event, GuardFn&& guard_true,
                         Uid subject = Uid{}, Gid subject_gid = Gid{},
                         Uid object_owner = Uid{}) {
    const Transition* t = resolve(*def_, state, event, guard_true);
    if (t == nullptr) {
      illegal_.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    state = t->to;
    fired_[static_cast<std::size_t>(t - def_->transitions.data())]
        .fetch_add(1, std::memory_order_relaxed);
    if (trace_ != nullptr) {
      trace_->record(obs::DecisionPoint::lifecycle_transition,
                     obs::Outcome::allow, subject, subject_gid, object_owner,
                     t->opens_channels.count > 0
                         ? std::optional<obs::ChannelKind>(
                               t->opens_channels.channel[0])
                         : std::nullopt,
                     t->guard != kNoGuard ? def_->guards[t->guard].knob
                                          : nullptr,
                     [&](std::string& out) { describe(*def_, *t, out); });
    }
    return t;
  }

  /// Convenience for events whose rows are all guardless (guards, if
  /// any were present, would resolve as false).
  const Transition* fire(StateId& state, EventId event) {
    return fire(state, event, [](const Guard&) { return false; });
  }

  [[nodiscard]] std::uint64_t fired(std::size_t transition_index) const {
    return fired_.at(transition_index).load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t fired_total() const {
    std::uint64_t n = 0;
    for (const auto& f : fired_) n += f.load(std::memory_order_relaxed);
    return n;
  }
  [[nodiscard]] std::uint64_t illegal_events() const {
    return illegal_.load(std::memory_order_relaxed);
  }

 private:
  const MachineDef* def_;
  obs::DecisionTrace* trace_ = nullptr;
  /// Atomic (relaxed): the sharded engine fires disjoint subsystem state
  /// from worker threads; the *totals* are deterministic (the multiset of
  /// fired transitions is), only the interleaving of increments is not.
  std::vector<std::atomic<std::uint64_t>> fired_;
  std::atomic<std::uint64_t> illegal_{0};
};

}  // namespace heus::lifecycle
