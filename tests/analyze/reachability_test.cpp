// Reachability checker tests (ISSUE 6): the shipped tables are clean
// over the full policy lattice, and seeded mutations — an unguarded
// opening row, a deleted enforcement branch, a wrong-knob guard, an
// unreachable state, a shadowed row — are each flagged with the
// responsible knob or structural finding.
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analyze/policy_space.h"
#include "analyze/reachability.h"
#include "fed/breaker_lifecycle.h"
#include "net/flow_lifecycle.h"
#include "obs/taxonomy.h"
#include "portal/session_lifecycle.h"
#include "sched/job_lifecycle.h"

namespace heus::analyze {
namespace {

// A deep copy of a shipped MachineDef whose tables live in owned
// vectors, so mutation tests can rewrite rows. rebind() must be called
// after any mutation that may reallocate a vector.
struct MutableMachine {
  std::vector<const char*> states;
  std::vector<const char*> events;
  std::vector<lifecycle::Guard> guards;
  std::vector<const char*> actions;
  std::vector<lifecycle::Transition> transitions;
  lifecycle::MachineDef def;

  explicit MutableMachine(const lifecycle::MachineDef& base)
      : states(base.states.begin(), base.states.end()),
        events(base.events.begin(), base.events.end()),
        guards(base.guards.begin(), base.guards.end()),
        actions(base.actions.begin(), base.actions.end()),
        transitions(base.transitions.begin(), base.transitions.end()),
        def(base) {
    rebind();
  }

  void rebind() {
    def.states = states;
    def.events = events;
    def.guards = guards;
    def.actions = actions;
    def.transitions = transitions;
  }
};

std::vector<const ReachFinding*> of_kind(const ReachReport& report,
                                         ReachFindingKind kind) {
  std::vector<const ReachFinding*> out;
  for (const ReachFinding& f : report.findings) {
    if (f.kind == kind) out.push_back(&f);
  }
  return out;
}

bool any_with_knob(const std::vector<const ReachFinding*>& findings,
                   const std::string& knob) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const ReachFinding* f) {
                       return f->knob.find(knob) != std::string::npos;
                     });
}

TEST(Reachability, ShippedTablesCleanOverFullLattice) {
  const ReachabilityChecker checker;
  const ReachReport report = checker.check_shipped();

  for (const ReachFinding& f : report.findings) {
    ADD_FAILURE() << f.machine << ": " << to_string(f.kind) << " — "
                  << f.detail;
  }
  EXPECT_TRUE(report.clean());
  // Exact sweep: every lattice point, no sampling.
  EXPECT_EQ(report.policies, policy_space_size());

  ASSERT_EQ(report.machines.size(), 6u);
  EXPECT_EQ(report.machines[0].machine, "flow");
  EXPECT_EQ(report.machines[1].machine, "job");
  EXPECT_EQ(report.machines[2].machine, "transfer");
  EXPECT_EQ(report.machines[3].machine, "portal-session");
  EXPECT_EQ(report.machines[4].machine, "container-entry");
  EXPECT_EQ(report.machines[5].machine, "fed-breaker");
  for (const MachineStats& m : report.machines) {
    EXPECT_GT(m.states, 0u) << m.machine;
    EXPECT_GT(m.transitions, 0u) << m.machine;
    EXPECT_GT(m.triples, 0u) << m.machine;
    EXPECT_GE(m.signature_classes, 1u) << m.machine;
  }
  // Policy-guarded machines split into at least the guard's two classes.
  EXPECT_GE(report.machines[0].signature_classes, 2u);  // flow: ubf
  EXPECT_GE(report.machines[1].signature_classes, 2u);  // job: scrub
  EXPECT_GE(report.machines[3].signature_classes, 2u);  // portal: ubf
  EXPECT_GE(report.machines[5].signature_classes, 2u);  // breaker: ubf
  EXPECT_GT(report.triples_total(), 0u);
}

TEST(Reachability, RenderersCoverCleanReport) {
  const ReachabilityChecker checker;
  const ReachReport report = checker.check_shipped();
  const std::string md = reach_to_markdown(report);
  EXPECT_NE(md.find("flow"), std::string::npos);
  EXPECT_NE(md.find("portal-session"), std::string::npos);
  const std::string json = reach_to_json(report).dump();
  EXPECT_NE(json.find("\"clean\": true"), std::string::npos);
  EXPECT_NE(json.find("\"machines\""), std::string::npos);
}

// Mutation 1: drop the ubf-inspects guard from the flow table's
// admit-uninspected row. The opening row now fires under every policy —
// including those where the analyzer holds the cross-user TCP/UDP
// channels closed — and the checker must attribute the violation to the
// ubf knob.
TEST(Reachability, SeededMutationFlowAdmitUnguarded) {
  MutableMachine m(net::flow_machine());
  ASSERT_EQ(m.transitions[2].event,
            static_cast<lifecycle::EventId>(net::FlowEvent::admit_uninspected));
  ASSERT_GT(m.transitions[2].opens_channels.count, 0);
  m.transitions[2].guard = lifecycle::kNoGuard;
  m.rebind();

  const ReachabilityChecker checker;
  const ReachReport report = checker.check(m.def);
  const auto openings = of_kind(report, ReachFindingKind::separation_opening);
  ASSERT_FALSE(openings.empty());
  EXPECT_TRUE(any_with_knob(openings, obs::knob::ubf));
  EXPECT_FALSE(openings.front()->example_policy.empty());
}

// Mutation 2: delete the job table's epilog-scrub branch and make the
// residue-opening epilog row unconditional — the "someone removed the
// scrub from the epilog" drift. Under scrub-enabled policies the
// analyzer holds gpu_residue closed, so the checker must flag the
// opening with the gpu_epilog_scrub knob.
TEST(Reachability, SeededMutationJobScrubBranchDeleted) {
  MutableMachine m(sched::job_machine());
  ASSERT_EQ(m.transitions[3].event,
            static_cast<lifecycle::EventId>(sched::JobEvent::complete));
  ASSERT_EQ(m.transitions[4].event,
            static_cast<lifecycle::EventId>(sched::JobEvent::complete));
  ASSERT_GT(m.transitions[4].opens_channels.count, 0);
  m.transitions.erase(m.transitions.begin() + 3);  // the scrub branch
  m.transitions[3].guard = lifecycle::kNoGuard;    // epilog row, now for all
  m.rebind();

  const ReachabilityChecker checker;
  const ReachReport report = checker.check(m.def);
  const auto openings = of_kind(report, ReachFindingKind::separation_opening);
  ASSERT_FALSE(openings.empty());
  EXPECT_TRUE(any_with_knob(openings, obs::knob::gpu_epilog_scrub));
}

// Mutation 3: delete the portal table's inspected-forward branch and
// make the uninspected forward unconditional. Every forwarded request
// now bypasses the UBF on paper; flagged with the ubf knob.
TEST(Reachability, SeededMutationPortalForwardUnguarded) {
  MutableMachine m(portal::session_machine());
  ASSERT_EQ(m.transitions[1].event,
            static_cast<lifecycle::EventId>(portal::SessionEvent::forward));
  ASSERT_GT(m.transitions[1].opens_channels.count, 0);
  m.transitions.erase(m.transitions.begin());  // forward-inspected branch
  m.transitions[0].guard = lifecycle::kNoGuard;
  m.rebind();

  const ReachabilityChecker checker;
  const ReachReport report = checker.check(m.def);
  const auto openings = of_kind(report, ReachFindingKind::separation_opening);
  ASSERT_FALSE(openings.empty());
  EXPECT_TRUE(any_with_knob(openings, obs::knob::ubf));
}

// Mutation 4: a guard that declares one knob but evaluates another —
// the transition/knob agreement rule violation. The flow guard keeps
// its ubf predicate but claims gpu_epilog_scrub.
TEST(Reachability, SeededMutationWrongKnobGuard) {
  MutableMachine m(net::flow_machine());
  ASSERT_STREQ(m.guards[0].knob, obs::knob::ubf);
  m.guards[0].knob = obs::knob::gpu_epilog_scrub;
  m.rebind();

  const ReachabilityChecker checker;
  const ReachReport report = checker.check(m.def);
  const auto mismatches =
      of_kind(report, ReachFindingKind::guard_knob_mismatch);
  ASSERT_FALSE(mismatches.empty());
  EXPECT_TRUE(any_with_knob(mismatches, obs::knob::gpu_epilog_scrub));
}

// Mutation 5: a state no transition sequence reaches, with an outgoing
// row that can therefore never fire.
TEST(Reachability, SeededMutationUnreachableState) {
  MutableMachine m(net::flow_machine());
  m.states.push_back("limbo");
  const auto limbo = static_cast<lifecycle::StateId>(m.states.size() - 1);
  lifecycle::Transition row{};
  row.from = limbo;
  row.event = static_cast<lifecycle::EventId>(net::FlowEvent::teardown);
  row.to = static_cast<lifecycle::StateId>(net::FlowState::closed);
  m.transitions.push_back(row);
  m.rebind();

  const ReachabilityChecker checker;
  const ReachReport report = checker.check(m.def);
  const auto unreachable =
      of_kind(report, ReachFindingKind::unreachable_state);
  ASSERT_FALSE(unreachable.empty());
  EXPECT_EQ(unreachable.front()->state, static_cast<int>(limbo));
  EXPECT_FALSE(of_kind(report, ReachFindingKind::dead_transition).empty());
}

// Mutation 6: a duplicated row first-match resolution can never select.
TEST(Reachability, SeededMutationShadowedRow) {
  MutableMachine m(net::flow_machine());
  m.transitions.push_back(m.transitions[4]);  // established --activity-->
  m.rebind();

  const ReachabilityChecker checker;
  const ReachReport report = checker.check(m.def);
  const auto shadowed =
      of_kind(report, ReachFindingKind::shadowed_transition);
  ASSERT_FALSE(shadowed.empty());
  EXPECT_EQ(shadowed.front()->transition_index,
            static_cast<int>(m.transitions.size() - 1));
}

// Mutation 7 (ISSUE 7 acceptance): make the federation breaker's
// open-state row ADMIT instead of failing closed — the exact bug the
// fail-closed rule exists to prevent: an operation relayed while the
// peer that would verify the identity is unreachable. The open state is
// reachable under every policy (the trip-threshold guard is
// environmental), so the opening fires under UBF-enabled policies where
// the analyzer holds cross-user TCP closed; the checker must flag it
// and attribute the ubf knob.
TEST(Reachability, SeededMutationBreakerAdmitsThroughOpen) {
  MutableMachine m(fed::breaker_machine());
  const auto open_state =
      static_cast<lifecycle::StateId>(fed::BreakerState::open);
  const auto remote_op =
      static_cast<lifecycle::EventId>(fed::BreakerEvent::remote_op);
  auto row = std::find_if(
      m.transitions.begin(), m.transitions.end(),
      [&](const lifecycle::Transition& t) {
        return t.from == open_state && t.event == remote_op;
      });
  ASSERT_NE(row, m.transitions.end());
  ASSERT_EQ(row->opens_channels.count, 0);  // shipped row opens nothing
  row->opens_channels = lifecycle::opens(obs::ChannelKind::tcp_cross_user);
  m.rebind();

  const ReachabilityChecker checker;
  const ReachReport report = checker.check(m.def);
  const auto openings = of_kind(report, ReachFindingKind::separation_opening);
  ASSERT_FALSE(openings.empty());
  EXPECT_TRUE(any_with_knob(openings, obs::knob::ubf));
  EXPECT_FALSE(openings.front()->example_policy.empty());
}

// Mutation 8: delete the breaker's verify branch and make the
// relay-unverified row unconditional — "someone removed the remote
// ident query from the federation daemon". Flagged with the ubf knob.
TEST(Reachability, SeededMutationBreakerVerifyBranchDeleted) {
  MutableMachine m(fed::breaker_machine());
  ASSERT_EQ(m.transitions[0].event,
            static_cast<lifecycle::EventId>(fed::BreakerEvent::remote_op));
  ASSERT_GT(m.transitions[1].opens_channels.count, 0);
  m.transitions.erase(m.transitions.begin());  // closed verify branch
  m.transitions[0].guard = lifecycle::kNoGuard;  // relay row, now for all
  m.rebind();

  const ReachabilityChecker checker;
  const ReachReport report = checker.check(m.def);
  const auto openings = of_kind(report, ReachFindingKind::separation_opening);
  ASSERT_FALSE(openings.empty());
  EXPECT_TRUE(any_with_knob(openings, obs::knob::ubf));
}

}  // namespace
}  // namespace heus::analyze
