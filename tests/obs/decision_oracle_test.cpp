// The agreement oracle for the decision spine: over the same 64-policy
// sweep the static/dynamic differential test uses, every channel the
// dynamic LeakageAuditor reports CLOSED must be corroborated by at least
// one deny Decision attributing a knob the static analyzer names
// responsible (any deny suffices when the analyzer's responsible set is
// empty — multiply-held or structural verdicts), and every OPEN channel
// by at least one allow Decision on that channel. Three layers —
// analyzer, auditor, and the per-enforcement-point trace records — must
// tell one consistent story, with zero unmatched probes.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "analyze/analyzer.h"
#include "analyze/policy_space.h"
#include "core/audit.h"
#include "core/cluster.h"
#include "obs/decision.h"

namespace heus::obs {
namespace {

constexpr std::size_t kRandomPolicies = 32;
constexpr std::uint64_t kSweepSeed = 20240521;

core::ClusterConfig small_config(const core::SeparationPolicy& policy) {
  core::ClusterConfig cfg;
  cfg.compute_nodes = 2;
  cfg.login_nodes = 1;
  cfg.cpus_per_node = 8;
  cfg.gpus_per_node = 1;
  cfg.gpu_mem_bytes = 1024;
  cfg.policy = policy;
  return cfg;
}

struct TracedCensus {
  std::map<core::ChannelKind, bool> open;
  std::vector<Decision> decisions;
};

TracedCensus traced_census(const core::SeparationPolicy& policy) {
  core::Cluster cluster(small_config(policy));
  cluster.trace().set_capacity(65536);
  cluster.trace().set_enabled(true);
  const Uid victim = *cluster.add_user("victim");
  const Uid observer = *cluster.add_user("observer");
  core::LeakageAuditor auditor(&cluster);
  TracedCensus out;
  for (const core::ChannelReport& r : auditor.audit_pair(victim, observer)) {
    out.open[r.kind] = r.open;
  }
  out.decisions = cluster.trace().snapshot();
  return out;
}

bool knob_is_responsible(const char* knob, analyze::KnobSet responsible) {
  if (knob == nullptr) return false;
  const std::vector<std::string> names = responsible.names();
  return std::find(names.begin(), names.end(), std::string(knob)) !=
         names.end();
}

TEST(DecisionOracle, EveryChannelVerdictIsCorroboratedWithAttribution) {
  const analyze::StaticAnalyzer analyzer;
  const auto sweep =
      analyze::differential_sweep(kRandomPolicies, kSweepSeed);
  ASSERT_EQ(sweep.size(),
            2 + 2 * analyze::knobs().size() + kRandomPolicies);

  std::size_t unmatched = 0;
  for (const analyze::NamedPolicy& np : sweep) {
    const TracedCensus census = traced_census(np.policy);
    ASSERT_EQ(census.open.size(), core::kAllChannels.size()) << np.name;
    const analyze::AnalysisReport report = analyzer.analyze(np.policy);

    for (core::ChannelKind kind : core::kAllChannels) {
      const bool open = census.open.at(kind);
      const analyze::ChannelFinding& finding = report.finding(kind);
      bool matched = false;
      for (const Decision& d : census.decisions) {
        if (d.channel != kind) continue;
        if (open) {
          if (d.outcome == Outcome::allow) {
            matched = true;
            break;
          }
        } else if (d.outcome == Outcome::deny) {
          if (finding.responsible_knobs.empty() ||
              knob_is_responsible(d.knob, finding.responsible_knobs)) {
            matched = true;
            break;
          }
        }
      }
      EXPECT_TRUE(matched)
          << (open ? "open" : "closed") << " channel "
          << core::to_string(kind) << " under policy " << np.name << " ["
          << analyze::describe_policy(np.policy)
          << "] has no corroborating "
          << (open ? "allow decision"
                   : "deny decision with a responsible knob");
      if (!matched) ++unmatched;
    }
  }
  EXPECT_EQ(unmatched, 0u);
}

// Denies recorded by the spine may never attribute a knob the analyzer
// considers *not* responsible unless the responsible set is empty or the
// knob plainly governs the channel's section. Spot-check under the two
// named endpoint policies: every deny on a channel with a non-empty
// responsible set attributes a knob from that set (or no knob at all —
// plain DAC refusals are unattributed by design).
TEST(DecisionOracle, EndpointDenialsNeverMisattribute) {
  const analyze::StaticAnalyzer analyzer;
  for (const core::SeparationPolicy& policy :
       {core::SeparationPolicy::baseline(),
        core::SeparationPolicy::hardened()}) {
    const TracedCensus census = traced_census(policy);
    const analyze::AnalysisReport report = analyzer.analyze(policy);
    for (const Decision& d : census.decisions) {
      if (!d.channel.has_value() || d.outcome != Outcome::deny ||
          d.knob == nullptr) {
        continue;
      }
      const analyze::ChannelFinding& finding = report.finding(*d.channel);
      if (finding.responsible_knobs.empty()) continue;
      EXPECT_TRUE(knob_is_responsible(d.knob, finding.responsible_knobs))
          << "deny on " << core::to_string(*d.channel) << " attributes "
          << d.knob << " which the analyzer does not hold responsible";
    }
  }
}

}  // namespace
}  // namespace heus::obs
