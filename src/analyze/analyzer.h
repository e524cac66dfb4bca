// Static separation analyzer: the pre-deployment counterpart of
// core::LeakageAuditor.
//
// The dynamic auditor answers "which cross-user channels does this policy
// leave open" by building a simulated cluster and actively probing it.
// This module answers the same question from the SeparationPolicy alone,
// the way a security reviewer reads an iptables ruleset or a slurm.conf
// before deployment: each ChannelKind gets a verdict derived from the
// knobs (plus lightweight topology facts), an explanation naming the
// load-bearing knob(s), and — for unexpectedly-open channels — the
// smallest knob set that would close it. A census allocates nothing: its
// text is static and its knob lists are registry bitsets.
//
// Correctness is established differentially: tests/analyze sweeps policy
// space and asserts these verdicts agree with LeakageAuditor::audit_pair
// on every (policy × channel) pair, so the analyzer doubles as a standing
// oracle over the simulation and the simulation over the analyzer.
#pragma once

#include <array>
#include <vector>

#include "analyze/policy_space.h"
#include "core/audit.h"
#include "core/policy.h"

namespace heus::analyze {

enum class Verdict {
  closed,    ///< the policy blocks the channel for these principals
  open,      ///< crossable, and the paper does not excuse it
  residual,  ///< crossable, but a documented structural residual (§V)
};

[[nodiscard]] const char* to_string(Verdict v);

/// True for open *and* residual (the channel is crossable either way).
[[nodiscard]] inline bool is_crossable(Verdict v) {
  return v != Verdict::closed;
}

/// The non-policy inputs a reviewer would pull from the site's account
/// database and cluster inventory: who the observer is relative to the
/// victim, and what hardware/mounts exist. Defaults model the auditor's
/// standard scenario — two unrelated unprivileged users on a GPU cluster.
struct TopologyFacts {
  /// Observer holds seepid staff membership (the hidepid gid= group).
  bool observer_support_staff = false;
  /// Observer holds the Slurm Operator privilege (PrivateData-exempt).
  bool observer_operator = false;
  /// The victim's services run under a primary group the observer is a
  /// member of (server started via `newgrp <project>` — UBF rule (b)).
  bool shared_service_group = false;
  /// The cluster has allocatable GPUs (gpu_residue is moot otherwise).
  bool has_gpus = true;
  /// Port the victim's services listen on; the UBF only inspects ports
  /// >= inspected_from (the appendix's "1024 and above").
  std::uint16_t service_port = 23456;
  std::uint16_t ubf_inspect_from = 1024;
};

/// Verdict plus attribution for one channel.
struct ChannelFinding {
  core::ChannelKind kind{};
  Verdict verdict = Verdict::closed;
  /// Static prose: which mechanism decides this verdict under the given
  /// policy.
  const char* explanation = "";
  /// Knobs that are individually load-bearing: flipping any ONE of them
  /// (between its baseline and hardened endpoint) flips the channel
  /// between crossable and closed. Exactly those knobs, by definition,
  /// so empty for structurally-decided channels (residuals) and for
  /// verdicts held by more than one independent mechanism at once.
  KnobSet responsible_knobs;
  /// Smallest knob set whose hardening closes the channel: the first
  /// subset of the policy's unhardened knobs, in first_knob_subset's
  /// order, that does. Empty unless verdict == open (residual channels
  /// have no closing knob set), and empty when no subset of up to three
  /// knobs closes it.
  KnobSet minimal_hardening;
};

/// Full census for one policy.
struct AnalysisReport {
  core::SeparationPolicy policy;
  TopologyFacts facts;
  /// One finding per channel, indexed by ChannelKind (kAllChannels order).
  std::array<ChannelFinding, core::kAllChannels.size()> findings;

  [[nodiscard]] const ChannelFinding& finding(core::ChannelKind kind) const {
    return findings[static_cast<std::size_t>(kind)];
  }
  [[nodiscard]] std::size_t crossable_count() const;
  /// Open channels the paper does NOT excuse — policy failures. Zero is
  /// the pass criterion for the pre-submit gate.
  [[nodiscard]] std::size_t unexpected_open_count() const;
  [[nodiscard]] std::vector<core::ChannelKind> residual_set() const;
};

class StaticAnalyzer {
 public:
  explicit StaticAnalyzer(TopologyFacts facts = {}) : facts_(facts) {}

  [[nodiscard]] const TopologyFacts& facts() const { return facts_; }

  /// The verdict for one channel: pure, allocation-free, O(1). It reads
  /// the same per-channel crossability rules analyze() evaluates for all
  /// channels at once, so the two always agree; the lattice sweeps that
  /// need one channel at a time call this.
  [[nodiscard]] Verdict verdict(const core::SeparationPolicy& policy,
                                core::ChannelKind kind) const;

  /// Full census with explanations and minimal hardening suggestions.
  /// All channels are evaluated at once for the policy and for each of
  /// its single-knob flips, and one hardening search serves every open
  /// channel. Allocates nothing.
  [[nodiscard]] AnalysisReport analyze(
      const core::SeparationPolicy& policy) const;

 private:
  [[nodiscard]] const char* explain(const core::SeparationPolicy& policy,
                                    core::ChannelKind kind,
                                    Verdict verdict) const;

  TopologyFacts facts_;
};

}  // namespace heus::analyze
