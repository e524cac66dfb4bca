// Property tests over the whole differential sweep: the analyzer's
// attributions must be *sound*, not just plausible prose.
//
//  - Responsible knobs are load-bearing: re-running the analyzer with any
//    single named knob flipped flips the corresponding channel verdict
//    between crossable and closed.
//  - Minimal hardening suggestions really close the channel, and no
//    proper subset of the suggestion does (cardinality-minimality).
//  - Residual channels are structural: no knob assignment anywhere in the
//    sweep closes them, and they never carry hardening suggestions.
//
// The CensusLattice tests then hold analyze() to its definitions at every
// one of the policy_space_size() lattice points, and pin the whole census
// (verdicts, explanation text, both knob lists) to one digest, so the
// text at points no golden file covers cannot drift either.
#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>

#include "analyze/analyzer.h"
#include "analyze/policy_space.h"

namespace heus::analyze {
namespace {

constexpr std::size_t kRandomPolicies = 32;
constexpr std::uint64_t kSweepSeed = 20240521;

core::SeparationPolicy harden_knobs(core::SeparationPolicy p,
                                    const std::vector<std::string>& names,
                                    std::size_t skip_index) {
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i == skip_index) continue;
    const KnobSpec* knob = find_knob(names[i]);
    EXPECT_NE(knob, nullptr) << names[i];
    if (knob != nullptr) knob->set(p, true);
  }
  return p;
}

TEST(ExplanationSoundness, ResponsibleKnobsAreLoadBearing) {
  const StaticAnalyzer analyzer;
  for (const NamedPolicy& np :
       differential_sweep(kRandomPolicies, kSweepSeed)) {
    const AnalysisReport report = analyzer.analyze(np.policy);
    for (const ChannelFinding& f : report.findings) {
      for (const std::string& name : f.responsible_knobs.names()) {
        const KnobSpec* knob = find_knob(name);
        ASSERT_NE(knob, nullptr) << name;
        const Verdict flipped =
            analyzer.verdict(flip_knob(np.policy, *knob), f.kind);
        EXPECT_NE(is_crossable(flipped), is_crossable(f.verdict))
            << "knob " << name << " named responsible for "
            << core::to_string(f.kind) << " under " << np.name
            << " but flipping it does not flip the verdict";
      }
    }
  }
}

TEST(ExplanationSoundness, MinimalHardeningClosesAndIsMinimal) {
  const StaticAnalyzer analyzer;
  for (const NamedPolicy& np :
       differential_sweep(kRandomPolicies, kSweepSeed)) {
    const AnalysisReport report = analyzer.analyze(np.policy);
    for (const ChannelFinding& f : report.findings) {
      if (f.verdict != Verdict::open) {
        EXPECT_TRUE(f.minimal_hardening.empty())
            << core::to_string(f.kind) << " under " << np.name;
        continue;
      }
      const std::vector<std::string> suggestion =
          f.minimal_hardening.names();
      ASSERT_FALSE(suggestion.empty())
          << core::to_string(f.kind) << " open under " << np.name
          << " with no hardening suggestion";
      // The full suggestion closes the channel...
      const core::SeparationPolicy closed =
          harden_knobs(np.policy, suggestion, suggestion.size());
      EXPECT_EQ(analyzer.verdict(closed, f.kind), Verdict::closed)
          << core::to_string(f.kind) << " under " << np.name;
      // ...and dropping any one knob from it does not.
      for (std::size_t skip = 0; skip < suggestion.size(); ++skip) {
        if (suggestion.size() == 1) break;  // subset is empty
        const core::SeparationPolicy partial =
            harden_knobs(np.policy, suggestion, skip);
        EXPECT_NE(analyzer.verdict(partial, f.kind), Verdict::closed)
            << core::to_string(f.kind) << " under " << np.name
            << ": suggestion not minimal (dropping " << suggestion[skip]
            << " still closes)";
      }
    }
  }
}

TEST(ExplanationSoundness, ResidualsAreStructural) {
  const StaticAnalyzer analyzer;
  for (const NamedPolicy& np :
       differential_sweep(kRandomPolicies, kSweepSeed)) {
    const AnalysisReport report = analyzer.analyze(np.policy);
    for (const ChannelFinding& f : report.findings) {
      if (!core::is_documented_residual(f.kind)) continue;
      EXPECT_EQ(f.verdict, Verdict::residual)
          << core::to_string(f.kind) << " under " << np.name;
      EXPECT_TRUE(f.responsible_knobs.empty()) << core::to_string(f.kind);
      EXPECT_TRUE(f.minimal_hardening.empty()) << core::to_string(f.kind);
    }
  }
}

/// A knob list as names in registry order. The lattice tests read every
/// list through this, so they hold the census to its definitions without
/// depending on how a report stores the lists.
template <typename Knobs>
std::vector<std::string> names_of(const Knobs& knobs) {
  if constexpr (requires { knobs.names(); }) {
    return knobs.names();
  } else {
    return std::vector<std::string>(knobs.begin(), knobs.end());
  }
}

/// The per-channel definition of responsible knobs: every registry knob
/// whose single flip changes `kind`'s crossability, in registry order.
std::vector<std::string> reference_responsible(
    const StaticAnalyzer& analyzer, const core::SeparationPolicy& policy,
    core::ChannelKind kind) {
  const bool crossable = is_crossable(analyzer.verdict(policy, kind));
  std::vector<std::string> out;
  for (const KnobSpec& knob : knobs()) {
    const Verdict flipped = analyzer.verdict(flip_knob(policy, knob), kind);
    if (is_crossable(flipped) != crossable) out.emplace_back(knob.name);
  }
  return out;
}

/// The per-channel definition of minimal hardening: for an open channel,
/// the first subset of the point's unhardened knobs (registry order,
/// first_knob_subset's trial order) whose hardening closes `kind`.
std::vector<std::string> reference_hardening(
    const StaticAnalyzer& analyzer, const core::SeparationPolicy& policy,
    core::ChannelKind kind) {
  if (analyzer.verdict(policy, kind) != Verdict::open) return {};
  std::vector<const KnobSpec*> moves;
  for (const KnobSpec& knob : knobs()) {
    if (!knob.is_hardened(policy)) moves.push_back(&knob);
  }
  return names_of(first_knob_subset(
      moves, [&](std::span<const KnobSpec* const> subset) {
        core::SeparationPolicy p = policy;
        for (const KnobSpec* knob : subset) knob->set(p, true);
        return analyzer.verdict(p, kind) == Verdict::closed;
      }));
}

TEST(CensusLattice, FindingsMatchTheirDefinitionsAtEveryPoint) {
  const StaticAnalyzer analyzer;
  std::size_t failures = 0;
  for (std::size_t i = 0; i < policy_space_size() && failures < 8; ++i) {
    const core::SeparationPolicy policy = policy_at(i);
    const AnalysisReport report = analyzer.analyze(policy);
    for (const core::ChannelKind kind : core::kAllChannels) {
      const ChannelFinding& f = report.finding(kind);
      const bool ok =
          f.kind == kind && f.verdict == analyzer.verdict(policy, kind) &&
          names_of(f.responsible_knobs) ==
              reference_responsible(analyzer, policy, kind) &&
          names_of(f.minimal_hardening) ==
              reference_hardening(analyzer, policy, kind);
      if (ok) continue;
      ++failures;
      ADD_FAILURE() << core::to_string(kind) << " at policy_at(" << i
                    << "): " << describe_policy(policy);
    }
  }
}

/// FNV-1a over `bytes` and a terminating zero byte, so consecutive
/// fields cannot run into one another.
std::uint64_t mix(std::uint64_t h, std::string_view bytes) {
  for (const char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return h * 0x100000001b3ULL;
}

TEST(CensusLattice, DigestOverEveryPointIsPinned) {
  const StaticAnalyzer analyzer;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < policy_space_size(); ++i) {
    const AnalysisReport report = analyzer.analyze(policy_at(i));
    for (const ChannelFinding& f : report.findings) {
      h = mix(h, core::to_string(f.kind));
      h = mix(h, to_string(f.verdict));
      h = mix(h, std::string_view(f.explanation));
      for (const std::string& name : names_of(f.responsible_knobs)) {
        h = mix(h, name);
      }
      h = mix(h, {});
      for (const std::string& name : names_of(f.minimal_hardening)) {
        h = mix(h, name);
      }
      h = mix(h, {});
    }
  }
  EXPECT_EQ(h, 0x1250f89f64cfc165ULL) << std::hex << "0x" << h;
}

}  // namespace
}  // namespace heus::analyze
