// The knob lattice of core::SeparationPolicy, reified.
//
// Every analysis the static analyzer performs — naming the knob(s)
// responsible for a verdict, computing a minimal hardening set, sweeping
// policy space for the differential cross-check — needs a uniform way to
// enumerate, read, flip and parse the policy's knobs. This header is that
// registry: one KnobSpec per independent knob, in a stable documented
// order, plus the sweep generators built on top of it.
#pragma once

#include <array>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/policy.h"

namespace heus::analyze {

/// One independently-settable knob of a SeparationPolicy. Two-valued for
/// bools; enum knobs (hidepid, sharing) expose their baseline/hardened
/// endpoints and treat intermediate values as "not hardened".
struct KnobSpec {
  const char* name;  ///< stable identifier, e.g. "fs.enforce_smask"
  const char* description;
  /// True iff the knob sits at its hardened() value.
  bool (*is_hardened)(const core::SeparationPolicy&);
  /// Set the knob to its hardened (true) or baseline (false) value.
  void (*set)(core::SeparationPolicy&, bool hardened);
};

/// The full registry, in paper-section order (§IV-A … §IV-F).
[[nodiscard]] const std::vector<KnobSpec>& knobs();

/// Registry lookup by name; nullptr when unknown.
[[nodiscard]] const KnobSpec* find_knob(const std::string& name);

/// Toggle one knob between its baseline and hardened endpoint: a knob at
/// its hardened value goes to baseline, anything else goes to hardened.
[[nodiscard]] core::SeparationPolicy flip_knob(core::SeparationPolicy p,
                                               const KnobSpec& knob);

/// The names of the first subset of `candidates` for which
/// `accept(std::span<const KnobSpec* const>)` holds: every subset of
/// size 1, then 2, then 3, each size in lexicographic candidate order.
/// Empty when no subset of size <= 3 is accepted. Every trial reuses
/// one fixed buffer, so the search allocates nothing per trial.
template <typename Accept>
[[nodiscard]] std::vector<std::string> first_knob_subset(
    std::span<const KnobSpec* const> candidates, Accept&& accept) {
  const std::size_t n = candidates.size();
  std::array<std::size_t, 3> at{};
  std::array<const KnobSpec*, 3> pick{};
  for (std::size_t size = 1; size <= pick.size() && size <= n; ++size) {
    for (std::size_t i = 0; i < size; ++i) at[i] = i;
    for (;;) {
      for (std::size_t i = 0; i < size; ++i) pick[i] = candidates[at[i]];
      const std::span<const KnobSpec* const> subset(pick.data(), size);
      if (accept(subset)) {
        std::vector<std::string> names;
        for (const KnobSpec* k : subset) names.emplace_back(k->name);
        return names;
      }
      // Next combination: bump the rightmost index that has room.
      std::size_t i = size;
      while (i > 0 && at[i - 1] == n - (size - i) - 1) --i;
      if (i == 0) break;
      ++at[i - 1];
      for (; i < size; ++i) at[i] = at[i - 1] + 1;
    }
  }
  return {};
}

/// A policy with a human-readable label, for sweeps and reports.
struct NamedPolicy {
  std::string name;
  core::SeparationPolicy policy;
};

/// Every single-knob ablation of `base`: one policy per registry knob,
/// with that knob flipped (baseline<->hardened endpoint).
[[nodiscard]] std::vector<NamedPolicy> single_knob_ablations(
    const std::string& base_name, const core::SeparationPolicy& base);

/// A uniformly random point of the knob lattice. Enum knobs draw from all
/// of their values (hidepid additionally samples restrict_contents=1;
/// sharing samples exclusive_job), so sweeps exercise the intermediate
/// settings too.
[[nodiscard]] core::SeparationPolicy random_policy(common::Rng& rng);

/// The standard differential-sweep corpus: baseline, hardened, every
/// single-knob ablation of each, plus `random_count` seeded random
/// policies. This is the corpus both the cross-check test and the
/// explanation-soundness property test iterate.
[[nodiscard]] std::vector<NamedPolicy> differential_sweep(
    std::size_t random_count, std::uint64_t seed);

/// The value of one registry knob as a parseable token: "off"/"restrict"/
/// "invisible" for hidepid, "shared"/"exclusive"/"user-whole-node" for
/// sharing, "0"/"1" for booleans. Every returned token is accepted back by
/// set_knob_from_string, which is what lets the intent-policy emitter and
/// the drift reporter speak the same vocabulary.
[[nodiscard]] std::string knob_value(const core::SeparationPolicy& p,
                                     const KnobSpec& knob);

/// All `name -> value` assignments of `p`, registry order. The uniform
/// view drift analysis diffs node-by-node.
[[nodiscard]] std::vector<std::pair<std::string, std::string>>
knob_assignments(const core::SeparationPolicy& p);

/// Size of the full knob lattice (every enum value of hidepid and sharing
/// times every boolean assignment): the domain of the exhaustive
/// round-trip oracle.
[[nodiscard]] std::size_t policy_space_size();

/// The `index`-th point of the lattice, in a fixed documented order.
/// policy_at(i) for i in [0, policy_space_size()) enumerates every policy
/// exactly once. Asserts on out-of-range indices.
[[nodiscard]] core::SeparationPolicy policy_at(std::size_t index);

/// Set one knob from a CLI-style string. Accepted values: bools take
/// 0/1/true/false/on/off; "hidepid" additionally takes off/restrict/
/// invisible or 0/1/2; "sharing" takes shared/exclusive/user-whole-node.
/// Returns false (policy untouched) for an unknown knob or value.
[[nodiscard]] bool set_knob_from_string(core::SeparationPolicy& p,
                                        const std::string& name,
                                        const std::string& value);

/// Render the full knob assignment of `p` ("ubf=1 fs.enforce_smask=0 …"),
/// for report headers and test-failure diagnostics.
[[nodiscard]] std::string describe_policy(const core::SeparationPolicy& p);

}  // namespace heus::analyze
