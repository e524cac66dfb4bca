// lint_gate: the heus-lint --gate analysis over the full policy lattice.
//
// One pass runs StaticAnalyzer::analyze() on every one of the 73,728
// lattice points, then ReachabilityChecker::check_shipped() and
// PathAnalyzer::sweep() — the three lattice quotient schemes. Single-
// threaded; the runtime engine is never touched, so engine changes should
// leave this workload flat and analyzer changes the other four.
//
// Oracle: the hardened policy has no unexpectedly-open channel, the
// reachability sweep is clean, the hardened lattice point admits no
// escalation path, and every pass reproduces the first pass's verdicts.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "analyze/analyzer.h"
#include "analyze/path_analyzer.h"
#include "analyze/policy_space.h"
#include "analyze/reachability.h"
#include "core/policy.h"
#include "workloads.h"

namespace heus::e2e {
namespace {

enum Kind : std::size_t { kCensus, kReach, kPaths };
constexpr OpKind kKinds[] = {
    {"analyze.census", Layer::analyze},
    {"analyze.reach_sweep", Layer::analyze},
    {"analyze.path_sweep", Layer::analyze},
};

/// Lattice points per tick: the census is timed per point, and ticks
/// group the points into ~1 ms units, 1,152 per pass, so tick_p99_ms has
/// eleven ticks beyond it.
constexpr std::size_t kChunk = 64;

class LintGate final : public Workload {
 public:
  explicit LintGate(bool smoke)
      : stride_(smoke ? 16 : 1), episodes_(smoke ? 2 : 10) {}

  [[nodiscard]] std::span<const OpKind> kinds() const override {
    return kKinds;
  }
  [[nodiscard]] std::size_t lanes() const override { return 1; }
  [[nodiscard]] bool engine() const override { return false; }
  [[nodiscard]] std::size_t episodes() const override { return episodes_; }
  [[nodiscard]] bool records_decisions() const override { return false; }
  [[nodiscard]] std::uint64_t setup_failures() const override {
    return setup_failures_;
  }

  void generate() override {}
  void setup() override;
  void reset() override {}
  void run(Episode& ep) override;

 private:
  const std::size_t stride_;
  const std::size_t episodes_;  ///< gate passes in the measured phase
  std::vector<core::SeparationPolicy> policies_;
  analyze::StaticAnalyzer analyzer_;
  analyze::ReachabilityChecker reach_;
  analyze::PathAnalyzer paths_;
  std::uint64_t verdict_digest_ = 0;  ///< first pass; later passes match it
  std::uint64_t setup_failures_ = 0;
};

void LintGate::setup() {
  for (std::size_t i = 0; i < analyze::policy_space_size(); i += stride_) {
    policies_.push_back(analyze::policy_at(i));
  }
  const analyze::AnalysisReport hardened =
      analyzer_.analyze(core::SeparationPolicy::hardened());
  if (hardened.unexpected_open_count() != 0) ++setup_failures_;
  verdict_digest_ = 0;
}

void LintGate::run(Episode& ep) {
  Recorder& lane = ep.lanes->front();
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  std::uint64_t verdicts = 0;
  const std::int64_t start = now_ns();
  std::uint32_t tick = 0;
  for (std::size_t i = 0; i < policies_.size(); i += kChunk, ++tick) {
    lane_tick(ep, lane, tick, true, [&] {
      const std::size_t end = std::min(policies_.size(), i + kChunk);
      for (std::size_t k = i; k < end; ++k) {
        const analyze::AnalysisReport report = lane.call(
            kCensus, [&] { return analyzer_.analyze(policies_[k]); });
        verdicts += report.findings.size();
        for (const analyze::ChannelFinding& f : report.findings) {
          digest = (digest ^ static_cast<std::uint64_t>(f.verdict)) *
                   0x100000001b3ULL;
        }
      }
    });
  }
  // The two sweeps are segments of the pass, not ticks.
  analyze::ReachReport reach;
  lane_tick(ep, lane, tick++, false, [&] {
    reach = lane.call(kReach, [&] { return reach_.check_shipped(); });
  });
  if (!reach.clean() || reach.policies != analyze::policy_space_size()) {
    lane.fail();
  }
  analyze::LatticeSweep sweep;
  lane_tick(ep, lane, tick++, false, [&] {
    sweep = lane.call(kPaths, [&] { return paths_.sweep(); });
  });
  if (sweep.hardened_escalation_paths != 0 ||
      sweep.policies != analyze::policy_space_size()) {
    lane.fail();
  }
  ep.wall = now_ns() - start;

  if (verdict_digest_ == 0) verdict_digest_ = digest;
  if (digest != verdict_digest_) lane.fail();
  ep.decisions = verdicts;
  ep.digest = digest;

  std::size_t classes = 0;
  for (const analyze::MachineStats& m : reach.machines) {
    classes += m.signature_classes;
  }
  ep.count("analyze.reach_signature_classes", static_cast<double>(classes));
  ep.count("analyze.path_classes",
           static_cast<double>(sweep.behaviour_classes));
}

}  // namespace

std::unique_ptr<Workload> make_lint_gate(bool smoke) {
  return std::make_unique<LintGate>(smoke);
}

}  // namespace heus::e2e
