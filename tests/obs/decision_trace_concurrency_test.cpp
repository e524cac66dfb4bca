// Concurrent recording into one obs::DecisionTrace from WorkerPool tasks,
// built into concurrency_test so the TSan job runs it. Counts land on
// per-thread stripes with relaxed atomic adds and no lock; only the
// enabled ring takes the trace's mutex. Neither path may lose a count,
// reuse a seq or tear a record.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "obs/decision.h"

namespace heus::obs {
namespace {

constexpr std::uint32_t kTasks = 8;
constexpr std::uint32_t kPerTask = 2000;
constexpr std::uint64_t kRecords = std::uint64_t{kTasks} * kPerTask;
constexpr std::uint32_t kSubjectBase = 1000;

// The generator: record i of task t is a pure function of (t, i), so the
// expected tally and every retained record's fields can be recomputed.
DecisionPoint point_of(std::uint32_t task, std::uint32_t i) {
  return kAllDecisionPoints[(task * 5 + i) % kAllDecisionPoints.size()];
}

Outcome outcome_of(std::uint32_t task, std::uint32_t i) {
  return (task + i) % 3 == 0 ? Outcome::deny : Outcome::allow;
}

void append_label(std::string& out, DecisionPoint point, Outcome outcome,
                  Uid subject, Uid owner) {
  out += to_string(point);
  out += ' ';
  out += to_string(outcome);
  out += " by ";
  append_uint(out, subject.value());
  out += " on ";
  append_uint(out, owner.value());
}

void record_task(DecisionTrace& trace, std::uint32_t task) {
  for (std::uint32_t i = 0; i < kPerTask; ++i) {
    const DecisionPoint point = point_of(task, i);
    const Outcome outcome = outcome_of(task, i);
    const Uid subject{kSubjectBase + task};
    const Uid owner{i};
    trace.record(point, outcome, subject, Gid{task}, owner, std::nullopt,
                 outcome == Outcome::deny ? knob::ubf : nullptr,
                 [&](std::string& out) {
                   append_label(out, point, outcome, subject, owner);
                 });
  }
}

void record_concurrently(DecisionTrace& trace) {
  common::WorkerPool pool(4);
  for (std::uint32_t t = 0; t < kTasks; ++t) {
    pool.submit([&trace, t] { record_task(trace, t); });
  }
  pool.wait_idle();
  ASSERT_EQ(pool.failed_tasks(), 0u);
}

DecisionTrace::CountersArray tally() {
  DecisionTrace::CountersArray want{};
  for (std::uint32_t t = 0; t < kTasks; ++t) {
    for (std::uint32_t i = 0; i < kPerTask; ++i) {
      PointCounters& c = want[point_index(point_of(t, i))];
      ++(outcome_of(t, i) == Outcome::allow ? c.allowed : c.denied);
    }
  }
  return want;
}

void expect_counters(const DecisionTrace& trace, std::uint64_t rounds) {
  const DecisionTrace::CountersArray want = tally();
  for (const DecisionPoint p : kAllDecisionPoints) {
    const PointCounters c = trace.counters(p);
    EXPECT_EQ(c.allowed, rounds * want[point_index(p)].allowed)
        << to_string(p);
    EXPECT_EQ(c.denied, rounds * want[point_index(p)].denied)
        << to_string(p);
  }
  EXPECT_EQ(trace.total(), rounds * kRecords);
}

TEST(DecisionTraceConcurrency, StripedCountsAndTheLockedRingLoseNothing) {
  DecisionTrace trace;

  // Disabled: every verdict is counted, nothing is retained.
  record_concurrently(trace);
  expect_counters(trace, 1);
  EXPECT_EQ(trace.size(), 0u);

  // Enabled with a small ring: the same mix again from the same pool size.
  constexpr std::size_t kCapacity = 64;
  trace.set_capacity(kCapacity);
  trace.set_enabled(true);
  record_concurrently(trace);
  expect_counters(trace, 2);
  EXPECT_EQ(trace.size(), std::min<std::uint64_t>(kCapacity, kRecords));
  EXPECT_EQ(trace.overwritten(), kRecords - kCapacity);

  std::vector<std::uint64_t> seqs;
  for (const Decision& d : trace.snapshot()) {
    seqs.push_back(d.seq);
    // Enabling started the ring's seq at the total counted while disabled.
    EXPECT_GE(d.seq, kRecords);
    EXPECT_LT(d.seq, trace.total());

    const std::uint32_t task = d.subject.value() - kSubjectBase;
    const std::uint32_t i = d.object_owner.value();
    ASSERT_LT(task, kTasks);
    ASSERT_LT(i, kPerTask);
    EXPECT_EQ(d.point, point_of(task, i));
    EXPECT_EQ(d.outcome, outcome_of(task, i));
    EXPECT_EQ(d.subject_gid, Gid{task});
    EXPECT_EQ(d.knob, d.outcome == Outcome::deny ? knob::ubf : nullptr);
    std::string label;
    append_label(label, d.point, d.outcome, d.subject, d.object_owner);
    EXPECT_EQ(d.object, label);
  }
  std::sort(seqs.begin(), seqs.end());
  EXPECT_EQ(std::adjacent_find(seqs.begin(), seqs.end()), seqs.end())
      << "retained seqs must be unique";
}

}  // namespace
}  // namespace heus::obs
