// Wall-clock instrumentation of core::ShardedEngine ticks, from outside.
//
// The engine's phases are timed at the boundaries the benchmark owns: the
// group-task bodies it installs, the cross-group closures it posts and the
// serial body. Each group task also reads its thread's CPU clock, so
// (wall − CPU) shows time a task spent blocked rather than running.
#pragma once

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "core/engine.h"
#include "harness.h"

namespace heus::e2e {

class EngineTicker {
 public:
  using GroupBody = std::function<void(std::uint32_t group, Recorder& lane)>;
  using CoordBody = std::function<void(Recorder& lane)>;

  /// `lanes` holds one recorder per group plus the coordinator's, last.
  EngineTicker(core::ShardedEngine& engine, std::vector<Recorder>& lanes,
               Episode& ep)
      : engine_(engine),
        lanes_(lanes),
        ep_(ep),
        clocks_(engine.groups()) {
    engine_.set_group_tick([this](std::uint32_t g, common::Rng&) {
      GroupClock& gc = clocks_[g];
      Recorder& lane = lanes_[g];
      gc.start = now_ns();
      const std::int64_t cpu0 = thread_cpu_ns();
      const std::uint32_t span =
          lane.open(Frame::group_task, span_id(kTickLane, tick_), gc.start);
      if (group_body_) group_body_(g, lane);
      gc.end = now_ns();
      gc.cpu = thread_cpu_ns() - cpu0;
      lane.close(span, gc.end);
    });
    engine_.set_serial_tick([this] {
      Recorder& lane = coordinator();
      serial_start_ = now_ns();
      const std::uint32_t span =
          lane.open(Frame::serial, span_id(kTickLane, tick_), serial_start_);
      if (serial_body_) serial_body_(lane);
      serial_end_ = now_ns();
      lane.close(span, serial_end_);
    });
  }

  // The engine keeps the callbacks, which point at this ticker.
  ~EngineTicker() {
    engine_.set_group_tick({});
    engine_.set_serial_tick({});
  }
  EngineTicker(const EngineTicker&) = delete;
  EngineTicker& operator=(const EngineTicker&) = delete;

  void set_group_body(GroupBody b) { group_body_ = std::move(b); }
  void set_serial_body(CoordBody b) { serial_body_ = std::move(b); }
  [[nodiscard]] Recorder& coordinator() { return lanes_.back(); }

  /// Queue a cross-group operation from group `g`'s task; it runs on the
  /// coordinator at the barrier, recorded on the coordinator's lane.
  void post_cross(std::uint32_t g, CoordBody op) {
    engine_.post_cross(g, [this, op = std::move(op)] {
      Recorder& lane = coordinator();
      const std::int64_t t = now_ns();
      if (drain_start_ == 0) drain_start_ = t;
      const std::uint32_t span =
          lane.open(Frame::cross_drain, span_id(kTickLane, tick_), t);
      op(lane);
      lane.close(span, now_ns());
    });
  }

  /// One engine tick, timed. Returns false if a group task threw — the
  /// engine's own check is an assert, which release builds compile out.
  bool tick(std::uint32_t t) {
    tick_ = t;
    for (Recorder& lane : lanes_) lane.set_tick(t);
    drain_start_ = 0;
    const std::uint64_t failed_before = engine_.pool().failed_tasks();
    TickStat st;
    st.start = now_ns();
    engine_.tick();
    st.wall = now_ns() - st.start;
    for (Recorder& lane : lanes_) lane.end_tick();

    std::int64_t first = INT64_MAX;
    std::int64_t last = INT64_MIN;
    double sum = 0;
    double sq = 0;
    for (const GroupClock& gc : clocks_) {
      first = std::min(first, gc.start);
      last = std::max(last, gc.end);
      const std::int64_t w = gc.end - gc.start;
      st.group_wall_sum += w;
      st.group_cpu_sum += gc.cpu;
      sum += static_cast<double>(w);
      sq += static_cast<double>(w) * static_cast<double>(w);
    }
    const double n = static_cast<double>(clocks_.size());
    const double mean = sum / n;
    st.group_cv =
        mean > 0 ? std::sqrt(std::max(0.0, sq / n - mean * mean)) / mean : 0;
    st.parallel = last - first;
    st.serial = serial_end_ - serial_start_;
    st.drain = drain_start_ != 0 ? serial_start_ - drain_start_ : 0;
    ep_.ticks.push_back(st);
    return engine_.pool().failed_tasks() == failed_before;
  }

 private:
  struct GroupClock {
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::int64_t cpu = 0;
  };

  core::ShardedEngine& engine_;
  std::vector<Recorder>& lanes_;
  Episode& ep_;
  std::vector<GroupClock> clocks_;  ///< slot g written only by group g
  GroupBody group_body_;
  CoordBody serial_body_;
  std::uint32_t tick_ = 0;
  std::int64_t drain_start_ = 0;
  std::int64_t serial_start_ = 0;
  std::int64_t serial_end_ = 0;
};

}  // namespace heus::e2e
