// heus_e2e measurement harness: wall-clock timing, input generators,
// latency samples, span recording and the fixed result schema.
//
// Everything that decides the benchmark's inputs or how a number is
// measured lives in bench/e2e, so edits elsewhere in the repository cannot
// move the baseline. The library under test (src/) stays free of wall-clock
// code: every timestamp below is taken on the benchmark side, around calls
// into heus's public API.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

namespace heus::common {
class WorkerPool;
}

namespace heus::e2e {

// ---- clocks ------------------------------------------------------------

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time consumed by the calling thread; wall minus this is time spent
/// blocked (lock waits, preemption).
[[nodiscard]] inline std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// CPU time consumed by every thread of the process.
[[nodiscard]] inline std::int64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// ---- machine speed -------------------------------------------------------

/// How fast the machine runs at the moment, read from fixed work of the
/// benchmark's own that no change to heus can alter: a dependent xorshift
/// chain plus a pointer chase through a 256 KiB random cycle, about 3.5 ms.
///
/// On a shared host other tenants slow every program by a factor that
/// drifts over minutes, by up to 1.6x on this benchmark's 4-vCPU machine,
/// which no run length averages out. The probe is read between set-up
/// repeats and between episodes, and every time the benchmark reports is
/// scaled by kRefNs over the median reading beside it: the time the work
/// would have taken with the machine at its reference speed.
///
/// The probe runs on as many threads at once as the work it stands beside
/// (`width`: 1, or the engine's worker count on a pool of its own) and a
/// reading is its slowest thread, because an engine tick waits for its
/// slowest worker. heus is idle while the probe runs; a reading during
/// which other threads of the process used CPU is dropped as contaminated,
/// since it would credit heus's own load to the machine.
class SpeedProbe {
 public:
  /// Median reading on the reference machine (4-vCPU Xeon VM, calm).
  static constexpr double kRefNs = 3.5e6;

  explicit SpeedProbe(unsigned width);
  ~SpeedProbe();
  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;

  /// Run the probe once and keep the reading unless it is contaminated.
  void read();
  /// kRefNs over the median kept reading since the last call (1 with none);
  /// clears the readings.
  double take_scale();
  /// Readings taken, and those dropped because other threads of the
  /// process used CPU meanwhile.
  [[nodiscard]] std::uint64_t reads() const { return reads_; }
  [[nodiscard]] std::uint64_t contaminated() const { return contaminated_; }

 private:
  /// One thread's share of the probe: its own chase buffer and results.
  struct Lane {
    std::vector<std::uint32_t> next;  ///< one random cycle over 256 KiB
    std::uint32_t at = 0;
    std::uint64_t mix = 1;
    std::int64_t wall_ns = 0;  ///< last run
    std::int64_t cpu_ns = 0;   ///< last run, this thread's CPU time
  };
  static void run(Lane& lane);

  std::vector<Lane> lanes_;
  std::unique_ptr<common::WorkerPool> pool_;  ///< width > 1 only
  std::vector<double> readings_;
  std::uint64_t reads_ = 0;
  std::uint64_t contaminated_ = 0;
};

// ---- input generators --------------------------------------------------

/// xoshiro256** seeded through splitmix64. The benchmark's own generator,
/// so a change to heus's common::Rng cannot change the inputs.
class Gen {
 public:
  explicit Gen(std::uint64_t seed);
  /// Independent stream `stream` of base seed `seed`.
  Gen(std::uint64_t seed, std::uint64_t stream);

  std::uint64_t next();
  /// Uniform in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * n) >> 64);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  bool chance(double p) { return uniform() < p; }

 private:
  std::uint64_t s_[4];
};

/// Zipf(s) over ranks [0, n): rank 0 is the most popular.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t draw(Gen& g) const;

 private:
  std::vector<double> cdf_;
};

/// Bounded Pareto burst size: shape 1.5, untruncated mean `mean`, capped
/// at 8x the mean, at least 1. Bursts of this shape make straggler groups.
std::uint32_t pareto_burst(Gen& g, double mean);

// ---- operation kinds and layers ----------------------------------------

/// The src/ modules a timed call lands in. `core` covers the engine and
/// core::Cluster entry points.
enum class Layer : std::uint8_t {
  core, net, simos, vfs, sched, portal, gpu, container, analyze, kCount
};
inline constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);
[[nodiscard]] const char* layer_name(Layer l);

struct OpKind {
  const char* name;  ///< "net.connect", "vfs.read", ...
  Layer layer;
};

// ---- per-lane recording ------------------------------------------------

/// Structural span names; op-kind spans use the kind index.
enum class Frame : std::uint16_t {
  tick = 0x8000, group_task, cross_drain, serial,
};

struct Span {
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::uint32_t parent = 0;  ///< span id of the parent, 0 = none
  std::uint32_t tick = 0;
  std::uint16_t name = 0;    ///< op kind index or a Frame value
  std::uint16_t lane = 0;
};

/// One execution lane: an engine group's tasks or the coordinator. A lane
/// is used by one thread at a time (a group's task runs on one worker per
/// tick), so nothing here is synchronised.
class Recorder {
 public:
  void init(std::size_t kinds, std::uint16_t lane, std::size_t span_cap);
  void set_tracing(bool on) { tracing_ = on; }
  void set_tick(std::uint32_t t) { tick_ = t; }

  /// Time one public call and keep its latency sample.
  template <typename F>
  decltype(auto) call(std::size_t kind, F&& f) {
    const std::int64_t t0 = now_ns();
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      note(kind, t0, now_ns());
    } else {
      decltype(auto) r = f();
      note(kind, t0, now_ns());
      return r;
    }
  }

  /// End the current tick: the calls since the previous end belong to it.
  /// Every timed call happens inside a tick.
  void end_tick() { tick_ends_.push_back(ns_.size()); }

  /// Open/close a structural span (no-ops unless tracing).
  std::uint32_t open(Frame f, std::uint32_t parent, std::int64_t start);
  void close(std::uint32_t id, std::int64_t end);
  /// Parent of the next call spans when no structural span is open.
  void set_parent(std::uint32_t id) { current_ = id; }

  /// An oracle violation on this lane.
  void fail() { ++failed_; }

  /// Latency of every timed call, in call order, and its op kind.
  [[nodiscard]] const std::vector<std::uint32_t>& samples() const {
    return ns_;
  }
  [[nodiscard]] const std::vector<std::uint8_t>& sample_kinds() const {
    return kinds_;
  }
  /// samples().size() at the end of each tick so far.
  [[nodiscard]] const std::vector<std::size_t>& tick_ends() const {
    return tick_ends_;
  }
  [[nodiscard]] std::uint64_t calls() const { return ns_.size(); }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Σ duration of timed calls per op kind (traced lanes only).
  [[nodiscard]] const std::vector<std::int64_t>& kind_ns() const {
    return kind_ns_;
  }

  /// Make room for `calls` samples and `ticks` ticks in all, so the buffers
  /// do not regrow (and copy) in the middle of a measured episode.
  void reserve(std::size_t calls, std::size_t ticks);

 private:
  void note(std::size_t kind, std::int64_t t0, std::int64_t t1);

  std::vector<std::uint32_t> ns_;
  std::vector<std::uint8_t> kinds_;
  std::vector<std::size_t> tick_ends_;
  std::vector<std::int64_t> kind_ns_;
  std::vector<Span> spans_;
  std::size_t span_cap_ = 0;
  std::uint64_t failed_ = 0;
  std::uint32_t current_ = 0;
  std::uint32_t tick_ = 0;
  std::uint16_t lane_ = 0;
  bool tracing_ = false;
};

/// Globally unique span id: lane in the top bits, 1-based index below.
[[nodiscard]] inline std::uint32_t span_id(std::uint16_t lane,
                                           std::size_t index) {
  return (static_cast<std::uint32_t>(lane) << 22) |
         static_cast<std::uint32_t>(index + 1);
}

/// Tick spans live on their own pseudo-lane: span_id(kTickLane, tick).
inline constexpr std::uint16_t kTickLane = 0x3ff;

/// Wall-clock shape of one tick (engine workloads fill every field;
/// single-threaded workloads only `wall`).
struct TickStat {
  std::int64_t start = 0;          ///< steady-clock ns at tick start
  std::int64_t wall = 0;           ///< whole tick
  std::int64_t parallel = 0;       ///< first group start to last group end
  std::int64_t drain = 0;          ///< cross-group drain phase
  std::int64_t serial = 0;         ///< serial phase
  std::int64_t group_wall_sum = 0; ///< Σ group task wall
  std::int64_t group_cpu_sum = 0;  ///< Σ group task thread-CPU
  double group_cv = 0;             ///< stddev/mean of group task walls
  /// False for a segment of the pass that is replayed like a tick but is
  /// not one (lint_gate's two lattice sweeps): it stays out of tick
  /// quantiles.
  bool tick = true;
};

// ---- episode context ---------------------------------------------------

/// What one episode (a fixed op stream replayed on fresh state) records.
struct Episode {
  std::size_t stream = 0;       ///< which of the workload's op streams
  unsigned workers = 3;         ///< WorkerPool size for engine workloads
  bool detach_trace = false;    ///< run with the DecisionTrace detached
  std::size_t ring = 0;         ///< DecisionTrace ring; 0 = ring off
  std::vector<Recorder>* lanes = nullptr;
  std::vector<TickStat> ticks;
  std::int64_t wall = 0;        ///< measured wall of the episode
  std::uint64_t decisions = 0;  ///< verdicts rendered (trace counter delta)
  std::uint64_t digest = 0;     ///< behaviour digest (replay comparison)
  /// Layer counters summed over a phase's episodes and reported as
  /// per-episode means (names as in BENCHMARK.json).
  std::map<std::string, double>* counters = nullptr;
  /// Per-tick or per-episode layer samples; each reports as its median.
  std::map<std::string, std::vector<double>>* series = nullptr;
  void count(const std::string& name, double v) { (*counters)[name] += v; }
  void sample(const std::string& name, double v) {
    (*series)[name].push_back(v);
  }
};

/// One tick of a single-lane workload: `body` runs as tick `t` of the
/// episode, timed and closed on `lane`.
template <typename F>
void lane_tick(Episode& ep, Recorder& lane, std::uint32_t t, bool tick,
               F&& body) {
  lane.set_tick(t);
  lane.set_parent(span_id(kTickLane, t));
  TickStat st;
  st.tick = tick;
  st.start = now_ns();
  body();
  st.wall = now_ns() - st.start;
  lane.end_tick();
  ep.ticks.push_back(st);
}

/// A workload: a deterministic op stream generated from the seed it was
/// made with, the state it runs against, and its oracle.
class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual std::span<const OpKind> kinds() const = 0;
  /// Lanes the workload records on (engine groups + coordinator, or 1).
  [[nodiscard]] virtual std::size_t lanes() const = 0;
  /// True when the workload runs on the sharded engine.
  [[nodiscard]] virtual bool engine() const = 0;
  /// Episodes in the measured phase. Fixed per workload, so a run does the
  /// same work on every commit.
  [[nodiscard]] virtual std::size_t episodes() const = 0;
  /// Independent op streams drawn from the seed; episode e replays stream
  /// e % streams(). A tick-time tail over one short stream is set by that
  /// seed's few heaviest bursts; more streams give it more distinct ticks.
  [[nodiscard]] virtual std::size_t streams() const { return 1; }
  /// Draw every op stream (timed as bench.gen_s).
  virtual void generate() = 0;
  /// Build state from scratch: what a user pays before the first op.
  virtual void setup() = 0;
  /// Rebuild per-episode state (untimed) so the next episode starts from
  /// exactly the state the first one saw.
  virtual void reset() = 0;
  /// Replay op stream `ep.stream` once, checking every outcome.
  virtual void run(Episode& ep) = 0;
  /// False when the workload renders no runtime decisions (no trace to
  /// detach).
  [[nodiscard]] virtual bool records_decisions() const { return true; }
  /// DecisionTrace ring while measuring; 0 keeps the trace attached but
  /// disabled (counters only), which is how core::Cluster ships it.
  [[nodiscard]] virtual std::size_t ring() const { return 65536; }
  /// Oracle violations in set-up and resets (counted as failed operations).
  [[nodiscard]] virtual std::uint64_t setup_failures() const { return 0; }
  /// Derive ratio metrics from the per-episode counters.
  virtual void finish(std::map<std::string, double>& counters) const {
    (void)counters;
  }
};

// ---- statistics ----------------------------------------------------------

/// The q-quantile (q in [0, 1]) of `v`, as the mean of the samples between
/// quantiles q - 0.005 and q + 0.005; reorders `v`. Averaging 1% of the
/// samples around q keeps the estimate from snapping to whole nanoseconds
/// and makes it repeat better than a single order statistic.
[[nodiscard]] double quantile(std::vector<std::uint32_t>& v, double q);
[[nodiscard]] double median(std::vector<double> v);
/// a / b, or 0 when b is 0 (a layer the workload never reaches).
[[nodiscard]] inline double ratio(double a, double b) {
  return b > 0 ? a / b : 0.0;
}
[[nodiscard]] double peak_rss_mb();

}  // namespace heus::e2e
