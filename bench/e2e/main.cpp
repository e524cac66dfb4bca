// heus_e2e: wall-clock end-to-end benchmark of heus over five workloads.
//
//   heus_e2e --workload=<name> --seed=<n> [--seconds=S] [--json=PATH]
//   heus_e2e --workload=<name> --seed=<n> --trace=PATH   (per-layer run)
//   add --smoke for reduced sizes
//
// A run sets the workload's state up (repeatedly while that is cheap;
// setup_s is the median), generates its op streams from the seed, then
// replays them in a fixed number of episodes, each on fresh state, so every
// replay of a stream does identical work; with --seconds the measured phase
// stops early if it runs past 1.2 S. Reported times are scaled to the
// machine's reference speed (see SpeedProbe). The last line of stdout is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. The
// measured run reports the end-to-end metrics; the traced run (--trace)
// reports the per-layer metrics, prints the per-layer table and writes the
// spans as Chrome trace-event JSON to PATH. Exit status 1 means an
// operation disagreed with the workload's oracle or heus's own threads
// spoiled most speed-probe readings.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace heus::e2e {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  std::string json_path;
  std::string trace_path;
  double seconds = 0;  ///< nominal measured time; 0 = no cap
  bool smoke = false;
};

struct Metric {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json exactly (bench/e2e/repeat.py checks both ways).
constexpr Metric kEndToEnd[] = {
    {"ops_per_s", "ops/s"},      {"decisions_per_s", "decisions/s"},
    {"op_p50_us", "us"},         {"op_p99_us", "us"},
    {"tick_p99_ms", "ms"},       {"pass_s", "s"},
    {"setup_s", "s"},            {"peak_rss_mb", "MiB"},
};

// A name "<op kind>_us_pNN" is that op's latency quantile and
// "<op kind>_ms" its median; counts are per episode.
constexpr Metric kPerLayer[] = {
    {"core.tick_ms_p50", "ms"},
    {"core.parallel_ms_p50", "ms"},
    {"core.cross_drain_ms_p50", "ms"},
    {"core.serial_ms_p50", "ms"},
    {"core.barrier_idle_share", "ratio"},
    {"core.group_busy_cv", "ratio"},
    {"core.blocked_share", "ratio"},
    {"core.measured_speedup", "x"},
    {"core.modeled_speedup", "x"},
    {"core.login_us_p50", "us"},
    {"core.ssh_us_p50", "us"},
    {"core.self_share", "ratio"},
    {"core.calls", "count"},
    {"net.connect_us_p50", "us"},
    {"net.connect_us_p99", "us"},
    {"net.send_us_p50", "us"},
    {"net.close_us_p50", "us"},
    {"net.gc_bucket_us_p50", "us"},
    {"net.reset_host_us_p50", "us"},
    {"net.gc_touched_per_run", "count"},
    {"net.established_ratio", "ratio"},
    {"net.flows_live_p50", "count"},
    {"net.identity_resets", "count"},
    {"net.self_share", "ratio"},
    {"net.calls", "count"},
    {"net.ubf.cache_hit_ratio", "ratio"},
    {"net.ubf.invalidations", "count"},
    {"net.ubf.decisions", "count"},
    {"obs.decisions_total", "count"},
    {"obs.overwritten", "count"},
    {"obs.record_cost_share", "ratio"},
    {"sched.submit_us_p50", "us"},
    {"sched.step_us_p50", "us"},
    {"sched.step_us_p99", "us"},
    {"sched.list_jobs_us_p50", "us"},
    {"sched.list_jobs_us_p99", "us"},
    {"sched.job_info_us_p50", "us"},
    {"sched.accounting_us_p50", "us"},
    {"sched.placement_success_ratio", "ratio"},
    {"sched.nodes_examined_per_attempt", "count"},
    {"sched.pending_p50", "count"},
    {"sched.self_share", "ratio"},
    {"sched.calls", "count"},
    {"simos.pam_authorize_us_p50", "us"},
    {"simos.procfs_list_us_p50", "us"},
    {"simos.procfs_stat_us_p50", "us"},
    {"simos.add_member_us_p50", "us"},
    {"simos.self_share", "ratio"},
    {"simos.calls", "count"},
    {"vfs.read_us_p50", "us"},
    {"vfs.write_us_p50", "us"},
    {"vfs.chmod_us_p50", "us"},
    {"vfs.acl_set_us_p50", "us"},
    {"vfs.deny_ratio", "ratio"},
    {"vfs.self_share", "ratio"},
    {"vfs.calls", "count"},
    {"portal.request_us_p50", "us"},
    {"portal.self_share", "ratio"},
    {"portal.calls", "count"},
    {"gpu.open_device_us_p50", "us"},
    {"gpu.scrub_decisions", "count"},
    {"gpu.self_share", "ratio"},
    {"gpu.calls", "count"},
    {"container.exec_us_p50", "us"},
    {"container.self_share", "ratio"},
    {"container.calls", "count"},
    {"lifecycle.fired_total", "count"},
    {"lifecycle.illegal_events", "count"},
    {"analyze.census_us_p50", "us"},
    {"analyze.census_us_p99", "us"},
    {"analyze.reach_sweep_ms", "ms"},
    {"analyze.path_sweep_ms", "ms"},
    {"analyze.reach_signature_classes", "count"},
    {"analyze.path_classes", "count"},
    {"analyze.self_share", "ratio"},
    {"analyze.calls", "count"},
    {"bench.gen_s", "s"},
    {"bench.timer_overhead_ns", "ns"},
    {"bench.unattributed_share", "ratio"},
    {"bench.trace_overhead", "ratio"},
    {"bench.spans_recorded", "count"},
};

constexpr unsigned kWorkers = 3;  ///< 4-core box: 3 workers + coordinator
constexpr std::size_t kSpanBudget = 120000;  ///< spans kept for the trace file
constexpr std::size_t kMaxReplayRing = std::size_t{1} << 20;
// Set-up repeats, each on a fresh workload, until kSetupBudgetS seconds are
// spent: a millisecond set-up read once varies by a third from run to run,
// a set-up of seconds is steady enough read once.
constexpr double kSetupBudgetS = 1.0;
constexpr std::size_t kMaxSetups = 25;
// Speed-probe readings before the first set-up and after the last, beside
// one after every set-up: a single set-up of seconds is scaled by several
// readings around it, not by one.
constexpr int kSetupProbeReads = 3;
// The episode count is fixed per workload and sized to --seconds on a
// 4-vCPU machine. On a machine so slow that the measured phase runs past
// kCapFactor times --seconds, it stops early (after kMinEpisodes), so a
// slow stretch cannot stretch a run without bound.
constexpr double kCapFactor = 1.2;
constexpr std::size_t kMinEpisodes = 2;

int usage() {
  std::fprintf(stderr,
               "usage: heus_e2e --workload=<conn_churn|conn_revoke|job_storm|"
               "user_day|lint_gate> --seed=<n> [--seconds=S] [--json=PATH] "
               "[--trace=PATH] [--smoke]\n");
  return 2;
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--smoke") {
      o.smoke = true;
      continue;
    }
    std::string value;
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (arg == "--json") {
      o.json_path = value;
    } else if (arg == "--trace") {
      o.trace_path = value;
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || o.seconds < 0) return false;
    } else {
      return false;
    }
  }
  return !o.workload.empty();
}

std::unique_ptr<Workload> make(const Options& o) {
  if (o.workload == "conn_churn") return make_conn(false, o.smoke, o.seed);
  if (o.workload == "conn_revoke") return make_conn(true, o.smoke, o.seed);
  if (o.workload == "job_storm") return make_job_storm(o.smoke, o.seed);
  if (o.workload == "user_day") return make_user_day(o.smoke, o.seed);
  if (o.workload == "lint_gate") return make_lint_gate(o.smoke);
  return nullptr;
}

/// Cost of one timed-call bracket around an empty call.
double timer_overhead_ns() {
  Recorder r;
  r.init(1, 0, 0);
  constexpr int kN = 200'000;
  r.reserve(kN, 0);
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kN; ++i) r.call(0, [i] { return i; });
  return static_cast<double>(now_ns() - t0) / kN;
}

/// Quantile of one tick field, in ms.
template <typename Field>
double tick_quantile_ms(const std::vector<TickStat>& ticks, double q,
                        Field field) {
  std::vector<std::uint32_t> ns;
  ns.reserve(ticks.size());
  for (const TickStat& t : ticks) {
    ns.push_back(static_cast<std::uint32_t>(
        std::clamp<std::int64_t>(field(t), 0, UINT32_MAX)));
  }
  return quantile(ns, q) / 1e6;
}

struct EpisodeSpec {
  std::size_t stream = 0;
  unsigned workers = kWorkers;
  bool spans = false;   ///< record spans
  bool detach = false;  ///< run with the DecisionTrace detached
  std::size_t ring = 0;
};

/// Episodes of one kind, accumulated.
struct Phase {
  std::vector<Recorder> lanes;
  std::vector<TickStat> ticks;  ///< every episode's, in order
  std::map<std::string, double> counters;
  std::map<std::string, std::vector<double>> series;
  std::vector<std::int64_t> episode_walls;
  std::vector<std::size_t> episode_streams;
  std::vector<std::uint64_t> episode_decisions;

  [[nodiscard]] std::uint64_t calls() const {
    std::uint64_t n = 0;
    for (const Recorder& r : lanes) n += r.calls();
    return n;
  }
  [[nodiscard]] std::uint64_t failed() const {
    std::uint64_t n = 0;
    for (const Recorder& r : lanes) n += r.failed();
    return n;
  }
  [[nodiscard]] double episodes() const {
    return static_cast<double>(episode_walls.size());
  }
  [[nodiscard]] std::int64_t wall() const {
    std::int64_t n = 0;
    for (const std::int64_t w : episode_walls) n += w;
    return n;
  }
};

class Runner {
 public:
  explicit Runner(Workload& w) : w_(w) {}

  /// Fresh lanes for `episodes` episodes; `sized_by` (one episode already
  /// run) sizes their buffers.
  void init_lanes(Phase& ph, bool spans, const Phase* sized_by = nullptr,
                  std::size_t episodes = 0) const {
    ph.lanes.assign(w_.lanes(), Recorder{});
    const std::size_t cap = spans ? kSpanBudget / w_.lanes() : 0;
    for (std::size_t i = 0; i < ph.lanes.size(); ++i) {
      Recorder& r = ph.lanes[i];
      r.init(w_.kinds().size(), static_cast<std::uint16_t>(i), cap);
      if (sized_by != nullptr) {
        const Recorder& one = sized_by->lanes[i];
        r.reserve(one.calls() * episodes, one.tick_ends().size() * episodes);
      }
    }
  }

  /// One episode on fresh state, folded into `ph`.
  Episode episode(Phase& ph, const EpisodeSpec& spec) {
    if (dirty_) {
      const std::int64_t t = now_ns();
      w_.reset();
      reset_ns_ += now_ns() - t;
    }
    dirty_ = true;
    Episode ep;
    ep.stream = spec.stream;
    ep.workers = spec.workers;
    ep.detach_trace = spec.detach;
    ep.ring = spec.ring;
    ep.lanes = &ph.lanes;
    ep.counters = &ph.counters;
    ep.series = &ph.series;
    for (Recorder& r : ph.lanes) r.set_tracing(spec.spans);
    w_.run(ep);
    ph.episode_walls.push_back(ep.wall);
    ph.episode_streams.push_back(spec.stream);
    ph.episode_decisions.push_back(ep.decisions);
    ph.ticks.insert(ph.ticks.end(), ep.ticks.begin(), ep.ticks.end());
    return ep;
  }

  /// Counters as per-episode means, then the workload's ratios over them.
  void finish(Phase& ph) const {
    for (auto& [name, value] : ph.counters) value /= ph.episodes();
    w_.finish(ph.counters);
  }

  [[nodiscard]] double reset_s() const {
    return static_cast<double>(reset_ns_) / 1e9;
  }

 private:
  Workload& w_;
  bool dirty_ = false;  ///< the state was used since set-up or reset
  std::int64_t reset_ns_ = 0;
};

/// The fastest replay of every tick of every stream over a phase's
/// episodes. Each episode replays one op stream from the same starting
/// state, so tick t of a stream does the same work in every episode that
/// replays it. Other tenants of the machine can only slow a replay down,
/// and they come and go over seconds, so the fastest of a tick's replays is
/// the steadiest reading of what that tick costs.
struct BestReplay {
  std::int64_t wall_ns = 0;            ///< Σ over every stream's segments
  std::size_t streams = 0;             ///< distinct streams replayed
  std::uint64_t decisions = 0;         ///< one replay of each stream
  std::vector<std::uint32_t> tick_ns;  ///< per tick
  std::vector<std::uint32_t> samples;  ///< latencies of the chosen replays

  /// Wall time of one pass over one stream, averaged over the streams.
  [[nodiscard]] double pass_s() const {
    return static_cast<double>(wall_ns) / 1e9 / static_cast<double>(streams);
  }
};

BestReplay best_replay(const Phase& ph) {
  BestReplay b;
  const std::size_t per = ph.ticks.size() / ph.episode_walls.size();
  // Episodes by stream, in the order they ran.
  std::map<std::size_t, std::vector<std::size_t>> by_stream;
  for (std::size_t e = 0; e < ph.episode_streams.size(); ++e) {
    by_stream[ph.episode_streams[e]].push_back(e);
  }
  b.streams = by_stream.size();
  for (const auto& [stream, eps] : by_stream) {
    b.decisions += ph.episode_decisions[eps.front()];
    for (std::size_t t = 0; t < per; ++t) {
      std::size_t best = eps.front() * per + t;
      for (const std::size_t e : eps) {
        const std::size_t k = e * per + t;
        if (ph.ticks[k].wall < ph.ticks[best].wall) best = k;
      }
      const TickStat& st = ph.ticks[best];
      b.wall_ns += st.wall;
      if (st.tick) {
        b.tick_ns.push_back(static_cast<std::uint32_t>(
            std::min<std::int64_t>(st.wall, UINT32_MAX)));
      }
      for (const Recorder& r : ph.lanes) {
        const auto lo = static_cast<std::ptrdiff_t>(
            best == 0 ? 0 : r.tick_ends()[best - 1]);
        const auto hi = static_cast<std::ptrdiff_t>(r.tick_ends()[best]);
        b.samples.insert(b.samples.end(), r.samples().begin() + lo,
                         r.samples().begin() + hi);
      }
    }
  }
  return b;
}

std::vector<std::uint32_t> kind_samples(const Phase& ph, std::size_t kind) {
  std::vector<std::uint32_t> v;
  for (const Recorder& r : ph.lanes) {
    for (std::size_t i = 0; i < r.samples().size(); ++i) {
      if (r.sample_kinds()[i] == kind) v.push_back(r.samples()[i]);
    }
  }
  return v;
}

void print_kind_table(const Workload& w, const Phase& ph) {
  std::printf("%-26s %12s %12s %12s\n", "op", "calls", "p50_us", "p99_us");
  for (std::size_t k = 0; k < w.kinds().size(); ++k) {
    std::vector<std::uint32_t> v = kind_samples(ph, k);
    if (v.empty()) continue;
    const std::size_t n = v.size();
    const double p50 = quantile(v, 0.50) / 1000.0;
    const double p99 = quantile(v, 0.99) / 1000.0;
    std::printf("%-26s %12zu %12.3f %12.3f\n", w.kinds()[k].name, n, p50, p99);
  }
}

void emit(const std::map<std::string, double>& values,
          std::span<const Metric> declared, bool correct,
          std::uint64_t attempted, std::uint64_t failed,
          const std::string& json_path) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : declared) {
    const auto it = values.find(m.name);
    const double v = it == values.end() ? 0.0 : it->second;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    out += first ? "" : ", ";
    out += "\"" + std::string(m.name) + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  if (!json_path.empty()) {
    if (FILE* f = std::fopen(json_path.c_str(), "w")) {
      std::fprintf(f, "%s\n", out.c_str());
      std::fclose(f);
    }
  }
}

/// One line per metric; `samples` adds the sample count behind a value.
void print_metrics(const std::map<std::string, double>& values,
                   std::span<const Metric> declared,
                   const std::map<std::string, std::uint64_t>& samples = {}) {
  for (const Metric& m : declared) {
    const auto it = values.find(m.name);
    std::printf("%-34s %18.6f %-12s", m.name,
                it == values.end() ? 0.0 : it->second, m.unit);
    const auto n = samples.find(m.name);
    if (n != samples.end()) {
      std::printf(" n=%llu", static_cast<unsigned long long>(n->second));
    }
    std::printf("\n");
  }
}

/// Worker threads an engine tick can keep busy.
double engine_workers(const Workload& w) {
  return std::min<double>(kWorkers, static_cast<double>(w.lanes() - 1));
}

/// Tick-shape metrics of the engine (from an untraced phase).
void core_metrics(const Workload& w, const Phase& ph,
                  std::map<std::string, double>& out) {
  out["core.tick_ms_p50"] = tick_quantile_ms(
      ph.ticks, 0.5, [](const TickStat& t) { return t.wall; });
  out["core.measured_speedup"] = 1.0;
  out["core.modeled_speedup"] = 1.0;
  if (!w.engine()) return;
  out["core.parallel_ms_p50"] = tick_quantile_ms(
      ph.ticks, 0.5, [](const TickStat& t) { return t.parallel; });
  out["core.cross_drain_ms_p50"] = tick_quantile_ms(
      ph.ticks, 0.5, [](const TickStat& t) { return t.drain; });
  out["core.serial_ms_p50"] = tick_quantile_ms(
      ph.ticks, 0.5, [](const TickStat& t) { return t.serial; });
  double slots = 0, busy = 0, cpu = 0;
  std::vector<double> cv;
  const double workers = engine_workers(w);
  for (const TickStat& t : ph.ticks) {
    slots += workers * static_cast<double>(t.parallel);
    busy += static_cast<double>(t.group_wall_sum);
    cpu += static_cast<double>(t.group_cpu_sum);
    cv.push_back(t.group_cv);
  }
  out["core.barrier_idle_share"] = ratio(slots - busy, slots);
  out["core.blocked_share"] = ratio(busy - cpu, busy);
  out["core.group_busy_cv"] = median(cv);
  const auto it = ph.counters.find("core.modeled_speedup");
  if (it != ph.counters.end()) out["core.modeled_speedup"] = it->second;
}

/// Per-op latency metrics: "<kind>_us_pNN" and "<kind>_ms" (median).
void op_metrics(const Workload& w, const Phase& ph,
                std::map<std::string, double>& out) {
  for (const Metric& m : kPerLayer) {
    const std::string name = m.name;
    std::string kind;
    double q = 0.5;
    double ns_per_unit = 1e3;
    if (const std::size_t p = name.rfind("_us_p"); p != std::string::npos) {
      kind = name.substr(0, p);
      q = std::strtod(name.c_str() + p + 5, nullptr) / 100.0;
    } else if (name.ends_with("_ms")) {
      kind = name.substr(0, name.size() - 3);
      ns_per_unit = 1e6;
    } else {
      continue;
    }
    for (std::size_t k = 0; k < w.kinds().size(); ++k) {
      if (kind != w.kinds()[k].name) continue;
      std::vector<std::uint32_t> v = kind_samples(ph, k);
      out[name] = quantile(v, q) / ns_per_unit;
    }
  }
}

/// Self time per layer over the traced phase. Timed calls are the leaves
/// of the span tree, so a call's self time is its duration. The
/// denominator is the thread time the workload held: the measured wall,
/// plus the extra worker slots of every engine tick's parallel phase.
/// Barrier idle and engine bookkeeping outside group tasks count as core;
/// what remains is bench-side code between calls.
void layer_shares(const Workload& w, const Phase& ph,
                  std::map<std::string, double>& out) {
  std::vector<double> layer_ns(kLayers, 0);
  std::vector<double> layer_calls(kLayers, 0);
  for (const Recorder& r : ph.lanes) {
    for (std::size_t k = 0; k < w.kinds().size(); ++k) {
      layer_ns[static_cast<std::size_t>(w.kinds()[k].layer)] +=
          static_cast<double>(r.kind_ns()[k]);
    }
    for (const std::uint8_t k : r.sample_kinds()) {
      layer_calls[static_cast<std::size_t>(w.kinds()[k].layer)] += 1;
    }
  }
  const double workers = engine_workers(w);
  double denom = static_cast<double>(ph.wall());
  double engine_ns = 0;
  if (w.engine()) {
    for (const TickStat& t : ph.ticks) {
      const double slots = workers * static_cast<double>(t.parallel);
      denom += slots - static_cast<double>(t.parallel);
      const std::int64_t outside = t.wall - t.parallel - t.drain - t.serial;
      engine_ns += slots - static_cast<double>(t.group_wall_sum) +
                   static_cast<double>(outside);
    }
  }
  double attributed = engine_ns;
  for (std::size_t l = 0; l < kLayers; ++l) {
    const std::string name = layer_name(static_cast<Layer>(l));
    attributed += layer_ns[l];
    const double self =
        layer_ns[l] + (static_cast<Layer>(l) == Layer::core ? engine_ns : 0);
    out[name + ".self_share"] = ratio(self, denom);
    out[name + ".calls"] = layer_calls[l] / ph.episodes();
  }
  out["bench.unattributed_share"] = denom > 0 ? 1.0 - attributed / denom : 0;
}

std::string span_name(const Workload& w, std::uint16_t name) {
  switch (static_cast<Frame>(name)) {
    case Frame::tick: return "tick";
    case Frame::group_task: return "group_task";
    case Frame::cross_drain: return "cross_drain";
    case Frame::serial: return "serial";
  }
  return name < w.kinds().size() ? w.kinds()[name].name : "?";
}

/// Chrome trace-event JSON (opens in Perfetto / chrome://tracing) of the
/// phase's first episode: tick span ids restart every episode.
bool write_trace(const std::string& path, const Workload& w, const Phase& ph,
                 const std::map<std::string, double>& metrics) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::size_t ticks = ph.ticks.size() / ph.episode_walls.size();
  const std::int64_t t0 = ph.ticks.empty() ? 0 : ph.ticks.front().start;
  const std::int64_t first_end =
      ticks == 0 ? t0 : ph.ticks[ticks - 1].start + ph.ticks[ticks - 1].wall;
  std::int64_t last = t0;
  for (const Recorder& r : ph.lanes) {
    for (const Span& s : r.spans()) {
      if (s.start <= first_end) last = std::max(last, s.end);
    }
  }
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  bool first = true;
  const auto event = [&](const std::string& name, std::int64_t start,
                         std::int64_t end, unsigned tid, std::uint32_t id,
                         std::uint32_t parent, std::uint32_t tick) {
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %u, \"parent\": %u, \"tick\": %u}}",
                 first ? "" : ",\n", name.c_str(), tid,
                 static_cast<double>(start - t0) / 1000.0,
                 static_cast<double>(end - start) / 1000.0, id, parent, tick);
    first = false;
  };
  for (std::size_t t = 0; t < ticks; ++t) {
    const TickStat& st = ph.ticks[t];
    if (st.start > last) break;  // beyond the spans kept
    event("tick", st.start, st.start + st.wall, kTickLane,
          span_id(kTickLane, t), 0, static_cast<std::uint32_t>(t));
  }
  for (const Recorder& r : ph.lanes) {
    for (std::size_t i = 0; i < r.spans().size(); ++i) {
      const Span& s = r.spans()[i];
      if (s.start > first_end) break;
      event(span_name(w, s.name), s.start, s.end, s.lane,
            span_id(s.lane, i), s.parent, s.tick);
    }
  }
  std::fprintf(f, "\n], \"metrics\": {");
  first = true;
  for (const auto& [name, value] : metrics) {
    std::fprintf(f, "%s\"%s\": %.17g", first ? "" : ", ", name.c_str(),
                 std::isfinite(value) ? value : 0.0);
    first = false;
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

/// A ring that holds every record of one episode, or 0 (counters only)
/// when that would exceed kMaxReplayRing.
std::size_t ring_for(std::uint64_t decisions) {
  std::size_t ring = 1;
  while (ring < decisions + 1) ring <<= 1;
  return ring <= kMaxReplayRing ? ring : 0;
}

int measured_run(const Options& o, Workload& w, Runner& runner,
                 const Phase& warm, const SpeedProbe& setup_probe,
                 std::map<std::string, double>& metrics,
                 std::map<std::string, std::uint64_t>& samples) {
  Phase ph;
  runner.init_lanes(ph, false, &warm, w.episodes());
  // The probe runs as wide as the episodes do (see SpeedProbe).
  SpeedProbe probe(w.engine() ? kWorkers : 1);
  probe.read();
  const std::int64_t start = now_ns();
  const auto cap_ns = static_cast<std::int64_t>(kCapFactor * o.seconds * 1e9);
  for (std::size_t e = 0; e < w.episodes(); ++e) {
    if (cap_ns > 0 && e >= std::max(kMinEpisodes, w.streams()) &&
        now_ns() - start > cap_ns) {
      break;
    }
    runner.episode(ph, {e % w.streams(), kWorkers, false, false, w.ring()});
    probe.read();
  }
  const double phase_s = static_cast<double>(now_ns() - start) / 1e9;
  const auto episodes = static_cast<std::size_t>(ph.episodes());
  const std::uint64_t attempted = ph.calls();
  // A probe reading during which other threads of the process used CPU is
  // dropped. Now and then one is (a stray wake-up); heus working while it
  // should be idle spoils most of them, and then no time can be scaled.
  const std::uint64_t dropped =
      setup_probe.contaminated() + probe.contaminated();
  const auto spoiled = [](const SpeedProbe& p) {
    return 2 * p.contaminated() > p.reads();
  };
  const bool unscalable = spoiled(setup_probe) || spoiled(probe);
  if (dropped != 0) {
    std::fprintf(stderr, "speed probe: dropped %llu of %llu readings (other "
                         "threads of the process used CPU)%s\n",
                 static_cast<unsigned long long>(dropped),
                 static_cast<unsigned long long>(setup_probe.reads() +
                                                 probe.reads()),
                 unscalable ? "; times cannot be scaled" : "");
  }
  const std::uint64_t failed =
      w.setup_failures() + ph.failed() + (unscalable ? 1 : 0);

  // Times at the machine's reference speed (see SpeedProbe).
  const double scale = probe.take_scale();
  BestReplay best = best_replay(ph);
  const double best_s = scale * static_cast<double>(best.wall_ns) / 1e9;
  metrics["ops_per_s"] = static_cast<double>(best.samples.size()) / best_s;
  metrics["decisions_per_s"] = static_cast<double>(best.decisions) / best_s;
  metrics["op_p50_us"] = scale * quantile(best.samples, 0.50) / 1000.0;
  metrics["op_p99_us"] = scale * quantile(best.samples, 0.99) / 1000.0;
  metrics["tick_p99_ms"] = scale * quantile(best.tick_ns, 0.99) / 1e6;
  metrics["pass_s"] = scale * best.pass_s();
  samples["op_p50_us"] = best.samples.size();
  samples["op_p99_us"] = best.samples.size();
  samples["tick_p99_ms"] = best.tick_ns.size();
  samples["pass_s"] = episodes;

  std::printf("workload %s seed %llu: %zu of %zu episodes over %zu streams "
              "in %.3f s (resets %.3f s), %zu distinct ticks, %llu ops; "
              "speed scale %.4f, unscaled pass %.6f s\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              episodes, w.episodes(), best.streams, phase_s, runner.reset_s(),
              best.tick_ns.size(), static_cast<unsigned long long>(attempted),
              scale, best.pass_s());
  print_kind_table(w, ph);
  print_metrics(metrics, kEndToEnd, samples);
  const double failed_ratio =
      ratio(static_cast<double>(failed), static_cast<double>(attempted));
  std::printf("%-34s %18.6f %-12s n=%llu\n", "failed_op_ratio", failed_ratio,
              "ratio", static_cast<unsigned long long>(attempted));
  const bool correct = failed == 0;
  emit(metrics, kEndToEnd, correct, attempted, failed, o.json_path);
  return correct ? 0 : 1;
}

int traced_run(const Options& o, Workload& w, Runner& runner,
               const Phase& warm, std::map<std::string, double>& metrics) {
  // Untraced, traced and (where the workload renders decisions) trace-
  // detached episodes alternate, so drift in the machine's speed touches
  // all three alike; each kind gets a third of the measured run's episodes.
  const bool detach = w.records_decisions();
  const std::size_t each = std::max(kMinEpisodes, (w.episodes() + 2) / 3);
  Phase plain, spans, detached;
  runner.init_lanes(plain, false, &warm, each);
  runner.init_lanes(spans, true, &warm, each);
  runner.init_lanes(detached, false, &warm, each);
  for (std::size_t e = 0; e < each; ++e) {
    const std::size_t s = e % w.streams();
    runner.episode(plain, {s, kWorkers, false, false, w.ring()});
    runner.episode(spans, {s, kWorkers, true, false, w.ring()});
    if (detach) runner.episode(detached, {s, kWorkers, false, true, w.ring()});
  }
  std::uint64_t attempted = plain.calls() + spans.calls() + detached.calls();
  std::uint64_t failed = plain.failed() + spans.failed() + detached.failed();
  runner.finish(plain);
  core_metrics(w, plain, metrics);
  op_metrics(w, plain, metrics);
  layer_shares(w, spans, metrics);
  for (const auto& [name, value] : plain.counters) metrics[name] = value;
  for (const auto& [name, v] : plain.series) metrics[name] = median(v);
  const auto pass_s = [](const Phase& ph) { return best_replay(ph).pass_s(); };
  metrics["bench.trace_overhead"] = 1.0 - pass_s(plain) / pass_s(spans);
  std::uint64_t kept = 0;
  for (const Recorder& r : spans.lanes) kept += r.spans().size();
  metrics["bench.spans_recorded"] = static_cast<double>(kept);
  if (detach) {
    metrics["obs.record_cost_share"] =
        1.0 - pass_s(detached) / pass_s(plain);
  }

  if (w.engine()) {
    // The same episode (stream 0) at 3 workers and at 1 must behave
    // identically; the ring holds the whole episode where it fits, so the
    // digest covers every record. The wall-clock ratio is the measured
    // speedup.
    Phase replay;
    runner.init_lanes(replay, false, &warm, 2);
    const std::size_t ring = ring_for(plain.episode_decisions.front());
    const Episode many =
        runner.episode(replay, {0, kWorkers, false, false, ring});
    const Episode one = runner.episode(replay, {0, 1, false, false, ring});
    if (many.digest != one.digest) {
      std::fprintf(stderr, "replay digest mismatch: W=%u %016llx W=1 %016llx\n",
                   kWorkers, static_cast<unsigned long long>(many.digest),
                   static_cast<unsigned long long>(one.digest));
      ++failed;
    }
    metrics["core.measured_speedup"] =
        static_cast<double>(one.wall) / static_cast<double>(many.wall);
    failed += replay.failed();
    attempted += replay.calls();
  }
  failed += w.setup_failures();
  const bool correct = failed == 0;

  std::printf("workload %s seed %llu (traced): %zu+%zu+%zu episodes, "
              "%llu ops\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              plain.episode_walls.size(), spans.episode_walls.size(),
              detached.episode_walls.size(),
              static_cast<unsigned long long>(attempted));
  std::printf("\nper-layer self time (traced episodes; calls per episode)\n"
              "%-12s %12s %10s\n", "layer", "calls", "share");
  for (std::size_t l = 0; l < kLayers; ++l) {
    const std::string name = layer_name(static_cast<Layer>(l));
    std::printf("%-12s %12.0f %10.4f\n", name.c_str(),
                metrics[name + ".calls"], metrics[name + ".self_share"]);
  }
  std::printf("%-12s %12s %10.4f\n\n", "unattributed", "",
              metrics["bench.unattributed_share"]);
  print_kind_table(w, plain);
  std::printf("\n");
  print_metrics(metrics, kPerLayer);
  if (!write_trace(o.trace_path, w, spans, metrics)) {
    std::fprintf(stderr, "cannot write %s\n", o.trace_path.c_str());
    return 2;
  }
  std::printf("trace: %s\n", o.trace_path.c_str());
  emit(metrics, kPerLayer, correct, attempted, failed, o.json_path);
  return correct ? 0 : 1;
}

int run(const Options& o) {
  const std::int64_t run_start = now_ns();
  if (!make(o)) return usage();
  const bool traced = !o.trace_path.empty();
  std::map<std::string, double> metrics;
  std::map<std::string, std::uint64_t> samples;
  metrics["bench.timer_overhead_ns"] = timer_overhead_ns();

  // Set-up: what a user pays before the first operation. Each repeat builds
  // a fresh workload; the previous one is freed before the clock starts.
  // The traced run reports no setup_s and sets up once.
  SpeedProbe setup_probe(1);
  std::unique_ptr<Workload> w;
  std::vector<double> setup_s;
  double spent = 0;
  for (int i = 0; i < kSetupProbeReads; ++i) setup_probe.read();
  do {
    w.reset();
    w = make(o);
    const std::int64_t t = now_ns();
    w->setup();
    setup_s.push_back(static_cast<double>(now_ns() - t) / 1e9);
    spent += setup_s.back();
    setup_probe.read();
  } while (!traced && spent < kSetupBudgetS && setup_s.size() < kMaxSetups);
  for (int i = 0; i < kSetupProbeReads; ++i) setup_probe.read();
  const double setup_scale = setup_probe.take_scale();
  metrics["setup_s"] = setup_scale * median(setup_s);
  samples["setup_s"] = setup_s.size();
  if (!traced) {
    std::printf("set-up: %zu repeats, median %.6f s unscaled, speed scale "
                "%.4f\n",
                setup_s.size(), median(setup_s), setup_scale);
  }

  std::int64_t t = now_ns();
  w->generate();
  metrics["bench.gen_s"] = static_cast<double>(now_ns() - t) / 1e9;

  // One untimed warm-up episode: page-in, allocator and cache warm-up. It
  // also sizes the sample buffers of the phases that follow.
  Runner runner(*w);
  Phase warm;
  runner.init_lanes(warm, false);
  (void)runner.episode(warm, {0, kWorkers, false, false, w->ring()});
  // Taken before the measured phase fills the latency sample buffers, so
  // the figure is heus's: set-up plus one episode.
  metrics["peak_rss_mb"] = peak_rss_mb();
  const int rc = traced ? traced_run(o, *w, runner, warm, metrics)
                        : measured_run(o, *w, runner, warm, setup_probe,
                                       metrics, samples);
  std::fprintf(stderr, "heus_e2e %s: %.3f s in all\n", o.workload.c_str(),
               static_cast<double>(now_ns() - run_start) / 1e9);
  // Freeing a two-million-user database one node at a time takes seconds;
  // the process is about to exit, which returns the memory at once.
  (void)w.release();
  return rc;
}

}  // namespace
}  // namespace heus::e2e

int main(int argc, char** argv) {
  heus::e2e::Options o;
  if (!heus::e2e::parse(argc, argv, o)) return heus::e2e::usage();
  return heus::e2e::run(o);
}
