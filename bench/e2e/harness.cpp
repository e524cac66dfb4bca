#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

#include "common/thread_pool.h"

namespace heus::e2e {

namespace {

std::uint64_t splitmix(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Gen::Gen(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (std::uint64_t& w : s_) w = splitmix(x);
}

Gen::Gen(std::uint64_t seed, std::uint64_t stream)
    : Gen(seed ^ (0xd1b54a32d192ed03ULL * (stream + 1))) {}

std::uint64_t Gen::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double total = 0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t Zipf::draw(Gen& g) const {
  const double u = g.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

std::uint32_t pareto_burst(Gen& g, double mean) {
  constexpr double kAlpha = 1.5;
  const double xm = mean * (kAlpha - 1) / kAlpha;
  const double u = 1.0 - g.uniform();  // (0, 1]
  const double x = std::min(xm / std::pow(u, 1.0 / kAlpha), 8 * mean);
  return std::max<std::uint32_t>(1, static_cast<std::uint32_t>(x + 0.5));
}

SpeedProbe::SpeedProbe(unsigned width) : lanes_(std::max(width, 1U)) {
  for (Lane& lane : lanes_) {
    // One random cycle through every slot (Sattolo's shuffle), so the chase
    // visits the whole buffer in an order the prefetcher cannot follow.
    lane.next.resize((std::size_t{256} << 10) / sizeof(std::uint32_t));
    for (std::size_t i = 0; i < lane.next.size(); ++i) {
      lane.next[i] = static_cast<std::uint32_t>(i);
    }
    Gen g(0x5eed);
    for (std::size_t i = lane.next.size() - 1; i > 0; --i) {
      std::swap(lane.next[i], lane.next[g.below(i)]);
    }
  }
  if (lanes_.size() > 1) {
    pool_ = std::make_unique<common::WorkerPool>(
        static_cast<unsigned>(lanes_.size()));
  }
}

SpeedProbe::~SpeedProbe() = default;

void SpeedProbe::run(Lane& lane) {
  const std::int64_t cpu = thread_cpu_ns();
  // An untimed lap first brings the buffer back into cache after heus ran,
  // so how much cache heus used cannot change the reading.
  std::uint32_t p = lane.at;
  for (std::size_t i = 0; i < lane.next.size(); ++i) p = lane.next[p];
  const std::int64_t t = now_ns();
  std::uint64_t h = lane.mix;
  for (int i = 0; i < 1'000'000; ++i) {
    h ^= h << 13;
    h ^= h >> 7;
    h ^= h << 17;
  }
  for (std::size_t i = 0; i < 4 * lane.next.size(); ++i) p = lane.next[p];
  lane.wall_ns = now_ns() - t;
  lane.cpu_ns = thread_cpu_ns() - cpu;
  lane.mix = h | 1;
  lane.at = p;
}

void SpeedProbe::read() {
  const std::int64_t process = process_cpu_ns();
  const std::int64_t self = thread_cpu_ns();
  if (pool_) {
    for (Lane& lane : lanes_) pool_->submit([&lane] { run(lane); });
    pool_->wait_idle();
  } else {
    run(lanes_.front());
  }
  std::int64_t wall = 0;
  std::int64_t probe_cpu = 0;
  for (const Lane& lane : lanes_) {
    wall = std::max(wall, lane.wall_ns);
    probe_cpu += lane.cpu_ns;
  }
  // CPU the process used beyond the probe's own threads and this one's
  // wait; the pool's own bookkeeping is microseconds.
  const std::int64_t self_cpu = thread_cpu_ns() - self;
  const std::int64_t other = process_cpu_ns() - process - self_cpu -
                             (pool_ ? probe_cpu : 0);
  ++reads_;
  if (other * 10 > probe_cpu) {
    ++contaminated_;
    return;
  }
  readings_.push_back(static_cast<double>(wall));
}

double SpeedProbe::take_scale() {
  const double m = median(readings_);
  readings_.clear();
  return m > 0 ? kRefNs / m : 1.0;
}

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::core: return "core";
    case Layer::net: return "net";
    case Layer::simos: return "simos";
    case Layer::vfs: return "vfs";
    case Layer::sched: return "sched";
    case Layer::portal: return "portal";
    case Layer::gpu: return "gpu";
    case Layer::container: return "container";
    case Layer::analyze: return "analyze";
    case Layer::kCount: break;
  }
  return "?";
}

void Recorder::init(std::size_t kinds, std::uint16_t lane,
                    std::size_t span_cap) {
  ns_.clear();
  kinds_.clear();
  tick_ends_.clear();
  kind_ns_.assign(kinds, 0);
  lane_ = lane;
  span_cap_ = span_cap;
  spans_.clear();
  spans_.reserve(span_cap);
}

void Recorder::note(std::size_t kind, std::int64_t t0, std::int64_t t1) {
  const std::int64_t d = t1 - t0;
  ns_.push_back(static_cast<std::uint32_t>(
      std::min<std::int64_t>(d, UINT32_MAX)));
  kinds_.push_back(static_cast<std::uint8_t>(kind));
  if (!tracing_) return;
  kind_ns_[kind] += d;
  if (spans_.size() < span_cap_) {
    spans_.push_back(Span{t0, t1, current_, tick_,
                          static_cast<std::uint16_t>(kind), lane_});
  }
}

std::uint32_t Recorder::open(Frame f, std::uint32_t parent,
                             std::int64_t start) {
  if (!tracing_) return 0;
  if (spans_.size() >= span_cap_) {
    current_ = 0;
    return 0;
  }
  spans_.push_back(Span{start, start, parent, tick_,
                        static_cast<std::uint16_t>(f), lane_});
  current_ = span_id(lane_, spans_.size() - 1);
  return current_;
}

void Recorder::close(std::uint32_t id, std::int64_t end) {
  if (!tracing_) return;
  if (id != 0) spans_[(id & 0x3fffff) - 1].end = end;
  current_ = 0;
}

void Recorder::reserve(std::size_t calls, std::size_t ticks) {
  ns_.reserve(calls);
  kinds_.reserve(calls);
  tick_ends_.reserve(ticks);
}

double quantile(std::vector<std::uint32_t>& v, double q) {
  if (v.empty()) return 0;
  constexpr double kHalfWindow = 0.005;
  const auto rank = [&v](double p) {
    const double r = std::clamp(p, 0.0, 1.0) * static_cast<double>(v.size());
    return std::min(static_cast<std::size_t>(r), v.size() - 1);
  };
  const std::size_t lo = rank(q - kHalfWindow);
  const std::size_t hi = std::max(lo, rank(q + kHalfWindow));
  const auto at = [&v](std::size_t i) {
    return v.begin() + static_cast<std::ptrdiff_t>(i);
  };
  std::nth_element(v.begin(), at(lo), v.end());
  std::nth_element(at(lo), at(hi), v.end());
  double sum = 0;
  for (std::size_t i = lo; i <= hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo + 1);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace heus::e2e
