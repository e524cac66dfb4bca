#include "core/engine.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace heus::core {

namespace {

class Fnv {
 public:
  void fold(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void fold_bytes(const char* s, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= static_cast<unsigned char>(s[i]);
      h_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace

ShardMap ShardMap::blocks(std::size_t hosts, std::uint32_t groups) {
  ShardMap m;
  m.groups = groups == 0 ? 1 : groups;
  m.host_group.resize(hosts);
  for (std::size_t h = 0; h < hosts; ++h) {
    m.host_group[h] = static_cast<std::uint32_t>(
        std::min<std::size_t>(h * m.groups / std::max<std::size_t>(hosts, 1),
                              m.groups - 1));
  }
  return m;
}

ShardMap ShardMap::round_robin(std::size_t hosts, std::uint32_t groups) {
  ShardMap m;
  m.groups = groups == 0 ? 1 : groups;
  m.host_group.resize(hosts);
  for (std::size_t h = 0; h < hosts; ++h) {
    m.host_group[h] = static_cast<std::uint32_t>(h % m.groups);
  }
  return m;
}

ShardedEngine::ShardedEngine(net::Network* network, common::SimClock* clock,
                             const ShardMap& map, EngineConfig cfg)
    : network_(network),
      clock_(clock),
      groups_(map.groups == 0 ? 1 : map.groups),
      pool_(cfg.workers),
      outbox_(groups_) {
  network_->enable_sharding(groups_, map.host_group);
  rngs_.reserve(groups_);
  for (std::uint32_t g = 0; g < groups_; ++g) {
    // Group streams must be decorrelated and a function of (seed, group)
    // only — never of worker identity. splitmix-style mix of the pair.
    rngs_.emplace_back(cfg.seed ^ (0x9e3779b97f4a7c15ULL * (g + 1)));
  }
}

void ShardedEngine::tick() {
  // The parallel phase runs with the clock frozen (deferred charges). A
  // fault model advances the clock from inside ident retries and fault
  // schedules, which would make time depend on interleaving — faulted
  // workloads belong to the serial single-worker path, not the engine.
  if (network_->fault_model() != nullptr) {
    throw std::logic_error(
        "ShardedEngine::tick: sharded ticks require a fault-free network");
  }
  network_->set_defer_charges(true);

  if (group_fn_) {
    for (std::uint32_t g = 0; g < groups_; ++g) {
      pool_.submit([this, g] {
        net::ShardScope scope(g);
        group_fn_(g, rngs_[g]);
      });
    }
    stats_.intra_tasks += groups_;
  }
  pool_.wait_idle();
  // A task that threw skipped the rest of its group's stream, so this
  // tick's results would be silently wrong. Fail closed in every build
  // type, before the cross-group drain and the serial phase run.
  if (pool_.failed_tasks() != 0) {
    throw std::runtime_error("ShardedEngine::tick: a group tick task threw");
  }

  // Work model: what this tick's intra-phase work costs on an idealized
  // `workers`-thread machine — greedy least-loaded assignment of the
  // per-group charges, in group order (deterministic).
  std::vector<std::int64_t> load(pool_.worker_count(), 0);
  std::int64_t intra_sum = 0;
  for (std::uint32_t g = 0; g < groups_; ++g) {
    const std::int64_t w = network_->charged_ns(g);
    intra_sum += w;
    *std::min_element(load.begin(), load.end()) += w;
  }
  const std::int64_t makespan = *std::max_element(load.begin(), load.end());

  // Ordered cross-group phase: (group, post-order) on this thread.
  for (auto& box : outbox_) {
    for (auto& op : box) {
      op();
      ++stats_.cross_ops;
    }
    box.clear();
  }
  if (serial_fn_) serial_fn_();

  // Everything charged this tick, parallel and serial phases alike, is
  // applied to the clock once, here — the only clock advance per tick.
  const std::int64_t total = network_->drain_charges();
  network_->set_defer_charges(false);
  if (total > 0) clock_->advance(total);

  ++stats_.ticks;
  stats_.total_work_ns += total;
  stats_.modeled_span_ns += makespan + (total - intra_sum);
}

std::uint64_t network_digest(const net::Network& nw) {
  Fnv d;
  const net::NetworkStats s = nw.stats();
  d.fold(s.connections_attempted);
  d.fold(s.connections_established);
  d.fold(s.connections_refused);
  d.fold(s.connections_dropped);
  d.fold(s.hook_invocations);
  d.fold(s.conntrack_hits);
  d.fold(s.packets_delivered);
  d.fold(s.ident_queries);
  d.fold(s.ident_timeouts);
  d.fold(s.partition_refusals);
  d.fold(s.packets_dropped);
  d.fold(s.flows_reset_identity_changed);
  d.fold(s.flows_expired);
  d.fold(s.gc_runs);
  d.fold(s.gc_entries_touched);
  d.fold(s.ephemeral_exhausted);
  d.fold(nw.flow_count());
  for (const FlowId f : nw.cross_user_flows()) d.fold(f.value());
  return d.value();
}

std::uint64_t decision_digest(const obs::DecisionTrace& trace) {
  // Per-record hashes combined by addition: a multiset digest, immune to
  // the ring's (interleaving-dependent) arrival order. seq is excluded
  // for the same reason; the sim-time stamp is included because the
  // engine advances the clock only at barriers, where it is exact.
  std::uint64_t multiset = 0;
  for (const obs::Decision& r : trace.snapshot()) {
    Fnv one;
    one.fold(static_cast<std::uint64_t>(r.time.ns));
    one.fold(static_cast<std::uint64_t>(r.point));
    one.fold(static_cast<std::uint64_t>(r.outcome));
    one.fold(r.subject.value());
    one.fold(r.subject_gid.value());
    one.fold(r.object_owner.value());
    one.fold(r.channel ? 1 + static_cast<std::uint64_t>(*r.channel) : 0);
    if (r.knob != nullptr) one.fold_bytes(r.knob, std::strlen(r.knob));
    one.fold(r.from_cache ? 1 : 0);
    one.fold_bytes(r.object.data(), r.object.size());
    multiset += one.value();
  }
  Fnv d;
  d.fold(multiset);
  d.fold(trace.total());
  for (const obs::DecisionPoint p : obs::kAllDecisionPoints) {
    d.fold(trace.counters(p).allowed);
    d.fold(trace.counters(p).denied);
  }
  return d.value();
}

}  // namespace heus::core
