// Sharded multi-threaded cluster engine (ISSUE 9 tentpole, ROADMAP 1).
//
// The engine runs a cluster workload as a sequence of BSP ticks over G
// node groups:
//
//   parallel intra-group phase   one WorkerPool task per group, each
//                                running under a net::ShardScope so any
//                                touch of another group's state throws
//                                and fails the tick;
//   deterministic barrier        WorkerPool::wait_idle();
//   ordered cross-group phase    operations the parallel phase posted via
//                                post_cross() are drained on the
//                                coordinator thread in (group, seq)
//                                order — seq being the post order within
//                                the group, which is serial;
//   clock advance                per-bucket deferred latency charges are
//                                drained in bucket order and applied once.
//
// Determinism argument: the clock is frozen during the parallel phase
// (defer-charge mode), each group's operation stream is serial and
// touches only that group's bucket + hosts (ShardScope-checked), each
// group's Rng is seeded from (seed, group), and everything with
// cross-group reach runs on the coordinator in a fixed order. Execution
// is therefore a function of (workload, G) — independent of the worker
// count and of thread interleaving. The shard-invariance tests pin this
// by digesting runs at 1/2/4/8 workers.
//
// Scheduler modes. Golden schedule replay (mode A) steps one global
// sched::Scheduler from set_serial_tick(), reproducing the pre-engine
// digests bit-for-bit at any worker count. Scaling runs (mode B) give
// each group its own Scheduler instance and step it from the group tick:
// Scheduler::step() reads but never advances the clock, and every
// Scheduler owns all of its state (including its lifecycle Driver), so
// per-group instances share nothing.
//
// NOTE: constructing the engine calls Network::enable_sharding(), which
// re-buckets UBF state on the next Ubf::attach() — when a UBF is already
// attached (Cluster), re-apply the policy after constructing the engine.
// A UBF left attached from before sharding throws std::logic_error, in
// every build type, on an admission in a bucket it has no shard for.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "net/network.h"
#include "obs/decision.h"

namespace heus::core {

/// Host -> node-group assignment handed to Network::enable_sharding().
struct ShardMap {
  std::uint32_t groups = 1;
  std::vector<std::uint32_t> host_group;  ///< by HostId value

  /// Contiguous blocks: hosts [k*H/G, (k+1)*H/G) form group k. Matches
  /// rack/partition-aligned clusters, where intra-group traffic dominates.
  [[nodiscard]] static ShardMap blocks(std::size_t hosts,
                                       std::uint32_t groups);
  /// Striped: host h joins group h % G.
  [[nodiscard]] static ShardMap round_robin(std::size_t hosts,
                                            std::uint32_t groups);
};

struct EngineConfig {
  unsigned workers = 1;      ///< WorkerPool size (threads), not groups
  std::uint64_t seed = 42;   ///< per-group Rngs are seeded (seed, group)
};

/// Tick accounting. Work is simulated nanoseconds (the network's latency
/// charges), so the model is machine-independent: `modeled_speedup()` is
/// what the parallel phase buys on an idealized `workers`-thread machine,
/// computed from the same per-bucket charges a serial run would make.
struct EngineStats {
  std::uint64_t ticks = 0;
  std::uint64_t intra_tasks = 0;  ///< group tasks submitted to the pool
  std::uint64_t cross_ops = 0;    ///< post_cross() operations drained
  /// Σ all charged work — what a 1-worker run spends.
  std::int64_t total_work_ns = 0;
  /// Σ per-tick [greedy least-loaded makespan of the groups' intra work
  /// over the pool's workers] + all serial-phase work.
  std::int64_t modeled_span_ns = 0;

  [[nodiscard]] double modeled_speedup() const {
    return modeled_span_ns > 0
               ? static_cast<double>(total_work_ns) /
                     static_cast<double>(modeled_span_ns)
               : 1.0;
  }
};

class ShardedEngine {
 public:
  /// Intra-group tick body: runs on a worker under ShardScope(group),
  /// with that group's persistent seeded Rng.
  using GroupFn = std::function<void(std::uint32_t group, common::Rng& rng)>;
  using SerialFn = std::function<void()>;

  /// Partitions `network` per `map` (the flow table must be empty) and
  /// spawns the worker pool. The network must outlive the engine.
  ShardedEngine(net::Network* network, common::SimClock* clock,
                const ShardMap& map, EngineConfig cfg = {});

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// The per-group parallel work executed each tick.
  void set_group_tick(GroupFn fn) { group_fn_ = std::move(fn); }
  /// Serial work executed each tick after the cross-group drain (mode A
  /// global scheduler step, audits, host teardown, …). Runs unscoped.
  void set_serial_tick(SerialFn fn) { serial_fn_ = std::move(fn); }

  /// Queue a cross-group operation from group `group`'s tick body. The
  /// coordinator runs it after the barrier, in (group, post-order) order.
  /// Lock-free by construction: each group appends only to its own outbox.
  void post_cross(std::uint32_t group, std::function<void()> op) {
    outbox_.at(group).push_back(std::move(op));
  }

  /// Run one BSP tick (see file header for the phase structure). Throws
  /// std::runtime_error, before the cross-group drain and the serial
  /// phase, once any group tick task has thrown, and std::logic_error,
  /// before any task runs, when the network has a fault model set.
  void tick();

  [[nodiscard]] std::uint32_t groups() const { return groups_; }
  [[nodiscard]] unsigned workers() const { return pool_.worker_count(); }
  /// Group `g`'s persistent Rng — for serial-phase code that must draw
  /// from the same stream the group tick uses.
  [[nodiscard]] common::Rng& group_rng(std::uint32_t g) {
    return rngs_.at(g);
  }
  [[nodiscard]] const EngineStats& stats() const { return stats_; }
  [[nodiscard]] const common::WorkerPool& pool() const { return pool_; }

 private:
  net::Network* network_;
  common::SimClock* clock_;
  std::uint32_t groups_;
  common::WorkerPool pool_;
  GroupFn group_fn_;
  SerialFn serial_fn_;
  std::vector<common::Rng> rngs_;
  /// Per-group cross-op queues; slot g is written only by group g's task.
  std::vector<std::vector<std::function<void()>>> outbox_;
  EngineStats stats_;
};

// ---- behaviour digests ----------------------------------------------------
//
// FNV-1a digests of engine-visible behaviour, for the shard-invariance
// tests: equal digests across worker counts prove the parallelism is
// behaviour-preserving; equal digests across group counts prove the
// workload itself is partition-independent (only true for workloads with
// no cross-group coupling).

/// Folds the network's merged stats, flow census and cross-user flow ids.
[[nodiscard]] std::uint64_t network_digest(const net::Network& nw);

/// Order-independent multiset digest of the trace's buffered decisions
/// (seq excluded — ring arrival order is scheduling-dependent; everything
/// else, including the sim-time stamp, is deterministic) combined with
/// the exact per-point counters.
[[nodiscard]] std::uint64_t decision_digest(const obs::DecisionTrace& trace);

}  // namespace heus::core
