// Fixed-size worker pool over the thread-safe blocking queue — the only
// sanctioned thread-creation site in the simulation (DESIGN.md §7).
//
// The pool exists for one pattern: the sharded engine's fork/join tick.
// The coordinator submits one task per shard, calls wait_idle() as the
// deterministic barrier, then runs the ordered cross-shard phase on its
// own thread. Determinism is a property of what the tasks touch (disjoint
// shard state), not of the pool: the pool makes no ordering promises
// beyond "every submitted task runs exactly once before wait_idle()
// returns".
//
// Tasks must not throw; an escaping exception is swallowed and counted in
// failed_tasks() so a worker thread never takes the process down, and
// callers that care (the engine does) can turn a nonzero count into a
// loud failure.
#pragma once

#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "common/task_queue.h"

namespace heus::common {

class WorkerPool {
 public:
  /// Spawns exactly `workers` (>= 1 enforced) long-lived threads.
  explicit WorkerPool(unsigned workers);
  ~WorkerPool();  ///< shutdown() + join; pending tasks are drained first

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Enqueue one task. Never blocks. Must not be called after shutdown.
  void submit(std::function<void()> task);

  /// Barrier: block until every task submitted so far has finished
  /// executing (not merely been dequeued).
  void wait_idle();

  [[nodiscard]] unsigned worker_count() const {
    return static_cast<unsigned>(threads_.size());
  }
  /// Tasks fully executed since construction.
  [[nodiscard]] std::uint64_t tasks_executed() const;
  /// Tasks whose callable escaped with an exception (always a bug in the
  /// caller; the engine fails its tick when this is nonzero).
  [[nodiscard]] std::uint64_t failed_tasks() const;

 private:
  void worker_loop();

  ThreadSafeBlockingQueue<std::function<void()>> queue_;
  std::vector<std::thread> threads_;

  mutable std::mutex mu_;
  std::condition_variable idle_cv_;
  std::size_t in_flight_ = 0;  ///< submitted, not yet finished
  std::uint64_t executed_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace heus::common
