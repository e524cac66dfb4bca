#!/usr/bin/env sh
# Determinism lint (DESIGN.md §7): simulation code must take all time from
# common::SimClock and all randomness from the seeded common::Rng. Grep
# src/ for the usual escape hatches; only src/common/ (which *implements*
# the clock and RNG abstractions) may mention them. This covers every
# module, including src/fault/ — fault schedules and injected failures
# must be exactly as reproducible as the healthy simulation they perturb.
#
# Usage: tools/check_determinism.sh [repo-root]   (exit 1 on violations)
set -u

root="${1:-.}"
status=0

# pattern -> human explanation. Word boundaries keep SimTime, mtime(),
# real_time_factor() etc. from false-positiving.
check() {
  pattern="$1"
  why="$2"
  hits=$(grep -RnE "$pattern" "$root/src" \
           --include='*.h' --include='*.cpp' \
           | grep -v "^$root/src/common/" || true)
  if [ -n "$hits" ]; then
    echo "determinism lint: found $why outside src/common/:"
    echo "$hits" | sed 's/^/  /'
    status=1
  fi
}

check '(^|[^_[:alnum:]])rand\(' 'libc rand()'
check '(^|[^_[:alnum:]])srand\(' 'libc srand()'
check '(^|[^_[:alnum:]])time\(' 'libc time()'
check 'std::random_device' 'std::random_device'
check 'system_clock' 'wall-clock time (std::chrono::system_clock)'
check 'steady_clock' 'wall-clock time (std::chrono::steady_clock)'
check 'high_resolution_clock' \
  'wall-clock time (std::chrono::high_resolution_clock)'
check '(^|[^_[:alnum:]])(sleep|usleep|nanosleep)\(' \
  'real sleeping (faults/retries must advance SimClock instead)'
check 'std::mt19937' 'unseeded-by-convention std::mt19937 (use common::Rng)'
check 'std::rand' 'std::rand (unseeded process-global RNG)'
check 'default_random_engine|minstd_rand|ranlux(24|48)(_base)?|knuth_b' \
  'std <random> engines (seeding is ad hoc; use common::Rng)'
check 'random_shuffle' \
  'std::random_shuffle (implementation-defined RNG; shuffle via common::Rng)'
# The artifact parsers (src/analyze/ingest/) must read config bytes the
# same way on every host: no locale-dependent classification, no
# environment-dependent behavior. Hand-rolled ASCII helpers only.
check '(^|[^_[:alnum:]])(setlocale|std::locale)' \
  'locale machinery (parsers must be locale-independent)'
check 'std::(isspace|isalpha|isdigit|tolower|toupper)\(' \
  'locale-sensitive <cctype> wrappers (use ASCII-only helpers)'
check '(^|[^_[:alnum:]])getenv\(' \
  'environment lookup (config must come from artifacts or flags)'

# Threading constructs (ISSUE 9): real parallelism lives exclusively in
# the sanctioned src/common primitives (task_queue.h, thread_pool.{h,cpp});
# everything else expresses parallel work as WorkerPool tasks so the
# sharded engine's barrier discipline is the only interleaving that
# exists. Raw threads, detach, ad-hoc futures and real-time sleeps outside
# src/common would reintroduce schedule-dependent behaviour.
check 'std::(jthread|thread)([^_[:alnum:]]|$)' \
  'raw std::thread construction (use common::WorkerPool)'
check '\.detach\(' \
  'detached threads (nothing may outlive the pool barrier)'
check 'std::async|std::promise|std::packaged_task' \
  'ad-hoc std::async/promise futures (submit WorkerPool tasks instead)'
check 'sleep_for|sleep_until' \
  'real sleeping (std::this_thread::sleep_*; advance SimClock instead)'
check 'std::this_thread' \
  'thread-identity/timing queries (results must not depend on workers)'

# Memory-layout discipline: the per-decision hot-path headers (network,
# scheduler, decision trace, the account store UBF admission reads, and
# the session path's inodes, filesystem and process table) were migrated
# off the node-based standard containers (DESIGN.md §8 —
# common::FlatMap/FlatSet/OrderedSet/OrderedMap/SlotMap/Rows over dense
# storage). New direct std::unordered_map / std::map members would quietly
# reintroduce pointer-chasing and allocation churn on the decision path,
# so any mention outside the reviewed allowlist fails the lint:
#   - abstract_sockets / partition_policy / partitions_: cold, name-keyed
#     tables kept as std::map with transparent comparators for
#     string_view lookup;
#   - usage_by_user: a public accessor's return type (API stability).
hotpath_headers="src/net/network.h src/sched/scheduler.h src/obs/decision.h
  src/simos/user_db.h src/vfs/inode.h src/vfs/filesystem.h
  src/simos/process.h"
hotpath_allow='abstract_sockets|partition_policy|partitions_|usage_by_user'
for header in $hotpath_headers; do
  [ -f "$root/$header" ] || continue
  hits=$(grep -nE 'std::(unordered_map|unordered_set|map|set)<' \
           "$root/$header" \
           | grep -vE "$hotpath_allow" \
           | grep -vE '^[0-9]+:[[:space:]]*(//|\*)' || true)
  if [ -n "$hits" ]; then
    echo "determinism lint: node-based container on the hot path in" \
         "$header (use common/flat_map.h or extend the allowlist" \
         "after review):"
    echo "$hits" | sed 's/^/  /'
    status=1
  fi
done

if [ "$status" -eq 0 ]; then
  echo "determinism lint: OK (src/ outside src/common/ is clean)"
fi
exit "$status"
