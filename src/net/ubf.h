// The User-Based Firewall (paper §IV-D and the reproducibility appendix).
//
// A userspace daemon receives *new* connection requests from the nfqueue
// hook, performs an ident-like query against the initiating host and the
// local listener, and accepts iff:
//
//   (a) the initiating and listening processes are owned by the same uid, or
//   (b) the initiating uid is a member of the *primary (effective) group*
//       of the listening process.
//
// Rule (b) is the opt-in project-group extension: a server started under
// `newgrp <project>` accepts its project peers. Everything else is dropped.
// Established flows never reach the daemon (conntrack handles them), so the
// data path is unchanged — the zero-overhead property the paper leans on.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/backoff.h"
#include "common/flat_map.h"
#include "common/clock.h"
#include "common/ids.h"
#include "net/network.h"
#include "obs/decision.h"
#include "simos/user_db.h"

namespace heus::net {

enum class UbfDecision {
  allow_same_user,
  allow_group_member,
  /// Degraded-mode allow under UbfDegradedMode::fail_open only: the ident
  /// path failed and the policy chose availability over attribution. Never
  /// the default; exists so E18 can measure what that trade costs.
  allow_fail_open,
  deny,
};

/// What the daemon does when the ident exchange cannot attribute an end.
enum class UbfDegradedMode {
  /// Drop immediately on the first ident failure (strict, cheapest).
  fail_closed,
  /// Retry timed-out queries with bounded exponential backoff, then drop.
  /// The default: transient responder outages cost latency, not service.
  retry_then_fail_closed,
  /// Allow unattributed connections (the strawman no real site should
  /// run; quantified by E18 to show faults then cost *isolation*).
  fail_open,
};

[[nodiscard]] constexpr const char* to_string(UbfDegradedMode m) {
  switch (m) {
    case UbfDegradedMode::fail_closed: return "fail-closed";
    case UbfDegradedMode::retry_then_fail_closed: return "retry+backoff";
    case UbfDegradedMode::fail_open: return "fail-open";
  }
  return "?";
}

struct UbfStats {
  std::uint64_t decisions = 0;
  std::uint64_t allowed_same_user = 0;
  std::uint64_t allowed_group = 0;
  std::uint64_t denied = 0;
  std::uint64_t ident_failures = 0;  ///< fail-closed drops (all causes)
  // Per-cause breakdown of the degraded ident path:
  std::uint64_t ident_retries = 0;          ///< backoff re-queries issued
  std::uint64_t ident_retry_successes = 0;  ///< queries saved by a retry
  std::uint64_t ident_timeout_drops = 0;    ///< exhausted on etimedout
  std::uint64_t ident_unattributed_drops = 0;  ///< responder said "nobody"
  std::uint64_t fail_open_allows = 0;  ///< fail_open mode only
  // Decision cache (E20): attributed-path decisions memoized by
  // (initiator uid, listener uid, listener egid, degraded mode).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  /// Cache clears triggered by an observed UserDb generation bump.
  std::uint64_t cache_invalidations = 0;
};

struct UbfOptions {
  /// Inspect ports >= this (the appendix: "ports numbered 1024 and above").
  std::uint16_t inspect_from_port = 1024;
  /// Rule (b) opt-in group extension enabled.
  bool allow_group_peers = true;
};

/// One record of a decision, for audit trails / debugging examples.
struct UbfLogEntry {
  ConnRequest request;
  Uid client_uid{};
  Uid server_uid{};
  Gid server_egid{};
  UbfDecision decision = UbfDecision::deny;
};

class Ubf {
 public:
  Ubf(const simos::UserDb* users, Network* network, UbfOptions opts = {})
      : users_(users), network_(network), opts_(opts) {}

  /// Install this daemon as the network's new-connection hook.
  void attach();
  /// Remove the hook (reverting to an open network).
  void detach();

  /// The decision function itself (exposed for unit tests and for the
  /// microbenchmark of decision cost).
  [[nodiscard]] UbfDecision decide(const ConnRequest& req);

  /// Degraded-mode policy for ident failures. The clock (when provided)
  /// is charged the backoff waits, so retries cost simulated latency the
  /// way a real daemon's blocking re-query would.
  void set_degraded_mode(UbfDegradedMode mode,
                         common::BackoffPolicy backoff = {}) {
    degraded_ = mode;
    backoff_ = backoff;
  }
  [[nodiscard]] UbfDegradedMode degraded_mode() const { return degraded_; }
  void set_clock(common::SimClock* clock) { clock_ = clock; }

  /// Route admission verdicts (cached hits and degraded-mode fallbacks
  /// included) through the cluster decision trace. Null disables it.
  void set_trace(obs::DecisionTrace* trace) { trace_ = trace; }

  /// Aggregated over all shards (see the sharding note below). Each field
  /// is a sum of per-shard counters that depend only on that shard's
  /// serial decision stream, so the totals are interleaving-independent.
  [[nodiscard]] UbfStats stats() const {
    UbfStats s;
    for (const Shard& sh : shards_) {
      const UbfStats& x = sh.stats;
      s.decisions += x.decisions;
      s.allowed_same_user += x.allowed_same_user;
      s.allowed_group += x.allowed_group;
      s.denied += x.denied;
      s.ident_failures += x.ident_failures;
      s.ident_retries += x.ident_retries;
      s.ident_retry_successes += x.ident_retry_successes;
      s.ident_timeout_drops += x.ident_timeout_drops;
      s.ident_unattributed_drops += x.ident_unattributed_drops;
      s.fail_open_allows += x.fail_open_allows;
      s.cache_hits += x.cache_hits;
      s.cache_misses += x.cache_misses;
      s.cache_invalidations += x.cache_invalidations;
    }
    return s;
  }
  void reset_stats() {
    for (Shard& sh : shards_) sh.stats = {};
  }

  // ---- decision cache ---------------------------------------------------
  //
  // Memoizes the *attributed* decision path — the (same-uid || member of
  // listener's egid) evaluation against the account database — keyed by
  // (initiator uid, listener uid, listener egid, degraded mode). Ident
  // results are never cached: port ownership is connection-local state.
  //
  // Invalidation is epoch-based and fail-safe: every decide() compares the
  // cache's epoch against UserDb::generation() and clears the whole cache
  // on any mismatch. Any mutation anywhere in the database discards every
  // cached decision (over-invalidation), so a revoked membership can never
  // be served from cache (under-invalidation is structurally impossible).

  void set_cache_enabled(bool on) {
    cache_enabled_ = on;
    if (!on) {
      for (Shard& sh : shards_) sh.cache.clear();
    }
  }
  [[nodiscard]] bool cache_enabled() const { return cache_enabled_; }
  /// UserDb generation the current cache contents were computed against
  /// (shard 0's epoch; all shards converge on the same generation).
  [[nodiscard]] std::uint64_t cache_epoch() const {
    return shards_.front().cache_epoch;
  }
  [[nodiscard]] std::size_t cache_size() const {
    std::size_t n = 0;
    for (const Shard& sh : shards_) n += sh.cache.size();
    return n;
  }

  /// Recent decisions: the newest log-limit entries of each shard,
  /// oldest first, concatenated in shard order.
  [[nodiscard]] std::vector<UbfLogEntry> log() const;
  /// Keep the newest `n` decisions per shard (0 logs nothing).
  void set_log_limit(std::size_t n);

 private:
  struct CacheKey {
    Uid initiator{};
    Uid listener{};
    Gid egid{};
    UbfDegradedMode mode = UbfDegradedMode::retry_then_fail_closed;
    friend bool operator==(const CacheKey&, const CacheKey&) = default;
  };
  struct CacheKeyHash {
    std::size_t operator()(const CacheKey& k) const {
      // FNV-1a over the four fields; cheap and deterministic.
      std::uint64_t h = 0xcbf29ce484222325ULL;
      for (std::uint64_t v :
           {static_cast<std::uint64_t>(k.initiator.value()),
            static_cast<std::uint64_t>(k.listener.value()),
            static_cast<std::uint64_t>(k.egid.value()),
            static_cast<std::uint64_t>(k.mode)}) {
        h = (h ^ v) * 0x100000001b3ULL;
      }
      return static_cast<std::size_t>(h);
    }
  };

  // ---- sharding (ISSUE 9) -----------------------------------------------
  //
  // The daemon's mutable state — stats, decision log, decision cache —
  // is partitioned exactly like the network's flow table: one Shard per
  // network bucket (G group shards + the cross-group shard). decide()
  // touches only the shard of the operation's bucket, so intra-group
  // admission verdicts can run on the engine's worker threads with no
  // shared mutable state, and the per-shard cache hit/miss streams are
  // serial (hence deterministic) regardless of worker count. attach()
  // sizes the shard vector from the network; call enable_sharding()
  // before attaching (Cluster::apply_policy rebuilds + reattaches).
  struct Shard {
    UbfStats stats;
    /// Ring of the newest log_limit_ decisions once full; log_head is
    /// the oldest entry (0 until the ring wraps).
    std::vector<UbfLogEntry> log;
    std::size_t log_head = 0;
    std::uint64_t cache_epoch = 0;
    /// Open-addressing over a dense entry array (common::FlatMap): the
    /// admission fast path probes one contiguous index instead of
    /// chasing unordered_map node pointers, and the epoch clear() is a
    /// pair of vector clears rather than a bucket-by-bucket teardown.
    common::FlatMap<CacheKey, UbfDecision, CacheKeyHash> cache;
  };

  /// The shard owning this request: the network bucket of its endpoints.
  /// Out-of-range means the network was sharded after attach() — the
  /// daemon must be re-attached (Cluster::apply_policy) first; until then
  /// an admission in a bucket it has no shard for throws
  /// std::logic_error instead of deciding.
  [[nodiscard]] Shard& shard_for(const ConnRequest& req) {
    const std::uint32_t b = network_->op_bucket(req.src_host, req.dst_host);
    if (b >= shards_.size()) {
      throw std::logic_error("Ubf: re-attach the UBF after enable_sharding");
    }
    return shards_[b];
  }

  /// One ident query under the active degraded-mode policy; retry
  /// accounting lands in the caller's shard.
  [[nodiscard]] Result<IdentInfo> ident_with_retry(Shard& sh, HostId host,
                                                   Proto proto,
                                                   std::uint16_t port);

  const simos::UserDb* users_;
  Network* network_;
  UbfOptions opts_;
  UbfDegradedMode degraded_ = UbfDegradedMode::retry_then_fail_closed;
  common::BackoffPolicy backoff_;
  common::SimClock* clock_ = nullptr;
  obs::DecisionTrace* trace_ = nullptr;
  std::size_t log_limit_ = 256;
  bool cache_enabled_ = true;
  std::vector<Shard> shards_{Shard{}};
};

}  // namespace heus::net
