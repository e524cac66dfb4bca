#include "net/ubf.h"

#include <algorithm>
#include <iterator>

namespace heus::net {

void Ubf::attach() {
  // Mirror the network's bucket layout (1 while unsharded; G+1 once the
  // engine has partitioned the fabric). Serial-phase only: attach happens
  // at cluster assembly / policy application, never inside a tick.
  if (shards_.size() != network_->bucket_count()) {
    shards_.clear();
    shards_.resize(network_->bucket_count());
  }
  network_->set_hook(
      [this](const ConnRequest& req) {
        return decide(req) == UbfDecision::deny ? Verdict::drop
                                                : Verdict::accept;
      },
      opts_.inspect_from_port);
}

void Ubf::detach() { network_->clear_hook(); }

std::vector<UbfLogEntry> Ubf::log() const {
  std::vector<UbfLogEntry> out;
  for (const Shard& sh : shards_) {
    std::rotate_copy(sh.log.begin(), sh.log.begin() + sh.log_head,
                     sh.log.end(), std::back_inserter(out));
  }
  return out;
}

void Ubf::set_log_limit(std::size_t n) {
  log_limit_ = n;
  for (Shard& sh : shards_) {
    // Unwrap the ring oldest-first, then drop all but the newest n.
    std::rotate(sh.log.begin(), sh.log.begin() + sh.log_head, sh.log.end());
    sh.log_head = 0;
    if (sh.log.size() > n) sh.log.erase(sh.log.begin(), sh.log.end() - n);
  }
}

Result<IdentInfo> Ubf::ident_with_retry(Shard& sh, HostId host, Proto proto,
                                        std::uint16_t port) {
  auto r = network_->ident_lookup(host, proto, port);
  if (degraded_ != UbfDegradedMode::retry_then_fail_closed) return r;
  // Only timeouts are worth re-asking: a responder that answered "nobody
  // owns that port" (ENOENT) is healthy and will say it again.
  for (unsigned attempt = 0;
       !r && r.error() == Errno::etimedout && attempt < backoff_.max_retries;
       ++attempt) {
    if (clock_ != nullptr) clock_->advance(backoff_.delay_ns(attempt));
    ++sh.stats.ident_retries;
    r = network_->ident_lookup(host, proto, port);
    if (r) ++sh.stats.ident_retry_successes;
  }
  return r;
}

UbfDecision Ubf::decide(const ConnRequest& req) {
  Shard& sh = shard_for(req);
  ++sh.stats.decisions;

  // Epoch check first: any UserDb mutation since this shard's cache was
  // filled discards all of it. Over-invalidation by design — the clear is
  // cheap and a stale allow after a revoke is impossible by construction.
  if (cache_enabled_ && sh.cache_epoch != users_->generation()) {
    ++sh.stats.cache_invalidations;
    sh.cache.clear();
    sh.cache_epoch = users_->generation();
  }

  // Ident exchange: who is listening locally, who is connecting remotely.
  auto listener =
      ident_with_retry(sh, req.dst_host, req.proto, req.dst_port);
  auto initiator =
      ident_with_retry(sh, req.src_host, req.proto, req.src_port);

  UbfLogEntry entry;
  entry.request = req;

  UbfDecision decision = UbfDecision::deny;
  bool from_cache = false;
  if (!listener || !initiator) {
    // An end could not be attributed. Classify the cause, then apply the
    // degraded-mode policy — fail closed unless explicitly configured to
    // the fail-open strawman.
    const Errno cause = !listener ? listener.error() : initiator.error();
    if (degraded_ == UbfDegradedMode::fail_open) {
      decision = UbfDecision::allow_fail_open;
      ++sh.stats.fail_open_allows;
    } else {
      if (cause == Errno::etimedout) {
        ++sh.stats.ident_timeout_drops;
      } else {
        ++sh.stats.ident_unattributed_drops;
      }
      ++sh.stats.ident_failures;
    }
  } else {
    entry.client_uid = initiator->uid;
    entry.server_uid = listener->uid;
    entry.server_egid = listener->egid;
    const CacheKey key{initiator->uid, listener->uid, listener->egid,
                       degraded_};
    if (const UbfDecision* hit =
            cache_enabled_ ? sh.cache.find(key) : nullptr;
        hit != nullptr) {
      // Memoized attributed decision: the directory-service membership
      // evaluation is skipped entirely. Valid because the epoch check
      // above proved the account database is unchanged since this entry
      // was computed.
      ++sh.stats.cache_hits;
      from_cache = true;
      decision = *hit;
    } else {
      if (cache_enabled_) ++sh.stats.cache_misses;
      if (initiator->uid == listener->uid) {
        decision = UbfDecision::allow_same_user;
      } else if (opts_.allow_group_peers &&
                 users_->is_member(initiator->uid, listener->egid)) {
        // Membership is evaluated against the account database (the real
        // daemon resolves the listener's egid and the initiator's group
        // list from the directory service).
        decision = UbfDecision::allow_group_member;
      }
      if (cache_enabled_) sh.cache.emplace(key, decision);
    }
  }

  switch (decision) {
    case UbfDecision::allow_same_user: ++sh.stats.allowed_same_user; break;
    case UbfDecision::allow_group_member: ++sh.stats.allowed_group; break;
    case UbfDecision::allow_fail_open: break;  // counted above
    case UbfDecision::deny: ++sh.stats.denied; break;
  }

  if (trace_ != nullptr) {
    const bool attributed =
        static_cast<bool>(listener) && static_cast<bool>(initiator);
    const bool cross_user =
        attributed && initiator->uid != listener->uid;
    // Same-user traffic is not a separation event; everything else —
    // cross-user verdicts, cached replays, and unattributed degraded-mode
    // fallbacks — is.
    if (!attributed || cross_user) {
      const char* knob = nullptr;
      if (decision == UbfDecision::deny) {
        knob = obs::knob::ubf;
      } else if (decision == UbfDecision::allow_group_member) {
        knob = obs::knob::ubf_group_peers;
      }
      trace_->record(obs::DecisionPoint::ubf_admission,
                     decision == UbfDecision::deny ? obs::Outcome::deny
                                                   : obs::Outcome::allow,
                     attributed ? initiator->uid : Uid{},
                     attributed ? initiator->egid : Gid{},
                     attributed ? listener->uid : Uid{},
                     req.proto == Proto::udp
                         ? obs::ChannelKind::udp_cross_user
                         : obs::ChannelKind::tcp_cross_user,
                     knob,
                     [&](std::string& out) {
                       out += "host ";
                       obs::append_uint(out, req.dst_host.value());
                       out += " port ";
                       obs::append_uint(out, req.dst_port);
                       out += req.proto == Proto::udp ? " udp" : " tcp";
                     },
                     from_cache);
    }
  }

  entry.decision = decision;
  if (sh.log.size() < log_limit_) {
    sh.log.push_back(entry);
  } else if (!sh.log.empty()) {
    // Full: overwrite the oldest entry in place.
    sh.log[sh.log_head] = entry;
    sh.log_head = (sh.log_head + 1) % sh.log.size();
  }
  return decision;
}

}  // namespace heus::net
