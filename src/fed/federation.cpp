#include "fed/federation.h"

#include <utility>

#include "simos/credentials.h"

namespace heus::fed {

Federation::Federation(FedOptions opts) : opts_(opts) {}

ClusterIdx Federation::add_cluster(std::string name, core::Cluster* cluster) {
  const ClusterIdx idx = static_cast<ClusterIdx>(members_.size());
  Member m;
  m.name = std::move(name);
  m.cluster = cluster;
  // Federated principals enter through a dedicated gateway host on the
  // member's own fabric, so the member's own UBF hook inspects every
  // federated flow exactly as it inspects local ones.
  m.gateway = cluster->network().add_host("fedgw-" + m.name);
  m.dtn = std::make_unique<xfer::StagingService>(
      &cluster->shared_fs(), &link_store_, &cluster->clock(),
      opts_.link_bytes_per_ns);
  m.dtn->set_retry(opts_.retry);
  members_.push_back(std::move(m));
  return idx;
}

void Federation::set_options(const FedOptions& opts) {
  opts_ = opts;
  for (Member& m : members_) m.dtn->set_retry(opts_.retry);
}

void Federation::advance_all(std::int64_t delta_ns) {
  for (Member& m : members_) m.cluster->clock().advance(delta_ns);
}

void Federation::advance_all_to(common::SimTime t) {
  for (Member& m : members_) m.cluster->clock().advance_to(t);
}

BreakerState Federation::breaker_state(ClusterIdx local,
                                       ClusterIdx peer) const {
  auto it = links_.find(pair_key(local, peer));
  return it == links_.end() ? BreakerState::closed : it->second.state;
}

void Federation::record_deny(ClusterIdx at, const OpContext& ctx,
                             const char* knob) {
  members_.at(at).cluster->trace().record(
      obs::DecisionPoint::fed_admission, obs::Outcome::deny, ctx.subject,
      ctx.subject_gid, ctx.object_owner, ctx.channel, knob,
      [&](std::string& out) { out += ctx.object; });
}

const lifecycle::Transition* Federation::fire_breaker(ClusterIdx local,
                                                      PeerLink& link,
                                                      BreakerEvent event,
                                                      bool env_outcome,
                                                      const OpContext& ctx) {
  // The ubf-governs policy guard reads the member's live policy; the
  // trip-threshold environment guard is answered by the caller.
  const bool ubf_on = members_.at(local).cluster->policy().ubf;
  lifecycle::StateId s = static_cast<lifecycle::StateId>(link.state);
  const lifecycle::Transition* t = breaker_lc_.fire(
      s, static_cast<lifecycle::EventId>(event),
      [&](const lifecycle::Guard& g) {
        return g.kind == lifecycle::GuardKind::policy ? ubf_on : env_outcome;
      },
      ctx.subject, ctx.subject_gid, ctx.object_owner);
  link.state = static_cast<BreakerState>(s);
  return t;
}

Result<void> Federation::exchange_once(ClusterIdx from, ClusterIdx to) {
  common::SimClock& clk = members_.at(from).cluster->clock();
  if (faults_ == nullptr) {
    clk.advance(opts_.link_rtt_ns);
    return ok_result();
  }
  if (faults_->partitioned(from, to)) {
    clk.advance(opts_.link_timeout_ns);
    return Errno::ehostunreach;
  }
  // Request and reply are independent loss draws.
  const bool lost_req = faults_->drop_message(from, to);
  const bool lost_rep = !lost_req && faults_->drop_message(to, from);
  if (lost_req || lost_rep) {
    clk.advance(opts_.link_timeout_ns);
    return Errno::etimedout;
  }
  const std::int64_t rtt = opts_.link_rtt_ns + faults_->extra_ns(from, to) +
                           faults_->extra_ns(to, from);
  if (rtt >= opts_.link_timeout_ns) {
    clk.advance(opts_.link_timeout_ns);
    return Errno::etimedout;
  }
  clk.advance(rtt);
  return ok_result();
}

Result<void> Federation::guarded_exchange(ClusterIdx local, ClusterIdx peer,
                                          const OpContext& ctx) {
  ++stats_.remote_ops;
  PeerLink& link = link_between(local, peer);
  common::SimClock& clk = members_.at(local).cluster->clock();

  if (link.state == BreakerState::open) {
    if (link.cooldown_until_ns >= 0 &&
        clk.now().ns >= link.cooldown_until_ns) {
      fire_breaker(local, link, BreakerEvent::cooldown, false, ctx);
      link.cooldown_until_ns = -1;
    } else {
      // Fail closed, fast: no remote traffic against a peer known dead.
      fire_breaker(local, link, BreakerEvent::remote_op, false, ctx);
      ++stats_.denied_breaker;
      record_deny(local, ctx, obs::knob::fed_breaker);
      return Errno::ehostunreach;
    }
  }

  // Half-open allows exactly one probe; closed gets the retry budget.
  const bool probe = link.state == BreakerState::half_open;
  fire_breaker(local, link, BreakerEvent::remote_op, false, ctx);
  auto r = exchange_once(local, peer);
  if (!probe) {
    for (unsigned attempt = 0; !r && attempt < opts_.retry.max_retries;
         ++attempt) {
      clk.advance(opts_.retry.delay_ns(attempt));
      ++stats_.retries;
      r = exchange_once(local, peer);
      if (r) ++stats_.retry_successes;
    }
  }

  if (!r) {
    if (probe) {
      fire_breaker(local, link, BreakerEvent::failure, false, ctx);
      ++stats_.breaker_reopens;
    } else {
      ++link.consecutive_failures;
      const bool trip = link.consecutive_failures >= opts_.trip_threshold;
      fire_breaker(local, link, BreakerEvent::failure, trip, ctx);
      if (trip) ++stats_.breaker_trips;
    }
    if (link.state == BreakerState::open) {
      link.cooldown_until_ns = clk.now().ns + opts_.cooldown_ns;
    }
    ++stats_.denied_link;
    record_deny(local, ctx, obs::knob::fed_fail_closed);
    return r.error();
  }

  ++stats_.exchanges_ok;
  if (probe) ++stats_.breaker_recoveries;
  fire_breaker(local, link, BreakerEvent::success, false, ctx);
  link.consecutive_failures = 0;
  return ok_result();
}

Result<RemoteIdentity> Federation::remote_ident_ctx(ClusterIdx local,
                                                    ClusterIdx peer,
                                                    Uid peer_uid,
                                                    const OpContext& ctx) {
  auto gate = guarded_exchange(local, peer, ctx);
  if (!gate) return gate.error();
  const simos::User* u =
      members_.at(peer).cluster->users().find_user(peer_uid);
  if (u == nullptr) return Errno::esrch;
  return RemoteIdentity{u->name, u->uid, u->private_group};
}

Result<RemoteIdentity> Federation::remote_ident(ClusterIdx local,
                                                ClusterIdx peer,
                                                Uid peer_uid) {
  OpContext ctx;
  ctx.subject = peer_uid;
  ctx.object_owner = peer_uid;
  ctx.object = "ident " + cluster_name(peer) + " uid " +
               std::to_string(peer_uid.value());
  return remote_ident_ctx(local, peer, peer_uid, ctx);
}

Result<simos::Credentials> Federation::map_identity(
    ClusterIdx enforcing, ClusterIdx home, const simos::Credentials& cred,
    const OpContext& ctx) {
  auto ident = remote_ident_ctx(enforcing, home, cred.uid, ctx);
  std::string name;
  if (ident) {
    ++stats_.verified;
    name = ident->name;
  } else if (ident.error() == Errno::esrch) {
    // The claimed uid is unknown to its alleged home cluster: a spoofed
    // or stale claim. Deterministic identity denial, attributed to the
    // UBF rule that unattributable principals are dropped.
    ++stats_.denied_spoofed;
    record_deny(enforcing, ctx, obs::knob::ubf);
    return Errno::eperm;
  } else if (opts_.fail_open) {
    // Strawman: the original request carried the claimed account name
    // (stamped by the home cluster before the link failed); relay it
    // without verification. This is exactly the admission the default
    // fail-closed rule forbids — counted so experiments can price it.
    const simos::User* claimed =
        members_.at(home).cluster->users().find_user(cred.uid);
    if (claimed == nullptr) return Errno::eperm;
    ++stats_.fail_open_admits;
    name = claimed->name;
  } else {
    // Fail closed. The deny Decision naming the federation knob was
    // recorded by guarded_exchange on the enforcing cluster's trace.
    return ident.error();
  }

  const simos::User* local =
      members_.at(enforcing).cluster->users().find_user_by_name(name);
  if (local == nullptr) {
    // Verified principal, but no account here: federation maps names,
    // it never mints accounts.
    ++stats_.denied_no_account;
    record_deny(enforcing, ctx, obs::knob::ubf);
    return Errno::eperm;
  }
  auto mapped = simos::login(members_.at(enforcing).cluster->users(),
                             local->uid);
  if (!mapped) return mapped.error();
  return *mapped;
}

Result<FlowId> Federation::connect(ClusterIdx src,
                                   const simos::Credentials& cred,
                                   ClusterIdx dst, HostId dst_host,
                                   net::Proto proto,
                                   std::uint16_t dst_port) {
  OpContext ctx;
  ctx.subject = cred.uid;
  ctx.subject_gid = cred.egid;
  ctx.channel = obs::ChannelKind::tcp_cross_user;
  ctx.object = "connect " + cluster_name(src) + "->" + cluster_name(dst) +
               " host " + std::to_string(dst_host.value()) + " port " +
               std::to_string(dst_port);
  // Transport leg: the home cluster's daemon reaches the peer (its
  // breaker toward dst governs; a denial lands on src's trace).
  auto fwd = guarded_exchange(src, dst, ctx);
  if (!fwd) return fwd.error();
  // Enforcement leg: dst verifies the claimed identity with src over the
  // link (its breaker toward src governs) and maps the name locally.
  auto mapped = map_identity(dst, src, cred, ctx);
  if (!mapped) return mapped.error();
  // Final admission by dst's own fabric + UBF, from the gateway host.
  auto flow = members_.at(dst).cluster->network().connect(
      members_.at(dst).gateway, *mapped, Pid{}, dst_host, proto, dst_port);
  if (flow) ++stats_.connects;
  return flow;
}

Result<std::string> Federation::portal_request(ClusterIdx src,
                                               const simos::Credentials& cred,
                                               ClusterIdx dst,
                                               portal::AppId app,
                                               const std::string&
                                                   http_request) {
  OpContext ctx;
  ctx.subject = cred.uid;
  ctx.subject_gid = cred.egid;
  ctx.channel = obs::ChannelKind::portal_foreign_app;
  ctx.object = "portal " + cluster_name(src) + "->" + cluster_name(dst) +
               " app " + std::to_string(app.value());
  auto fwd = guarded_exchange(src, dst, ctx);
  if (!fwd) return fwd.error();
  auto mapped = map_identity(dst, src, cred, ctx);
  if (!mapped) return mapped.error();
  auto response =
      members_.at(dst).cluster->portal().federated_request(*mapped, app,
                                                           http_request);
  if (response) ++stats_.portal_forwards;
  return response;
}

Result<std::uint64_t> Federation::transfer(ClusterIdx src,
                                           const simos::Credentials& cred,
                                           const std::string& src_path,
                                           ClusterIdx dst,
                                           const std::string& dst_path) {
  OpContext ctx;
  ctx.subject = cred.uid;
  ctx.subject_gid = cred.egid;
  ctx.object = "transfer " + cluster_name(src) + ":" + src_path + " -> " +
               cluster_name(dst) + ":" + dst_path;
  auto fwd = guarded_exchange(src, dst, ctx);
  if (!fwd) return fwd.error();
  auto mapped = map_identity(dst, src, cred, ctx);
  if (!mapped) return mapped.error();

  Member& a = members_.at(src);
  Member& b = members_.at(dst);
  const std::string key = "fedlink/" + a.name + "/" +
                          std::to_string(cred.uid.value()) + src_path;
  // Outbound half: read from src's shared FS as the *requesting* user —
  // src-side DAC/smask applies to what may leave the cluster.
  auto out = a.dtn->submit(cred, xfer::Direction::stage_out, key, src_path);
  if (!out) return out.error();
  a.dtn->process_all();
  const xfer::Transfer* ot = a.dtn->find(*out);
  if (ot == nullptr || ot->state != xfer::TransferState::done) {
    ++stats_.transfers_failed;
    link_store_.erase(key);
    return ot != nullptr && ot->error != Errno::ok ? ot->error : Errno::eio;
  }
  // Inbound half: land on dst's shared FS as the *mapped* account —
  // dst-side DAC/smask applies to where it may land.
  auto in = b.dtn->submit(*mapped, xfer::Direction::stage_in, key, dst_path);
  if (!in) {
    link_store_.erase(key);
    return in.error();
  }
  b.dtn->process_all();
  const xfer::Transfer* it = b.dtn->find(*in);
  // The link buffer is a staging area, not storage: drain it so a later
  // transfer with a guessable key can never read another tenant's bytes.
  link_store_.erase(key);
  if (it == nullptr || it->state != xfer::TransferState::done) {
    ++stats_.transfers_failed;
    return it != nullptr && it->error != Errno::ok ? it->error : Errno::eio;
  }
  ++stats_.transfers_done;
  stats_.bytes_moved += it->bytes;
  return it->bytes;
}

// ---- FedFaultInjector ---------------------------------------------------

FedFaultInjector::FedFaultInjector(Federation* fed, fault::FaultPlan plan,
                                   std::uint64_t seed)
    : fed_(fed), plan_(std::move(plan)), rng_(seed) {}

FedFaultInjector::~FedFaultInjector() { disarm(); }

void FedFaultInjector::arm() {
  if (armed_) return;
  fed_->set_link_faults(this);
  armed_ = true;
}

void FedFaultInjector::disarm() {
  if (!armed_) return;
  fed_->set_link_faults(nullptr);
  armed_ = false;
}

common::SimTime FedFaultInjector::now_at(ClusterIdx origin) const {
  return fed_->cluster(origin).clock().now();
}

bool FedFaultInjector::partitioned(ClusterIdx a, ClusterIdx b) const {
  const common::SimTime t = now_at(a);
  for (const fault::FaultEvent& e : plan_.events()) {
    if (e.kind != fault::FaultKind::link_partition || !e.active_at(t)) {
      continue;
    }
    const bool a_in_a = e.targets_cluster(a);
    const bool b_in_a = e.targets_cluster(b);
    auto in_b = [&e](ClusterIdx c) {
      for (const std::uint32_t x : e.clusters_b) {
        if (x == c) return true;
      }
      return false;
    };
    if ((a_in_a && in_b(b)) || (b_in_a && in_b(a))) return true;
  }
  return false;
}

std::int64_t FedFaultInjector::extra_ns(ClusterIdx a, ClusterIdx b) const {
  const common::SimTime t = now_at(a);
  std::int64_t extra = 0;
  for (const fault::FaultEvent& e : plan_.events()) {
    if (e.kind != fault::FaultKind::link_latency || !e.active_at(t)) {
      continue;
    }
    if (e.targets_cluster(a) || e.targets_cluster(b)) extra += e.extra_ns;
  }
  return extra;
}

bool FedFaultInjector::drop_message(ClusterIdx a, ClusterIdx b) {
  const common::SimTime t = now_at(a);
  for (const fault::FaultEvent& e : plan_.events()) {
    if (e.kind != fault::FaultKind::link_loss || !e.active_at(t)) continue;
    if (!(e.targets_cluster(a) || e.targets_cluster(b))) continue;
    if (rng_.uniform01() < e.probability) return true;
  }
  return false;
}

}  // namespace heus::fed
