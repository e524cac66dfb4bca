#include "net/network.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace heus::net {

namespace {
/// Active ShardScope bucket on this thread; -1 = unscoped (serial phase).
thread_local int tl_shard_scope = -1;
}  // namespace

ShardScope::ShardScope(std::uint32_t bucket) : prev_(tl_shard_scope) {
  tl_shard_scope = static_cast<int>(bucket);
}

ShardScope::~ShardScope() { tl_shard_scope = prev_; }

int ShardScope::current() { return tl_shard_scope; }

void Network::assert_scope(std::uint32_t b) {
  if (tl_shard_scope >= 0 && tl_shard_scope != static_cast<int>(b)) {
    throw std::logic_error(
        "net: operation touches a bucket outside the thread's ShardScope");
  }
}

void Network::assert_serial_phase() {
  if (tl_shard_scope >= 0) {
    throw std::logic_error(
        "net: serial-phase operation called inside a ShardScope");
  }
}

HostId Network::add_host(const std::string& name) {
  const HostId id{static_cast<std::uint32_t>(hosts_.size())};
  HostState hs;
  hs.name = name;
  hosts_.push_back(std::move(hs));
  return id;
}

std::optional<HostId> Network::find_host(const std::string& name) const {
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    if (hosts_[i].name == name) {
      return HostId{static_cast<std::uint32_t>(i)};
    }
  }
  return std::nullopt;
}

const std::string& Network::host_name(HostId h) const {
  return host(h).name;
}

void Network::set_hook(FirewallHook hook, std::uint16_t inspect_from_port) {
  hook_ = std::move(hook);
  inspect_from_port_ = inspect_from_port;
}

void Network::clear_hook() { hook_ = nullptr; }

void Network::enable_sharding(std::uint32_t groups,
                              std::vector<std::uint32_t> host_group) {
  // Every check runs before any state changes, in every build type.
  if (groups == 0) {
    throw std::invalid_argument("enable_sharding: zero node groups");
  }
  for (const std::uint32_t g : host_group) {
    // An entry of `groups` or more would file its host under the cross
    // bucket (or past it).
    if (g >= groups) {
      throw std::invalid_argument(
          "enable_sharding: host_group entry out of range");
    }
  }
  // Resharding a live flow table would have to re-tag every id, and the
  // hosts' endpoint slabs would still name the dropped flows; requiring
  // an empty table keeps every id a pure function of the post-shard
  // workload.
  if (flow_count() != 0) {
    throw std::logic_error("enable_sharding requires an empty flow table");
  }
  // The freed-port rings park their storage in the old buckets' arenas;
  // they are empty while no flow has ever closed, so their storage can
  // simply be dropped before the arenas go away.
  for (const HostState& hs : hosts_) {
    if (!hs.freed_ports.empty()) {
      throw std::logic_error(
          "enable_sharding requires empty freed-port rings");
    }
  }
  groups_ = groups;
  host_group_ = std::move(host_group);
  for (HostState& hs : hosts_) hs.freed_ports = {};
  buckets_.clear();
  buckets_.resize(static_cast<std::size_t>(groups_) + 1);
}

std::int64_t Network::drain_charges() {
  assert_serial_phase();
  std::int64_t total = 0;
  for (Bucket& b : buckets_) {
    total += b.charged_ns;
    b.charged_ns = 0;
  }
  return total;
}

NetworkStats Network::stats() const {
  NetworkStats s;
  for (const Bucket& b : buckets_) {
    const NetworkStats& x = b.stats;
    s.connections_attempted += x.connections_attempted;
    s.connections_established += x.connections_established;
    s.connections_refused += x.connections_refused;
    s.connections_dropped += x.connections_dropped;
    s.hook_invocations += x.hook_invocations;
    s.conntrack_hits += x.conntrack_hits;
    s.packets_delivered += x.packets_delivered;
    s.ident_queries += x.ident_queries;
    s.ident_timeouts += x.ident_timeouts;
    s.partition_refusals += x.partition_refusals;
    s.packets_dropped += x.packets_dropped;
    s.flows_reset_identity_changed += x.flows_reset_identity_changed;
    s.flows_expired += x.flows_expired;
    s.gc_runs += x.gc_runs;
    s.gc_entries_touched += x.gc_entries_touched;
    s.ephemeral_exhausted += x.ephemeral_exhausted;
  }
  return s;
}

void Network::charge(Bucket& b, std::int64_t ns) {
  if (defer_charges_) {
    b.charged_ns += ns;
    return;
  }
  if (mutable_clock_ != nullptr) mutable_clock_->advance(ns);
}

Network::PortRow& Network::held_port(HostState& hs, std::uint16_t port) {
  PortRow* row = hs.ports.find(port);
  if (row == nullptr) {
    throw std::logic_error("net: a held port has no port row");
  }
  return *row;
}

void Network::release_port(HostId h, std::uint16_t port, PortRow& row) {
  if (--row.refs != 0) return;
  HostState& hs = host(h);
  hs.ports.erase(port);
  // Return to the free pool only once the cursor has passed it; ports
  // still ahead of the cursor are found by the cursor itself (a second
  // pool entry would double-allocate).
  if (port >= kEphemeralLo && port <= kEphemeralHi &&
      port < hs.ephemeral_cursor) {
    hs.freed_ports.push_back(bucket(group_of(h)).arena, port);
  }
}

Result<void> Network::listen(HostId h, const simos::Credentials& cred,
                             Pid pid, Proto proto, std::uint16_t port) {
  if (h.value() >= hosts_.size()) return Errno::einval;
  if (port == 0) return Errno::einval;
  assert_scope(group_of(h));
  // Privileged ports require root, as on Linux.
  if (port < 1024 && !cred.is_root()) return Errno::eacces;
  HostState& hs = host(h);
  const auto key = pkey(proto, port);
  if (hs.listeners.contains(key)) return Errno::eaddrinuse;
  hs.listeners.emplace(key, Listener{cred, pid, port, proto});
  ++hs.ports[port].refs;
  return ok_result();
}

Result<void> Network::close_listener(HostId h, Proto proto,
                                     std::uint16_t port) {
  if (h.value() >= hosts_.size()) return Errno::einval;
  assert_scope(group_of(h));
  HostState& hs = host(h);
  if (hs.listeners.erase(pkey(proto, port)) == 0) {
    return Errno::enoent;
  }
  release_port(h, port, held_port(hs, port));
  return ok_result();
}

const Listener* Network::find_listener(HostId h, Proto proto,
                                       std::uint16_t port) const {
  if (h.value() >= hosts_.size()) return nullptr;
  return host(h).listeners.find(pkey(proto, port));
}

std::uint16_t Network::alloc_ephemeral_port(HostState& h) {
  // Freed ports first (FIFO keeps reuse distance long, like the kernel's
  // cursor), with lazy validation against the port rows: a pooled port a
  // listener has since bound is discarded, not handed out.
  while (!h.freed_ports.empty()) {
    const std::uint16_t p = h.freed_ports.pop_front();
    if (!h.ports.contains(p)) return p;
  }
  // Then the never-allocated remainder of the range.
  while (h.ephemeral_cursor <= kEphemeralHi) {
    const auto p = static_cast<std::uint16_t>(h.ephemeral_cursor++);
    if (!h.ports.contains(p)) return p;
  }
  return 0;  // pool exhausted — caller reports EADDRNOTAVAIL
}

std::uint32_t Network::add_endpoint(HostId h, FlowId flow, Uid uid,
                                    Proto proto, std::uint16_t port) {
  HostState& hs = host(h);
  std::uint32_t s = hs.free_slot;
  if (s == kNoSlot) {
    s = static_cast<std::uint32_t>(hs.endpoints.size());
    hs.endpoints.emplace_back();
  } else {
    hs.free_slot = hs.endpoints[s].port_next;
  }
  // Newest on its (port, proto) list, which stays in insertion order;
  // first on its uid's (teardown sorts, so order there is free).
  PortRow& row = hs.ports[port];
  ++row.refs;
  const auto p = static_cast<std::size_t>(proto);
  const std::uint32_t prev = std::exchange(row.newest[p], s);
  (prev != kNoSlot ? hs.endpoints[prev].port_next : row.oldest[p]) = s;
  const auto [first, fresh] = hs.uid_first.emplace(uid, s);
  const std::uint32_t next = fresh ? kNoSlot : std::exchange(*first, s);
  if (next != kNoSlot) hs.endpoints[next].uid_prev = s;
  hs.endpoints[s] =
      Endpoint{flow, uid, port, proto, prev, kNoSlot, kNoSlot, next};
  return s;
}

void Network::drop_endpoint(HostId h, std::uint32_t s, FlowId flow) {
  HostState& hs = host(h);
  if (s >= hs.endpoints.size() || hs.endpoints[s].flow != flow) {
    throw std::logic_error("net: flow endpoint slot is not the flow's");
  }
  Endpoint& e = hs.endpoints[s];
  PortRow& row = held_port(hs, e.port);
  const auto p = static_cast<std::size_t>(e.proto);
  (e.port_prev != kNoSlot ? hs.endpoints[e.port_prev].port_next
                          : row.oldest[p]) = e.port_next;
  (e.port_next != kNoSlot ? hs.endpoints[e.port_next].port_prev
                          : row.newest[p]) = e.port_prev;
  if (e.uid_prev != kNoSlot) {
    hs.endpoints[e.uid_prev].uid_next = e.uid_next;
  } else {
    std::uint32_t* first = hs.uid_first.find(e.uid);
    if (first == nullptr || *first != s) {
      throw std::logic_error("net: flow endpoint is not on its uid's list");
    }
    if (e.uid_next != kNoSlot) {
      *first = e.uid_next;
    } else {
      hs.uid_first.erase(e.uid);
    }
  }
  if (e.uid_next != kNoSlot) hs.endpoints[e.uid_next].uid_prev = e.uid_prev;
  e.flow = FlowId{};
  e.port_next = hs.free_slot;
  hs.free_slot = s;
  release_port(h, e.port, row);
}

void Network::destroy_flow(Bucket& b, std::size_t row) {
  const FlowHot& f = b.table.hot(row);
  b.conntrack.erase(ConntrackKey{f.client_host, f.client_port,
                                 f.server_host, f.server_port,
                                 static_cast<int>(f.proto)});
  // Client end first: when both ends' ports return to one host's pool,
  // the freed-port FIFO hands them out again in that order.
  const FlowCold& c = b.table.cold(row);
  drop_endpoint(f.client_host, c.client_slot, f.id);
  drop_endpoint(f.server_host, c.server_slot, f.id);
  b.table.erase(row, b.arena);
}

std::size_t Network::teardown_flows(std::vector<FlowId>& dead,
                                    NetworkStats& st) {
  // A flow with both ends on the host (under one uid, for a per-uid
  // sweep) was collected twice.
  std::sort(dead.begin(), dead.end());
  dead.erase(std::unique(dead.begin(), dead.end()), dead.end());
  for (const FlowId id : dead) {
    ++st.gc_entries_touched;
    Bucket& B = bucket_of(id);
    const std::size_t row = B.table.find(id);
    if (row == FlowTable::npos) {
      throw std::logic_error("net: endpoint names a flow that is gone");
    }
    fire_flow(B.table.hot(row), FlowEvent::teardown, /*outcome=*/false);
    destroy_flow(B, row);
  }
  return dead.size();
}

const lifecycle::Transition* Network::fire_flow(FlowHot& f, FlowEvent event,
                                                bool outcome) {
  lifecycle::StateId s = id(f.state);
  const lifecycle::Transition* t = flow_lc_.fire(
      s, id(event), [outcome](const lifecycle::Guard&) { return outcome; },
      f.client_uid, Gid{}, f.server_uid);
  f.state = static_cast<FlowState>(s);
  return t;
}

void Network::touch_flow(FlowHot& f) {
  if (flow_ttl_ns_ <= 0) return;
  const std::int64_t deadline = clock_->now().ns + flow_ttl_ns_;
  if (f.expires_at_ns == 0) {
    // First time under a TTL: this flow has no heap entry yet.
    bucket_of(f.id).expiry_heap.push(ExpiryEntry{deadline, f.id});
  }
  // Otherwise the existing entry is refreshed lazily: gc() re-pushes it
  // at the new deadline when the stale one surfaces.
  f.expires_at_ns = deadline;
}

Result<FlowId> Network::connect(HostId src_host,
                                const simos::Credentials& cred, Pid pid,
                                HostId dst_host, Proto proto,
                                std::uint16_t dst_port) {
  (void)pid;  // retained in the signature: a fuller ident would report it
  if (src_host.value() >= hosts_.size() ||
      dst_host.value() >= hosts_.size()) {
    return Errno::enetunreach;
  }
  // Intra-group connects belong to the shared group's bucket; cross-group
  // connects land in the cross bucket, which no ShardScope may touch.
  const std::uint32_t bi = op_bucket(src_host, dst_host);
  assert_scope(bi);
  Bucket& B = bucket(bi);
  ++B.stats.connections_attempted;
  std::int64_t cost = latency_.base_syn_ns;

  // A partitioned fabric never completes the handshake: the SYN (or the
  // SYN-ACK) is lost and the client sees the route as unreachable.
  if (faults_ != nullptr && faults_->partitioned(src_host, dst_host)) {
    ++B.stats.partition_refusals;
    B.last_connect_cost_ns = cost;
    charge(B, cost);
    return Errno::enetunreach;
  }

  const Listener* listener = find_listener(dst_host, proto, dst_port);
  if (listener == nullptr) {
    ++B.stats.connections_refused;
    B.last_connect_cost_ns = cost;
    charge(B, cost);
    return Errno::econnrefused;
  }

  HostState& src = host(src_host);
  const std::uint16_t src_port = alloc_ephemeral_port(src);
  if (src_port == 0) {
    ++B.stats.ephemeral_exhausted;
    return Errno::eaddrnotavail;
  }

  // Register the nascent flow *before* the hook runs so the UBF's ident
  // query against the initiating host can see who owns the source port —
  // this mirrors the real daemon's ident exchange.
  const FlowId id{(static_cast<std::uint64_t>(bi) << kBucketShift) |
                  B.next_local++};
  FlowHot flow;
  flow.id = id;
  flow.proto = proto;
  flow.client_host = src_host;
  flow.client_port = src_port;
  flow.server_host = dst_host;
  flow.server_port = dst_port;
  flow.client_uid = cred.uid;
  flow.server_uid = listener->cred.uid;
  FlowCold& ends = B.table.cold(B.table.insert(flow));
  ends.client_slot = add_endpoint(src_host, id, cred.uid, proto, src_port);
  ends.server_slot =
      add_endpoint(dst_host, id, flow.server_uid, proto, dst_port);

  const bool inspected = hook_ && dst_port >= inspect_from_port_;
  Verdict verdict = Verdict::accept;
  if (inspected) {
    ++B.stats.hook_invocations;
    cost += latency_.hook_dispatch_ns;
    verdict =
        hook_(ConnRequest{src_host, src_port, dst_host, dst_port, proto});
    // Ident costs are charged by ident_lookup itself via stats; the
    // latency is attributed here: one local + one remote query.
    cost += latency_.ident_local_ns;
    cost += (src_host == dst_host) ? latency_.ident_local_ns
                                   : latency_.ident_remote_ns;
  } else if (trace_ != nullptr && cred.uid != listener->cred.uid) {
    // No firewall hook saw this cross-user flow — either no UBF is
    // attached or the port is below the inspection floor. That silent
    // non-enforcement is precisely what the trace must make visible.
    trace_->record(obs::DecisionPoint::net_uninspected, obs::Outcome::allow,
                   cred.uid, cred.egid, listener->cred.uid,
                   proto == Proto::udp ? obs::ChannelKind::udp_cross_user
                                       : obs::ChannelKind::tcp_cross_user,
                   nullptr, [&](std::string& out) {
                     out += "host ";
                     obs::append_uint(out, dst_host.value());
                     out += " port ";
                     obs::append_uint(out, dst_port);
                     out += proto == Proto::udp ? " udp" : " tcp";
                   });
  }

  // The hook may itself have torn flows down, this one included (say, by
  // calling close_sockets_of), and an erase moves rows: find it again.
  const std::size_t fi = B.table.find(id);
  if (verdict == Verdict::drop) {
    if (fi != FlowTable::npos) {
      fire_flow(B.table.hot(fi), FlowEvent::hook_drop, /*outcome=*/true);
      destroy_flow(B, fi);
    }
    ++B.stats.connections_dropped;
    B.last_connect_cost_ns = cost;
    charge(B, cost);
    return Errno::econnrefused;  // client observes refusal/timeout
  }
  if (fi == FlowTable::npos) {
    // Gone before its accept landed: fail closed, with no conntrack
    // entry or expiry deadline left behind.
    B.last_connect_cost_ns = cost;
    charge(B, cost);
    return Errno::econnreset;
  }
  B.conntrack.emplace(
      ConntrackKey{src_host, src_port, dst_host, dst_port,
                   static_cast<int>(proto)},
      id);
  // Admission through the table: an inspected flow establishes on the
  // hook's accept verdict (guard `ubf-inspects` true); an uninspected
  // one takes the annotated admit-uninspected row (guard false).
  fire_flow(B.table.hot(fi),
            inspected ? FlowEvent::hook_accept : FlowEvent::admit_uninspected,
            inspected);
  touch_flow(B.table.hot(fi));
  ++B.stats.connections_established;
  B.last_connect_cost_ns = cost;
  charge(B, cost);
  return id;
}

Result<void> Network::send(FlowId id, FlowEnd from, std::string payload) {
  const std::uint32_t bi = flow_bucket(id);
  if (bi >= buckets_.size()) return Errno::ebadf;
  assert_scope(bi);
  Bucket& B = bucket(bi);
  const std::size_t fi = B.table.find(id);
  if (fi == FlowTable::npos) return Errno::ebadf;
  FlowHot& f = B.table.hot(fi);
  if (f.state != FlowState::established) return Errno::enotconn;

  // Established path: a conntrack lookup and delivery; the firewall hook
  // is *not* consulted (the zero-overhead property the paper relies on).
  // A flow whose tuple has no entry, or one naming another flow, would
  // be delivering outside the table that admitted it.
  const FlowId* ct =
      B.conntrack.find(ConntrackKey{f.client_host, f.client_port,
                                    f.server_host, f.server_port,
                                    static_cast<int>(f.proto)});
  if (ct == nullptr || *ct != id) {
    throw std::logic_error(
        "net: established flow without its conntrack entry");
  }
  ++B.stats.conntrack_hits;

  // Fail-safe on the fast path: the conntrack entry was admitted against
  // the listener identity at connect() time. If the server port is now
  // owned by a *different* uid (the original listener died — e.g. while
  // the hosts were partitioned — and someone else bound the port), the
  // entry is stale and must not keep bypassing the firewall hook. Reset
  // the flow; a legitimate peer reconnects and traverses the hook afresh.
  if (const Listener* l =
          find_listener(f.server_host, f.proto, f.server_port);
      l != nullptr && l->cred.uid != f.server_uid) {
    ++B.stats.flows_reset_identity_changed;
    const std::int64_t reset_cost = latency_.conntrack_lookup_ns;
    B.last_send_cost_ns = reset_cost;
    charge(B, reset_cost);
    fire_flow(f, FlowEvent::identity_reset, /*outcome=*/false);
    destroy_flow(B, fi);
    return Errno::econnreset;
  }

  // Packet loss / partition on the established path: the segment vanishes
  // and the sender's retransmits eventually give up.
  if (faults_ != nullptr &&
      (faults_->partitioned(f.client_host, f.server_host) ||
       faults_->drop_packet(f.client_host, f.server_host))) {
    ++B.stats.packets_dropped;
    const std::int64_t drop_cost =
        latency_.conntrack_lookup_ns + latency_.per_packet_ns;
    B.last_send_cost_ns = drop_cost;
    charge(B, drop_cost);
    return Errno::etimedout;
  }
  ++B.stats.packets_delivered;
  FlowCold& c = B.table.cold(fi);
  c.bytes += payload.size();
  const auto serialization_ns = static_cast<std::int64_t>(
      static_cast<double>(payload.size()) / latency_.fabric_bytes_per_ns);
  if (from == FlowEnd::client) {
    c.to_server.push_back(B.arena, std::move(payload));
  } else {
    c.to_client.push_back(B.arena, std::move(payload));
  }
  B.last_send_cost_ns = latency_.conntrack_lookup_ns +
                        latency_.per_packet_ns + serialization_ns;
  charge(B, B.last_send_cost_ns);
  fire_flow(f, FlowEvent::activity, /*outcome=*/false);
  touch_flow(f);  // activity refreshes the idle-expiry deadline
  return ok_result();
}

Result<std::string> Network::recv(FlowId id, FlowEnd at) {
  const std::uint32_t bi = flow_bucket(id);
  if (bi >= buckets_.size()) return Errno::ebadf;
  assert_scope(bi);
  Bucket& B = bucket(bi);
  const std::size_t fi = B.table.find(id);
  if (fi == FlowTable::npos) return Errno::ebadf;
  FlowCold& c = B.table.cold(fi);
  auto& queue = (at == FlowEnd::server) ? c.to_server : c.to_client;
  if (queue.empty()) return Errno::eagain;
  return queue.pop_front();
}

Result<void> Network::close(FlowId id) {
  const std::uint32_t bi = flow_bucket(id);
  if (bi >= buckets_.size()) return Errno::ebadf;
  assert_scope(bi);
  Bucket& B = bucket(bi);
  const std::size_t fi = B.table.find(id);
  if (fi == FlowTable::npos) return Errno::ebadf;
  fire_flow(B.table.hot(fi), FlowEvent::teardown, /*outcome=*/false);
  destroy_flow(B, fi);
  return ok_result();
}

std::optional<Flow> Network::find_flow(FlowId id) const {
  const std::uint32_t bi = flow_bucket(id);
  if (bi >= buckets_.size()) return std::nullopt;
  const Bucket& B = bucket(bi);
  const std::size_t fi = B.table.find(id);
  if (fi == FlowTable::npos) return std::nullopt;
  const FlowHot& h = B.table.hot(fi);
  const FlowCold& c = B.table.cold(fi);
  Flow f;
  f.id = h.id;
  f.proto = h.proto;
  f.client_host = h.client_host;
  f.client_port = h.client_port;
  f.server_host = h.server_host;
  f.server_port = h.server_port;
  f.client_uid = h.client_uid;
  f.server_uid = h.server_uid;
  f.state = h.state;
  f.to_server_len = c.to_server.size();
  f.to_client_len = c.to_client.size();
  f.bytes = c.bytes;
  f.expires_at_ns = h.expires_at_ns;
  return f;
}

std::size_t Network::gc() {
  if (flow_ttl_ns_ <= 0) return 0;
  std::size_t expired = 0;
  for (std::uint32_t b = 0; b < bucket_count(); ++b) {
    expired += gc_bucket(b);
  }
  return expired;
}

std::size_t Network::gc_bucket(std::uint32_t bi) {
  if (flow_ttl_ns_ <= 0) return 0;
  assert_scope(bi);
  Bucket& B = bucket(bi);
  ++B.stats.gc_runs;
  const std::int64_t now = clock_->now().ns;
  std::size_t expired = 0;
  while (!B.expiry_heap.empty() &&
         B.expiry_heap.top().deadline_ns <= now) {
    const ExpiryEntry e = B.expiry_heap.top();
    B.expiry_heap.pop();
    ++B.stats.gc_entries_touched;
    const std::size_t fi = B.table.find(e.flow);
    if (fi == FlowTable::npos) continue;  // already closed; stale entry
    FlowHot& f = B.table.hot(fi);
    // The table decides teardown eligibility: gc-due on a revived flow
    // resolves to the reschedule self-loop, otherwise to expiry. A flow
    // closed earlier never reaches this point (erased above), so no
    // entry is ever torn down twice.
    const bool revived = f.expires_at_ns > e.deadline_ns;
    const lifecycle::Transition* t = fire_flow(f, FlowEvent::gc_due, revived);
    if (t != nullptr &&
        static_cast<FlowState>(t->to) == FlowState::established) {
      // Activity refreshed the deadline since this entry was pushed:
      // reschedule at the real expiry (one live entry per flow).
      B.expiry_heap.push(ExpiryEntry{f.expires_at_ns, f.id});
      continue;
    }
    destroy_flow(B, fi);
    ++B.stats.flows_expired;
    ++expired;
  }
  return expired;
}

std::optional<std::int64_t> Network::next_expiry_ns() const {
  std::optional<std::int64_t> earliest;
  for (const Bucket& B : buckets_) {
    while (!B.expiry_heap.empty()) {
      const ExpiryEntry e = B.expiry_heap.top();
      const std::size_t fi = B.table.find(e.flow);
      if (fi == FlowTable::npos) {
        B.expiry_heap.pop();
        continue;
      }
      const std::int64_t real = B.table.hot(fi).expires_at_ns;
      if (real > e.deadline_ns) {
        B.expiry_heap.pop();
        B.expiry_heap.push(ExpiryEntry{real, e.flow});
        continue;
      }
      if (!earliest || e.deadline_ns < *earliest) earliest = e.deadline_ns;
      break;
    }
  }
  return earliest;
}

std::size_t Network::close_sockets_of(HostId h, Uid uid) {
  if (h.value() >= hosts_.size()) return 0;
  // May tear down this user's cross-group flows too: serial-phase only.
  assert_serial_phase();
  std::size_t closed = 0;
  HostState& hs = host(h);
  NetworkStats& st = bucket(group_of(h)).stats;
  // Index loop over the dense entries; erase swap-removes, so stay put
  // after an erase and advance otherwise.
  for (std::size_t i = 0; i < hs.listeners.size();) {
    ++st.gc_entries_touched;
    const auto& entry = *(hs.listeners.begin() + static_cast<std::ptrdiff_t>(i));
    if (entry.value.cred.uid == uid) {
      const std::uint32_t key = entry.key;
      const std::uint16_t port = entry.value.port;
      hs.listeners.erase(key);
      release_port(h, port, held_port(hs, port));
      ++closed;
    } else {
      ++i;
    }
  }
  for (auto it = hs.abstract_sockets.begin();
       it != hs.abstract_sockets.end();) {
    ++st.gc_entries_touched;
    if (it->second.uid == uid) {
      it = hs.abstract_sockets.erase(it);
      ++closed;
    } else {
      ++it;
    }
  }
  // Indexed teardown: exactly this user's endpoints on this host, one
  // erase pass per flow — never a scan of the global flow table. Collect
  // the ids first (destroy_flow unlinks the list underneath us).
  std::vector<FlowId> dead;
  if (const std::uint32_t* first = hs.uid_first.find(uid)) {
    for (std::uint32_t s = *first; s != kNoSlot;
         s = hs.endpoints[s].uid_next) {
      dead.push_back(hs.endpoints[s].flow);
    }
  }
  return closed + teardown_flows(dead, st);
}

std::size_t Network::reset_host(HostId h) {
  if (h.value() >= hosts_.size()) return 0;
  assert_serial_phase();
  HostState& hs = host(h);
  NetworkStats& st = bucket(group_of(h)).stats;
  std::size_t closed = hs.listeners.size() + hs.abstract_sockets.size();
  st.gc_entries_touched += closed;
  for (const auto& [key, l] : hs.listeners) {
    release_port(h, l.port, held_port(hs, l.port));
  }
  hs.listeners.clear();
  hs.abstract_sockets.clear();
  // Per-host endpoint index: touch only flows with an end here, walking
  // every uid's list.
  std::vector<FlowId> dead;
  for (const auto& [uid, first] : hs.uid_first) {
    for (std::uint32_t s = first; s != kNoSlot;
         s = hs.endpoints[s].uid_next) {
      dead.push_back(hs.endpoints[s].flow);
    }
  }
  return closed + teardown_flows(dead, st);
}

Result<IdentInfo> Network::ident_lookup(HostId h, Proto proto,
                                        std::uint16_t port) {
  if (h.value() >= hosts_.size()) return Errno::enetunreach;
  // Ident work is accounted to the queried host's group bucket. A worker
  // may ident its own group's hosts; cross-group ident happens inside
  // serial-phase connects.
  assert_scope(group_of(h));
  Bucket& B = bucket(group_of(h));
  ++B.stats.ident_queries;
  if (faults_ != nullptr) {
    // A degraded responder answers late; a dead one eats the caller's
    // whole timeout budget before the query fails.
    charge(B, faults_->ident_extra_ns(h));
    if (faults_->ident_down(h)) {
      ++B.stats.ident_timeouts;
      charge(B, latency_.ident_timeout_ns);
      return Errno::etimedout;
    }
  }
  const HostState& hs = host(h);
  // A listener owns the port...
  if (const Listener* l = find_listener(h, proto, port)) {
    return IdentInfo{l->cred.uid, l->cred.egid, l->pid};
  }
  // ...or a flow endpoint does (client ephemeral ports, orphaned server
  // ports): the oldest one on the port's list answers, from its own uid.
  // A flow end keeps no egid or pid snapshot; the UBF only needs the uid
  // on the initiating side.
  if (const PortRow* row = hs.ports.find(port)) {
    const std::uint32_t s = row->oldest[static_cast<std::size_t>(proto)];
    if (s != kNoSlot) return IdentInfo{hs.endpoints[s].uid, Gid{}, Pid{}};
  }
  return Errno::enoent;
}

Result<void> Network::unix_listen_abstract(HostId h,
                                           const simos::Credentials& cred,
                                           std::string_view name) {
  if (h.value() >= hosts_.size()) return Errno::einval;
  assert_scope(group_of(h));
  HostState& hs = host(h);
  if (hs.abstract_sockets.contains(name)) return Errno::eaddrinuse;
  hs.abstract_sockets.emplace(std::string(name), cred);
  return ok_result();
}

Result<Uid> Network::unix_connect_abstract(HostId h,
                                           const simos::Credentials& cred,
                                           std::string_view name) {
  // Deliberately unchecked: this is the residual channel. The trace still
  // sees every cross-user connect so the exposure is measurable.
  if (h.value() >= hosts_.size()) return Errno::einval;
  assert_scope(group_of(h));
  HostState& hs = host(h);
  auto it = hs.abstract_sockets.find(name);
  if (it == hs.abstract_sockets.end()) return Errno::econnrefused;
  if (trace_ != nullptr && it->second.uid != cred.uid) {
    trace_->record(obs::DecisionPoint::net_uninspected, obs::Outcome::allow,
                   cred.uid, cred.egid, it->second.uid,
                   obs::ChannelKind::abstract_uds, nullptr,
                   [&](std::string& out) { out += name; });
  }
  return it->second.uid;
}

Result<void> Network::unix_close_abstract(HostId h, std::string_view name) {
  if (h.value() >= hosts_.size()) return Errno::einval;
  assert_scope(group_of(h));
  HostState& hs = host(h);
  auto it = hs.abstract_sockets.find(name);
  if (it == hs.abstract_sockets.end()) return Errno::enoent;
  hs.abstract_sockets.erase(it);
  return ok_result();
}

std::vector<FlowId> Network::cross_user_flows() const {
  assert_serial_phase();
  std::vector<FlowId> out;
  for (const Bucket& B : buckets_) {
    for (std::size_t i = 0; i < B.table.size(); ++i) {
      const FlowHot& f = B.table.hot(i);
      if (f.state == FlowState::established &&
          f.client_uid != f.server_uid) {
        out.push_back(f.id);
      }
    }
  }
  // Dense order is churn-dependent; report in id order so audits are
  // stable.
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace heus::net
