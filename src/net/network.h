// Simulated cluster network: hosts, TCP/UDP sockets, connection tracking,
// and the nfqueue-style hook point where the user-based firewall attaches
// (paper §IV-D).
//
// Fidelity notes:
//  - Only *new* connections traverse the hook; established flows hit the
//    conntrack table and bypass it, exactly the property that lets the UBF
//    add zero per-packet cost.
//  - An RFC1413-style ident service answers "which uid/egid owns local
//    port P" for both nascent and established flows; the UBF queries it on
//    both ends of a candidate connection.
//  - Abstract-namespace unix domain sockets are modelled with *no*
//    permission checks, because the paper's Results section lists them as
//    a residual cross-user channel; the leakage auditor probes them.
//
// Memory layout (DESIGN.md §8): flow state is stored struct-of-arrays —
// a dense hot array (FlowHot: ids, endpoints, state, deadline) that GC
// and audit sweeps touch, and a parallel cold array (FlowCold: message
// rings, byte counters, endpoint slots) that only send/recv and teardown
// touch. Message queues and the freed-ephemeral-port pool are
// arena-backed rings owned by the flow's bucket, and each host keeps its
// flow ends in one endpoint slab, so steady-state connection churn
// performs no global-heap allocation. Every index's iteration order is a
// pure function of the operation sequence (never of hash internals), the
// property the pinned golden digests rely on.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <queue>
#include <string>
#include <string_view>
#include <vector>

#include "common/arena.h"
#include "common/clock.h"
#include "common/flat_map.h"
#include "common/ids.h"
#include "common/result.h"
#include "common/slot_map.h"
#include "net/flow_lifecycle.h"
#include "obs/decision.h"
#include "simos/credentials.h"

namespace heus::net {

enum class Proto { tcp, udp };

/// What identd reports about the process that owns a local port.
struct IdentInfo {
  Uid uid{};
  Gid egid{};
  Pid pid{};
};

/// A connection attempt as seen by the receiving host's firewall hook.
struct ConnRequest {
  HostId src_host{};
  std::uint16_t src_port = 0;
  HostId dst_host{};
  std::uint16_t dst_port = 0;
  Proto proto = Proto::tcp;
};

enum class Verdict { accept, drop };

/// Decision callback installed at the nfqueue hook point.
using FirewallHook = std::function<Verdict(const ConnRequest&)>;

struct Listener {
  simos::Credentials cred;  ///< captured at listen(); egid set via newgrp/sg
  Pid pid{};
  std::uint16_t port = 0;
  Proto proto = Proto::tcp;
};

/// Fault-injection surface for the fabric. Implemented by
/// fault::FaultInjector; declared here (abstract, no fault dependency) so
/// the network can consult it without a layering inversion. All
/// predicates are evaluated against the simulated clock by the
/// implementation; the network just asks.
class FaultModel {
 public:
  virtual ~FaultModel() = default;
  /// The ident responder on `host` is down (queries time out).
  [[nodiscard]] virtual bool ident_down(HostId host) const = 0;
  /// Extra latency (ns) an ident query against `host` incurs right now.
  [[nodiscard]] virtual std::int64_t ident_extra_ns(HostId host) const = 0;
  /// Hosts `a` and `b` cannot currently exchange packets.
  [[nodiscard]] virtual bool partitioned(HostId a, HostId b) const = 0;
  /// Should this packet between `a` and `b` be dropped? Non-const: the
  /// implementation may consume seeded randomness.
  virtual bool drop_packet(HostId a, HostId b) = 0;
};

/// A by-value snapshot of one flow, as returned by find_flow(). The
/// network stores flows struct-of-arrays internally (hot fields dense,
/// message queues in arena rings), so there is no stable Flow object to
/// point at; callers get a copy of the fields that outlive the call.
struct Flow {
  FlowId id{};
  Proto proto = Proto::tcp;
  HostId client_host{};
  std::uint16_t client_port = 0;
  HostId server_host{};
  std::uint16_t server_port = 0;
  Uid client_uid{};
  Uid server_uid{};
  /// Driven exclusively through the flow lifecycle table
  /// (net/flow_lifecycle.h); nascent until the admission verdict.
  FlowState state = FlowState::nascent;
  std::size_t to_server_len = 0;  ///< in-flight client->server messages
  std::size_t to_client_len = 0;
  std::uint64_t bytes = 0;
  /// Conntrack idle-expiry deadline (ns); refreshed on activity when a
  /// flow TTL is configured. 0 = never expires.
  std::int64_t expires_at_ns = 0;
};

enum class FlowEnd { client, server };

/// Simulated latency cost of network operations, in nanoseconds. These are
/// order-of-magnitude figures for a modern cluster fabric; experiments
/// report ratios, which are insensitive to the absolute values.
struct LatencyModel {
  std::int64_t base_syn_ns = 15'000;       ///< SYN handling w/o any hook
  std::int64_t conntrack_lookup_ns = 120;  ///< established-path check
  std::int64_t hook_dispatch_ns = 2'500;   ///< kernel->userspace nfqueue hop
  std::int64_t ident_local_ns = 1'800;     ///< identd query on same host
  std::int64_t ident_remote_ns = 55'000;   ///< cross-host ident RTT
  std::int64_t per_packet_ns = 900;        ///< per-message fixed cost
  double fabric_bytes_per_ns = 25.0;       ///< ~25 GB/s (200Gb-class link)
  /// How long a caller waits before declaring an ident query dead. This is
  /// the fail-closed budget the UBF's retry policy multiplies.
  std::int64_t ident_timeout_ns = 2 * common::kMillisecond;
};

struct NetworkStats {
  std::uint64_t connections_attempted = 0;
  std::uint64_t connections_established = 0;
  std::uint64_t connections_refused = 0;   ///< no listener
  std::uint64_t connections_dropped = 0;   ///< hook verdict drop
  std::uint64_t hook_invocations = 0;
  std::uint64_t conntrack_hits = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t ident_queries = 0;
  std::uint64_t ident_timeouts = 0;        ///< responder down (fault)
  std::uint64_t partition_refusals = 0;    ///< connect across a partition
  std::uint64_t packets_dropped = 0;       ///< loss/partition on send
  /// Established flows reset because the listener's identity no longer
  /// matches the conntrack entry (e.g. changed across a partition heal).
  std::uint64_t flows_reset_identity_changed = 0;
  // -- hot-path accounting (E20): work is measured in entries touched, --
  // -- not wall clock, so the numbers are machine-independent.         --
  std::uint64_t flows_expired = 0;     ///< idle conntrack entries GC'd
  std::uint64_t gc_runs = 0;           ///< gc() invocations
  /// Entries examined by GC and teardown sweeps (heap pops, per-flow and
  /// per-listener visits). The scale benchmark compares this against what
  /// a full-table scan would have touched.
  std::uint64_t gc_entries_touched = 0;
  std::uint64_t ephemeral_exhausted = 0;  ///< connect() hit an empty pool
};

/// RAII guard a sharded-engine worker installs while running one node
/// group's intra-shard phase. While a scope is active on a thread, every
/// Network operation on that thread checks that it touches only the
/// scoped bucket and throws std::logic_error otherwise, in every build
/// type — catching cross-shard state access at the exact call site
/// instead of as a data race. Serial (barrier-phase) code runs with no
/// scope installed and may touch anything.
class ShardScope {
 public:
  explicit ShardScope(std::uint32_t bucket);
  ~ShardScope();
  ShardScope(const ShardScope&) = delete;
  ShardScope& operator=(const ShardScope&) = delete;
  /// The active bucket on this thread, or -1 when unscoped.
  [[nodiscard]] static int current();

 private:
  int prev_;
};

/// The cluster fabric. Single instance shared by all nodes.
///
/// Sharding model (ISSUE 9): flow-table state is internally partitioned
/// into G per-group buckets plus one cross-group bucket. A host belongs
/// to exactly one node group; an operation whose endpoints share a group
/// is *intra-group* and touches only that group's bucket (plus the
/// per-host state of that group's hosts), so the sharded engine can run
/// different groups' operation streams on different worker threads with
/// no shared mutable state. Operations spanning two groups are
/// *cross-group*: they live in the cross bucket and are only legal in
/// the serial barrier phase. Flow ids carry their bucket in the top 16
/// bits, which makes id->bucket routing O(1) and — because bucket-local
/// counters, not a global one, allocate the low bits — keeps every id a
/// pure function of the per-group operation stream, independent of
/// thread interleaving and worker count. The default (one group) is
/// bit-identical to the pre-sharding network: every id is (0 << 48) | n
/// with n counting from 1.
class Network {
 public:
  Network(const common::SimClock* clock, common::SimClock* mutable_clock)
      : clock_(clock), mutable_clock_(mutable_clock) {
    buckets_.resize(1);  // Bucket owns an Arena: not copy-initialisable
  }
  explicit Network(common::SimClock* clock) : Network(clock, clock) {}

  HostId add_host(const std::string& name);
  [[nodiscard]] std::optional<HostId> find_host(
      const std::string& name) const;
  [[nodiscard]] const std::string& host_name(HostId h) const;
  [[nodiscard]] std::size_t host_count() const { return hosts_.size(); }

  /// Install/remove the firewall hook for *new* connections. Ports below
  /// `inspect_from_port` are never queued to the hook (the paper deploys
  /// the UBF on ports >= 1024; system services live below).
  void set_hook(FirewallHook hook, std::uint16_t inspect_from_port = 1024);
  void clear_hook();
  /// True iff a firewall hook would inspect new flows to `port`.
  [[nodiscard]] bool inspects(std::uint16_t port) const {
    return static_cast<bool>(hook_) && port >= inspect_from_port_;
  }

  /// Route uninspected cross-user flow establishment (no hook installed,
  /// or port below the inspection floor) and abstract-socket connects
  /// through the cluster decision trace. Null disables recording.
  void set_trace(obs::DecisionTrace* trace) { trace_ = trace; }

  /// Install/remove the fault model the fabric consults (nullptr = healthy
  /// network). Not owned; the injector outlives its armed window.
  void set_fault_model(FaultModel* model) { faults_ = model; }
  [[nodiscard]] FaultModel* fault_model() const { return faults_; }

  // ---- node-group sharding ---------------------------------------------

  /// Partition the fabric into `groups` node groups; `host_group[h]` is
  /// the group of host h (hosts added later join group 0). Must be called
  /// while no flows exist — typically right after cluster assembly.
  /// Allocates groups+1 buckets (the last is the cross-group bucket) and
  /// restarts every bucket-local flow counter. Throws, with nothing
  /// changed, std::invalid_argument for zero groups or a host_group value
  /// of `groups` or more, and std::logic_error while a flow is live or a
  /// host's freed-port ring is not empty.
  void enable_sharding(std::uint32_t groups,
                       std::vector<std::uint32_t> host_group);
  [[nodiscard]] std::uint32_t group_count() const { return groups_; }
  [[nodiscard]] std::uint32_t bucket_count() const {
    return static_cast<std::uint32_t>(buckets_.size());
  }
  /// The bucket cross-group operations land in (== group_count()).
  [[nodiscard]] std::uint32_t cross_bucket() const { return groups_; }
  [[nodiscard]] std::uint32_t group_of(HostId h) const {
    return h.value() < host_group_.size() ? host_group_[h.value()] : 0;
  }
  /// Which bucket an operation between these hosts belongs to: the shared
  /// group's bucket, or the cross bucket when the groups differ.
  [[nodiscard]] std::uint32_t op_bucket(HostId a, HostId b) const {
    const std::uint32_t ga = group_of(a);
    return ga == group_of(b) ? ga : cross_bucket();
  }
  /// Bucket that allocated flow `id` (top 16 bits of the id).
  [[nodiscard]] static std::uint32_t flow_bucket(FlowId id) {
    return static_cast<std::uint32_t>(id.value() >> kBucketShift);
  }

  /// Deferred-charge mode for the engine's parallel phase: charge() adds
  /// to a per-bucket accumulator instead of advancing the clock (which
  /// is not thread-safe and would make time depend on interleaving). The
  /// engine drains the accumulators deterministically at the barrier.
  void set_defer_charges(bool on) { defer_charges_ = on; }
  [[nodiscard]] bool defer_charges() const { return defer_charges_; }
  /// Simulated ns accumulated against one bucket since the last drain.
  [[nodiscard]] std::int64_t charged_ns(std::uint32_t bucket) const {
    return buckets_.at(bucket).charged_ns;
  }
  /// Sum and clear all per-bucket accumulators (bucket order). The caller
  /// (the engine, at its barrier) advances the clock by the result.
  std::int64_t drain_charges();

  // ---- socket API -------------------------------------------------------

  Result<void> listen(HostId host, const simos::Credentials& cred, Pid pid,
                      Proto proto, std::uint16_t port);
  Result<void> close_listener(HostId host, Proto proto, std::uint16_t port);
  [[nodiscard]] const Listener* find_listener(HostId host, Proto proto,
                                              std::uint16_t port) const;

  /// Establish a new connection. Runs the firewall hook (for inspected
  /// ports), charges simulated latency, and returns the flow id. A hook
  /// that tears down the flow it is judging (say, by calling
  /// close_sockets_of) fails the connect with ECONNRESET, even on accept.
  Result<FlowId> connect(HostId src_host, const simos::Credentials& cred,
                         Pid pid, HostId dst_host, Proto proto,
                         std::uint16_t dst_port);

  /// Send on an established flow: conntrack fast path, no hook. Throws
  /// std::logic_error, in every build, if the flow's conntrack entry is
  /// missing or names another flow.
  Result<void> send(FlowId flow, FlowEnd from, std::string payload);
  /// Pop the oldest undelivered message at `at` end.
  Result<std::string> recv(FlowId flow, FlowEnd at);
  Result<void> close(FlowId flow);
  /// Snapshot of one flow's state, or nullopt if it is gone. By value:
  /// the SoA storage has no stable per-flow object to point at.
  [[nodiscard]] std::optional<Flow> find_flow(FlowId id) const;

  /// Kernel-side teardown when a user's processes on `host` are reaped
  /// (job epilog): their listeners close and their flows reset. Returns
  /// listeners + flows torn down. Indexed: touches only the (host, uid)
  /// endpoints, never the global tables.
  std::size_t close_sockets_of(HostId host, Uid uid);

  /// Power-loss teardown: every socket touching `host` vanishes
  /// (listeners, flows, abstract sockets). Returns objects torn down.
  std::size_t reset_host(HostId host);

  // ---- conntrack garbage collection -------------------------------------

  /// Enable idle-expiry of established flows: a flow with no send()
  /// activity for `ttl_ns` is eligible for gc(). 0 disables (default).
  void set_flow_ttl(std::int64_t ttl_ns) { flow_ttl_ns_ = ttl_ns; }
  [[nodiscard]] std::int64_t flow_ttl() const { return flow_ttl_ns_; }

  /// Collect idle flows due at the current simulated time. Expiry-ordered:
  /// the sweep pops a min-heap of deadlines and touches only due entries
  /// (plus refreshed entries it reschedules), never the whole table.
  /// Returns the number of flows expired. Sweeps every bucket in order.
  std::size_t gc();

  /// GC one bucket only — the engine's parallel phase calls this per
  /// group (a group's worker may only sweep its own bucket; the cross
  /// bucket is swept in the serial phase).
  std::size_t gc_bucket(std::uint32_t bucket);

  /// Earliest pending expiry deadline, if any (for event-driven callers).
  [[nodiscard]] std::optional<std::int64_t> next_expiry_ns() const;

  [[nodiscard]] std::size_t flow_count() const {
    std::size_t n = 0;
    for (const Bucket& b : buckets_) n += b.table.size();
    return n;
  }

  // ---- ident service ----------------------------------------------------

  /// RFC1413-ish: who owns `port` on `host` (listener or flow endpoint).
  Result<IdentInfo> ident_lookup(HostId host, Proto proto,
                                 std::uint16_t port);

  // ---- abstract unix domain sockets (residual channel) ------------------

  Result<void> unix_listen_abstract(HostId host,
                                    const simos::Credentials& cred,
                                    std::string_view name);
  /// No permission check, by (in)design of the kernel facility: any local
  /// user can connect to any abstract socket. Returns the listener's uid so
  /// audits can demonstrate the cross-user rendezvous.
  Result<Uid> unix_connect_abstract(HostId host,
                                    const simos::Credentials& cred,
                                    std::string_view name);
  Result<void> unix_close_abstract(HostId host, std::string_view name);

  // ---- diagnostics ------------------------------------------------------

  /// Aggregated over all buckets. Deterministic: each field is a sum of
  /// per-bucket values that are themselves functions of per-group
  /// operation streams, not of thread interleaving.
  [[nodiscard]] NetworkStats stats() const;
  /// One bucket's share (engine work accounting / sharding tests).
  [[nodiscard]] const NetworkStats& bucket_stats(std::uint32_t bucket) const {
    return buckets_.at(bucket).stats;
  }
  void reset_stats() {
    for (Bucket& b : buckets_) b.stats = {};
  }
  [[nodiscard]] const LatencyModel& latency() const { return latency_; }
  void set_latency(const LatencyModel& m) { latency_ = m; }

  /// Simulated nanoseconds consumed by the most recent connect() call
  /// (includes hook + ident costs). For experiment measurement; reported
  /// per bucket, so only meaningful under single-bucket (unsharded)
  /// operation or from serial phases that know the op's bucket.
  [[nodiscard]] std::int64_t last_connect_cost_ns() const {
    return buckets_.front().last_connect_cost_ns;
  }
  [[nodiscard]] std::int64_t last_send_cost_ns() const {
    return buckets_.front().last_send_cost_ns;
  }

  /// Flows currently established between two *different* users — the
  /// auditor's definition of a cross-user network channel.
  [[nodiscard]] std::vector<FlowId> cross_user_flows() const;

  /// The table driver behind every Flow::state change: per-transition
  /// fire counts and illegal-event tally, for tests and diagnostics.
  [[nodiscard]] const lifecycle::Driver& flow_lifecycle() const {
    return flow_lc_;
  }

  /// Per-entry footprint of the SoA flow storage (E26d): the bytes a GC
  /// deadline scan or cross-user sweep drags through cache per flow is
  /// the hot row alone, not the full snapshot record.
  [[nodiscard]] static std::size_t flow_hot_bytes() {
    return sizeof(FlowHot);
  }
  [[nodiscard]] static std::size_t flow_cold_bytes() {
    return sizeof(FlowCold);
  }

 private:
  /// Linux's default ip_local_port_range.
  static constexpr std::uint32_t kEphemeralLo = 32768;
  static constexpr std::uint32_t kEphemeralHi = 60999;  // inclusive

  /// Flow ids are (bucket << 48) | bucket-local counter.
  static constexpr unsigned kBucketShift = 48;

  /// (proto, port) packed for O(1) unordered lookups.
  [[nodiscard]] static constexpr std::uint32_t pkey(Proto proto,
                                                   std::uint16_t port) {
    return (static_cast<std::uint32_t>(proto) << 16) | port;
  }

  /// No node: the end of an endpoint list or of the free chain.
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  /// One end of a flow, as a node in its host's endpoint slab. A node
  /// never moves while it lives and sits on two doubly linked lists: its
  /// (port, proto)'s, oldest first, and its uid's. A free node has no
  /// flow and chains the free list through port_next.
  struct Endpoint {
    FlowId flow{};  ///< FlowId{} while the node is free
    Uid uid{};      ///< the uid at this end of the flow
    std::uint16_t port = 0;
    Proto proto = Proto::tcp;
    std::uint32_t port_prev = kNoSlot;
    std::uint32_t port_next = kNoSlot;
    std::uint32_t uid_prev = kNoSlot;
    std::uint32_t uid_next = kNoSlot;
  };

  /// One in-use port of a host: the listeners and flow endpoints (any
  /// proto) holding it, and per proto the ends of its endpoint list.
  struct PortRow {
    std::uint32_t refs = 0;
    std::array<std::uint32_t, 2> oldest{kNoSlot, kNoSlot};  ///< by Proto
    std::array<std::uint32_t, 2> newest{kNoSlot, kNoSlot};
  };

  /// The per-flow fields every sweep touches (GC deadline scans, audit
  /// scans, ident): 48 bytes, dense, SoA-split from the message queues.
  struct FlowHot {
    FlowId id{};
    Proto proto = Proto::tcp;
    HostId client_host{};
    std::uint16_t client_port = 0;
    HostId server_host{};
    std::uint16_t server_port = 0;
    Uid client_uid{};
    Uid server_uid{};
    FlowState state = FlowState::nascent;
    std::int64_t expires_at_ns = 0;
  };

  /// The per-flow fields only send/recv and teardown touch: in-flight
  /// message rings (storage in the owning bucket's arena), the byte
  /// counter, and the flow's node in each host's endpoint slab.
  struct FlowCold {
    common::RingBuffer<std::string> to_server;
    common::RingBuffer<std::string> to_client;
    std::uint64_t bytes = 0;
    std::uint32_t client_slot = kNoSlot;
    std::uint32_t server_slot = kNoSlot;
  };

  /// Hot/cold SoA flow storage for one bucket: a slot-map keeps the hot
  /// rows dense under erase (swap-with-last), the cold array mirrors
  /// every swap, and a flat map routes FlowId -> dense row.
  class FlowTable {
   public:
    static constexpr std::size_t npos = common::SlotMap<FlowHot>::npos;

    [[nodiscard]] std::size_t size() const { return hot_.size(); }
    [[nodiscard]] std::size_t find(FlowId id) const {
      const common::SlotHandle* h = index_.find(id);
      return h == nullptr ? npos : hot_.dense_index(*h);
    }
    FlowHot& hot(std::size_t i) { return hot_.dense(i); }
    [[nodiscard]] const FlowHot& hot(std::size_t i) const {
      return hot_.dense(i);
    }
    FlowCold& cold(std::size_t i) { return cold_[i]; }
    [[nodiscard]] const FlowCold& cold(std::size_t i) const {
      return cold_[i];
    }

    /// Returns the dense row of the inserted flow.
    std::size_t insert(FlowHot f) {
      const FlowId id = f.id;
      const common::SlotHandle h = hot_.insert(std::move(f));
      cold_.emplace_back();
      index_.emplace(id, h);
      return hot_.size() - 1;
    }

    /// Drains dense row `row`'s cold rings back into `arena`, then erases
    /// it, mirroring the hot array's swap-with-last in the cold array.
    void erase(std::size_t row, common::Arena& arena) {
      const FlowId id = hot_.dense(row).id;
      cold_[row].to_server.clear(arena);
      cold_[row].to_client.clear(arena);
      hot_.erase(hot_.handle_at(row),
                 [&](std::uint32_t from, std::uint32_t to) {
                   cold_[to] = std::move(cold_[from]);
                 });
      cold_.pop_back();
      index_.erase(id);
    }

   private:
    common::FlatMap<FlowId, common::SlotHandle> index_;
    common::SlotMap<FlowHot> hot_;
    std::vector<FlowCold> cold_;  // parallel to the hot dense array
  };

  struct HostState {
    std::string name;
    /// O(1) listener index keyed by pkey(proto, port).
    common::FlatMap<std::uint32_t, Listener> listeners;
    /// Sorted (teardown sweeps iterate it) with transparent comparison so
    /// string_view lookups never materialise a temporary std::string.
    std::map<std::string, simos::Credentials, std::less<>> abstract_sockets;

    // Ephemeral-port allocator: a lazy cursor over [kEphemeralLo,
    // kEphemeralHi] plus a FIFO of freed ports, guarded by the port rows
    // (a port is in use iff it has one). O(1) amortized; an empty pool is
    // a typed EADDRNOTAVAIL, never a 65536-attempt spin.
    std::uint32_t ephemeral_cursor = kEphemeralLo;
    /// Storage lives in the host's group bucket arena (a worker only
    /// touches its own group's hosts, so that arena is thread-confined).
    common::RingBuffer<std::uint16_t> freed_ports;

    // Endpoint index: one slab node per flow end on this host, so every
    // flow op touches one node and two rows here, in O(1). Written by
    // the host's group worker, or by the coordinator at the barrier for
    // cross-group flows, like freed_ports.
    /// port -> refs and per-proto endpoint list; ident answers an
    /// orphaned or ephemeral port from its oldest node.
    common::FlatMap<std::uint16_t, PortRow> ports;
    /// uid -> first node of that uid's endpoint list. Unordered:
    /// teardown sweeps collect, dedupe and sort flow ids before erasing
    /// (the erase order decides which ports the freed-port FIFO hands to
    /// later connects).
    common::FlatMap<Uid, std::uint32_t> uid_first;
    std::vector<Endpoint> endpoints;  ///< the slab; slots never move
    std::uint32_t free_slot = kNoSlot;  ///< head of the free-node chain
  };

  struct ConntrackKey {
    HostId a;
    std::uint16_t ap;
    HostId b;
    std::uint16_t bp;
    int proto;
    friend bool operator==(const ConntrackKey&,
                           const ConntrackKey&) = default;
  };
  struct ConntrackKeyHash {
    std::uint64_t operator()(const ConntrackKey& k) const {
      std::uint64_t h = common::hash_mix(
          (static_cast<std::uint64_t>(k.a.value()) << 16) | k.ap);
      h = common::hash_mix(
          h ^ ((static_cast<std::uint64_t>(k.b.value()) << 16) | k.bp));
      return common::hash_mix(h ^ static_cast<std::uint64_t>(k.proto));
    }
  };

  /// Lazy min-heap entry for flow expiry; stale entries (flow gone or
  /// deadline refreshed past `deadline_ns`) are discarded on pop.
  struct ExpiryEntry {
    std::int64_t deadline_ns = 0;
    FlowId flow{};
    friend bool operator>(const ExpiryEntry& x, const ExpiryEntry& y) {
      if (x.deadline_ns != y.deadline_ns) {
        return x.deadline_ns > y.deadline_ns;
      }
      return x.flow > y.flow;
    }
  };

  /// All flow-table state one bucket owns. Intra-group operations touch
  /// exactly one bucket; no two engine workers ever share one. The arena
  /// feeds every ring the bucket's flows (and its hosts' freed-port
  /// pools) use, so it is touched only by the bucket's owner.
  struct Bucket {
    /// Declared first so it is destroyed last: the flow table's message
    /// rings (and the hosts' freed-port rings) run their element
    /// destructors over storage this arena owns.
    common::Arena arena;  ///< shard-confined ring/scratch storage
    FlowTable table;
    common::FlatMap<ConntrackKey, FlowId, ConntrackKeyHash> conntrack;
    /// Mutable: next_expiry_ns() lazily discards stale tops while peeking.
    mutable std::priority_queue<ExpiryEntry, std::vector<ExpiryEntry>,
                                std::greater<>>
        expiry_heap;
    std::uint64_t next_local = 1;  ///< low 48 bits of the next flow id
    NetworkStats stats;
    std::int64_t charged_ns = 0;  ///< deferred-charge accumulator
    std::int64_t last_connect_cost_ns = 0;
    std::int64_t last_send_cost_ns = 0;
  };

  HostState& host(HostId id) { return hosts_.at(id.value()); }
  [[nodiscard]] const HostState& host(HostId id) const {
    return hosts_.at(id.value());
  }
  Bucket& bucket(std::uint32_t b) { return buckets_.at(b); }
  [[nodiscard]] const Bucket& bucket(std::uint32_t b) const {
    return buckets_.at(b);
  }
  Bucket& bucket_of(FlowId id) { return buckets_.at(flow_bucket(id)); }
  [[nodiscard]] const Bucket& bucket_of(FlowId id) const {
    return buckets_.at(flow_bucket(id));
  }
  /// Throws std::logic_error unless `b` is legal under the thread's
  /// ShardScope. Always on: one thread-local compare per operation.
  static void assert_scope(std::uint32_t b);
  /// As above, but for operations that may touch several buckets (host
  /// teardown, stats merges): legal only with no scope installed.
  static void assert_serial_phase();

  /// 0 on exhaustion (caller reports EADDRNOTAVAIL).
  std::uint16_t alloc_ephemeral_port(HostState& h);
  /// `hs`'s row for a port a listener or flow endpoint holds. Throws
  /// std::logic_error, in every build, if there is none.
  static PortRow& held_port(HostState& hs, std::uint16_t port);
  /// Drop one reference on `row`, host `h`'s row for `port`. The last
  /// one erases the row and pools the port if it is ephemeral.
  void release_port(HostId h, std::uint16_t port, PortRow& row);
  /// Link one flow end into host `h`'s endpoint index; returns its slot.
  std::uint32_t add_endpoint(HostId h, FlowId flow, Uid uid, Proto proto,
                             std::uint16_t port);
  /// Unlink and free `flow`'s node at `slot` on host `h`. Throws
  /// std::logic_error, in every build, if the node is not that flow's,
  /// its port has no row or its uid's list does not lead to it.
  void drop_endpoint(HostId h, std::uint32_t slot, FlowId flow);
  /// Tear down the flow at dense row `row` of `b`: conntrack entry (if
  /// any), endpoints, port refs, SoA row. The single erase pass every
  /// teardown path (hook drop/close/GC/reset/identity reset) funnels
  /// through. Invalidates the row.
  void destroy_flow(Bucket& b, std::size_t row);
  /// Tear down each flow in `dead` once, in id order (the order feeds
  /// the freed-port FIFO). Counts one touched entry per flow in `st`.
  /// Returns the flows torn down.
  std::size_t teardown_flows(std::vector<FlowId>& dead, NetworkStats& st);
  void touch_flow(FlowHot& f);
  /// Charge simulated latency against `b`: advances the clock directly,
  /// or accumulates into the bucket under deferred-charge mode.
  void charge(Bucket& b, std::int64_t ns);
  /// Route one lifecycle event through the flow table. `outcome` answers
  /// whichever guard the resolved row consults (at most one per row).
  /// Returns the fired transition; nullptr means the event is illegal in
  /// the flow's current state (counted, state untouched).
  const lifecycle::Transition* fire_flow(FlowHot& f, FlowEvent event,
                                         bool outcome);

  const common::SimClock* clock_;
  common::SimClock* mutable_clock_;
  lifecycle::Driver flow_lc_{&flow_machine()};
  std::vector<HostState> hosts_;
  /// groups_ per-group buckets plus the cross bucket; exactly one bucket
  /// total while unsharded (the bit-identical legacy layout).
  std::vector<Bucket> buckets_;
  std::uint32_t groups_ = 1;
  std::vector<std::uint32_t> host_group_;  ///< empty: everyone group 0
  bool defer_charges_ = false;
  std::int64_t flow_ttl_ns_ = 0;
  FirewallHook hook_;
  obs::DecisionTrace* trace_ = nullptr;
  FaultModel* faults_ = nullptr;
  std::uint16_t inspect_from_port_ = 1024;
  LatencyModel latency_;
};

}  // namespace heus::net
