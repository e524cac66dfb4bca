// Hot-path regression tests for the indexed network structures (ISSUE 4):
//  - ephemeral-port allocator: full-range allocation, typed exhaustion,
//    free-list reuse after close (no silent collision, no 65536 spin);
//  - conntrack GC: expiry-heap sweeps touch only due entries, and mass
//    teardown (close_sockets_of / reset_host) is linear in the victim's
//    endpoints, never quadratic. All assertions are on touched-entry
//    counters, not wall clock, so they are machine-independent.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/clock.h"
#include "net/network.h"

namespace heus::net {
namespace {

// Linux default ip_local_port_range, mirrored by the allocator.
constexpr unsigned kEphemeralRange = 60999 - 32768 + 1;  // 28232

simos::Credentials user_cred(std::uint32_t uid) {
  simos::Credentials c;
  c.uid = Uid{uid};
  c.egid = Gid{uid};
  return c;
}

class NetworkScaleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Zero out the latency model: these tests reason about *when* flows
    // expire relative to explicit clock advances, so implicit per-call
    // charges would skew the deadlines.
    LatencyModel zero;
    zero.base_syn_ns = 0;
    zero.conntrack_lookup_ns = 0;
    zero.hook_dispatch_ns = 0;
    zero.ident_local_ns = 0;
    zero.ident_remote_ns = 0;
    zero.per_packet_ns = 0;
    nw.set_latency(zero);
  }

  common::SimClock clock;
  Network nw{&clock};
};

TEST_F(NetworkScaleTest, EphemeralAllocatorCoversFullRangeThenExhausts) {
  const HostId client = nw.add_host("client");
  const HostId server = nw.add_host("server");
  const auto alice = user_cred(1000);
  ASSERT_TRUE(nw.listen(server, alice, Pid{1}, Proto::tcp, 7000).ok());

  // Every connect takes one distinct source port; the whole range must be
  // allocatable without a collision.
  std::vector<FlowId> flows;
  flows.reserve(kEphemeralRange);
  std::set<std::uint16_t> seen;
  for (unsigned i = 0; i < kEphemeralRange; ++i) {
    auto f = nw.connect(client, alice, Pid{2}, server, Proto::tcp, 7000);
    ASSERT_TRUE(f.ok()) << "connect " << i;
    const std::optional<Flow> flow = nw.find_flow(*f);
    ASSERT_TRUE(flow.has_value());
    EXPECT_TRUE(seen.insert(flow->client_port).second)
        << "port " << flow->client_port << " allocated twice";
    flows.push_back(*f);
  }
  EXPECT_EQ(seen.size(), kEphemeralRange);

  // Pool empty: a typed exhaustion error, not a spin or a reused port.
  auto overflow =
      nw.connect(client, alice, Pid{2}, server, Proto::tcp, 7000);
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.error(), Errno::eaddrnotavail);
  EXPECT_EQ(nw.stats().ephemeral_exhausted, 1u);

  // Closing one flow returns exactly its port to the free list.
  const std::optional<Flow> victim = nw.find_flow(flows.front());
  ASSERT_TRUE(victim.has_value());
  const std::uint16_t freed = victim->client_port;
  ASSERT_TRUE(nw.close(flows.front()).ok());
  auto reuse = nw.connect(client, alice, Pid{2}, server, Proto::tcp, 7000);
  ASSERT_TRUE(reuse.ok());
  EXPECT_EQ(nw.find_flow(*reuse)->client_port, freed);
}

TEST_F(NetworkScaleTest, ListenerHoldsItsPortOutOfTheEphemeralPool) {
  const HostId h = nw.add_host("n0");
  const auto alice = user_cred(1000);
  // A listener bound inside the ephemeral range must never be handed out
  // as a source port (the old probe loop only checked listeners against
  // the *cursor*, so flow source ports could silently collide).
  ASSERT_TRUE(nw.listen(h, alice, Pid{1}, Proto::tcp, 32768).ok());
  ASSERT_TRUE(nw.listen(h, alice, Pid{1}, Proto::tcp, 40000).ok());
  for (unsigned i = 0; i < 1000; ++i) {
    auto f = nw.connect(h, alice, Pid{2}, h, Proto::tcp, 40000);
    ASSERT_TRUE(f.ok());
    EXPECT_NE(nw.find_flow(*f)->client_port, 32768);
    EXPECT_NE(nw.find_flow(*f)->client_port, 40000);
  }
}

TEST_F(NetworkScaleTest, GcTouchesOnlyDueEntries) {
  const HostId client = nw.add_host("client");
  const HostId server = nw.add_host("server");
  const auto alice = user_cred(1000);
  ASSERT_TRUE(nw.listen(server, alice, Pid{1}, Proto::tcp, 7000).ok());
  nw.set_flow_ttl(100 * common::kMillisecond);

  // One early flow, then a large batch 50ms later.
  auto early = nw.connect(client, alice, Pid{2}, server, Proto::tcp, 7000);
  ASSERT_TRUE(early.ok());
  clock.advance(50 * common::kMillisecond);
  constexpr unsigned kBatch = 5000;
  for (unsigned i = 0; i < kBatch; ++i) {
    ASSERT_TRUE(
        nw.connect(client, alice, Pid{2}, server, Proto::tcp, 7000).ok());
  }

  // At t(early)+TTL only the early flow is due: the sweep must pop one
  // heap entry, not scan 5001 flows.
  clock.advance_to(common::SimTime{100 * common::kMillisecond + 1});
  ASSERT_TRUE(nw.next_expiry_ns().has_value());
  const std::uint64_t touched_before = nw.stats().gc_entries_touched;
  const std::size_t expired = nw.gc();
  const std::uint64_t touched = nw.stats().gc_entries_touched
                                - touched_before;
  EXPECT_EQ(expired, 1u);
  EXPECT_EQ(nw.stats().flows_expired, 1u);
  // Strictly fewer entries touched than a full-table scan would visit.
  EXPECT_LE(touched, 2u) << "GC visited non-due entries";
  EXPECT_EQ(nw.flow_count(), kBatch);
}

TEST_F(NetworkScaleTest, ActivityRefreshesExpiryWithoutDuplicateWork) {
  const HostId client = nw.add_host("client");
  const HostId server = nw.add_host("server");
  const auto alice = user_cred(1000);
  ASSERT_TRUE(nw.listen(server, alice, Pid{1}, Proto::tcp, 7000).ok());
  nw.set_flow_ttl(100 * common::kMillisecond);

  auto f = nw.connect(client, alice, Pid{2}, server, Proto::tcp, 7000);
  ASSERT_TRUE(f.ok());
  clock.advance(90 * common::kMillisecond);
  ASSERT_TRUE(nw.send(*f, FlowEnd::client, "keepalive").ok());

  // Past the original deadline: the stale heap entry is rescheduled, the
  // flow survives.
  clock.advance_to(common::SimTime{101 * common::kMillisecond});
  EXPECT_EQ(nw.gc(), 0u);
  EXPECT_TRUE(nw.find_flow(*f).has_value());

  // Past the refreshed deadline: now it expires.
  clock.advance(100 * common::kMillisecond);
  EXPECT_EQ(nw.gc(), 1u);
  EXPECT_FALSE(nw.find_flow(*f).has_value());
}

TEST_F(NetworkScaleTest, MassTeardownIsLinearInVictimEndpoints) {
  const HostId h = nw.add_host("n0");
  const HostId peer = nw.add_host("n1");
  const auto alice = user_cred(1000);
  const auto mallory = user_cred(1001);
  ASSERT_TRUE(nw.listen(peer, alice, Pid{1}, Proto::tcp, 7000).ok());
  ASSERT_TRUE(nw.listen(peer, mallory, Pid{2}, Proto::tcp, 7001).ok());

  // 2000 flows for alice, 2000 for mallory, all from host h.
  constexpr unsigned kPerUser = 2000;
  for (unsigned i = 0; i < kPerUser; ++i) {
    ASSERT_TRUE(
        nw.connect(h, alice, Pid{3}, peer, Proto::tcp, 7000).ok());
    ASSERT_TRUE(
        nw.connect(h, mallory, Pid{4}, peer, Proto::tcp, 7001).ok());
  }

  // Reaping alice on h must touch only her endpoints (plus h's listener
  // table, which is empty here) — not all 4000 flows. Counter bound:
  // one visit per her flow plus a small constant.
  const std::uint64_t before = nw.stats().gc_entries_touched;
  const std::size_t closed = nw.close_sockets_of(h, Uid{1000});
  const std::uint64_t touched = nw.stats().gc_entries_touched - before;
  EXPECT_EQ(closed, kPerUser);
  EXPECT_LE(touched, kPerUser + 8)
      << "teardown scanned beyond the victim's own endpoints";
  EXPECT_EQ(nw.flow_count(), kPerUser);  // mallory's flows untouched

  // reset_host tears down everything touching the host in one pass.
  const std::uint64_t before_reset = nw.stats().gc_entries_touched;
  const std::size_t reset = nw.reset_host(h);
  const std::uint64_t reset_touched =
      nw.stats().gc_entries_touched - before_reset;
  EXPECT_EQ(reset, kPerUser);
  EXPECT_LE(reset_touched, kPerUser + 8);
  EXPECT_EQ(nw.flow_count(), 0u);
}

TEST_F(NetworkScaleTest, ResetHostFreesPortsInFlowIdOrder) {
  const HostId client = nw.add_host("client");
  const HostId server = nw.add_host("server");
  ASSERT_TRUE(
      nw.listen(server, user_cred(1000), Pid{1}, Proto::tcp, 7000).ok());
  std::vector<FlowId> ids;
  auto dial = [&](std::uint32_t uid) -> std::uint16_t {
    auto f = nw.connect(client, user_cred(uid), Pid{2}, server, Proto::tcp,
                        7000);
    if (!f.ok()) return 0;
    ids.push_back(*f);
    return nw.find_flow(*f)->client_port;
  };

  EXPECT_EQ(dial(1000), 32768);
  EXPECT_EQ(dial(1001), 32769);
  EXPECT_EQ(dial(1000), 32770);
  EXPECT_EQ(dial(1001), 32771);
  // Freed newest first, so the next two connects take the ports back
  // against their ids' order.
  ASSERT_TRUE(nw.close(ids[1]).ok());
  ASSERT_TRUE(nw.close(ids[0]).ok());
  EXPECT_EQ(dial(1001), 32769);
  EXPECT_EQ(dial(1000), 32768);

  // Live in flow-id order: 32770, 32771, 32769, 32768. Neither port
  // order, per-uid order nor insertion recency gives that sequence.
  EXPECT_EQ(nw.reset_host(client), 4u);
  std::vector<std::uint16_t> reused;
  for (int i = 0; i < 5; ++i) reused.push_back(dial(1000 + i % 2));
  EXPECT_EQ(reused,
            (std::vector<std::uint16_t>{32770, 32771, 32769, 32768, 32772}));
}

TEST_F(NetworkScaleTest, NextExpiryReportsEarliestLiveDeadline) {
  const HostId client = nw.add_host("client");
  const HostId server = nw.add_host("server");
  const auto alice = user_cred(1000);
  ASSERT_TRUE(nw.listen(server, alice, Pid{1}, Proto::tcp, 7000).ok());
  EXPECT_FALSE(nw.next_expiry_ns().has_value());  // TTL disabled

  nw.set_flow_ttl(common::kSecond);
  auto f1 = nw.connect(client, alice, Pid{2}, server, Proto::tcp, 7000);
  ASSERT_TRUE(f1.ok());
  const auto first = nw.next_expiry_ns();
  ASSERT_TRUE(first.has_value());

  // Closing the only flow leaves no live deadline (stale entry skipped).
  ASSERT_TRUE(nw.close(*f1).ok());
  EXPECT_FALSE(nw.next_expiry_ns().has_value());
}

}  // namespace
}  // namespace heus::net
