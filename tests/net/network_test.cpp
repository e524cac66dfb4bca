#include "net/network.h"

#include <gtest/gtest.h>

namespace heus::net {
namespace {

using simos::Credentials;

class NetworkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    alice = *db.create_user("alice");
    bob = *db.create_user("bob");
    a = *simos::login(db, alice);
    b = *simos::login(db, bob);
    h1 = nw.add_host("node-1");
    h2 = nw.add_host("node-2");
  }

  common::SimClock clock;
  simos::UserDb db;
  Uid alice, bob;
  Credentials a, b;
  Network nw{&clock};
  HostId h1, h2;
};

TEST_F(NetworkTest, HostRegistryLookups) {
  EXPECT_EQ(nw.host_count(), 2u);
  EXPECT_EQ(nw.find_host("node-1"), h1);
  EXPECT_EQ(nw.host_name(h2), "node-2");
  EXPECT_FALSE(nw.find_host("nope").has_value());
}

TEST_F(NetworkTest, ListenThenConnectEstablishesFlow) {
  ASSERT_TRUE(nw.listen(h1, a, Pid{10}, Proto::tcp, 5000).ok());
  auto flow = nw.connect(h2, b, Pid{20}, h1, Proto::tcp, 5000);
  ASSERT_TRUE(flow.ok());
  const std::optional<Flow> f = nw.find_flow(*flow);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->client_uid, bob);
  EXPECT_EQ(f->server_uid, alice);
  EXPECT_EQ(f->server_port, 5000);
  EXPECT_EQ(nw.stats().connections_established, 1u);
}

TEST_F(NetworkTest, ConnectWithoutListenerRefused) {
  auto flow = nw.connect(h2, b, Pid{20}, h1, Proto::tcp, 5000);
  EXPECT_EQ(flow.error(), Errno::econnrefused);
  EXPECT_EQ(nw.stats().connections_refused, 1u);
}

TEST_F(NetworkTest, PortCollisionOnListen) {
  ASSERT_TRUE(nw.listen(h1, a, Pid{10}, Proto::tcp, 5000).ok());
  EXPECT_EQ(nw.listen(h1, b, Pid{20}, Proto::tcp, 5000).error(),
            Errno::eaddrinuse);
  // Different proto or host: fine.
  EXPECT_TRUE(nw.listen(h1, b, Pid{20}, Proto::udp, 5000).ok());
  EXPECT_TRUE(nw.listen(h2, b, Pid{20}, Proto::tcp, 5000).ok());
}

TEST_F(NetworkTest, PrivilegedPortsRequireRoot) {
  EXPECT_EQ(nw.listen(h1, a, Pid{10}, Proto::tcp, 80).error(),
            Errno::eacces);
  EXPECT_TRUE(nw.listen(h1, simos::root_credentials(), Pid{1},
                        Proto::tcp, 80).ok());
}

TEST_F(NetworkTest, SendRecvBothDirections) {
  ASSERT_TRUE(nw.listen(h1, a, Pid{10}, Proto::tcp, 5000).ok());
  auto flow = nw.connect(h2, b, Pid{20}, h1, Proto::tcp, 5000);
  ASSERT_TRUE(flow.ok());
  ASSERT_TRUE(nw.send(*flow, FlowEnd::client, "ping").ok());
  EXPECT_EQ(*nw.recv(*flow, FlowEnd::server), "ping");
  ASSERT_TRUE(nw.send(*flow, FlowEnd::server, "pong").ok());
  EXPECT_EQ(*nw.recv(*flow, FlowEnd::client), "pong");
  // Empty queue: EAGAIN.
  EXPECT_EQ(nw.recv(*flow, FlowEnd::client).error(), Errno::eagain);
}

TEST_F(NetworkTest, EstablishedTrafficNeverHitsHook) {
  int hook_calls = 0;
  nw.set_hook([&](const ConnRequest&) {
    ++hook_calls;
    return Verdict::accept;
  });
  ASSERT_TRUE(nw.listen(h1, a, Pid{10}, Proto::tcp, 5000).ok());
  auto flow = nw.connect(h2, b, Pid{20}, h1, Proto::tcp, 5000);
  ASSERT_TRUE(flow.ok());
  EXPECT_EQ(hook_calls, 1);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(nw.send(*flow, FlowEnd::client, "x").ok());
  }
  // The zero-data-path-overhead property: still exactly one hook call.
  EXPECT_EQ(hook_calls, 1);
  EXPECT_EQ(nw.stats().conntrack_hits, 100u);
}

TEST_F(NetworkTest, HookDropRefusesAndRemovesFlow) {
  nw.set_hook([](const ConnRequest&) { return Verdict::drop; });
  ASSERT_TRUE(nw.listen(h1, a, Pid{10}, Proto::tcp, 5000).ok());
  auto flow = nw.connect(h2, b, Pid{20}, h1, Proto::tcp, 5000);
  EXPECT_EQ(flow.error(), Errno::econnrefused);
  EXPECT_EQ(nw.stats().connections_dropped, 1u);
  EXPECT_TRUE(nw.cross_user_flows().empty());
}

TEST_F(NetworkTest, HookThatReapsTheFlowItJudgesFailsTheConnect) {
  nw.set_flow_ttl(common::kSecond);
  std::size_t reaped = 0;
  nw.set_hook([&](const ConnRequest& req) {
    // The initiator's sockets are reaped mid-admission, the nascent flow
    // included, yet the verdict is accept.
    reaped += nw.close_sockets_of(req.src_host, bob);
    return Verdict::accept;
  });
  ASSERT_TRUE(nw.listen(h1, a, Pid{10}, Proto::tcp, 5000).ok());
  const auto flow = nw.connect(h2, b, Pid{20}, h1, Proto::tcp, 5000);
  EXPECT_EQ(flow.error(), Errno::econnreset);
  EXPECT_EQ(reaped, 1u);
  EXPECT_EQ(nw.flow_count(), 0u);
  EXPECT_EQ(nw.stats().connections_established, 0u);
  EXPECT_FALSE(nw.next_expiry_ns().has_value());

  // The next connect takes the same source port, so the same conntrack
  // tuple; it establishes, carries traffic and closes as if the failed
  // one had never been.
  nw.clear_hook();
  const auto next = nw.connect(h2, b, Pid{21}, h1, Proto::tcp, 5000);
  ASSERT_TRUE(next.ok());
  ASSERT_TRUE(nw.send(*next, FlowEnd::client, "ping").ok());
  EXPECT_EQ(*nw.recv(*next, FlowEnd::server), "ping");
  ASSERT_TRUE(nw.close(*next).ok());
  EXPECT_EQ(nw.flow_count(), 0u);
  EXPECT_EQ(nw.stats().connections_established, 1u);
}

TEST_F(NetworkTest, LowPortsBypassHook) {
  int hook_calls = 0;
  nw.set_hook(
      [&](const ConnRequest&) {
        ++hook_calls;
        return Verdict::drop;
      },
      /*inspect_from_port=*/1024);
  ASSERT_TRUE(nw.listen(h1, simos::root_credentials(), Pid{1}, Proto::tcp,
                        443).ok());
  // System service below the inspection floor: connects despite the
  // drop-everything hook.
  auto flow = nw.connect(h2, b, Pid{20}, h1, Proto::tcp, 443);
  EXPECT_TRUE(flow.ok());
  EXPECT_EQ(hook_calls, 0);
}

TEST_F(NetworkTest, IdentIdentifiesListenerAndClient) {
  Credentials server_cred = a;
  server_cred.egid = Gid{777};  // post-newgrp primary group
  ASSERT_TRUE(nw.listen(h1, server_cred, Pid{10}, Proto::tcp, 5000).ok());
  auto ident = nw.ident_lookup(h1, Proto::tcp, 5000);
  ASSERT_TRUE(ident.ok());
  EXPECT_EQ(ident->uid, alice);
  EXPECT_EQ(ident->egid, Gid{777});

  auto flow = nw.connect(h2, b, Pid{20}, h1, Proto::tcp, 5000);
  ASSERT_TRUE(flow.ok());
  const std::optional<Flow> f = nw.find_flow(*flow);
  auto client_ident = nw.ident_lookup(h2, Proto::tcp, f->client_port);
  ASSERT_TRUE(client_ident.ok());
  EXPECT_EQ(client_ident->uid, bob);
}

TEST_F(NetworkTest, IdentUnknownPortFails) {
  EXPECT_EQ(nw.ident_lookup(h1, Proto::tcp, 9999).error(), Errno::enoent);
}

TEST_F(NetworkTest, OrphanedServerPortIdentsItsOldestLiveFlow) {
  // Two listeners in turn on one port, each closed while its flow lives
  // on: the port now belongs only to flow endpoints accepted under two
  // different uids.
  ASSERT_TRUE(nw.listen(h1, a, Pid{10}, Proto::tcp, 5000).ok());
  auto oldest = nw.connect(h2, b, Pid{20}, h1, Proto::tcp, 5000);
  ASSERT_TRUE(oldest.ok());
  ASSERT_TRUE(nw.close_listener(h1, Proto::tcp, 5000).ok());
  ASSERT_TRUE(nw.listen(h1, b, Pid{11}, Proto::tcp, 5000).ok());
  auto newer = nw.connect(h2, a, Pid{21}, h1, Proto::tcp, 5000);
  ASSERT_TRUE(newer.ok());
  ASSERT_TRUE(nw.close_listener(h1, Proto::tcp, 5000).ok());

  auto ident = nw.ident_lookup(h1, Proto::tcp, 5000);
  ASSERT_TRUE(ident.ok());
  EXPECT_EQ(ident->uid, alice);
  EXPECT_EQ(nw.ident_lookup(h1, Proto::udp, 5000).error(), Errno::enoent);

  ASSERT_TRUE(nw.close(*oldest).ok());
  ident = nw.ident_lookup(h1, Proto::tcp, 5000);
  ASSERT_TRUE(ident.ok());
  EXPECT_EQ(ident->uid, bob);

  ASSERT_TRUE(nw.close(*newer).ok());
  EXPECT_EQ(nw.ident_lookup(h1, Proto::tcp, 5000).error(), Errno::enoent);
}

TEST_F(NetworkTest, SameHostFlowUnderOneUidIsTornDownOnce) {
  // Both ends of the flow sit on h1 under alice, so each teardown sweep
  // meets it twice; it must close (and be counted) once.
  auto same_host_flow = [&] {
    EXPECT_TRUE(nw.listen(h1, a, Pid{10}, Proto::tcp, 5000).ok());
    auto flow = nw.connect(h1, a, Pid{20}, h1, Proto::tcp, 5000);
    EXPECT_TRUE(flow.ok());
    return flow.ok() ? nw.find_flow(*flow)->client_port : std::uint16_t{0};
  };

  std::uint16_t client_port = same_host_flow();
  ASSERT_NE(client_port, 0);
  std::uint64_t before = nw.stats().gc_entries_touched;
  EXPECT_EQ(nw.close_sockets_of(h1, alice), 2u);  // listener + flow
  EXPECT_EQ(nw.stats().gc_entries_touched - before, 2u);
  EXPECT_EQ(nw.flow_count(), 0u);
  EXPECT_EQ(nw.ident_lookup(h1, Proto::tcp, client_port).error(),
            Errno::enoent);
  EXPECT_EQ(nw.ident_lookup(h1, Proto::tcp, 5000).error(), Errno::enoent);

  client_port = same_host_flow();
  ASSERT_NE(client_port, 0);
  before = nw.stats().gc_entries_touched;
  EXPECT_EQ(nw.reset_host(h1), 2u);  // listener + flow
  EXPECT_EQ(nw.stats().gc_entries_touched - before, 2u);
  EXPECT_EQ(nw.flow_count(), 0u);
  EXPECT_EQ(nw.ident_lookup(h1, Proto::tcp, client_port).error(),
            Errno::enoent);
  EXPECT_EQ(nw.ident_lookup(h1, Proto::tcp, 5000).error(), Errno::enoent);
}

TEST_F(NetworkTest, CloseRemovesConntrackEntry) {
  ASSERT_TRUE(nw.listen(h1, a, Pid{10}, Proto::tcp, 5000).ok());
  auto flow = nw.connect(h2, b, Pid{20}, h1, Proto::tcp, 5000);
  ASSERT_TRUE(flow.ok());
  ASSERT_TRUE(nw.close(*flow).ok());
  EXPECT_EQ(nw.send(*flow, FlowEnd::client, "x").error(), Errno::ebadf);
  EXPECT_FALSE(nw.find_flow(*flow).has_value());
}

TEST_F(NetworkTest, UdpFlowsSupported) {
  ASSERT_TRUE(nw.listen(h1, a, Pid{10}, Proto::udp, 6000).ok());
  auto flow = nw.connect(h2, b, Pid{20}, h1, Proto::udp, 6000);
  ASSERT_TRUE(flow.ok());
  ASSERT_TRUE(nw.send(*flow, FlowEnd::client, "datagram").ok());
  EXPECT_EQ(*nw.recv(*flow, FlowEnd::server), "datagram");
}

TEST_F(NetworkTest, CrossUserFlowCensus) {
  ASSERT_TRUE(nw.listen(h1, a, Pid{10}, Proto::tcp, 5000).ok());
  ASSERT_TRUE(nw.listen(h1, b, Pid{11}, Proto::tcp, 5001).ok());
  auto cross = nw.connect(h2, b, Pid{20}, h1, Proto::tcp, 5000);
  auto same = nw.connect(h2, b, Pid{21}, h1, Proto::tcp, 5001);
  ASSERT_TRUE(cross.ok());
  ASSERT_TRUE(same.ok());
  auto census = nw.cross_user_flows();
  ASSERT_EQ(census.size(), 1u);
  EXPECT_EQ(census[0], *cross);
}

TEST_F(NetworkTest, AbstractSocketsAreUncheckedRendezvous) {
  obs::DecisionTrace trace;
  trace.set_enabled(true);
  nw.set_trace(&trace);
  ASSERT_TRUE(nw.unix_listen_abstract(h1, a, "@hidden").ok());
  // No permission check whatsoever — the documented residual channel.
  auto peer = nw.unix_connect_abstract(h1, b, "@hidden");
  ASSERT_TRUE(peer.ok());
  EXPECT_EQ(*peer, alice);
  // The trace still sees the cross-user connect, under the name as given.
  const std::vector<obs::Decision> seen = trace.snapshot();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].point, obs::DecisionPoint::net_uninspected);
  EXPECT_EQ(seen[0].object, "@hidden");
  EXPECT_EQ(nw.unix_connect_abstract(h1, b, "@missing").error(),
            Errno::econnrefused);
  ASSERT_TRUE(nw.unix_close_abstract(h1, "@hidden").ok());
  EXPECT_EQ(nw.unix_connect_abstract(h1, b, "@hidden").error(),
            Errno::econnrefused);
}

TEST_F(NetworkTest, AbstractSocketNameCollision) {
  ASSERT_TRUE(nw.unix_listen_abstract(h1, a, "@sock").ok());
  EXPECT_EQ(nw.unix_listen_abstract(h1, b, "@sock").error(),
            Errno::eaddrinuse);
}

TEST_F(NetworkTest, CloseSocketsOfReapsUsersEndpoints) {
  ASSERT_TRUE(nw.listen(h1, a, Pid{10}, Proto::tcp, 5000).ok());
  ASSERT_TRUE(nw.listen(h1, b, Pid{11}, Proto::tcp, 5001).ok());
  ASSERT_TRUE(nw.unix_listen_abstract(h1, a, "@asock").ok());
  auto flow = nw.connect(h2, a, Pid{20}, h1, Proto::tcp, 5000);
  ASSERT_TRUE(flow.ok());
  // Reap alice on h1: her listener, abstract socket, and flow (server
  // endpoint on h1) all go; bob's listener survives.
  EXPECT_EQ(nw.close_sockets_of(h1, alice), 3u);
  EXPECT_EQ(nw.find_listener(h1, Proto::tcp, 5000), nullptr);
  EXPECT_NE(nw.find_listener(h1, Proto::tcp, 5001), nullptr);
  EXPECT_FALSE(nw.find_flow(*flow).has_value());
  EXPECT_EQ(nw.unix_connect_abstract(h1, b, "@asock").error(),
            Errno::econnrefused);
}

TEST_F(NetworkTest, ResetHostDropsEverythingTouchingIt) {
  ASSERT_TRUE(nw.listen(h1, a, Pid{10}, Proto::tcp, 5000).ok());
  ASSERT_TRUE(nw.listen(h2, b, Pid{11}, Proto::tcp, 5001).ok());
  auto inbound = nw.connect(h2, b, Pid{20}, h1, Proto::tcp, 5000);
  auto outbound = nw.connect(h1, a, Pid{21}, h2, Proto::tcp, 5001);
  ASSERT_TRUE(inbound.ok());
  ASSERT_TRUE(outbound.ok());
  EXPECT_EQ(nw.reset_host(h1), 3u);  // 1 listener + 2 flows
  EXPECT_FALSE(nw.find_flow(*inbound).has_value());
  EXPECT_FALSE(nw.find_flow(*outbound).has_value());
  // h2's listener is unaffected.
  EXPECT_NE(nw.find_listener(h2, Proto::tcp, 5001), nullptr);
}

TEST_F(NetworkTest, ConnectChargesSimulatedLatency) {
  ASSERT_TRUE(nw.listen(h1, a, Pid{10}, Proto::tcp, 5000).ok());
  const auto before = clock.now();
  auto flow = nw.connect(h2, b, Pid{20}, h1, Proto::tcp, 5000);
  ASSERT_TRUE(flow.ok());
  EXPECT_GT(clock.now().ns, before.ns);
  EXPECT_EQ(nw.last_connect_cost_ns(), clock.now().ns - before.ns);
}

TEST_F(NetworkTest, HookAddsLatencyToConnect) {
  ASSERT_TRUE(nw.listen(h1, a, Pid{10}, Proto::tcp, 5000).ok());
  auto f1 = nw.connect(h2, b, Pid{20}, h1, Proto::tcp, 5000);
  ASSERT_TRUE(f1.ok());
  const auto plain_cost = nw.last_connect_cost_ns();

  nw.set_hook([](const ConnRequest&) { return Verdict::accept; });
  auto f2 = nw.connect(h2, b, Pid{21}, h1, Proto::tcp, 5000);
  ASSERT_TRUE(f2.ok());
  EXPECT_GT(nw.last_connect_cost_ns(), plain_cost);
}

TEST_F(NetworkTest, EphemeralPortsDistinctAcrossConnects) {
  ASSERT_TRUE(nw.listen(h1, a, Pid{10}, Proto::tcp, 5000).ok());
  auto f1 = nw.connect(h2, b, Pid{20}, h1, Proto::tcp, 5000);
  auto f2 = nw.connect(h2, b, Pid{21}, h1, Proto::tcp, 5000);
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  EXPECT_NE(nw.find_flow(*f1)->client_port,
            nw.find_flow(*f2)->client_port);
}

TEST_F(NetworkTest, UnknownHostIsUnreachable) {
  EXPECT_EQ(nw.connect(HostId{99}, b, Pid{20}, h1, Proto::tcp, 5000)
                .error(),
            Errno::enetunreach);
  EXPECT_EQ(nw.connect(h2, b, Pid{20}, HostId{99}, Proto::tcp, 5000)
                .error(),
            Errno::enetunreach);
}

}  // namespace
}  // namespace heus::net
