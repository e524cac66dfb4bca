// User-based firewall ruleset tests (paper §IV-D + appendix): allow iff
// same user or connector ∈ listener's primary (effective) group.
#include "net/ubf.h"

#include <gtest/gtest.h>

namespace heus::net {
namespace {

using simos::Credentials;

class UbfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    alice = *db.create_user("alice");
    bob = *db.create_user("bob");
    carol = *db.create_user("carol");
    proj = *db.create_project_group("widgets", alice);
    ASSERT_TRUE(db.add_member(alice, proj, bob).ok());
    a = *simos::login(db, alice);
    b = *simos::login(db, bob);
    c = *simos::login(db, carol);
    h1 = nw.add_host("node-1");
    h2 = nw.add_host("node-2");
    ubf = std::make_unique<Ubf>(&db, &nw);
    ubf->attach();
  }

  common::SimClock clock;
  simos::UserDb db;
  Uid alice, bob, carol;
  Gid proj;
  Credentials a, b, c;
  Network nw{&clock};
  HostId h1, h2;
  std::unique_ptr<Ubf> ubf;
};

TEST_F(UbfTest, SameUserAllowed) {
  ASSERT_TRUE(nw.listen(h1, a, Pid{10}, Proto::tcp, 5000).ok());
  auto flow = nw.connect(h2, a, Pid{20}, h1, Proto::tcp, 5000);
  EXPECT_TRUE(flow.ok());
  EXPECT_EQ(ubf->stats().allowed_same_user, 1u);
  EXPECT_EQ(ubf->stats().denied, 0u);
}

TEST_F(UbfTest, CrossUserDenied) {
  ASSERT_TRUE(nw.listen(h1, a, Pid{10}, Proto::tcp, 5000).ok());
  auto flow = nw.connect(h2, c, Pid{20}, h1, Proto::tcp, 5000);
  EXPECT_EQ(flow.error(), Errno::econnrefused);
  EXPECT_EQ(ubf->stats().denied, 1u);
}

TEST_F(UbfTest, DefaultPrivateGroupListenerRejectsEveryoneElse) {
  // alice's listener runs under her user-private group (the default
  // egid) — rule (b) can never admit anyone, because the UPG contains
  // only alice. This is the paper's default-closed posture.
  ASSERT_TRUE(nw.listen(h1, a, Pid{10}, Proto::tcp, 5000).ok());
  EXPECT_FALSE(nw.connect(h2, b, Pid{20}, h1, Proto::tcp, 5000).ok());
  EXPECT_FALSE(nw.connect(h2, c, Pid{21}, h1, Proto::tcp, 5000).ok());
}

TEST_F(UbfTest, NewgrpListenerAdmitsProjectPeers) {
  // alice restarts her server under the project group via newgrp/sg —
  // the paper's documented opt-in path for collaboration.
  Credentials server = *simos::newgrp(db, a, proj);
  ASSERT_TRUE(nw.listen(h1, server, Pid{10}, Proto::tcp, 5000).ok());
  // bob ∈ widgets: admitted under rule (b).
  auto peer = nw.connect(h2, b, Pid{20}, h1, Proto::tcp, 5000);
  EXPECT_TRUE(peer.ok());
  EXPECT_EQ(ubf->stats().allowed_group, 1u);
  // carol ∉ widgets: denied.
  EXPECT_FALSE(nw.connect(h2, c, Pid{21}, h1, Proto::tcp, 5000).ok());
}

TEST_F(UbfTest, GroupRuleDisabledClosesTheOptIn) {
  ubf = std::make_unique<Ubf>(&db, &nw, UbfOptions{1024, false});
  ubf->attach();
  Credentials server = *simos::newgrp(db, a, proj);
  ASSERT_TRUE(nw.listen(h1, server, Pid{10}, Proto::tcp, 5000).ok());
  EXPECT_FALSE(nw.connect(h2, b, Pid{20}, h1, Proto::tcp, 5000).ok());
  // Same-user still works.
  EXPECT_TRUE(nw.connect(h2, a, Pid{21}, h1, Proto::tcp, 5000).ok());
}

TEST_F(UbfTest, UdpGovernedLikeTcp) {
  ASSERT_TRUE(nw.listen(h1, a, Pid{10}, Proto::udp, 6000).ok());
  EXPECT_TRUE(nw.connect(h2, a, Pid{20}, h1, Proto::udp, 6000).ok());
  EXPECT_FALSE(nw.connect(h2, c, Pid{21}, h1, Proto::udp, 6000).ok());
}

TEST_F(UbfTest, SameHostConnectionsAlsoGoverned) {
  ASSERT_TRUE(nw.listen(h1, a, Pid{10}, Proto::tcp, 5000).ok());
  EXPECT_FALSE(nw.connect(h1, c, Pid{20}, h1, Proto::tcp, 5000).ok());
  EXPECT_TRUE(nw.connect(h1, a, Pid{21}, h1, Proto::tcp, 5000).ok());
}

TEST_F(UbfTest, DecisionLogRecordsOutcomes) {
  ASSERT_TRUE(nw.listen(h1, a, Pid{10}, Proto::tcp, 5000).ok());
  (void)nw.connect(h2, a, Pid{20}, h1, Proto::tcp, 5000);
  (void)nw.connect(h2, c, Pid{21}, h1, Proto::tcp, 5000);
  ASSERT_EQ(ubf->log().size(), 2u);
  EXPECT_EQ(ubf->log()[0].decision, UbfDecision::allow_same_user);
  EXPECT_EQ(ubf->log()[1].decision, UbfDecision::deny);
  EXPECT_EQ(ubf->log()[1].client_uid, carol);
  EXPECT_EQ(ubf->log()[1].server_uid, alice);
}

TEST_F(UbfTest, DetachRestoresOpenNetwork) {
  ASSERT_TRUE(nw.listen(h1, a, Pid{10}, Proto::tcp, 5000).ok());
  EXPECT_FALSE(nw.connect(h2, c, Pid{20}, h1, Proto::tcp, 5000).ok());
  ubf->detach();
  EXPECT_TRUE(nw.connect(h2, c, Pid{21}, h1, Proto::tcp, 5000).ok());
}

TEST_F(UbfTest, PortCollisionCrosstalkPrevented) {
  // §V reliability claim: two users pick the same port number on
  // different nodes; a misdirected client cannot cross-talk with the
  // other user's service.
  const std::uint16_t port = 8080;
  ASSERT_TRUE(nw.listen(h1, a, Pid{10}, Proto::tcp, port).ok());
  ASSERT_TRUE(nw.listen(h2, b, Pid{11}, Proto::tcp, port).ok());
  // alice's client, misconfigured with bob's hostname: dropped.
  EXPECT_FALSE(nw.connect(h1, a, Pid{20}, h2, Proto::tcp, port).ok());
  // Correctly addressed: fine.
  EXPECT_TRUE(nw.connect(h2, a, Pid{21}, h1, Proto::tcp, port).ok());
}

TEST_F(UbfTest, FailsClosedOnUnattributableEndpoints) {
  // A decision request for endpoints identd cannot attribute (no
  // listener, no flow) must be denied, not allowed: fail-closed.
  ConnRequest bogus{h2, 54321, h1, 5999, Proto::tcp};
  EXPECT_EQ(ubf->decide(bogus), UbfDecision::deny);
  EXPECT_EQ(ubf->stats().ident_failures, 1u);
  EXPECT_EQ(ubf->stats().denied, 1u);
}

TEST_F(UbfTest, LogRingBufferBounded) {
  ubf->set_log_limit(3);
  // One listener port per connection, so each log entry names its turn.
  for (std::uint16_t i = 0; i < 10; ++i) {
    const auto port = static_cast<std::uint16_t>(5000 + i);
    ASSERT_TRUE(nw.listen(h1, a, Pid{10}, Proto::tcp, port).ok());
    auto flow = nw.connect(h2, a, Pid{20}, h1, Proto::tcp, port);
    if (flow) (void)nw.close(*flow);
  }
  // The ring keeps the newest three decisions, oldest first.
  const std::vector<UbfLogEntry> log = ubf->log();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0].request.dst_port, 5007);
  EXPECT_EQ(log[1].request.dst_port, 5008);
  EXPECT_EQ(log[2].request.dst_port, 5009);

  // Shrinking the limit keeps the newest entries; 0 logs nothing.
  ubf->set_log_limit(2);
  ASSERT_EQ(ubf->log().size(), 2u);
  EXPECT_EQ(ubf->log()[0].request.dst_port, 5008);
  EXPECT_EQ(ubf->log()[1].request.dst_port, 5009);
  ubf->set_log_limit(0);
  (void)nw.connect(h2, a, Pid{20}, h1, Proto::tcp, 5000);
  EXPECT_TRUE(ubf->log().empty());
}

TEST_F(UbfTest, StatsCountEveryDecision) {
  ASSERT_TRUE(nw.listen(h1, a, Pid{10}, Proto::tcp, 5000).ok());
  Credentials server = *simos::newgrp(db, a, proj);
  ASSERT_TRUE(nw.listen(h1, server, Pid{11}, Proto::tcp, 5001).ok());
  (void)nw.connect(h2, a, Pid{20}, h1, Proto::tcp, 5000);  // same user
  (void)nw.connect(h2, b, Pid{21}, h1, Proto::tcp, 5001);  // group
  (void)nw.connect(h2, c, Pid{22}, h1, Proto::tcp, 5000);  // denied
  EXPECT_EQ(ubf->stats().decisions, 3u);
  EXPECT_EQ(ubf->stats().allowed_same_user, 1u);
  EXPECT_EQ(ubf->stats().allowed_group, 1u);
  EXPECT_EQ(ubf->stats().denied, 1u);
}

}  // namespace
}  // namespace heus::net
