// Unit tests for the heus::obs decision spine: ring-buffer wraparound,
// the disabled-mode cost contract (exact counters, zero materialised
// records, deferred object construction), the seq/total() contract, UBF
// cache-hit decisions replaying the original attribution, the one-form
// label contract, and the exact label text every enforcement point
// writes on a hardened cluster.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/errno.h"
#include "container/entry_lifecycle.h"
#include "container/runtime.h"
#include "core/cluster.h"
#include "fed/federation.h"
#include "lifecycle/machine.h"
#include "net/network.h"
#include "net/ubf.h"
#include "obs/decision.h"
#include "sched/scheduler.h"
#include "simos/credentials.h"
#include "simos/user_db.h"
#include "vfs/filesystem.h"

namespace heus::obs {
namespace {

// record() takes one label form, the append form. A value-returning
// callback must not satisfy its constraint. The check lives in a
// variable template because a requires-expression naming an invalid
// call is ill-formed outside a template.
template <typename MakeObject>
constexpr bool kRecordAccepts =
    requires(DecisionTrace& trace, MakeObject make_object) {
      trace.record(DecisionPoint::pam_ssh, Outcome::deny, Uid{}, Gid{},
                   Uid{}, std::nullopt, nullptr, make_object);
    };
static_assert(kRecordAccepts<void (*)(std::string&)>);
static_assert(!kRecordAccepts<std::string (*)()>);

TEST(DecisionTraceTest, RingOverwritesOldestAtCapacity) {
  DecisionTrace trace;
  trace.set_capacity(4);
  trace.set_enabled(true);
  for (unsigned i = 0; i < 10; ++i) {
    trace.record(DecisionPoint::ubf_admission,
                 i % 2 == 0 ? Outcome::allow : Outcome::deny, Uid{1000},
                 Gid{1000}, Uid{1001}, ChannelKind::tcp_cross_user, nullptr,
                 [&](std::string& out) {
                   out += "decision ";
                   append_uint(out, i);
                 });
  }
  EXPECT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.capacity(), 4u);
  EXPECT_EQ(trace.total(), 10u);
  EXPECT_EQ(trace.overwritten(), 6u);

  // Oldest-first snapshot: only the last four survive, in order.
  const auto snap = trace.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  for (std::size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].seq, 6 + i);
    EXPECT_EQ(snap[i].object, "decision " + std::to_string(6 + i));
  }

  const PointCounters& c = trace.counters(DecisionPoint::ubf_admission);
  EXPECT_EQ(c.allowed, 5u);
  EXPECT_EQ(c.denied, 5u);
}

TEST(DecisionTraceTest, DisabledModeCountsExactlyButMaterialisesNothing) {
  DecisionTrace trace;  // disabled by default
  unsigned object_builds = 0;
  for (unsigned i = 0; i < 100; ++i) {
    trace.record(DecisionPoint::fs_access,
                 i % 4 == 0 ? Outcome::deny : Outcome::allow, Uid{1000},
                 Gid{1000}, Uid{1001}, ChannelKind::fs_home_read, nullptr,
                 [&](std::string& out) {
                   ++object_builds;
                   out += "/home/victim/file";
                 });
  }
  // Zero records, zero object-string constructions...
  EXPECT_EQ(trace.size(), 0u);
  EXPECT_TRUE(trace.snapshot().empty());
  EXPECT_EQ(object_builds, 0u);
  // ...while the counters stay exact.
  EXPECT_EQ(trace.total(), 100u);
  const PointCounters& c = trace.counters(DecisionPoint::fs_access);
  EXPECT_EQ(c.allowed, 75u);
  EXPECT_EQ(c.denied, 25u);
  const PointCounters& other = trace.counters(DecisionPoint::pam_ssh);
  EXPECT_EQ(other.allowed, 0u);
  EXPECT_EQ(other.denied, 0u);
}

TEST(DecisionTraceTest, ClearResetsRecordsAndCounters) {
  DecisionTrace trace;
  trace.set_enabled(true);
  trace.record(DecisionPoint::pam_ssh, Outcome::deny, Uid{1000}, Gid{1000},
               kRootUid, ChannelKind::ssh_foreign_node, knob::pam_slurm,
               [](std::string& out) { out += "node 1"; });
  ASSERT_EQ(trace.size(), 1u);
  trace.clear();
  EXPECT_EQ(trace.size(), 0u);
  EXPECT_EQ(trace.total(), 0u);
  EXPECT_EQ(trace.overwritten(), 0u);
  EXPECT_EQ(trace.counters(DecisionPoint::pam_ssh).denied, 0u);
}

// An enabled record's seq is total() just before it, across disabled
// stretches, set_capacity() and clear(). The path oracle's knob window
// (analyze/path_oracle.cpp) and `heus-lint --trace` rely on this.
TEST(DecisionTraceTest, EnabledSeqContinuesTheCountedTotal) {
  DecisionTrace trace;
  unsigned n = 0;
  auto one = [&] {
    trace.record(DecisionPoint::fs_access,
                 n++ % 2 == 0 ? Outcome::allow : Outcome::deny, Uid{1000},
                 Gid{1000}, Uid{1001}, ChannelKind::fs_home_read, nullptr,
                 [](std::string& out) { out += "/home/victim/file"; });
  };
  auto total_at_fs_access = [&] {
    const PointCounters c = trace.counters(DecisionPoint::fs_access);
    return c.allowed + c.denied;
  };
  constexpr std::uint64_t kDisabled = 7;
  for (std::uint64_t i = 0; i < kDisabled; ++i) one();
  EXPECT_EQ(trace.total(), kDisabled);
  EXPECT_EQ(trace.size(), 0u);

  // Enabling starts the ring at the total counted while disabled.
  trace.set_enabled(true);
  one();
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace.snapshot().back().seq, kDisabled);
  EXPECT_EQ(trace.total(), kDisabled + 1);

  // set_capacity() drops the ring but keeps the counters and the seq.
  trace.set_capacity(8);
  EXPECT_EQ(trace.size(), 0u);
  EXPECT_EQ(trace.total(), kDisabled + 1);
  EXPECT_EQ(total_at_fs_access(), kDisabled + 1);
  one();
  EXPECT_EQ(trace.snapshot().back().seq, kDisabled + 1);

  // Verdicts counted while disabled again are skipped over on re-enable.
  trace.set_enabled(false);
  for (int i = 0; i < 3; ++i) one();
  trace.set_enabled(true);
  const std::uint64_t before = trace.total();
  one();
  EXPECT_EQ(trace.snapshot().back().seq, before);
  EXPECT_EQ(trace.total(), before + 1);

  // clear() restarts the counters and the seq at 0.
  trace.clear();
  EXPECT_EQ(trace.total(), 0u);
  EXPECT_EQ(total_at_fs_access(), 0u);
  one();
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace.snapshot().front().seq, 0u);
  EXPECT_EQ(trace.total(), 1u);
}

TEST(DecisionTraceTest, UbfCacheHitReplaysOriginalAttribution) {
  common::SimClock clock;
  simos::UserDb db;
  net::Network nw(&clock);
  const HostId ha = nw.add_host("node-a");
  const HostId hb = nw.add_host("node-b");
  const Uid alice = *db.create_user("alice");
  const Uid bob = *db.create_user("bob");
  auto alice_cred = *simos::login(db, alice);
  auto bob_cred = *simos::login(db, bob);
  ASSERT_TRUE(
      nw.listen(ha, alice_cred, Pid{1}, net::Proto::tcp, 20000).ok());
  auto f = nw.connect(hb, bob_cred, Pid{2}, ha, net::Proto::tcp, 20000);
  ASSERT_TRUE(f.ok());
  const std::uint16_t src = nw.find_flow(*f)->client_port;

  net::Ubf ubf(&db, &nw);
  ASSERT_TRUE(ubf.cache_enabled());
  DecisionTrace trace;
  trace.set_enabled(true);
  ubf.set_trace(&trace);

  const net::ConnRequest req{hb, src, ha, 20000, net::Proto::tcp};
  EXPECT_EQ(ubf.decide(req), net::UbfDecision::deny);
  EXPECT_EQ(ubf.decide(req), net::UbfDecision::deny);
  EXPECT_EQ(ubf.stats().cache_hits, 1u);

  const auto snap = trace.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_FALSE(snap[0].from_cache);
  EXPECT_TRUE(snap[1].from_cache);
  // The cached replay carries the original attribution verbatim: same
  // subject, same object owner, same responsible knob, same channel.
  EXPECT_EQ(snap[1].subject, snap[0].subject);
  EXPECT_EQ(snap[1].object_owner, snap[0].object_owner);
  EXPECT_EQ(snap[0].subject, bob);
  EXPECT_EQ(snap[0].object_owner, alice);
  ASSERT_NE(snap[0].knob, nullptr);
  ASSERT_NE(snap[1].knob, nullptr);
  EXPECT_STREQ(snap[1].knob, knob::ubf);
  EXPECT_EQ(snap[1].channel, snap[0].channel);
  EXPECT_EQ(snap[0].outcome, Outcome::deny);
  EXPECT_EQ(snap[1].outcome, Outcome::deny);
}

// ---------------------------------------------------------------------------
// Label text. Every enforcement point on a hardened cluster writes its
// object label through record()'s append callback; these pin the exact
// bytes each one produces, so the digests and any trace reader see the
// same text whichever way a label is built.
// ---------------------------------------------------------------------------

using Labels = std::vector<std::string>;

core::ClusterConfig hardened_config() {
  core::ClusterConfig cfg;
  cfg.compute_nodes = 2;
  cfg.login_nodes = 1;
  cfg.cpus_per_node = 8;
  cfg.gpus_per_node = 1;
  cfg.gpu_mem_bytes = 1024;
  cfg.policy = core::SeparationPolicy::hardened();
  return cfg;
}

/// The labels recorded at `point` since the trace was last cleared,
/// oldest first. Clears the trace, so each step sees only its own rows.
Labels take_labels(DecisionTrace& trace, DecisionPoint point) {
  Labels out;
  for (const Decision& d : trace.snapshot()) {
    if (d.point == point) out.push_back(d.object);
  }
  trace.clear();
  return out;
}

class DecisionLabelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    victim = *cluster.add_user("victim");
    observer = *cluster.add_user("observer");
    vs = *cluster.login(victim);
    os = *cluster.login(observer);
    // A project listener lets the UBF admit the observer (rule b), so
    // the allow-side labels are reachable under the hardened policy.
    const Gid proj = *cluster.create_project("widgets", victim);
    ASSERT_TRUE(cluster.add_to_project(victim, proj, observer).ok());
    victim_in_proj = *simos::newgrp(cluster.users(), vs.cred, proj);
    cluster.trace().set_enabled(true);
    cluster.trace().clear();
  }

  Labels take(DecisionPoint point) {
    return take_labels(cluster.trace(), point);
  }

  /// Submit a victim job and step it to running.
  const sched::Job& run_victim_job(const sched::JobSpec& spec) {
    const JobId id = *cluster.submit(vs, spec);
    cluster.scheduler().step();
    const sched::Job* job = cluster.scheduler().find_job(id);
    EXPECT_EQ(job->state, sched::JobState::running);
    return *job;
  }

  core::Cluster cluster{hardened_config()};
  Uid victim, observer;
  core::Session vs, os;
  simos::Credentials victim_in_proj;
};

TEST_F(DecisionLabelTest, ProcfsAndPamLabels) {
  (void)cluster.node(vs.node).procfs().stat(os.cred, vs.shell);
  EXPECT_EQ(take(DecisionPoint::procfs_visibility),
            Labels{"/proc/" + std::to_string(vs.shell.value())});

  const NodeId compute = cluster.compute_nodes().front();
  EXPECT_FALSE(cluster.ssh(os, compute).ok());
  EXPECT_EQ(take(DecisionPoint::pam_ssh),
            Labels{"node " + std::to_string(compute.value())});
}

TEST_F(DecisionLabelTest, RdmaLabels) {
  net::Network& nw = cluster.network();
  const HostId vhost = cluster.node(vs.node).host();
  const HostId ohost = cluster.node(os.node).host();
  ASSERT_TRUE(
      nw.listen(vhost, vs.cred, vs.shell, net::Proto::tcp, 24000).ok());
  ASSERT_TRUE(
      nw.listen(vhost, victim_in_proj, vs.shell, net::Proto::tcp, 24001)
          .ok());
  EXPECT_FALSE(
      cluster.rdma().setup_via_tcp(ohost, os.cred, os.shell, vhost, 24000)
          .ok());
  EXPECT_TRUE(
      cluster.rdma().setup_via_tcp(ohost, os.cred, os.shell, vhost, 24001)
          .ok());
  EXPECT_TRUE(cluster.rdma().setup_via_cm(ohost, os.cred, vhost, victim).ok());
  const std::string host = std::to_string(vhost.value());
  EXPECT_EQ(take(DecisionPoint::rdma_setup),
            (Labels{"rendezvous host " + host + " port 24000",
                    "rendezvous host " + host + " port 24001",
                    "cm host " + host}));
}

TEST_F(DecisionLabelTest, FilesystemLabels) {
  vfs::FileSystem& fs = cluster.shared_fs();
  const std::string home = cluster.users().find_user(victim)->home;
  const std::string file = home + "/secret.dat";
  ASSERT_TRUE(fs.write_file(vs.cred, file, "x").ok());
  cluster.trace().clear();

  // Root-owned home refuses the victim's chmod; smask clamps the file's.
  (void)fs.chmod(vs.cred, home, 0777);
  (void)fs.chmod(vs.cred, file, 0666);
  EXPECT_EQ(take(DecisionPoint::fs_chmod), (Labels{home, file}));

  EXPECT_FALSE(fs.read_file(os.cred, file).ok());
  (void)cluster.node(os.node).local_fs().readdir(os.cred, "/tmp");
  EXPECT_EQ(take(DecisionPoint::fs_access), (Labels{file, "/tmp"}));

  EXPECT_FALSE(
      fs.acl_set(vs.cred, file,
                 vfs::AclEntry{vfs::AclTag::named_user, observer, Gid{}, 4})
          .ok());
  EXPECT_EQ(take(DecisionPoint::fs_acl),
            Labels{file + " +user:" + std::to_string(observer.value())});
}

TEST_F(DecisionLabelTest, GpuDeviceAndScrubLabels) {
  sched::JobSpec spec;
  spec.gpus_per_task = 1;
  spec.mem_mb_per_task = 512;
  spec.duration_ns = 10 * common::kSecond;
  const sched::Job& job = run_victim_job(spec);
  core::Node& nd = cluster.node(job.allocations.front().node);
  const GpuId g = job.allocations.front().gpus.front();
  const std::string dev = "/dev/nvidia" + std::to_string(g.value());
  ASSERT_TRUE(
      nd.local_fs().open_device(vs.cred, dev, vfs::Access::write).ok());
  EXPECT_FALSE(
      nd.local_fs().open_device(os.cred, dev, vfs::Access::read).ok());
  EXPECT_EQ(take(DecisionPoint::gpu_dev_access), (Labels{dev, dev}));

  ASSERT_TRUE(nd.gpus().at(g.value()).write(victim, 0, "residue").ok());
  cluster.run_jobs();
  EXPECT_EQ(take(DecisionPoint::gpu_scrub), Labels{dev + " residue"});
}

TEST_F(DecisionLabelTest, PortalLabels) {
  sched::JobSpec spec;
  spec.interactive = true;
  spec.duration_ns = 3600 * common::kSecond;
  const sched::Job& job = run_victim_job(spec);
  const HostId host = cluster.node(job.allocations.front().node).host();
  const auto handler = [](const std::string&) { return std::string{"ok"}; };
  const auto own = cluster.portal().register_app(
      vs.cred, Pid{}, job.id, host, 8888, "jupyter", handler);
  const auto shared = cluster.portal().register_app(
      victim_in_proj, Pid{}, job.id, host, 8889, "dashboard", handler);
  ASSERT_TRUE(own.ok());
  ASSERT_TRUE(shared.ok());
  const auto token = cluster.portal().login(os.cred);
  ASSERT_TRUE(token.ok());
  cluster.trace().clear();

  EXPECT_FALSE(cluster.portal().request(*token, *own, "GET /").ok());
  EXPECT_TRUE(cluster.portal().request(*token, *shared, "GET /").ok());
  const std::string at = " host " + std::to_string(host.value()) + " port ";
  EXPECT_EQ(take(DecisionPoint::portal_forward),
            (Labels{"jupyter" + at + "8888", "dashboard" + at + "8889"}));
}

TEST_F(DecisionLabelTest, ContainerAndLifecycleLabels) {
  const container::Image image("analysis.sif", {});
  EXPECT_FALSE(
      cluster.containers().exec(os.cred, &image, "run", nullptr, nullptr)
          .ok());
  EXPECT_FALSE(
      cluster.containers().exec(os.cred, nullptr, "run", nullptr, nullptr)
          .ok());
  EXPECT_EQ(take(DecisionPoint::container_entry),
            (Labels{"analysis.sif", "<no image>"}));

  lifecycle::Driver entry(&container::entry_machine());
  entry.set_trace(&cluster.trace());
  auto state =
      static_cast<lifecycle::StateId>(container::EntryState::requested);
  ASSERT_NE(entry.fire(state,
                       static_cast<lifecycle::EventId>(
                           container::EntryEvent::exec),
                       [](const lifecycle::Guard&) { return false; },
                       observer, os.cred.egid, kRootUid),
            nullptr);
  EXPECT_EQ(take(DecisionPoint::lifecycle_transition),
            Labels{"container-entry: requested --exec[!entry-authorized]--> "
                   "denied / record-denial"});
}

TEST(DecisionLabelFedTest, FederationDenyLabelIsTheOperation) {
  core::Cluster alpha(hardened_config());
  core::Cluster beta(hardened_config());
  const Uid bob = *alpha.add_user("bob");  // no account on beta
  beta.trace().set_enabled(true);
  fed::Federation fed;
  const fed::ClusterIdx a = fed.add_cluster("alpha", &alpha);
  const fed::ClusterIdx b = fed.add_cluster("beta", &beta);
  const HostId host = beta.node(beta.compute_nodes().front()).host();
  EXPECT_EQ(fed.connect(a, *simos::login(alpha.users(), bob), b, host,
                        net::Proto::tcp, 5000)
                .error(),
            Errno::eperm);
  EXPECT_EQ(take_labels(beta.trace(), DecisionPoint::fed_admission),
            Labels{"connect alpha->beta host " + std::to_string(host.value()) +
                   " port 5000"});
}

}  // namespace
}  // namespace heus::obs
