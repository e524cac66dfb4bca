// LeakageAuditor: the §V census, measured.
#include "core/audit.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

namespace heus::core {
namespace {

ClusterConfig audit_config(SeparationPolicy policy) {
  ClusterConfig cfg;
  cfg.compute_nodes = 4;
  cfg.login_nodes = 1;
  cfg.cpus_per_node = 16;
  cfg.gpus_per_node = 2;
  cfg.gpu_mem_bytes = 4096;
  cfg.policy = policy;
  return cfg;
}

class AuditTest : public ::testing::Test {
 protected:
  std::vector<ChannelReport> run(SeparationPolicy policy) {
    cluster = std::make_unique<Cluster>(audit_config(policy));
    victim = *cluster->add_user("victim");
    observer = *cluster->add_user("observer");
    LeakageAuditor auditor(cluster.get());
    return auditor.audit_pair(victim, observer);
  }

  static const ChannelReport& find(const std::vector<ChannelReport>& reps,
                                   ChannelKind kind) {
    for (const auto& r : reps) {
      if (r.kind == kind) return r;
    }
    static ChannelReport missing{};
    ADD_FAILURE() << "channel not probed: " << to_string(kind);
    return missing;
  }

  std::unique_ptr<Cluster> cluster;
  Uid victim, observer;
};

TEST_F(AuditTest, BaselineLeaksBroadly) {
  auto reports = run(SeparationPolicy::baseline());
  // On a stock cluster, essentially every channel is open.
  EXPECT_TRUE(find(reports, ChannelKind::procfs_process_list).open);
  EXPECT_TRUE(find(reports, ChannelKind::procfs_cmdline).open);
  EXPECT_TRUE(find(reports, ChannelKind::scheduler_queue).open);
  EXPECT_TRUE(find(reports, ChannelKind::scheduler_accounting).open);
  EXPECT_TRUE(find(reports, ChannelKind::fs_home_read).open);
  EXPECT_TRUE(find(reports, ChannelKind::fs_tmp_content).open);
  EXPECT_TRUE(find(reports, ChannelKind::tcp_cross_user).open);
  EXPECT_TRUE(find(reports, ChannelKind::udp_cross_user).open);
  EXPECT_TRUE(find(reports, ChannelKind::gpu_residue).open);
  EXPECT_TRUE(find(reports, ChannelKind::portal_foreign_app).open);
  EXPECT_TRUE(find(reports, ChannelKind::ssh_foreign_node).open);
  EXPECT_TRUE(find(reports, ChannelKind::fs_acl_user_grant).open);
  EXPECT_GE(LeakageAuditor::open_count(reports), 14u);
}

TEST_F(AuditTest, HardenedClosesEverythingButDocumentedResiduals) {
  auto reports = run(SeparationPolicy::hardened());
  for (const auto& r : reports) {
    if (is_documented_residual(r.kind)) {
      // §V says these remain — the reproduction should agree.
      EXPECT_TRUE(r.open) << to_string(r.kind) << " should remain open: "
                          << r.detail;
    } else {
      EXPECT_FALSE(r.open)
          << to_string(r.kind) << " should be closed: " << r.detail;
    }
  }
  // The headline number: zero unexpected open channels.
  EXPECT_EQ(LeakageAuditor::unexpected_open_count(reports), 0u);
  EXPECT_EQ(LeakageAuditor::open_count(reports), 3u);
}

TEST_F(AuditTest, ResidualSetMatchesPaperExactly) {
  auto reports = run(SeparationPolicy::hardened());
  std::set<ChannelKind> open;
  for (const auto& r : reports) {
    if (r.open) open.insert(r.kind);
  }
  const std::set<ChannelKind> expected{ChannelKind::fs_tmp_names,
                                       ChannelKind::abstract_uds,
                                       ChannelKind::rdma_native_cm};
  EXPECT_EQ(open, expected);
}

TEST_F(AuditTest, ProbesAreRepeatable) {
  for (const SeparationPolicy& policy :
       {SeparationPolicy::hardened(), SeparationPolicy::baseline()}) {
    cluster = std::make_unique<Cluster>(audit_config(policy));
    victim = *cluster->add_user("victim");
    observer = *cluster->add_user("observer");
    LeakageAuditor auditor(cluster.get());
    auto first = auditor.audit_pair(victim, observer);
    auto second = auditor.audit_pair(victim, observer);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
      EXPECT_EQ(first[i].open, second[i].open)
          << to_string(first[i].kind) << ": probe not idempotent";
    }
  }
}

TEST_F(AuditTest, AuditLeavesNothingBehind) {
  const simos::Credentials root = simos::root_credentials();
  const std::pair<const char*, SeparationPolicy> policies[] = {
      {"baseline", SeparationPolicy::baseline()},
      {"hardened", SeparationPolicy::hardened()}};
  for (const auto& [name, policy] : policies) {
    SCOPED_TRACE(name);
    cluster = std::make_unique<Cluster>(audit_config(policy));
    victim = *cluster->add_user("victim");
    observer = *cluster->add_user("observer");
    vfs::FileSystem& shared = cluster->shared_fs();
    const std::string home = cluster->users().find_user(victim)->home;
    const auto before = shared.stat(root, home);
    ASSERT_TRUE(before);

    LeakageAuditor auditor(cluster.get());
    (void)auditor.audit_pair(victim, observer);

    const auto after = shared.stat(root, home);
    ASSERT_TRUE(after);
    EXPECT_EQ(after->mode, before->mode) << "victim's home mode changed";
    vfs::FileSystem& local =
        cluster->node(cluster->login_nodes().front()).local_fs();
    const std::pair<vfs::FileSystem*, std::string> dirs[] = {
        {&local, "/tmp"}, {&local, "/dev/shm"}, {&shared, home}};
    for (const auto& [fs, dir] : dirs) {
      auto listing = fs->readdir(root, dir);
      ASSERT_TRUE(listing) << dir;
      for (const auto& e : *listing) {
        EXPECT_NE(e.name.rfind("audit-", 0), 0u)
            << "probe artifact left behind: " << dir << "/" << e.name;
      }
    }
    EXPECT_EQ(cluster->scheduler().pending_count(), 0u);
    EXPECT_EQ(cluster->scheduler().running_count(), 0u);
    EXPECT_EQ(cluster->network().flow_count(), 0u);
    for (NodeId n : cluster->compute_nodes()) {
      const gpu::GpuSet& gpus = cluster->node(n).gpus();
      for (std::uint32_t g = 0; g < gpus.size(); ++g) {
        EXPECT_FALSE(gpus.at(g).dirty())
            << "GPU residue left on " << cluster->node(n).hostname()
            << " gpu " << g;
      }
    }
  }
}

TEST_F(AuditTest, ProbeListsProcessesOnTheNodeItIsGiven) {
  // Under baseline the login node leaks too, so only the reported pid
  // tells whether the probe looked where it was told to.
  cluster = std::make_unique<Cluster>(
      audit_config(SeparationPolicy::baseline()));
  victim = *cluster->add_user("victim");
  observer = *cluster->add_user("observer");
  // Observer first, so the victim's login shell and its job's task do
  // not share a pid number on their two nodes.
  auto os = cluster->login(observer);
  auto vs = cluster->login(victim);
  ASSERT_TRUE(os && vs);
  sched::JobSpec spec;
  spec.name = "anchor";
  spec.duration_ns = 3600 * common::kSecond;
  auto job = cluster->submit(*vs, spec);
  ASSERT_TRUE(job);
  cluster->scheduler().step();
  const sched::Job* j = cluster->scheduler().find_job(*job);
  ASSERT_TRUE(j != nullptr && j->state == sched::JobState::running);
  const NodeId n = j->allocations.front().node;
  ASSERT_NE(n, vs->node);
  Pid task{};
  for (const auto& d :
       cluster->node(n).procfs().snapshot(simos::root_credentials())) {
    if (d.uid == victim && d.job == *job) task = d.pid;
  }
  ASSERT_NE(task, Pid{});
  ASSERT_NE(task, vs->shell);

  LeakageAuditor auditor(cluster.get());
  const ChannelReport rep =
      auditor.probe(ChannelKind::procfs_process_list, *vs, *os, n);
  EXPECT_TRUE(rep.open);
  EXPECT_EQ(rep.detail,
            "victim pid " + std::to_string(task.value()) + " listed");
}

TEST_F(AuditTest, BlastRadiusContainedUnderHardening) {
  cluster = std::make_unique<Cluster>(
      audit_config(SeparationPolicy::hardened()));
  const Uid attacker = *cluster->add_user("mallory");
  std::vector<Uid> victims;
  for (int i = 0; i < 4; ++i) {
    victims.push_back(
        *cluster->add_user("victim" + std::to_string(i)));
  }
  LeakageAuditor auditor(cluster.get());
  auto blast = auditor.blast_radius(attacker, victims);
  EXPECT_EQ(blast.victims_total, 4u);
  EXPECT_EQ(blast.total_effects(), 0u)
      << "services=" << blast.services_reached
      << " files=" << blast.files_read
      << " procs=" << blast.processes_observed
      << " jobs=" << blast.jobs_observed
      << " collisions=" << blast.port_collisions_won;
}

TEST_F(AuditTest, BlastRadiusWideOpenOnBaseline) {
  cluster = std::make_unique<Cluster>(
      audit_config(SeparationPolicy::baseline()));
  const Uid attacker = *cluster->add_user("mallory");
  std::vector<Uid> victims;
  for (int i = 0; i < 4; ++i) {
    victims.push_back(
        *cluster->add_user("victim" + std::to_string(i)));
  }
  LeakageAuditor auditor(cluster.get());
  auto blast = auditor.blast_radius(attacker, victims);
  EXPECT_GT(blast.services_reached, 0u);
  EXPECT_GT(blast.files_read, 0u);
  EXPECT_GT(blast.processes_observed, 0u);
  EXPECT_GT(blast.jobs_observed, 0u);
  EXPECT_GT(blast.port_collisions_won, 0u);
}

TEST_F(AuditTest, MarkdownReportRendersCensus) {
  auto reports = run(SeparationPolicy::hardened());
  const std::string md = LeakageAuditor::to_markdown(reports);
  EXPECT_NE(md.find("| channel | status |"), std::string::npos);
  EXPECT_NE(md.find("| fs-tmp-names | **OPEN** | yes |"),
            std::string::npos);
  EXPECT_NE(md.find("| gpu-residue | closed | no |"), std::string::npos);
  EXPECT_NE(md.find("(unexpected: 0)"), std::string::npos);
}

TEST_F(AuditTest, ChannelNamesAreStable) {
  // The bench output keys on these strings; keep them meaningful.
  EXPECT_STREQ(to_string(ChannelKind::gpu_residue), "gpu-residue");
  EXPECT_STREQ(to_string(ChannelKind::abstract_uds), "abstract-uds");
  EXPECT_STREQ(to_string(ChannelKind::fs_tmp_names), "fs-tmp-names");
}

}  // namespace
}  // namespace heus::core
