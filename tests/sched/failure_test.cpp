// Failure injection: the §IV-B motivation for whole-node scheduling —
// an OOM-ing task takes its node down and every co-resident job with it.
#include <gtest/gtest.h>

#include "sched/scheduler.h"

namespace heus::sched {
namespace {

using common::kSecond;
using simos::Credentials;

class FailureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    alice = *db.create_user("alice");
    bob = *db.create_user("bob");
    a = *simos::login(db, alice);
    b = *simos::login(db, bob);
  }

  std::unique_ptr<Scheduler> make(SharingPolicy policy, unsigned nodes = 2,
                                  unsigned cpus = 8) {
    SchedulerConfig cfg;
    cfg.policy = policy;
    cfg.node_reboot_ns = 100 * kSecond;
    auto s = std::make_unique<Scheduler>(&clock, cfg);
    for (unsigned i = 0; i < nodes; ++i) {
      NodeInfo info;
      info.hostname = "c" + std::to_string(i);
      info.cpus = cpus;
      info.mem_mb = 64 * 1024;
      s->add_node(info);
    }
    return s;
  }

  JobSpec job(std::int64_t duration = 1000 * kSecond) {
    JobSpec spec;
    spec.mem_mb_per_task = 1024;
    spec.duration_ns = duration;
    return spec;
  }

  common::SimClock clock;
  simos::UserDb db;
  Uid alice, bob;
  Credentials a, b;
};

TEST_F(FailureTest, OomFailsCulpritAndTakesNodeDown) {
  auto s = make(SharingPolicy::shared);
  auto j = s->submit(a, job());
  s->step();
  const NodeId node = s->find_job(*j)->allocations[0].node;
  ASSERT_TRUE(s->inject_oom(*j).ok());
  EXPECT_EQ(s->find_job(*j)->state, JobState::failed);
  EXPECT_TRUE(s->node_is_down(node));
  EXPECT_EQ(s->failure_stats().oom_events, 1u);
  EXPECT_EQ(s->failure_stats().culprit_jobs_failed, 1u);
  EXPECT_EQ(s->failure_stats().victim_jobs_failed, 0u);
}

TEST_F(FailureTest, SharedPolicyKillsInnocentCoResidents) {
  auto s = make(SharingPolicy::shared, /*nodes=*/1);
  auto culprit = s->submit(a, job());
  auto victim = s->submit(b, job());
  s->step();
  ASSERT_EQ(s->find_job(*victim)->state, JobState::running);
  ASSERT_TRUE(s->inject_oom(*culprit).ok());
  // The §IV-B scenario: bob's job dies for alice's bug.
  EXPECT_EQ(s->find_job(*victim)->state, JobState::failed);
  EXPECT_EQ(s->failure_stats().victim_jobs_failed, 1u);
  EXPECT_EQ(s->failure_stats().cross_user_victims, 1u);
}

TEST_F(FailureTest, WholeNodePolicyConfinesCollateralToOneUser) {
  auto s = make(SharingPolicy::user_whole_node, /*nodes=*/2);
  auto a1 = s->submit(a, job());
  auto a2 = s->submit(a, job());  // packs with a1
  auto b1 = s->submit(b, job());  // other node
  s->step();
  ASSERT_EQ(s->find_job(*a2)->allocations[0].node,
            s->find_job(*a1)->allocations[0].node);
  ASSERT_NE(s->find_job(*b1)->allocations[0].node,
            s->find_job(*a1)->allocations[0].node);
  ASSERT_TRUE(s->inject_oom(*a1).ok());
  // alice's other job is collateral; bob is untouched.
  EXPECT_EQ(s->find_job(*a2)->state, JobState::failed);
  EXPECT_EQ(s->find_job(*b1)->state, JobState::running);
  EXPECT_EQ(s->failure_stats().victim_jobs_failed, 1u);
  EXPECT_EQ(s->failure_stats().cross_user_victims, 0u);
}

TEST_F(FailureTest, DownNodeRejectsPlacementUntilReboot) {
  auto s = make(SharingPolicy::shared, /*nodes=*/1);
  auto j = s->submit(a, job());
  s->step();
  ASSERT_TRUE(s->inject_oom(*j).ok());
  auto j2 = s->submit(a, job(10 * kSecond));
  s->step();
  EXPECT_EQ(s->find_job(*j2)->state, JobState::pending);
  // The reboot is a schedulable event; draining waits it out.
  s->run_until_drained();
  EXPECT_EQ(s->find_job(*j2)->state, JobState::completed);
  EXPECT_GE(s->find_job(*j2)->start_time.ns, 100 * kSecond);
}

TEST_F(FailureTest, RequeueOnFailureReturnsVictimToQueue) {
  auto s = make(SharingPolicy::shared, /*nodes=*/1);
  auto culprit = s->submit(a, job());
  JobSpec resilient = job(10 * kSecond);
  resilient.requeue_on_failure = true;
  auto victim = s->submit(b, resilient);
  s->step();
  ASSERT_TRUE(s->inject_oom(*culprit).ok());
  EXPECT_EQ(s->find_job(*victim)->state, JobState::pending);
  EXPECT_EQ(s->failure_stats().jobs_requeued, 1u);
  s->run_until_drained();
  EXPECT_EQ(s->find_job(*victim)->state, JobState::completed);
}

TEST_F(FailureTest, CulpritIsNeverRequeued) {
  auto s = make(SharingPolicy::shared, /*nodes=*/1);
  JobSpec spec = job();
  spec.requeue_on_failure = true;  // even if requested
  auto culprit = s->submit(a, spec);
  s->step();
  ASSERT_TRUE(s->inject_oom(*culprit).ok());
  EXPECT_EQ(s->find_job(*culprit)->state, JobState::failed);
}

TEST_F(FailureTest, AdminCrashNodeHasNoCulprit) {
  auto s = make(SharingPolicy::shared, /*nodes=*/1);
  auto j1 = s->submit(a, job());
  auto j2 = s->submit(b, job());
  s->step();
  ASSERT_TRUE(s->crash_node(NodeId{0}).ok());
  EXPECT_EQ(s->find_job(*j1)->state, JobState::failed);
  EXPECT_EQ(s->find_job(*j2)->state, JobState::failed);
  EXPECT_EQ(s->failure_stats().culprit_jobs_failed, 0u);
  EXPECT_EQ(s->failure_stats().victim_jobs_failed, 2u);
  // No culprit -> no cross-user attribution.
  EXPECT_EQ(s->failure_stats().cross_user_victims, 0u);
  // Crashing a down node is EBUSY.
  EXPECT_EQ(s->crash_node(NodeId{0}).error(), Errno::ebusy);
}

TEST_F(FailureTest, InjectOomRequiresRunningJob) {
  auto s = make(SharingPolicy::shared);
  auto j = s->submit(a, job());
  EXPECT_EQ(s->inject_oom(*j).error(), Errno::einval);  // still pending
  EXPECT_EQ(s->inject_oom(JobId{999}).error(), Errno::esrch);
}

TEST_F(FailureTest, CrashHookFires) {
  auto s = make(SharingPolicy::shared, /*nodes=*/1);
  std::vector<NodeId> crashed;
  s->set_node_crash_hook([&](NodeId n) { crashed.push_back(n); });
  auto j = s->submit(a, job());
  s->step();
  ASSERT_TRUE(s->inject_oom(*j).ok());
  ASSERT_EQ(crashed.size(), 1u);
  EXPECT_EQ(crashed[0], NodeId{0});
}

TEST_F(FailureTest, EpilogSkippedOnCrashCleanupIsCrashHooks) {
  // A dead node cannot run its epilog script: crash cleanup is the node
  // crash hook's job (power-loss wipe), not the epilog's. Both victims'
  // epilogs are skipped; the hook fires once for the node.
  auto s = make(SharingPolicy::shared, /*nodes=*/1);
  int epilogs = 0;
  int crash_wipes = 0;
  s->set_epilog([&](const JobNodeContext&) {
    ++epilogs;
    return ok_result();
  });
  s->set_node_crash_hook([&](NodeId) { ++crash_wipes; });
  auto j1 = s->submit(a, job());
  auto j2 = s->submit(b, job());
  s->step();
  ASSERT_TRUE(j2.ok());
  ASSERT_TRUE(s->inject_oom(*j1).ok());
  EXPECT_EQ(epilogs, 0);
  EXPECT_EQ(crash_wipes, 1);
  EXPECT_EQ(s->find_job(*j1)->state, JobState::failed);
  EXPECT_EQ(s->find_job(*j2)->state, JobState::failed);
}

TEST_F(FailureTest, RequeueAtStartInstantFinishesOnce) {
  // The node dies at the instant a --requeue job starts, so the job
  // restarts at once on the other node with an unchanged end time. The
  // first run's completion entry must not finish the second run too.
  auto s = make(SharingPolicy::shared, /*nodes=*/2);
  JobSpec spec = job(10 * kSecond);
  spec.requeue_on_failure = true;
  auto j = s->submit(a, spec);
  ASSERT_TRUE(j.ok());
  s->step();
  ASSERT_EQ(s->find_job(*j)->state, JobState::running);
  const NodeId first = s->find_job(*j)->allocations[0].node;
  const std::int64_t end_ns = s->find_job(*j)->end_time.ns;
  ASSERT_TRUE(s->crash_node(first).ok());
  const Job* restarted = s->find_job(*j);
  ASSERT_EQ(restarted->state, JobState::running);
  ASSERT_NE(restarted->allocations[0].node, first);
  ASSERT_EQ(restarted->end_time.ns, end_ns);
  ASSERT_EQ(restarted->requeues, 1u);
  s->run_until_drained();
  EXPECT_EQ(s->find_job(*j)->state, JobState::completed);
  EXPECT_EQ(s->completed_count(), 1u);
  EXPECT_EQ(s->accounting(a).size(), 1u);
}

TEST_F(FailureTest, RequeueCapFailsJobForGood) {
  // A --requeue job whose node keeps dying is requeued at most
  // default_max_requeues times, then fails for good (and is counted).
  auto s = make(SharingPolicy::shared, /*nodes=*/2);
  JobSpec spec = job(3600 * kSecond);
  spec.requeue_on_failure = true;
  auto j = s->submit(a, spec);
  ASSERT_TRUE(j.ok());
  s->step();
  unsigned crashes = 0;
  while (crashes < 10 && s->find_job(*j)->state != JobState::failed) {
    const Job* running = s->find_job(*j);
    ASSERT_EQ(running->state, JobState::running);
    ASSERT_EQ(running->allocations.size(), 1u);
    ASSERT_TRUE(s->crash_node(running->allocations[0].node).ok());
    ++crashes;
    // Let the reboot finish so the requeued job can land again.
    clock.advance(s->config().node_reboot_ns + kSecond);
    s->step();
  }
  EXPECT_EQ(s->find_job(*j)->state, JobState::failed);
  // cap of 3 requeues -> 4th crash kills it for good.
  EXPECT_EQ(crashes, s->config().default_max_requeues + 1);
  EXPECT_EQ(s->failure_stats().jobs_requeued,
            s->config().default_max_requeues);
  EXPECT_EQ(s->failure_stats().requeue_capped, 1u);
}

}  // namespace
}  // namespace heus::sched
