// Property tests: scheduler invariants under randomized operation
// sequences (submit / cancel / OOM-inject / time advance), for each
// sharing policy.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "sched/scheduler.h"

namespace heus::sched {
namespace {

using common::kSecond;
using simos::Credentials;

struct PropertyCase {
  SharingPolicy policy;
  std::uint64_t seed;
};

class SchedulerPropertyTest
    : public ::testing::TestWithParam<PropertyCase> {
 protected:
  static constexpr unsigned kNodes = 4;
  static constexpr unsigned kCpus = 8;

  void check_invariants(const Scheduler& s,
                        const std::vector<Credentials>& users) {
    for (unsigned n = 0; n < kNodes; ++n) {
      const NodeId node{n};
      // (1) No oversubscription: free cpus in [0, kCpus].
      EXPECT_LE(s.node_free_cpus(node), kCpus);

      // (2) Policy placement invariants.
      const auto jobs = s.jobs_on(node);
      if (GetParam().policy == SharingPolicy::user_whole_node ||
          GetParam().policy == SharingPolicy::exclusive_job) {
        std::set<Uid> owners;
        for (JobId id : jobs) owners.insert(s.find_job(id)->user);
        EXPECT_LE(owners.size(), 1u)
            << "two users co-resident on node " << n;
      }
      if (GetParam().policy == SharingPolicy::exclusive_job) {
        EXPECT_LE(jobs.size(), 1u) << "two jobs on an exclusive node";
      }

      // (3) user_has_job_on is consistent with jobs_on.
      for (const auto& cred : users) {
        bool expected = false;
        for (JobId id : jobs) {
          if (s.find_job(id)->user == cred.uid) expected = true;
        }
        EXPECT_EQ(s.user_has_job_on(cred.uid, node), expected);
      }
    }
  }

  common::SimClock clock;
  simos::UserDb db;
};

TEST_P(SchedulerPropertyTest, InvariantsHoldUnderRandomOps) {
  common::Rng rng(GetParam().seed);
  std::vector<Credentials> users;
  for (int u = 0; u < 5; ++u) {
    users.push_back(
        *simos::login(db, *db.create_user("u" + std::to_string(u))));
  }

  SchedulerConfig cfg;
  cfg.policy = GetParam().policy;
  cfg.node_reboot_ns = 30 * kSecond;
  cfg.priority = rng.chance(0.5) ? PriorityPolicy::fairshare
                                 : PriorityPolicy::fcfs;
  Scheduler s(&clock, cfg);
  for (unsigned i = 0; i < kNodes; ++i) {
    NodeInfo info;
    info.hostname = "c" + std::to_string(i);
    info.cpus = kCpus;
    info.mem_mb = 64 * 1024;
    s.add_node(info);
  }

  std::vector<JobId> submitted;
  std::size_t cancels = 0;
  for (int op = 0; op < 400; ++op) {
    const double roll = rng.uniform01();
    if (roll < 0.5) {
      JobSpec spec;
      spec.num_tasks = static_cast<unsigned>(rng.uniform_int(1, 6));
      spec.mem_mb_per_task = 512;
      spec.duration_ns = rng.uniform_int(1, 60) * kSecond;
      spec.time_limit_ns = spec.duration_ns * 2;
      spec.exclusive = rng.chance(0.1);
      spec.requeue_on_failure = rng.chance(0.2);
      auto id = s.submit(users[rng.bounded(users.size())], spec);
      if (id) submitted.push_back(*id);
    } else if (roll < 0.6 && !submitted.empty()) {
      const JobId id = submitted[rng.bounded(submitted.size())];
      const Job* job = s.find_job(id);
      auto r = s.cancel(
          *simos::login(db, job->user), id);
      if (r) ++cancels;
    } else if (roll < 0.67 && !submitted.empty()) {
      // OOM-inject some running job, if any.
      for (JobId id : submitted) {
        const Job* job = s.find_job(id);
        if (job->state == JobState::running) {
          ASSERT_TRUE(s.inject_oom(id).ok());
          break;
        }
      }
    } else {
      clock.advance(rng.uniform_int(1, 20) * kSecond);
      s.step();
    }
    check_invariants(s, users);
  }

  // (4) Conservation: every submitted job is in exactly one terminal or
  // live state, and the totals add up.
  s.run_until_drained();
  std::size_t terminal = 0, live = 0;
  for (JobId id : submitted) {
    const Job* job = s.find_job(id);
    ASSERT_NE(job, nullptr);
    switch (job->state) {
      case JobState::completed:
      case JobState::failed:
      case JobState::cancelled:
      case JobState::timeout:
        ++terminal;
        break;
      default:
        ++live;
    }
  }
  EXPECT_EQ(live, 0u) << "drained scheduler left live jobs";
  EXPECT_EQ(terminal, submitted.size());
  // One accounting row per job: none finished twice.
  EXPECT_EQ(s.completed_count(), submitted.size());

  // (5) After drain every node is empty and fully free.
  for (unsigned n = 0; n < kNodes; ++n) {
    EXPECT_TRUE(s.jobs_on(NodeId{n}).empty());
    EXPECT_EQ(s.node_free_cpus(NodeId{n}), kCpus);
  }

  // (6) Utilization accounting is bounded.
  EXPECT_LE(s.utilization().utilization(), 1.0 + 1e-9);
  EXPECT_LE(s.utilization().cpu_busy_ns,
            s.utilization().cpu_blocked_ns + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    PolicySeeds, SchedulerPropertyTest,
    ::testing::Values(
        PropertyCase{SharingPolicy::shared, 101},
        PropertyCase{SharingPolicy::shared, 202},
        PropertyCase{SharingPolicy::exclusive_job, 303},
        PropertyCase{SharingPolicy::exclusive_job, 404},
        PropertyCase{SharingPolicy::user_whole_node, 505},
        PropertyCase{SharingPolicy::user_whole_node, 606},
        PropertyCase{SharingPolicy::user_whole_node, 707}),
    [](const ::testing::TestParamInfo<PropertyCase>& info) {
      std::string name = to_string(info.param.policy);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace heus::sched
