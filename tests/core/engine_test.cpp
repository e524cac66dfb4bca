// Unit tests for the sharded BSP engine (ISSUE 9 tentpole): shard-map
// construction, cross-op ordering, deferred clock charging, the
// machine-independent work model, and per-group Rng stream identity.
#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "core/engine.h"
#include "net/network.h"

namespace heus::core {
namespace {

TEST(ShardMap, BlocksAndRoundRobinPartitionEveryHost) {
  const ShardMap b = ShardMap::blocks(10, 4);
  ASSERT_EQ(b.host_group.size(), 10u);
  for (std::size_t h = 1; h < b.host_group.size(); ++h) {
    EXPECT_LE(b.host_group[h - 1], b.host_group[h]) << "blocks are contiguous";
  }
  for (const std::uint32_t g : b.host_group) EXPECT_LT(g, 4u);
  EXPECT_EQ(b.host_group.front(), 0u);
  EXPECT_EQ(b.host_group.back(), 3u);

  const ShardMap r = ShardMap::round_robin(10, 4);
  for (std::size_t h = 0; h < r.host_group.size(); ++h) {
    EXPECT_EQ(r.host_group[h], h % 4);
  }

  // Degenerate inputs clamp instead of dividing by zero.
  EXPECT_EQ(ShardMap::blocks(0, 0).groups, 1u);
  EXPECT_EQ(ShardMap::round_robin(3, 0).groups, 1u);
}

/// Fixture: a network of `hosts` hosts partitioned into `groups` blocks,
/// with no listeners — every connect is refused and charges base_syn_ns
/// to its bucket, which makes the charge arithmetic exact.
struct EngineFixture {
  EngineFixture(std::uint32_t groups, unsigned workers, std::size_t hosts) {
    nw = std::make_unique<net::Network>(&clock);
    for (std::size_t h = 0; h < hosts; ++h) {
      host_ids.push_back(nw->add_host("h" + std::to_string(h)));
    }
    map = ShardMap::blocks(hosts, groups);
    EngineConfig cfg;
    cfg.workers = workers;
    engine = std::make_unique<ShardedEngine>(nw.get(), &clock, map, cfg);
    // Group g's hosts, for the tick bodies.
    by_group.resize(map.groups);
    for (std::size_t h = 0; h < hosts; ++h) {
      by_group[map.host_group[h]].push_back(host_ids[h]);
    }
  }

  common::SimClock clock;
  std::unique_ptr<net::Network> nw;
  ShardMap map;
  std::unique_ptr<ShardedEngine> engine;
  std::vector<HostId> host_ids;
  std::vector<std::vector<HostId>> by_group;
};

TEST(ShardedEngine, CrossOpsDrainInGroupThenPostOrder) {
  EngineFixture fx(4, 4, 8);
  std::vector<std::pair<std::uint32_t, int>> order;  // coordinator-only
  fx.engine->set_group_tick([&](std::uint32_t g, common::Rng&) {
    for (int k = 0; k < 3; ++k) {
      fx.engine->post_cross(g, [&order, g, k] { order.emplace_back(g, k); });
    }
  });
  fx.engine->tick();
  ASSERT_EQ(order.size(), 12u);
  std::size_t i = 0;
  for (std::uint32_t g = 0; g < 4; ++g) {
    for (int k = 0; k < 3; ++k, ++i) {
      EXPECT_EQ(order[i], (std::pair<std::uint32_t, int>{g, k}))
          << "cross ops must drain in (group, post-order) order";
    }
  }
  EXPECT_EQ(fx.engine->stats().cross_ops, 12u);
}

TEST(ShardedEngine, TickAdvancesClockByExactlyTheDeferredCharges) {
  EngineFixture fx(4, 2, 8);
  const std::int64_t syn = fx.nw->latency().base_syn_ns;
  constexpr int kConnectsPerGroup = 5;
  fx.engine->set_group_tick([&](std::uint32_t g, common::Rng&) {
    for (int i = 0; i < kConnectsPerGroup; ++i) {
      // No listener anywhere: refused, charging exactly base_syn_ns.
      (void)fx.nw->connect(fx.by_group[g][0], simos::Credentials{}, Pid{1},
                           fx.by_group[g][1], net::Proto::tcp, 4242);
    }
  });
  const std::int64_t t0 = fx.clock.now().ns;
  fx.engine->tick();
  EXPECT_EQ(fx.clock.now().ns - t0, 4 * kConnectsPerGroup * syn);
  // Nothing left pending in the accumulators after the drain.
  for (std::uint32_t b = 0; b < fx.nw->bucket_count(); ++b) {
    EXPECT_EQ(fx.nw->charged_ns(b), 0);
  }
  EXPECT_FALSE(fx.nw->defer_charges());
  EXPECT_EQ(fx.engine->stats().ticks, 1u);
  EXPECT_EQ(fx.engine->stats().intra_tasks, 4u);
  EXPECT_EQ(fx.engine->pool().failed_tasks(), 0u);
}

TEST(ShardedEngine, WorkModelReportsMinOfGroupsAndWorkers) {
  // 8 groups with identical work on 4 workers: greedy assignment packs
  // two groups per worker, so the modeled speedup is exactly 4.
  EngineFixture fx(8, 4, 16);
  fx.engine->set_group_tick([&](std::uint32_t g, common::Rng&) {
    for (int i = 0; i < 3; ++i) {
      (void)fx.nw->connect(fx.by_group[g][0], simos::Credentials{}, Pid{1},
                           fx.by_group[g][1], net::Proto::tcp, 4242);
    }
  });
  for (int t = 0; t < 5; ++t) fx.engine->tick();
  EXPECT_DOUBLE_EQ(fx.engine->stats().modeled_speedup(), 4.0);
  EXPECT_GT(fx.engine->stats().total_work_ns, 0);
}

TEST(ShardedEngine, GroupRngStreamsDependOnlyOnSeedAndGroup) {
  EngineFixture a(4, 1, 8);
  EngineFixture b(4, 8, 8);  // different worker count, same seed
  for (std::uint32_t g = 0; g < 4; ++g) {
    EXPECT_EQ(a.engine->group_rng(g).next(), b.engine->group_rng(g).next())
        << "group " << g << " stream must not depend on worker count";
  }
  // Distinct groups draw from decorrelated streams.
  EngineFixture c(2, 1, 4);
  EXPECT_NE(c.engine->group_rng(0).next(), c.engine->group_rng(1).next());
}

TEST(ShardedEngine, SerialTickRunsAfterCrossDrain) {
  EngineFixture fx(2, 2, 4);
  std::vector<int> events;
  fx.engine->set_group_tick([&](std::uint32_t g, common::Rng&) {
    fx.engine->post_cross(g, [&events] { events.push_back(1); });
  });
  fx.engine->set_serial_tick([&events] { events.push_back(2); });
  fx.engine->tick();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0], 1);
  EXPECT_EQ(events[1], 1);
  EXPECT_EQ(events[2], 2);
}

TEST(ShardedEngine, ThrowingGroupTaskFailsTheTickBeforeTheSerialPhase) {
  EngineFixture fx(4, 2, 8);
  bool cross_ran = false;
  bool serial_ran = false;
  fx.engine->set_group_tick([&](std::uint32_t g, common::Rng&) {
    fx.engine->post_cross(g, [&cross_ran] { cross_ran = true; });
    if (g == 2) throw std::runtime_error("group 2 failed mid-stream");
  });
  fx.engine->set_serial_tick([&serial_ran] { serial_ran = true; });
  EXPECT_THROW(fx.engine->tick(), std::runtime_error);
  EXPECT_FALSE(cross_ran) << "the cross-group drain must not run";
  EXPECT_FALSE(serial_ran) << "the serial phase must not run";
  EXPECT_EQ(fx.engine->stats().ticks, 0u);
}

}  // namespace
}  // namespace heus::core
