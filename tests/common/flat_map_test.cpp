// FlatMap / FlatSet / OrderedSet / OrderedMap (ISSUE 10 satellite): the
// hot-path containers must agree with the node-based standard containers
// on every operation, and — the property the golden digests lean on —
// their iteration order must be a pure function of the operation
// sequence, never of hash-table internals or allocation addresses.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/flat_map.h"
#include "common/ids.h"
#include "common/rng.h"

namespace heus::common {
namespace {

TEST(FlatMapTest, BasicInsertFindErase) {
  FlatMap<std::uint64_t, int> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(7u), nullptr);

  auto [v, inserted] = m.emplace(7, 70);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*v, 70);
  EXPECT_FALSE(m.emplace(7, 99).second);  // duplicate keeps the old value
  EXPECT_EQ(*m.find(7u), 70);

  m.insert_or_assign(7, 71);
  EXPECT_EQ(*m.find(7u), 71);
  m[8] = 80;
  EXPECT_EQ(m.size(), 2u);
  EXPECT_TRUE(m.contains(8u));

  EXPECT_EQ(m.erase(7u), 1u);
  EXPECT_EQ(m.erase(7u), 0u);
  EXPECT_EQ(m.find(7u), nullptr);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMapTest, AgreesWithUnorderedMapUnderRandomChurn) {
  FlatMap<std::uint64_t, std::uint64_t> flat;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  Rng rng(0x10aDEC15u);

  for (int op = 0; op < 20000; ++op) {
    // Small key range forces constant collision/erase/reinsert churn.
    const std::uint64_t key = rng.bounded(512);
    switch (rng.bounded(4)) {
      case 0:
      case 1: {  // insert-or-assign
        const std::uint64_t value = rng.next();
        flat.insert_or_assign(key, value);
        ref[key] = value;
        break;
      }
      case 2: {  // erase
        EXPECT_EQ(flat.erase(key), ref.erase(key));
        break;
      }
      default: {  // lookup
        const std::uint64_t* hit = flat.find(key);
        auto it = ref.find(key);
        ASSERT_EQ(hit != nullptr, it != ref.end());
        if (hit != nullptr) {
          EXPECT_EQ(*hit, it->second);
        }
        break;
      }
    }
    ASSERT_EQ(flat.size(), ref.size());
  }
  // Full-content sweep: every dense entry is present in the reference.
  for (const auto& e : flat) {
    auto it = ref.find(e.key);
    ASSERT_NE(it, ref.end());
    EXPECT_EQ(e.value, it->second);
  }
}

TEST(FlatMapTest, IterationOrderIsAFunctionOfTheOpSequenceAlone) {
  // Two independently-constructed maps fed the same operation sequence
  // must iterate identically — this is what lets a FlatMap-backed
  // structure feed a golden digest.  Run the whole sequence twice.
  std::vector<std::uint64_t> first_order;
  for (int round = 0; round < 2; ++round) {
    FlatMap<std::uint64_t, int> m;
    Rng rng(42);
    for (int op = 0; op < 5000; ++op) {
      const std::uint64_t key = rng.bounded(256);
      if (rng.bounded(3) == 0) {
        m.erase(key);
      } else {
        m.emplace(key, static_cast<int>(op));
      }
    }
    std::vector<std::uint64_t> order;
    for (const auto& e : m) order.push_back(e.key);
    if (round == 0) {
      first_order = order;
    } else {
      EXPECT_EQ(order, first_order);
    }
  }
}

TEST(FlatMapTest, EraseIsSwapWithLastOnTheDenseArray) {
  FlatMap<int, int> m;
  for (int i = 0; i < 5; ++i) m.emplace(i, i * 10);
  // Dense order is insertion order until an erase compacts it.
  m.erase(1);
  std::vector<int> keys;
  for (const auto& e : m) keys.push_back(e.key);
  EXPECT_EQ(keys, (std::vector<int>{0, 4, 2, 3}));
}

TEST(FlatMapTest, HeterogeneousStringViewLookupDoesNotCopy) {
  FlatMap<std::string, int> m;
  m.emplace(std::string("alpha"), 1);
  m.emplace(std::string("beta"), 2);
  const std::string_view needle = "alpha";
  ASSERT_NE(m.find(needle), nullptr);  // no std::string temporary needed
  EXPECT_EQ(*m.find(needle), 1);
  EXPECT_TRUE(m.contains(std::string_view("beta")));
  EXPECT_FALSE(m.contains(std::string_view("gamma")));
  EXPECT_EQ(m.erase(std::string_view("beta")), 1u);
}

TEST(FlatMapTest, StrongIdKeysHashViaValue) {
  FlatMap<Uid, int> m;
  m.emplace(Uid{1001}, 7);
  EXPECT_TRUE(m.contains(Uid{1001}));
  EXPECT_FALSE(m.contains(Uid{1002}));
}

TEST(FlatMapTest, ReserveThenFillDoesNotLoseEntries) {
  FlatMap<std::uint64_t, std::uint64_t> m;
  m.reserve(1000);
  for (std::uint64_t i = 0; i < 1000; ++i) m.emplace(i, i);
  EXPECT_EQ(m.size(), 1000u);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    ASSERT_NE(m.find(i), nullptr);
    EXPECT_EQ(*m.find(i), i);
  }
}

TEST(FlatSetTest, AgreesWithStdSetUnderChurn) {
  FlatSet<std::uint64_t> flat;
  std::set<std::uint64_t> ref;
  Rng rng(7);
  for (int op = 0; op < 10000; ++op) {
    const std::uint64_t key = rng.bounded(200);
    if (rng.bounded(3) == 0) {
      EXPECT_EQ(flat.erase(key), ref.erase(key));
    } else {
      EXPECT_EQ(flat.insert(key), ref.insert(key).second);
    }
    ASSERT_EQ(flat.size(), ref.size());
    EXPECT_EQ(flat.contains(key), ref.contains(key));
  }
}

TEST(OrderedSetTest, IteratesInKeyOrderLikeStdSet) {
  OrderedSet<std::uint32_t> flat;
  std::set<std::uint32_t> ref;
  Rng rng(99);
  for (int op = 0; op < 5000; ++op) {
    const auto key = static_cast<std::uint32_t>(rng.bounded(128));
    if (rng.bounded(3) == 0) {
      EXPECT_EQ(flat.erase(key), ref.erase(key));
    } else {
      EXPECT_EQ(flat.insert(key), ref.insert(key).second);
    }
  }
  // The load-bearing property for the scheduler's candidate sets: storage
  // order IS ascending key order, matching std::set iteration exactly.
  const std::vector<std::uint32_t> got(flat.begin(), flat.end());
  const std::vector<std::uint32_t> want(ref.begin(), ref.end());
  EXPECT_EQ(got, want);
}

TEST(OrderedSetTest, LowerBoundAndFind) {
  OrderedSet<std::uint32_t> s;
  for (std::uint32_t k : {10u, 20u, 30u}) s.insert(k);
  EXPECT_EQ(*s.lower_bound(15u), 20u);
  EXPECT_EQ(*s.lower_bound(20u), 20u);
  EXPECT_EQ(s.lower_bound(31u), s.end());
  EXPECT_NE(s.find(30u), s.end());
  EXPECT_EQ(s.find(25u), s.end());
  EXPECT_EQ(s.count(10u), 1u);
}

TEST(OrderedMapTest, AgreesWithStdMapAndIteratesInKeyOrder) {
  OrderedMap<std::uint64_t, std::uint64_t> flat;
  std::map<std::uint64_t, std::uint64_t> ref;
  Rng rng(123);
  for (int op = 0; op < 5000; ++op) {
    const std::uint64_t key = rng.bounded(96);
    switch (rng.bounded(3)) {
      case 0:
        EXPECT_EQ(flat.erase(key), ref.erase(key));
        break;
      case 1:
        flat[key] += 1;
        ref[key] += 1;
        break;
      default: {
        auto it = flat.find(key);
        auto rit = ref.find(key);
        ASSERT_EQ(it != flat.end(), rit != ref.end());
        if (rit != ref.end()) {
          EXPECT_EQ(it->second, rit->second);
        }
        break;
      }
    }
  }
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> got(flat.begin(),
                                                                 flat.end());
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> want(ref.begin(),
                                                                  ref.end());
  EXPECT_EQ(got, want);
}

TEST(OrderedMapTest, TransparentStringViewLookup) {
  OrderedMap<std::string, int, std::less<>> m;
  m[std::string("normal")] = 1;
  m[std::string("exclusive")] = 2;
  EXPECT_TRUE(m.contains(std::string_view("normal")));
  EXPECT_EQ(m.find(std::string_view("exclusive"))->second, 2);
  EXPECT_FALSE(m.contains(std::string_view("nope")));
}

}  // namespace
}  // namespace heus::common
