#include "simos/user_db.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "simos/credentials.h"

namespace heus::simos {
namespace {

class UserDbTest : public ::testing::Test {
 protected:
  UserDb db;
};

TEST_F(UserDbTest, RootExistsByDefault) {
  EXPECT_TRUE(db.user_exists(kRootUid));
  EXPECT_TRUE(db.group_exists(kRootGid));
  EXPECT_EQ(db.find_user_by_name("root")->uid, kRootUid);
}

TEST_F(UserDbTest, CreateUserMakesPrivateGroup) {
  auto uid = db.create_user("alice");
  ASSERT_TRUE(uid.ok());
  const User* u = db.find_user(*uid);
  ASSERT_NE(u, nullptr);
  EXPECT_EQ(u->name, "alice");
  EXPECT_EQ(u->home, "/home/alice");

  const Group* upg = db.find_group(u->private_group);
  ASSERT_NE(upg, nullptr);
  EXPECT_EQ(upg->kind, GroupKind::user_private);
  EXPECT_EQ(upg->name, "alice");
  // The defining property of the user-private-group scheme: the group
  // contains exactly its user.
  EXPECT_EQ(upg->members.size(), 1u);
  EXPECT_TRUE(upg->members.contains(*uid));
}

TEST_F(UserDbTest, DuplicateUserNameRejected) {
  ASSERT_TRUE(db.create_user("bob").ok());
  auto dup = db.create_user("bob");
  EXPECT_FALSE(dup.ok());
  EXPECT_EQ(dup.error(), Errno::eexist);
}

TEST_F(UserDbTest, EmptyNameRejected) {
  EXPECT_EQ(db.create_user("").error(), Errno::einval);
}

TEST_F(UserDbTest, ProjectGroupHasStewardAsFirstMember) {
  const Uid alice = *db.create_user("alice");
  auto gid = db.create_project_group("widgets", alice);
  ASSERT_TRUE(gid.ok());
  EXPECT_TRUE(db.is_member(alice, *gid));
  EXPECT_TRUE(db.is_steward(alice, *gid));
}

TEST_F(UserDbTest, StewardControlsMembership) {
  const Uid alice = *db.create_user("alice");
  const Uid bob = *db.create_user("bob");
  const Uid carol = *db.create_user("carol");
  const Gid proj = *db.create_project_group("widgets", alice);

  // Non-steward cannot add members — the "approved project group" rule.
  EXPECT_EQ(db.add_member(bob, proj, carol).error(), Errno::eperm);
  EXPECT_TRUE(db.add_member(alice, proj, bob).ok());
  EXPECT_TRUE(db.is_member(bob, proj));

  // Non-steward cannot remove either.
  EXPECT_EQ(db.remove_member(carol, proj, bob).error(), Errno::eperm);
  EXPECT_TRUE(db.remove_member(alice, proj, bob).ok());
  EXPECT_FALSE(db.is_member(bob, proj));
}

TEST_F(UserDbTest, RootMayManageAnyProjectGroup) {
  const Uid alice = *db.create_user("alice");
  const Uid bob = *db.create_user("bob");
  const Gid proj = *db.create_project_group("widgets", alice);
  EXPECT_TRUE(db.add_member(kRootUid, proj, bob).ok());
  EXPECT_TRUE(db.remove_member(kRootUid, proj, bob).ok());
}

TEST_F(UserDbTest, StewardCannotBeRemovedWhileStillSteward) {
  const Uid alice = *db.create_user("alice");
  const Gid proj = *db.create_project_group("widgets", alice);
  EXPECT_EQ(db.remove_member(kRootUid, proj, alice).error(), Errno::ebusy);
}

TEST_F(UserDbTest, LastStewardCannotBeDemoted) {
  const Uid alice = *db.create_user("alice");
  const Gid proj = *db.create_project_group("widgets", alice);
  EXPECT_EQ(db.remove_steward(alice, proj, alice).error(), Errno::ebusy);
}

TEST_F(UserDbTest, StewardHandoffWorks) {
  const Uid alice = *db.create_user("alice");
  const Uid bob = *db.create_user("bob");
  const Gid proj = *db.create_project_group("widgets", alice);
  EXPECT_TRUE(db.add_steward(alice, proj, bob).ok());
  EXPECT_TRUE(db.remove_steward(bob, proj, alice).ok());
  EXPECT_FALSE(db.is_steward(alice, proj));
  EXPECT_TRUE(db.is_steward(bob, proj));
  // alice remains a plain member until removed.
  EXPECT_TRUE(db.is_member(alice, proj));
}

TEST_F(UserDbTest, CannotAddMemberToPrivateGroup) {
  const Uid alice = *db.create_user("alice");
  const Uid bob = *db.create_user("bob");
  const User* a = db.find_user(alice);
  // Not even root: private groups are immutable singletons.
  EXPECT_EQ(db.add_member(kRootUid, a->private_group, bob).error(),
            Errno::eperm);
}

TEST_F(UserDbTest, SystemGroupMembershipIsRootOnly) {
  const Uid alice = *db.create_user("alice");
  const Gid sys = *db.create_system_group("proc-exempt");
  EXPECT_EQ(db.add_system_member(alice, sys, alice).error(), Errno::eperm);
  EXPECT_TRUE(db.add_system_member(kRootUid, sys, alice).ok());
  EXPECT_TRUE(db.is_member(alice, sys));
}

TEST_F(UserDbTest, GroupsOfListsEverything) {
  const Uid alice = *db.create_user("alice");
  const Gid proj = *db.create_project_group("widgets", alice);
  auto groups = db.groups_of(alice);
  const User* a = db.find_user(alice);
  EXPECT_NE(std::find(groups.begin(), groups.end(), a->private_group),
            groups.end());
  EXPECT_NE(std::find(groups.begin(), groups.end(), proj), groups.end());
}

TEST_F(UserDbTest, RevokedMemberLosesProjectAtNextLogin) {
  const Uid alice = *db.create_user("alice");
  const Uid bob = *db.create_user("bob");
  const Gid proj = *db.create_project_group("widgets", alice);
  ASSERT_TRUE(db.add_member(alice, proj, bob).ok());
  const Credentials before = *login(db, bob);
  ASSERT_TRUE(before.supplementary.contains(proj));
  ASSERT_TRUE(newgrp(db, before, proj).ok());

  ASSERT_TRUE(db.remove_member(alice, proj, bob).ok());
  const Credentials after = *login(db, bob);
  EXPECT_FALSE(after.supplementary.contains(proj));
  EXPECT_EQ(db.groups_of(bob), std::vector<Gid>{after.egid});
  // newgrp consults the database, not the session: the stale session is
  // refused as well.
  EXPECT_EQ(newgrp(db, after, proj).error(), Errno::eperm);
  EXPECT_EQ(newgrp(db, before, proj).error(), Errno::eperm);
}

TEST_F(UserDbTest, GroupNameCollisionWithUserRejected) {
  ASSERT_TRUE(db.create_user("alice").ok());
  // The UPG already took the name.
  EXPECT_EQ(db.create_project_group("alice", kRootUid).error(),
            Errno::eexist);
}

TEST_F(UserDbTest, LookupsReturnNullForMissing) {
  EXPECT_EQ(db.find_user(Uid{9999}), nullptr);
  EXPECT_EQ(db.find_group(Gid{9999}), nullptr);
  EXPECT_EQ(db.find_user_by_name("ghost"), nullptr);
  EXPECT_FALSE(db.is_member(Uid{9999}, Gid{9999}));
}

// Differential check of groups_of's per-user index against a walk over
// every group's member set, the membership truth. A seeded random sequence
// of account and membership operations is issued by root, a steward or a
// stranger, so that permitted and refused calls both occur; after every
// operation each user's groups_of and login must match the walk.
TEST(UserDbIndexDiff, GroupsOfAndLoginMatchMembershipScan) {
  constexpr unsigned kUsers = 64;
  constexpr unsigned kProjects = 16;
  constexpr unsigned kSystems = 2;
  constexpr unsigned kOps = 10'000;
  common::Rng rng(0x96f0'1dec);
  UserDb db;
  std::vector<Uid> users{kRootUid};
  std::vector<Gid> gids{kRootGid};  // every created group, of every kind
  std::vector<Gid> projects;
  std::vector<Gid> systems;

  const auto pick = [&rng](const auto& v) { return v[rng.bounded(v.size())]; };
  // Root, one of the group's stewards, or any user (mostly a stranger).
  const auto actor_for = [&](Gid gid) {
    const Group* g = db.find_group(gid);
    switch (rng.bounded(3)) {
      case 0:
        return kRootUid;
      case 1:
        if (g != nullptr && !g->stewards.empty()) {
          return *std::next(g->stewards.begin(),
                            static_cast<std::ptrdiff_t>(
                                rng.bounded(g->stewards.size())));
        }
        [[fallthrough]];
      default:
        return pick(users);
    }
  };
  // Mostly a project group; sometimes any group, so refusals on private
  // and system groups occur too.
  const auto target = [&] {
    return projects.empty() || rng.chance(0.2) ? pick(gids) : pick(projects);
  };

  // [operation kind][refused, permitted]
  std::array<std::array<unsigned, 2>, 8> outcomes{};

  for (unsigned op = 0; op < kOps; ++op) {
    const auto kind = static_cast<std::size_t>(rng.bounded(outcomes.size()));
    bool ok = false;
    switch (kind) {
      case 0: {
        // Names repeat, so duplicates are refused once all exist.
        auto uid = db.create_user("u" + std::to_string(rng.bounded(kUsers)));
        ok = uid.ok();
        if (uid) {
          users.push_back(*uid);
          gids.push_back(db.find_user(*uid)->private_group);
        }
        break;
      }
      case 1: {
        auto gid = db.create_project_group(
            "p" + std::to_string(rng.bounded(kProjects)), pick(users));
        ok = gid.ok();
        if (gid) {
          projects.push_back(*gid);
          gids.push_back(*gid);
        }
        break;
      }
      case 2: {
        auto gid =
            db.create_system_group("s" + std::to_string(rng.bounded(kSystems)));
        ok = gid.ok();
        if (gid) {
          systems.push_back(*gid);
          gids.push_back(*gid);
        }
        break;
      }
      case 3: {
        const Gid g = target();
        ok = db.add_member(actor_for(g), g, pick(users)).ok();
        break;
      }
      case 4: {
        const Gid g = target();
        ok = db.remove_member(actor_for(g), g, pick(users)).ok();
        break;
      }
      case 5: {
        const Gid g = target();
        ok = db.add_steward(actor_for(g), g, pick(users)).ok();
        break;
      }
      case 6: {
        const Gid g = target();
        ok = db.remove_steward(actor_for(g), g, pick(users)).ok();
        break;
      }
      default: {
        const Gid g = systems.empty() || rng.chance(0.2) ? pick(gids)
                                                          : pick(systems);
        const Uid actor = rng.chance(0.5) ? kRootUid : pick(users);
        ok = db.add_system_member(actor, g, pick(users)).ok();
        break;
      }
    }
    ++outcomes[kind][ok ? 1 : 0];

    // The reference: walk every created group's member set, the truth
    // is_member reads. Gids are handed out in ascending order, so `gids`
    // is sorted and each list comes out private group first, then
    // ascending: the exact order groups_of promises.
    std::map<Uid, std::vector<Gid>> scan;
    for (const Uid u : users) scan[u] = {db.find_user(u)->private_group};
    for (const Gid g : gids) {
      for (const Uid m : db.find_group(g)->members) {
        std::vector<Gid>& groups = scan.at(m);
        if (groups.front() != g) groups.push_back(g);
      }
    }
    for (const auto& [u, expected] : scan) {
      ASSERT_EQ(db.groups_of(u), expected)
          << "op " << op << ", uid " << u.value();
      const auto cred = login(db, u);
      ASSERT_TRUE(cred.ok());
      ASSERT_EQ(std::vector<Gid>(cred->supplementary.begin(),
                                 cred->supplementary.end()),
                std::vector<Gid>(expected.begin() + 1, expected.end()))
          << "op " << op << ", uid " << u.value();
    }
  }
  EXPECT_EQ(users.size(), kUsers + 1);
  EXPECT_EQ(projects.size(), kProjects);
  EXPECT_EQ(systems.size(), kSystems);
  for (std::size_t k = 0; k < outcomes.size(); ++k) {
    EXPECT_GT(outcomes[k][0], 0u) << "no refused call of kind " << k;
    EXPECT_GT(outcomes[k][1], 0u) << "no permitted call of kind " << k;
  }
}

}  // namespace
}  // namespace heus::simos
