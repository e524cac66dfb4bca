#include "simos/user_db.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <string_view>
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

  const auto upg = db.find_group(u->private_group);
  ASSERT_TRUE(upg.has_value());
  EXPECT_EQ(upg->gid, u->private_group);
  EXPECT_EQ(upg->kind, GroupKind::user_private);
  EXPECT_EQ(upg->name, "alice");
  // The defining property of the user-private-group scheme: the group
  // contains exactly its user.
  const Uid stranger = *db.create_user("mallory");
  EXPECT_TRUE(db.is_member(*uid, upg->gid));
  EXPECT_FALSE(db.is_member(stranger, upg->gid));
  EXPECT_FALSE(db.is_member(kRootUid, upg->gid));
  EXPECT_FALSE(db.is_steward(*uid, upg->gid));
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

TEST_F(UserDbTest, UserNameCollisionWithGroupRejected) {
  const Uid alice = *db.create_user("alice");
  ASSERT_TRUE(db.create_project_group("widgets", alice).ok());
  ASSERT_TRUE(db.create_system_group("proc-exempt").ok());
  // Users and groups share one namespace, whichever came first.
  EXPECT_EQ(db.create_user("widgets").error(), Errno::eexist);
  EXPECT_EQ(db.create_user("proc-exempt").error(), Errno::eexist);
  EXPECT_EQ(db.create_user("root").error(), Errno::eexist);
  EXPECT_EQ(db.find_user_by_name("widgets"), nullptr);
}

TEST_F(UserDbTest, LookupsReturnNullForMissing) {
  const Uid alice = *db.create_user("alice");
  const Gid alice_upg = db.find_user(alice)->private_group;
  const Gid proj = *db.create_project_group("widgets", alice);
  // 1 and 999 are reserved; the rest were never issued.
  const std::array<Uid, 4> uids{Uid{1}, Uid{999}, Uid{alice.value() + 1},
                                Uid{9999}};
  const std::array<Gid, 4> gids{Gid{1}, Gid{999}, Gid{proj.value() + 1},
                                Gid{9999}};
  for (const Uid u : uids) {
    EXPECT_EQ(db.find_user(u), nullptr) << u.value();
    EXPECT_FALSE(db.user_exists(u)) << u.value();
    EXPECT_FALSE(db.is_member(u, alice_upg)) << u.value();
    EXPECT_FALSE(db.is_member(u, proj)) << u.value();
    EXPECT_FALSE(db.is_member(u, kRootGid)) << u.value();
  }
  for (const Gid g : gids) {
    EXPECT_FALSE(db.find_group(g).has_value()) << g.value();
    EXPECT_FALSE(db.group_exists(g)) << g.value();
    EXPECT_FALSE(db.is_member(alice, g)) << g.value();
    EXPECT_FALSE(db.is_member(kRootUid, g)) << g.value();
    EXPECT_FALSE(db.is_steward(alice, g)) << g.value();
    for (const Uid u : uids) EXPECT_FALSE(db.is_member(u, g));
  }
  EXPECT_EQ(db.find_user_by_name("ghost"), nullptr);
  EXPECT_FALSE(db.find_group_by_name("ghost").has_value());
}

// By gid and by name. Users and groups share one namespace, so a user's
// name finds their private group, and "root" finds gid 0 as a system group.
TEST_F(UserDbTest, FindGroupReportsEveryKind) {
  const Uid alice = *db.create_user("alice");
  const Gid upg = db.find_user(alice)->private_group;
  const Gid proj = *db.create_project_group("widgets", alice);
  const Gid sys = *db.create_system_group("proc-exempt");
  const struct {
    Gid gid;
    std::string_view name;
    GroupKind kind;
  } want[] = {{kRootGid, "root", GroupKind::system},
              {upg, "alice", GroupKind::user_private},
              {proj, "widgets", GroupKind::project},
              {sys, "proc-exempt", GroupKind::system}};
  for (const auto& w : want) {
    for (const auto& g :
         {db.find_group(w.gid), db.find_group_by_name(w.name)}) {
      ASSERT_TRUE(g.has_value()) << w.name;
      EXPECT_EQ(g->gid, w.gid) << w.name;
      EXPECT_EQ(g->name, w.name);
      EXPECT_EQ(g->kind, w.kind) << w.name;
    }
  }
}

// Rows never move: what find_user and find_group hand out for the first
// account stays valid while the store grows by three of its 4,096-row
// chunks. Under ASan a store that moved its rows fails here.
TEST_F(UserDbTest, LookupResultsSurviveGrowth) {
  const Uid alice = *db.create_user("alice");
  const Gid proj = *db.create_project_group("widgets", alice);
  const User* first = db.find_user(alice);
  const std::string_view upg_name = db.find_group(first->private_group)->name;
  const std::string_view proj_name = db.find_group(proj)->name;
  constexpr unsigned kMore = 3 * 4096;
  Uid last;
  for (unsigned i = 0; i < kMore; ++i) {
    last = *db.create_user("u" + std::to_string(i));
  }
  EXPECT_EQ(db.find_user(alice), first);
  EXPECT_EQ(first->name, "alice");
  EXPECT_EQ(first->home, "/home/alice");
  EXPECT_EQ(upg_name, "alice");
  EXPECT_EQ(proj_name, "widgets");
  EXPECT_EQ(db.find_user_by_name("alice"), first);
  EXPECT_EQ(last.value(), alice.value() + kMore);
  const User* newest = db.find_user(last);
  ASSERT_NE(newest, nullptr);
  EXPECT_EQ(newest->name, "u" + std::to_string(kMore - 1));
  EXPECT_TRUE(db.is_member(last, newest->private_group));
  EXPECT_FALSE(db.is_member(alice, newest->private_group));
}

// Differential check of the database against a test-side model of every
// group's members and stewards, updated from each call's outcome. A seeded
// random sequence of account and membership operations is issued by root,
// a steward or a stranger, so that permitted and refused calls both occur;
// after every operation each user's groups_of and login must match a walk
// over the model, and is_member / is_steward must agree with it.
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
  // The model: every group's members and stewards.
  std::map<Gid, std::set<Uid>> members{{kRootGid, {kRootUid}}};
  std::map<Gid, std::set<Uid>> stewards{{kRootGid, {}}};

  const auto pick = [&rng](const auto& v) { return v[rng.bounded(v.size())]; };
  // Root, one of the group's stewards, or any user (mostly a stranger).
  const auto actor_for = [&](Gid gid) {
    const std::set<Uid>& held = stewards.at(gid);
    switch (rng.bounded(3)) {
      case 0:
        return kRootUid;
      case 1:
        if (!held.empty()) {
          return *std::next(held.begin(), static_cast<std::ptrdiff_t>(
                                              rng.bounded(held.size())));
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

  // Checks one group's members and stewards against the model.
  const auto agrees = [&](Gid g) {
    const std::set<Uid>& m = members.at(g);
    const std::set<Uid>& st = stewards.at(g);
    for (const Uid u : users) {
      if (db.is_member(u, g) != m.contains(u) ||
          db.is_steward(u, g) != st.contains(u)) {
        ADD_FAILURE() << "gid " << g.value() << ", uid " << u.value();
        return false;
      }
    }
    return true;
  };

  for (unsigned op = 0; op < kOps; ++op) {
    const auto kind = static_cast<std::size_t>(rng.bounded(outcomes.size()));
    bool ok = false;
    Gid touched = kRootGid;
    switch (kind) {
      case 0: {
        // Names repeat, so duplicates are refused once all exist.
        auto uid = db.create_user("u" + std::to_string(rng.bounded(kUsers)));
        ok = uid.ok();
        if (uid) {
          touched = db.find_user(*uid)->private_group;
          users.push_back(*uid);
          gids.push_back(touched);
          members[touched] = {*uid};
          stewards[touched] = {};
        }
        break;
      }
      case 1: {
        const Uid steward = pick(users);
        auto gid = db.create_project_group(
            "p" + std::to_string(rng.bounded(kProjects)), steward);
        ok = gid.ok();
        if (gid) {
          touched = *gid;
          projects.push_back(*gid);
          gids.push_back(*gid);
          members[*gid] = {steward};
          stewards[*gid] = {steward};
        }
        break;
      }
      case 2: {
        auto gid =
            db.create_system_group("s" + std::to_string(rng.bounded(kSystems)));
        ok = gid.ok();
        if (gid) {
          touched = *gid;
          systems.push_back(*gid);
          gids.push_back(*gid);
          members[*gid] = {};
          stewards[*gid] = {};
        }
        break;
      }
      case 3: {
        touched = target();
        const Uid who = pick(users);
        ok = db.add_member(actor_for(touched), touched, who).ok();
        if (ok) members.at(touched).insert(who);
        break;
      }
      case 4: {
        touched = target();
        const Uid who = pick(users);
        ok = db.remove_member(actor_for(touched), touched, who).ok();
        if (ok) members.at(touched).erase(who);
        break;
      }
      case 5: {
        touched = target();
        const Uid who = pick(users);
        ok = db.add_steward(actor_for(touched), touched, who).ok();
        if (ok) {
          stewards.at(touched).insert(who);
          members.at(touched).insert(who);
        }
        break;
      }
      case 6: {
        touched = target();
        const Uid who = pick(users);
        ok = db.remove_steward(actor_for(touched), touched, who).ok();
        if (ok) stewards.at(touched).erase(who);
        break;
      }
      default: {
        touched = systems.empty() || rng.chance(0.2) ? pick(gids)
                                                      : pick(systems);
        const Uid actor = rng.chance(0.5) ? kRootUid : pick(users);
        const Uid who = pick(users);
        ok = db.add_system_member(actor, touched, who).ok();
        if (ok) members.at(touched).insert(who);
        break;
      }
    }
    ++outcomes[kind][ok ? 1 : 0];

    // is_member / is_steward: the touched group after every call, and
    // every group now and then.
    ASSERT_TRUE(agrees(touched)) << "op " << op;
    if (op % 64 == 0 || op + 1 == kOps) {
      for (const Gid g : gids) ASSERT_TRUE(agrees(g)) << "op " << op;
    }

    // The reference: walk every created group's member set in the model.
    // Gids are handed out in ascending order, so `gids` is sorted and each
    // list comes out private group first, then ascending: the exact order
    // groups_of promises.
    std::map<Uid, std::vector<Gid>> scan;
    for (const Uid u : users) scan[u] = {db.find_user(u)->private_group};
    for (const Gid g : gids) {
      for (const Uid m : members.at(g)) {
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
