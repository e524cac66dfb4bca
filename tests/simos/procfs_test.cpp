#include "simos/procfs.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace heus::simos {
namespace {

class ProcFsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    alice = *db.create_user("alice");
    bob = *db.create_user("bob");
    exempt = *db.create_system_group("proc-exempt");
    alice_cred = *login(db, alice);
    bob_cred = *login(db, bob);
    alice_pid = table.spawn(alice_cred, "python secret_training.py");
    bob_pid = table.spawn(bob_cred, "matlab sim.m");
  }

  ProcFs make(HidepidMode mode, bool with_exempt = false) {
    ProcMountOptions opts;
    opts.hidepid = mode;
    if (with_exempt) opts.exempt_gid = exempt;
    return ProcFs(&table, opts);
  }

  bool lists(const ProcFs& fs, const Credentials& reader, Pid pid) {
    auto pids = fs.list(reader);
    return std::find(pids.begin(), pids.end(), pid) != pids.end();
  }

  common::SimClock clock;
  UserDb db;
  Uid alice, bob;
  Gid exempt;
  Credentials alice_cred, bob_cred;
  ProcessTable table{&clock};
  Pid alice_pid, bob_pid;
};

TEST_F(ProcFsTest, Hidepid0EverythingVisible) {
  ProcFs fs = make(HidepidMode::off);
  EXPECT_TRUE(lists(fs, bob_cred, alice_pid));
  auto d = fs.read_details(bob_cred, alice_pid);
  ASSERT_TRUE(d.ok());
  EXPECT_NE(d->cmdline.find("secret_training"), std::string::npos);
}

TEST_F(ProcFsTest, Hidepid1EntryVisibleContentsProtected) {
  ProcFs fs = make(HidepidMode::restrict_contents);
  // The pid directory still stats...
  EXPECT_TRUE(lists(fs, bob_cred, alice_pid));
  EXPECT_TRUE(fs.stat(bob_cred, alice_pid).ok());
  // ...but its contents are EACCES.
  EXPECT_EQ(fs.read_details(bob_cred, alice_pid).error(), Errno::eacces);
  // Own process stays readable.
  EXPECT_TRUE(fs.read_details(bob_cred, bob_pid).ok());
}

TEST_F(ProcFsTest, Hidepid2ForeignPidsVanish) {
  ProcFs fs = make(HidepidMode::invisible);
  EXPECT_FALSE(lists(fs, bob_cred, alice_pid));
  EXPECT_TRUE(lists(fs, bob_cred, bob_pid));
  // Foreign stat is ENOENT — indistinguishable from no such pid, exactly
  // the hidepid=2 contract.
  EXPECT_EQ(fs.stat(bob_cred, alice_pid).error(), Errno::enoent);
  EXPECT_EQ(fs.read_details(bob_cred, alice_pid).error(), Errno::enoent);
}

TEST_F(ProcFsTest, RootSeesEverythingUnderHidepid2) {
  ProcFs fs = make(HidepidMode::invisible);
  const Credentials root = root_credentials();
  EXPECT_TRUE(lists(fs, root, alice_pid));
  EXPECT_TRUE(lists(fs, root, bob_pid));
  EXPECT_TRUE(fs.read_details(root, alice_pid).ok());
}

TEST_F(ProcFsTest, ExemptGroupBypassesHidepid) {
  ProcFs fs = make(HidepidMode::invisible, /*with_exempt=*/true);
  // bob without the group: blind.
  EXPECT_FALSE(lists(fs, bob_cred, alice_pid));
  // bob with the supplemental group (what seepid grants): full view.
  Credentials staff = bob_cred;
  staff.supplementary.insert(exempt);
  EXPECT_TRUE(lists(fs, staff, alice_pid));
  EXPECT_TRUE(fs.read_details(staff, alice_pid).ok());
  EXPECT_TRUE(fs.is_exempt(staff));
  EXPECT_FALSE(fs.is_exempt(bob_cred));
}

TEST_F(ProcFsTest, SnapshotFiltersConsistently) {
  ProcFs fs = make(HidepidMode::invisible);
  auto bob_view = fs.snapshot(bob_cred);
  ASSERT_EQ(bob_view.size(), 1u);
  EXPECT_EQ(bob_view[0].uid, bob);

  auto root_view = fs.snapshot(root_credentials());
  EXPECT_EQ(root_view.size(), 2u);
}

TEST_F(ProcFsTest, SnapshotSortedByPid) {
  ProcFs fs = make(HidepidMode::off);
  auto view = fs.snapshot(bob_cred);
  ASSERT_EQ(view.size(), 2u);
  EXPECT_LT(view[0].pid, view[1].pid);
}

TEST_F(ProcFsTest, RemountChangesBehaviourInPlace) {
  ProcFs fs = make(HidepidMode::off);
  EXPECT_TRUE(lists(fs, bob_cred, alice_pid));
  fs.remount(ProcMountOptions{HidepidMode::invisible, std::nullopt});
  EXPECT_FALSE(lists(fs, bob_cred, alice_pid));
}

TEST_F(ProcFsTest, MissingPidIsEnoentRegardlessOfMode) {
  for (auto mode : {HidepidMode::off, HidepidMode::restrict_contents,
                    HidepidMode::invisible}) {
    ProcFs fs = make(mode);
    EXPECT_EQ(fs.stat(bob_cred, Pid{9999}).error(), Errno::enoent);
  }
}

TEST_F(ProcFsTest, ListIsAscendingAfterAMiddleExit) {
  const Pid a2 = table.spawn(alice_cred, "a2");
  const Pid b2 = table.spawn(bob_cred, "b2");
  const Pid a3 = table.spawn(alice_cred, "a3");
  ASSERT_TRUE(table.exit(b2).ok());
  ProcFs fs = make(HidepidMode::invisible);
  EXPECT_EQ(fs.list(root_credentials()),
            (std::vector<Pid>{alice_pid, bob_pid, a2, a3}));

  // Each scanned foreign process is one verdict, recorded in pid order.
  obs::DecisionTrace trace;
  trace.set_enabled(true);
  fs.set_trace(&trace);
  EXPECT_EQ(fs.list(bob_cred), (std::vector<Pid>{bob_pid}));
  std::vector<std::string> objects;
  for (const obs::Decision& d : trace.snapshot()) {
    EXPECT_EQ(d.outcome, obs::Outcome::deny);
    objects.push_back(d.object);
  }
  auto label = [](Pid pid) { return "/proc/" + std::to_string(pid.value()); };
  EXPECT_EQ(objects,
            (std::vector<std::string>{label(alice_pid), label(a2), label(a3)}));

  const auto view = fs.snapshot(root_credentials());
  ASSERT_EQ(view.size(), 4u);
  EXPECT_EQ(view[2].pid, a2);
  EXPECT_EQ(view[3].pid, a3);
}

}  // namespace
}  // namespace heus::simos
