#include "vfs/filesystem.h"

#include <gtest/gtest.h>

namespace heus::vfs {
namespace {

using simos::Credentials;
using simos::root_credentials;

class FileSystemTest : public ::testing::Test {
 protected:
  void SetUp() override {
    alice = *db.create_user("alice");
    bob = *db.create_user("bob");
    proj = *db.create_project_group("widgets", alice);
    ASSERT_TRUE(db.add_member(alice, proj, bob).ok());
    a = *simos::login(db, alice);
    b = *simos::login(db, bob);
    root = root_credentials();
    // Use a permissive policy here; smask behaviour has its own suite.
    fs = std::make_unique<FileSystem>("test", &db, &clock,
                                      FsPolicy::baseline());
    ASSERT_TRUE(fs->mkdir(root, "/home", 0755).ok());
    ASSERT_TRUE(fs->mkdir(root, "/home/alice", 0755).ok());
    ASSERT_TRUE(fs->chown(root, "/home/alice", alice).ok());
  }

  common::SimClock clock;
  simos::UserDb db;
  Uid alice, bob;
  Gid proj;
  Credentials a, b, root;
  std::unique_ptr<FileSystem> fs;
};

TEST_F(FileSystemTest, CreateAndReadBack) {
  ASSERT_TRUE(fs->write_file(a, "/home/alice/x.txt", "hello").ok());
  auto content = fs->read_file(a, "/home/alice/x.txt");
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "hello");
}

TEST_F(FileSystemTest, CreateRespectsUmask) {
  // a.umask is 0022; requested 0666 lands at 0644.
  ASSERT_TRUE(fs->create(a, "/home/alice/f", 0666).ok());
  EXPECT_EQ(fs->stat(a, "/home/alice/f")->mode, 0644u);
}

TEST_F(FileSystemTest, ExclusiveCreateFailsOnExisting) {
  ASSERT_TRUE(fs->create(a, "/home/alice/f", 0644).ok());
  EXPECT_EQ(fs->create(a, "/home/alice/f", 0644).error(), Errno::eexist);
}

TEST_F(FileSystemTest, MissingParentIsEnoent) {
  EXPECT_EQ(fs->create(a, "/home/alice/no/f", 0644).error(), Errno::enoent);
}

TEST_F(FileSystemTest, FileComponentInPathIsEnotdir) {
  ASSERT_TRUE(fs->create(a, "/home/alice/f", 0644).ok());
  EXPECT_EQ(fs->create(a, "/home/alice/f/x", 0644).error(), Errno::enotdir);
}

TEST_F(FileSystemTest, OwnerModeBitsGoverned) {
  ASSERT_TRUE(fs->write_file(a, "/home/alice/f", "data").ok());
  ASSERT_TRUE(fs->chmod(a, "/home/alice/f", 0200).ok());  // write-only
  EXPECT_EQ(fs->read_file(a, "/home/alice/f").error(), Errno::eacces);
  ASSERT_TRUE(fs->chmod(a, "/home/alice/f", 0400).ok());
  EXPECT_TRUE(fs->read_file(a, "/home/alice/f").ok());
  EXPECT_EQ(fs->write_file(a, "/home/alice/f", "x").error(),
            Errno::eacces);
}

TEST_F(FileSystemTest, GroupBitsApplyToMembers) {
  ASSERT_TRUE(fs->write_file(a, "/home/alice/shared", "team data").ok());
  ASSERT_TRUE(fs->chgrp(a, "/home/alice/shared", proj).ok());
  ASSERT_TRUE(fs->chmod(a, "/home/alice/shared", 0640).ok());
  // bob is a member of proj: group read applies.
  EXPECT_TRUE(fs->read_file(b, "/home/alice/shared").ok());
  EXPECT_EQ(fs->write_file(b, "/home/alice/shared", "x").error(),
            Errno::eacces);
}

TEST_F(FileSystemTest, OtherBitsApplyToStrangers) {
  ASSERT_TRUE(fs->write_file(a, "/home/alice/pub", "public").ok());
  ASSERT_TRUE(fs->chmod(a, "/home/alice/pub", 0604).ok());
  EXPECT_TRUE(fs->read_file(b, "/home/alice/pub").ok());
  ASSERT_TRUE(fs->chmod(a, "/home/alice/pub", 0600).ok());
  EXPECT_EQ(fs->read_file(b, "/home/alice/pub").error(), Errno::eacces);
}

TEST_F(FileSystemTest, DirectorySearchBitRequiredForTraversal) {
  ASSERT_TRUE(fs->mkdir(a, "/home/alice/sub", 0755).ok());
  ASSERT_TRUE(fs->write_file(a, "/home/alice/sub/f", "x").ok());
  // File is 0644 under a 0755 directory: bob reads it fine.
  ASSERT_TRUE(fs->chmod(a, "/home/alice/sub/f", 0644).ok());
  EXPECT_TRUE(fs->read_file(b, "/home/alice/sub/f").ok());
  // Removing the dir search bit blocks traversal even to readable files.
  ASSERT_TRUE(fs->chmod(a, "/home/alice/sub", 0744).ok());
  EXPECT_EQ(fs->read_file(b, "/home/alice/sub/f").error(), Errno::eacces);
}

TEST_F(FileSystemTest, ReaddirRequiresReadBit) {
  ASSERT_TRUE(fs->mkdir(a, "/home/alice/d", 0711).ok());
  ASSERT_TRUE(fs->write_file(a, "/home/alice/d/f", "x").ok());
  // Execute-only directory: traversal works, listing does not.
  ASSERT_TRUE(fs->chmod(a, "/home/alice/d/f", 0644).ok());
  EXPECT_TRUE(fs->read_file(b, "/home/alice/d/f").ok());
  EXPECT_EQ(fs->readdir(b, "/home/alice/d").error(), Errno::eacces);
}

TEST_F(FileSystemTest, UnlinkRequiresDirWrite) {
  ASSERT_TRUE(fs->write_file(a, "/home/alice/f", "x").ok());
  EXPECT_EQ(fs->unlink(b, "/home/alice/f").error(), Errno::eacces);
  EXPECT_TRUE(fs->unlink(a, "/home/alice/f").ok());
  EXPECT_EQ(fs->read_file(a, "/home/alice/f").error(), Errno::enoent);
}

TEST_F(FileSystemTest, StickyBitProtectsTmpEntries) {
  ASSERT_TRUE(fs->mkdir(root, "/tmp", 0777).ok());
  ASSERT_TRUE(fs->chmod(root, "/tmp", 01777).ok());
  ASSERT_TRUE(fs->write_file(a, "/tmp/alice.dat", "x").ok());
  // bob may write to /tmp but not unlink alice's file.
  EXPECT_EQ(fs->unlink(b, "/tmp/alice.dat").error(), Errno::eperm);
  EXPECT_TRUE(fs->write_file(b, "/tmp/bob.dat", "y").ok());
  EXPECT_TRUE(fs->unlink(a, "/tmp/alice.dat").ok());
  // Root bypasses the sticky rule.
  EXPECT_TRUE(fs->unlink(root, "/tmp/bob.dat").ok());
}

TEST_F(FileSystemTest, RmdirOnlyWhenEmpty) {
  ASSERT_TRUE(fs->mkdir(a, "/home/alice/d", 0755).ok());
  ASSERT_TRUE(fs->write_file(a, "/home/alice/d/f", "x").ok());
  EXPECT_EQ(fs->rmdir(a, "/home/alice/d").error(), Errno::enotempty);
  ASSERT_TRUE(fs->unlink(a, "/home/alice/d/f").ok());
  EXPECT_TRUE(fs->rmdir(a, "/home/alice/d").ok());
}

TEST_F(FileSystemTest, UnlinkOnDirectoryIsEisdir) {
  ASSERT_TRUE(fs->mkdir(a, "/home/alice/d", 0755).ok());
  EXPECT_EQ(fs->unlink(a, "/home/alice/d").error(), Errno::eisdir);
}

TEST_F(FileSystemTest, RenameMovesWithinAndAcrossDirs) {
  ASSERT_TRUE(fs->mkdir(a, "/home/alice/src", 0755).ok());
  ASSERT_TRUE(fs->mkdir(a, "/home/alice/dst", 0755).ok());
  ASSERT_TRUE(fs->write_file(a, "/home/alice/src/f", "payload").ok());
  ASSERT_TRUE(fs->rename(a, "/home/alice/src/f",
                         "/home/alice/dst/g").ok());
  EXPECT_EQ(fs->read_file(a, "/home/alice/src/f").error(), Errno::enoent);
  EXPECT_EQ(*fs->read_file(a, "/home/alice/dst/g"), "payload");
}

TEST_F(FileSystemTest, RenameReplacesExistingFile) {
  ASSERT_TRUE(fs->write_file(a, "/home/alice/f", "new").ok());
  ASSERT_TRUE(fs->write_file(a, "/home/alice/g", "old").ok());
  ASSERT_TRUE(fs->rename(a, "/home/alice/f", "/home/alice/g").ok());
  EXPECT_EQ(*fs->read_file(a, "/home/alice/g"), "new");
}

TEST_F(FileSystemTest, ChmodOnlyByOwnerOrRoot) {
  ASSERT_TRUE(fs->write_file(a, "/home/alice/f", "x").ok());
  EXPECT_EQ(fs->chmod(b, "/home/alice/f", 0777).error(), Errno::eperm);
  EXPECT_TRUE(fs->chmod(root, "/home/alice/f", 0600).ok());
}

TEST_F(FileSystemTest, ChownIsRootOnly) {
  ASSERT_TRUE(fs->write_file(a, "/home/alice/f", "x").ok());
  EXPECT_EQ(fs->chown(a, "/home/alice/f", bob).error(), Errno::eperm);
  EXPECT_TRUE(fs->chown(root, "/home/alice/f", bob).ok());
  EXPECT_EQ(fs->stat(root, "/home/alice/f")->uid, bob);
}

TEST_F(FileSystemTest, ChgrpRequiresMembershipOfTargetGroup) {
  ASSERT_TRUE(fs->write_file(a, "/home/alice/f", "x").ok());
  // alice is a member of proj: allowed.
  EXPECT_TRUE(fs->chgrp(a, "/home/alice/f", proj).ok());
  // alice is NOT a member of bob's private group: denied. This is the
  // stock Linux rule the paper's sharing policy leans on.
  const Gid bob_upg = db.find_user(bob)->private_group;
  EXPECT_EQ(fs->chgrp(a, "/home/alice/f", bob_upg).error(), Errno::eperm);
}

TEST_F(FileSystemTest, SetgidDirectoryPropagatesGroup) {
  ASSERT_TRUE(fs->mkdir(root, "/proj", 0755).ok());
  ASSERT_TRUE(fs->mkdir(root, "/proj/widgets", 0770).ok());
  ASSERT_TRUE(fs->chgrp(root, "/proj/widgets", proj).ok());
  ASSERT_TRUE(fs->chmod(root, "/proj/widgets", 02770).ok());

  ASSERT_TRUE(fs->write_file(a, "/proj/widgets/data", "x").ok());
  EXPECT_EQ(fs->stat(a, "/proj/widgets/data")->gid, proj);

  // Subdirectories inherit the setgid bit itself, too.
  ASSERT_TRUE(fs->mkdir(a, "/proj/widgets/sub", 0770).ok());
  const auto sub = fs->stat(a, "/proj/widgets/sub");
  EXPECT_EQ(sub->gid, proj);
  EXPECT_NE(sub->mode & kModeSetgid, 0u);
}

TEST_F(FileSystemTest, SymlinksFollowAndReport) {
  ASSERT_TRUE(fs->write_file(a, "/home/alice/target", "via link").ok());
  ASSERT_TRUE(fs->symlink(a, "/home/alice/target",
                          "/home/alice/link").ok());
  EXPECT_EQ(*fs->read_file(a, "/home/alice/link"), "via link");
  EXPECT_EQ(*fs->readlink(a, "/home/alice/link"), "/home/alice/target");
}

TEST_F(FileSystemTest, RelativeSymlinkResolvesAgainstParent) {
  ASSERT_TRUE(fs->write_file(a, "/home/alice/target", "rel").ok());
  ASSERT_TRUE(fs->symlink(a, "target", "/home/alice/rellink").ok());
  EXPECT_EQ(*fs->read_file(a, "/home/alice/rellink"), "rel");
}

TEST_F(FileSystemTest, SymlinkLoopDetected) {
  ASSERT_TRUE(fs->symlink(a, "/home/alice/l2", "/home/alice/l1").ok());
  ASSERT_TRUE(fs->symlink(a, "/home/alice/l1", "/home/alice/l2").ok());
  EXPECT_EQ(fs->read_file(a, "/home/alice/l1").error(), Errno::eloop);
}

TEST_F(FileSystemTest, MknodRootOnlyAndOpenDevice) {
  ASSERT_TRUE(fs->mkdir(root, "/dev", 0755).ok());
  EXPECT_EQ(fs->mknod_chardev(a, "/dev/fake", 0666,
                              DeviceRef{"x", 0}).error(),
            Errno::eperm);
  ASSERT_TRUE(fs->mknod_chardev(root, "/dev/nvidia0", 0660,
                                DeviceRef{"nvidia", 0}).ok());
  ASSERT_TRUE(fs->chgrp(root, "/dev/nvidia0",
                        db.find_user(alice)->private_group).ok());
  auto dev = fs->open_device(a, "/dev/nvidia0", Access::write);
  ASSERT_TRUE(dev.ok());
  EXPECT_EQ(dev->device_class, "nvidia");
  // bob (not in alice's UPG) is denied.
  EXPECT_EQ(fs->open_device(b, "/dev/nvidia0", Access::read).error(),
            Errno::eacces);
  // Opening a regular file as a device fails.
  ASSERT_TRUE(fs->write_file(a, "/home/alice/f", "x").ok());
  EXPECT_EQ(fs->open_device(a, "/home/alice/f", Access::read).error(),
            Errno::enodev);
}

TEST_F(FileSystemTest, AppendExtendsContent) {
  ASSERT_TRUE(fs->write_file(a, "/home/alice/log", "one\n").ok());
  ASSERT_TRUE(fs->append_file(a, "/home/alice/log", "two\n").ok());
  EXPECT_EQ(*fs->read_file(a, "/home/alice/log"), "one\ntwo\n");
}

TEST_F(FileSystemTest, AccessProbeMatchesRealOperations) {
  ASSERT_TRUE(fs->write_file(a, "/home/alice/f", "x").ok());
  ASSERT_TRUE(fs->chmod(a, "/home/alice/f", 0640).ok());
  EXPECT_TRUE(fs->access(a, "/home/alice/f", Access::read).ok());
  EXPECT_TRUE(fs->access(a, "/home/alice/f", Access::write).ok());
  EXPECT_EQ(fs->access(a, "/home/alice/f", Access::exec).error(),
            Errno::eacces);
  EXPECT_EQ(fs->access(b, "/home/alice/f", Access::read).error(),
            Errno::eacces);
}

TEST_F(FileSystemTest, RootBypassesReadWriteButNotFileExec) {
  ASSERT_TRUE(fs->write_file(a, "/home/alice/f", "x").ok());
  ASSERT_TRUE(fs->chmod(a, "/home/alice/f", 0000).ok());
  EXPECT_TRUE(fs->read_file(root, "/home/alice/f").ok());
  EXPECT_TRUE(fs->access(root, "/home/alice/f", Access::write).ok());
  // No execute bit anywhere: even root cannot exec (Linux semantics).
  EXPECT_EQ(fs->access(root, "/home/alice/f", Access::exec).error(),
            Errno::eacces);
  ASSERT_TRUE(fs->chmod(a, "/home/alice/f", 0100).ok());
  EXPECT_TRUE(fs->access(root, "/home/alice/f", Access::exec).ok());
}

TEST_F(FileSystemTest, AclNamedGroupGrantsAccess) {
  ASSERT_TRUE(fs->write_file(a, "/home/alice/f", "acl data").ok());
  ASSERT_TRUE(fs->chmod(a, "/home/alice/f", 0600).ok());
  EXPECT_EQ(fs->read_file(b, "/home/alice/f").error(), Errno::eacces);
  ASSERT_TRUE(fs->acl_set(a, "/home/alice/f",
                          AclEntry{AclTag::named_group, Uid{}, proj,
                                   kPermRead}).ok());
  EXPECT_TRUE(fs->read_file(b, "/home/alice/f").ok());
}

TEST_F(FileSystemTest, AclMaskCapsNamedEntries) {
  ASSERT_TRUE(fs->write_file(a, "/home/alice/f", "x").ok());
  ASSERT_TRUE(fs->chmod(a, "/home/alice/f", 0600).ok());
  ASSERT_TRUE(fs->acl_set(a, "/home/alice/f",
                          AclEntry{AclTag::named_group, Uid{}, proj,
                                   kPermRead | kPermWrite}).ok());
  ASSERT_TRUE(fs->acl_set(a, "/home/alice/f",
                          AclEntry{AclTag::mask, Uid{}, Gid{},
                                   kPermRead}).ok());
  EXPECT_TRUE(fs->read_file(b, "/home/alice/f").ok());
  // Write is granted by the entry but masked out.
  EXPECT_EQ(fs->write_file(b, "/home/alice/f", "y").error(),
            Errno::eacces);
}

TEST_F(FileSystemTest, AclGroupClassDeniesWithoutFallthroughToOther) {
  ASSERT_TRUE(fs->write_file(a, "/home/alice/f", "x").ok());
  // other = r, but bob matches a named group entry that denies read:
  // POSIX says matched-group denial does NOT fall through to "other".
  ASSERT_TRUE(fs->chmod(a, "/home/alice/f", 0604).ok());
  ASSERT_TRUE(fs->acl_set(a, "/home/alice/f",
                          AclEntry{AclTag::named_group, Uid{}, proj,
                                   0}).ok());
  EXPECT_EQ(fs->read_file(b, "/home/alice/f").error(), Errno::eacces);
}

TEST_F(FileSystemTest, AclRemoveRestoresBaseBehaviour) {
  ASSERT_TRUE(fs->write_file(a, "/home/alice/f", "x").ok());
  ASSERT_TRUE(fs->chmod(a, "/home/alice/f", 0600).ok());
  ASSERT_TRUE(fs->acl_set(a, "/home/alice/f",
                          AclEntry{AclTag::named_group, Uid{}, proj,
                                   kPermRead}).ok());
  EXPECT_TRUE(fs->read_file(b, "/home/alice/f").ok());
  ASSERT_TRUE(fs->acl_remove(a, "/home/alice/f", AclTag::named_group,
                             Uid{}, proj).ok());
  EXPECT_EQ(fs->read_file(b, "/home/alice/f").error(), Errno::eacces);
}

TEST_F(FileSystemTest, StatReportsAclPresence) {
  ASSERT_TRUE(fs->write_file(a, "/home/alice/f", "x").ok());
  EXPECT_FALSE(fs->stat(a, "/home/alice/f")->has_acl);
  ASSERT_TRUE(fs->acl_set(a, "/home/alice/f",
                          AclEntry{AclTag::named_group, Uid{}, proj,
                                   kPermRead}).ok());
  EXPECT_TRUE(fs->stat(a, "/home/alice/f")->has_acl);
}

TEST_F(FileSystemTest, ForEachVisitsWholeTree) {
  ASSERT_TRUE(fs->mkdir(a, "/home/alice/d", 0755).ok());
  ASSERT_TRUE(fs->write_file(a, "/home/alice/d/f", "x").ok());
  std::size_t count = 0;
  bool saw_file = false;
  fs->for_each([&](const std::string& path, const Inode&) {
    ++count;
    if (path == "/home/alice/d/f") saw_file = true;
  });
  EXPECT_TRUE(saw_file);
  EXPECT_EQ(count, fs->inode_count());
}

TEST_F(FileSystemTest, NonRootChmodOutsideGroupClearsSetgid) {
  ASSERT_TRUE(fs->write_file(a, "/home/alice/f", "x").ok());
  // Put the file in bob's group by root, leave alice the owner.
  const Gid bob_upg = db.find_user(bob)->private_group;
  ASSERT_TRUE(fs->chgrp(root, "/home/alice/f", bob_upg).ok());
  ASSERT_TRUE(fs->chmod(a, "/home/alice/f", 02755).ok());
  // alice is not in bob's UPG: setgid silently dropped.
  EXPECT_EQ(fs->stat(a, "/home/alice/f")->mode & kModeSetgid, 0u);
}

// ---- The path walk's edge cases --------------------------------------
// Every create and remove operation takes its parent directory and leaf
// name from one walk; these pin what that walk must keep doing.

class WalkEdgeTest : public FileSystemTest {
 protected:
  void SetUp() override {
    FileSystemTest::SetUp();
    ASSERT_TRUE(fs->mkdir(root, "/tmp", 01777).ok());
    ASSERT_TRUE(fs->chmod(root, "/tmp", 01777).ok());
  }
};

TEST_F(WalkEdgeTest, WriteThroughDanglingFinalSymlinkIsEexist) {
  ASSERT_TRUE(fs->symlink(a, "/tmp/nowhere", "/tmp/abs").ok());
  ASSERT_TRUE(fs->symlink(a, "nowhere-rel", "/tmp/rel").ok());
  // The link's own name is taken, and nothing is created at its target.
  EXPECT_EQ(fs->write_file(a, "/tmp/abs", "x").error(), Errno::eexist);
  EXPECT_EQ(fs->write_file(a, "/tmp/rel", "x").error(), Errno::eexist);
  EXPECT_EQ(fs->stat(a, "/tmp/nowhere").error(), Errno::enoent);
  EXPECT_EQ(fs->stat(a, "/tmp/nowhere-rel").error(), Errno::enoent);
  EXPECT_EQ(*fs->readlink(a, "/tmp/abs"), "/tmp/nowhere");
}

TEST_F(WalkEdgeTest, WriteThroughDirectorySymlinkCreatesInTarget) {
  ASSERT_TRUE(fs->mkdir(a, "/tmp/d", 0755).ok());
  ASSERT_TRUE(fs->symlink(a, "d", "/tmp/ld").ok());
  ASSERT_TRUE(fs->write_file(a, "/tmp/ld/new", "payload").ok());
  EXPECT_EQ(*fs->read_file(a, "/tmp/d/new"), "payload");
  EXPECT_EQ(fs->stat(a, "/tmp/new").error(), Errno::enoent);
  // An existing file is overwritten through the same link.
  ASSERT_TRUE(fs->write_file(a, "/tmp/ld/new", "again").ok());
  EXPECT_EQ(*fs->read_file(a, "/tmp/d/new"), "again");
}

TEST_F(WalkEdgeTest, DotDotAfterSymlinkIsLexical) {
  ASSERT_TRUE(fs->mkdir(a, "/tmp/d", 0755).ok());
  ASSERT_TRUE(fs->mkdir(a, "/tmp/d/e", 0755).ok());
  ASSERT_TRUE(fs->symlink(a, "/tmp/d/e", "/tmp/ld").ok());
  // ".." cancels "ld" before any link is followed: the file lands in
  // /tmp, not in the link target's parent.
  ASSERT_TRUE(fs->write_file(a, "/tmp/ld/../x2", "x").ok());
  EXPECT_TRUE(fs->stat(a, "/tmp/x2").ok());
  EXPECT_EQ(fs->stat(a, "/tmp/d/x2").error(), Errno::enoent);
}

TEST_F(WalkEdgeTest, DoubleSlashAndDotComponentsOnCreateAndRemove) {
  ASSERT_TRUE(fs->write_file(a, "//home//alice/./f1", "x").ok());
  EXPECT_EQ(*fs->read_file(a, "/home/alice/f1"), "x");
  ASSERT_TRUE(fs->mkdir(a, "/home/alice//./d1/", 0755).ok());
  EXPECT_EQ(fs->stat(a, "/home/alice/d1")->kind, FileKind::directory);
  ASSERT_TRUE(fs->unlink(a, "/home//alice/./f1").ok());
  EXPECT_EQ(fs->stat(a, "/home/alice/f1").error(), Errno::enoent);
  ASSERT_TRUE(fs->rmdir(a, "/home/alice/d1/.").ok());
  EXPECT_EQ(fs->stat(a, "/home/alice/d1").error(), Errno::enoent);
}

TEST_F(WalkEdgeTest, OverlongComponentIsEnametoolong) {
  const std::string longest(kMaxNameLen, 'n');
  const std::string over(kMaxNameLen + 1, 'n');
  EXPECT_EQ(fs->write_file(a, "/home/alice/" + over, "x").error(),
            Errno::enametoolong);
  EXPECT_EQ(fs->mkdir(a, "/home/alice/" + over, 0755).error(),
            Errno::enametoolong);
  EXPECT_TRUE(fs->write_file(a, "/home/alice/" + longest, "x").ok());
  EXPECT_TRUE(fs->stat(a, "/home/alice/" + longest).ok());
}

TEST_F(WalkEdgeTest, RootOnTheCreatePath) {
  EXPECT_EQ(fs->write_file(a, "/", "x").error(), Errno::eisdir);
  EXPECT_EQ(fs->mkdir(a, "/", 0755).error(), Errno::eexist);
  EXPECT_EQ(fs->mkdir(root, "/", 0755).error(), Errno::eexist);
}

TEST_F(WalkEdgeTest, MissingIntermediateIsEnoentOnCreate) {
  EXPECT_EQ(fs->write_file(a, "/home/alice/nodir/f", "x").error(),
            Errno::enoent);
  EXPECT_EQ(fs->mkdir(a, "/home/alice/nodir/sub", 0755).error(),
            Errno::enoent);
  EXPECT_EQ(fs->stat(a, "/home/alice/nodir").error(), Errno::enoent);
}

TEST_F(WalkEdgeTest, OutageFailsTheCreatePathWithEio) {
  fs->set_outage_probe([] { return true; });
  EXPECT_EQ(fs->write_file(a, "/home/alice/f", "x").error(), Errno::eio);
  EXPECT_EQ(fs->create(a, "/home/alice/g", 0644).error(), Errno::eio);
  EXPECT_EQ(fs->mkdir(a, "/home/alice/d", 0755).error(), Errno::eio);
  fs->set_outage_probe(nullptr);
  EXPECT_EQ(fs->stat(a, "/home/alice/f").error(), Errno::enoent);
  EXPECT_TRUE(fs->write_file(a, "/home/alice/f", "x").ok());
}

TEST_F(WalkEdgeTest, RemovedInodeIdsAreNotReused) {
  ASSERT_TRUE(fs->write_file(a, "/tmp/f", "x").ok());
  const InodeId first = fs->stat(a, "/tmp/f")->inode;
  const std::size_t live = fs->inode_count();
  ASSERT_TRUE(fs->unlink(a, "/tmp/f").ok());
  EXPECT_EQ(fs->inode_count(), live - 1);
  ASSERT_TRUE(fs->write_file(a, "/tmp/f", "x").ok());
  EXPECT_GT(fs->stat(a, "/tmp/f")->inode, first);
}

// ---- Listing order -----------------------------------------------------

TEST_F(WalkEdgeTest, ListingsKeepByteOrderAfterAMiddleUnlink) {
  ASSERT_TRUE(fs->mkdir(a, "/tmp/o", 0755).ok());
  for (const char* name : {"c", "a", "e", "B", "d"}) {
    ASSERT_TRUE(fs->write_file(a, std::string("/tmp/o/") + name, "x").ok());
  }
  ASSERT_TRUE(fs->unlink(a, "/tmp/o/c").ok());

  auto listed = fs->readdir(a, "/tmp/o");
  ASSERT_TRUE(listed.ok());
  std::vector<std::string> names;
  for (const DirEntry& e : *listed) names.push_back(e.name);
  EXPECT_EQ(names, (std::vector<std::string>{"B", "a", "d", "e"}));

  // for_each is a depth-first walk that visits each directory's children
  // in descending byte order.
  std::vector<std::string> visited;
  fs->for_each([&](const std::string& path, const Inode&) {
    if (path.starts_with("/tmp/o/")) visited.push_back(path.substr(7));
  });
  EXPECT_EQ(visited, (std::vector<std::string>{"e", "d", "a", "B"}));
}

}  // namespace
}  // namespace heus::vfs
