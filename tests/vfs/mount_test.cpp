#include <gtest/gtest.h>

#include <stdexcept>

#include "vfs/filesystem.h"

namespace heus::vfs {
namespace {

class MountTableTest : public ::testing::Test {
 protected:
  MountTableTest()
      : local("local", &db, &clock), shared("shared", &db, &clock) {}

  common::SimClock clock;
  simos::UserDb db;
  FileSystem local, shared;
  MountTable mounts;
};

TEST_F(MountTableTest, LongestPrefixWins) {
  mounts.mount("/", &local);
  mounts.mount("/home", &shared);
  EXPECT_EQ(mounts.lookup("/tmp/x"), &local);
  EXPECT_EQ(mounts.lookup("/home/alice/x"), &shared);
  EXPECT_EQ(mounts.lookup("/home"), &shared);
}

TEST_F(MountTableTest, PrefixMatchesWholeComponentsOnly) {
  mounts.mount("/", &local);
  mounts.mount("/home", &shared);
  // "/homework" must NOT match the "/home" mount.
  EXPECT_EQ(mounts.lookup("/homework/x"), &local);
}

TEST_F(MountTableTest, NoMatchReturnsNull) {
  mounts.mount("/home", &shared);
  EXPECT_EQ(mounts.lookup("/tmp/x"), nullptr);
}

TEST_F(MountTableTest, MultipleMountsOfSameFs) {
  mounts.mount("/", &local);
  mounts.mount("/home", &shared);
  mounts.mount("/proj", &shared);
  EXPECT_EQ(mounts.lookup("/proj/widgets"), &shared);
  EXPECT_EQ(mounts.lookup("/home/alice"), &shared);
  EXPECT_EQ(mounts.mounts().size(), 3u);
}

TEST_F(MountTableTest, RelativePrefixThrowsInEveryBuild) {
  EXPECT_THROW(mounts.mount("home", &shared), std::invalid_argument);
  EXPECT_THROW(mounts.mount("", &shared), std::invalid_argument);
  EXPECT_TRUE(mounts.mounts().empty());
}

}  // namespace
}  // namespace heus::vfs
