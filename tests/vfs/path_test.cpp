#include "vfs/path.h"

#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"

namespace heus::vfs {
namespace {

/// The components `split_path` normalises `path` into, or its error.
Result<std::vector<std::string_view>> split(std::string_view path) {
  std::vector<std::string_view> parts;
  if (auto r = split_path(path, parts); !r) return r.error();
  return parts;
}

/// The canonical absolute path of `parts` ("/" for none).
std::string join(const std::vector<std::string_view>& parts) {
  std::string out;
  for (const std::string_view p : parts) {
    out += '/';
    out += p;
  }
  return out.empty() ? "/" : out;
}

TEST(SplitPath, RootIsEmptyList) {
  auto parts = split("/");
  ASSERT_TRUE(parts.ok());
  EXPECT_TRUE(parts->empty());
}

TEST(SplitPath, BasicComponents) {
  auto parts = split("/home/alice/data.txt");
  ASSERT_TRUE(parts.ok());
  ASSERT_EQ(parts->size(), 3u);
  EXPECT_EQ((*parts)[0], "home");
  EXPECT_EQ((*parts)[2], "data.txt");
}

TEST(SplitPath, NormalisesDotsAndSlashes) {
  auto parts = split("//home//./alice/");
  ASSERT_TRUE(parts.ok());
  ASSERT_EQ(parts->size(), 2u);
  EXPECT_EQ((*parts)[1], "alice");
}

TEST(SplitPath, DotDotResolvedLexically) {
  auto parts = split("/home/alice/../bob/x");
  ASSERT_TRUE(parts.ok());
  ASSERT_EQ(parts->size(), 3u);
  EXPECT_EQ((*parts)[1], "bob");
}

TEST(SplitPath, DotDotAboveRootClamps) {
  auto parts = split("/../../etc");
  ASSERT_TRUE(parts.ok());
  ASSERT_EQ(parts->size(), 1u);
  EXPECT_EQ((*parts)[0], "etc");
}

TEST(SplitPath, RelativePathRejected) {
  EXPECT_EQ(split("home/alice").error(), Errno::einval);
  EXPECT_EQ(split("").error(), Errno::einval);
}

TEST(SplitPath, OversizedComponentRejected) {
  const std::string path = "/" + std::string(kMaxNameLen + 1, 'x');
  EXPECT_EQ(split(path).error(), Errno::enametoolong);
}

TEST(SplitPath, CanonicalPathRoundTrips) {
  const std::string p = "/proj/widgets/data";
  EXPECT_EQ(join(*split(p)), p);
  EXPECT_EQ(join(*split("/")), "/");
}

TEST(SplitPath, ComponentsViewTheInputAndReuseTheBuffer) {
  const std::string path = "/home/alice/data.txt";
  std::vector<std::string_view> parts{"stale", "entries"};
  ASSERT_TRUE(split_path(path, parts).ok());
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0].data(), path.data() + 1);  // no copy was made
  EXPECT_EQ(parts[2].data(), path.data() + 12);
  // A failed split leaves nothing behind from the previous call.
  EXPECT_EQ(split_path("relative", parts).error(), Errno::einval);
  EXPECT_TRUE(parts.empty());
}

// Property fuzz: arbitrary byte soup never crashes the splitter, and on
// success the result is canonical (no empty/"."/".." components, and
// splitting the re-joined components gives them back).
class PathFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PathFuzz, SplitIsTotalAndCanonical) {
  heus::common::Rng rng(GetParam());
  static constexpr char kAlphabet[] = "ab/.x-_ ~%\\\t";
  for (int round = 0; round < 2000; ++round) {
    std::string path;
    const auto len = rng.bounded(40);
    for (std::uint64_t i = 0; i < len; ++i) {
      path += kAlphabet[rng.bounded(sizeof(kAlphabet) - 1)];
    }
    auto parts = split(path);
    if (!parts) {
      EXPECT_TRUE(parts.error() == Errno::einval ||
                  parts.error() == Errno::enametoolong);
      continue;
    }
    for (const auto& comp : *parts) {
      EXPECT_FALSE(comp.empty());
      EXPECT_NE(comp, ".");
      EXPECT_NE(comp, "..");
      EXPECT_EQ(comp.find('/'), std::string::npos);
    }
    const std::string joined = join(*parts);
    auto again = split(joined);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(*again, *parts);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PathFuzz, ::testing::Values(1, 7, 42));

}  // namespace
}  // namespace heus::vfs
