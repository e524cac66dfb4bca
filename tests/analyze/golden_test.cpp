// Golden-file tests for the heus-lint report surfaces: the markdown and
// JSON renderings of a baseline census, a hardened census, the
// checked-in examples/site review, the lifecycle reachability sweep and
// the escalation-path report under baseline and hardened must match
// tests/golden/ byte for byte, and every JSON output must satisfy a
// real JSON parser — not just a brace count.
//
// To regenerate after an intentional report change:
//   HEUS_UPDATE_GOLDEN=1 ./build/tests/analyze_test --gtest_filter='Golden*'
// and review the diff like any other code change.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "analyze/analyzer.h"
#include "analyze/ingest/site.h"
#include "analyze/ingest/site_report.h"
#include "analyze/knob_lint.h"
#include "analyze/path_analyzer.h"
#include "analyze/reachability.h"
#include "analyze/report.h"
#include "support/mini_json.h"

namespace heus::analyze {
namespace {

std::string golden_path(const std::string& name) {
  return std::string(HEUS_GOLDEN_DIR) + "/" + name;
}

void compare_with_golden(const std::string& name,
                         const std::string& actual) {
  const std::string path = golden_path(name);
  if (std::getenv("HEUS_UPDATE_GOLDEN") != nullptr) {
    std::ofstream(path, std::ios::binary) << actual;
    SUCCEED() << "updated " << path;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (run with HEUS_UPDATE_GOLDEN=1)";
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(actual, want.str())
      << "report drifted from " << path
      << "; if intentional, regenerate with HEUS_UPDATE_GOLDEN=1";
}

void expect_valid_json(const std::string& text) {
  std::string error;
  EXPECT_TRUE(testing::MiniJson::valid(text, &error)) << error;
}

AnalysisReport census(const core::SeparationPolicy& policy) {
  const StaticAnalyzer analyzer;
  return analyzer.analyze(policy);
}

TEST(GoldenLintTest, BaselineMarkdown) {
  compare_with_golden("lint_baseline.md",
                      to_markdown(census(
                          core::SeparationPolicy::baseline())));
}

TEST(GoldenLintTest, BaselineJson) {
  const std::string json =
      to_json(census(core::SeparationPolicy::baseline())).dump();
  expect_valid_json(json);
  compare_with_golden("lint_baseline.json", json);
}

TEST(GoldenLintTest, HardenedMarkdown) {
  compare_with_golden("lint_hardened.md",
                      to_markdown(census(
                          core::SeparationPolicy::hardened())));
}

TEST(GoldenLintTest, HardenedJson) {
  const std::string json =
      to_json(census(core::SeparationPolicy::hardened())).dump();
  expect_valid_json(json);
  compare_with_golden("lint_hardened.json", json);
}

ingest::SiteReview example_review() {
  std::string error;
  auto site = ingest::load_site(HEUS_SITE_DIR, &error);
  EXPECT_TRUE(site.has_value()) << error;
  // The golden files must not depend on where the repo is checked out.
  site->root = "examples/site";
  return ingest::review_site(std::move(*site));
}

TEST(GoldenSiteTest, ExampleSiteMarkdown) {
  const ingest::SiteReview review = example_review();
  EXPECT_TRUE(review.gate_ok());
  compare_with_golden("site_review.md", ingest::to_markdown(review));
}

TEST(GoldenSiteTest, ExampleSiteJson) {
  const std::string json = ingest::to_json(example_review()).dump();
  expect_valid_json(json);
  compare_with_golden("site_review.json", json);
}

TEST(GoldenReachTest, ShippedTablesMarkdownAndJson) {
  const ReachReport report = ReachabilityChecker().check_shipped();
  compare_with_golden("reach.md", reach_to_markdown(report));
  const std::string json = reach_to_json(report).dump();
  expect_valid_json(json);
  compare_with_golden("reach.json", json);
}

/// The heus-lint --paths product for `policy`: full report plus the
/// dead-knob lint, rendered both ways under `stem`.
void compare_paths(const std::string& stem,
                   const core::SeparationPolicy& policy) {
  const PathReport report = PathAnalyzer().full_report(policy);
  const KnobLintReport lint = knob_lint();
  compare_with_golden(stem + ".md", paths_to_markdown(report, &lint));
  const std::string json = paths_to_json(report, &lint).dump();
  expect_valid_json(json);
  compare_with_golden(stem + ".json", json);
}

TEST(GoldenPathsTest, HardenedMarkdownAndJson) {
  compare_paths("paths_hardened", core::SeparationPolicy::hardened());
}

TEST(GoldenPathsTest, BaselineMarkdownAndJson) {
  compare_paths("paths_baseline", core::SeparationPolicy::baseline());
}

TEST(MiniJsonSelfTest, AcceptsValidRejectsInvalid) {
  // The validator itself has teeth; otherwise the JSON goldens prove
  // nothing.
  EXPECT_TRUE(testing::MiniJson::valid(
      R"({"a": [1, 2.5, -3e1], "b": "x\né", "c": null})"));
  EXPECT_TRUE(testing::MiniJson::valid("[]"));
  EXPECT_FALSE(testing::MiniJson::valid(""));
  EXPECT_FALSE(testing::MiniJson::valid("{"));
  EXPECT_FALSE(testing::MiniJson::valid("{\"a\": 1,}"));
  EXPECT_FALSE(testing::MiniJson::valid("{'a': 1}"));
  EXPECT_FALSE(testing::MiniJson::valid("[1 2]"));
  EXPECT_FALSE(testing::MiniJson::valid("01"));
  EXPECT_FALSE(testing::MiniJson::valid("{\"a\": 1} extra"));
  EXPECT_FALSE(testing::MiniJson::valid("\"unterminated"));
  EXPECT_FALSE(testing::MiniJson::valid("\"bad \x01 control\""));
}

}  // namespace
}  // namespace heus::analyze
