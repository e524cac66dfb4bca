// The one JSON writer: escaping, pretty vs compact layout, scalar
// rendering, the --json[=PATH] flag and the file/stdout sink. Every
// document a test builds must also pass the strict validator.
#include "common/json.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "support/mini_json.h"

namespace heus::common {
namespace {

std::string valid_dump(const Json& v) {
  const std::string text = v.dump();
  std::string error;
  EXPECT_TRUE(testing::MiniJson::valid(text, &error)) << error << "\n"
                                                      << text;
  return text;
}

TEST(Json, EscapesQuotesBackslashesAndControlBytes) {
  const Json v = std::string("q\" b\\ n\n t\t c\x01 e\x1f");
  EXPECT_EQ(valid_dump(v),
            "\"q\\\" b\\\\ n\\n t\\t c\\u0001 e\\u001f\"\n");
}

TEST(Json, PassesUtf8Through) {
  EXPECT_EQ(valid_dump(Json("caf\xc3\xa9 \xe2\x80\x94")),
            "\"caf\xc3\xa9 \xe2\x80\x94\"\n");
}

TEST(Json, EscapesObjectKeys) {
  Json v = Json::object();
  v.set("a\"b", 1);
  EXPECT_EQ(valid_dump(v), "{\n  \"a\\\"b\": 1\n}\n");
}

TEST(Json, RendersScalars) {
  EXPECT_EQ(valid_dump(Json()), "null\n");
  EXPECT_EQ(valid_dump(Json(true)), "true\n");
  EXPECT_EQ(valid_dump(Json(false)), "false\n");
  EXPECT_EQ(valid_dump(Json(-42)), "-42\n");
  EXPECT_EQ(valid_dump(Json(std::int64_t{-9000000000})), "-9000000000\n");
  EXPECT_EQ(valid_dump(Json(std::uint64_t{18446744073709551615u})),
            "18446744073709551615\n");
  EXPECT_EQ(valid_dump(Json(0.1)), "0.1\n");
  EXPECT_EQ(valid_dump(Json(1.0 / 3.0)), "0.333333333\n");
  EXPECT_EQ(valid_dump(Json(2.5e-7)), "2.5e-07\n");
  EXPECT_EQ(valid_dump(Json(123456789012.0)), "1.23456789e+11\n");
}

TEST(Json, EmptyContainersStayOnOneLine) {
  EXPECT_EQ(valid_dump(Json::object()), "{}\n");
  EXPECT_EQ(valid_dump(Json::array()), "[]\n");
  Json v = Json::object();
  v.set("a", Json::array()).set("o", Json::object());
  EXPECT_EQ(valid_dump(v), "{\n  \"a\": [],\n  \"o\": {}\n}\n");
}

TEST(Json, PrettyLayoutIndentsTwoSpacesPerLevelInInsertionOrder) {
  Json v = Json::object();
  v.set("z", 1).set("a", std::vector<std::string>{"x", "y"});
  EXPECT_EQ(valid_dump(v),
            "{\n"
            "  \"z\": 1,\n"
            "  \"a\": [\n"
            "    \"x\",\n"
            "    \"y\"\n"
            "  ]\n"
            "}\n");
}

TEST(Json, CompactContainerWritesItselfAndItsChildrenOnOneLine) {
  Json row = Json::object().compact();
  row.set("k", "v").set("list", std::vector<int>{1, 2}).set("n", Json());
  Json v = Json::object();
  v.set("rows", Json::array().push(row)).set("row", row);
  EXPECT_EQ(valid_dump(v),
            "{\n"
            "  \"rows\": [\n"
            "    {\"k\": \"v\", \"list\": [1, 2], \"n\": null}\n"
            "  ],\n"
            "  \"row\": {\"k\": \"v\", \"list\": [1, 2], \"n\": null}\n"
            "}\n");
}

TEST(Json, NestedVectorsBecomeNestedArrays) {
  const std::vector<std::vector<std::string>> rows = {{"a"}, {}};
  Json v = Json(rows).compact();
  EXPECT_EQ(valid_dump(v), "[[\"a\"], []]\n");
}

TEST(JsonFlag, BareFlagTakesTheCallersDefault) {
  EXPECT_EQ(json_flag("--json", "BENCH_E1.json"), "BENCH_E1.json");
  EXPECT_EQ(json_flag("--json", ""), "");
  EXPECT_EQ(json_flag("--json=out.json", "BENCH_E1.json"), "out.json");
  EXPECT_EQ(json_flag("--json=", "x"), "");
  EXPECT_EQ(json_flag("--jsonx", "x"), std::nullopt);
  EXPECT_EQ(json_flag("--smoke", "x"), std::nullopt);
  EXPECT_EQ(json_flag("json", "x"), std::nullopt);

  char prog[] = "bench";
  char smoke[] = "--smoke";
  char first[] = "--json=a.json";
  char second[] = "--json";
  char* argv[] = {prog, smoke, first, second};
  EXPECT_EQ(json_flag(4, argv, "d.json"), "a.json");
  EXPECT_EQ(json_flag(2, argv, "d.json"), std::nullopt);
}

TEST(WriteJson, WritesTheDocumentToAFile) {
  const std::string path = ::testing::TempDir() + "json_sink_test.json";
  Json doc = Json::object();
  doc.set("ok", true);
  ASSERT_TRUE(write_json(doc, path));
  std::ifstream in(path);
  std::ostringstream got;
  got << in.rdbuf();
  EXPECT_EQ(got.str(), doc.dump());
  std::remove(path.c_str());
}

TEST(WriteJson, ReportsAFailedWrite) {
  EXPECT_FALSE(write_json(Json::object(), "/nonexistent-dir/x.json"));
  // A document far smaller than the stdio buffer: the error only shows
  // when the data is flushed, which the sink must do before answering.
  if (std::FILE* full = std::fopen("/dev/full", "w")) {
    std::fclose(full);
    EXPECT_FALSE(write_json(Json::object(), "/dev/full"));
  }
}

}  // namespace
}  // namespace heus::common
