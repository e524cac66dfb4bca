// E19: config-lint throughput — parsing and reviewing deployment
// artifacts at fleet scale.
//
// `heus-lint --site` reconstructs one policy per node from six artifact
// files and runs the full census plus drift analysis. For the gate to
// sit in front of every configuration push at a large site, the whole
// pipeline has to be cheap at thousands of nodes. This experiment
// measures the in-memory pipeline (emit → parse → drift + census) so
// the numbers are about the analyzers, not the disk.
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "analyze/ingest/drift.h"
#include "analyze/ingest/emit.h"
#include "analyze/ingest/parsers.h"
#include "analyze/ingest/site.h"
#include "analyze/ingest/site_report.h"
#include "analyze/policy_space.h"
#include "bench/common/table.h"
#include "common/strings.h"

namespace heus::bench {
namespace {

using common::Json;
using namespace heus::analyze;
using namespace heus::analyze::ingest;

double elapsed_ns(std::chrono::steady_clock::time_point t0,
                  std::chrono::steady_clock::time_point t1) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
          .count());
}

std::string fmt_ns(double ns) {
  if (ns >= 1e6) return common::strformat("%.2f ms", ns / 1e6);
  if (ns >= 1e3) return common::strformat("%.2f us", ns / 1e3);
  return common::strformat("%.0f ns", ns);
}

/// Deterministic spread of policies across the knob lattice: node i of a
/// fleet gets policy_at(i * stride % size), so drift analysis sees
/// genuinely heterogeneous fleets without any RNG.
core::SeparationPolicy fleet_policy(std::size_t i) {
  const std::size_t size = policy_space_size();
  return policy_at((i * 7919) % size);  // 7919 prime, walks the lattice
}

std::vector<std::pair<std::string, std::string>> render_node(
    const core::SeparationPolicy& policy) {
  std::vector<std::pair<std::string, std::string>> artifacts;
  for (EmittedArtifact& a : emit_artifacts(policy)) {
    artifacts.emplace_back(std::move(a.filename), std::move(a.content));
  }
  return artifacts;
}

void run(Json& results) {
  print_banner(
      "E19: config-lint throughput (ingest + drift + census)",
      "Per-node artifact parse, emit->parse round trip, and full site "
      "review (drift + 18-channel census per node) over in-memory "
      "fleets. The gate must be cheap enough to run on every config "
      "push.");

  // Per-node pipeline stages, averaged over a spread of policies.
  constexpr std::size_t kPolicies = 512;
  std::size_t sink = 0;

  const auto e0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kPolicies; ++i) {
    sink += emit_artifacts(fleet_policy(i)).size();
  }
  const auto e1 = std::chrono::steady_clock::now();
  const double emit_ns =
      elapsed_ns(e0, e1) / static_cast<double>(kPolicies);

  // Pre-render so the parse measurement excludes emission.
  std::vector<std::vector<std::pair<std::string, std::string>>> rendered;
  rendered.reserve(kPolicies);
  for (std::size_t i = 0; i < kPolicies; ++i) {
    rendered.push_back(render_node(fleet_policy(i)));
  }
  const auto p0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kPolicies; ++i) {
    const NodeSnapshot node = parse_node("n", rendered[i]);
    sink += node.ingested.diagnostics.size();
  }
  const auto p1 = std::chrono::steady_clock::now();
  const double parse_ns =
      elapsed_ns(p0, p1) / static_cast<double>(kPolicies);

  const auto r0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kPolicies; ++i) {
    const NodeSnapshot node =
        parse_node("n", render_node(fleet_policy(i)));
    sink += node.ingested.policy == fleet_policy(i) ? 1 : 0;
  }
  const auto r1 = std::chrono::steady_clock::now();
  const double roundtrip_ns =
      elapsed_ns(r0, r1) / static_cast<double>(kPolicies);

  Table stages({"per-node stage", "latency"});
  stages.add_row({"emit 6 artifacts", fmt_ns(emit_ns)});
  stages.add_row({"parse 6 artifacts", fmt_ns(parse_ns)});
  stages.add_row({"round trip (emit + parse + compare)",
                  fmt_ns(roundtrip_ns)});
  stages.print();

  Json stage_series = Json::array();
  auto add_stage = [&stage_series](const char* stage, double ns) {
    Json row = Json::object();
    row.set("stage", stage);
    row.set("per_node_ns", ns);
    stage_series.push(std::move(row));
  };
  add_stage("emit", emit_ns);
  add_stage("parse", parse_ns);
  add_stage("round_trip", roundtrip_ns);
  results.set("per_node_stages", std::move(stage_series));

  // Full site review at fleet scale: uniform hardened fleet (the happy
  // path a nightly gate sees) vs a heterogeneous fleet (every node a
  // different lattice point — worst case for drift and attribution).
  Table fleets({"fleet", "nodes", "review latency", "per node"});
  Json fleet_series = Json::array();
  for (const bool uniform : {true, false}) {
    for (const std::size_t n : {std::size_t{4}, std::size_t{64},
                                std::size_t{256}}) {
      SiteSnapshot proto;
      proto.root = "(bench)";
      IngestedPolicy intent;
      parse_intent_policy(
          emit_intent_policy(core::SeparationPolicy::hardened()),
          "intent.policy", intent);
      proto.intent = std::move(intent);
      for (std::size_t i = 0; i < n; ++i) {
        const core::SeparationPolicy policy =
            uniform ? core::SeparationPolicy::hardened()
                    : fleet_policy(i);
        proto.nodes.push_back(
            parse_node(common::strformat("node%03zu", i),
                       render_node(policy)));
      }
      const int reps = n <= 64 ? 20 : 5;
      double total_ns = 0;
      for (int rep = 0; rep < reps; ++rep) {
        SiteSnapshot site = proto;  // review_site consumes the snapshot
        const auto t0 = std::chrono::steady_clock::now();
        const SiteReview review = review_site(std::move(site));
        const auto t1 = std::chrono::steady_clock::now();
        total_ns += elapsed_ns(t0, t1);
        sink += review.drift.size() + review.unexpected_open_total();
      }
      const double per_site = total_ns / reps;
      fleets.add_row({uniform ? "uniform hardened" : "heterogeneous",
                      common::strformat("%zu", n), fmt_ns(per_site),
                      fmt_ns(per_site / static_cast<double>(n))});
      const char* fleet = uniform ? "uniform_hardened" : "heterogeneous";
      Json row = Json::object();
      row.set("fleet", fleet);
      row.set("nodes", n);
      row.set("review_ns", per_site);
      row.set("per_node_ns", per_site / static_cast<double>(n));
      fleet_series.push(std::move(row));
    }
  }
  std::printf("\n");
  fleets.print();

  std::printf("\npolicies sampled: %zu of %zu lattice points; checksum "
              "sink=%zu\n",
              kPolicies, policy_space_size(), sink);

  results.set("site_review", std::move(fleet_series));
  results.set("policies_sampled", kPolicies);
}

}  // namespace
}  // namespace heus::bench

int main(int argc, char** argv) {
  heus::common::Json results = heus::common::Json::object();
  heus::bench::run(results);
  const auto path = heus::common::json_flag(argc, argv, "BENCH_E19.json");
  if (!path) return 0;
  return heus::bench::write_report("E19", std::move(results), *path) ? 0 : 1;
}
