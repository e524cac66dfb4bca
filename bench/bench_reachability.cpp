// E22 (ISSUE 6): lifecycle reachability model-checking cost.
//
// The reach gate (`heus-lint --reach`) sweeps all six lifecycle tables
// over the full 73,728-point policy lattice on every run — no sampling,
// no caching between runs. For the gate to sit in CI next to the config
// lint, the exhaustive sweep has to stay cheap. This experiment measures
// it: per-machine and combined sweep wall time, the size of the explored
// space (states x events x policies, fired triples summed over every
// point), and the signature-class quotient. Exhaustiveness is cheap
// because a table's walk reads the policy only through its pinned
// policy-guard outcomes: the sweep walks each table once per distinct
// outcome vector and checks every point's guard/knob agreement and
// opened-channel verdicts against that class's walk.
//
// Always writes BENCH_E22.json (override with --json=PATH); --smoke runs
// fewer repetitions for CI.
#include <cstdio>
#include <string>

#include "analyze/policy_space.h"
#include "analyze/reachability.h"
#include "bench/common/table.h"
#include "common/strings.h"

namespace heus::bench {
namespace {

using analyze::MachineStats;
using analyze::ReachabilityChecker;
using analyze::ReachReport;
using common::Json;

void run(Json& results, bool smoke) {
  print_banner(
      "E22: lifecycle reachability model-checking cost",
      "Exhaustive (state, event, guard-outcome) sweep of the six "
      "lifecycle tables over the full policy lattice, cross-examined "
      "against the per-channel static analyzer. The gate must stay cheap "
      "enough to run on every push.");

  const ReachabilityChecker checker;
  const int reps = smoke ? 1 : 5;
  const std::size_t policies = analyze::policy_space_size();

  // Per-machine sweeps: each table checked alone over the whole lattice.
  Table per_machine({"machine", "states", "events", "transitions",
                     "state-event-policy space", "fired triples",
                     "signature classes", "sweep"});
  Json machine_series = Json::array();
  for (const lifecycle::MachineDef* def : analyze::lifecycle_machines()) {
    ReachReport report;
    const double best_ms =
        fastest_ns(reps, [&] { report = checker.check(*def); }) / 1e6;
    const MachineStats& m = report.machines.front();
    const std::uint64_t space = static_cast<std::uint64_t>(m.states) *
                                def->events.size() * policies;
    per_machine.add_row(
        {m.machine, common::strformat("%zu", m.states),
         common::strformat("%zu", def->events.size()),
         common::strformat("%zu", m.transitions),
         common::strformat("%llu", static_cast<unsigned long long>(space)),
         common::strformat("%llu",
                           static_cast<unsigned long long>(m.triples)),
         common::strformat("%zu", m.signature_classes),
         common::strformat("%.2f ms", best_ms)});
    Json row = Json::object();
    row.set("machine", m.machine);
    row.set("states", m.states);
    row.set("events", def->events.size());
    row.set("transitions", m.transitions);
    row.set("state_event_policy_space", space);
    row.set("fired_triples", m.triples);
    row.set("signature_classes", m.signature_classes);
    row.set("sweep_ms", best_ms);
    row.set("findings", report.findings.size());
    machine_series.push(std::move(row));
  }
  per_machine.print();
  results.set("machines", std::move(machine_series));

  // The gate itself: all six tables in one lattice pass, as heus-lint
  // --reach runs it.
  ReachReport shipped;
  const double gate_ms =
      fastest_ns(reps, [&] { shipped = checker.check_shipped(); }) / 1e6;
  std::printf("\ncombined gate sweep: %zu machines x %zu policies in "
              "%.2f ms — %llu fired triples, %zu finding(s)\n",
              shipped.machines.size(), policies, gate_ms,
              static_cast<unsigned long long>(shipped.triples_total()),
              shipped.findings.size());

  results.set("policies", policies);
  results.set("gate_sweep_ms", gate_ms);
  results.set("triples_total", shipped.triples_total());
  results.set("violations", shipped.findings.size());
  results.set("clean", shipped.clean());
}

}  // namespace
}  // namespace heus::bench

int main(int argc, char** argv) {
  const bool smoke = heus::bench::has_flag(argc, argv, "--smoke");
  const std::string path =
      heus::common::json_flag(argc, argv, "BENCH_E22.json")
          .value_or("BENCH_E22.json");

  heus::common::Json results = heus::common::Json::object();
  heus::bench::run(results, smoke);

  results.set("smoke", smoke);
  return heus::bench::write_report("E22", std::move(results), path) ? 0 : 1;
}
