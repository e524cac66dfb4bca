// E18: fault tolerance of the user-based firewall — availability,
// fail-closed cost, and isolation leakage vs ident-responder fault rate,
// for each degraded-mode policy.
//
// The healthy UBF adds microseconds per connect (E2). This harness asks
// what each degraded-mode policy pays when the ident responder starts
// failing: fail_closed drops legitimate traffic at the blip rate,
// retry+backoff buys most of that availability back for a latency cost,
// and fail_open stays available by admitting what it cannot attribute —
// the one policy that converts fault rate into cross-user leaks, which
// is why it is never part of the shipped configuration.
#include <string>

#include "bench/common/table.h"
#include "common/backoff.h"
#include "common/rng.h"
#include "common/strings.h"
#include "net/network.h"
#include "net/ubf.h"

namespace heus::bench {
namespace {

using common::Json;
using net::Proto;
using net::Ubf;
using net::UbfDegradedMode;

// Each ident query independently fails with probability `rate` — the
// transient-blip model (daemon restarting, dropped UDP ident exchange).
// Retries can ride a blip out; a hard outage is rate = 1.0.
class BlipIdent final : public net::FaultModel {
 public:
  BlipIdent(double rate, std::uint64_t seed) : rate_(rate), rng_(seed) {}

  bool ident_down(HostId) const override { return rng_.chance(rate_); }
  std::int64_t ident_extra_ns(HostId) const override { return 0; }
  bool partitioned(HostId, HostId) const override { return false; }
  bool drop_packet(HostId, HostId) override { return false; }

 private:
  double rate_;
  mutable common::Rng rng_;
};

struct CellResult {
  std::size_t legit_ok = 0;
  std::size_t legit_denied = 0;
  std::size_t leaks = 0;  ///< cross-user connects admitted
  double mean_connect_us = 0;
  std::uint64_t retries = 0;
  std::uint64_t fail_open_allows = 0;
};

constexpr std::size_t kConnects = 2000;

CellResult run_cell(UbfDegradedMode mode, double fault_rate) {
  common::SimClock clock;
  simos::UserDb db;
  const Uid alice = *db.create_user("alice");
  const Uid bob = *db.create_user("bob");
  const simos::Credentials a = *simos::login(db, alice);
  const simos::Credentials b = *simos::login(db, bob);

  net::Network nw(&clock);
  const HostId h1 = nw.add_host("node-1");
  const HostId h2 = nw.add_host("node-2");
  BlipIdent faults(fault_rate, /*seed=*/1234);
  nw.set_fault_model(&faults);

  Ubf ubf(&db, &nw);
  ubf.set_clock(&clock);
  // fail_closed is retry_then_fail_closed with a zero-retry budget; the
  // mode enum spells the same thing, so pass the matching backoff.
  ubf.set_degraded_mode(mode, mode == UbfDegradedMode::fail_closed
                                  ? common::BackoffPolicy::none()
                                  : common::BackoffPolicy{});
  ubf.attach();

  if (!nw.listen(h1, a, Pid{10}, Proto::tcp, 5000).ok()) return {};

  CellResult out;
  std::int64_t legit_cost_ns = 0;
  for (std::size_t i = 0; i < kConnects; ++i) {
    // Interleave legitimate same-user traffic with cross-user attempts
    // so both series see the same fault process.
    const bool legit = (i % 2) == 0;
    const auto before = clock.now();
    auto flow = nw.connect(h2, legit ? a : b, Pid{20}, h1, Proto::tcp,
                           5000);
    if (legit) {
      legit_cost_ns += clock.now().ns - before.ns;
      if (flow.ok()) {
        ++out.legit_ok;
      } else {
        ++out.legit_denied;
      }
    } else if (flow.ok()) {
      ++out.leaks;  // cross-user admitted: only fail_open does this
    }
    if (flow.ok()) (void)nw.close(*flow);
  }
  out.mean_connect_us =
      static_cast<double>(legit_cost_ns) / (kConnects / 2) / 1000.0;
  out.retries = ubf.stats().ident_retries;
  out.fail_open_allows = ubf.stats().fail_open_allows;
  nw.set_fault_model(nullptr);
  return out;
}

void sweep(Json& results) {
  print_banner(
      "E18: UBF availability vs ident fault rate, per degraded-mode "
      "policy",
      "2000 connects per cell, half legitimate same-user, half cross-"
      "user. availability = legit connects admitted; leaks = cross-user "
      "connects admitted (the invariant violation fail_open trades "
      "for availability).");

  Table table({"mode", "fault-rate", "availability", "legit-denied",
               "leaks", "retries", "mean-connect-us"});
  Json series = Json::array();
  for (const UbfDegradedMode mode :
       {UbfDegradedMode::fail_closed,
        UbfDegradedMode::retry_then_fail_closed,
        UbfDegradedMode::fail_open}) {
    for (const double rate : {0.0, 0.05, 0.10, 0.20, 0.40}) {
      const CellResult r = run_cell(mode, rate);
      const double avail =
          100.0 * static_cast<double>(r.legit_ok) / (kConnects / 2);
      table.add_row({net::to_string(mode),
                     common::strformat("%.2f", rate),
                     common::strformat("%.1f%%", avail),
                     std::to_string(r.legit_denied),
                     std::to_string(r.leaks), std::to_string(r.retries),
                     common::strformat("%.2f", r.mean_connect_us)});
      Json row = Json::object();
      row.set("mode", net::to_string(mode));
      row.set("fault_rate", rate);
      row.set("availability_pct", avail);
      row.set("legit_denied", r.legit_denied);
      row.set("leaks", r.leaks);
      row.set("retries", r.retries);
      row.set("mean_connect_us", r.mean_connect_us);
      series.push(std::move(row));
    }
  }
  table.print();
  results.set("degraded_mode_sweep", std::move(series));
  std::printf(
      "\nfail_closed converts the blip rate directly into denied "
      "legitimate connects; retry+backoff rides out independent blips "
      "(availability ~ 1 - rate^(1+retries) per end) at a backoff "
      "latency cost; fail_open keeps availability flat by admitting "
      "unattributable flows — every 'leak' above is a cross-user "
      "connect the healthy policy refuses.\n");
}

}  // namespace
}  // namespace heus::bench

int main(int argc, char** argv) {
  heus::common::Json results = heus::common::Json::object();
  heus::bench::sweep(results);
  const auto path = heus::common::json_flag(argc, argv, "BENCH_E18.json");
  if (!path) return 0;
  return heus::bench::write_report("E18", std::move(results), *path) ? 0 : 1;
}
