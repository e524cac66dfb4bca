// E5 + E9 (paper §IV-D, §V): the user-based firewall.
//
// Claims under test:
//  - New-connection decisions cost microseconds (one nfqueue hop + ident
//    exchange); established traffic pays nothing extra because conntrack
//    bypasses the hook entirely.
//  - The ruleset admits same-user and opted-in project-group flows,
//    drops everything else.
//  - Port collisions between users cannot cross-talk (§V reliability).
//
// Ablation (DESIGN.md §5): a strawman per-packet firewall shows what the
// new-connection-only design avoids.
#include <benchmark/benchmark.h>

#include "bench/common/table.h"
#include "common/strings.h"
#include "net/ubf.h"

namespace heus::bench {
namespace {

using common::Json;
using simos::Credentials;

struct NetWorld {
  common::SimClock clock;
  simos::UserDb db;
  net::Network nw{&clock};
  std::vector<Credentials> users;
  Gid proj{};
  HostId h1{}, h2{};

  explicit NetWorld(std::size_t n_users = 16) {
    const Uid first = *db.create_user("user0");
    proj = *db.create_project_group("widgets", first);
    users.push_back(*simos::login(db, first));
    for (std::size_t u = 1; u < n_users; ++u) {
      const Uid uid = *db.create_user("user" + std::to_string(u));
      if (u % 2 == 0) (void)db.add_member(first, proj, uid);
      users.push_back(*simos::login(db, uid));
    }
    h1 = nw.add_host("node-1");
    h2 = nw.add_host("node-2");
  }
};

void BM_UbfDecision(benchmark::State& state) {
  NetWorld world;
  net::Ubf ubf(&world.db, &world.nw);
  (void)world.nw.listen(world.h1, world.users[0], Pid{1}, net::Proto::tcp,
                        5000);
  auto flow = world.nw.connect(world.h2, world.users[0], Pid{2}, world.h1,
                               net::Proto::tcp, 5000);
  const std::optional<net::Flow> f = world.nw.find_flow(*flow);
  net::ConnRequest req{world.h2, f->client_port, world.h1, 5000,
                       net::Proto::tcp};
  ubf.set_log_limit(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ubf.decide(req));
  }
  state.SetLabel("same-user accept path");
}

BENCHMARK(BM_UbfDecision);

void BM_ConnectWithAndWithoutUbf(benchmark::State& state) {
  const bool with_ubf = state.range(0) != 0;
  NetWorld world;
  net::Ubf ubf(&world.db, &world.nw);
  if (with_ubf) ubf.attach();
  ubf.set_log_limit(0);
  (void)world.nw.listen(world.h1, world.users[0], Pid{1}, net::Proto::tcp,
                        5000);
  for (auto _ : state) {
    auto flow = world.nw.connect(world.h2, world.users[0], Pid{2},
                                 world.h1, net::Proto::tcp, 5000);
    benchmark::DoNotOptimize(flow);
    if (flow) (void)world.nw.close(*flow);
  }
  state.SetLabel(with_ubf ? "ubf" : "open");
}

BENCHMARK(BM_ConnectWithAndWithoutUbf)->Arg(0)->Arg(1);

void BM_EstablishedSend(benchmark::State& state) {
  const bool with_ubf = state.range(0) != 0;
  NetWorld world;
  net::Ubf ubf(&world.db, &world.nw);
  if (with_ubf) ubf.attach();
  (void)world.nw.listen(world.h1, world.users[0], Pid{1}, net::Proto::tcp,
                        5000);
  auto flow = world.nw.connect(world.h2, world.users[0], Pid{2}, world.h1,
                               net::Proto::tcp, 5000);
  std::string payload(512, 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        world.nw.send(*flow, net::FlowEnd::client, payload));
    (void)world.nw.recv(*flow, net::FlowEnd::server);
  }
  state.SetLabel(with_ubf ? "ubf attached (conntrack bypass)" : "open");
}

BENCHMARK(BM_EstablishedSend)->Arg(0)->Arg(1);

void decision_matrix(Json& results) {
  print_banner(
      "E5: UBF decision matrix (paper §IV-D + appendix ruleset)",
      "Connection allowed iff same user, or connector is a member of the "
      "listener's primary (effective) group.");

  NetWorld world;
  net::Ubf ubf(&world.db, &world.nw);
  ubf.attach();

  // user0 serves under the project group; user2 is a member, user1 not.
  Credentials server =
      *simos::newgrp(world.db, world.users[0], world.proj);
  (void)world.nw.listen(world.h1, world.users[0], Pid{1}, net::Proto::tcp,
                        5000);
  (void)world.nw.listen(world.h1, server, Pid{2}, net::Proto::tcp, 5001);

  Table table({"connector", "listener", "listener-egid", "verdict"});
  auto attempt = [&](const char* who, const Credentials& cred,
                     std::uint16_t port, const char* listener,
                     const char* egid) {
    auto flow = world.nw.connect(world.h2, cred, Pid{9}, world.h1,
                                 net::Proto::tcp, port);
    table.add_row({who, listener, egid,
                   flow.ok() ? "ALLOW" : "DENY"});
    if (flow) (void)world.nw.close(*flow);
  };
  attempt("user0 (self)", world.users[0], 5000, "user0", "user0-UPG");
  attempt("user1 (stranger)", world.users[1], 5000, "user0", "user0-UPG");
  attempt("user2 (proj member)", world.users[2], 5000, "user0",
          "user0-UPG");
  attempt("user0 (self)", world.users[0], 5001, "user0", "widgets");
  attempt("user1 (stranger)", world.users[1], 5001, "user0", "widgets");
  attempt("user2 (proj member)", world.users[2], 5001, "user0",
          "widgets");
  table.print();
  results.set("decision_matrix", table_to_json(table));
}

void latency_budget(Json& results) {
  print_banner(
      "E5b: simulated connection latency budget",
      "Per-connection cost decomposition; established-path cost is "
      "identical with and without the UBF (the zero-overhead claim).");

  Table table({"configuration", "new-conn cost (us)",
               "established send cost (us)", "hook invocations",
               "conntrack hits"});
  for (bool with_ubf : {false, true}) {
    NetWorld world;
    net::Ubf ubf(&world.db, &world.nw);
    if (with_ubf) ubf.attach();
    (void)world.nw.listen(world.h1, world.users[0], Pid{1},
                          net::Proto::tcp, 5000);
    auto flow = world.nw.connect(world.h2, world.users[0], Pid{2},
                                 world.h1, net::Proto::tcp, 5000);
    const double conn_us =
        static_cast<double>(world.nw.last_connect_cost_ns()) / 1000.0;
    for (int i = 0; i < 1000; ++i) {
      (void)world.nw.send(*flow, net::FlowEnd::client, "x");
    }
    const double send_us =
        static_cast<double>(world.nw.last_send_cost_ns()) / 1000.0;
    table.add_row({with_ubf ? "UBF attached" : "open network",
                   common::strformat("%.2f", conn_us),
                   common::strformat("%.3f", send_us),
                   std::to_string(world.nw.stats().hook_invocations),
                   std::to_string(world.nw.stats().conntrack_hits)});
  }
  table.print();
  results.set("latency_budget", table_to_json(table));

  print_banner(
      "E5c: strawman ablation — per-packet userspace firewall",
      "If every packet (not just new connections) took the nfqueue hop, "
      "the data path would slow by the hook cost on each send. The UBF's "
      "conntrack bypass avoids exactly this.");
  NetWorld world;
  const auto& lat = world.nw.latency();
  const double fast =
      static_cast<double>(lat.conntrack_lookup_ns + lat.per_packet_ns);
  const double slow = fast + static_cast<double>(lat.hook_dispatch_ns +
                                                 2 * lat.ident_local_ns);
  Table t2({"design", "per-packet cost (us)", "slowdown"});
  t2.add_row({"conntrack bypass (UBF)",
              common::strformat("%.3f", fast / 1000.0), "1.00x"});
  t2.add_row({"per-packet hook (strawman)",
              common::strformat("%.3f", slow / 1000.0),
              common::strformat("%.2fx", slow / fast)});
  t2.print();
  results.set("per_packet_strawman", table_to_json(t2));
}

void port_collision(Json& results) {
  print_banner(
      "E9: port-collision crosstalk (paper §V reliability claim)",
      "Two users pick the same port on different nodes; a misdirected "
      "client must not reach the other user's service.");

  Table table({"configuration", "misdirected connect", "data crosstalk"});
  for (bool with_ubf : {false, true}) {
    NetWorld world;
    net::Ubf ubf(&world.db, &world.nw);
    if (with_ubf) ubf.attach();
    const std::uint16_t port = 8080;
    // user0's service on node-1; user1's service on node-2, same port.
    (void)world.nw.listen(world.h1, world.users[0], Pid{1},
                          net::Proto::tcp, port);
    (void)world.nw.listen(world.h2, world.users[1], Pid{2},
                          net::Proto::tcp, port);
    // user0's client, misconfigured with node-2's hostname.
    auto flow = world.nw.connect(world.h1, world.users[0], Pid{3},
                                 world.h2, net::Proto::tcp, port);
    bool crosstalk = false;
    if (flow) {
      (void)world.nw.send(*flow, net::FlowEnd::client,
                          "user0-confidential-payload");
      auto delivered = world.nw.recv(*flow, net::FlowEnd::server);
      crosstalk = delivered.ok();  // user1's service got user0's bytes
    }
    table.add_row({with_ubf ? "UBF attached" : "open network",
                   flow.ok() ? "established" : "dropped",
                   crosstalk ? "CORRUPTION" : "none"});
  }
  table.print();
  results.set("port_collision", table_to_json(table));
}

}  // namespace
}  // namespace heus::bench

int main(int argc, char** argv) {
  // Stash our own flags before google-benchmark validates the rest.
  const auto path = heus::common::json_flag(argc, argv, "BENCH_E5.json");
  std::vector<char*> passthrough;
  for (int i = 0; i < argc; ++i) {
    if (heus::common::json_flag(argv[i], "")) continue;
    passthrough.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  heus::common::Json results = heus::common::Json::object();
  heus::bench::decision_matrix(results);
  heus::bench::latency_budget(results);
  heus::bench::port_collision(results);
  if (!path) return 0;
  return heus::bench::write_report("E5", std::move(results), *path) ? 0 : 1;
}
