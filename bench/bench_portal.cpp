// E10 (paper §IV-E): the web portal/gateway.
//
// Claims under test: web apps can be launched on ANY compute node in any
// partition and reached through the portal (no dedicated web partition);
// the whole path is authenticated (portal login) and authorized (UBF on
// the forwarded hop); the forwarding adds one fabric hop of overhead.
#include "bench/common/table.h"
#include "common/strings.h"
#include "core/cluster.h"

namespace heus::bench {
namespace {

using common::kSecond;
using core::Cluster;
using core::ClusterConfig;
using core::SeparationPolicy;

ClusterConfig portal_config(SeparationPolicy policy) {
  ClusterConfig cfg;
  cfg.compute_nodes = 8;
  cfg.login_nodes = 1;
  cfg.cpus_per_node = 16;
  cfg.policy = policy;
  return cfg;
}

void any_node_report() {
  print_banner(
      "E10: portal reach across all compute nodes (paper §IV-E)",
      "An interactive web app is launched via the scheduler on every "
      "compute node in turn; the portal must reach each one (no dedicated "
      "web partition). Foreign sessions must be denied on the forwarded "
      "hop.");

  Cluster cluster(portal_config(SeparationPolicy::hardened()));
  const Uid alice = *cluster.add_user("alice");
  const Uid bob = *cluster.add_user("bob");
  auto as = *cluster.login(alice);
  auto bob_cred = *simos::login(cluster.users(), bob);

  Table table({"node", "app-registered", "owner-request", "foreign-request"});
  std::vector<JobId> jobs;
  for (NodeId n : cluster.compute_nodes()) {
    // Each job takes a whole node; keeping previous jobs alive forces the
    // next submission onto the next node, covering all of them.
    sched::JobSpec spec;
    spec.interactive = true;
    spec.num_tasks = 16;  // whole node
    spec.duration_ns = 3600 * kSecond;
    auto job = cluster.submit(as, spec);
    cluster.scheduler().step();
    const auto* j = cluster.scheduler().find_job(*job);
    const NodeId got = j->allocations.front().node;
    auto app = cluster.portal().register_app(
        as.cred, as.shell, *job, cluster.node(got).host(), 8888,
        "jupyter",
        [](const std::string&) { return std::string("nb-ok"); });

    std::string owner = "-", foreign = "-";
    if (app) {
      auto ta = *cluster.portal().login(as.cred);
      auto tb = *cluster.portal().login(bob_cred);
      owner = cluster.portal().request(ta, *app, "GET /").ok() ? "ok"
                                                               : "DENIED";
      foreign = cluster.portal().request(tb, *app, "GET /").ok()
                    ? "LEAK"
                    : "denied";
      (void)cluster.portal().unregister_app(as.cred, *app);
    }
    table.add_row({cluster.node(got).hostname(),
                   app ? "yes" : "no", owner, foreign});
    jobs.push_back(*job);
    (void)n;
  }
  for (JobId id : jobs) (void)cluster.scheduler().cancel(as.cred, id);
  table.print();
}

void forwarding_overhead() {
  print_banner(
      "E10b: forwarding overhead",
      "Simulated request latency: direct connection to the app vs the "
      "portal-forwarded path (adds the portal fabric hop). Both are "
      "new-connection costs; established streams pay the per-packet cost "
      "only.");

  Cluster cluster(portal_config(SeparationPolicy::hardened()));
  const Uid alice = *cluster.add_user("alice");
  auto as = *cluster.login(alice);
  sched::JobSpec spec;
  spec.interactive = true;
  spec.duration_ns = 3600 * kSecond;
  auto job = cluster.submit(as, spec);
  cluster.scheduler().step();
  const NodeId jn = cluster.scheduler().find_job(*job)->allocations[0].node;
  const HostId app_host = cluster.node(jn).host();

  auto app = cluster.portal().register_app(
      as.cred, as.shell, *job, app_host, 8888, "jupyter",
      [](const std::string&) { return std::string("ok"); });

  // Direct: user's client on the login node straight to the app.
  const auto t0 = cluster.clock().now();
  auto direct = cluster.network().connect(
      cluster.node(as.node).host(), as.cred, as.shell, app_host,
      net::Proto::tcp, 8888);
  const double direct_us =
      static_cast<double>(cluster.clock().now().ns - t0.ns) / 1000.0;
  if (direct) (void)cluster.network().close(*direct);

  // Portal path.
  auto token = *cluster.portal().login(as.cred);
  const auto t1 = cluster.clock().now();
  (void)cluster.portal().request(token, *app, "GET /");
  const double portal_us =
      static_cast<double>(cluster.clock().now().ns - t1.ns) / 1000.0;

  Table table({"path", "latency (us)", "notes"});
  table.add_row({"direct", common::strformat("%.1f", direct_us),
                 "ssh tunnel equivalent, no authn on path"});
  table.add_row({"portal", common::strformat("%.1f", portal_us),
                 "authenticated + UBF-authorized"});
  table.print();
}

}  // namespace
}  // namespace heus::bench

int main() {
  heus::bench::any_node_report();
  heus::bench::forwarding_overhead();
  return 0;
}
