// E12 (paper §I): the chosen mechanisms add no data-path overhead.
//
// The paper motivates its design by contrast with mitigations that DO tax
// the data path (Spectre/Meltdown patches cost 15-40%). Every mechanism
// here sits on control paths (connection setup, job start/end, metadata)
// or is a pure view filter. This harness runs identical end-to-end
// workloads on baseline and hardened clusters and reports the hot-path
// cost deltas, simulated and then real.
#include "bench/common/table.h"
#include "common/strings.h"
#include "core/cluster.h"

namespace heus::bench {
namespace {

using common::kSecond;
using core::Cluster;
using core::ClusterConfig;
using core::SeparationPolicy;

ClusterConfig config(SeparationPolicy policy) {
  ClusterConfig cfg;
  cfg.compute_nodes = 4;
  cfg.login_nodes = 1;
  cfg.cpus_per_node = 16;
  cfg.gpus_per_node = 1;
  cfg.gpu_mem_bytes = 64 << 20;  // 64 MiB: scrub cost visible in ms
  cfg.policy = policy;
  return cfg;
}

// Simulated end-to-end job throughput: same workload, both policies.

void throughput_report() {
  print_banner(
      "E12: end-to-end data-path overhead (paper §I)",
      "Identical workload on baseline vs hardened clusters. Control-path "
      "costs move (connection setup, epilog scrub); data-path costs and "
      "job throughput must not. Contrast: Spectre/Meltdown mitigations "
      "cost 15-40% on the data path.");

  Table table({"metric", "baseline", "hardened", "delta"});
  struct Sample {
    double send_us;
    double conn_us;
    double jobs_per_hour;
    double scrub_ms;
  };
  auto run = [&](SeparationPolicy policy) {
    Cluster cluster(config(policy));
    const Uid alice = *cluster.add_user("alice");
    auto session = *cluster.login(alice);

    // Job stream: 64 one-minute single-cpu jobs (same-user, so sharing
    // policy differences do not bias the comparison).
    for (int i = 0; i < 64; ++i) {
      sched::JobSpec spec;
      spec.duration_ns = 60 * kSecond;
      spec.gpus_per_task = (i % 4 == 0) ? 1 : 0;
      (void)cluster.submit(session, spec);
    }
    const auto t0 = cluster.clock().now();
    cluster.run_jobs();
    const double hours =
        (cluster.clock().now().ns - t0.ns) / (3600.0 * kSecond);

    // Data path probes.
    const HostId h0 = cluster.node(cluster.compute_nodes()[0]).host();
    sched::JobSpec keep;
    keep.duration_ns = 3600 * kSecond;
    auto job = cluster.submit(session, keep);
    cluster.scheduler().step();
    (void)job;
    (void)cluster.network().listen(h0, session.cred, session.shell,
                                   net::Proto::tcp, 9000);
    auto flow = cluster.network().connect(
        cluster.node(session.node).host(), session.cred, session.shell,
        h0, net::Proto::tcp, 9000);
    const double conn_us =
        static_cast<double>(cluster.network().last_connect_cost_ns()) /
        1000.0;
    (void)cluster.network().send(*flow, net::FlowEnd::client, "x");
    const double send_us =
        static_cast<double>(cluster.network().last_send_cost_ns()) /
        1000.0;

    // Epilog scrub cost actually charged (hardened only).
    double scrub_ms = 0;
    for (NodeId n : cluster.compute_nodes()) {
      for (std::uint32_t g = 0; g < cluster.node(n).gpus().size(); ++g) {
        scrub_ms += static_cast<double>(cluster.node(n)
                                            .gpus()
                                            .at(g)
                                            .stats()
                                            .scrubbed_bytes) /
                    gpu::kScrubBytesPerNs / 1e6;
      }
    }
    return Sample{send_us, conn_us, 64.0 / hours, scrub_ms};
  };

  const Sample base = run(SeparationPolicy::baseline());
  const Sample hard = run(SeparationPolicy::hardened());

  auto delta = [](double b, double h) {
    if (b == 0) return std::string("-");
    return common::strformat("%+.1f%%", (h - b) / b * 100.0);
  };
  table.add_row({"established send (us, data path)",
                 common::strformat("%.3f", base.send_us),
                 common::strformat("%.3f", hard.send_us),
                 delta(base.send_us, hard.send_us)});
  table.add_row({"new connection (us, control path)",
                 common::strformat("%.2f", base.conn_us),
                 common::strformat("%.2f", hard.conn_us),
                 delta(base.conn_us, hard.conn_us)});
  table.add_row({"job throughput (jobs/hour)",
                 common::strformat("%.1f", base.jobs_per_hour),
                 common::strformat("%.1f", hard.jobs_per_hour),
                 delta(base.jobs_per_hour, hard.jobs_per_hour)});
  table.add_row({"epilog GPU scrub total (ms, between jobs)",
                 common::strformat("%.2f", base.scrub_ms),
                 common::strformat("%.2f", hard.scrub_ms), "-"});
  table.print();
  std::printf(
      "\nReading: the only nonzero deltas are on control paths (new-\n"
      "connection setup pays the nfqueue+ident exchange; job turnaround\n"
      "absorbs the epilog scrub). The per-packet data path and aggregate\n"
      "throughput are unchanged — the property that makes these controls\n"
      "deployable on an HPC system.\n");
}

// Real (wall-clock) hot paths, baseline vs hardened: a 4 KiB file write
// and read-back, one 1 KiB send+recv on an established login-to-compute
// flow, and a procfs scan by a user running 64 processes on the node.
bool timing_report() {
  print_banner("E12 timing: data-path calls (wall clock)",
               "Per call, fastest of 5 windows; same workload on both "
               "clusters.");
  constexpr std::size_t kFsCalls = 4000, kSends = 20000, kScans = 512;
  Table table({"call", "baseline", "hardened"});
  std::vector<std::string> fs_row{"fs write+read (4 KiB)"},
      send_row{"established send+recv (1 KiB)"},
      scan_row{"own-procfs scan (65 procs)"};
  bool ok = true;
  for (const bool hardened : {false, true}) {
    Cluster cluster(config(hardened ? SeparationPolicy::hardened()
                                    : SeparationPolicy::baseline()));
    const Uid alice = *cluster.add_user("alice");
    auto session = *cluster.login(alice);

    const std::string data(4096, 'd');
    Result<void> written;
    Result<std::string> read = Errno::enoent;
    std::size_t done = 0;
    const double fs_ns = fastest_ns(kWindows, [&] {
      done = 0;
      for (std::size_t i = 0; i < kFsCalls; ++i) {
        written = cluster.shared_fs().write_file(session.cred,
                                                 "/home/alice/hot.dat", data);
        read = cluster.shared_fs().read_file(session.cred,
                                             "/home/alice/hot.dat");
        done += written.ok() && read.ok() && read->size() == 4096 ? 1 : 0;
      }
    });
    ok &= check_count("E12 fs write+read", done, kFsCalls);
    fs_row.push_back(fmt_ns(fs_ns / kFsCalls));

    // alice needs a job on the compute node for realism; listener there.
    const HostId h0 = cluster.node(cluster.compute_nodes()[0]).host();
    sched::JobSpec spec;
    spec.duration_ns = 3600 * kSecond;
    (void)cluster.submit(session, spec);
    cluster.scheduler().step();
    (void)cluster.network().listen(h0, session.cred, session.shell,
                                   net::Proto::tcp, 9000);
    auto flow = cluster.network().connect(cluster.node(session.node).host(),
                                          session.cred, session.shell, h0,
                                          net::Proto::tcp, 9000);
    const std::string payload(1024, 'p');
    Result<void> sent;
    Result<std::string> got = Errno::enoent;
    const double send_ns = fastest_ns(kWindows, [&] {
      done = 0;
      for (std::size_t i = 0; i < kSends; ++i) {
        sent = cluster.network().send(*flow, net::FlowEnd::client, payload);
        got = cluster.network().recv(*flow, net::FlowEnd::server);
        done += sent.ok() && got.ok() && got->size() == 1024 ? 1 : 0;
      }
    });
    ok &= check_count("E12 send+recv", done, kSends);
    send_row.push_back(fmt_ns(send_ns / kSends));

    core::Node& node = cluster.node(session.node);
    for (int i = 0; i < 64; ++i) {
      node.procs().spawn(session.cred, common::strformat("worker-%d", i));
    }
    const std::size_t visible =
        hardened ? node.procs().pids_of(alice).size() : node.procs().count();
    std::vector<simos::ProcDetails> snapshot;
    const double scan_ns = fastest_ns(kWindows, [&] {
      done = 0;
      for (std::size_t i = 0; i < kScans; ++i) {
        snapshot = node.procfs().snapshot(session.cred);
        done += snapshot.size();
      }
    });
    ok &= check_count("E12 procfs scan rows", done, kScans * visible);
    scan_row.push_back(fmt_ns(scan_ns / kScans));
  }
  table.add_row(std::move(fs_row));
  table.add_row(std::move(send_row));
  table.add_row(std::move(scan_row));
  table.print();
  return ok;
}

}  // namespace
}  // namespace heus::bench

int main() {
  heus::bench::throughput_report();
  return heus::bench::timing_report() ? 0 : 1;
}
