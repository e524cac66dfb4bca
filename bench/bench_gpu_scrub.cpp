// E7 (paper §IV-F): GPU memory residue and the epilog scrub.
//
// Claims under test: without a scrub, the next tenant can read the
// previous tenant's device memory (probability ~1 whenever users
// alternate); the epilog scrub closes the channel at a cost linear in
// device memory, charged between jobs (never on the compute path).
#include "bench/common/table.h"
#include "common/rng.h"
#include "common/strings.h"
#include "gpu/gpu.h"

namespace heus::bench {
namespace {

void residue_experiment() {
  print_banner(
      "E7: GPU residue across tenant cycles (paper §IV-F)",
      "N alternating-tenant job cycles; each tenant writes a secret, the "
      "next reads. 'leaks' counts cycles where foreign bytes were "
      "recovered. The epilog scrub must drive this to zero.");

  Table table({"policy", "cycles", "tenant-switches", "leaks",
               "leak-rate", "scrub-time-total-ms"});
  for (bool scrub : {false, true}) {
    gpu::GpuDevice dev(GpuId{0}, 1 << 20);
    common::Rng rng(3);
    constexpr int kCycles = 400;
    int leaks = 0;
    int switches = 0;
    std::int64_t scrub_ns = 0;
    Uid prev{0};
    for (int i = 0; i < kCycles; ++i) {
      const Uid tenant{1000 + static_cast<std::uint32_t>(rng.bounded(4))};
      (void)dev.assign(tenant);
      // Probe before writing: is a previous tenant's secret resident?
      auto mem = dev.read(tenant, 0, 32);
      if (i > 0 && tenant != prev) {
        ++switches;
        if (mem.ok() && mem->find("secret-of-") != std::string::npos) {
          ++leaks;
        }
      }
      (void)dev.write(
          tenant, 0,
          common::strformat("secret-of-%u", tenant.value()));
      (void)dev.release();
      if (scrub) scrub_ns += dev.scrub();
      prev = tenant;
    }
    table.add_row({scrub ? "epilog scrub" : "no scrub",
                   std::to_string(kCycles), std::to_string(switches),
                   std::to_string(leaks),
                   common::strformat("%.2f",
                                     switches ? static_cast<double>(leaks) /
                                                    switches
                                              : 0.0),
                   common::strformat("%.2f", static_cast<double>(scrub_ns) /
                                                 1e6)});
  }
  table.print();
}

void scrub_cost_model() {
  print_banner(
      "E7b: simulated scrub cost vs device memory",
      "Epilog scrub duration scales linearly with HBM size (modelled at "
      "1.5 TB/s, an A100-class sweep rate). This cost lands between jobs, "
      "not on any compute path.");

  Table table({"device-memory", "scrub-time-ms", "amortized-over-10min-job"});
  for (std::size_t gib : {16, 40, 80, 192}) {
    const double bytes = static_cast<double>(gib) * (1ULL << 30);
    const double ns = bytes / gpu::kScrubBytesPerNs;
    const double ms = ns / 1e6;
    table.add_row({common::strformat("%zu GiB", gib),
                   common::strformat("%.1f", ms),
                   common::strformat("%.4f%%", ms / (10 * 60 * 1000) *
                                                    100.0)});
  }
  table.print();
}

// One full-device tenant cycle per call: the tenant writes every byte,
// then the epilog scrub discards them. The device stores only its written
// extent, so scrubbing a device nobody wrote would time nothing.
bool timing_report() {
  print_banner("E7 timing: full-device write + scrub (wall clock)",
               "Host copy bandwidth of one tenant cycle; fastest of 5 "
               "windows of 64 MiB each.");
  constexpr std::size_t kBytesPerWindow = 64 << 20;
  Table table({"device memory", "per cycle", "GB/s"});
  bool ok = true;
  for (const std::size_t mem : {1 << 20, 16 << 20, 64 << 20}) {
    gpu::GpuDevice dev(GpuId{0}, mem);
    const std::string tensor(mem, 'x');
    const std::size_t cycles = kBytesPerWindow / mem;
    Result<void> written;
    std::int64_t scrub_ns = 0;
    std::size_t clean = 0;
    const double ns = fastest_ns(kWindows, [&] {
      clean = 0;
      for (std::size_t i = 0; i < cycles; ++i) {
        written = dev.write(Uid{1000}, 0, tensor);
        scrub_ns = dev.scrub();
        clean += written.ok() && scrub_ns > 0 && !dev.dirty() ? 1 : 0;
      }
    });
    ok &= check_count("E7 write+scrub cycles", clean, cycles);
    const double bytes = static_cast<double>(kBytesPerWindow);
    table.add_row({common::strformat("%zu MiB", mem >> 20),
                   fmt_ns(ns / static_cast<double>(cycles)),
                   common::strformat("%.1f", bytes / ns)});
  }
  table.print();
  return ok;
}

}  // namespace
}  // namespace heus::bench

int main() {
  heus::bench::residue_experiment();
  heus::bench::scrub_cost_model();
  return heus::bench::timing_report() ? 0 : 1;
}
