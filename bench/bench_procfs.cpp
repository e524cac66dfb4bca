// E1 (paper §IV-A): hidepid closes the process-information channel, with
// negligible cost, and seepid restores visibility for whitelisted staff.
//
// Measures: (a) how many foreign processes each reader class observes,
// and (b) the wall-clock cost of a full `ps aux`-style procfs scan of
// 4,096 processes and of one own-pid stat under hidepid 0/1/2.
#include "bench/common/table.h"
#include "common/strings.h"
#include "simos/procfs.h"

namespace heus::bench {
namespace {

using simos::Credentials;
using simos::HidepidMode;

struct ProcWorld {
  common::SimClock clock;
  simos::UserDb db;
  simos::ProcessTable table{&clock};
  std::vector<Credentials> users;
  Gid exempt{};

  explicit ProcWorld(std::size_t n_users, std::size_t n_procs) {
    exempt = *db.create_system_group("proc-exempt");
    for (std::size_t u = 0; u < n_users; ++u) {
      const Uid uid = *db.create_user("user" + std::to_string(u));
      users.push_back(*simos::login(db, uid));
    }
    for (std::size_t p = 0; p < n_procs; ++p) {
      table.spawn(users[p % users.size()],
                  common::strformat("app --task=%zu", p));
    }
  }
};

void visibility_report() {
  print_banner(
      "E1: process visibility under hidepid (paper §IV-A)",
      "Claim: hidepid=2 hides all foreign processes; the gid= exemption "
      "(seepid) restores staff visibility; users still see their own.");

  ProcWorld world(/*n_users=*/16, /*n_procs=*/4096);
  Table table({"reader", "hidepid", "visible", "foreign-visible",
               "own-visible"});
  const Credentials& plain = world.users[0];
  Credentials staff = world.users[1];
  staff.supplementary.insert(world.exempt);
  const Credentials root = simos::root_credentials();

  auto count = [&](const Credentials& reader, HidepidMode mode,
                   const char* label) {
    simos::ProcFs procfs(&world.table,
                         simos::ProcMountOptions{mode, world.exempt});
    std::size_t visible = 0, foreign = 0, own = 0;
    for (const auto& d : procfs.snapshot(reader)) {
      ++visible;
      if (d.uid == reader.uid) {
        ++own;
      } else {
        ++foreign;
      }
    }
    table.add_row({label,
                   std::to_string(static_cast<int>(mode)),
                   std::to_string(visible), std::to_string(foreign),
                   std::to_string(own)});
  };

  for (auto mode : {HidepidMode::off, HidepidMode::restrict_contents,
                    HidepidMode::invisible}) {
    count(plain, mode, "ordinary user");
  }
  count(staff, HidepidMode::invisible, "staff (seepid)");
  count(root, HidepidMode::invisible, "root");
  table.print();
}

bool timing_report() {
  print_banner("E1 timing: procfs calls of an ordinary user (wall clock)",
               "16 users x 4096 processes; per call, fastest of 5 windows.");
  constexpr std::size_t kProcs = 4096, kUsers = 16;
  constexpr std::size_t kScans = 64, kStats = 65536;
  ProcWorld world(kUsers, kProcs);
  const Credentials& reader = world.users[0];
  const Pid own = world.table.pids_of(reader.uid).front();

  Table table({"hidepid", "full scan", "own-pid stat"});
  bool ok = true;
  for (auto mode : {HidepidMode::off, HidepidMode::restrict_contents,
                    HidepidMode::invisible}) {
    simos::ProcFs procfs(&world.table,
                         simos::ProcMountOptions{mode, world.exempt});
    std::vector<simos::ProcDetails> snapshot;
    std::size_t rows = 0;
    const double scan_ns = fastest_ns(kWindows, [&] {
      rows = 0;
      for (std::size_t i = 0; i < kScans; ++i) {
        snapshot = procfs.snapshot(reader);
        rows += snapshot.size();
      }
    });
    Result<simos::ProcStat> st = Errno::enoent;
    std::size_t stats_ok = 0;
    const double stat_ns = fastest_ns(kWindows, [&] {
      stats_ok = 0;
      for (std::size_t i = 0; i < kStats; ++i) {
        st = procfs.stat(reader, own);
        stats_ok += st.ok() ? 1 : 0;
      }
    });
    const std::size_t visible =
        mode == HidepidMode::off ? kProcs : kProcs / kUsers;
    ok &= check_count("E1 scan rows", rows, kScans * visible);
    ok &= check_count("E1 own-pid stats", stats_ok, kStats);
    table.add_row({std::to_string(static_cast<int>(mode)),
                   fmt_ns(scan_ns / kScans), fmt_ns(stat_ns / kStats)});
  }
  table.print();
  return ok;
}

}  // namespace
}  // namespace heus::bench

int main() {
  heus::bench::visibility_report();
  return heus::bench::timing_report() ? 0 : 1;
}
