// E2 (paper §IV-B): Slurm PrivateData hides other users' jobs, usage and
// accounting at negligible query cost.
//
// Measures: the row counts different reader classes see, and squeue-style
// query latency with and without PrivateData at several queue depths.
#include <memory>

#include "bench/common/table.h"
#include "common/strings.h"
#include "sched/scheduler.h"

namespace heus::bench {
namespace {

using common::kSecond;
using simos::Credentials;

struct SchedWorld {
  common::SimClock clock;
  simos::UserDb db;
  std::unique_ptr<sched::Scheduler> scheduler;
  std::vector<Credentials> users;

  SchedWorld(std::size_t n_users, std::size_t n_jobs, bool private_data) {
    sched::SchedulerConfig cfg;
    cfg.private_data = private_data ? sched::PrivateData::all()
                                    : sched::PrivateData::none();
    scheduler = std::make_unique<sched::Scheduler>(&clock, cfg);
    sched::NodeInfo info;
    info.hostname = "c0";
    info.cpus = 64;
    info.mem_mb = 1 << 20;
    scheduler->add_node(info);
    for (std::size_t u = 0; u < n_users; ++u) {
      const Uid uid = *db.create_user("user" + std::to_string(u));
      users.push_back(*simos::login(db, uid));
    }
    for (std::size_t j = 0; j < n_jobs; ++j) {
      sched::JobSpec spec;
      spec.name = common::strformat("job-%zu", j);
      spec.command = common::strformat("./sim --case=%zu", j);
      spec.mem_mb_per_task = 64;
      spec.duration_ns = 3600 * kSecond;  // stays queued/running
      (void)scheduler->submit(users[j % users.size()], spec);
    }
    scheduler->step();
  }
};

void view_report() {
  print_banner(
      "E2: scheduler view filtering (paper §IV-B)",
      "Claim: PrivateData hides foreign jobs/usage/accounting entirely; "
      "operators retain full visibility for support work.");

  SchedWorld world(/*n_users=*/32, /*n_jobs=*/1024,
                   /*private_data=*/true);
  const Uid op_uid = *world.db.create_user("operator1");
  world.scheduler->add_operator(op_uid);
  const Credentials op = *simos::login(world.db, op_uid);

  Table table({"reader", "squeue-rows", "sacct-rows", "usage-rows"});
  auto row = [&](const char* label, const Credentials& cred) {
    table.add_row({label,
                   std::to_string(world.scheduler->list_jobs(cred).size()),
                   std::to_string(world.scheduler->accounting(cred).size()),
                   std::to_string(world.scheduler->usage_by_user(cred).size())});
  };
  row("ordinary user", world.users[0]);
  row("operator", op);
  row("root", simos::root_credentials());

  world.scheduler->set_private_data(sched::PrivateData::none());
  row("user w/o PrivateData", world.users[0]);
  table.print();
}

bool timing_report() {
  print_banner("E2 timing: list_jobs for an ordinary user (wall clock)",
               "32 users; per query, fastest of 5 windows.");
  constexpr std::size_t kUsers = 32;
  Table table({"jobs", "PrivateData", "rows", "per query"});
  bool ok = true;
  for (const std::size_t n_jobs : {128, 1024, 8192}) {
    for (const bool private_data : {false, true}) {
      SchedWorld world(kUsers, n_jobs, private_data);
      const std::size_t rows = private_data ? n_jobs / kUsers : n_jobs;
      // About 2 ms a window: 16K jobs rendered, or 256K jobs filtered.
      const std::size_t calls = (private_data ? 262144 : 16384) / n_jobs;
      std::vector<sched::JobView> view;
      std::size_t seen = 0;
      const double ns = fastest_ns(kWindows, [&] {
        seen = 0;
        for (std::size_t i = 0; i < calls; ++i) {
          view = world.scheduler->list_jobs(world.users[0]);
          seen += view.size();
        }
      });
      ok &= check_count("E2 list_jobs rows", seen, calls * rows);
      table.add_row({std::to_string(n_jobs), private_data ? "on" : "off",
                     std::to_string(rows), fmt_ns(ns / calls)});
    }
  }
  table.print();
  return ok;
}

}  // namespace
}  // namespace heus::bench

int main() {
  heus::bench::view_report();
  return heus::bench::timing_report() ? 0 : 1;
}
