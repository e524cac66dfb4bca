// Per-node process table.
//
// Each simulated node owns a ProcessTable; the procfs view (simos/procfs.h)
// renders it subject to hidepid. Processes carry the full credential set so
// every downstream check (DAC, UBF ident lookups, scheduler adoption) can
// key on them.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/ids.h"
#include "common/result.h"
#include "simos/credentials.h"

namespace heus::simos {

enum class ProcState { running, sleeping, zombie };

struct Process {
  Pid pid{};
  Pid ppid{};
  Credentials cred;
  std::string cmdline;
  std::string cwd;
  common::SimTime start_time{};
  ProcState state = ProcState::running;
  std::optional<JobId> job;  ///< scheduler job this task belongs to, if any
  bool in_container = false;
};

/// Spawn parameters beyond the credential/cmdline pair.
struct SpawnOptions {
  Pid ppid{};
  std::string cwd = "/";
  std::optional<JobId> job;
  bool in_container = false;
};

/// One node's processes, stored in ascending pid order. Pids are issued
/// monotonically, so a spawn appends, and a listing is a plain scan.
class ProcessTable {
 public:
  using const_iterator = std::vector<Process>::const_iterator;

  explicit ProcessTable(const common::SimClock* clock) : clock_(clock) {}

  /// Create a process. Pids are allocated monotonically per node.
  Pid spawn(const Credentials& cred, std::string cmdline,
            const SpawnOptions& opts = {});

  /// Terminate (removes the entry; the simulation has no zombie reaping
  /// protocol to model beyond the state flag).
  Result<void> exit(Pid pid);

  /// Kill semantics: the actor may signal a process iff root or same uid.
  Result<void> kill(const Credentials& actor, Pid pid);

  /// Power loss: every process is gone at once.
  void clear() { procs_.clear(); }

  /// The pointer is valid until the next spawn or removal.
  [[nodiscard]] const Process* find(Pid pid) const;
  [[nodiscard]] std::size_t count() const { return procs_.size(); }

  /// Every process in ascending pid order, unfiltered (procfs applies
  /// hidepid on top of this).
  [[nodiscard]] const_iterator begin() const { return procs_.begin(); }
  [[nodiscard]] const_iterator end() const { return procs_.end(); }

  /// All processes belonging to `uid`, in ascending pid order (used by
  /// the scheduler epilog to confirm cleanup and by pam_slurm adoption).
  [[nodiscard]] std::vector<Pid> pids_of(Uid uid) const;

  /// Kill every process owned by `uid` (scheduler epilog node cleanup).
  std::size_t kill_all_of(Uid uid);

 private:
  const common::SimClock* clock_;
  std::vector<Process> procs_;  ///< ascending pid
  std::uint32_t next_pid_ = 2;  // pid 1 notionally init
};

}  // namespace heus::simos
