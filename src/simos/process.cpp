#include "simos/process.h"

#include <algorithm>

namespace heus::simos {

namespace {

/// The entry for `pid` in the pid-ordered `procs`, or its end().
template <typename Procs>
auto locate(Procs& procs, Pid pid) {
  auto it = std::lower_bound(
      procs.begin(), procs.end(), pid,
      [](const Process& p, Pid key) { return p.pid < key; });
  return it != procs.end() && it->pid == pid ? it : procs.end();
}

}  // namespace

Pid ProcessTable::spawn(const Credentials& cred, std::string cmdline,
                        const SpawnOptions& opts) {
  const Pid pid{next_pid_++};
  Process& p = procs_.emplace_back();
  p.pid = pid;
  p.ppid = opts.ppid;
  p.cred = cred;
  p.cmdline = std::move(cmdline);
  p.cwd = opts.cwd;
  p.start_time = clock_->now();
  p.job = opts.job;
  p.in_container = opts.in_container;
  return pid;
}

Result<void> ProcessTable::exit(Pid pid) {
  auto it = locate(procs_, pid);
  if (it == procs_.end()) return Errno::esrch;
  procs_.erase(it);
  return ok_result();
}

Result<void> ProcessTable::kill(const Credentials& actor, Pid pid) {
  auto it = locate(procs_, pid);
  if (it == procs_.end()) return Errno::esrch;
  if (!actor.is_root() && actor.uid != it->cred.uid) {
    return Errno::eperm;
  }
  procs_.erase(it);
  return ok_result();
}

const Process* ProcessTable::find(Pid pid) const {
  auto it = locate(procs_, pid);
  return it == procs_.end() ? nullptr : &*it;
}

std::vector<Pid> ProcessTable::pids_of(Uid uid) const {
  std::vector<Pid> out;
  for (const Process& p : procs_) {
    if (p.cred.uid == uid) out.push_back(p.pid);
  }
  return out;
}

std::size_t ProcessTable::kill_all_of(Uid uid) {
  return std::erase_if(procs_,
                       [uid](const Process& p) { return p.cred.uid == uid; });
}

}  // namespace heus::simos
