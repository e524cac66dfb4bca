// The /proc view with hidepid (paper §IV-A).
//
// LLSC mounts /proc with hidepid=2 plus a gid= exemption so that users see
// only their own processes while a whitelisted support-staff group retains
// full visibility (via the seepid helper, simos/pam.h). This module
// reproduces the observable contract of that mount option:
//
//   hidepid=0  — everything visible to everyone (stock Linux)
//   hidepid=1  — pid directories of other users are listable but their
//                contents (cmdline, status details) are unreadable
//   hidepid=2  — pid directories of other users are entirely invisible
//   gid=<g>    — members of group <g> are exempt from the restriction
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/result.h"
#include "obs/decision.h"
#include "simos/process.h"

namespace heus::simos {

enum class HidepidMode : int { off = 0, restrict_contents = 1, invisible = 2 };

struct ProcMountOptions {
  HidepidMode hidepid = HidepidMode::off;
  std::optional<Gid> exempt_gid;  ///< the `gid=` mount flag
};

/// What a `stat("/proc/<pid>")`-level query reveals.
struct ProcStat {
  Pid pid{};
  Uid uid{};
  ProcState state = ProcState::running;
  common::SimTime start_time{};
};

/// Full per-process details (the /proc/<pid>/cmdline, cwd, status level).
struct ProcDetails {
  Pid pid{};
  Uid uid{};
  Gid gid{};
  std::string cmdline;
  std::string cwd;
  std::optional<JobId> job;
};

/// A procfs *view* over one node's process table. Cheap to construct;
/// stores only the mount options and borrowed pointers.
class ProcFs {
 public:
  ProcFs(const ProcessTable* table, ProcMountOptions opts)
      : table_(table), opts_(opts) {}

  [[nodiscard]] const ProcMountOptions& options() const { return opts_; }
  void remount(ProcMountOptions opts) { opts_ = opts; }

  /// Route visibility verdicts on foreign processes through the cluster
  /// decision trace. Null (the default) disables recording.
  void set_trace(obs::DecisionTrace* trace) { trace_ = trace; }

  /// Directory listing of /proc — the pids visible to `reader`, in
  /// ascending order. Records one verdict per process scanned.
  [[nodiscard]] std::vector<Pid> list(const Credentials& reader) const;

  /// stat(2) on /proc/<pid>: under hidepid=2 foreign pids return ENOENT
  /// (the dirent does not exist); under hidepid<=1 the stat succeeds.
  Result<ProcStat> stat(const Credentials& reader, Pid pid) const;

  /// Read /proc/<pid>/{cmdline,cwd,status}: under hidepid>=1 foreign pids
  /// return EACCES (dirent visible, contents protected) and under
  /// hidepid=2 ENOENT.
  Result<ProcDetails> read_details(const Credentials& reader, Pid pid) const;

  /// `ps aux` equivalent: details of every process the reader may
  /// inspect, in ascending pid order.
  [[nodiscard]] std::vector<ProcDetails> snapshot(
      const Credentials& reader) const;

  /// True iff this reader is exempt (root or member of the gid= group).
  [[nodiscard]] bool is_exempt(const Credentials& reader) const;

 private:
  [[nodiscard]] bool may_see_entry(const Credentials& reader,
                                   const Process& p) const;
  [[nodiscard]] bool may_read_contents(const Credentials& reader,
                                       const Process& p) const;
  /// read_details once the process is found.
  Result<ProcDetails> details_of(const Credentials& reader,
                                 const Process& p) const;
  void record(const Credentials& reader, const Process& p,
              obs::ChannelKind channel, bool allowed) const;

  const ProcessTable* table_;
  ProcMountOptions opts_;
  obs::DecisionTrace* trace_ = nullptr;
};

}  // namespace heus::simos
