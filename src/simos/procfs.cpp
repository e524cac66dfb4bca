#include "simos/procfs.h"

namespace heus::simos {

bool ProcFs::is_exempt(const Credentials& reader) const {
  if (reader.is_root()) return true;
  return opts_.exempt_gid.has_value() && reader.in_group(*opts_.exempt_gid);
}

bool ProcFs::may_see_entry(const Credentials& reader,
                           const Process& p) const {
  if (opts_.hidepid != HidepidMode::invisible) return true;
  if (reader.uid == p.cred.uid) return true;
  return is_exempt(reader);
}

bool ProcFs::may_read_contents(const Credentials& reader,
                               const Process& p) const {
  if (opts_.hidepid == HidepidMode::off) return true;
  if (reader.uid == p.cred.uid) return true;
  return is_exempt(reader);
}

void ProcFs::record(const Credentials& reader, const Process& p,
                    obs::ChannelKind channel, bool allowed) const {
  // Only cross-user visibility verdicts are separation decisions; a user
  // looking at their own processes (or root) is not.
  if (trace_ == nullptr || reader.is_root() || reader.uid == p.cred.uid) {
    return;
  }
  trace_->record(
      obs::DecisionPoint::procfs_visibility,
      allowed ? obs::Outcome::allow : obs::Outcome::deny, reader.uid,
      reader.egid, p.cred.uid, channel, allowed ? nullptr : obs::knob::hidepid,
      [&](std::string& out) {
        out += "/proc/";
        obs::append_uint(out, p.pid.value());
      });
}

std::vector<Pid> ProcFs::list(const Credentials& reader) const {
  std::vector<Pid> out;
  out.reserve(table_->count());
  for (const Process& p : *table_) {
    const bool visible = may_see_entry(reader, p);
    record(reader, p, obs::ChannelKind::procfs_process_list, visible);
    if (visible) out.push_back(p.pid);
  }
  return out;
}

Result<ProcStat> ProcFs::stat(const Credentials& reader, Pid pid) const {
  const Process* p = table_->find(pid);
  if (p == nullptr) return Errno::enoent;
  const bool visible = may_see_entry(reader, *p);
  record(reader, *p, obs::ChannelKind::procfs_process_list, visible);
  if (!visible) return Errno::enoent;  // dirent hidden
  return ProcStat{p->pid, p->cred.uid, p->state, p->start_time};
}

Result<ProcDetails> ProcFs::read_details(const Credentials& reader,
                                         Pid pid) const {
  const Process* p = table_->find(pid);
  if (p == nullptr) return Errno::enoent;
  return details_of(reader, *p);
}

Result<ProcDetails> ProcFs::details_of(const Credentials& reader,
                                       const Process& p) const {
  if (!may_see_entry(reader, p)) {
    record(reader, p, obs::ChannelKind::procfs_cmdline, false);
    return Errno::enoent;
  }
  const bool readable = may_read_contents(reader, p);
  record(reader, p, obs::ChannelKind::procfs_cmdline, readable);
  if (!readable) return Errno::eacces;
  return ProcDetails{p.pid,     p.cred.uid, p.cred.egid,
                     p.cmdline, p.cwd,      p.job};
}

std::vector<ProcDetails> ProcFs::snapshot(const Credentials& reader) const {
  std::vector<ProcDetails> out;
  for (const Process& p : *table_) {
    auto d = details_of(reader, p);
    if (d) out.push_back(std::move(*d));
  }
  return out;
}

}  // namespace heus::simos
