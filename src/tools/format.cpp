#include "tools/format.h"

#include <algorithm>

#include "common/strings.h"

namespace heus::tools {

using common::strformat;

namespace {

std::string user_name(const simos::UserDb& users, Uid uid) {
  const simos::User* u = users.find_user(uid);
  return u != nullptr ? u->name : strformat("uid:%u", uid.value());
}

std::string group_name(const simos::UserDb& users, Gid gid) {
  const auto g = users.find_group(gid);
  return g ? std::string(g->name) : strformat("gid:%u", gid.value());
}

char kind_char(vfs::FileKind kind) {
  switch (kind) {
    case vfs::FileKind::directory: return 'd';
    case vfs::FileKind::symlink: return 'l';
    case vfs::FileKind::chardev: return 'c';
    case vfs::FileKind::regular: return '-';
  }
  return '?';
}

}  // namespace

std::string ps_aux(const simos::ProcFs& procfs,
                   const simos::UserDb& users,
                   const simos::Credentials& reader) {
  std::string out = strformat("%-12s %6s %-8s %s\n", "USER", "PID",
                              "STAT", "COMMAND");
  for (const auto& d : procfs.snapshot(reader)) {
    out += strformat("%-12s %6u %-8s %s\n",
                     user_name(users, d.uid).c_str(), d.pid.value(), "R",
                     d.cmdline.c_str());
  }
  return out;
}

std::string squeue(const sched::Scheduler& scheduler,
                   const simos::UserDb& users,
                   const simos::Credentials& reader) {
  std::string out = strformat("%8s %-12s %-16s %-10s %6s %-12s %s\n",
                              "JOBID", "USER", "NAME", "STATE", "TASKS",
                              "REASON", "COMMAND");
  for (const auto& view : scheduler.list_jobs(reader)) {
    out += strformat("%8llu %-12s %-16s %-10s %6u %-12s %s\n",
                     static_cast<unsigned long long>(view.id.value()),
                     user_name(users, view.user).c_str(),
                     view.name.c_str(), sched::to_string(view.state),
                     view.num_tasks,
                     view.reason.empty() ? "-" : view.reason.c_str(),
                     view.command.c_str());
  }
  return out;
}

std::string sacct(const sched::Scheduler& scheduler,
                  const simos::UserDb& users,
                  const simos::Credentials& reader) {
  std::string out = strformat("%8s %-12s %-16s %-10s %12s\n", "JOBID",
                              "USER", "NAME", "STATE", "CPU-SECONDS");
  for (const auto& rec : scheduler.accounting(reader)) {
    out += strformat("%8llu %-12s %-16s %-10s %12.1f\n",
                     static_cast<unsigned long long>(rec.id.value()),
                     user_name(users, rec.user).c_str(), rec.name.c_str(),
                     sched::to_string(rec.final_state),
                     static_cast<double>(rec.cpu_ns) / 1e9);
  }
  return out;
}

std::string sinfo(const sched::Scheduler& scheduler,
                  const simos::UserDb& users,
                  const simos::Credentials& reader) {
  std::string out =
      strformat("%-14s %-10s %-12s %6s %6s %-12s\n", "NODELIST",
                "PARTITION", "STATE", "CPUS", "FREE", "USER");
  for (std::size_t i = 0; i < scheduler.node_count(); ++i) {
    const NodeId node{static_cast<std::uint32_t>(i)};
    const sched::NodeInfo* info = scheduler.node_info(node);
    std::string state;
    if (scheduler.node_is_down(node)) {
      state = "down";
    } else if (scheduler.jobs_on(node).empty()) {
      state = "idle";
    } else if (scheduler.node_free_cpus(node) == 0) {
      state = "allocated";
    } else {
      state = "mixed";
    }
    // Which user owns the node is itself sensitive: only shown to root
    // (and the paper's whole-node policy makes it single-valued).
    std::string owner = "-";
    if (reader.is_root()) {
      if (auto user = scheduler.node_user(node)) {
        owner = user_name(users, *user);
      }
    }
    out += strformat("%-14s %-10s %-12s %6u %6u %-12s\n",
                     info->hostname.c_str(), info->partition.c_str(),
                     state.c_str(), info->cpus,
                     scheduler.node_free_cpus(node), owner.c_str());
  }
  return out;
}

std::string ls_l(vfs::FileSystem& fs, const simos::UserDb& users,
                 const simos::Credentials& reader,
                 const std::string& path) {
  auto entries = fs.readdir(reader, path);
  if (!entries) {
    return strformat("ls: cannot open directory '%s': %s\n", path.c_str(),
                     std::string(errno_message(entries.error())).c_str());
  }
  std::string out;
  for (const auto& entry : *entries) {
    const std::string child =
        (path == "/") ? "/" + entry.name : path + "/" + entry.name;
    auto st = fs.stat(reader, child);
    if (!st) {
      out += strformat("?????????  %s\n", entry.name.c_str());
      continue;
    }
    out += strformat("%c%s%s %2u %-10s %-10s %8zu %s\n",
                     kind_char(st->kind),
                     common::mode_string(st->mode).c_str(),
                     st->has_acl ? "+" : " ", st->nlink,
                     user_name(users, st->uid).c_str(),
                     group_name(users, st->gid).c_str(), st->size,
                     entry.name.c_str());
  }
  return out;
}

std::string getfacl(vfs::FileSystem& fs, const simos::UserDb& users,
                    const simos::Credentials& reader,
                    const std::string& path) {
  auto st = fs.stat(reader, path);
  if (!st) {
    return strformat("getfacl: %s: %s\n", path.c_str(),
                     std::string(errno_message(st.error())).c_str());
  }
  std::string out = strformat("# file: %s\n# owner: %s\n# group: %s\n",
                              path.c_str(),
                              user_name(users, st->uid).c_str(),
                              group_name(users, st->gid).c_str());
  const std::string mode = common::mode_string(st->mode);
  out += strformat("user::%s\n", mode.substr(0, 3).c_str());
  auto acl = fs.acl_get(reader, path);
  if (acl) {
    for (const auto& e : acl->entries) {
      std::string perm;
      perm += (e.perm & vfs::kPermRead) ? 'r' : '-';
      perm += (e.perm & vfs::kPermWrite) ? 'w' : '-';
      perm += (e.perm & vfs::kPermExec) ? 'x' : '-';
      switch (e.tag) {
        case vfs::AclTag::named_user:
          out += strformat("user:%s:%s\n",
                           user_name(users, e.uid).c_str(), perm.c_str());
          break;
        case vfs::AclTag::named_group:
          out += strformat("group:%s:%s\n",
                           group_name(users, e.gid).c_str(), perm.c_str());
          break;
        case vfs::AclTag::mask:
          out += strformat("mask::%s\n", perm.c_str());
          break;
      }
    }
  }
  out += strformat("group::%s\nother::%s\n", mode.substr(3, 3).c_str(),
                   mode.substr(6, 3).c_str());
  return out;
}

std::string sload(const monitor::Monitor& mon,
                  const simos::UserDb& users,
                  const simos::Credentials& reader) {
  std::string out;
  auto series = mon.load_series();
  if (series.empty()) return "sload: no samples recorded\n";
  const auto& latest = series.back();
  out += strformat("cluster load: %u/%u cpus (%.0f%%), %u node(s) down\n",
                   latest.cpus_used, latest.cpus_total,
                   latest.utilization() * 100.0, latest.nodes_down);
  auto rows = mon.hotspots(reader);
  if (rows.empty()) {
    out += "hotspots: (none visible to this credential)\n";
    return out;
  }
  out += strformat("%-12s %6s %6s\n", "USER", "CPUS", "NODES");
  for (const auto& row : rows) {
    out += strformat("%-12s %6u %6u\n",
                     user_name(users, row.user).c_str(), row.cpus,
                     row.nodes);
  }
  return out;
}

std::string id(const simos::UserDb& users,
               const simos::Credentials& cred) {
  std::string out =
      strformat("uid=%u(%s) gid=%u(%s) groups=", cred.uid.value(),
                user_name(users, cred.uid).c_str(), cred.egid.value(),
                group_name(users, cred.egid).c_str());
  std::vector<Gid> all{cred.egid};
  all.insert(all.end(), cred.supplementary.begin(),
             cred.supplementary.end());
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (i) out += ",";
    out += strformat("%u(%s)", all[i].value(),
                     group_name(users, all[i]).c_str());
  }
  out += strformat(" smask=%03o\n", cred.smask);
  return out;
}

}  // namespace heus::tools
