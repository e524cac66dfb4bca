// cluster_shell: an interactive (and scriptable) shell over the simulated
// cluster, rendering the familiar tools — ps, squeue, sinfo, ls, getfacl,
// id — exactly as each logged-in user would see them.
//
// Try it:
//   $ ./cluster_shell <<'EOF'
//   adduser alice
//   adduser bob
//   login alice
//   submit train 3600 4
//   write /home/alice/secret.txt "my results"
//   login bob
//   squeue
//   cat /home/alice/secret.txt
//   ps
//   policy baseline
//   ps
//   EOF
//
// The prompt shows who you are; `login <user>` switches identity; the
// `policy` command flips the whole cluster between baseline and hardened
// live, so the effect of the paper's configuration is directly visible.
#include <cstdio>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>

#include "common/strings.h"
#include "core/audit.h"
#include "core/cluster.h"
#include "tools/format.h"

using namespace heus;

namespace {

struct ShellState {
  core::Cluster cluster;
  std::map<std::string, core::Session> sessions;
  std::string current;  // current user name, "" = none

  explicit ShellState(core::ClusterConfig config)
      : cluster(std::move(config)) {}

  core::Session* session() {
    auto it = sessions.find(current);
    return it == sessions.end() ? nullptr : &it->second;
  }
};

void help() {
  std::printf(
      "commands:\n"
      "  adduser <name>             create an account (+home, +UPG)\n"
      "  login <name>               start/switch-to a session\n"
      "  id                         who am I\n"
      "  ps | squeue | sacct | sinfo | sload\n"
      "  submit <name> <secs> [tasks] [gpus]\n"
      "  cancel <jobid>\n"
      "  run                        drain the job queue (advance time)\n"
      "  ls <dir> | cat <file> | write <file> <text> | chmod <oct> <p>\n"
      "  getfacl <path> | setfacl-g <group> <perm-octal> <path>\n"
      "  mkproject <name>           (current user becomes steward)\n"
      "  addmember <project> <user>\n"
      "  newgrp <group>             switch session primary group\n"
      "  listen <port> | connect <host> <port>\n"
      "  ssh <node-index>\n"
      "  audit <victim> <observer>   probe all cross-user channels\n"
      "  policy <hardened|baseline>\n"
      "  oom <jobid>                inject an OOM node crash\n"
      "  help | exit\n");
}

void execute(ShellState& st, const std::string& line) {
  std::istringstream in(line);
  std::string cmd;
  in >> cmd;
  if (cmd.empty() || cmd[0] == '#') return;

  auto need_session = [&]() -> core::Session* {
    core::Session* s = st.session();
    if (s == nullptr) std::printf("error: log in first\n");
    return s;
  };

  if (cmd == "help") {
    help();
  } else if (cmd == "adduser") {
    std::string name;
    in >> name;
    auto uid = st.cluster.add_user(name);
    std::printf(uid ? "user '%s' created\n" : "adduser failed: %s\n",
                uid ? name.c_str()
                    : std::string(errno_name(uid.error())).c_str());
  } else if (cmd == "login") {
    std::string name;
    in >> name;
    const simos::User* user = st.cluster.users().find_user_by_name(name);
    if (user == nullptr) {
      std::printf("error: no such user\n");
      return;
    }
    if (!st.sessions.contains(name)) {
      auto session = st.cluster.login(user->uid);
      if (!session) {
        std::printf("login failed\n");
        return;
      }
      st.sessions.emplace(name, *session);
    }
    st.current = name;
    std::printf("logged in as %s\n", name.c_str());
  } else if (cmd == "id") {
    if (auto* s = need_session()) {
      std::fputs(tools::id(st.cluster.users(), s->cred).c_str(), stdout);
    }
  } else if (cmd == "ps") {
    if (auto* s = need_session()) {
      std::fputs(tools::ps_aux(st.cluster.node(s->node).procfs(),
                               st.cluster.users(), s->cred)
                     .c_str(),
                 stdout);
    }
  } else if (cmd == "squeue") {
    if (auto* s = need_session()) {
      std::fputs(tools::squeue(st.cluster.scheduler(), st.cluster.users(),
                               s->cred)
                     .c_str(),
                 stdout);
    }
  } else if (cmd == "sacct") {
    if (auto* s = need_session()) {
      std::fputs(tools::sacct(st.cluster.scheduler(), st.cluster.users(),
                              s->cred)
                     .c_str(),
                 stdout);
    }
  } else if (cmd == "sload") {
    if (auto* s = need_session()) {
      st.cluster.monitor().sample();
      std::fputs(tools::sload(st.cluster.monitor(), st.cluster.users(),
                              s->cred)
                     .c_str(),
                 stdout);
    }
  } else if (cmd == "sinfo") {
    if (auto* s = need_session()) {
      std::fputs(tools::sinfo(st.cluster.scheduler(), st.cluster.users(),
                              s->cred)
                     .c_str(),
                 stdout);
    }
  } else if (cmd == "submit") {
    if (auto* s = need_session()) {
      std::string name;
      long secs = 60;
      unsigned tasks = 1, gpus = 0;
      in >> name >> secs >> tasks >> gpus;
      sched::JobSpec spec;
      spec.name = name.empty() ? "job" : name;
      spec.duration_ns = secs * common::kSecond;
      spec.time_limit_ns = spec.duration_ns * 2;
      spec.num_tasks = tasks ? tasks : 1;
      spec.gpus_per_task = gpus;
      auto id = st.cluster.submit(*s, spec);
      if (id) {
        st.cluster.scheduler().step();
        std::printf("Submitted batch job %llu\n",
                    static_cast<unsigned long long>(id->value()));
      } else {
        std::printf("submit failed: %s\n",
                    std::string(errno_name(id.error())).c_str());
      }
    }
  } else if (cmd == "cancel") {
    if (auto* s = need_session()) {
      unsigned long long id = 0;
      in >> id;
      auto r = st.cluster.scheduler().cancel(s->cred, JobId{id});
      std::printf(r ? "cancelled\n" : "cancel failed: %s\n",
                  r ? "" : std::string(errno_name(r.error())).c_str());
    }
  } else if (cmd == "run") {
    st.cluster.run_jobs();
    std::printf("queue drained; sim time now %.1fs\n",
                st.cluster.clock().now().seconds());
  } else if (cmd == "ls") {
    if (auto* s = need_session()) {
      std::string path;
      in >> path;
      vfs::FileSystem* fs = st.cluster.fs_at(s->node, path);
      if (fs == nullptr) {
        std::printf("ls: no filesystem at '%s'\n", path.c_str());
        return;
      }
      std::fputs(
          tools::ls_l(*fs, st.cluster.users(), s->cred, path).c_str(),
          stdout);
    }
  } else if (cmd == "cat") {
    if (auto* s = need_session()) {
      std::string path;
      in >> path;
      vfs::FileSystem* fs = st.cluster.fs_at(s->node, path);
      if (fs == nullptr) {
        std::printf("cat: no filesystem at '%s'\n", path.c_str());
        return;
      }
      auto content = fs->read_file(s->cred, path);
      if (content) {
        std::printf("%s\n", content->c_str());
      } else {
        std::printf("cat: %s: %s\n", path.c_str(),
                    std::string(errno_message(content.error())).c_str());
      }
    }
  } else if (cmd == "write") {
    if (auto* s = need_session()) {
      std::string path;
      in >> path;
      std::string text;
      std::getline(in, text);
      if (!text.empty() && text.front() == ' ') text.erase(0, 1);
      vfs::FileSystem* fs = st.cluster.fs_at(s->node, path);
      if (fs == nullptr) {
        std::printf("write: no filesystem at '%s'\n", path.c_str());
        return;
      }
      auto r = fs->write_file(s->cred, path, text);
      if (!r) {
        std::printf("write: %s: %s\n", path.c_str(),
                    std::string(errno_message(r.error())).c_str());
      }
    }
  } else if (cmd == "chmod") {
    if (auto* s = need_session()) {
      std::string mode_str, path;
      in >> mode_str >> path;
      const unsigned mode =
          static_cast<unsigned>(std::stoul(mode_str, nullptr, 8));
      vfs::FileSystem* fs = st.cluster.fs_at(s->node, path);
      if (fs == nullptr) return;
      auto r = fs->chmod(s->cred, path, mode);
      if (!r) {
        std::printf("chmod: %s: %s\n", path.c_str(),
                    std::string(errno_message(r.error())).c_str());
      } else {
        std::printf("mode now %s\n",
                    common::mode_string(fs->stat(s->cred, path)->mode)
                        .c_str());
      }
    }
  } else if (cmd == "getfacl") {
    if (auto* s = need_session()) {
      std::string path;
      in >> path;
      vfs::FileSystem* fs = st.cluster.fs_at(s->node, path);
      if (fs == nullptr) return;
      std::fputs(
          tools::getfacl(*fs, st.cluster.users(), s->cred, path).c_str(),
          stdout);
    }
  } else if (cmd == "setfacl-g") {
    if (auto* s = need_session()) {
      std::string group, perm_str, path;
      in >> group >> perm_str >> path;
      const auto g = st.cluster.users().find_group_by_name(group);
      if (!g) {
        std::printf("setfacl: no such group\n");
        return;
      }
      vfs::FileSystem* fs = st.cluster.fs_at(s->node, path);
      if (fs == nullptr) return;
      auto r = fs->acl_set(
          s->cred, path,
          vfs::AclEntry{vfs::AclTag::named_group, Uid{}, g->gid,
                        static_cast<unsigned>(
                            std::stoul(perm_str, nullptr, 8))});
      std::printf(r ? "acl set\n" : "setfacl: %s\n",
                  r ? "" : std::string(errno_message(r.error())).c_str());
    }
  } else if (cmd == "mkproject") {
    if (auto* s = need_session()) {
      std::string name;
      in >> name;
      auto gid = st.cluster.create_project(name, s->cred.uid);
      std::printf(gid ? "project '%s' created, steward %s\n"
                      : "mkproject failed: %s\n",
                  gid ? name.c_str()
                      : std::string(errno_name(gid.error())).c_str(),
                  st.current.c_str());
    }
  } else if (cmd == "addmember") {
    if (auto* s = need_session()) {
      std::string proj, user;
      in >> proj >> user;
      const auto g = st.cluster.users().find_group_by_name(proj);
      const simos::User* u = st.cluster.users().find_user_by_name(user);
      if (!g || u == nullptr) {
        std::printf("addmember: unknown project or user\n");
        return;
      }
      auto r = st.cluster.add_to_project(s->cred.uid, g->gid, u->uid);
      std::printf(r ? "added\n" : "addmember: %s\n",
                  r ? "" : std::string(errno_message(r.error())).c_str());
      // Refresh the member's session credential if they are logged in.
      if (r && st.sessions.contains(user)) {
        st.sessions.at(user).cred =
            *simos::login(st.cluster.users(), u->uid);
      }
    }
  } else if (cmd == "newgrp") {
    if (auto* s = need_session()) {
      std::string group;
      in >> group;
      const auto g = st.cluster.users().find_group_by_name(group);
      if (!g) {
        std::printf("newgrp: no such group\n");
        return;
      }
      auto cred = simos::newgrp(st.cluster.users(), s->cred, g->gid);
      if (cred) {
        s->cred = *cred;
        std::printf("primary group now %s\n", group.c_str());
      } else {
        std::printf("newgrp: %s\n",
                    std::string(errno_message(cred.error())).c_str());
      }
    }
  } else if (cmd == "listen") {
    if (auto* s = need_session()) {
      unsigned port = 0;
      in >> port;
      auto r = st.cluster.network().listen(
          st.cluster.node(s->node).host(), s->cred, s->shell,
          net::Proto::tcp, static_cast<std::uint16_t>(port));
      if (r) {
        std::printf("listening on %u\n", port);
      } else {
        std::printf("listen: %s\n",
                    std::string(errno_message(r.error())).c_str());
      }
    }
  } else if (cmd == "connect") {
    if (auto* s = need_session()) {
      std::string host;
      unsigned port = 0;
      in >> host >> port;
      auto h = st.cluster.network().find_host(host);
      if (!h) {
        std::printf("connect: unknown host\n");
        return;
      }
      auto flow = st.cluster.network().connect(
          st.cluster.node(s->node).host(), s->cred, s->shell, *h,
          net::Proto::tcp, static_cast<std::uint16_t>(port));
      std::printf(flow ? "connected to %s:%u\n" : "connect: refused\n",
                  host.c_str(), port);
      if (flow) (void)st.cluster.network().close(*flow);
    }
  } else if (cmd == "ssh") {
    if (auto* s = need_session()) {
      unsigned node = 0;
      in >> node;
      auto shell = st.cluster.ssh(*s, NodeId{node});
      if (shell) {
        std::printf("connected to %s\n",
                    st.cluster.node(NodeId{node}).hostname().c_str());
        st.cluster.logout(*shell);
      } else {
        std::printf("ssh: access denied (pam_slurm)\n");
      }
    }
  } else if (cmd == "audit") {
    std::string victim_name, observer_name;
    in >> victim_name >> observer_name;
    const simos::User* victim =
        st.cluster.users().find_user_by_name(victim_name);
    const simos::User* observer =
        st.cluster.users().find_user_by_name(observer_name);
    if (victim == nullptr || observer == nullptr) {
      std::printf("audit: usage: audit <victim> <observer>\n");
      return;
    }
    core::LeakageAuditor auditor(&st.cluster);
    auto reports = auditor.audit_pair(victim->uid, observer->uid);
    std::fputs(core::LeakageAuditor::to_markdown(reports).c_str(),
               stdout);
  } else if (cmd == "policy") {
    std::string which;
    in >> which;
    if (which == "hardened") {
      st.cluster.apply_policy(core::SeparationPolicy::hardened());
    } else if (which == "baseline") {
      st.cluster.apply_policy(core::SeparationPolicy::baseline());
    } else {
      std::printf("policy: hardened|baseline\n");
      return;
    }
    std::printf("policy now: %s\n", which.c_str());
  } else if (cmd == "oom") {
    unsigned long long id = 0;
    in >> id;
    auto r = st.cluster.scheduler().inject_oom(JobId{id});
    std::printf(r ? "node crashed\n" : "oom: %s\n",
                r ? "" : std::string(errno_name(r.error())).c_str());
  } else {
    std::printf("unknown command '%s' (try: help)\n", cmd.c_str());
  }
}

}  // namespace

int main() {
  core::ClusterConfig config;
  config.compute_nodes = 4;
  config.login_nodes = 1;
  config.cpus_per_node = 16;
  config.gpus_per_node = 1;
  config.policy = core::SeparationPolicy::hardened();
  ShellState st(std::move(config));

  std::printf("heus cluster shell — 4 compute + 1 login node, policy "
              "hardened. 'help' for commands.\n");
  std::string line;
  while (true) {
    std::printf("%s@heus> ",
                st.current.empty() ? "-" : st.current.c_str());
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    if (line == "exit" || line == "quit") break;
    execute(st, line);
  }
  std::printf("\n");
  return 0;
}
