#include "core/audit.h"

#include <algorithm>

#include "common/strings.h"

namespace heus::core {

using common::strformat;
using simos::Credentials;

std::size_t LeakageAuditor::open_count(
    const std::vector<ChannelReport>& reports) {
  return static_cast<std::size_t>(
      std::count_if(reports.begin(), reports.end(),
                    [](const ChannelReport& r) { return r.open; }));
}

std::size_t LeakageAuditor::unexpected_open_count(
    const std::vector<ChannelReport>& reports) {
  return static_cast<std::size_t>(std::count_if(
      reports.begin(), reports.end(), [](const ChannelReport& r) {
        return r.open && !is_documented_residual(r.kind);
      }));
}

std::string LeakageAuditor::to_markdown(
    const std::vector<ChannelReport>& reports) {
  std::string out =
      "| channel | status | documented residual | detail |\n"
      "|---|---|---|---|\n";
  for (const auto& r : reports) {
    out += strformat("| %s | %s | %s | %s |\n", to_string(r.kind),
                     r.open ? "**OPEN**" : "closed",
                     is_documented_residual(r.kind) ? "yes" : "no",
                     r.detail.c_str());
  }
  out += strformat(
      "\nopen: %zu / %zu (unexpected: %zu)\n", open_count(reports),
      reports.size(), unexpected_open_count(reports));
  return out;
}

namespace {

// ---------------------------------------------------------------------------
// §IV-A processes
// ---------------------------------------------------------------------------

ChannelReport probe_procfs_list(Cluster& c, const Session& vs,
                                const Session& os, NodeId where) {
  ChannelReport rep{ChannelKind::procfs_process_list, false, ""};
  Node& nd = c.node(where);
  for (Pid pid : nd.procfs().list(os.cred)) {
    auto st = nd.procfs().stat(os.cred, pid);
    if (st && st->uid == vs.cred.uid) {
      rep.open = true;
      rep.detail = strformat("victim pid %u listed", pid.value());
      break;
    }
  }
  return rep;
}

ChannelReport probe_procfs_cmdline(Cluster& c, const Session& vs,
                                   const Session& os, NodeId where) {
  ChannelReport rep{ChannelKind::procfs_cmdline, false, ""};
  Node& nd = c.node(where);
  const Pid pid = nd.procs().spawn(
      vs.cred, "python train.py --api-key=AUDIT-PROC-SECRET");
  auto details = nd.procfs().read_details(os.cred, pid);
  if (details && details->cmdline.find("AUDIT-PROC-SECRET") !=
                     std::string::npos) {
    rep.open = true;
    rep.detail = "command line (with embedded secret) readable";
  }
  (void)nd.procs().exit(pid);
  return rep;
}

// ---------------------------------------------------------------------------
// §IV-B scheduler
// ---------------------------------------------------------------------------

ChannelReport probe_scheduler_queue(Cluster& c, const Session& vs,
                                    const Session& os) {
  ChannelReport rep{ChannelKind::scheduler_queue, false, ""};
  sched::JobSpec spec;
  spec.name = "audit-sensitive-jobname";
  spec.command = "./proprietary_sim --input=/proj/secret";
  spec.duration_ns = 3600 * common::kSecond;
  auto job = c.submit(vs, spec);
  if (job) {
    for (const auto& view : c.scheduler().list_jobs(os.cred)) {
      if (view.id == *job) {
        rep.open = true;
        rep.detail = "job name/command visible in squeue";
        break;
      }
    }
    (void)c.scheduler().cancel(vs.cred, *job);
  }
  return rep;
}

ChannelReport probe_scheduler_accounting(Cluster& c, const Session& vs,
                                         const Session& os) {
  ChannelReport rep{ChannelKind::scheduler_accounting, false, ""};
  sched::JobSpec spec;
  spec.name = "audit-acct-job";
  spec.duration_ns = common::kSecond;
  auto job = c.submit(vs, spec);
  if (job) {
    c.run_jobs();
    for (const auto& rec : c.scheduler().accounting(os.cred)) {
      if (rec.id == *job) {
        rep.open = true;
        rep.detail = "victim's sacct record readable";
        break;
      }
    }
  }
  return rep;
}

ChannelReport probe_scheduler_usage(Cluster& c, const Session& vs,
                                    const Session& os) {
  ChannelReport rep{ChannelKind::scheduler_usage, false, ""};
  auto usage = c.scheduler().usage_by_user(os.cred);
  if (usage.contains(vs.cred.uid)) {
    rep.open = true;
    rep.detail = "victim's aggregate usage visible in sreport";
  }
  return rep;
}

ChannelReport probe_ssh_foreign_node(Cluster& c, const Session& vs,
                                     const Session& os) {
  ChannelReport rep{ChannelKind::ssh_foreign_node, false, ""};
  sched::JobSpec spec;
  spec.name = "audit-ssh-probe";
  spec.duration_ns = 3600 * common::kSecond;
  auto job = c.submit(vs, spec);
  if (job) {
    c.scheduler().step();  // dispatch
    const sched::Job* j = c.scheduler().find_job(*job);
    if (j != nullptr && j->state == sched::JobState::running &&
        !j->allocations.empty()) {
      const NodeId target = j->allocations.front().node;
      auto shell = c.ssh(os, target);
      if (shell) {
        rep.open = true;
        rep.detail = strformat("ssh into %s admitted",
                               c.node(target).hostname().c_str());
        c.logout(*shell);
      }
    }
    (void)c.scheduler().cancel(vs.cred, *job);
  }
  return rep;
}

// ---------------------------------------------------------------------------
// §IV-C filesystems
// ---------------------------------------------------------------------------

ChannelReport probe_fs_home(Cluster& c, const Session& vs,
                            const Session& os) {
  ChannelReport rep{ChannelKind::fs_home_read, false, ""};
  const simos::User* vu = c.users().find_user(vs.cred.uid);
  const std::string file = vu->home + "/audit-secret.dat";
  vfs::FileSystem& fs = c.shared_fs();
  const Credentials root = simos::root_credentials();
  const auto home = fs.stat(root, vu->home);
  (void)fs.write_file(vs.cred, file, "HOME-SECRET");
  // The accidental-misconfiguration scenario: the victim tries to open
  // everything up (mis-typed chmod). Under smask + root-owned homes both
  // steps are neutralised.
  (void)fs.chmod(vs.cred, vu->home, 0777);
  (void)fs.chmod(vs.cred, file, 0666);
  auto read = fs.read_file(os.cred, file);
  if (read && read->find("HOME-SECRET") != std::string::npos) {
    rep.open = true;
    rep.detail = "world-chmod'ed home file readable by observer";
  }
  (void)fs.unlink(vs.cred, file);
  if (home) (void)fs.chmod(root, vu->home, home->mode);
  return rep;
}

ChannelReport probe_fs_tmp(Cluster& c, const Session& vs, const Session& os,
                           NodeId where, const char* base,
                           ChannelKind kind) {
  ChannelReport rep{kind, false, ""};
  vfs::FileSystem& fs = c.node(where).local_fs();
  const std::string file =
      strformat("%s/audit-%u.dat", base, vs.cred.uid.value());
  (void)fs.write_file(vs.cred, file, "TMP-SECRET");
  (void)fs.chmod(vs.cred, file, 0666);  // accidental world-readable
  auto read = fs.read_file(os.cred, file);
  if (read && read->find("TMP-SECRET") != std::string::npos) {
    rep.open = true;
    rep.detail = strformat("%s file content readable cross-user", base);
  }
  (void)fs.unlink(vs.cred, file);
  return rep;
}

ChannelReport probe_fs_tmp_names(Cluster& c, const Session& vs,
                                 const Session& os, NodeId where) {
  ChannelReport rep{ChannelKind::fs_tmp_names, false, ""};
  vfs::FileSystem& fs = c.node(where).local_fs();
  const std::string name =
      strformat("audit-projectname-leak-%u", vs.cred.uid.value());
  (void)fs.write_file(vs.cred, std::string("/tmp/") + name, "x");
  auto listing = fs.readdir(os.cred, "/tmp");
  if (listing) {
    for (const auto& e : *listing) {
      if (e.name == name) {
        rep.open = true;
        rep.detail = "file *name* visible in world-writable /tmp "
                     "(documented residual channel)";
        break;
      }
    }
  }
  (void)fs.unlink(vs.cred, std::string("/tmp/") + name);
  return rep;
}

ChannelReport probe_fs_acl_grant(Cluster& c, const Session& vs,
                                 const Session& os) {
  ChannelReport rep{ChannelKind::fs_acl_user_grant, false, ""};
  const Uid observer = os.cred.uid;
  const simos::User* vu = c.users().find_user(vs.cred.uid);
  vfs::FileSystem& fs = c.shared_fs();
  const std::string file = vu->home + "/audit-acl.dat";
  (void)fs.write_file(vs.cred, file, "ACL-SECRET");
  // Direct user-to-user grant, bypassing any approved project group.
  auto grant = fs.acl_set(
      vs.cred, file,
      vfs::AclEntry{vfs::AclTag::named_user, observer, Gid{}, 4});
  // The observer additionally needs traversal into the home directory; a
  // cooperative victim would try to open that too.
  (void)fs.acl_set(
      vs.cred, vu->home,
      vfs::AclEntry{vfs::AclTag::named_user, observer, Gid{}, 5});
  if (grant) {
    auto read = fs.read_file(os.cred, file);
    if (read && read->find("ACL-SECRET") != std::string::npos) {
      rep.open = true;
      rep.detail = "setfacl u:<observer>:r succeeded and file read";
    }
  } else {
    rep.detail = strformat("setfacl rejected (%s)",
                           std::string(errno_name(grant.error())).c_str());
  }
  (void)fs.unlink(vs.cred, file);
  (void)fs.acl_remove(vs.cred, vu->home, vfs::AclTag::named_user, observer,
                      Gid{});
  return rep;
}

// ---------------------------------------------------------------------------
// §IV-D network
// ---------------------------------------------------------------------------

ChannelReport probe_flow(Cluster& c, const Session& vs, const Session& os,
                         net::Proto proto) {
  const bool tcp = proto == net::Proto::tcp;
  ChannelReport rep{
      tcp ? ChannelKind::tcp_cross_user : ChannelKind::udp_cross_user, false,
      ""};
  net::Network& nw = c.network();
  const HostId vhost = c.node(vs.node).host();
  const std::uint16_t port = tcp ? 23456 : 23457;
  (void)nw.listen(vhost, vs.cred, vs.shell, proto, port);
  auto flow = nw.connect(c.node(os.node).host(), os.cred, os.shell,
                         vhost, proto, port);
  if (flow) {
    rep.open = true;
    rep.detail = tcp ? "TCP connection to foreign service established"
                     : "UDP flow to foreign service established";
    (void)nw.close(*flow);
  } else {
    rep.detail = tcp ? "connection dropped" : "flow dropped";
  }
  (void)nw.close_listener(vhost, proto, port);
  return rep;
}

ChannelReport probe_abstract_uds(Cluster& c, const Session& vs,
                                 const Session& os, NodeId where) {
  ChannelReport rep{ChannelKind::abstract_uds, false, ""};
  net::Network& nw = c.network();
  const HostId host = c.node(where).host();
  const std::string name = strformat("@audit-%u", vs.cred.uid.value());
  (void)nw.unix_listen_abstract(host, vs.cred, name);
  auto peer = nw.unix_connect_abstract(host, os.cred, name);
  if (peer && *peer == vs.cred.uid) {
    rep.open = true;
    rep.detail = "abstract unix socket rendezvous succeeded "
                 "(documented residual channel)";
  }
  (void)nw.unix_close_abstract(host, name);
  return rep;
}

ChannelReport probe_rdma_tcp(Cluster& c, const Session& vs,
                             const Session& os) {
  ChannelReport rep{ChannelKind::rdma_tcp_setup, false, ""};
  net::Network& nw = c.network();
  const HostId vhost = c.node(vs.node).host();
  const std::uint16_t port = 24000;
  (void)nw.listen(vhost, vs.cred, vs.shell, net::Proto::tcp, port);
  auto qp = c.rdma().setup_via_tcp(c.node(os.node).host(), os.cred,
                                   os.shell, vhost, port);
  if (qp) {
    rep.open = true;
    rep.detail = "QP established via TCP control channel";
    (void)c.rdma().destroy(*qp);
  } else {
    rep.detail = "QP setup blocked at the TCP control channel";
  }
  (void)nw.close_listener(vhost, net::Proto::tcp, port);
  return rep;
}

ChannelReport probe_rdma_cm(Cluster& c, const Session& vs,
                            const Session& os) {
  ChannelReport rep{ChannelKind::rdma_native_cm, false, ""};
  auto qp = c.rdma().setup_via_cm(c.node(os.node).host(), os.cred,
                                  c.node(vs.node).host(), vs.cred.uid);
  if (qp) {
    rep.open = true;
    rep.detail = "QP established via native IB CM — nothing inspected it "
                 "(documented residual channel)";
    (void)c.rdma().destroy(*qp);
  }
  return rep;
}

// ---------------------------------------------------------------------------
// §IV-E portal
// ---------------------------------------------------------------------------

ChannelReport probe_portal(Cluster& c, const Session& vs,
                           const Session& os) {
  ChannelReport rep{ChannelKind::portal_foreign_app, false, ""};
  sched::JobSpec spec;
  spec.name = "audit-jupyter";
  spec.interactive = true;
  spec.duration_ns = 3600 * common::kSecond;
  auto job = c.submit(vs, spec);
  if (job) {
    c.scheduler().step();
    const sched::Job* j = c.scheduler().find_job(*job);
    if (j != nullptr && j->state == sched::JobState::running) {
      const NodeId jn = j->allocations.front().node;
      auto app = c.portal().register_app(
          vs.cred, Pid{}, *job, c.node(jn).host(), 8888, "jupyter",
          [](const std::string&) { return std::string("NOTEBOOK-TOKEN"); });
      if (app) {
        auto token = c.portal().login(os.cred);
        if (token) {
          auto resp = c.portal().request(*token, *app, "GET / HTTP/1.1");
          if (resp && resp->find("NOTEBOOK-TOKEN") != std::string::npos) {
            rep.open = true;
            rep.detail = "foreign notebook served through the portal";
          } else {
            rep.detail = "portal forwarded hop denied";
          }
          (void)c.portal().logout(*token);
        }
        (void)c.portal().unregister_app(vs.cred, *app);
      }
    }
    (void)c.scheduler().cancel(vs.cred, *job);
  }
  return rep;
}

// ---------------------------------------------------------------------------
// §IV-F accelerators
// ---------------------------------------------------------------------------

ChannelReport probe_gpu_residue(Cluster& c, const Session& vs,
                                const Session& os) {
  ChannelReport rep{ChannelKind::gpu_residue, false, ""};
  if (c.config().gpus_per_node == 0 || c.compute_nodes().empty()) {
    rep.detail = "skipped: cluster has no GPUs";
    return rep;
  }

  // Victim job takes every GPU in the cluster, writes a secret into the
  // first one, and exits; the epilog scrubs (or not) per policy.
  const unsigned total_gpus = c.config().gpus_per_node *
                              static_cast<unsigned>(c.compute_nodes().size());
  sched::JobSpec vspec;
  vspec.name = "audit-gpu-writer";
  vspec.num_tasks = total_gpus;
  vspec.gpus_per_task = 1;
  vspec.mem_mb_per_task = 512;
  vspec.duration_ns = 10 * common::kSecond;
  auto vjob = c.submit(vs, vspec);
  if (vjob) {
    c.scheduler().step();
    const sched::Job* j = c.scheduler().find_job(*vjob);
    if (j != nullptr && j->state == sched::JobState::running) {
      const NodeId jn = j->allocations.front().node;
      Node& nd = c.node(jn);
      const GpuId g = j->allocations.front().gpus.front();
      auto dev = nd.local_fs().open_device(
          vs.cred, Node::gpu_dev_path(g.value()), vfs::Access::write);
      if (dev) {
        (void)nd.gpus().at(g.value()).write(vs.cred.uid, 0,
                                            "GPU-RESIDUE-SECRET");
      }
      // Let the job run out; epilog fires.
      c.run_jobs();

      // Observer takes a GPU job; first-fit hands back the same device.
      sched::JobSpec ospec;
      ospec.name = "audit-gpu-reader";
      ospec.gpus_per_task = 1;
      ospec.mem_mb_per_task = 512;
      ospec.duration_ns = 10 * common::kSecond;
      auto ojob = c.submit(os, ospec);
      if (ojob) {
        c.scheduler().step();
        const sched::Job* oj = c.scheduler().find_job(*ojob);
        if (oj != nullptr && oj->state == sched::JobState::running) {
          const NodeId on = oj->allocations.front().node;
          Node& ond = c.node(on);
          const GpuId og = oj->allocations.front().gpus.front();
          auto odev = ond.local_fs().open_device(
              os.cred, Node::gpu_dev_path(og.value()), vfs::Access::read);
          if (odev) {
            auto mem = ond.gpus().at(og.value()).read(os.cred.uid, 0, 64);
            if (mem &&
                mem->find("GPU-RESIDUE-SECRET") != std::string::npos) {
              rep.open = true;
              rep.detail = "previous tenant's GPU memory readable";
            } else {
              rep.detail = "device memory scrubbed before reassignment";
            }
          } else {
            rep.detail = "device node not openable";
          }
        }
        c.run_jobs();
      }
      // Without an epilog scrub the secret is still resident. Clear it
      // off the books: no Decision, and the returned cost is not charged
      // to the clock.
      gpu::GpuDevice& written = nd.gpus().at(g.value());
      if (written.dirty()) (void)written.scrub();
    }
  }
  return rep;
}

}  // namespace

std::vector<ChannelReport> LeakageAuditor::audit_pair(Uid victim,
                                                      Uid observer) {
  std::vector<ChannelReport> out;
  for (const ChannelKind kind : kAllChannels) {
    auto vs = cluster_->login(victim);
    auto os = cluster_->login(observer);
    if (vs && os) {
      out.push_back(probe(kind, *vs, *os, vs->node));
    } else {
      out.push_back({kind, false, "login failed"});
    }
    if (vs) cluster_->logout(*vs);
    if (os) cluster_->logout(*os);
  }
  return out;
}

ChannelReport LeakageAuditor::probe(ChannelKind kind, const Session& victim,
                                    const Session& observer, NodeId where) {
  Cluster& c = *cluster_;
  switch (kind) {
    case ChannelKind::procfs_process_list:
      return probe_procfs_list(c, victim, observer, where);
    case ChannelKind::procfs_cmdline:
      return probe_procfs_cmdline(c, victim, observer, where);
    case ChannelKind::scheduler_queue:
      return probe_scheduler_queue(c, victim, observer);
    case ChannelKind::scheduler_accounting:
      return probe_scheduler_accounting(c, victim, observer);
    case ChannelKind::scheduler_usage:
      return probe_scheduler_usage(c, victim, observer);
    case ChannelKind::ssh_foreign_node:
      return probe_ssh_foreign_node(c, victim, observer);
    case ChannelKind::fs_home_read:
      return probe_fs_home(c, victim, observer);
    case ChannelKind::fs_tmp_content:
      return probe_fs_tmp(c, victim, observer, where, "/tmp", kind);
    case ChannelKind::fs_tmp_names:
      return probe_fs_tmp_names(c, victim, observer, where);
    case ChannelKind::fs_devshm_content:
      return probe_fs_tmp(c, victim, observer, where, "/dev/shm", kind);
    case ChannelKind::fs_acl_user_grant:
      return probe_fs_acl_grant(c, victim, observer);
    case ChannelKind::tcp_cross_user:
      return probe_flow(c, victim, observer, net::Proto::tcp);
    case ChannelKind::udp_cross_user:
      return probe_flow(c, victim, observer, net::Proto::udp);
    case ChannelKind::abstract_uds:
      return probe_abstract_uds(c, victim, observer, where);
    case ChannelKind::rdma_tcp_setup:
      return probe_rdma_tcp(c, victim, observer);
    case ChannelKind::rdma_native_cm:
      return probe_rdma_cm(c, victim, observer);
    case ChannelKind::portal_foreign_app:
      return probe_portal(c, victim, observer);
    case ChannelKind::gpu_residue:
      return probe_gpu_residue(c, victim, observer);
  }
  return {kind, false, "no probe"};
}

// ---------------------------------------------------------------------------
// Blast radius (§V)
// ---------------------------------------------------------------------------

BlastRadius LeakageAuditor::blast_radius(Uid attacker,
                                         const std::vector<Uid>& victims) {
  BlastRadius out;
  out.victims_total = victims.size();

  net::Network& nw = cluster_->network();
  struct VictimAssets {
    Session session;
    std::uint16_t port;
    std::string tmp_file;
    std::string home_file;
    std::optional<JobId> job;
  };
  std::vector<VictimAssets> assets;

  // Population setup: every victim runs a service, owns files, has a job.
  std::uint16_t next_port = 40000;
  for (Uid v : victims) {
    auto session = cluster_->login(v);
    if (!session) continue;
    VictimAssets a{*session, next_port++, "", "", std::nullopt};
    const HostId host = cluster_->node(a.session.node).host();
    (void)nw.listen(host, a.session.cred, a.session.shell, net::Proto::tcp,
                    a.port);
    vfs::FileSystem& lfs = cluster_->node(a.session.node).local_fs();
    a.tmp_file = strformat("/tmp/victim-%u.dat", v.value());
    (void)lfs.write_file(a.session.cred, a.tmp_file, "victim-data");
    (void)lfs.chmod(a.session.cred, a.tmp_file, 0666);
    const simos::User* vu = cluster_->users().find_user(v);
    a.home_file = vu->home + "/results.csv";
    (void)cluster_->shared_fs().write_file(a.session.cred, a.home_file,
                                           "victim-results");
    sched::JobSpec spec;
    spec.name = strformat("victim-%u-job", v.value());
    spec.duration_ns = 3600 * common::kSecond;
    auto job = cluster_->submit(a.session, spec);
    if (job) a.job = *job;
    assets.push_back(std::move(a));
  }
  cluster_->scheduler().step();

  // The misbehaving/malicious code, running as `attacker`.
  auto as = cluster_->login(attacker);
  if (as) {
    Node& login_node = cluster_->node(as->node);
    // Observe processes.
    std::set<Uid> seen_proc_users;
    for (const auto& d : login_node.procfs().snapshot(as->cred)) {
      if (d.uid != attacker && d.uid != kRootUid) {
        seen_proc_users.insert(d.uid);
      }
    }
    out.processes_observed = seen_proc_users.size();

    // Observe the queue.
    std::set<Uid> seen_job_users;
    for (const auto& view : cluster_->scheduler().list_jobs(as->cred)) {
      if (view.user != attacker) seen_job_users.insert(view.user);
    }
    out.jobs_observed = seen_job_users.size();

    for (const auto& a : assets) {
      // Read files.
      vfs::FileSystem& lfs = cluster_->node(a.session.node).local_fs();
      if (lfs.read_file(as->cred, a.tmp_file)) ++out.files_read;
      if (cluster_->shared_fs().read_file(as->cred, a.home_file)) {
        ++out.files_read;
      }
      // Reach services.
      const HostId vhost = cluster_->node(a.session.node).host();
      auto flow = nw.connect(login_node.host(), as->cred, as->shell, vhost,
                             net::Proto::tcp, a.port);
      if (flow) {
        ++out.services_reached;
        (void)nw.close(*flow);
      }
      // Port-collision crosstalk: the attacker binds the victim's port
      // number on another host; a confused victim client connecting there
      // (mis-typed hostname) reaches the attacker unless the UBF drops it.
      const HostId squat_host =
          cluster_->node(cluster_->compute_nodes().front()).host();
      if (nw.listen(squat_host, as->cred, as->shell, net::Proto::tcp,
                    a.port)) {
        auto misdirected =
            nw.connect(vhost, a.session.cred, a.session.shell, squat_host,
                       net::Proto::tcp, a.port);
        if (misdirected) {
          ++out.port_collisions_won;
          (void)nw.close(*misdirected);
        }
        (void)nw.close_listener(squat_host, net::Proto::tcp, a.port);
      }
    }
    cluster_->logout(*as);
  }

  // Teardown.
  for (auto& a : assets) {
    const HostId host = cluster_->node(a.session.node).host();
    (void)nw.close_listener(host, net::Proto::tcp, a.port);
    vfs::FileSystem& lfs = cluster_->node(a.session.node).local_fs();
    (void)lfs.unlink(a.session.cred, a.tmp_file);
    (void)cluster_->shared_fs().unlink(a.session.cred, a.home_file);
    if (a.job) (void)cluster_->scheduler().cancel(a.session.cred, *a.job);
    cluster_->logout(a.session);
  }
  return out;
}

}  // namespace heus::core
