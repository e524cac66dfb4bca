#include "core/cluster.h"

#include <stdexcept>
#include <string>

#include "common/strings.h"

namespace heus::core {

using simos::Credentials;
using simos::root_credentials;

std::string Node::gpu_dev_path(std::uint32_t index) {
  return common::strformat("/dev/nvidia%u", index);
}

Node::Node(NodeId id, std::string hostname, HostId host,
           const simos::UserDb* users, common::SimClock* clock,
           unsigned gpus, std::size_t gpu_mem_bytes,
           vfs::FsPolicy fs_policy, vfs::FileSystem* shared_fs)
    : id_(id),
      hostname_(std::move(hostname)),
      host_(host),
      procs_(clock),
      procfs_(&procs_, simos::ProcMountOptions{}),
      local_fs_("local:" + hostname_, users, clock, fs_policy),
      gpus_(gpus, gpu_mem_bytes) {
  // Stock node-local namespace. All created by root at "boot".
  const Credentials root = root_credentials();
  (void)local_fs_.mkdir(root, "/tmp", 01777);
  (void)local_fs_.chmod(root, "/tmp", 01777);  // bypass root's umask
  (void)local_fs_.mkdir(root, "/dev", 0755);
  (void)local_fs_.mkdir(root, "/dev/shm", 01777);
  (void)local_fs_.chmod(root, "/dev/shm", 01777);
  (void)local_fs_.mkdir(root, "/scratch", 01777);
  (void)local_fs_.chmod(root, "/scratch", 01777);
  for (std::uint32_t g = 0; g < gpus; ++g) {
    (void)local_fs_.mknod_chardev(root, gpu_dev_path(g), 0666,
                                  vfs::DeviceRef{"nvidia", g});
  }
  mounts_.mount("/", &local_fs_);
  mounts_.mount("/home", shared_fs);
  mounts_.mount("/proj", shared_fs);
}

Cluster::Cluster(ClusterConfig config)
    : config_(std::move(config)), policy_(config_.policy) {
  trace_.set_clock(&clock_);
  network_ = std::make_unique<net::Network>(&clock_);
  network_->set_trace(&trace_);
  shared_fs_ = std::make_unique<vfs::FileSystem>("lustre:shared", &users_,
                                                 &clock_, policy_.fs);
  shared_fs_->set_trace(&trace_);
  const Credentials root = root_credentials();
  (void)shared_fs_->mkdir(root, "/home", 0755);
  (void)shared_fs_->mkdir(root, "/proj", 0755);

  // The hidepid-exempt supplemental group that seepid hands out.
  auto exempt = users_.create_system_group("proc-exempt");
  if (!exempt) {
    throw std::logic_error("cluster: cannot create the proc-exempt group");
  }
  seepid_group_ = *exempt;
  seepid_ = std::make_unique<simos::SeepidService>(seepid_group_);

  // Nodes. Scheduler NodeIds must equal nodes_ vector indices; both are
  // assigned sequentially in the same order.
  sched::SchedulerConfig sched_cfg;
  sched_cfg.policy = policy_.sharing;
  sched_cfg.private_data = policy_.private_data;
  scheduler_ = std::make_unique<sched::Scheduler>(&clock_, sched_cfg);
  scheduler_->set_trace(&trace_);

  auto make_node = [&](const std::string& hostname, sched::NodeClass cls,
                       unsigned gpus, const std::string& partition) {
    const HostId host = network_->add_host(hostname);
    const NodeId id{static_cast<std::uint32_t>(nodes_.size())};
    nodes_.push_back(std::make_unique<Node>(
        id, hostname, host, &users_, &clock_, gpus, config_.gpu_mem_bytes,
        policy_.fs, shared_fs_.get()));
    nodes_.back()->procfs().set_trace(&trace_);
    nodes_.back()->local_fs().set_trace(&trace_);
    sched::NodeInfo info;
    info.hostname = hostname;
    info.host = host;
    info.node_class = cls;
    info.partition = partition;
    info.cpus = config_.cpus_per_node;
    info.mem_mb = config_.mem_mb_per_node;
    info.gpus = gpus;
    if (scheduler_->add_node(info) != id) {
      throw std::logic_error("cluster: scheduler node id " +
                             std::to_string(id.value()) +
                             " is out of step with the node table");
    }
    return id;
  };

  for (unsigned i = 0; i < config_.compute_nodes; ++i) {
    compute_nodes_.push_back(make_node(
        common::strformat("compute-%u", i), sched::NodeClass::compute,
        config_.gpus_per_node, config_.partition));
  }
  for (unsigned i = 0; i < config_.login_nodes; ++i) {
    login_nodes_.push_back(make_node(common::strformat("login-%u", i),
                                     sched::NodeClass::login, 0,
                                     config_.partition));
  }
  for (unsigned i = 0; i < config_.debug_nodes; ++i) {
    debug_nodes_.push_back(make_node(common::strformat("debug-%u", i),
                                     sched::NodeClass::compute, 0,
                                     "debug"));
  }
  // The debug partition stays multi-user regardless of the cluster-wide
  // sharing policy (paper §IV-B).
  scheduler_->set_partition_policy("debug", sched::SharingPolicy::shared);

  rdma_ = std::make_unique<net::RdmaManager>(network_.get());
  rdma_->set_trace(&trace_);

  pam_ = std::make_unique<simos::PamSlurm>([this](Uid uid, NodeId n) {
    return scheduler_->user_has_job_on(uid, n);
  });
  pam_->set_trace(&trace_);
  for (NodeId n : login_nodes_) pam_->add_login_node(n);

  portal_host_ = network_->add_host("portal");
  portal_ = std::make_unique<portal::Gateway>(
      network_.get(), portal_host_, &users_, [this](Uid uid, HostId host) {
        for (const auto& n : nodes_) {
          if (n->host() == host) {
            return scheduler_->user_has_job_on(uid, n->id());
          }
        }
        return false;
      });
  portal_->set_trace(&trace_);

  monitor_ = std::make_unique<monitor::Monitor>(
      scheduler_.get(), &clock_, [this](const simos::Credentials& cred) {
        // Staff = the hidepid-exempt group seepid hands out (§IV-A).
        return cred.in_group(seepid_group_);
      });

  containers_.set_trace(&trace_);

  wire_prolog_epilog();
  apply_policy(policy_);
}

void Cluster::wire_prolog_epilog() {
  scheduler_->set_prolog([this](const sched::JobNodeContext& ctx)
                             -> Result<void> {
    // Fault injection: the prolog script fails before doing any work (the
    // scheduler rolls back and drains the node).
    if (fault_hooks_.prolog_fails && fault_hooks_.prolog_fails(ctx.node)) {
      return Errno::eio;
    }
    Node& nd = node(ctx.node);
    const Credentials root = root_credentials();

    // Bind gres GPUs: driver-level assignment plus, under the hardened
    // policy, /dev permission narrowing to the user's private group.
    for (GpuId g : ctx.gpus) {
      (void)nd.gpus().at(g.value()).assign(ctx.user);
      const std::string dev = Node::gpu_dev_path(g.value());
      if (policy_.gpu_dev_binding) {
        const simos::User* u = users_.find_user(ctx.user);
        (void)nd.local_fs().chown(root, dev, kRootUid);
        (void)nd.local_fs().chgrp(root, dev, u->private_group);
        (void)nd.local_fs().chmod(root, dev, 0660);
      }
    }

    // Materialise the job's tasks as processes so procfs/ident see them.
    auto cred = simos::login(users_, ctx.user);
    if (cred) {
      const sched::Job* job = scheduler_->find_job(ctx.job);
      simos::SpawnOptions opts;
      opts.job = ctx.job;
      opts.cwd = job->spec.working_dir.empty() ? "/" : job->spec.working_dir;
      const std::string cmd =
          job->spec.command.empty()
              ? common::strformat("slurm_task jobid=%llu",
                                  static_cast<unsigned long long>(
                                      ctx.job.value()))
              : job->spec.command;
      nd.procs().spawn(*cred, cmd, opts);
    }
    return ok_result();
  });

  scheduler_->set_epilog([this](const sched::JobNodeContext& ctx)
                             -> Result<void> {
    // Fault injection: the epilog script fails up front — nothing is
    // cleaned, and the scheduler holds the node in maintenance until a
    // later retry of this whole (idempotent) epilog succeeds. Residue
    // never meets the next tenant.
    if (fault_hooks_.epilog_fails && fault_hooks_.epilog_fails(ctx.node)) {
      return Errno::eio;
    }
    Node& nd = node(ctx.node);

    // Reap this job's task processes.
    for (Pid pid : nd.procs().pids_of(ctx.user)) {
      const simos::Process* p = nd.procs().find(pid);
      if (p != nullptr && p->job == ctx.job) (void)nd.procs().exit(pid);
    }

    // GPU teardown: optional scrub (charged to the simulated clock, since
    // the epilog really does take this long), release, and /dev reset. A
    // failed scrub leaves the device assigned and dirty — the epilog as a
    // whole fails, keeping the node in maintenance with the /dev node
    // still narrowed to the departing user's group.
    bool gpus_ok = true;
    for (GpuId g : ctx.gpus) {
      gpu::GpuDevice& dev = nd.gpus().at(g.value());
      if (fault_hooks_.scrub_fails &&
          fault_hooks_.scrub_fails(ctx.node, g)) {
        dev.note_scrub_failure();
        gpus_ok = false;
        continue;
      }
      if (dev.dirty()) {
        // The separation verdict on the residue itself: a scrub destroys
        // the channel (deny), a skipped scrub hands it to the next tenant
        // (allow).
        trace_.record(
            obs::DecisionPoint::gpu_scrub,
            policy_.gpu_epilog_scrub ? obs::Outcome::deny
                                     : obs::Outcome::allow,
            ctx.user, Gid{}, dev.residue_owner().value_or(Uid{}),
            obs::ChannelKind::gpu_residue,
            policy_.gpu_epilog_scrub ? obs::knob::gpu_epilog_scrub : nullptr,
            [&](std::string& out) {
              out += Node::gpu_dev_path(g.value());
              out += " residue";
            });
      }
      if (policy_.gpu_epilog_scrub) {
        clock_.advance(dev.scrub());
      }
      (void)dev.release();
      set_gpu_dev_mode_unassigned(nd, g.value());
    }
    if (!gpus_ok) return Errno::eio;

    // If this was the user's last job on the node, clean up any lingering
    // processes (ssh sessions adopted by pam_slurm included).
    bool user_has_other_job = false;
    for (JobId other : scheduler_->jobs_on(ctx.node)) {
      if (other == ctx.job) continue;
      const sched::Job* j = scheduler_->find_job(other);
      if (j != nullptr && j->user == ctx.user) {
        user_has_other_job = true;
        break;
      }
    }
    if (!user_has_other_job) {
      nd.procs().kill_all_of(ctx.user);
      // Their sockets die with their processes (the kernel would close
      // them as the epilog reaps).
      (void)network_->close_sockets_of(nd.host(), ctx.user);
    }
    return ok_result();
  });

  scheduler_->set_node_crash_hook([this](NodeId n) {
    Node& nd = node(n);
    // Power loss: every process on the node is gone and volatile device
    // memory is cleared; /dev entries return to the unassigned posture
    // when the node reboots. Every socket touching the host resets.
    (void)network_->reset_host(nd.host());
    nd.procs().clear();
    for (std::uint32_t g = 0; g < nd.gpus().size(); ++g) {
      gpu::GpuDevice& dev = nd.gpus().at(g);
      if (dev.assigned_to()) (void)dev.release();
      (void)dev.scrub();
      set_gpu_dev_mode_unassigned(nd, g);
    }
  });
}

void Cluster::set_gpu_dev_mode_unassigned(Node& nd, std::uint32_t index) {
  const Credentials root = root_credentials();
  const std::string dev = Node::gpu_dev_path(index);
  if (policy_.gpu_dev_binding) {
    // Unassigned GPUs are not usable (or visible as devices) at all.
    (void)nd.local_fs().chown(root, dev, kRootUid);
    (void)nd.local_fs().chgrp(root, dev, kRootGid);
    (void)nd.local_fs().chmod(root, dev, 0600);
  } else {
    // Stock driver install: world read/write device nodes.
    (void)nd.local_fs().chmod(root, dev, 0666);
  }
}

void Cluster::apply_policy(const SeparationPolicy& policy) {
  policy_ = policy;

  simos::ProcMountOptions proc_opts;
  proc_opts.hidepid = policy.hidepid;
  if (policy.hidepid_gid_exemption) proc_opts.exempt_gid = seepid_group_;

  for (auto& nd : nodes_) {
    nd->procfs().remount(proc_opts);
    nd->local_fs().set_policy(policy.fs);
    for (std::uint32_t g = 0; g < nd->gpus().size(); ++g) {
      if (!nd->gpus().at(g).assigned_to()) {
        set_gpu_dev_mode_unassigned(*nd, g);
      }
    }
  }
  shared_fs_->set_policy(policy.fs);

  scheduler_->set_policy(policy.sharing);
  scheduler_->set_partition_policy("debug", sched::SharingPolicy::shared);
  scheduler_->set_private_data(policy.private_data);
  pam_->set_enabled(policy.pam_slurm);

  ubf_ = std::make_unique<net::Ubf>(
      &users_, network_.get(),
      net::UbfOptions{1024, policy.ubf_group_peers});
  ubf_->set_clock(&clock_);
  ubf_->set_trace(&trace_);
  ubf_->set_degraded_mode(ubf_degraded_, ubf_backoff_);
  if (policy.ubf) {
    ubf_->attach();
  } else {
    network_->clear_hook();
  }
}

void Cluster::set_ubf_degraded(net::UbfDegradedMode mode,
                               common::BackoffPolicy backoff) {
  ubf_degraded_ = mode;
  ubf_backoff_ = backoff;
  ubf_->set_degraded_mode(mode, backoff);
}

Result<Uid> Cluster::add_user(const std::string& name) {
  auto uid = users_.create_user(name);
  if (!uid) return uid;
  const simos::User* user = users_.find_user(*uid);
  const Credentials root = root_credentials();
  if (auto r = shared_fs_->mkdir(root, user->home, 0700); !r) {
    return r.error();
  }
  if (policy_.root_owned_homes) {
    // Paper §IV-C: homes owned by root, group-owned by the UPG, 0770 —
    // the user works through the group bits and cannot chmod the top
    // level of their own home open.
    (void)shared_fs_->chgrp(root, user->home, user->private_group);
    (void)shared_fs_->chmod(root, user->home, 0770);
  } else {
    (void)shared_fs_->chown(root, user->home, *uid);
    (void)shared_fs_->chgrp(root, user->home, user->private_group);
    (void)shared_fs_->chmod(root, user->home, 0755);
  }
  return uid;
}

Result<Gid> Cluster::create_project(const std::string& name, Uid steward) {
  auto gid = users_.create_project_group(name, steward);
  if (!gid) return gid;
  const Credentials root = root_credentials();
  const std::string dir = "/proj/" + name;
  if (auto r = shared_fs_->mkdir(root, dir, 0770); !r) return r.error();
  (void)shared_fs_->chgrp(root, dir, *gid);
  (void)shared_fs_->chmod(root, dir, 02770);  // setgid keeps files in-group
  return gid;
}

Result<void> Cluster::add_to_project(Uid steward, Gid project, Uid member) {
  return users_.add_member(steward, project, member);
}

Result<Session> Cluster::login(Uid uid) {
  if (login_nodes_.empty()) return Errno::enodev;
  auto cred = simos::login(users_, uid);
  if (!cred) return cred.error();
  const NodeId n = login_nodes_.front();
  const Pid shell = node(n).procs().spawn(*cred, "-bash");
  return Session{*cred, n, shell};
}

Result<Session> Cluster::ssh(const Session& from, NodeId target) {
  if (target.value() >= nodes_.size()) return Errno::ehostunreach;
  if (auto r = pam_->authorize_ssh(from.cred, target); !r) return r.error();
  const Pid shell = node(target).procs().spawn(from.cred, "sshd: -bash");
  return Session{from.cred, target, shell};
}

void Cluster::logout(Session& session) {
  (void)node(session.node).procs().exit(session.shell);
  session.shell = Pid{};
}

Result<JobId> Cluster::submit(const Session& session, sched::JobSpec spec) {
  return scheduler_->submit(session.cred, std::move(spec));
}

vfs::FileSystem* Cluster::fs_at(NodeId n, const std::string& path) {
  if (n.value() >= nodes_.size()) return nullptr;
  return node(n).mounts().lookup(path);
}

}  // namespace heus::core
