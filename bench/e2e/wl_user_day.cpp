// user_day: scripted user sessions against one hardened core::Cluster.
//
// 128 compute nodes (1 GPU each), 2 login and 4 debug nodes; 2,048 users
// in 256 projects; single-threaded and unsharded, with the cluster's
// decision trace enabled. Each visit logs in, inspects /proc, works in its
// home, its project directory and /tmp, probes other users' data, runs a
// GPU job it ssh-es into, serves a web app through the portal (to itself
// and to a project peer or a stranger), runs a container, and lets the
// epilog scrub the GPU. This is the only workload that reaches simos, vfs,
// portal, gpu and container end to end, and its trace is uncontended.
//
// Every step states its expected outcome: own data succeeds, foreign data
// is refused with the errno the hardened policy prescribes.
#include <memory>
#include <string>
#include <vector>

#include "container/runtime.h"
#include "core/cluster.h"
#include "core/policy.h"
#include "obs/decision.h"
#include "simos/credentials.h"
#include "workloads.h"

namespace heus::e2e {
namespace {

using common::kSecond;

enum Kind : std::size_t {
  kLogin, kSsh, kLogout, kProcList, kProcStat, kWrite, kRead, kChmod, kStat,
  kAclSet, kSubmit, kStep, kOpenDevice, kGpuWrite, kRegisterApp,
  kPortalLogin, kRequest, kPortalLogout, kUnregisterApp, kExec, kStop,
};
constexpr OpKind kKinds[] = {
    {"core.login", Layer::core},
    {"core.ssh", Layer::core},
    {"core.logout", Layer::core},
    {"simos.procfs_list", Layer::simos},
    {"simos.procfs_stat", Layer::simos},
    {"vfs.write", Layer::vfs},
    {"vfs.read", Layer::vfs},
    {"vfs.chmod", Layer::vfs},
    {"vfs.stat", Layer::vfs},
    {"vfs.acl_set", Layer::vfs},
    {"sched.submit", Layer::sched},
    {"sched.step", Layer::sched},
    {"gpu.open_device", Layer::gpu},
    {"gpu.write", Layer::gpu},
    {"portal.register_app", Layer::portal},
    {"portal.login", Layer::portal},
    {"portal.request", Layer::portal},
    {"portal.logout", Layer::portal},
    {"portal.unregister_app", Layer::portal},
    {"container.exec", Layer::container},
    {"container.stop", Layer::container},
};

struct Sizes {
  unsigned compute;
  std::uint32_t users;
  std::uint32_t visits;     ///< per episode
  std::uint32_t residents;  ///< users logged in for the whole episode
  std::size_t episodes;     ///< measured phase
};

Sizes sizes(bool smoke) {
  if (smoke) return {8, 128, 48, 4, 2};
  return {128, 2048, 2048, 32, 45};
}

constexpr std::uint32_t kProjectSize = 8;
constexpr std::uint16_t kAppPort = 8000;
constexpr std::int64_t kJobNs = 600 * kSecond;

struct Visit {
  std::uint32_t user = 0;
  std::uint32_t stranger = 0;    ///< different user, different project
  std::uint32_t resident = 0;    ///< a resident other than `user`
  std::uint32_t portal_guest = 0;
  bool guest_allowed = false;    ///< the oracle's portal verdict
  std::uint32_t node = 0;        ///< compute node probed without a job
};

class UserDay final : public Workload {
 public:
  UserDay(bool smoke, std::uint64_t seed) : sz_(sizes(smoke)), seed_(seed) {
    for (std::uint32_t u = 0; u < sz_.users; ++u) {
      const std::string name = "user" + std::to_string(u);
      notes_.push_back("/home/" + name + "/notes");
      proj_files_.push_back("/proj/proj" + std::to_string(u / kProjectSize) +
                            "/" + name + ".dat");
      tmp_files_.push_back("/tmp/" + name);
    }
    for (std::uint32_t p = 0; p < sz_.users / kProjectSize; ++p) {
      readmes_.push_back("/proj/proj" + std::to_string(p) + "/readme");
    }
  }

  [[nodiscard]] std::span<const OpKind> kinds() const override {
    return kKinds;
  }
  [[nodiscard]] std::size_t lanes() const override { return 1; }
  [[nodiscard]] bool engine() const override { return false; }
  [[nodiscard]] std::size_t episodes() const override { return sz_.episodes; }
  [[nodiscard]] std::uint64_t setup_failures() const override {
    return setup_failures_;
  }

  void generate() override;
  void setup() override;
  void reset() override { setup(); }
  void run(Episode& ep) override;
  void finish(std::map<std::string, double>& c) const override;

 private:
  void visit(const Visit& v, Recorder& lane);
  void attach_trace(obs::DecisionTrace* trace);

  const Sizes sz_;
  const std::uint64_t seed_;
  std::vector<std::string> notes_, proj_files_, tmp_files_, readmes_;
  std::vector<Visit> visits_;

  std::unique_ptr<core::Cluster> cluster_;
  std::vector<Uid> uids_;
  std::vector<Gid> projects_;
  std::vector<simos::Credentials> creds_;
  std::vector<simos::Credentials> app_creds_;  ///< newgrp'd for even users
  std::vector<Pid> resident_shells_;
  std::unique_ptr<container::Image> image_;
  std::uint64_t setup_failures_ = 0;
};

void UserDay::generate() {
  Gen gen(seed_, 3);
  std::vector<std::uint32_t> order(sz_.users);
  for (std::uint32_t u = 0; u < sz_.users; ++u) order[u] = u;
  for (std::uint32_t i = sz_.users - 1; i > 0; --i) {
    std::swap(order[i], order[gen.below(i + 1)]);
  }
  const std::uint32_t projects = sz_.users / kProjectSize;
  for (std::uint32_t n = 0; n < sz_.visits; ++n) {
    Visit v;
    v.user = order[n % sz_.users];
    const std::uint32_t p = v.user / kProjectSize;
    const auto other_project =
        (p + 1 + static_cast<std::uint32_t>(gen.below(projects - 1))) %
        projects;
    v.stranger = other_project * kProjectSize +
                 static_cast<std::uint32_t>(gen.below(kProjectSize));
    do {
      v.resident = static_cast<std::uint32_t>(gen.below(sz_.residents));
    } while (v.resident == v.user);
    if (gen.chance(0.5)) {
      do {
        v.portal_guest = p * kProjectSize +
                         static_cast<std::uint32_t>(gen.below(kProjectSize));
      } while (v.portal_guest == v.user);
      // Even users serve their app under the project group (newgrp), so
      // the UBF admits project peers; odd users' apps are private.
      v.guest_allowed = v.user % 2 == 0;
    } else {
      v.portal_guest = v.stranger;
    }
    v.node = static_cast<std::uint32_t>(gen.below(sz_.compute));
    visits_.push_back(v);
  }
}

void UserDay::setup() {
  cluster_.reset();
  core::ClusterConfig cfg;
  cfg.compute_nodes = sz_.compute;
  cfg.login_nodes = 2;
  cfg.debug_nodes = 4;
  cfg.cpus_per_node = 16;
  cfg.gpus_per_node = 1;
  cfg.policy = core::SeparationPolicy::hardened();
  cluster_ = std::make_unique<core::Cluster>(cfg);
  core::Cluster& c = *cluster_;
  const auto check = [this](bool ok) {
    if (!ok) ++setup_failures_;
  };

  uids_.clear();
  for (std::uint32_t u = 0; u < sz_.users; ++u) {
    auto uid = c.add_user("user" + std::to_string(u));
    check(uid.ok());
    uids_.push_back(uid ? *uid : Uid{});
  }
  projects_.clear();
  for (std::uint32_t p = 0; p < sz_.users / kProjectSize; ++p) {
    const Uid steward = uids_[p * kProjectSize];
    auto gid = c.create_project("proj" + std::to_string(p), steward);
    check(gid.ok());
    projects_.push_back(gid ? *gid : Gid{});
    for (std::uint32_t m = 1; m < kProjectSize; ++m) {
      check(c.add_to_project(steward, projects_[p], uids_[p * kProjectSize + m])
                .ok());
    }
  }
  creds_.clear();
  app_creds_.clear();
  for (std::uint32_t u = 0; u < sz_.users; ++u) {
    auto cred = simos::login(c.users(), uids_[u]);
    check(cred.ok());
    creds_.push_back(cred ? *cred : simos::Credentials{});
    auto app = simos::newgrp(c.users(), creds_[u], projects_[u / kProjectSize]);
    check(app.ok());
    app_creds_.push_back(app && u % 2 == 0 ? *app : creds_[u]);
    if (u % 2 == 0) c.containers().grant(uids_[u]);
  }
  for (std::uint32_t p = 0; p < projects_.size(); ++p) {
    check(c.shared_fs()
              .write_file(creds_[p * kProjectSize], readmes_[p], "readme")
              .ok());
  }
  const NodeId login = c.login_nodes().front();
  resident_shells_.clear();
  for (std::uint32_t r = 0; r < sz_.residents; ++r) {
    auto s = c.login(uids_[r]);
    check(s.ok());
    resident_shells_.push_back(s ? s->shell : Pid{});
    check(c.node(login).local_fs().write_file(creds_[r], tmp_files_[r], "r").ok());
  }
  image_ = std::make_unique<container::Image>(
      "sci", std::map<std::string, std::string>{{"/app/run", "bin"}});
}

void UserDay::attach_trace(obs::DecisionTrace* trace) {
  core::Cluster& c = *cluster_;
  c.network().set_trace(trace);
  c.ubf().set_trace(trace);
  c.rdma().set_trace(trace);
  c.shared_fs().set_trace(trace);
  c.scheduler().set_trace(trace);
  c.pam().set_trace(trace);
  c.portal().set_trace(trace);
  c.containers().set_trace(trace);
  for (std::size_t n = 0; n < c.node_count(); ++n) {
    core::Node& node = c.node(NodeId{static_cast<std::uint32_t>(n)});
    node.procfs().set_trace(trace);
    node.local_fs().set_trace(trace);
  }
}

void UserDay::visit(const Visit& v, Recorder& lane) {
  core::Cluster& c = *cluster_;
  const Uid uid = uids_[v.user];
  const simos::Credentials& cred = creds_[v.user];
  const simos::Credentials& stranger = creds_[v.stranger];
  const NodeId login = c.login_nodes().front();
  const auto expect = [&lane](bool ok) {
    if (!ok) lane.fail();
  };
  const auto refused = [&lane](const auto& r, Errno e) {
    if (r || r.error() != e) lane.fail();
  };

  auto session = lane.call(kLogin, [&] { return c.login(uid); });
  if (!session) {
    lane.fail();
    return;
  }

  // /proc under hidepid=2: only this user's processes are listed, and a
  // resident's shell does not exist as far as this user can tell.
  simos::ProcFs& procfs = c.node(login).procfs();
  const auto pids = lane.call(kProcList, [&] { return procfs.list(cred); });
  bool own_shell = false;
  for (const Pid pid : pids) {
    const simos::Process* p = c.node(login).procs().find(pid);
    expect(p != nullptr && p->cred.uid == uid);
    own_shell = own_shell || pid == session->shell;
  }
  expect(own_shell);
  expect(lane.call(kProcStat, [&] {
               return procfs.stat(cred, session->shell);
             }).ok());
  refused(lane.call(kProcStat,
                    [&] {
                      return procfs.stat(cred,
                                         resident_shells_[v.resident]);
                    }),
          Errno::enoent);

  // Home: own data round-trips; chmod 777 is clamped by smask 007; a
  // stranger's home is closed.
  vfs::FileSystem& shared = c.shared_fs();
  const std::string& notes = notes_[v.user];
  expect(lane.call(kWrite, [&] {
               return shared.write_file(cred, notes, "day notes");
             }).ok());
  const auto back = lane.call(kRead, [&] { return shared.read_file(cred, notes); });
  expect(back && *back == "day notes");
  expect(lane.call(kChmod, [&] { return shared.chmod(cred, notes, 0777); })
             .ok());
  const auto st = lane.call(kStat, [&] { return shared.stat(cred, notes); });
  expect(st && (st->mode & 0777) == 0770);
  refused(lane.call(kRead,
                    [&] { return shared.read_file(cred, notes_[v.stranger]); }),
          Errno::eacces);

  // Project area: group sharing works, ACL grants to a group the user is
  // in are allowed, grants to another user are refused, foreign projects
  // are closed.
  const std::string& pfile = proj_files_[v.user];
  const std::uint32_t p = v.user / kProjectSize;
  expect(lane.call(kWrite, [&] {
               return shared.write_file(cred, pfile, "results");
             }).ok());
  expect(lane.call(kAclSet, [&] {
               return shared.acl_set(
                   cred, pfile,
                   vfs::AclEntry{vfs::AclTag::named_group, Uid{}, projects_[p],
                                 4});
             }).ok());
  refused(lane.call(kAclSet,
                    [&] {
                      return shared.acl_set(
                          cred, pfile,
                          vfs::AclEntry{vfs::AclTag::named_user,
                                        uids_[v.stranger], Gid{}, 4});
                    }),
          Errno::eperm);
  expect(lane.call(kRead, [&] { return shared.read_file(cred, readmes_[p]); })
             .ok());
  refused(lane.call(kRead,
                    [&] {
                      return shared.read_file(
                          cred, readmes_[v.stranger / kProjectSize]);
                    }),
          Errno::eacces);

  // Node-local /tmp: world-writable directory, private files.
  vfs::FileSystem& tmp = c.node(login).local_fs();
  expect(lane.call(kWrite, [&] {
               return tmp.write_file(cred, tmp_files_[v.user], "scratch");
             }).ok());
  refused(lane.call(kRead,
                    [&] {
                      return tmp.read_file(cred, tmp_files_[v.resident]);
                    }),
          Errno::eacces);

  // pam_slurm: no job, no compute node; login nodes stay open.
  refused(lane.call(kSsh, [&] { return c.ssh(*session, NodeId{v.node}); }),
          Errno::eperm);
  auto hop = lane.call(kSsh, [&] { return c.ssh(*session, c.login_nodes()[1]); });
  expect(hop.ok());
  if (hop) lane.call(kLogout, [&] { c.logout(*hop); });

  // A GPU job: it starts at once (the cluster is otherwise idle).
  sched::JobSpec spec;
  spec.gpus_per_task = 1;
  spec.duration_ns = kJobNs;
  spec.time_limit_ns = 2 * kJobNs;
  spec.command = "train";
  const auto job = lane.call(kSubmit, [&] { return c.submit(*session, spec); });
  lane.call(kStep, [&] { c.scheduler().step(); });
  const sched::Job* jp = job ? c.scheduler().find_job(*job) : nullptr;
  if (jp == nullptr || jp->state != sched::JobState::running ||
      jp->allocations.empty() || jp->allocations[0].gpus.empty()) {
    lane.fail();
    lane.call(kLogout, [&] { c.logout(*session); });
    return;
  }
  const NodeId node = jp->allocations[0].node;
  const GpuId gpu = jp->allocations[0].gpus[0];
  core::Node& jn = c.node(node);

  auto job_shell = lane.call(kSsh, [&] { return c.ssh(*session, node); });
  expect(job_shell.ok());

  const std::string dev = core::Node::gpu_dev_path(gpu.value());
  expect(lane.call(kOpenDevice, [&] {
               return jn.local_fs().open_device(cred, dev, vfs::Access::write);
             }).ok());
  expect(lane.call(kGpuWrite, [&] {
               return jn.gpus().at(gpu.value()).write(uid, 0, "weights");
             }).ok());
  refused(lane.call(kOpenDevice,
                    [&] {
                      return jn.local_fs().open_device(stranger, dev,
                                                       vfs::Access::read);
                    }),
          Errno::eacces);

  // Portal: the owner reaches the app; a guest gets through only when the
  // app runs under a project group the guest belongs to.
  portal::Gateway& portal = c.portal();
  const auto app = lane.call(kRegisterApp, [&] {
    return portal.register_app(
        app_creds_[v.user], job_shell ? job_shell->shell : Pid{}, *job,
        jn.host(), kAppPort, "notebook",
        [](const std::string& req) { return "OK:" + req; });
  });
  expect(app.ok());
  if (app) {
    const auto token = lane.call(kPortalLogin, [&] { return portal.login(cred); });
    expect(token.ok());
    if (token) {
      const auto resp =
          lane.call(kRequest, [&] { return portal.request(*token, *app, "GET /"); });
      expect(resp && *resp == "OK:GET /");
      expect(lane.call(kPortalLogout, [&] { return portal.logout(*token); })
                 .ok());
    }
    const simos::Credentials& guest = creds_[v.portal_guest];
    const auto gtoken =
        lane.call(kPortalLogin, [&] { return portal.login(guest); });
    expect(gtoken.ok());
    if (gtoken) {
      const auto resp = lane.call(
          kRequest, [&] { return portal.request(*gtoken, *app, "GET /"); });
      if (v.guest_allowed) {
        expect(resp && *resp == "OK:GET /");
      } else {
        refused(resp, Errno::econnrefused);
      }
      expect(lane.call(kPortalLogout, [&] { return portal.logout(*gtoken); })
                 .ok());
    }
  }

  // Containers run with the caller's own credentials; only granted users
  // may start one.
  const auto ctr = lane.call(kExec, [&] {
    return c.containers().exec(cred, image_.get(), "run", &jn.procs(),
                               &jn.mounts());
  });
  if (v.user % 2 == 0) {
    expect(ctr.ok());
    if (ctr) {
      expect(lane.call(kStop, [&] {
                   return c.containers().stop(*ctr, &jn.procs());
                 }).ok());
    }
  } else {
    refused(ctr, Errno::eperm);
  }
  if (app) {
    expect(lane.call(kUnregisterApp, [&] {
                 return portal.unregister_app(app_creds_[v.user], *app);
               }).ok());
  }
  if (job_shell) lane.call(kLogout, [&] { c.logout(*job_shell); });

  // The job ends; the epilog reaps it and scrubs the GPU.
  c.clock().advance(kJobNs + kSecond);
  lane.call(kStep, [&] { c.scheduler().step(); });
  expect(c.scheduler().find_job(*job)->state == sched::JobState::completed);
  lane.call(kLogout, [&] { c.logout(*session); });
}

void UserDay::run(Episode& ep) {
  core::Cluster& c = *cluster_;
  c.trace().set_capacity(std::max<std::size_t>(ep.ring, 1));
  c.trace().set_enabled(ep.ring > 0);
  attach_trace(ep.detach_trace ? nullptr : &c.trace());

  Recorder& lane = ep.lanes->front();
  const std::int64_t start = now_ns();
  for (std::uint32_t n = 0; n < visits_.size(); ++n) {
    lane_tick(ep, lane, n, true, [&] { visit(visits_[n], lane); });
  }
  ep.wall = now_ns() - start;

  const obs::DecisionTrace& trace = c.trace();
  ep.decisions = 0;
  for (const obs::DecisionPoint p : obs::kAllDecisionPoints) {
    ep.decisions += trace.counters(p).allowed + trace.counters(p).denied;
  }
  ep.digest = 0;
  double fs_total = 0;
  double fs_denied = 0;
  for (const obs::DecisionPoint p :
       {obs::DecisionPoint::fs_access, obs::DecisionPoint::fs_chmod,
        obs::DecisionPoint::fs_acl}) {
    fs_total += static_cast<double>(trace.counters(p).allowed +
                                    trace.counters(p).denied);
    fs_denied += static_cast<double>(trace.counters(p).denied);
  }
  ep.count("vfs.decisions", fs_total);
  ep.count("vfs.denied", fs_denied);
  const obs::PointCounters& scrub =
      trace.counters(obs::DecisionPoint::gpu_scrub);
  ep.count("gpu.scrub_decisions",
           static_cast<double>(scrub.allowed + scrub.denied));
  ep.count("obs.decisions_total", static_cast<double>(trace.total()));
  ep.count("obs.overwritten", static_cast<double>(trace.overwritten()));

  const lifecycle::Driver* drivers[] = {
      &c.scheduler().job_lifecycle(), &c.portal().session_lifecycle(),
      &c.containers().entry_lifecycle(), &c.network().flow_lifecycle()};
  std::uint64_t illegal = 0;
  for (const lifecycle::Driver* d : drivers) {
    ep.count("lifecycle.fired_total", static_cast<double>(d->fired_total()));
    illegal += d->illegal_events();
  }
  ep.count("lifecycle.illegal_events", static_cast<double>(illegal));
  if (illegal != 0) lane.fail();
  const sched::SchedStats& ss = c.scheduler().sched_stats();
  ep.count("sched.placement_attempts",
           static_cast<double>(ss.placement_attempts));
  ep.count("sched.placement_failures",
           static_cast<double>(ss.placement_failures));
  ep.count("sched.nodes_examined", static_cast<double>(ss.nodes_examined));
}

void UserDay::finish(std::map<std::string, double>& c) const {
  c["vfs.deny_ratio"] = ratio(c["vfs.denied"], c["vfs.decisions"]);
  c["sched.placement_success_ratio"] =
      1.0 - ratio(c["sched.placement_failures"], c["sched.placement_attempts"]);
  c["sched.nodes_examined_per_attempt"] =
      ratio(c["sched.nodes_examined"], c["sched.placement_attempts"]);
}

}  // namespace

std::unique_ptr<Workload> make_user_day(bool smoke, std::uint64_t seed) {
  return std::make_unique<UserDay>(smoke, seed);
}

}  // namespace heus::e2e
