// Parameterized ablation matrix: each single hardening knob closes exactly
// its own channels — the per-mechanism attribution behind DESIGN.md §5.
#include <gtest/gtest.h>

#include "core/audit.h"
#include "core/cluster.h"

namespace heus::core {
namespace {

struct KnobCase {
  const char* name;
  // Applies one knob on top of baseline.
  void (*apply)(SeparationPolicy&);
  // Channels this knob must close (relative to baseline).
  std::vector<ChannelKind> closes;
};

// Without this gtest prints the raw object bytes, pointers included, so the
// discovered test names would change with every load address.
void PrintTo(const KnobCase& kc, std::ostream* os) { *os << kc.name; }

void knob_hidepid(SeparationPolicy& p) {
  p.hidepid = simos::HidepidMode::invisible;
}
void knob_private_data(SeparationPolicy& p) {
  p.private_data = sched::PrivateData::all();
}
void knob_pam(SeparationPolicy& p) { p.pam_slurm = true; }
void knob_fs(SeparationPolicy& p) {
  p.fs = vfs::FsPolicy::hardened();
  p.root_owned_homes = true;
}
void knob_ubf(SeparationPolicy& p) { p.ubf = true; }
void knob_gpu(SeparationPolicy& p) {
  p.gpu_dev_binding = true;
  p.gpu_epilog_scrub = true;
}

class PolicyKnobTest : public ::testing::TestWithParam<KnobCase> {
 protected:
  static ClusterConfig config(SeparationPolicy policy) {
    ClusterConfig cfg;
    cfg.compute_nodes = 4;
    cfg.login_nodes = 1;
    cfg.cpus_per_node = 16;
    cfg.gpus_per_node = 2;
    cfg.gpu_mem_bytes = 4096;
    cfg.policy = policy;
    return cfg;
  }

  static std::map<ChannelKind, bool> run(SeparationPolicy policy) {
    Cluster cluster(config(policy));
    const Uid victim = *cluster.add_user("victim");
    const Uid observer = *cluster.add_user("observer");
    LeakageAuditor auditor(&cluster);
    std::map<ChannelKind, bool> out;
    for (const auto& r : auditor.audit_pair(victim, observer)) {
      out[r.kind] = r.open;
    }
    return out;
  }
};

TEST_P(PolicyKnobTest, KnobClosesItsChannels) {
  const KnobCase& kc = GetParam();
  SeparationPolicy policy = SeparationPolicy::baseline();
  kc.apply(policy);
  auto single = run(policy);
  auto baseline = run(SeparationPolicy::baseline());
  for (ChannelKind kind : kc.closes) {
    EXPECT_TRUE(baseline.at(kind))
        << to_string(kind) << " unexpectedly closed at baseline";
    EXPECT_FALSE(single.at(kind))
        << to_string(kind) << " not closed by knob " << kc.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKnobs, PolicyKnobTest,
    ::testing::Values(
        KnobCase{"hidepid",
                 &knob_hidepid,
                 {ChannelKind::procfs_process_list,
                  ChannelKind::procfs_cmdline}},
        KnobCase{"private-data",
                 &knob_private_data,
                 {ChannelKind::scheduler_queue,
                  ChannelKind::scheduler_accounting,
                  ChannelKind::scheduler_usage}},
        KnobCase{"pam-slurm", &knob_pam, {ChannelKind::ssh_foreign_node}},
        KnobCase{"smask-fs",
                 &knob_fs,
                 {ChannelKind::fs_home_read, ChannelKind::fs_tmp_content,
                  ChannelKind::fs_devshm_content,
                  ChannelKind::fs_acl_user_grant}},
        KnobCase{"ubf",
                 &knob_ubf,
                 {ChannelKind::tcp_cross_user, ChannelKind::udp_cross_user,
                  ChannelKind::rdma_tcp_setup,
                  ChannelKind::portal_foreign_app}},
        KnobCase{"gpu", &knob_gpu, {ChannelKind::gpu_residue}}),
    [](const ::testing::TestParamInfo<KnobCase>& info) {
      std::string name = info.param.name;
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

// Cross-check: no knob accidentally closes the documented residuals (they
// are structural, not configuration gaps).
TEST(PolicyMatrix, ResidualsSurviveEveryKnob) {
  for (auto apply : {&knob_hidepid, &knob_private_data, &knob_pam,
                     &knob_fs, &knob_ubf, &knob_gpu}) {
    SeparationPolicy policy = SeparationPolicy::baseline();
    apply(policy);
    Cluster cluster([&] {
      ClusterConfig cfg;
      cfg.compute_nodes = 2;
      cfg.login_nodes = 1;
      cfg.cpus_per_node = 8;
      cfg.gpus_per_node = 1;
      cfg.gpu_mem_bytes = 1024;
      cfg.policy = policy;
      return cfg;
    }());
    const Uid v = *cluster.add_user("v");
    const Uid o = *cluster.add_user("o");
    LeakageAuditor auditor(&cluster);
    for (const auto& r : auditor.audit_pair(v, o)) {
      if (is_documented_residual(r.kind)) {
        EXPECT_TRUE(r.open) << to_string(r.kind);
      }
    }
  }
}

}  // namespace
}  // namespace heus::core
