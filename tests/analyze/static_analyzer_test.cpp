// Unit tests of the static analyzer: verdicts at the two named policies,
// attribution/minimal-hardening contents, topology-fact handling, the
// knob registry, and report rendering.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "analyze/analyzer.h"
#include "analyze/policy_space.h"
#include "analyze/report.h"

namespace heus::analyze {
namespace {

using core::ChannelKind;
using core::SeparationPolicy;

TEST(StaticAnalyzer, BaselineLeavesEveryChannelCrossable) {
  const StaticAnalyzer analyzer;
  const AnalysisReport report =
      analyzer.analyze(SeparationPolicy::baseline());
  EXPECT_EQ(report.crossable_count(), core::kAllChannels.size());
  EXPECT_EQ(report.unexpected_open_count(),
            core::kAllChannels.size() - 3);  // minus the 3 residuals
}

TEST(StaticAnalyzer, HardenedClosesEverythingButTheResiduals) {
  const StaticAnalyzer analyzer;
  const AnalysisReport report =
      analyzer.analyze(SeparationPolicy::hardened());
  EXPECT_EQ(report.unexpected_open_count(), 0u);
  EXPECT_EQ(report.crossable_count(), 3u);
  for (const ChannelFinding& f : report.findings) {
    if (core::is_documented_residual(f.kind)) {
      EXPECT_EQ(f.verdict, Verdict::residual) << core::to_string(f.kind);
    } else {
      EXPECT_EQ(f.verdict, Verdict::closed) << core::to_string(f.kind);
    }
  }
}

TEST(StaticAnalyzer, MinimalHardeningSuggestions) {
  const StaticAnalyzer analyzer;
  const AnalysisReport report =
      analyzer.analyze(SeparationPolicy::baseline());

  // A single knob suffices for the network channels...
  EXPECT_EQ(report.finding(ChannelKind::tcp_cross_user).minimal_hardening,
            std::vector<std::string>{"ubf"});
  EXPECT_EQ(
      report.finding(ChannelKind::portal_foreign_app).minimal_hardening,
      std::vector<std::string>{"ubf"});
  // ...and for the home leak (root-owned homes beats the 2-knob smask).
  EXPECT_EQ(report.finding(ChannelKind::fs_home_read).minimal_hardening,
            std::vector<std::string>{"root_owned_homes"});
  // /tmp content is only closable by the smask pair: kernel patch AND the
  // filesystem honoring it (the LU-4746 interplay).
  EXPECT_EQ(
      report.finding(ChannelKind::fs_tmp_content).minimal_hardening,
      (std::vector<std::string>{"fs.enforce_smask", "fs.honor_smask"}));
  EXPECT_EQ(report.finding(ChannelKind::gpu_residue).minimal_hardening,
            std::vector<std::string>{"gpu_epilog_scrub"});
}

TEST(StaticAnalyzer, ResponsibleKnobsAtTheEndpoints) {
  const StaticAnalyzer analyzer;
  const AnalysisReport hardened =
      analyzer.analyze(SeparationPolicy::hardened());
  // Under hardened(), each closed channel names the knob(s) holding it
  // closed — unless two mechanisms hold it at once (fs_home_read and
  // fs_acl_user_grant are doubly protected, so no single flip reopens).
  EXPECT_EQ(hardened.finding(ChannelKind::ssh_foreign_node)
                .responsible_knobs,
            std::vector<std::string>{"pam_slurm"});
  EXPECT_EQ(hardened.finding(ChannelKind::gpu_residue).responsible_knobs,
            std::vector<std::string>{"gpu_epilog_scrub"});
  EXPECT_TRUE(
      hardened.finding(ChannelKind::fs_home_read).responsible_knobs.empty());
  EXPECT_TRUE(hardened.finding(ChannelKind::fs_acl_user_grant)
                  .responsible_knobs.empty());
  // /tmp content: losing either smask flag reopens it.
  EXPECT_EQ(
      hardened.finding(ChannelKind::fs_tmp_content).responsible_knobs,
      (std::vector<std::string>{"fs.enforce_smask", "fs.honor_smask"}));
}

TEST(StaticAnalyzer, HidepidModeOneSplitsTheProcfsChannels) {
  SeparationPolicy p = SeparationPolicy::baseline();
  p.hidepid = simos::HidepidMode::restrict_contents;
  const StaticAnalyzer analyzer;
  EXPECT_EQ(analyzer.verdict(p, ChannelKind::procfs_process_list),
            Verdict::open);
  EXPECT_EQ(analyzer.verdict(p, ChannelKind::procfs_cmdline),
            Verdict::closed);
}

TEST(StaticAnalyzer, TopologyFactsChangeTheVerdicts) {
  const SeparationPolicy hardened = SeparationPolicy::hardened();

  TopologyFacts staff;
  staff.observer_support_staff = true;
  EXPECT_EQ(StaticAnalyzer(staff).verdict(
                hardened, ChannelKind::procfs_process_list),
            Verdict::open);
  // Staff membership only helps while the gid= exemption is mounted.
  SeparationPolicy no_exemption = hardened;
  no_exemption.hidepid_gid_exemption = false;
  EXPECT_EQ(StaticAnalyzer(staff).verdict(
                no_exemption, ChannelKind::procfs_process_list),
            Verdict::closed);

  TopologyFacts op;
  op.observer_operator = true;
  EXPECT_EQ(
      StaticAnalyzer(op).verdict(hardened, ChannelKind::scheduler_queue),
      Verdict::open);

  TopologyFacts peers;
  peers.shared_service_group = true;
  EXPECT_EQ(
      StaticAnalyzer(peers).verdict(hardened, ChannelKind::tcp_cross_user),
      Verdict::open);  // UBF rule (b): intentional opt-in
  SeparationPolicy no_rule_b = hardened;
  no_rule_b.ubf_group_peers = false;
  EXPECT_EQ(StaticAnalyzer(peers).verdict(no_rule_b,
                                          ChannelKind::tcp_cross_user),
            Verdict::closed);

  TopologyFacts no_gpus;
  no_gpus.has_gpus = false;
  SeparationPolicy unscrubbed = SeparationPolicy::baseline();
  EXPECT_EQ(StaticAnalyzer(no_gpus).verdict(unscrubbed,
                                            ChannelKind::gpu_residue),
            Verdict::closed);

  TopologyFacts low_port;
  low_port.service_port = 443;
  EXPECT_EQ(StaticAnalyzer(low_port).verdict(hardened,
                                             ChannelKind::tcp_cross_user),
            Verdict::open);  // below the UBF's inspected range
}

TEST(PolicySpace, KnobRegistryRoundTrips) {
  EXPECT_EQ(knobs().size(), 15u);
  const SeparationPolicy baseline = SeparationPolicy::baseline();
  const SeparationPolicy hardened = SeparationPolicy::hardened();
  for (const KnobSpec& k : knobs()) {
    EXPECT_TRUE(k.is_hardened(hardened)) << k.name;
    // Double flip returns to the starting assignment for bool knobs and
    // for enum knobs sitting at an endpoint.
    const SeparationPolicy once = flip_knob(baseline, k);
    const SeparationPolicy twice = flip_knob(once, k);
    EXPECT_EQ(k.is_hardened(twice), k.is_hardened(baseline)) << k.name;
    EXPECT_NE(k.is_hardened(once), k.is_hardened(baseline)) << k.name;
  }
  EXPECT_NE(find_knob("ubf"), nullptr);
  EXPECT_EQ(find_knob("no-such-knob"), nullptr);
}

// The shared knob-subset search behind minimal_hardening and
// minimal_cut: every subset of size 1, then 2, then 3, each size in
// lexicographic candidate order, and the first accepted one wins.
TEST(PolicySpace, FirstKnobSubsetTriesSmallSubsetsInCandidateOrder) {
  const std::vector<KnobSpec>& all = knobs();
  ASSERT_GE(all.size(), 4u);
  const std::vector<const KnobSpec*> four = {&all[0], &all[1], &all[2],
                                             &all[3]};
  auto index = [&](const KnobSpec* k) { return k - &all[0]; };
  std::vector<std::string> tried;
  const std::vector<std::string> none =
      first_knob_subset(four, [&](std::span<const KnobSpec* const> s) {
        std::string trial;
        for (const KnobSpec* k : s) trial += std::to_string(index(k));
        tried.push_back(trial);
        return false;
      });
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(tried, (std::vector<std::string>{
                       "0", "1", "2", "3", "01", "02", "03", "12", "13",
                       "23", "012", "013", "023", "123"}));

  // The smallest accepted size wins over any larger subset, and within
  // it the first subset in candidate order.
  const std::vector<std::string> pair =
      first_knob_subset(four, [&](std::span<const KnobSpec* const> s) {
        return s.size() >= 2 && index(s.back()) == 3;
      });
  EXPECT_EQ(pair, (std::vector<std::string>{all[0].name, all[3].name}));
}

TEST(PolicySpace, SetKnobFromString) {
  SeparationPolicy p = SeparationPolicy::baseline();
  EXPECT_TRUE(set_knob_from_string(p, "ubf", "1"));
  EXPECT_TRUE(p.ubf);
  EXPECT_TRUE(set_knob_from_string(p, "ubf", "off"));
  EXPECT_FALSE(p.ubf);
  EXPECT_TRUE(set_knob_from_string(p, "hidepid", "restrict"));
  EXPECT_EQ(p.hidepid, simos::HidepidMode::restrict_contents);
  EXPECT_TRUE(set_knob_from_string(p, "hidepid", "2"));
  EXPECT_EQ(p.hidepid, simos::HidepidMode::invisible);
  EXPECT_TRUE(set_knob_from_string(p, "sharing", "user-whole-node"));
  EXPECT_EQ(p.sharing, sched::SharingPolicy::user_whole_node);
  EXPECT_FALSE(set_knob_from_string(p, "sharing", "sometimes"));
  EXPECT_FALSE(set_knob_from_string(p, "no-such-knob", "1"));
  EXPECT_FALSE(set_knob_from_string(p, "ubf", "maybe"));
}

TEST(PolicySpace, DifferentialSweepShape) {
  const auto sweep = differential_sweep(8, 7);
  EXPECT_EQ(sweep.size(), 2 + 2 * knobs().size() + 8);
  EXPECT_EQ(sweep[0].name, "baseline");
  EXPECT_EQ(sweep[1].name, "hardened");
  // Seeded: the same seed reproduces the same random tail.
  const auto again = differential_sweep(8, 7);
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    EXPECT_EQ(describe_policy(sweep[i].policy),
              describe_policy(again[i].policy))
        << i;
  }
}

TEST(Report, MarkdownAndJsonCarryTheCensus) {
  const StaticAnalyzer analyzer;
  const AnalysisReport hardened =
      analyzer.analyze(SeparationPolicy::hardened());
  const std::string md = to_markdown(hardened);
  EXPECT_NE(md.find("| channel |"), std::string::npos);
  EXPECT_NE(md.find("unexpected open: 0"), std::string::npos);
  EXPECT_NE(md.find("abstract-uds"), std::string::npos);
  EXPECT_EQ(md.find("## Minimal hardening"), std::string::npos);

  const AnalysisReport baseline =
      analyzer.analyze(SeparationPolicy::baseline());
  const std::string md2 = to_markdown(baseline);
  EXPECT_NE(md2.find("## Minimal hardening"), std::string::npos);
  EXPECT_NE(md2.find("harden ubf"), std::string::npos);

  const std::string json = to_json(baseline).dump();
  EXPECT_NE(json.find("\"channels\": ["), std::string::npos);
  EXPECT_NE(json.find("\"verdict\": \"open\""), std::string::npos);
  EXPECT_NE(json.find("\"minimal_hardening\""), std::string::npos);
  EXPECT_NE(json.find("\"unexpected_open\": 15"), std::string::npos);
}

}  // namespace
}  // namespace heus::analyze
