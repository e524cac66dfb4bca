// Policy review: use the static analyzer as a library to vet a proposed
// policy change before anyone builds a cluster with it.
//
//   $ ./policy_review
//
// A site starts from the hardened LLSC configuration, then someone
// proposes relaxing two knobs ("we need ACLs for the collab, and the GPU
// epilog slows node turnaround"). The analyzer reports exactly which
// channels the relaxation reopens, why, and the smallest set of knobs
// that would close them again — and we then cross-check one verdict
// against a live simulated cluster to show the two paths agree.
#include <cstdio>

#include "analyze/analyzer.h"
#include "analyze/policy_space.h"
#include "analyze/report.h"
#include "core/audit.h"
#include "core/cluster.h"

using namespace heus;

int main() {
  // 1. The proposed change: hardened minus two knobs.
  core::SeparationPolicy proposed = core::SeparationPolicy::hardened();
  proposed.fs.restrict_acl = false;
  proposed.gpu_epilog_scrub = false;

  std::printf("proposed change vs hardened: -fs.restrict_acl, "
              "-gpu_epilog_scrub\n\n");

  // 2. Static review: no cluster needed.
  const analyze::StaticAnalyzer analyzer;
  const analyze::AnalysisReport report = analyzer.analyze(proposed);
  std::printf("%s\n", analyze::to_markdown(report).c_str());

  // 3. What reopened, and the cheapest way to close it again.
  for (const analyze::ChannelFinding& f : report.findings) {
    if (f.verdict != analyze::Verdict::open) continue;
    std::printf("reopened: %s — close again by hardening:",
                core::to_string(f.kind));
    for (const std::string& knob : f.minimal_hardening.names()) {
      std::printf(" %s", knob.c_str());
    }
    std::printf("\n");
  }

  // 4. Cross-check one verdict against the dynamic auditor on a live
  // cluster (the differential test suite does this for every channel
  // across a whole policy sweep; here we just demonstrate the idiom).
  core::ClusterConfig config;
  config.compute_nodes = 2;
  config.login_nodes = 1;
  config.cpus_per_node = 8;
  config.gpus_per_node = 1;
  config.policy = proposed;
  core::Cluster cluster(config);
  const Uid victim = *cluster.add_user("victim");
  const Uid observer = *cluster.add_user("observer");
  core::LeakageAuditor auditor(&cluster);

  std::size_t agree = 0;
  const auto results = auditor.audit_pair(victim, observer);
  for (const core::ChannelReport& r : results) {
    const bool static_crossable =
        analyze::is_crossable(analyzer.verdict(proposed, r.kind));
    if (static_crossable == r.open) ++agree;
  }
  std::printf("\ncross-check vs dynamic audit: %zu/%zu channels agree\n",
              agree, results.size());
  return agree == results.size() ? 0 : 1;
}
