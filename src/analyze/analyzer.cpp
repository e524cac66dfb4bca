#include "analyze/analyzer.h"

#include <cassert>

#include "common/strings.h"

namespace heus::analyze {

using common::strformat;
using core::ChannelKind;
using core::SeparationPolicy;

const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::closed: return "closed";
    case Verdict::open: return "open";
    case Verdict::residual: return "residual";
  }
  return "?";
}

namespace {

/// The smask patch protects a filesystem only when the kernel patch is
/// installed AND the filesystem honors it (the Lustre LU-4746 interplay:
/// either flag alone leaves world bits reachable through chmod/create).
bool smask_effective(const SeparationPolicy& p) {
  return p.fs.enforce_smask && p.fs.honor_smask;
}

/// Does the UBF stand between the observer and this victim service?
bool ubf_governs(const SeparationPolicy& p, const TopologyFacts& f) {
  if (!p.ubf) return false;
  if (f.service_port < f.ubf_inspect_from) return false;
  if (p.ubf_group_peers && f.shared_service_group) return false;
  return true;
}

/// Is the channel crossable by the observer under (policy, facts)?
/// This is the static mirror of LeakageAuditor's probe outcomes; the
/// differential test in tests/analyze holds the two to exact agreement.
bool crossable(const SeparationPolicy& p, const TopologyFacts& f,
               ChannelKind kind) {
  const bool hidepid_exempt =
      f.observer_support_staff && p.hidepid_gid_exemption;
  switch (kind) {
    // §IV-A: procfs visibility is decided by the hidepid mount mode.
    // Mode 1 keeps foreign pid dirents statable (uid is visible) while
    // protecting their contents; only mode 2 hides the listing.
    case ChannelKind::procfs_process_list:
      return hidepid_exempt ||
             p.hidepid != simos::HidepidMode::invisible;
    case ChannelKind::procfs_cmdline:
      return hidepid_exempt || p.hidepid == simos::HidepidMode::off;

    // §IV-B: PrivateData filters each query family independently;
    // Operators are exempt. pam_slurm gates ssh on "has a job there".
    case ChannelKind::scheduler_queue:
      return f.observer_operator || !p.private_data.jobs;
    case ChannelKind::scheduler_accounting:
      return f.observer_operator || !p.private_data.accounting;
    case ChannelKind::scheduler_usage:
      return f.observer_operator || !p.private_data.usage;
    case ChannelKind::ssh_foreign_node:
      return !p.pam_slurm;

    // §IV-C: the home leak needs a world-traversable home (blocked by
    // root-owned homes) AND a world-readable file (blocked by an
    // effective smask stripping the chmod). /tmp and /dev/shm content
    // only has the smask between it and the observer. Names in
    // world-writable directories are structural (residual). The setfacl
    // user-grant needs the grant allowed (ACL-restriction patch) and a
    // home the victim can open for traversal (root-owned homes again).
    case ChannelKind::fs_home_read:
      return !p.root_owned_homes && !smask_effective(p);
    case ChannelKind::fs_tmp_content:
    case ChannelKind::fs_devshm_content:
      return !smask_effective(p);
    case ChannelKind::fs_tmp_names:
      return true;
    case ChannelKind::fs_acl_user_grant:
      return !p.fs.restrict_acl && !p.root_owned_homes;

    // §IV-D: the UBF inspects new TCP/UDP flows (and therefore the RDMA
    // TCP control channel); abstract unix sockets and the native IB CM
    // never traverse the nfqueue hook (residual).
    case ChannelKind::tcp_cross_user:
    case ChannelKind::udp_cross_user:
    case ChannelKind::rdma_tcp_setup:
      return !ubf_governs(p, f);
    case ChannelKind::abstract_uds:
    case ChannelKind::rdma_native_cm:
      return true;

    // §IV-E: the portal forwards as the authenticated observer, so the
    // UBF rules govern the forwarded hop exactly like direct TCP.
    case ChannelKind::portal_foreign_app:
      return !ubf_governs(p, f);

    // §IV-F: residue survives iff nothing scrubs between tenants. /dev
    // binding narrows who can open a device, but the observer reads the
    // residue through their OWN legitimately-allocated device, so only
    // the epilog scrub closes this channel.
    case ChannelKind::gpu_residue:
      return f.has_gpus && !p.gpu_epilog_scrub;
  }
  return false;
}

}  // namespace

const ChannelFinding& AnalysisReport::finding(ChannelKind kind) const {
  for (const ChannelFinding& f : findings) {
    if (f.kind == kind) return f;
  }
  assert(false && "findings cover every ChannelKind");
  return findings.front();
}

std::size_t AnalysisReport::crossable_count() const {
  std::size_t n = 0;
  for (const ChannelFinding& f : findings) {
    if (is_crossable(f.verdict)) ++n;
  }
  return n;
}

std::size_t AnalysisReport::unexpected_open_count() const {
  std::size_t n = 0;
  for (const ChannelFinding& f : findings) {
    if (f.verdict == Verdict::open) ++n;
  }
  return n;
}

std::vector<ChannelKind> AnalysisReport::residual_set() const {
  std::vector<ChannelKind> out;
  for (const ChannelFinding& f : findings) {
    if (f.verdict == Verdict::residual) out.push_back(f.kind);
  }
  return out;
}

Verdict StaticAnalyzer::verdict(const SeparationPolicy& policy,
                                ChannelKind kind) const {
  if (!crossable(policy, facts_, kind)) return Verdict::closed;
  return core::is_documented_residual(kind) ? Verdict::residual
                                            : Verdict::open;
}

AnalysisReport StaticAnalyzer::analyze(
    const SeparationPolicy& policy) const {
  AnalysisReport report;
  report.policy = policy;
  report.facts = facts_;
  report.findings.reserve(core::kAllChannels.size());
  for (ChannelKind kind : core::kAllChannels) {
    ChannelFinding f;
    f.kind = kind;
    f.verdict = verdict(policy, kind);
    f.explanation = explain(policy, kind, f.verdict);
    // Load-bearing knobs, by construction: a knob is responsible iff
    // flipping it (alone) flips the verdict between crossable and closed.
    for (const KnobSpec& knob : knobs()) {
      const Verdict flipped = verdict(flip_knob(policy, knob), kind);
      if (is_crossable(flipped) != is_crossable(f.verdict)) {
        f.responsible_knobs.emplace_back(knob.name);
      }
    }
    if (f.verdict == Verdict::open) {
      f.minimal_hardening = minimal_hardening(policy, kind);
    }
    report.findings.push_back(std::move(f));
  }
  return report;
}

std::vector<std::string> StaticAnalyzer::minimal_hardening(
    const SeparationPolicy& policy, ChannelKind kind) const {
  // Candidate moves: harden any knob not already at its hardened value.
  std::vector<const KnobSpec*> moves;
  for (const KnobSpec& knob : knobs()) {
    if (!knob.is_hardened(policy)) moves.push_back(&knob);
  }
  // Empty when not closable by hardening (shouldn't happen: residuals
  // never reach here and every open channel has a knob).
  return first_knob_subset(
      moves, [&](std::span<const KnobSpec* const> subset) {
        SeparationPolicy p = policy;
        for (const KnobSpec* knob : subset) knob->set(p, true);
        return verdict(p, kind) == Verdict::closed;
      });
}

std::string StaticAnalyzer::explain(const SeparationPolicy& p,
                                    ChannelKind kind,
                                    Verdict verdict) const {
  const bool exempt =
      facts_.observer_support_staff && p.hidepid_gid_exemption;
  switch (kind) {
    case ChannelKind::procfs_process_list:
      if (exempt) {
        return "observer is in the seepid staff group and the gid= mount "
               "flag exempts it from hidepid";
      }
      return verdict == Verdict::closed
                 ? "hidepid=2 removes foreign pid directories from /proc "
                   "entirely"
                 : strformat("hidepid=%d leaves foreign pid directories "
                             "statable, so the victim's pids (and their "
                             "uids) enumerate",
                             static_cast<int>(p.hidepid));
    case ChannelKind::procfs_cmdline:
      if (exempt) {
        return "observer is in the seepid staff group and the gid= mount "
               "flag exempts it from hidepid";
      }
      return verdict == Verdict::closed
                 ? strformat("hidepid=%d protects /proc/<pid> contents "
                             "(cmdline, status) of foreign processes",
                             static_cast<int>(p.hidepid))
                 : "hidepid=0 leaves /proc/<pid>/cmdline of every user "
                   "world-readable, secrets in argv included";
    case ChannelKind::scheduler_queue:
      if (facts_.observer_operator) {
        return "observer holds the Slurm Operator privilege, which is "
               "exempt from PrivateData filtering";
      }
      return verdict == Verdict::closed
                 ? "PrivateData=jobs restricts squeue to the caller's own "
                   "entries"
                 : "without PrivateData=jobs, squeue shows every user's "
                   "job names and commands";
    case ChannelKind::scheduler_accounting:
      if (facts_.observer_operator) {
        return "observer holds the Slurm Operator privilege, which is "
               "exempt from PrivateData filtering";
      }
      return verdict == Verdict::closed
                 ? "PrivateData=accounting restricts sacct to the "
                   "caller's own records"
                 : "without PrivateData=accounting, sacct exposes every "
                   "user's completed-job records";
    case ChannelKind::scheduler_usage:
      if (facts_.observer_operator) {
        return "observer holds the Slurm Operator privilege, which is "
               "exempt from PrivateData filtering";
      }
      return verdict == Verdict::closed
                 ? "PrivateData=usage restricts sreport to the caller's "
                   "own row"
                 : "without PrivateData=usage, sreport aggregates every "
                   "user's consumption";
    case ChannelKind::ssh_foreign_node:
      return verdict == Verdict::closed
                 ? "pam_slurm admits ssh only to nodes where the caller "
                   "has a running job"
                 : "without pam_slurm, any user can ssh onto any compute "
                   "node, including the victim's";
    case ChannelKind::fs_home_read:
      if (verdict != Verdict::closed) {
        return "home is user-owned and no effective smask strips the "
               "world bits, so an accidental `chmod 777 ~` exposes file "
               "content";
      }
      if (p.root_owned_homes && smask_effective(p)) {
        return "doubly protected: root-owned homes block the top-level "
               "chmod and the smask strips world bits from any chmod "
               "inside";
      }
      return p.root_owned_homes
                 ? "homes are root-owned (group = UPG, 0770): the user "
                   "cannot chmod their own home world-traversable"
                 : "the smask (enforced and honored) strips world bits "
                   "at create and chmod time";
    case ChannelKind::fs_tmp_content:
    case ChannelKind::fs_devshm_content:
      if (verdict != Verdict::closed) {
        if (p.fs.enforce_smask && !p.fs.honor_smask) {
          return "kernel smask patch is installed but the filesystem "
                 "does not honor it (the pre-LU-4746 Lustre gap): world "
                 "bits survive create/chmod";
        }
        return "no effective smask: a world-readable mode on a file in "
               "a world-writable directory exposes its content";
      }
      return "the smask (enforced and honored) strips world bits, so "
             "foreign files stay group-private even after `chmod 666`";
    case ChannelKind::fs_tmp_names:
      return "structural residual: /tmp is world-writable (1777), so "
             "file *names* are listable by anyone regardless of policy";
    case ChannelKind::fs_acl_user_grant:
      if (verdict != Verdict::closed) {
        return "setfacl u:<other>:r is permitted and the victim owns "
               "their home, so a direct user-to-user grant bypasses the "
               "approved-project-group flow";
      }
      return p.fs.restrict_acl
                 ? "the ACL-restriction patch rejects named-user grants "
                   "(grants only to groups the caller belongs to)"
                 : "homes are root-owned: the victim cannot ACL their "
                   "home open for the observer's traversal";
    case ChannelKind::tcp_cross_user:
    case ChannelKind::udp_cross_user:
      if (verdict != Verdict::closed) {
        if (p.ubf && p.ubf_group_peers && facts_.shared_service_group) {
          return "UBF rule (b): the service runs under a project group "
                 "the observer belongs to, an intentional opt-in";
        }
        if (p.ubf && facts_.service_port < facts_.ubf_inspect_from) {
          return "the service listens below the UBF's inspected port "
                 "range, so the connection bypasses the daemon";
        }
        return "no user-based firewall: any user may connect to any "
               "other user's network service";
      }
      return "the UBF drops new flows whose initiating uid neither "
             "matches the listener's uid nor its primary group";
    case ChannelKind::abstract_uds:
      return "structural residual: abstract-namespace unix sockets have "
             "no filesystem node and never traverse the nfqueue hook";
    case ChannelKind::rdma_tcp_setup:
      return verdict == Verdict::closed
                 ? "the QP's TCP control channel is an ordinary flow, so "
                   "the UBF inspects and drops it"
                 : "no UBF on the TCP control channel: cross-user QPs "
                   "come up unhindered";
    case ChannelKind::rdma_native_cm:
      return "structural residual: native IB CM rendezvous never touches "
             "the TCP stack, so nothing inspects it";
    case ChannelKind::portal_foreign_app:
      return verdict == Verdict::closed
                 ? "the portal forwards as the authenticated observer, so "
                   "the UBF drops the hop to the victim's listener"
                 : "the portal's forwarded hop is an uninspected network "
                   "flow: any authenticated user reaches any app";
    case ChannelKind::gpu_residue:
      if (!facts_.has_gpus) {
        return "moot: the cluster has no allocatable GPUs";
      }
      return verdict == Verdict::closed
                 ? "the epilog scrub wipes device memory between tenants"
                 : "no epilog scrub: the next tenant reads the previous "
                   "tenant's device memory through their own allocation "
                   "(dev binding does not help — the device is theirs "
                   "now)";
  }
  return "?";
}

}  // namespace heus::analyze
