#include "analyze/policy_space.h"

#include <array>
#include <cassert>
#include <iterator>
#include <string_view>

#include "common/strings.h"
#include "obs/taxonomy.h"

namespace heus::analyze {

using core::SeparationPolicy;
namespace knob = obs::knob;

namespace {

// Shorthand for the registry table below.
using P = SeparationPolicy;

constexpr KnobSpec kRegistry[] = {
    // §IV-A processes
    {knob::hidepid, "mount /proc with hidepid=2 (foreign pids invisible)",
     [](const P& p) { return p.hidepid == simos::HidepidMode::invisible; },
     [](P& p, bool h) {
       p.hidepid =
           h ? simos::HidepidMode::invisible : simos::HidepidMode::off;
     }},
    {knob::hidepid_gid_exemption,
     "gid= mount flag: seepid staff group exempt from hidepid",
     [](const P& p) { return p.hidepid_gid_exemption; },
     [](P& p, bool h) { p.hidepid_gid_exemption = h; }},
    // §IV-B scheduler
    {knob::private_data_jobs, "squeue shows only the caller's jobs",
     [](const P& p) { return p.private_data.jobs; },
     [](P& p, bool h) { p.private_data.jobs = h; }},
    {knob::private_data_accounting, "sacct shows only the caller's records",
     [](const P& p) { return p.private_data.accounting; },
     [](P& p, bool h) { p.private_data.accounting = h; }},
    {knob::private_data_usage, "sreport shows only the caller's usage",
     [](const P& p) { return p.private_data.usage; },
     [](P& p, bool h) { p.private_data.usage = h; }},
    {knob::sharing, "user-based whole-node scheduling",
     [](const P& p) {
       return p.sharing == sched::SharingPolicy::user_whole_node;
     },
     [](P& p, bool h) {
       p.sharing = h ? sched::SharingPolicy::user_whole_node
                     : sched::SharingPolicy::shared;
     }},
    {knob::pam_slurm, "ssh only to nodes where the user has a running job",
     [](const P& p) { return p.pam_slurm; },
     [](P& p, bool h) { p.pam_slurm = h; }},
    // §IV-C filesystems
    {knob::fs_enforce_smask, "kernel smask patch installed",
     [](const P& p) { return p.fs.enforce_smask; },
     [](P& p, bool h) { p.fs.enforce_smask = h; }},
    {knob::fs_honor_smask, "Lustre LU-4746 patch: filesystem honors smask",
     [](const P& p) { return p.fs.honor_smask; },
     [](P& p, bool h) { p.fs.honor_smask = h; }},
    {knob::fs_restrict_acl,
     "setfacl restricted to member groups, no named-user grants",
     [](const P& p) { return p.fs.restrict_acl; },
     [](P& p, bool h) { p.fs.restrict_acl = h; }},
    {knob::root_owned_homes, "homes root-owned, group = UPG, mode 0770",
     [](const P& p) { return p.root_owned_homes; },
     [](P& p, bool h) { p.root_owned_homes = h; }},
    // §IV-D network
    {knob::ubf, "user-based firewall attached to the nfqueue hook",
     [](const P& p) { return p.ubf; },
     [](P& p, bool h) { p.ubf = h; }},
    {knob::ubf_group_peers, "UBF rule (b): egid project-group peers allowed",
     [](const P& p) { return p.ubf_group_peers; },
     [](P& p, bool h) { p.ubf_group_peers = h; }},
    // §IV-F accelerators
    {knob::gpu_dev_binding, "/dev/nvidiaN chgrp'ed to the user's UPG on alloc",
     [](const P& p) { return p.gpu_dev_binding; },
     [](P& p, bool h) { p.gpu_dev_binding = h; }},
    {knob::gpu_epilog_scrub, "vendor memory scrub in the job epilog",
     [](const P& p) { return p.gpu_epilog_scrub; },
     [](P& p, bool h) { p.gpu_epilog_scrub = h; }},
};
static_assert(std::size(kRegistry) <= KnobSet::kCapacity,
              "KnobSet holds one bit per registry knob: widen it first");

/// The registry's boolean knobs (all but hidepid and sharing), in
/// registry order: policy_at decodes one index bit into each.
constexpr auto kBoolKnobs = [] {
  std::array<const KnobSpec*, std::size(kRegistry) - 2> out{};
  std::size_t n = 0;
  for (const KnobSpec& k : kRegistry) {
    const std::string_view name = k.name;
    if (name != knob::hidepid && name != knob::sharing) out.at(n++) = &k;
  }
  return out;
}();
static_assert(kBoolKnobs.back() != nullptr,
              "every registry knob but hidepid and sharing is boolean");

}  // namespace

std::span<const KnobSpec> knobs() { return kRegistry; }

KnobSet KnobSet::of(std::span<const KnobSpec* const> picks) {
  KnobSet set;
  for (const KnobSpec* k : picks) {
    set.insert(static_cast<std::size_t>(k - kRegistry));
  }
  return set;
}

std::vector<std::string> KnobSet::names() const {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < std::size(kRegistry); ++i) {
    if ((bits_ >> i & 1) != 0) out.emplace_back(kRegistry[i].name);
  }
  return out;
}

const KnobSpec* find_knob(const std::string& name) {
  for (const KnobSpec& k : kRegistry) {
    if (name == k.name) return &k;
  }
  return nullptr;
}

SeparationPolicy flip_knob(SeparationPolicy p, const KnobSpec& knob) {
  knob.set(p, !knob.is_hardened(p));
  return p;
}

std::vector<NamedPolicy> single_knob_ablations(
    const std::string& base_name, const SeparationPolicy& base) {
  std::vector<NamedPolicy> out;
  out.reserve(std::size(kRegistry));
  for (const KnobSpec& k : kRegistry) {
    out.push_back({base_name + "~" + k.name, flip_knob(base, k)});
  }
  return out;
}

SeparationPolicy random_policy(common::Rng& rng) {
  SeparationPolicy p;
  p.hidepid = static_cast<simos::HidepidMode>(rng.bounded(3));
  p.hidepid_gid_exemption = rng.chance(0.5);
  p.private_data.jobs = rng.chance(0.5);
  p.private_data.accounting = rng.chance(0.5);
  p.private_data.usage = rng.chance(0.5);
  switch (rng.bounded(3)) {
    case 0: p.sharing = sched::SharingPolicy::shared; break;
    case 1: p.sharing = sched::SharingPolicy::exclusive_job; break;
    default: p.sharing = sched::SharingPolicy::user_whole_node; break;
  }
  p.pam_slurm = rng.chance(0.5);
  p.fs.enforce_smask = rng.chance(0.5);
  p.fs.honor_smask = rng.chance(0.5);
  p.fs.restrict_acl = rng.chance(0.5);
  p.root_owned_homes = rng.chance(0.5);
  p.ubf = rng.chance(0.5);
  p.ubf_group_peers = rng.chance(0.5);
  p.gpu_dev_binding = rng.chance(0.5);
  p.gpu_epilog_scrub = rng.chance(0.5);
  return p;
}

std::vector<NamedPolicy> differential_sweep(std::size_t random_count,
                                            std::uint64_t seed) {
  std::vector<NamedPolicy> out;
  out.push_back({"baseline", SeparationPolicy::baseline()});
  out.push_back({"hardened", SeparationPolicy::hardened()});
  for (auto& np :
       single_knob_ablations("baseline", SeparationPolicy::baseline())) {
    out.push_back(std::move(np));
  }
  for (auto& np :
       single_knob_ablations("hardened", SeparationPolicy::hardened())) {
    out.push_back(std::move(np));
  }
  common::Rng rng(seed);
  for (std::size_t i = 0; i < random_count; ++i) {
    out.push_back(
        {common::strformat("random-%zu", i), random_policy(rng)});
  }
  return out;
}

std::string knob_value(const SeparationPolicy& p, const KnobSpec& knob) {
  if (std::string_view(knob.name) == knob::hidepid) {
    switch (p.hidepid) {
      case simos::HidepidMode::off: return "off";
      case simos::HidepidMode::restrict_contents: return "restrict";
      case simos::HidepidMode::invisible: return "invisible";
    }
    return "?";
  }
  if (std::string_view(knob.name) == knob::sharing) {
    return sched::to_string(p.sharing);
  }
  return knob.is_hardened(p) ? "1" : "0";
}

std::vector<std::pair<std::string, std::string>> knob_assignments(
    const SeparationPolicy& p) {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(std::size(kRegistry));
  for (const KnobSpec& k : kRegistry) {
    out.emplace_back(k.name, knob_value(p, k));
  }
  return out;
}

std::size_t policy_space_size() {
  // Two 3-valued enum knobs; every other registry knob is boolean.
  return 3 * 3 * (std::size_t{1} << kBoolKnobs.size());
}

SeparationPolicy policy_at(std::size_t index) {
  assert(index < policy_space_size());
  SeparationPolicy p;
  p.hidepid = static_cast<simos::HidepidMode>(index % 3);
  index /= 3;
  switch (index % 3) {
    case 0: p.sharing = sched::SharingPolicy::shared; break;
    case 1: p.sharing = sched::SharingPolicy::exclusive_job; break;
    default: p.sharing = sched::SharingPolicy::user_whole_node; break;
  }
  index /= 3;
  for (const KnobSpec* k : kBoolKnobs) {
    k->set(p, (index & 1) != 0);
    index >>= 1;
  }
  return p;
}

bool set_knob_from_string(SeparationPolicy& p, const std::string& name,
                          const std::string& value) {
  const KnobSpec* knob = find_knob(name);
  if (knob == nullptr) return false;
  if (name == knob::hidepid) {
    if (value == "off" || value == "0") {
      p.hidepid = simos::HidepidMode::off;
    } else if (value == "restrict" || value == "1") {
      p.hidepid = simos::HidepidMode::restrict_contents;
    } else if (value == "invisible" || value == "2") {
      p.hidepid = simos::HidepidMode::invisible;
    } else {
      return false;
    }
    return true;
  }
  if (name == knob::sharing) {
    if (value == "shared") {
      p.sharing = sched::SharingPolicy::shared;
    } else if (value == "exclusive") {
      p.sharing = sched::SharingPolicy::exclusive_job;
    } else if (value == "user-whole-node") {
      p.sharing = sched::SharingPolicy::user_whole_node;
    } else {
      return false;
    }
    return true;
  }
  if (value == "1" || value == "true" || value == "on") {
    knob->set(p, true);
    return true;
  }
  if (value == "0" || value == "false" || value == "off") {
    knob->set(p, false);
    return true;
  }
  return false;
}

std::string describe_policy(const SeparationPolicy& p) {
  std::vector<std::string> parts;
  parts.push_back(common::strformat(
      "hidepid=%d", static_cast<int>(p.hidepid)));
  parts.push_back(common::strformat("hidepid_gid_exemption=%d",
                                    p.hidepid_gid_exemption ? 1 : 0));
  parts.push_back(common::strformat("private_data.jobs=%d",
                                    p.private_data.jobs ? 1 : 0));
  parts.push_back(common::strformat("private_data.accounting=%d",
                                    p.private_data.accounting ? 1 : 0));
  parts.push_back(common::strformat("private_data.usage=%d",
                                    p.private_data.usage ? 1 : 0));
  parts.push_back(
      common::strformat("sharing=%s", sched::to_string(p.sharing)));
  parts.push_back(common::strformat("pam_slurm=%d", p.pam_slurm ? 1 : 0));
  parts.push_back(common::strformat("fs.enforce_smask=%d",
                                    p.fs.enforce_smask ? 1 : 0));
  parts.push_back(common::strformat("fs.honor_smask=%d",
                                    p.fs.honor_smask ? 1 : 0));
  parts.push_back(common::strformat("fs.restrict_acl=%d",
                                    p.fs.restrict_acl ? 1 : 0));
  parts.push_back(common::strformat("root_owned_homes=%d",
                                    p.root_owned_homes ? 1 : 0));
  parts.push_back(common::strformat("ubf=%d", p.ubf ? 1 : 0));
  parts.push_back(common::strformat("ubf_group_peers=%d",
                                    p.ubf_group_peers ? 1 : 0));
  parts.push_back(common::strformat("gpu_dev_binding=%d",
                                    p.gpu_dev_binding ? 1 : 0));
  parts.push_back(common::strformat("gpu_epilog_scrub=%d",
                                    p.gpu_epilog_scrub ? 1 : 0));
  return common::join(parts, " ");
}

}  // namespace heus::analyze
