// The five heus_e2e workloads. Each stresses a different set of layers;
// see README.md for why each exists and which metrics it should move.
#pragma once

#include <memory>

#include "harness.h"

namespace heus::e2e {

/// UBF admission, conntrack and GC on the sharded engine. `revoke` adds
/// membership churn and host resets in the serial phase (conn_revoke).
std::unique_ptr<Workload> make_conn(bool revoke, bool smoke,
                                    std::uint64_t seed);
/// Per-group schedulers: submit, step, PrivateData queries, pam_slurm.
std::unique_ptr<Workload> make_job_storm(bool smoke, std::uint64_t seed);
/// Scripted user sessions against one hardened core::Cluster.
std::unique_ptr<Workload> make_user_day(bool smoke, std::uint64_t seed);
/// The heus-lint --gate analysis over the whole policy lattice (the
/// lattice is the input; there is nothing random to draw).
std::unique_ptr<Workload> make_lint_gate(bool smoke);

}  // namespace heus::e2e
