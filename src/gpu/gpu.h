// Accelerator model (paper §IV-F).
//
// Two properties of real GPUs drive the design:
//  1. No internal ownership model: device memory has no concept of which
//     user's data it holds. Whoever can open the device can read all of it.
//  2. Memory is NOT cleared on reassignment: the previous job's data stays
//     resident in HBM and registers until something scrubs it.
//
// LLSC mitigates (1) by chgrp-ing the /dev character special files to the
// allocated user's private group (done by core::Cluster in the prolog) and
// (2) by running a vendor scrub in the scheduler epilog. The device model
// here keeps an actual byte buffer so tests can literally recover a
// previous tenant's plaintext when the scrub is disabled. The buffer holds
// only the written extent of device memory; every byte past it reads as
// zero, so a device costs nothing until a tenant writes to it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/ids.h"
#include "common/result.h"

namespace heus::gpu {

/// Simulated scrub bandwidth: vendor tools sweep HBM at roughly memory
/// bandwidth; 1.5 TB/s is an A100-class figure. Only ratios matter.
inline constexpr double kScrubBytesPerNs = 1500.0;  // 1.5 TB/s

struct GpuStats {
  std::uint64_t assignments = 0;
  std::uint64_t scrubs = 0;
  std::uint64_t scrubbed_bytes = 0;
  std::uint64_t residue_reads = 0;  ///< reads that returned foreign data
  std::uint64_t failed_scrubs = 0;  ///< vendor scrub tool failures (fault)
};

class GpuDevice {
 public:
  GpuDevice(GpuId id, std::size_t mem_bytes)
      : id_(id), mem_bytes_(mem_bytes) {}

  [[nodiscard]] GpuId id() const { return id_; }
  /// Logical device size: the range `write`/`read` accept and the bytes
  /// a scrub is charged for, however little of it is stored.
  [[nodiscard]] std::size_t mem_bytes() const { return mem_bytes_; }

  /// Scheduler prolog: hand the device to a user. The device itself does
  /// not scrub on assignment (property 2) — that is the epilog's job.
  Result<void> assign(Uid user);
  /// Scheduler epilog: release. Memory contents are left in place.
  Result<void> release();
  [[nodiscard]] std::optional<Uid> assigned_to() const { return assigned_; }

  /// cudaMemcpy-style access. Deliberately, there is NO ownership check
  /// here: real GPUs have no concept of data ownership inside device
  /// memory (paper §IV-F), so anyone who could open the /dev node (the
  /// VFS check, performed by the caller) gets the raw bytes. `user` is
  /// recorded purely for residue attribution.
  Result<void> write(Uid user, std::size_t offset, std::string_view data);
  Result<std::string> read(Uid user, std::size_t offset, std::size_t len);

  /// Vendor scrub: zero memory and registers. Returns the simulated
  /// duration in nanoseconds (proportional to `mem_bytes()`). The model
  /// drops the written extent, so the host-side cost does not depend on
  /// the device size.
  std::int64_t scrub();

  /// Record a failed scrub attempt (the epilog's fault path): memory is
  /// left intact — which is exactly why the node must then be held.
  void note_scrub_failure() { ++stats_.failed_scrubs; }

  /// Who last wrote resident data (survives release). nullopt = clean.
  [[nodiscard]] std::optional<Uid> residue_owner() const {
    return last_writer_;
  }
  [[nodiscard]] bool dirty() const { return last_writer_.has_value(); }

  [[nodiscard]] const GpuStats& stats() const { return stats_; }

 private:
  GpuId id_;
  std::size_t mem_bytes_;
  /// Device memory up to its written extent. `write` grows it (never
  /// shrinks it); `scrub` empties it.
  std::string memory_;
  std::optional<Uid> assigned_;
  std::optional<Uid> last_writer_;
  GpuStats stats_;
};

/// The GPUs of one node, indexed the way /dev/nvidia<N> is.
class GpuSet {
 public:
  GpuSet(unsigned count, std::size_t mem_bytes_each);

  [[nodiscard]] std::size_t size() const { return devices_.size(); }
  [[nodiscard]] GpuDevice& at(std::uint32_t index) {
    return devices_.at(index);
  }
  [[nodiscard]] const GpuDevice& at(std::uint32_t index) const {
    return devices_.at(index);
  }

  /// Epilog sweep: scrub every listed device; returns total simulated ns.
  std::int64_t scrub_all(const std::vector<GpuId>& indices);

 private:
  std::vector<GpuDevice> devices_;
};

}  // namespace heus::gpu
