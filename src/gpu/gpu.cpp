#include "gpu/gpu.h"

#include <algorithm>

namespace heus::gpu {

Result<void> GpuDevice::assign(Uid user) {
  if (assigned_) return Errno::ebusy;
  assigned_ = user;
  ++stats_.assignments;
  return ok_result();
}

Result<void> GpuDevice::release() {
  if (!assigned_) return Errno::einval;
  assigned_.reset();
  return ok_result();
}

Result<void> GpuDevice::write(Uid user, std::size_t offset,
                              std::string_view data) {
  // Bounds are compared without forming `offset + len`, which can wrap.
  if (offset > mem_bytes_ || data.size() > mem_bytes_ - offset) {
    return Errno::einval;
  }
  if (offset > memory_.size()) memory_.resize(offset);  // zero-fills the gap
  memory_.replace(offset, data.size(), data);
  last_writer_ = user;
  return ok_result();
}

Result<std::string> GpuDevice::read(Uid user, std::size_t offset,
                                    std::size_t len) {
  if (offset > mem_bytes_ || len > mem_bytes_ - offset) return Errno::einval;
  if (last_writer_ && *last_writer_ != user) {
    // The confidentiality failure the epilog scrub exists to prevent:
    // this read observes a previous tenant's bytes.
    ++stats_.residue_reads;
  }
  std::string out = memory_.substr(std::min(offset, memory_.size()), len);
  out.resize(len);  // zeros past the written extent
  return out;
}

std::int64_t GpuDevice::scrub() {
  memory_.clear();  // keeps the storage for the next tenant
  last_writer_.reset();
  ++stats_.scrubs;
  stats_.scrubbed_bytes += mem_bytes_;
  // Round up so even tiny (test-sized) buffers charge nonzero time.
  return std::max<std::int64_t>(
      1, static_cast<std::int64_t>(static_cast<double>(mem_bytes_) /
                                   kScrubBytesPerNs));
}

GpuSet::GpuSet(unsigned count, std::size_t mem_bytes_each) {
  devices_.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    devices_.emplace_back(GpuId{i}, mem_bytes_each);
  }
}

std::int64_t GpuSet::scrub_all(const std::vector<GpuId>& indices) {
  std::int64_t total = 0;
  for (GpuId g : indices) total += devices_.at(g.value()).scrub();
  return total;
}

}  // namespace heus::gpu
