// GPU memory-residue model (paper §IV-F).
#include "gpu/gpu.h"

#include <gtest/gtest.h>

#include <limits>

namespace heus::gpu {
namespace {

constexpr Uid kAlice{1000};
constexpr Uid kBob{1001};
constexpr Uid kCarol{1002};

TEST(GpuDevice, AssignReleaseLifecycle) {
  GpuDevice dev(GpuId{0}, 4096);
  EXPECT_FALSE(dev.assigned_to().has_value());
  ASSERT_TRUE(dev.assign(kAlice).ok());
  EXPECT_EQ(dev.assigned_to(), kAlice);
  // Double assignment is a scheduler bug: surfaced as EBUSY.
  EXPECT_EQ(dev.assign(kBob).error(), Errno::ebusy);
  ASSERT_TRUE(dev.release().ok());
  EXPECT_FALSE(dev.assigned_to().has_value());
  EXPECT_EQ(dev.release().error(), Errno::einval);
}

TEST(GpuDevice, WriteReadRoundTrip) {
  GpuDevice dev(GpuId{0}, 4096);
  ASSERT_TRUE(dev.assign(kAlice).ok());
  ASSERT_TRUE(dev.write(kAlice, 100, "model-weights").ok());
  EXPECT_EQ(*dev.read(kAlice, 100, 13), "model-weights");
}

TEST(GpuDevice, OutOfRangeAccessRejected) {
  GpuDevice dev(GpuId{0}, 16);
  ASSERT_TRUE(dev.assign(kAlice).ok());
  EXPECT_EQ(dev.write(kAlice, 10, "toolongpayload").error(),
            Errno::einval);
  EXPECT_EQ(dev.read(kAlice, 0, 17).error(), Errno::einval);
  // offset + len wraps past SIZE_MAX to a small sum; the bounds check must
  // not be fooled into a heap access far outside the device.
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  EXPECT_EQ(dev.read(kAlice, kMax, 2).error(), Errno::einval);
  EXPECT_EQ(dev.write(kAlice, kMax, "ab").error(), Errno::einval);
}

TEST(GpuDevice, ResidueSurvivesReleaseWithoutScrub) {
  // The paper's core §IV-F observation: GPUs do not clear memory between
  // tenants.
  GpuDevice dev(GpuId{0}, 4096);
  ASSERT_TRUE(dev.assign(kAlice).ok());
  ASSERT_TRUE(dev.write(kAlice, 0, "alices-private-tensor").ok());
  ASSERT_TRUE(dev.release().ok());
  EXPECT_TRUE(dev.dirty());
  EXPECT_EQ(dev.residue_owner(), kAlice);

  ASSERT_TRUE(dev.assign(kBob).ok());
  auto stolen = dev.read(kBob, 0, 21);
  ASSERT_TRUE(stolen.ok());
  EXPECT_EQ(*stolen, "alices-private-tensor");
  EXPECT_EQ(dev.stats().residue_reads, 1u);
}

TEST(GpuDevice, ScrubErasesResidue) {
  GpuDevice dev(GpuId{0}, 4096);
  ASSERT_TRUE(dev.assign(kAlice).ok());
  ASSERT_TRUE(dev.write(kAlice, 0, "secret").ok());
  ASSERT_TRUE(dev.release().ok());
  const std::int64_t cost = dev.scrub();
  EXPECT_GT(cost, 0);
  EXPECT_FALSE(dev.dirty());

  ASSERT_TRUE(dev.assign(kBob).ok());
  auto mem = dev.read(kBob, 0, 6);
  ASSERT_TRUE(mem.ok());
  EXPECT_EQ(*mem, std::string(6, '\0'));
  EXPECT_EQ(dev.stats().residue_reads, 0u);
  EXPECT_EQ(dev.stats().scrubbed_bytes, 4096u);
}

TEST(GpuDevice, FreshDeviceReadsZeroOverItsWholeSize) {
  GpuDevice dev(GpuId{0}, 4096);
  ASSERT_TRUE(dev.assign(kAlice).ok());
  auto mem = dev.read(kAlice, 0, dev.mem_bytes());
  ASSERT_TRUE(mem.ok());
  EXPECT_EQ(*mem, std::string(4096, '\0'));
  EXPECT_EQ(*dev.read(kAlice, 4096, 0), "");
  EXPECT_FALSE(dev.dirty());
}

TEST(GpuDevice, WriteNearTheEndReadsBackWithZerosBeforeIt) {
  GpuDevice dev(GpuId{0}, 4096);
  ASSERT_TRUE(dev.assign(kAlice).ok());
  ASSERT_TRUE(dev.write(kAlice, 4090, "tensor").ok());
  EXPECT_EQ(*dev.read(kAlice, 0, 4096), std::string(4090, '\0') + "tensor");
  EXPECT_EQ(dev.write(kAlice, 4091, "tensor").error(), Errno::einval);
}

TEST(GpuDevice, ShorterWriteLeavesEarlierResidueReadable) {
  // Without a scrub, a later tenant's shorter write overwrites only its
  // own range: the earlier tenant's bytes past it stay resident.
  GpuDevice dev(GpuId{0}, 4096);
  ASSERT_TRUE(dev.assign(kAlice).ok());
  ASSERT_TRUE(dev.write(kAlice, 0, "alices-private-tensor").ok());
  ASSERT_TRUE(dev.release().ok());
  ASSERT_TRUE(dev.assign(kBob).ok());
  ASSERT_TRUE(dev.write(kBob, 0, "bob").ok());
  ASSERT_TRUE(dev.release().ok());

  ASSERT_TRUE(dev.assign(kCarol).ok());
  EXPECT_EQ(*dev.read(kCarol, 0, 24), std::string("bobces-private-tensor") +
                                          std::string(3, '\0'));
  EXPECT_EQ(dev.stats().residue_reads, 1u);
  EXPECT_EQ(dev.residue_owner(), kBob);
}

TEST(GpuDevice, ScrubZeroesTheWrittenRangeAndEverythingPastIt) {
  GpuDevice dev(GpuId{0}, 4096);
  ASSERT_TRUE(dev.assign(kAlice).ok());
  ASSERT_TRUE(dev.write(kAlice, 100, "secret").ok());
  ASSERT_TRUE(dev.release().ok());
  (void)dev.scrub();

  ASSERT_TRUE(dev.assign(kBob).ok());
  EXPECT_EQ(*dev.read(kBob, 100, 6), std::string(6, '\0'));
  EXPECT_EQ(*dev.read(kBob, 106, 3990), std::string(3990, '\0'));
  EXPECT_EQ(*dev.read(kBob, 0, 4096), std::string(4096, '\0'));
  EXPECT_EQ(dev.stats().residue_reads, 0u);
}

TEST(GpuDevice, ScrubIsChargedForTheWholeDevice) {
  // The simulated cost is the vendor sweep of all of HBM, whatever the
  // model happens to store.
  constexpr std::size_t kMem = 1 << 20;
  const auto full_ns = static_cast<std::int64_t>(
      static_cast<double>(kMem) / kScrubBytesPerNs);
  GpuDevice touched(GpuId{0}, kMem);
  ASSERT_TRUE(touched.write(kAlice, 0, "weights").ok());
  EXPECT_EQ(touched.scrub(), full_ns);
  EXPECT_EQ(touched.stats().scrubbed_bytes, kMem);

  GpuDevice untouched(GpuId{1}, kMem);
  EXPECT_EQ(untouched.scrub(), full_ns);
  EXPECT_EQ(untouched.scrub(), full_ns);
  EXPECT_EQ(untouched.stats().scrubbed_bytes, 2 * kMem);
  EXPECT_EQ(untouched.stats().scrubs, 2u);
}

TEST(GpuDevice, ScrubCostScalesWithMemory) {
  GpuDevice small(GpuId{0}, 1 << 10);
  GpuDevice big(GpuId{1}, 1 << 20);
  EXPECT_GT(big.scrub(), small.scrub());
}

TEST(GpuDevice, OwnDataRereadIsNotResidue) {
  GpuDevice dev(GpuId{0}, 64);
  ASSERT_TRUE(dev.assign(kAlice).ok());
  ASSERT_TRUE(dev.write(kAlice, 0, "mine").ok());
  (void)dev.read(kAlice, 0, 4);
  EXPECT_EQ(dev.stats().residue_reads, 0u);
}

TEST(GpuSet, IndexedAccessAndScrubAll) {
  GpuSet set(4, 1024);
  EXPECT_EQ(set.size(), 4u);
  ASSERT_TRUE(set.at(2).assign(kAlice).ok());
  ASSERT_TRUE(set.at(2).write(kAlice, 0, "x").ok());
  ASSERT_TRUE(set.at(2).release().ok());
  const std::int64_t cost = set.scrub_all({GpuId{1}, GpuId{2}});
  EXPECT_GT(cost, 0);
  EXPECT_FALSE(set.at(2).dirty());
  EXPECT_EQ(set.at(1).stats().scrubs, 1u);
  EXPECT_EQ(set.at(0).stats().scrubs, 0u);
}

}  // namespace
}  // namespace heus::gpu
