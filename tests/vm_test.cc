// Tests for the VM layer: address maps, the Table 3-3 operations,
// copy-on-write (vm_copy, fork inheritance, out-of-line transfer), lazy zero
// fill, pageout under memory pressure through the default pager, and the
// statistics counters.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "src/base/fault_injector.h"
#include "src/kernel/kernel.h"
#include "src/kernel/task.h"
#include "src/pager/data_manager.h"
#include "src/vm/address_map.h"
#include "src/vm/vm_system.h"

namespace mach {
namespace {

constexpr VmSize kPage = 4096;

// --- AddressMap unit tests ---------------------------------------------------

class AddressMapTest : public ::testing::Test {
 protected:
  AddressMap map_{kPage, 1u << 20, kPage};

  MapEntry MakeEntry(VmOffset start, VmOffset end) {
    MapEntry e;
    e.start = start;
    e.end = end;
    return e;
  }
};

TEST_F(AddressMapTest, LookupEmpty) {
  EXPECT_EQ(map_.Lookup(0x5000), nullptr);
}

TEST_F(AddressMapTest, InsertAndLookup) {
  ASSERT_EQ(map_.Insert(MakeEntry(0x5000, 0x8000)), KernReturn::kSuccess);
  EXPECT_NE(map_.Lookup(0x5000), nullptr);
  EXPECT_NE(map_.Lookup(0x7FFF), nullptr);
  EXPECT_EQ(map_.Lookup(0x8000), nullptr);
  EXPECT_EQ(map_.Lookup(0x4FFF), nullptr);
}

TEST_F(AddressMapTest, InsertOverlapFails) {
  ASSERT_EQ(map_.Insert(MakeEntry(0x5000, 0x8000)), KernReturn::kSuccess);
  EXPECT_EQ(map_.Insert(MakeEntry(0x7000, 0x9000)), KernReturn::kNoSpace);
  EXPECT_EQ(map_.Insert(MakeEntry(0x4000, 0x6000)), KernReturn::kNoSpace);
  EXPECT_EQ(map_.Insert(MakeEntry(0x8000, 0x9000)), KernReturn::kSuccess);
}

TEST_F(AddressMapTest, FindSpaceSkipsUsedRanges) {
  ASSERT_EQ(map_.Insert(MakeEntry(kPage, kPage + 0x3000)), KernReturn::kSuccess);
  Result<VmOffset> found = map_.FindSpace(0x2000);
  ASSERT_TRUE(found.ok());
  EXPECT_GE(found.value(), kPage + 0x3000u);
}

TEST_F(AddressMapTest, FindSpaceHonoursHint) {
  Result<VmOffset> found = map_.FindSpace(0x1000, 0x50000);
  ASSERT_TRUE(found.ok());
  EXPECT_GE(found.value(), 0x50000u);
}

TEST_F(AddressMapTest, FindSpaceFailsWhenFull) {
  AddressMap tiny(kPage, 4 * kPage, kPage);
  ASSERT_EQ(tiny.Insert(MakeEntry(kPage, 4 * kPage)), KernReturn::kSuccess);
  EXPECT_EQ(tiny.FindSpace(kPage).status(), KernReturn::kNoSpace);
}

TEST_F(AddressMapTest, ClipSplitsEntriesAndPreservesOffsets) {
  MapEntry e = MakeEntry(0x10000, 0x14000);
  e.offset = 0x2000;
  ASSERT_EQ(map_.Insert(std::move(e)), KernReturn::kSuccess);
  std::vector<MapEntry*> clipped = map_.ClipRange(0x11000, 0x13000);
  ASSERT_EQ(clipped.size(), 1u);
  EXPECT_EQ(clipped[0]->start, 0x11000u);
  EXPECT_EQ(clipped[0]->end, 0x13000u);
  EXPECT_EQ(clipped[0]->offset, 0x3000u);
  EXPECT_EQ(map_.entry_count(), 3u);
  // Outer fragments intact.
  EXPECT_EQ(map_.Lookup(0x10000)->end, 0x11000u);
  EXPECT_EQ(map_.Lookup(0x13000)->end, 0x14000u);
  EXPECT_EQ(map_.Lookup(0x13000)->offset, 0x5000u);
}

TEST_F(AddressMapTest, RemoveRangeMiddle) {
  ASSERT_EQ(map_.Insert(MakeEntry(0x10000, 0x14000)), KernReturn::kSuccess);
  std::vector<MapEntry> removed = map_.RemoveRange(0x11000, 0x12000);
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0].start, 0x11000u);
  EXPECT_EQ(map_.Lookup(0x11000), nullptr);
  EXPECT_NE(map_.Lookup(0x10000), nullptr);
  EXPECT_NE(map_.Lookup(0x12000), nullptr);
}

TEST_F(AddressMapTest, RangeFullyCovered) {
  ASSERT_EQ(map_.Insert(MakeEntry(0x10000, 0x12000)), KernReturn::kSuccess);
  ASSERT_EQ(map_.Insert(MakeEntry(0x12000, 0x14000)), KernReturn::kSuccess);
  EXPECT_TRUE(map_.RangeFullyCovered(0x10000, 0x4000));
  EXPECT_TRUE(map_.RangeFullyCovered(0x11000, 0x2000));
  EXPECT_FALSE(map_.RangeFullyCovered(0x10000, 0x5000));
  EXPECT_FALSE(map_.RangeFullyCovered(0xF000, 0x2000));
}

// --- Task-level VM operation tests -------------------------------------------

class VmOpsTest : public ::testing::Test {
 protected:
  VmOpsTest() {
    Kernel::Config config;
    config.frames = 128;
    config.page_size = kPage;
    config.disk_latency = DiskLatencyModel{0, 0};
    kernel_ = std::make_unique<Kernel>(config);
    task_ = kernel_->CreateTask();
  }
  ~VmOpsTest() override { task_.reset(); }

  std::unique_ptr<Kernel> kernel_;
  std::shared_ptr<Task> task_;
};

TEST_F(VmOpsTest, AllocateAnywhereReturnsPageAligned) {
  Result<VmOffset> addr = task_->VmAllocate(3 * kPage);
  ASSERT_TRUE(addr.ok());
  EXPECT_EQ(addr.value() % kPage, 0u);
}

TEST_F(VmOpsTest, AllocateZeroSizeFails) {
  EXPECT_EQ(task_->VmAllocate(0).status(), KernReturn::kInvalidArgument);
}

TEST_F(VmOpsTest, AllocateAtFixedAddress) {
  Result<VmOffset> addr = task_->VmAllocate(kPage, /*anywhere=*/false, 0x40000);
  ASSERT_TRUE(addr.ok());
  EXPECT_EQ(addr.value(), 0x40000u);
  // Same place again: no space.
  EXPECT_EQ(task_->VmAllocate(kPage, false, 0x40000).status(), KernReturn::kNoSpace);
}

TEST_F(VmOpsTest, NewMemoryIsZeroFilled) {
  VmOffset addr = task_->VmAllocate(2 * kPage).value();
  std::vector<uint8_t> buf(2 * kPage, 0xFF);
  ASSERT_EQ(task_->Read(addr, buf.data(), buf.size()), KernReturn::kSuccess);
  for (uint8_t b : buf) {
    ASSERT_EQ(b, 0);
  }
}

TEST_F(VmOpsTest, WriteThenReadRoundTrip) {
  VmOffset addr = task_->VmAllocate(4 * kPage).value();
  std::vector<uint8_t> data(4 * kPage);
  std::iota(data.begin(), data.end(), 0);
  ASSERT_EQ(task_->Write(addr, data.data(), data.size()), KernReturn::kSuccess);
  std::vector<uint8_t> out(4 * kPage);
  ASSERT_EQ(task_->Read(addr, out.data(), out.size()), KernReturn::kSuccess);
  EXPECT_EQ(data, out);
}

TEST_F(VmOpsTest, UnalignedAccessSpanningPages) {
  VmOffset addr = task_->VmAllocate(2 * kPage).value();
  uint64_t v = 0x1122334455667788ull;
  ASSERT_EQ(task_->Write(addr + kPage - 3, &v, sizeof(v)), KernReturn::kSuccess);
  uint64_t out = 0;
  ASSERT_EQ(task_->Read(addr + kPage - 3, &out, sizeof(out)), KernReturn::kSuccess);
  EXPECT_EQ(out, v);
}

TEST_F(VmOpsTest, AccessUnallocatedFails) {
  uint32_t v;
  EXPECT_EQ(task_->Read(0x7FFF0000, &v, sizeof(v)), KernReturn::kInvalidAddress);
  EXPECT_EQ(task_->Write(0x7FFF0000, &v, sizeof(v)), KernReturn::kInvalidAddress);
}

TEST_F(VmOpsTest, DeallocateInvalidatesRange) {
  VmOffset addr = task_->VmAllocate(2 * kPage).value();
  uint32_t v = 7;
  ASSERT_EQ(task_->Write(addr, &v, sizeof(v)), KernReturn::kSuccess);
  ASSERT_EQ(task_->VmDeallocate(addr, 2 * kPage), KernReturn::kSuccess);
  EXPECT_EQ(task_->Read(addr, &v, sizeof(v)), KernReturn::kInvalidAddress);
}

TEST_F(VmOpsTest, PartialDeallocateKeepsRest) {
  VmOffset addr = task_->VmAllocate(3 * kPage).value();
  uint32_t v = 9;
  ASSERT_EQ(task_->Write(addr + 2 * kPage, &v, sizeof(v)), KernReturn::kSuccess);
  ASSERT_EQ(task_->VmDeallocate(addr, kPage), KernReturn::kSuccess);
  uint32_t out = 0;
  EXPECT_EQ(task_->Read(addr, &out, sizeof(out)), KernReturn::kInvalidAddress);
  EXPECT_EQ(task_->Read(addr + 2 * kPage, &out, sizeof(out)), KernReturn::kSuccess);
  EXPECT_EQ(out, 9u);
}

TEST_F(VmOpsTest, ProtectReadOnlyBlocksWrites) {
  VmOffset addr = task_->VmAllocate(kPage).value();
  uint32_t v = 5;
  ASSERT_EQ(task_->Write(addr, &v, sizeof(v)), KernReturn::kSuccess);
  ASSERT_EQ(task_->VmProtect(addr, kPage, false, kVmProtRead), KernReturn::kSuccess);
  EXPECT_EQ(task_->Write(addr, &v, sizeof(v)), KernReturn::kProtectionFailure);
  uint32_t out = 0;
  EXPECT_EQ(task_->Read(addr, &out, sizeof(out)), KernReturn::kSuccess);
  EXPECT_EQ(out, 5u);
  // Restore write access: allowed because max_protection still includes it.
  ASSERT_EQ(task_->VmProtect(addr, kPage, false, kVmProtDefault), KernReturn::kSuccess);
  v = 6;
  EXPECT_EQ(task_->Write(addr, &v, sizeof(v)), KernReturn::kSuccess);
}

TEST_F(VmOpsTest, SetMaxProtectionIsIrrevocable) {
  VmOffset addr = task_->VmAllocate(kPage).value();
  ASSERT_EQ(task_->VmProtect(addr, kPage, /*set_max=*/true, kVmProtRead), KernReturn::kSuccess);
  // Cannot raise protection beyond the new maximum.
  EXPECT_EQ(task_->VmProtect(addr, kPage, false, kVmProtDefault),
            KernReturn::kProtectionFailure);
  uint32_t v = 1;
  EXPECT_EQ(task_->Write(addr, &v, sizeof(v)), KernReturn::kProtectionFailure);
}

TEST_F(VmOpsTest, ProtectSubrangeSplitsEntry) {
  VmOffset addr = task_->VmAllocate(3 * kPage).value();
  ASSERT_EQ(task_->VmProtect(addr + kPage, kPage, false, kVmProtRead), KernReturn::kSuccess);
  uint32_t v = 3;
  EXPECT_EQ(task_->Write(addr, &v, sizeof(v)), KernReturn::kSuccess);
  EXPECT_EQ(task_->Write(addr + kPage, &v, sizeof(v)), KernReturn::kProtectionFailure);
  EXPECT_EQ(task_->Write(addr + 2 * kPage, &v, sizeof(v)), KernReturn::kSuccess);
}

TEST_F(VmOpsTest, ProtectUnallocatedFails) {
  EXPECT_EQ(task_->VmProtect(0x7F000000, kPage, false, kVmProtRead),
            KernReturn::kInvalidAddress);
}

TEST_F(VmOpsTest, VmReadWriteKernelPath) {
  // vm_read/vm_write work without the task ever touching the memory.
  VmOffset addr = task_->VmAllocate(2 * kPage).value();
  std::vector<uint8_t> data(100, 0xAB);
  ASSERT_EQ(task_->VmWrite(addr + 50, data.data(), data.size()), KernReturn::kSuccess);
  std::vector<uint8_t> out(100);
  ASSERT_EQ(task_->VmRead(addr + 50, out.data(), out.size()), KernReturn::kSuccess);
  EXPECT_EQ(data, out);
  // And the user view agrees.
  std::vector<uint8_t> user(100);
  ASSERT_EQ(task_->Read(addr + 50, user.data(), user.size()), KernReturn::kSuccess);
  EXPECT_EQ(data, user);
}

TEST_F(VmOpsTest, VmCopyCreatesIndependentCopy) {
  VmOffset src = task_->VmAllocate(2 * kPage).value();
  VmOffset dst = task_->VmAllocate(2 * kPage).value();
  uint32_t v = 0xCAFE;
  ASSERT_EQ(task_->Write(src, &v, sizeof(v)), KernReturn::kSuccess);
  ASSERT_EQ(task_->VmCopy(src, 2 * kPage, dst), KernReturn::kSuccess);
  uint32_t out = 0;
  ASSERT_EQ(task_->Read(dst, &out, sizeof(out)), KernReturn::kSuccess);
  EXPECT_EQ(out, 0xCAFEu);
  // Writes to the copy do not affect the original, and vice versa.
  uint32_t v2 = 0xBEEF;
  ASSERT_EQ(task_->Write(dst, &v2, sizeof(v2)), KernReturn::kSuccess);
  ASSERT_EQ(task_->Read(src, &out, sizeof(out)), KernReturn::kSuccess);
  EXPECT_EQ(out, 0xCAFEu);
  uint32_t v3 = 0xF00D;
  ASSERT_EQ(task_->Write(src, &v3, sizeof(v3)), KernReturn::kSuccess);
  ASSERT_EQ(task_->Read(dst, &out, sizeof(out)), KernReturn::kSuccess);
  EXPECT_EQ(out, 0xBEEFu);
}

TEST_F(VmOpsTest, VmCopyIsLazy) {
  // Copying a large region must not copy pages eagerly: the copy-on-write
  // fault count only grows when pages are actually written.
  VmOffset src = task_->VmAllocate(16 * kPage).value();
  std::vector<uint8_t> data(16 * kPage, 0x11);
  ASSERT_EQ(task_->Write(src, data.data(), data.size()), KernReturn::kSuccess);
  VmOffset dst = task_->VmAllocate(16 * kPage).value();
  uint64_t cow_before = task_->VmStats().cow_faults;
  ASSERT_EQ(task_->VmCopy(src, 16 * kPage, dst), KernReturn::kSuccess);
  EXPECT_EQ(task_->VmStats().cow_faults, cow_before);
  // Touch one page of the copy: exactly that page is copied.
  uint32_t v = 1;
  ASSERT_EQ(task_->Write(dst + 5 * kPage, &v, sizeof(v)), KernReturn::kSuccess);
  EXPECT_EQ(task_->VmStats().cow_faults, cow_before + 1);
}

TEST_F(VmOpsTest, RegionsReflectState) {
  VmOffset a = task_->VmAllocate(kPage).value();
  VmOffset b = task_->VmAllocate(2 * kPage).value();
  ASSERT_EQ(task_->VmProtect(b, 2 * kPage, false, kVmProtRead), KernReturn::kSuccess);
  ASSERT_EQ(task_->VmInherit(a, kPage, VmInherit::kShare), KernReturn::kSuccess);
  std::vector<RegionInfo> regions = task_->VmRegions();
  ASSERT_EQ(regions.size(), 2u);
  EXPECT_EQ(regions[0].start, a);
  EXPECT_EQ(regions[0].inheritance, VmInherit::kShare);
  EXPECT_EQ(regions[1].start, b);
  EXPECT_EQ(regions[1].protection, kVmProtRead);
}

TEST_F(VmOpsTest, StatisticsTrackFaultsAndZeroFills) {
  VmStatistics before = task_->VmStats();
  VmOffset addr = task_->VmAllocate(4 * kPage).value();
  std::vector<uint8_t> buf(4 * kPage);
  ASSERT_EQ(task_->Read(addr, buf.data(), buf.size()), KernReturn::kSuccess);
  VmStatistics after = task_->VmStats();
  EXPECT_GE(after.faults, before.faults + 4);
  EXPECT_GE(after.zero_fill_count, before.zero_fill_count + 4);
  EXPECT_EQ(after.page_size, kPage);
}

// --- fork / inheritance -------------------------------------------------------

TEST_F(VmOpsTest, ForkCopyInheritanceIsCopyOnWrite) {
  VmOffset addr = task_->VmAllocate(2 * kPage).value();
  uint32_t v = 41;
  ASSERT_EQ(task_->Write(addr, &v, sizeof(v)), KernReturn::kSuccess);

  std::shared_ptr<Task> child = kernel_->CreateTask(task_);
  uint32_t out = 0;
  ASSERT_EQ(child->Read(addr, &out, sizeof(out)), KernReturn::kSuccess);
  EXPECT_EQ(out, 41u);

  // Child writes do not affect the parent.
  uint32_t cv = 42;
  ASSERT_EQ(child->Write(addr, &cv, sizeof(cv)), KernReturn::kSuccess);
  ASSERT_EQ(task_->Read(addr, &out, sizeof(out)), KernReturn::kSuccess);
  EXPECT_EQ(out, 41u);

  // Parent writes do not affect the child.
  uint32_t pv = 43;
  ASSERT_EQ(task_->Write(addr, &pv, sizeof(pv)), KernReturn::kSuccess);
  ASSERT_EQ(child->Read(addr, &out, sizeof(out)), KernReturn::kSuccess);
  EXPECT_EQ(out, 42u);
}

TEST_F(VmOpsTest, ForkShareInheritanceIsReadWriteShared) {
  VmOffset addr = task_->VmAllocate(kPage).value();
  ASSERT_EQ(task_->VmInherit(addr, kPage, VmInherit::kShare), KernReturn::kSuccess);
  uint32_t v = 10;
  ASSERT_EQ(task_->Write(addr, &v, sizeof(v)), KernReturn::kSuccess);

  std::shared_ptr<Task> child = kernel_->CreateTask(task_);
  uint32_t out = 0;
  ASSERT_EQ(child->Read(addr, &out, sizeof(out)), KernReturn::kSuccess);
  EXPECT_EQ(out, 10u);

  // Writes propagate both ways (read/write sharing, §3.3).
  uint32_t cv = 20;
  ASSERT_EQ(child->Write(addr, &cv, sizeof(cv)), KernReturn::kSuccess);
  ASSERT_EQ(task_->Read(addr, &out, sizeof(out)), KernReturn::kSuccess);
  EXPECT_EQ(out, 20u);
  uint32_t pv = 30;
  ASSERT_EQ(task_->Write(addr, &pv, sizeof(pv)), KernReturn::kSuccess);
  ASSERT_EQ(child->Read(addr, &out, sizeof(out)), KernReturn::kSuccess);
  EXPECT_EQ(out, 30u);
}

TEST_F(VmOpsTest, ForkNoneInheritanceLeavesHole) {
  VmOffset addr = task_->VmAllocate(kPage).value();
  ASSERT_EQ(task_->VmInherit(addr, kPage, VmInherit::kNone), KernReturn::kSuccess);
  std::shared_ptr<Task> child = kernel_->CreateTask(task_);
  uint32_t out = 0;
  EXPECT_EQ(child->Read(addr, &out, sizeof(out)), KernReturn::kInvalidAddress);
}

TEST_F(VmOpsTest, ShareInheritanceSurvivesGrandchildren) {
  VmOffset addr = task_->VmAllocate(kPage).value();
  ASSERT_EQ(task_->VmInherit(addr, kPage, VmInherit::kShare), KernReturn::kSuccess);
  std::shared_ptr<Task> child = kernel_->CreateTask(task_);
  std::shared_ptr<Task> grandchild = kernel_->CreateTask(child);
  uint32_t v = 77;
  ASSERT_EQ(grandchild->Write(addr, &v, sizeof(v)), KernReturn::kSuccess);
  uint32_t out = 0;
  ASSERT_EQ(task_->Read(addr, &out, sizeof(out)), KernReturn::kSuccess);
  EXPECT_EQ(out, 77u);
}

TEST_F(VmOpsTest, MixedInheritanceRegions) {
  VmOffset shared = task_->VmAllocate(kPage).value();
  VmOffset copied = task_->VmAllocate(kPage).value();
  ASSERT_EQ(task_->VmInherit(shared, kPage, VmInherit::kShare), KernReturn::kSuccess);
  uint32_t v = 1;
  ASSERT_EQ(task_->Write(shared, &v, sizeof(v)), KernReturn::kSuccess);
  v = 2;
  ASSERT_EQ(task_->Write(copied, &v, sizeof(v)), KernReturn::kSuccess);
  std::shared_ptr<Task> child = kernel_->CreateTask(task_);
  uint32_t w = 100;
  ASSERT_EQ(child->Write(shared, &w, sizeof(w)), KernReturn::kSuccess);
  w = 200;
  ASSERT_EQ(child->Write(copied, &w, sizeof(w)), KernReturn::kSuccess);
  uint32_t out = 0;
  ASSERT_EQ(task_->Read(shared, &out, sizeof(out)), KernReturn::kSuccess);
  EXPECT_EQ(out, 100u);  // Shared: parent sees child write.
  ASSERT_EQ(task_->Read(copied, &out, sizeof(out)), KernReturn::kSuccess);
  EXPECT_EQ(out, 2u);  // Copied: parent unaffected.
}

// --- out-of-line transfer -----------------------------------------------------

TEST_F(VmOpsTest, OolTransferBetweenTasks) {
  std::shared_ptr<Task> receiver = kernel_->CreateTask();
  VmOffset src = task_->VmAllocate(2 * kPage).value();
  std::vector<uint8_t> data(2 * kPage, 0x5A);
  ASSERT_EQ(task_->Write(src, data.data(), data.size()), KernReturn::kSuccess);

  auto copy = kernel_->vm().CopyIn(task_->vm_context(), src, 2 * kPage);
  ASSERT_TRUE(copy.ok());
  Result<VmOffset> dst = kernel_->vm().CopyOut(receiver->vm_context(), copy.value());
  ASSERT_TRUE(dst.ok());

  std::vector<uint8_t> out(2 * kPage);
  ASSERT_EQ(receiver->Read(dst.value(), out.data(), out.size()), KernReturn::kSuccess);
  EXPECT_EQ(out, data);
}

TEST_F(VmOpsTest, OolTransferIsCopyOnWrite) {
  std::shared_ptr<Task> receiver = kernel_->CreateTask();
  VmOffset src = task_->VmAllocate(kPage).value();
  uint32_t v = 111;
  ASSERT_EQ(task_->Write(src, &v, sizeof(v)), KernReturn::kSuccess);

  auto copy = kernel_->vm().CopyIn(task_->vm_context(), src, kPage);
  ASSERT_TRUE(copy.ok());
  // Sender modifies after copyin: receiver must still see the old value.
  uint32_t v2 = 222;
  ASSERT_EQ(task_->Write(src, &v2, sizeof(v2)), KernReturn::kSuccess);

  Result<VmOffset> dst = kernel_->vm().CopyOut(receiver->vm_context(), copy.value());
  ASSERT_TRUE(dst.ok());
  uint32_t out = 0;
  ASSERT_EQ(receiver->Read(dst.value(), &out, sizeof(out)), KernReturn::kSuccess);
  EXPECT_EQ(out, 111u);
}

TEST_F(VmOpsTest, OolCopyConsumedOnlyOnce) {
  VmOffset src = task_->VmAllocate(kPage).value();
  auto copy = kernel_->vm().CopyIn(task_->vm_context(), src, kPage);
  ASSERT_TRUE(copy.ok());
  ASSERT_TRUE(kernel_->vm().CopyOut(task_->vm_context(), copy.value()).ok());
  EXPECT_EQ(kernel_->vm().CopyOut(task_->vm_context(), copy.value()).status(),
            KernReturn::kInvalidArgument);
}

TEST_F(VmOpsTest, OolUnalignedFails) {
  VmOffset src = task_->VmAllocate(kPage).value();
  EXPECT_EQ(kernel_->vm().CopyIn(task_->vm_context(), src + 1, kPage).status(),
            KernReturn::kInvalidArgument);
  EXPECT_EQ(kernel_->vm().CopyIn(task_->vm_context(), src, 100).status(),
            KernReturn::kInvalidArgument);
}

TEST_F(VmOpsTest, OolDroppedWithoutConsumingReleasesRefs) {
  VmOffset src = task_->VmAllocate(kPage).value();
  uint32_t v = 1;
  ASSERT_EQ(task_->Write(src, &v, sizeof(v)), KernReturn::kSuccess);
  {
    auto copy = kernel_->vm().CopyIn(task_->vm_context(), src, kPage);
    ASSERT_TRUE(copy.ok());
  }  // Dropped unconsumed.
  // The source must still be fully usable afterwards.
  uint32_t v2 = 2;
  ASSERT_EQ(task_->Write(src, &v2, sizeof(v2)), KernReturn::kSuccess);
  uint32_t out = 0;
  ASSERT_EQ(task_->Read(src, &out, sizeof(out)), KernReturn::kSuccess);
  EXPECT_EQ(out, 2u);
}

// --- memory pressure / pageout ------------------------------------------------

class PageoutTest : public ::testing::Test {
 protected:
  PageoutTest() {
    Kernel::Config config;
    config.frames = 32;  // Small memory: force paging.
    config.page_size = kPage;
    config.disk_latency = DiskLatencyModel{0, 0};
    kernel_ = std::make_unique<Kernel>(config);
    task_ = kernel_->CreateTask();
  }
  ~PageoutTest() override { task_.reset(); }

  std::unique_ptr<Kernel> kernel_;
  std::shared_ptr<Task> task_;
};

TEST_F(PageoutTest, AnonymousMemoryLargerThanPhysical) {
  // 3x physical memory of anonymous data, written and verified: pages must
  // round-trip through the default pager.
  constexpr VmSize kPages = 96;
  VmOffset addr = task_->VmAllocate(kPages * kPage).value();
  for (VmOffset p = 0; p < kPages; ++p) {
    uint64_t stamp = 0xA000000000000000ull + p;
    ASSERT_EQ(task_->Write(addr + p * kPage + 8, &stamp, sizeof(stamp)), KernReturn::kSuccess);
  }
  for (VmOffset p = 0; p < kPages; ++p) {
    uint64_t out = 0;
    ASSERT_EQ(task_->Read(addr + p * kPage + 8, &out, sizeof(out)), KernReturn::kSuccess);
    ASSERT_EQ(out, 0xA000000000000000ull + p) << "page " << p;
  }
  // The default pager must have really been exercised.
  EXPECT_GT(kernel_->default_pager().pageout_count(), 0u);
  EXPECT_GT(kernel_->default_pager().pagein_count(), 0u);
}

TEST_F(PageoutTest, RandomAccessAgainstReferenceModel) {
  // Property test: a random workload over paged memory matches a flat
  // reference model byte for byte.
  constexpr VmSize kPages = 64;
  VmOffset addr = task_->VmAllocate(kPages * kPage).value();
  std::vector<uint8_t> model(kPages * kPage, 0);
  std::mt19937 rng(12345);
  std::uniform_int_distribution<VmOffset> off_dist(0, kPages * kPage - 64);
  for (int i = 0; i < 500; ++i) {
    VmOffset off = off_dist(rng);
    if (rng() % 2 == 0) {
      uint8_t value = static_cast<uint8_t>(rng());
      std::vector<uint8_t> chunk(1 + rng() % 64, value);
      ASSERT_EQ(task_->Write(addr + off, chunk.data(), chunk.size()), KernReturn::kSuccess);
      std::memcpy(model.data() + off, chunk.data(), chunk.size());
    } else {
      std::vector<uint8_t> chunk(1 + rng() % 64);
      ASSERT_EQ(task_->Read(addr + off, chunk.data(), chunk.size()), KernReturn::kSuccess);
      ASSERT_EQ(std::memcmp(chunk.data(), model.data() + off, chunk.size()), 0)
          << "mismatch at offset " << off << " iteration " << i;
    }
  }
}

TEST_F(PageoutTest, CowPagesSurvivePageout) {
  // COW-forked data must stay correct even when both copies get paged out.
  constexpr VmSize kPages = 24;
  VmOffset addr = task_->VmAllocate(kPages * kPage).value();
  for (VmOffset p = 0; p < kPages; ++p) {
    uint32_t v = 1000 + static_cast<uint32_t>(p);
    ASSERT_EQ(task_->Write(addr + p * kPage, &v, sizeof(v)), KernReturn::kSuccess);
  }
  std::shared_ptr<Task> child = kernel_->CreateTask(task_);
  // Child overwrites every other page.
  for (VmOffset p = 0; p < kPages; p += 2) {
    uint32_t v = 2000 + static_cast<uint32_t>(p);
    ASSERT_EQ(child->Write(addr + p * kPage, &v, sizeof(v)), KernReturn::kSuccess);
  }
  // Blow the cache with extra traffic.
  VmOffset extra = task_->VmAllocate(48 * kPage).value();
  std::vector<uint8_t> junk(48 * kPage, 0x77);
  ASSERT_EQ(task_->Write(extra, junk.data(), junk.size()), KernReturn::kSuccess);
  // Verify both sides.
  for (VmOffset p = 0; p < kPages; ++p) {
    uint32_t parent = 0, kid = 0;
    ASSERT_EQ(task_->Read(addr + p * kPage, &parent, sizeof(parent)), KernReturn::kSuccess);
    ASSERT_EQ(child->Read(addr + p * kPage, &kid, sizeof(kid)), KernReturn::kSuccess);
    EXPECT_EQ(parent, 1000 + p) << "parent page " << p;
    EXPECT_EQ(kid, (p % 2 == 0 ? 2000 + p : 1000 + p)) << "child page " << p;
  }
}

TEST_F(PageoutTest, StatisticsShowPagingActivity) {
  VmOffset addr = task_->VmAllocate(80 * kPage).value();
  std::vector<uint8_t> junk(80 * kPage, 0x33);
  ASSERT_EQ(task_->Write(addr, junk.data(), junk.size()), KernReturn::kSuccess);
  std::vector<uint8_t> out(80 * kPage);
  ASSERT_EQ(task_->Read(addr, out.data(), out.size()), KernReturn::kSuccess);
  VmStatistics st = task_->VmStats();
  EXPECT_GT(st.pageouts, 0u);
  EXPECT_GT(st.pageins, 0u);
}

// --- shadow-chain collapse ----------------------------------------------------

class ShadowCollapseTest : public ::testing::Test {
 protected:
  std::unique_ptr<Kernel> MakeKernel(FaultInjector* inj = nullptr) {
    Kernel::Config config;
    config.frames = 512;
    config.page_size = kPage;
    config.disk_latency = DiskLatencyModel{0, 0};
    config.fault_injector = inj;
    return std::make_unique<Kernel>(config);
  }

  // Forks `depth` generations, each writing one page then orphaning its
  // parent, and returns the survivor.
  std::shared_ptr<Task> BuildDyingChain(Kernel& kernel, int depth, VmOffset* base) {
    auto task = kernel.CreateTask(nullptr, "gen0");
    *base = task->VmAllocate(4 * kPage).value();
    for (VmOffset p = 0; p < 4; ++p) {
      EXPECT_EQ(task->WriteValue<uint64_t>(*base + p * kPage, p + 1), KernReturn::kSuccess);
    }
    for (int g = 1; g <= depth; ++g) {
      auto child = kernel.CreateTask(task);
      EXPECT_EQ(child->WriteValue<uint64_t>(*base + (1 + g % 3) * kPage, 1000 + g),
                KernReturn::kSuccess);
      task = child;  // Parent dies here.
    }
    return task;
  }
};

TEST_F(ShadowCollapseTest, DeadParentPagesMigrateIntoSurvivingChild) {
  auto kernel = MakeKernel();
  VmOffset base = 0;
  auto gen0 = kernel->CreateTask(nullptr, "gen0");
  base = gen0->VmAllocate(2 * kPage).value();
  ASSERT_EQ(gen0->WriteValue<uint64_t>(base, 11), KernReturn::kSuccess);
  ASSERT_EQ(gen0->WriteValue<uint64_t>(base + kPage, 22), KernReturn::kSuccess);
  auto gen1 = kernel->CreateTask(gen0);
  ASSERT_EQ(gen1->WriteValue<uint64_t>(base + kPage, 33), KernReturn::kSuccess);

  gen0.reset();  // Death drops the bottom object to a sole shadow reference.
  VmStatistics st = kernel->vm().Statistics();
  EXPECT_GE(st.shadow_collapses, 1u);
  // Page 0 existed only in the dead parent: it must have been migrated, not
  // copied, and the child's private page 1 must have shadowed the original.
  EXPECT_GE(st.pages_migrated, 1u);
  EXPECT_EQ(gen1->ReadValue<uint64_t>(base).value(), 11u);
  EXPECT_EQ(gen1->ReadValue<uint64_t>(base + kPage).value(), 33u);
  EXPECT_EQ(kernel->vm().ShadowChainLength(gen1->vm_context(), base), 1u);
}

TEST_F(ShadowCollapseTest, FullyCoveringShadowBypassesItsChainEvenWhileParentLives) {
  auto kernel = MakeKernel();
  auto parent = kernel->CreateTask(nullptr, "parent");
  VmOffset base = parent->VmAllocate(2 * kPage).value();
  ASSERT_EQ(parent->WriteValue<uint64_t>(base, 1), KernReturn::kSuccess);
  ASSERT_EQ(parent->WriteValue<uint64_t>(base + kPage, 2), KernReturn::kSuccess);
  auto child = kernel->CreateTask(parent);
  // The child overwrites every page, so its shadow fully covers itself and
  // no longer needs the chain below — even though the parent is still alive.
  ASSERT_EQ(child->WriteValue<uint64_t>(base, 10), KernReturn::kSuccess);
  ASSERT_EQ(child->WriteValue<uint64_t>(base + kPage, 20), KernReturn::kSuccess);

  VmStatistics st = kernel->vm().Statistics();
  EXPECT_GE(st.shadow_bypasses, 1u);
  EXPECT_EQ(kernel->vm().ShadowChainLength(child->vm_context(), base), 1u);
  // Both views stay intact: bypass only drops a reference, never pages.
  EXPECT_EQ(parent->ReadValue<uint64_t>(base).value(), 1u);
  EXPECT_EQ(parent->ReadValue<uint64_t>(base + kPage).value(), 2u);
  EXPECT_EQ(child->ReadValue<uint64_t>(base).value(), 10u);
  EXPECT_EQ(child->ReadValue<uint64_t>(base + kPage).value(), 20u);
}

TEST_F(ShadowCollapseTest, InjectedCollapseFaultDeniesSafely) {
  FaultInjector inj(42);
  inj.SetProbability(VmSystem::kFaultCollapse, 1.0);
  auto kernel = MakeKernel(&inj);
  VmOffset base = 0;
  auto survivor = BuildDyingChain(*kernel, 8, &base);
  // Every collapse attempt was suppressed: the chain survives deep, the
  // denial counter records the suppressions, and no data is disturbed.
  VmStatistics st = kernel->vm().Statistics();
  EXPECT_EQ(st.shadow_collapses, 0u);
  EXPECT_EQ(st.shadow_bypasses, 0u);
  EXPECT_GT(st.collapse_denied, 0u);
  EXPECT_GT(inj.Injected(VmSystem::kFaultCollapse), 0u);
  EXPECT_GE(kernel->vm().ShadowChainLength(survivor->vm_context(), base), 8u);
  EXPECT_EQ(survivor->ReadValue<uint64_t>(base).value(), 1u);
}

// Serves every page filled with a per-page stamp byte, so reads that truly
// reach the manager are distinguishable from zero fill and from COW copies.
class PatternPager : public DataManager {
 public:
  PatternPager() : DataManager("pattern-pager") {}
  SendRight NewObject() { return CreateMemoryObject(1); }
  static uint8_t StampFor(VmOffset offset) {
    return static_cast<uint8_t>(0xA0 + (offset / kPage));
  }

 protected:
  void OnDataRequest(uint64_t, uint64_t, PagerDataRequestArgs args) override {
    std::vector<std::byte> data(args.length, std::byte{StampFor(args.offset)});
    ProvideData(args.pager_request_port, args.offset, std::move(data), kVmProtNone);
  }
};

TEST_F(ShadowCollapseTest, ExternalPagerBackedShadowIsNeverSpliced) {
  // A chain of dying forks over an external-pager-backed region: the
  // intermediate anonymous shadows collapse away as usual, but the pager's
  // own object must never be spliced into a child — the manager's holdings
  // can't be enumerated, so a splice would silently drop data the manager
  // still owns. The chain bottoms out at the pager object, unwritten pages
  // keep reading through to the manager, and the denial is observable.
  auto kernel = MakeKernel();
  PatternPager pager;
  pager.Start();
  SendRight object = pager.NewObject();
  auto task = kernel->CreateTask(nullptr, "gen0");
  VmOffset base = task->VmAllocateWithPager(4 * kPage, object, 0).value();
  for (int g = 1; g <= 6; ++g) {
    auto child = kernel->CreateTask(task);
    // Pages 1-3 get COW writes; page 0 is only ever read through the chain.
    VmOffset p = 1 + (g % 3);
    ASSERT_EQ(child->WriteValue<uint64_t>(base + p * kPage, 100 + g), KernReturn::kSuccess);
    task = child;  // The parent dies: a collapse opportunity each time.
  }
  VmStatistics st = kernel->vm().Statistics();
  // The anonymous shadows above the pager object did collapse...
  EXPECT_GE(st.shadow_collapses, 1u);
  // ...but every walk that reached the pager object declined the splice.
  EXPECT_GE(st.collapse_denied_external, 1u);
  // Survivor shadow -> pager object, nothing shorter: the pager object was
  // never absorbed even though its only mapping reference is the survivor.
  EXPECT_EQ(kernel->vm().ShadowChainLength(task->vm_context(), base), 2u);
  // Page 0 still reads through to the manager (stamp pattern, not zeros,
  // not a stolen copy)...
  uint8_t byte = 0;
  ASSERT_EQ(task->Read(base + 17, &byte, 1), KernReturn::kSuccess);
  EXPECT_EQ(byte, PatternPager::StampFor(0));
  // ...and the last COW write to each written page survives in the chain.
  EXPECT_EQ(task->ReadValue<uint64_t>(base + kPage).value(), 106u);
  EXPECT_EQ(task->ReadValue<uint64_t>(base + 2 * kPage).value(), 104u);
  EXPECT_EQ(task->ReadValue<uint64_t>(base + 3 * kPage).value(), 105u);
  task.reset();
  pager.Stop();
}

// --- fault-path lock budget ---------------------------------------------------

// Regression guard for the fault path's lock cost (EXPERIMENTS E13): a
// resident read re-fault must stay within its lock budget, and re-activating
// an already-active page must not touch the queue lock at all.
TEST_F(VmOpsTest, ResidentRefaultStaysWithinLockBudget) {
  constexpr int kPages = 16;
  VmOffset addr = task_->VmAllocate(kPages * kPage).value();
  std::vector<uint8_t> buf(kPages * kPage, 0x5A);
  // Warm: fault every page in (zero-fill, write) so each is resident,
  // settled, and on the active queue.
  ASSERT_EQ(task_->Write(addr, buf.data(), buf.size()), KernReturn::kSuccess);
  ASSERT_EQ(task_->Read(addr, buf.data(), buf.size()), KernReturn::kSuccess);

  VmStatistics before = task_->VmStats();
  // Drop the hardware translations so every access re-faults while the pages
  // stay resident and active — the pure fast-path re-fault.
  task_->vm_context().pmap->Remove(addr, addr + kPages * kPage);
  uint32_t v = 0;
  for (int i = 0; i < kPages; ++i) {
    ASSERT_EQ(task_->Read(addr + i * kPage, &v, sizeof(v)), KernReturn::kSuccess);
  }
  VmStatistics after = task_->VmStats();

  const uint64_t faults = after.faults - before.faults;
  ASSERT_GE(faults, uint64_t{kPages});
  // The optimistic path takes the object lock and one hash shard — no map
  // lock and no queue lock at all. Anything above 2 locks per fault (plus a
  // little slack for a stale-snapshot fallback) is a regression.
  const uint64_t lock_ops = after.fault_lock_ops - before.fault_lock_ops;
  EXPECT_LE(lock_ops, faults * 2 + 8);
  // The warm-up's last locked fault published a current snapshot and nothing
  // has mutated the map since, so every re-fault resolves lock-free.
  EXPECT_GE(after.map_lookups_optimistic - before.map_lookups_optimistic,
            uint64_t{kPages});
  // Every re-fault found its page already active and skipped the queue lock.
  EXPECT_GE(after.activations_skipped - before.activations_skipped, uint64_t{kPages});
}

TEST_F(VmOpsTest, MapMutationInvalidatesOptimisticLookup) {
  VmOffset addr = task_->VmAllocate(kPage).value();
  uint32_t v = 0x1234;
  ASSERT_EQ(task_->Write(addr, &v, sizeof(v)), KernReturn::kSuccess);

  // Re-fault once so the snapshot is definitely published and current.
  task_->vm_context().pmap->Remove(addr, addr + kPage);
  ASSERT_EQ(task_->Read(addr, &v, sizeof(v)), KernReturn::kSuccess);

  // Any map mutation moves the generation and strands the snapshot.
  VmOffset scratch = task_->VmAllocate(kPage).value();
  ASSERT_EQ(task_->VmDeallocate(scratch, kPage), KernReturn::kSuccess);

  VmStatistics before = task_->VmStats();
  task_->vm_context().pmap->Remove(addr, addr + kPage);
  ASSERT_EQ(task_->Read(addr, &v, sizeof(v)), KernReturn::kSuccess);
  VmStatistics mid = task_->VmStats();
  // The stale snapshot was detected (a retry), the fault fell back to the
  // locked path, and that path republished the snapshot…
  EXPECT_GE(mid.map_lookup_retries - before.map_lookup_retries, uint64_t{1});
  EXPECT_EQ(mid.map_lookups_optimistic, before.map_lookups_optimistic);

  // …so the next re-fault resolves lock-free again.
  task_->vm_context().pmap->Remove(addr, addr + kPage);
  ASSERT_EQ(task_->Read(addr, &v, sizeof(v)), KernReturn::kSuccess);
  VmStatistics after = task_->VmStats();
  EXPECT_GE(after.map_lookups_optimistic - mid.map_lookups_optimistic, uint64_t{1});
}

TEST(VmConfigTest, OptimisticLookupOffUsesLockedPathOnly) {
  Kernel::Config config;
  config.frames = 128;
  config.page_size = kPage;
  config.disk_latency = DiskLatencyModel{0, 0};
  config.vm.optimistic_map_lookup = false;
  Kernel kernel(config);
  std::shared_ptr<Task> task = kernel.CreateTask();

  constexpr int kPages = 8;
  VmOffset addr = task->VmAllocate(kPages * kPage).value();
  std::vector<uint8_t> buf(kPages * kPage, 0x5A);
  ASSERT_EQ(task->Write(addr, buf.data(), buf.size()), KernReturn::kSuccess);

  task->vm_context().pmap->Remove(addr, addr + kPages * kPage);
  VmStatistics before = task->VmStats();
  uint32_t v = 0;
  for (int i = 0; i < kPages; ++i) {
    ASSERT_EQ(task->Read(addr + i * kPage, &v, sizeof(v)), KernReturn::kSuccess);
  }
  VmStatistics st = task->VmStats();
  // The ablation config never takes the lock-free tier…
  EXPECT_EQ(st.map_lookups_optimistic, 0u);
  EXPECT_EQ(st.map_lookup_retries, 0u);
  // …but the in-lock fast path still bounds a resident re-fault at 3 locks
  // (map shared + object + hash shard; queue skipped by the tag fast-out).
  const uint64_t faults = st.faults - before.faults;
  ASSERT_GE(faults, uint64_t{kPages});
  EXPECT_LE(st.fault_lock_ops - before.fault_lock_ops, faults * 3);
}

TEST_F(VmOpsTest, KernelReadBatchesQueueOperations) {
  // vm_read across many freshly zero-filled pages: each page's activation
  // rides the per-thread batch, so the whole sweep pays for at most
  // ceil(pages / QueueBatch::kCapacity) queue-lock acquisitions, observable
  // as queue_batch_flushes.
  constexpr int kPages = 20;
  VmOffset addr = task_->VmAllocate(kPages * kPage).value();
  std::vector<std::byte> buf(kPages * kPage);
  VmStatistics before = task_->VmStats();
  ASSERT_EQ(kernel_->vm().ReadMemory(task_->vm_context(), addr, buf.data(), buf.size()),
            KernReturn::kSuccess);
  VmStatistics after = task_->VmStats();
  EXPECT_GE(after.queue_batch_flushes - before.queue_batch_flushes, uint64_t{1});
  EXPECT_GE(after.zero_fill_count - before.zero_fill_count, uint64_t{kPages});
}

// --- first touch of anonymous memory ------------------------------------------

// A first touch is one fault and one zero fill, whichever tier handles it: the
// region's first fault creates the object on the locked path, the rest go
// through the optimistic tier's one-pass fill.
TEST_F(VmOpsTest, FirstTouchCountsOneFaultAndOneZeroFill) {
  constexpr int kPages = 6;
  VmOffset addr = task_->VmAllocate(kPages * kPage).value();
  VmStatistics start = task_->VmStats();
  for (int p = 0; p < kPages; ++p) {
    VmStatistics before = task_->VmStats();
    if (p % 2 == 0) {
      uint64_t v = 0x100 + p;
      ASSERT_EQ(task_->Write(addr + p * kPage + 16, &v, sizeof(v)), KernReturn::kSuccess);
    } else {
      uint64_t v = ~0ull;
      ASSERT_EQ(task_->Read(addr + p * kPage + 16, &v, sizeof(v)), KernReturn::kSuccess);
      EXPECT_EQ(v, 0u);
    }
    VmStatistics after = task_->VmStats();
    EXPECT_EQ(after.faults - before.faults, 1u) << "page " << p;
    EXPECT_EQ(after.zero_fill_count - before.zero_fill_count, 1u) << "page " << p;
  }
  VmStatistics end = task_->VmStats();
  EXPECT_GE(end.map_lookups_optimistic - start.map_lookups_optimistic, uint64_t{kPages - 1});
  // Everything nobody wrote reads as zero.
  for (int p = 0; p < kPages; ++p) {
    uint64_t head = ~0ull;
    uint64_t word = ~0ull;
    ASSERT_EQ(task_->Read(addr + p * kPage, &head, sizeof(head)), KernReturn::kSuccess);
    ASSERT_EQ(task_->Read(addr + p * kPage + 16, &word, sizeof(word)), KernReturn::kSuccess);
    EXPECT_EQ(head, 0u);
    EXPECT_EQ(word, p % 2 == 0 ? uint64_t(0x100 + p) : 0u);
  }
}

// The same with the optimistic tier off: the locked path's phase-1 fast path
// does the one-pass fill, with the same counts.
TEST(VmConfigTest, FirstTouchWithOptimisticTierOffCountsOnce) {
  Kernel::Config config;
  config.frames = 64;
  config.page_size = kPage;
  config.disk_latency = DiskLatencyModel{0, 0};
  config.vm.optimistic_map_lookup = false;
  Kernel kernel(config);
  std::shared_ptr<Task> task = kernel.CreateTask();
  VmOffset addr = task->VmAllocate(4 * kPage).value();
  VmStatistics before = task->VmStats();
  for (int p = 0; p < 4; ++p) {
    ASSERT_EQ(task->WriteValue<uint32_t>(addr + p * kPage, 7 + p), KernReturn::kSuccess);
  }
  VmStatistics after = task->VmStats();
  EXPECT_EQ(after.faults - before.faults, 4u);
  EXPECT_EQ(after.zero_fill_count - before.zero_fill_count, 4u);
  EXPECT_EQ(after.map_lookups_optimistic, 0u);
  EXPECT_EQ(task->ReadValue<uint32_t>(addr + 3 * kPage).value(), 10u);
}

// A fork leaves both entries copy-on-write over one object: the child's
// first write to a page its parent wrote must copy the parent's data, not
// zero-fill, and the parent must not see the child's write.
TEST_F(VmOpsTest, ForkChildFirstWriteCopiesParentData) {
  VmOffset addr = task_->VmAllocate(2 * kPage).value();
  ASSERT_EQ(task_->WriteValue<uint64_t>(addr, 0xfeed), KernReturn::kSuccess);
  std::shared_ptr<Task> child = kernel_->CreateTask(task_);
  VmStatistics before = task_->VmStats();
  ASSERT_EQ(child->WriteValue<uint64_t>(addr + 8, 0xbeef), KernReturn::kSuccess);
  VmStatistics after = task_->VmStats();
  EXPECT_EQ(after.cow_faults - before.cow_faults, 1u);
  EXPECT_EQ(after.zero_fill_count, before.zero_fill_count);
  EXPECT_EQ(child->ReadValue<uint64_t>(addr).value(), 0xfeedu);
  EXPECT_EQ(child->ReadValue<uint64_t>(addr + 8).value(), 0xbeefu);
  EXPECT_EQ(task_->ReadValue<uint64_t>(addr + 8).value(), 0u);
  // A page neither side touched is still a zero fill in the child.
  EXPECT_EQ(child->ReadValue<uint64_t>(addr + kPage).value(), 0u);
  child.reset();
}

// A shadow object's missing page may still be held below it: the first
// touch must read through the chain, never zero-fill in one pass.
TEST_F(VmOpsTest, ShadowedObjectFirstTouchReadsThroughTheChain) {
  VmOffset addr = task_->VmAllocate(2 * kPage).value();
  ASSERT_EQ(task_->WriteValue<uint64_t>(addr, 1), KernReturn::kSuccess);
  ASSERT_EQ(task_->WriteValue<uint64_t>(addr + kPage, 2), KernReturn::kSuccess);
  std::shared_ptr<Task> child = kernel_->CreateTask(task_);
  // The child's write pushes a shadow holding only page 0.
  ASSERT_EQ(child->WriteValue<uint64_t>(addr, 10), KernReturn::kSuccess);
  ASSERT_EQ(kernel_->vm().ShadowChainLength(child->vm_context(), addr), 2u);
  VmStatistics before = task_->VmStats();
  EXPECT_EQ(child->ReadValue<uint64_t>(addr + kPage).value(), 2u);
  VmStatistics after = task_->VmStats();
  EXPECT_EQ(after.zero_fill_count, before.zero_fill_count);
  EXPECT_EQ(after.faults - before.faults, 1u);
  child.reset();
}

// Pager-backed objects keep the pager protocol: an external manager's page
// and an internal page that went to the default pager both come back with
// their data, never as a one-pass zero fill.
TEST_F(VmOpsTest, PagerBackedFirstTouchAsksThePager) {
  PatternPager pager;
  pager.Start();
  VmOffset base = task_->VmAllocateWithPager(2 * kPage, pager.NewObject(), 0).value();
  VmStatistics before = task_->VmStats();
  uint8_t byte = 0;
  ASSERT_EQ(task_->Read(base + kPage + 3, &byte, 1), KernReturn::kSuccess);
  EXPECT_EQ(byte, PatternPager::StampFor(kPage));
  VmStatistics after = task_->VmStats();
  EXPECT_EQ(after.zero_fill_count, before.zero_fill_count);
  EXPECT_GE(after.pageins - before.pageins, 1u);
  ASSERT_EQ(task_->VmDeallocate(base, 2 * kPage), KernReturn::kSuccess);
  pager.Stop();
}

TEST_F(PageoutTest, PagedOutAnonymousPagesComeBackFromTheDefaultPager) {
  constexpr VmSize kPages = 64;  // Twice physical memory.
  VmOffset addr = task_->VmAllocate(kPages * kPage).value();
  for (VmOffset p = 0; p < kPages; ++p) {
    ASSERT_EQ(task_->WriteValue<uint64_t>(addr + p * kPage, 0xC0 + p), KernReturn::kSuccess);
  }
  ASSERT_GT(kernel_->default_pager().pageout_count(), 0u);
  VmStatistics before = task_->VmStats();
  for (VmOffset p = 0; p < kPages; ++p) {
    ASSERT_EQ(task_->ReadValue<uint64_t>(addr + p * kPage).value(), 0xC0 + p) << "page " << p;
  }
  VmStatistics after = task_->VmStats();
  // Every page was written, so nothing may come back as a zero fill.
  EXPECT_EQ(after.zero_fill_count, before.zero_fill_count);
  EXPECT_GT(kernel_->default_pager().pagein_count(), 0u);
}

// A first touch through the optimistic tier races the region's
// VmDeallocate: each touch either lands or finds the address gone, and the
// frames of every zero fill, installed or not, come back.
TEST_F(VmOpsTest, FirstTouchRacingDeallocateReturnsEveryFrame) {
  constexpr VmSize kPages = 16;
  const uint64_t baseline = task_->VmStats().free_count;
  for (int round = 0; round < 200; ++round) {
    VmOffset addr = task_->VmAllocate(kPages * kPage).value();
    // The object exists and the snapshot is current: later pages take the
    // optimistic tier.
    ASSERT_EQ(task_->WriteValue<uint32_t>(addr, 1), KernReturn::kSuccess);
    std::atomic<bool> go{false};
    std::atomic<int> bad{0};
    std::thread toucher([&] {
      while (!go.load()) {
      }
      for (VmSize p = 1; p < kPages; ++p) {
        KernReturn kr = task_->WriteValue<uint32_t>(addr + p * kPage, uint32_t(p));
        if (kr != KernReturn::kSuccess && kr != KernReturn::kInvalidAddress) {
          bad.fetch_add(1);
        }
      }
    });
    go.store(true);
    for (int spin = 0; spin < round % 50; ++spin) {
      std::this_thread::yield();
    }
    ASSERT_EQ(task_->VmDeallocate(addr, kPages * kPage), KernReturn::kSuccess);
    toucher.join();
    ASSERT_EQ(bad.load(), 0) << "round " << round;
  }
  EXPECT_EQ(task_->VmStats().free_count, baseline);
}

// --- the resident page table ------------------------------------------------

// An anonymous first touch through the optimistic tier finds or claims its
// hash slot in one shard acquisition: object lock, shard, page-queue lock.
TEST_F(VmOpsTest, AnonymousFirstTouchTakesOneShardAcquisition) {
  constexpr int kPages = 8;
  VmOffset addr = task_->VmAllocate(kPages * kPage).value();
  // Page 0 creates the object and publishes the map snapshot on the locked
  // path; every later page takes the optimistic tier.
  ASSERT_EQ(task_->WriteValue<uint32_t>(addr, 100), KernReturn::kSuccess);
  for (int p = 1; p < kPages; ++p) {
    VmStatistics before = task_->VmStats();
    ASSERT_EQ(task_->WriteValue<uint32_t>(addr + p * kPage, 100 + p), KernReturn::kSuccess);
    VmStatistics after = task_->VmStats();
    EXPECT_EQ(after.faults - before.faults, 1u) << "page " << p;
    EXPECT_EQ(after.map_lookups_optimistic - before.map_lookups_optimistic, 1u) << "page " << p;
    EXPECT_EQ(after.zero_fill_count - before.zero_fill_count, 1u) << "page " << p;
    EXPECT_EQ(after.fault_lock_ops - before.fault_lock_ops, 3u) << "page " << p;
  }
  // A resident re-fault finds its page in that same one acquisition and
  // zero-fills nothing.
  task_->vm_context().pmap->Remove(addr, addr + kPages * kPage);
  VmStatistics before = task_->VmStats();
  for (int p = 0; p < kPages; ++p) {
    EXPECT_EQ(task_->ReadValue<uint32_t>(addr + p * kPage).value(), uint32_t(100 + p));
  }
  VmStatistics after = task_->VmStats();
  EXPECT_EQ(after.faults - before.faults, uint64_t{kPages});
  EXPECT_EQ(after.zero_fill_count, before.zero_fill_count);
}

// Two threads first-touch the same anonymous page: one claims the slot and
// zero-fills it, the other finds it claimed and uses that page.
TEST_F(VmOpsTest, RacingFirstTouchesZeroFillOnce) {
  for (int round = 0; round < 100; ++round) {
    VmOffset addr = task_->VmAllocate(2 * kPage).value();
    ASSERT_EQ(task_->WriteValue<uint32_t>(addr, 1), KernReturn::kSuccess);
    const VmOffset page = addr + kPage;
    VmStatistics before = task_->VmStats();
    std::atomic<int> ready{0};
    std::atomic<int> bad{0};
    auto touch = [&](uint32_t word) {
      ready.fetch_add(1);
      while (ready.load() < 2) {
      }
      if (task_->WriteValue<uint32_t>(page + word * 8, word) != KernReturn::kSuccess) {
        bad.fetch_add(1);
      }
    };
    std::thread a(touch, 1);
    std::thread b(touch, 2);
    a.join();
    b.join();
    ASSERT_EQ(bad.load(), 0) << "round " << round;
    VmStatistics after = task_->VmStats();
    ASSERT_EQ(after.zero_fill_count - before.zero_fill_count, 1u) << "round " << round;
    EXPECT_EQ(task_->ReadValue<uint32_t>(page + 8).value(), 1u);
    EXPECT_EQ(task_->ReadValue<uint32_t>(page + 16).value(), 2u);
    EXPECT_EQ(task_->ReadValue<uint32_t>(page).value(), 0u);
    ASSERT_EQ(task_->VmDeallocate(addr, 2 * kPage), KernReturn::kSuccess);
  }
}

// Answers every pager_data_request as told: with data the manager keeps
// write-locked, with pager_data_unavailable, with the run's first page
// only, or by dying (dropping its memory-object port unanswered).
class ScriptedPager : public DataManager {
 public:
  enum class Answer { kLockedData, kUnavailable, kFirstPageOnly, kDie };
  static constexpr uint8_t kFill = 0x6B;

  ScriptedPager() : DataManager("scripted") {}
  SendRight NewObject() {
    object_ = CreateMemoryObject(1);
    return object_;
  }

  std::atomic<Answer> answer{Answer::kLockedData};

 protected:
  void OnDataRequest(uint64_t, uint64_t, PagerDataRequestArgs args) override {
    switch (answer.load()) {
      case Answer::kLockedData:
        ProvideData(args.pager_request_port, args.offset,
                    std::vector<std::byte>(args.length, std::byte{kFill}), kVmProtWrite);
        break;
      case Answer::kUnavailable:
        DataUnavailable(args.pager_request_port, args.offset, args.length);
        break;
      case Answer::kFirstPageOnly:
        ProvideData(args.pager_request_port, args.offset,
                    std::vector<std::byte>(kPage, std::byte{kFill}), kVmProtNone);
        break;
      case Answer::kDie:
        DestroyMemoryObject(object_);
        break;
    }
  }

 private:
  SendRight object_;
};

// A frame's page is reused, not reallocated: nothing of its last use may
// leak into the next. Pages freed while carrying a manager lock, readahead,
// pager_data_unavailable, dirt, an error, or busy in transit (each pinned
// while its fault waited) give their frames to anonymous first touches,
// which must each read zeros, write at once (no lock, not busy) and count
// one zero fill.
TEST(PageTableTest, ReusedFramesStartClean) {
  Kernel::Config config;
  config.frames = 32;
  config.page_size = kPage;
  config.disk_latency = DiskLatencyModel{0, 0};
  config.vm.fault_ahead_max = 4;
  config.vm.pager_timeout = std::chrono::milliseconds(2000);
  config.vm.on_pager_timeout = VmSystem::Config::OnPagerTimeout::kError;
  Kernel kernel(config);
  auto task = kernel.CreateTask();
  Pmap& pmap = *task->vm_context().pmap;
  const uint64_t baseline = kernel.phys().free_frames();
  ScriptedPager locker;
  ScriptedPager dier;
  locker.Start();
  dier.Start();
  VmOffset a = task->VmAllocateWithPager(16 * kPage, locker.NewObject(), 0).value();
  VmOffset b = task->VmAllocateWithPager(16 * kPage, dier.NewObject(), 0).value();
  uint8_t byte = 0;
  // a: pages 0 and 1 arrive write-locked; page 1's miss also brings page 2
  // as readahead nobody touches.
  ASSERT_EQ(task->Read(a, &byte, 1), KernReturn::kSuccess);
  ASSERT_EQ(task->Read(a + kPage, &byte, 1), KernReturn::kSuccess);
  EXPECT_EQ(byte, ScriptedPager::kFill);
  // a: page 3's miss asks for 3-6 and the manager has none of it. Page 3 is
  // zero-filled and then dirtied; 4-6 stay unavailable readahead.
  locker.answer = ScriptedPager::Answer::kUnavailable;
  ASSERT_EQ(task->Read(a + 3 * kPage, &byte, 1), KernReturn::kSuccess);
  EXPECT_EQ(byte, 0);
  ASSERT_EQ(task->WriteValue<uint64_t>(a + 3 * kPage, 0xD1), KernReturn::kSuccess);
  // b: page 1's miss asks for 1-2 and the manager dies on it: both pinned
  // placeholders settle as errors.
  ASSERT_EQ(task->Read(b, &byte, 1), KernReturn::kSuccess);
  dier.answer = ScriptedPager::Answer::kDie;
  EXPECT_NE(task->Read(b + kPage, &byte, 1), KernReturn::kSuccess);
  // a: page 7's miss asks for 7-10 and gets page 7 alone: the sweep frees
  // 8-10 still busy and absent.
  locker.answer = ScriptedPager::Answer::kFirstPageOnly;
  ASSERT_EQ(task->Read(a + 7 * kPage, &byte, 1), KernReturn::kSuccess);
  VmStatistics st = kernel.vm().Statistics();
  EXPECT_EQ(st.fault_ahead_pages, 1u + 3u + 1u + 3u);
  EXPECT_EQ(st.fault_ahead_unused, 3u);
  EXPECT_EQ(st.death_resolved_pages, 2u);

  std::vector<uint32_t> mapped_frames;
  for (VmOffset addr : {a, a + kPage, a + 3 * kPage, a + 7 * kPage, b}) {
    std::optional<uint32_t> frame = pmap.Translate(addr, kVmProtRead);
    ASSERT_TRUE(frame.has_value());
    mapped_frames.push_back(*frame);
  }
  const uint64_t in_use = baseline - kernel.phys().free_frames();
  ASSERT_EQ(in_use, 11u);
  ASSERT_EQ(task->VmDeallocate(a, 16 * kPage), KernReturn::kSuccess);
  ASSERT_EQ(task->VmDeallocate(b, 16 * kPage), KernReturn::kSuccess);
  ASSERT_EQ(kernel.phys().free_frames(), baseline);

  // Frames go back on top of the free list, so the next 14 zero fills get
  // exactly the 11 frames just freed and the 3 the sweep freed before them.
  const VmSize reuse = in_use + 3;
  VmOffset c = task->VmAllocate(reuse * kPage).value();
  std::vector<uint32_t> reused;
  for (VmOffset p = 0; p < reuse; ++p) {
    const VmOffset page = c + p * kPage;
    VmStatistics before = kernel.vm().Statistics();
    if (p % 2 == 0) {
      ASSERT_EQ(task->WriteValue<uint64_t>(page + 64, 0xF00D + p), KernReturn::kSuccess);
    } else {
      ASSERT_EQ(task->ReadValue<uint64_t>(page + 64).value(), 0u);
      ASSERT_EQ(task->WriteValue<uint64_t>(page + 64, 0xF00D + p), KernReturn::kSuccess);
    }
    VmStatistics after = kernel.vm().Statistics();
    EXPECT_EQ(after.zero_fill_count - before.zero_fill_count, 1u) << "page " << p;
    std::vector<uint8_t> expect(kPage, 0);
    const uint64_t word = 0xF00D + p;
    std::memcpy(expect.data() + 64, &word, sizeof(word));
    std::vector<uint8_t> data(kPage, 0xFF);
    ASSERT_EQ(task->Read(page, data.data(), kPage), KernReturn::kSuccess);
    EXPECT_EQ(data, expect) << "page " << p;
    reused.push_back(*pmap.Translate(page, kVmProtWrite));
  }
  for (uint32_t frame : mapped_frames) {
    EXPECT_NE(std::find(reused.begin(), reused.end(), frame), reused.end()) << "frame " << frame;
  }
  ASSERT_EQ(task->VmDeallocate(c, reuse * kPage), KernReturn::kSuccess);
  EXPECT_EQ(kernel.phys().free_frames(), baseline);
  task.reset();
  locker.Stop();
  dier.Stop();
}

// The smallest table: 64 frames give 64 buckets, one per hash shard, so
// pages share chains. Forks, copy-on-write writes, collapses (which re-key
// pages through PageRename) and teardown must keep every chain intact.
TEST(PageTableTest, ChainedBucketsSurviveForkWriteCollapseAndTeardown) {
  Kernel::Config config;
  config.frames = 64;
  config.page_size = kPage;
  config.disk_latency = DiskLatencyModel{0, 0};
  Kernel kernel(config);
  const uint64_t baseline = kernel.phys().free_frames();
  constexpr int kPages = 12;
  std::mt19937 rng(4242);
  std::vector<uint64_t> model(kPages, 0);
  {
    auto task = kernel.CreateTask(nullptr, "gen0");
    VmOffset base = task->VmAllocate(kPages * kPage).value();
    for (int gen = 1; gen <= 10; ++gen) {
      for (int w = 0; w < 6; ++w) {
        const int p = static_cast<int>(rng() % kPages);
        const uint64_t v = (uint64_t(gen) << 32) | (uint64_t(p) << 8) | uint64_t(w);
        ASSERT_EQ(task->WriteValue<uint64_t>(base + p * kPage, v), KernReturn::kSuccess);
        model[p] = v;
      }
      // The child inherits a copy; the parent dies, leaving its pages for
      // the collapse to migrate into the child's object.
      auto child = kernel.CreateTask(task, "gen");
      task = child;
      for (int p = 0; p < kPages; ++p) {
        ASSERT_EQ(task->ReadValue<uint64_t>(base + p * kPage).value(), model[p])
            << "generation " << gen << " page " << p;
      }
    }
    EXPECT_EQ(kernel.vm().ShadowChainLength(task->vm_context(), base), 1u);
  }
  VmStatistics st = kernel.vm().Statistics();
  EXPECT_GT(st.shadow_collapses, 0u);
  EXPECT_GT(st.pages_migrated, 0u);
  EXPECT_EQ(kernel.phys().free_frames(), baseline);
}

// --- clustered pageout -------------------------------------------------------

// Records every pager_data_write's (offset, length) so tests can assert the
// exact run boundaries the kernel chose.
class RunRecordingPager : public DataManager {
 public:
  RunRecordingPager() : DataManager("run-recorder") {}

  SendRight NewObject() { return CreateMemoryObject(1); }
  SendRight request_port() const {
    std::lock_guard<std::mutex> g(mu_);
    return request_port_;
  }
  std::vector<std::pair<VmOffset, VmSize>> writes() const {
    std::lock_guard<std::mutex> g(mu_);
    return writes_;
  }
  bool WaitForWrites(size_t n) const {
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (std::chrono::steady_clock::now() < deadline) {
      {
        std::lock_guard<std::mutex> g(mu_);
        if (writes_.size() >= n) {
          return true;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
  }

 protected:
  void OnInit(uint64_t, uint64_t, PagerInitArgs args) override {
    std::lock_guard<std::mutex> g(mu_);
    request_port_ = args.pager_request_port;
  }
  void OnDataRequest(uint64_t, uint64_t, PagerDataRequestArgs args) override {
    ProvideData(args.pager_request_port, args.offset,
                std::vector<std::byte>(args.length, std::byte{0x11}), kVmProtNone);
  }
  void OnDataWrite(uint64_t, uint64_t, PagerDataWriteArgs args) override {
    std::lock_guard<std::mutex> g(mu_);
    writes_.emplace_back(args.offset, args.data.size());
  }

 private:
  mutable std::mutex mu_;
  SendRight request_port_;
  std::vector<std::pair<VmOffset, VmSize>> writes_;
};

class PageoutClusterTest : public ::testing::Test {
 protected:
  // An 8-page pager-backed region with pages {0,1,2, 4,5, 7} dirty and
  // {3, 6} resident but clean — two run-splitting clean gaps.
  void DirtyGappedPattern(Task& task, VmOffset base) {
    std::vector<std::byte> all(8 * kPage);
    ASSERT_EQ(task.Read(base, all.data(), all.size()), KernReturn::kSuccess);
    for (VmOffset p : {0, 1, 2, 4, 5, 7}) {
      uint64_t v = 0xD1127'0000ull + p;
      ASSERT_EQ(task.Write(base + p * kPage, &v, sizeof(v)), KernReturn::kSuccess);
    }
  }

  std::unique_ptr<Kernel> MakeKernel(uint32_t cluster_max = 16) {
    Kernel::Config config;
    config.frames = 128;
    config.page_size = kPage;
    config.disk_latency = DiskLatencyModel{0, 0};
    config.vm.pageout_cluster_max = cluster_max;
    return std::make_unique<Kernel>(config);
  }
};

TEST_F(PageoutClusterTest, CleanRequestBatchesContiguousDirtyRuns) {
  auto kernel = MakeKernel();
  auto task = kernel->CreateTask();
  RunRecordingPager pager;
  pager.Start();
  VmOffset base = task->VmAllocateWithPager(8 * kPage, pager.NewObject(), 0).value();
  DirtyGappedPattern(*task, base);

  ASSERT_EQ(DataManager::CleanRequest(pager.request_port(), 0, 8 * kPage),
            KernReturn::kSuccess);
  ASSERT_TRUE(pager.WaitForWrites(3));
  std::vector<std::pair<VmOffset, VmSize>> writes = pager.writes();
  std::sort(writes.begin(), writes.end());
  // Three messages, split exactly at the clean pages 3 and 6.
  ASSERT_EQ(writes.size(), 3u);
  EXPECT_EQ(writes[0], (std::pair<VmOffset, VmSize>{0, 3 * kPage}));
  EXPECT_EQ(writes[1], (std::pair<VmOffset, VmSize>{4 * kPage, 2 * kPage}));
  EXPECT_EQ(writes[2], (std::pair<VmOffset, VmSize>{7 * kPage, kPage}));
  // Counters agree: 3 messages carrying 6 pages.
  VmStatistics st = kernel->vm().Statistics();
  EXPECT_EQ(st.pageout_runs, 3u);
  EXPECT_EQ(st.pageout_run_pages, 6u);
  EXPECT_EQ(st.pageouts, 6u);
  task.reset();
  pager.Stop();
}

TEST_F(PageoutClusterTest, ClusteringOffWritesOnePagePerMessage) {
  auto kernel = MakeKernel(1);
  auto task = kernel->CreateTask();
  RunRecordingPager pager;
  pager.Start();
  VmOffset base = task->VmAllocateWithPager(8 * kPage, pager.NewObject(), 0).value();
  DirtyGappedPattern(*task, base);

  ASSERT_EQ(DataManager::CleanRequest(pager.request_port(), 0, 8 * kPage),
            KernReturn::kSuccess);
  ASSERT_TRUE(pager.WaitForWrites(6));
  // Six single-page messages: a cap of 1 restores page-at-a-time
  // write-back exactly.
  for (const auto& [off, len] : pager.writes()) {
    EXPECT_EQ(len, kPage) << "offset " << off;
  }
  VmStatistics st = kernel->vm().Statistics();
  EXPECT_EQ(st.pageout_runs, 6u);
  EXPECT_EQ(st.pageout_run_pages, 6u);
  EXPECT_EQ(st.pageouts, 6u);
  task.reset();
  pager.Stop();
}

TEST_F(PageoutClusterTest, ClusteringReducesDataWriteMessageCount) {
  // The E15 regression bar, counter-verified: the same 64-page dirty
  // flush costs ceil(64 / pageout_cluster_max) pager_data_write messages
  // at a cap of 16 and 64 at a cap of 1, at identical pages written.
  const uint32_t caps[2] = {16, 1};
  uint64_t runs[2] = {0, 0};
  for (int arm = 0; arm < 2; ++arm) {
    auto kernel = MakeKernel(caps[arm]);
    auto task = kernel->CreateTask();
    RunRecordingPager pager;
    pager.Start();
    VmOffset base = task->VmAllocateWithPager(64 * kPage, pager.NewObject(), 0).value();
    for (VmOffset p = 0; p < 64; ++p) {
      uint64_t v = p;
      ASSERT_EQ(task->Write(base + p * kPage, &v, sizeof(v)), KernReturn::kSuccess);
    }
    ASSERT_EQ(DataManager::FlushRequest(pager.request_port(), 0, 64 * kPage),
              KernReturn::kSuccess);
    ASSERT_TRUE(pager.WaitForWrites(64 / caps[arm]));
    VmStatistics st = kernel->vm().Statistics();
    EXPECT_EQ(st.pageouts, 64u);
    EXPECT_EQ(st.pageout_run_pages, 64u);
    runs[arm] = st.pageout_runs;
    task.reset();
    pager.Stop();
  }
  EXPECT_EQ(runs[0], 4u);  // 64 pages / pageout_cluster_max(16).
  EXPECT_EQ(runs[1], 64u);
  EXPECT_LT(runs[0], runs[1]);
}

// --- termination write-back (§3.4.1) -------------------------------------------
// Each test stops the pageout daemon first, so the counters move only for
// the termination under test.

TEST_F(PageoutClusterTest, TerminationWritesDirtyPagesBackInRuns) {
  // The last mapping of an external object goes away: its dirty pages go
  // back to the manager through the pageout run writer, so 64 dirty pages
  // cost 64 / pageout_cluster_max messages instead of 64.
  auto kernel = MakeKernel();
  kernel->vm().StopPageoutDaemon();
  auto task = kernel->CreateTask();
  RunRecordingPager pager;
  pager.Start();
  VmOffset base = task->VmAllocateWithPager(64 * kPage, pager.NewObject(), 0).value();
  for (VmOffset p = 0; p < 64; ++p) {
    uint64_t v = p;
    ASSERT_EQ(task->Write(base + p * kPage, &v, sizeof(v)), KernReturn::kSuccess);
  }
  const VmStatistics before = kernel->vm().Statistics();
  ASSERT_EQ(task->VmDeallocate(base, 64 * kPage), KernReturn::kSuccess);
  ASSERT_TRUE(pager.WaitForWrites(4));
  std::vector<std::pair<VmOffset, VmSize>> writes = pager.writes();
  std::sort(writes.begin(), writes.end());
  ASSERT_EQ(writes.size(), 4u);
  for (VmOffset run = 0; run < 4; ++run) {
    EXPECT_EQ(writes[run], (std::pair<VmOffset, VmSize>{run * 16 * kPage, 16 * kPage}));
  }
  const VmStatistics after = kernel->vm().Statistics();
  EXPECT_EQ(after.pageout_runs - before.pageout_runs, 4u);
  EXPECT_EQ(after.pageouts - before.pageouts, 64u);
  task.reset();
  pager.Stop();
}

TEST_F(PageoutClusterTest, TerminationNeverParksWhatTheManagerCannotTake) {
  // Parked data is keyed by the object and discarded when it terminates,
  // so parking a dying object's pages would only copy them into the
  // default pager's store to throw them away.
  auto kernel = MakeKernel();
  kernel->vm().StopPageoutDaemon();
  auto task = kernel->CreateTask();
  RunRecordingPager pager;
  pager.Start();
  SendRight object = pager.NewObject();
  VmOffset base = task->VmAllocateWithPager(64 * kPage, object, 0).value();
  for (VmOffset p = 0; p < 64; ++p) {
    uint64_t v = p;
    ASSERT_EQ(task->Write(base + p * kPage, &v, sizeof(v)), KernReturn::kSuccess);
  }
  pager.Stop();  // Nothing drains the object port any more...
  object.port()->SetBacklog(1);  // ...and it holds a single message.
  const VmStatistics before = kernel->vm().Statistics();
  const uint64_t parked_before = kernel->default_pager().parked_count();
  ASSERT_EQ(task->VmDeallocate(base, 64 * kPage), KernReturn::kSuccess);
  const VmStatistics after = kernel->vm().Statistics();
  EXPECT_EQ(after.pageout_runs - before.pageout_runs, 4u);  // Every run was offered.
  EXPECT_EQ(after.parked_pageouts, before.parked_pageouts);
  EXPECT_EQ(kernel->default_pager().parked_count(), parked_before);
  task.reset();
}

TEST_F(PageoutClusterTest, TerminatingAnInternalObjectWritesNothingBack) {
  // Nothing can map a dead internal object again, and the default pager
  // frees its blocks on no-senders: its dirty pages are freed, not sent.
  auto kernel = MakeKernel();
  kernel->vm().StopPageoutDaemon();
  auto task = kernel->CreateTask();
  // 192 pages through 128 frames: the first writes go out to the default
  // pager under inline reclaim, the last ones stay resident and dirty.
  constexpr VmSize kPages = 192;
  VmOffset base = task->VmAllocate(kPages * kPage).value();
  for (VmOffset p = 0; p < kPages; ++p) {
    ASSERT_EQ(task->WriteValue<uint64_t>(base + p * kPage, p + 1), KernReturn::kSuccess);
  }
  const VmStatistics before = kernel->vm().Statistics();
  ASSERT_GT(before.pageouts, 0u);
  ASSERT_GT(before.active_count + before.inactive_count, 0u);
  ASSERT_EQ(task->VmDeallocate(base, kPages * kPage), KernReturn::kSuccess);
  EXPECT_EQ(kernel->vm().Statistics().pageouts, before.pageouts);
}

// --- adaptive fault-ahead ----------------------------------------------------

// Records every pager_data_request's (offset, length) and answers it with a
// single provide carrying each page's own stamp — so a batched read is
// distinguishable both from repeated single-page reads and from zero fill.
class ReadRecordingPager : public DataManager {
 public:
  ReadRecordingPager() : DataManager("read-recorder") {}
  SendRight NewObject() { return CreateMemoryObject(1); }
  static uint8_t StampFor(VmOffset offset) {
    return static_cast<uint8_t>(0x30 + (offset / kPage) % 97);
  }
  std::vector<std::pair<VmOffset, VmSize>> requests() const {
    std::lock_guard<std::mutex> g(mu_);
    return requests_;
  }

 protected:
  void OnDataRequest(uint64_t, uint64_t, PagerDataRequestArgs args) override {
    {
      std::lock_guard<std::mutex> g(mu_);
      requests_.emplace_back(args.offset, args.length);
    }
    std::vector<std::byte> data(args.length);
    for (VmSize d = 0; d < args.length; d += kPage) {
      std::fill_n(data.begin() + d, kPage, std::byte{StampFor(args.offset + d)});
    }
    ProvideData(args.pager_request_port, args.offset, std::move(data), kVmProtNone);
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::pair<VmOffset, VmSize>> requests_;
};

class FaultAheadTest : public ::testing::Test {
 protected:
  std::unique_ptr<Kernel> MakeKernel(uint32_t max) {
    Kernel::Config config;
    config.frames = 256;
    config.page_size = kPage;
    config.disk_latency = DiskLatencyModel{0, 0};
    config.vm.fault_ahead_max = max;
    return std::make_unique<Kernel>(config);
  }

  // Reads one byte from page `p` of the region and checks its stamp.
  static void ReadPage(Task& task, VmOffset base, VmOffset p) {
    uint8_t byte = 0;
    ASSERT_EQ(task.Read(base + p * kPage, &byte, 1), KernReturn::kSuccess);
    EXPECT_EQ(byte, ReadRecordingPager::StampFor(p * kPage)) << "page " << p;
  }
};

TEST_F(FaultAheadTest, SequentialStreakDoublesTheWindowUpToTheCap) {
  auto kernel = MakeKernel(8);
  auto task = kernel->CreateTask();
  ReadRecordingPager pager;
  pager.Start();
  VmOffset base = task->VmAllocateWithPager(64 * kPage, pager.NewObject(), 0).value();
  for (VmOffset p = 0; p < 64; ++p) {
    ReadPage(*task, base, p);
  }
  // The window scales 1 → 2 → 4 → 8 and saturates at the cap; the final
  // single page is the entry-boundary clamp at the region's last page.
  const std::vector<VmSize> expect_pages = {1, 2, 4, 8, 8, 8, 8, 8, 8, 8, 1};
  std::vector<std::pair<VmOffset, VmSize>> reqs = pager.requests();
  ASSERT_EQ(reqs.size(), expect_pages.size());
  VmOffset expect_off = 0;
  for (size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(reqs[i].first, expect_off) << "request " << i;
    EXPECT_EQ(reqs[i].second, expect_pages[i] * kPage) << "request " << i;
    expect_off += expect_pages[i] * kPage;
  }
  // Counters agree: 9 batched requests carrying 53 speculative pages, every
  // one of them consumed by a later demand read.
  VmStatistics st = kernel->vm().Statistics();
  EXPECT_EQ(st.fault_ahead_requests, 9u);
  EXPECT_EQ(st.fault_ahead_pages, 53u);
  EXPECT_EQ(st.fault_ahead_unused, 0u);
  task.reset();
  pager.Stop();
}

TEST_F(FaultAheadTest, RandomAccessStaysSinglePage) {
  auto kernel = MakeKernel(8);
  auto task = kernel->CreateTask();
  ReadRecordingPager pager;
  pager.Start();
  VmOffset base = task->VmAllocateWithPager(64 * kPage, pager.NewObject(), 0).value();
  // No access is the successor of the previous one: the detector must never
  // open a window, so the wire sees exactly one page per request.
  for (VmOffset p : {9, 2, 30, 17, 44, 5, 58, 23}) {
    ReadPage(*task, base, p);
  }
  std::vector<std::pair<VmOffset, VmSize>> reqs = pager.requests();
  ASSERT_EQ(reqs.size(), 8u);
  for (const auto& [off, len] : reqs) {
    EXPECT_EQ(len, kPage) << "offset " << off;
  }
  VmStatistics st = kernel->vm().Statistics();
  EXPECT_EQ(st.fault_ahead_requests, 0u);
  EXPECT_EQ(st.fault_ahead_pages, 0u);
  task.reset();
  pager.Stop();
}

TEST_F(FaultAheadTest, WindowCollapsesOnRandomJumpAndRebuilds) {
  auto kernel = MakeKernel(8);
  auto task = kernel->CreateTask();
  ReadRecordingPager pager;
  pager.Start();
  VmOffset base = task->VmAllocateWithPager(64 * kPage, pager.NewObject(), 0).value();
  for (VmOffset p : {0, 1, 2, 3}) {  // Grow: requests of 1, 2, 4 pages.
    ReadPage(*task, base, p);
  }
  ReadPage(*task, base, 40);  // Random jump: collapse to one page.
  ReadPage(*task, base, 50);  // Still random.
  ReadPage(*task, base, 51);  // A width-1 window predicts its successor:
  ReadPage(*task, base, 52);  // the streak re-opens at 51, 52 is covered.
  const std::vector<std::pair<VmOffset, VmSize>> expect = {
      {0, 1}, {1, 2}, {3, 4}, {40, 1}, {50, 1}, {51, 2}};
  std::vector<std::pair<VmOffset, VmSize>> reqs = pager.requests();
  ASSERT_EQ(reqs.size(), expect.size());
  for (size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(reqs[i].first, expect[i].first * kPage) << "request " << i;
    EXPECT_EQ(reqs[i].second, expect[i].second * kPage) << "request " << i;
  }
  task.reset();
  pager.Stop();
}

TEST_F(FaultAheadTest, AblationOffIsOnePagePerRequest) {
  auto kernel = MakeKernel(1);
  auto task = kernel->CreateTask();
  ReadRecordingPager pager;
  pager.Start();
  VmOffset base = task->VmAllocateWithPager(16 * kPage, pager.NewObject(), 0).value();
  for (VmOffset p = 0; p < 16; ++p) {
    ReadPage(*task, base, p);
  }
  // A cap of 1 restores demand paging exactly: one request per page even
  // under a perfectly sequential scan, and no fault-ahead accounting.
  std::vector<std::pair<VmOffset, VmSize>> reqs = pager.requests();
  ASSERT_EQ(reqs.size(), 16u);
  for (const auto& [off, len] : reqs) {
    EXPECT_EQ(len, kPage) << "offset " << off;
  }
  VmStatistics st = kernel->vm().Statistics();
  EXPECT_EQ(st.fault_ahead_requests, 0u);
  EXPECT_EQ(st.fault_ahead_pages, 0u);
  EXPECT_EQ(st.fault_ahead_unused, 0u);
  task.reset();
  pager.Stop();
}

TEST_F(FaultAheadTest, RunStopsAtAResidentPage) {
  auto kernel = MakeKernel(8);
  auto task = kernel->CreateTask();
  ReadRecordingPager pager;
  pager.Start();
  VmOffset base = task->VmAllocateWithPager(64 * kPage, pager.NewObject(), 0).value();
  ReadPage(*task, base, 5);  // Make page 5 resident.
  for (VmOffset p = 0; p < 6; ++p) {
    ReadPage(*task, base, p);
  }
  // The 4-page window at page 3 truncates to {3, 4}: speculation never
  // re-requests (or double-allocates) the already-resident page 5.
  const std::vector<std::pair<VmOffset, VmSize>> expect = {
      {5, 1}, {0, 1}, {1, 2}, {3, 2}};
  std::vector<std::pair<VmOffset, VmSize>> reqs = pager.requests();
  ASSERT_EQ(reqs.size(), expect.size());
  for (size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(reqs[i].first, expect[i].first * kPage) << "request " << i;
    EXPECT_EQ(reqs[i].second, expect[i].second * kPage) << "request " << i;
  }
  task.reset();
  pager.Stop();
}

TEST_F(FaultAheadTest, UnusedSpeculativePagesAreCountedHonestly) {
  auto kernel = MakeKernel(8);
  auto task = kernel->CreateTask();
  ReadRecordingPager pager;
  pager.Start();
  VmOffset base = task->VmAllocateWithPager(64 * kPage, pager.NewObject(), 0).value();
  // Misses at 0, 1, 3, 7 speculatively pull in 11 extra pages (2, 4-6,
  // 8-14). Demand-reading two of them consumes their speculation; the
  // other nine die with the readahead mark still set when the region is
  // torn down and must show up as waste — no more, no less.
  for (VmOffset p : {0, 1, 3, 7}) {
    ReadPage(*task, base, p);
  }
  ReadPage(*task, base, 2);  // Consumed: resident hit clears the mark.
  ReadPage(*task, base, 4);
  VmStatistics before = kernel->vm().Statistics();
  EXPECT_EQ(before.fault_ahead_pages, 1 + 3 + 7u);
  EXPECT_EQ(before.fault_ahead_unused, 0u);
  ASSERT_EQ(task->VmDeallocate(base, 64 * kPage), KernReturn::kSuccess);
  VmStatistics after = kernel->vm().Statistics();
  EXPECT_EQ(after.fault_ahead_unused, 9u);
  task.reset();
  pager.Stop();
}

// A pager that dies (drops its memory-object port without answering) the
// moment it sees a multi-page fault-ahead request.
class MidRunDyingPager : public DataManager {
 public:
  MidRunDyingPager() : DataManager("mid-run-dying") {}
  SendRight NewObject() {
    object_ = CreateMemoryObject(1);
    return object_;
  }

 protected:
  void OnDataRequest(uint64_t, uint64_t, PagerDataRequestArgs args) override {
    if (args.length > kPage) {
      DestroyMemoryObject(object_);
      return;
    }
    ProvideData(args.pager_request_port, args.offset,
                std::vector<std::byte>(args.length, std::byte{0x77}), kVmProtNone);
  }

 private:
  SendRight object_;
};

TEST_F(FaultAheadTest, PagerDeathMidRunSettlesEveryPlaceholder) {
  // Regression: a pager dying while a fault-ahead run is outstanding must
  // resolve the demanded page *and* every pinned speculative placeholder —
  // nothing may stay busy forever and no frame may leak.
  Kernel::Config config;
  config.frames = 256;
  config.page_size = kPage;
  config.disk_latency = DiskLatencyModel{0, 0};
  config.vm.fault_ahead_max = 8;
  config.vm.on_pager_timeout = VmSystem::Config::OnPagerTimeout::kZeroFill;
  auto kernel = std::make_unique<Kernel>(config);
  auto task = kernel->CreateTask();
  MidRunDyingPager pager;
  pager.Start();
  VmOffset base = task->VmAllocateWithPager(8 * kPage, pager.NewObject(), 0).value();

  uint8_t byte = 0;
  ASSERT_EQ(task->Read(base, &byte, 1), KernReturn::kSuccess);  // Single page, served.
  EXPECT_EQ(byte, 0x77);
  // Page 1 misses sequentially: a 2-page request goes out and the pager
  // dies on it. The death path zero-fills both placeholders now.
  ASSERT_EQ(task->Read(base + kPage, &byte, 1), KernReturn::kSuccess);
  EXPECT_EQ(byte, 0x00);
  ASSERT_EQ(task->Read(base + 2 * kPage, &byte, 1), KernReturn::kSuccess);
  EXPECT_EQ(byte, 0x00);

  VmStatistics st = kernel->vm().Statistics();
  EXPECT_GE(st.manager_deaths, 1u);
  EXPECT_GE(st.death_resolved_pages, 2u);  // Demanded page + speculative one.
  EXPECT_EQ(st.fault_ahead_requests, 1u);
  EXPECT_EQ(st.fault_ahead_pages, 1u);
  // The severed region now behaves like anonymous memory.
  uint64_t v = 0xFEED;
  ASSERT_EQ(task->WriteValue<uint64_t>(base + 3 * kPage, v), KernReturn::kSuccess);
  EXPECT_EQ(task->ReadValue<uint64_t>(base + 3 * kPage).value(), v);
  task.reset();
  pager.Stop();
}

}  // namespace
}  // namespace mach
