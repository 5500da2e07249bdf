// Additional VM edge cases: sharing-map semantics under vm ops, OOL copies
// of untouched (zero) memory, CopyFromBytes/CopyAsBytes round trips, object
// cache behaviour, and deallocation across many split entries.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/kernel/task.h"
#include "src/pager/data_manager.h"

namespace mach {
namespace {

constexpr VmSize kPage = 4096;

class VmEdgeTest : public ::testing::Test {
 protected:
  VmEdgeTest() {
    Kernel::Config config;
    config.frames = 128;
    config.page_size = kPage;
    config.disk_latency = DiskLatencyModel{0, 0};
    kernel_ = std::make_unique<Kernel>(config);
    task_ = kernel_->CreateTask();
  }
  ~VmEdgeTest() override { task_.reset(); }

  std::unique_ptr<Kernel> kernel_;
  std::shared_ptr<Task> task_;
};

TEST_F(VmEdgeTest, SharedRegionSurvivesParentProtectChange) {
  // Per-task attributes live in the top-level entry (§5.1): the parent
  // making its own view read-only must not affect the child's access.
  VmOffset addr = task_->VmAllocate(kPage).value();
  task_->VmInherit(addr, kPage, VmInherit::kShare);
  uint32_t v = 1;
  ASSERT_EQ(task_->Write(addr, &v, sizeof(v)), KernReturn::kSuccess);
  std::shared_ptr<Task> child = kernel_->CreateTask(task_);
  ASSERT_EQ(task_->VmProtect(addr, kPage, false, kVmProtRead), KernReturn::kSuccess);
  // Parent: read-only now.
  EXPECT_EQ(task_->Write(addr, &v, sizeof(v)), KernReturn::kProtectionFailure);
  // Child: still read/write, and changes are visible to the parent.
  uint32_t cv = 99;
  EXPECT_EQ(child->Write(addr, &cv, sizeof(cv)), KernReturn::kSuccess);
  uint32_t out = 0;
  EXPECT_EQ(task_->Read(addr, &out, sizeof(out)), KernReturn::kSuccess);
  EXPECT_EQ(out, 99u);
}

TEST_F(VmEdgeTest, VmWriteIntoSharedRegionReflectsInAllTasks) {
  // §5.1: "a vm_write operation into a region shared by more than one task
  // would take place in the sharing map referenced by all of their task
  // maps."
  VmOffset addr = task_->VmAllocate(kPage).value();
  task_->VmInherit(addr, kPage, VmInherit::kShare);
  std::shared_ptr<Task> child = kernel_->CreateTask(task_);
  uint32_t v = 0xABCD;
  ASSERT_EQ(task_->VmWrite(addr, &v, sizeof(v)), KernReturn::kSuccess);  // Kernel path.
  uint32_t out = 0;
  ASSERT_EQ(child->Read(addr, &out, sizeof(out)), KernReturn::kSuccess);
  EXPECT_EQ(out, 0xABCDu);
}

TEST_F(VmEdgeTest, VmWriteIntoCopyOnWriteRegionWritesAPrivateCopy) {
  // A kernel-mediated write into a copy-on-write region pushes a private
  // copy first (§5.5), exactly like a user write: the other side keeps its
  // bytes. After a kCopy fork…
  VmOffset addr = task_->VmAllocate(2 * kPage).value();
  ASSERT_EQ(task_->WriteValue<uint64_t>(addr, 0x1111), KernReturn::kSuccess);
  std::shared_ptr<Task> child = kernel_->CreateTask(task_);
  VmStatistics before = task_->VmStats();
  uint64_t v = 0x2222;
  ASSERT_EQ(child->VmWrite(addr, &v, sizeof(v)), KernReturn::kSuccess);
  EXPECT_EQ(task_->VmStats().cow_faults - before.cow_faults, 1u);
  EXPECT_EQ(task_->ReadValue<uint64_t>(addr).value(), 0x1111u);
  v = 0x3333;
  ASSERT_EQ(task_->VmWrite(addr, &v, sizeof(v)), KernReturn::kSuccess);
  EXPECT_EQ(child->ReadValue<uint64_t>(addr).value(), 0x2222u);
  EXPECT_EQ(task_->ReadValue<uint64_t>(addr).value(), 0x3333u);
  child.reset();

  // …and after vm_copy, in either direction.
  VmOffset dst = task_->VmAllocate(2 * kPage).value();
  ASSERT_EQ(task_->VmCopy(addr, 2 * kPage, dst), KernReturn::kSuccess);
  before = task_->VmStats();
  v = 0x4444;
  ASSERT_EQ(task_->VmWrite(dst, &v, sizeof(v)), KernReturn::kSuccess);
  EXPECT_EQ(task_->ReadValue<uint64_t>(addr).value(), 0x3333u);
  v = 0x5555;
  ASSERT_EQ(task_->VmWrite(addr, &v, sizeof(v)), KernReturn::kSuccess);
  EXPECT_EQ(task_->ReadValue<uint64_t>(dst).value(), 0x4444u);
  EXPECT_EQ(task_->ReadValue<uint64_t>(addr).value(), 0x5555u);
  EXPECT_EQ(task_->VmStats().cow_faults - before.cow_faults, 2u);
}

TEST_F(VmEdgeTest, WriteAfterAnOutOfLineSendReachesEverySharer) {
  // An out-of-line send marks a shared region copy-on-write inside its
  // sharing map. The next write pushes a private copy there, and every task
  // sharing the map must read the new bytes, not a stale read-only
  // translation of the original page.
  VmOffset addr = task_->VmAllocate(kPage).value();
  ASSERT_EQ(task_->VmInherit(addr, kPage, VmInherit::kShare), KernReturn::kSuccess);
  ASSERT_EQ(task_->WriteValue<uint64_t>(addr, 1), KernReturn::kSuccess);
  std::shared_ptr<Task> child = kernel_->CreateTask(task_);
  ASSERT_EQ(child->ReadValue<uint64_t>(addr).value(), 1u);  // Mapped in both.
  auto copy = kernel_->vm().CopyIn(task_->vm_context(), addr, kPage);
  ASSERT_TRUE(copy.ok());
  ASSERT_EQ(task_->WriteValue<uint64_t>(addr, 2), KernReturn::kSuccess);
  EXPECT_EQ(child->ReadValue<uint64_t>(addr).value(), 2u);
  ASSERT_EQ(child->WriteValue<uint64_t>(addr, 3), KernReturn::kSuccess);
  EXPECT_EQ(task_->ReadValue<uint64_t>(addr).value(), 3u);
  // The copy kept the bytes of the moment it was taken.
  Result<std::vector<std::byte>> bytes = kernel_->vm().CopyAsBytes(copy.value());
  ASSERT_TRUE(bytes.ok());
  uint64_t sent = 0;
  std::memcpy(&sent, bytes.value().data(), sizeof(sent));
  EXPECT_EQ(sent, 1u);
  child.reset();
}

TEST_F(VmEdgeTest, SharedRegionReportedInRegions) {
  VmOffset addr = task_->VmAllocate(kPage).value();
  task_->VmInherit(addr, kPage, VmInherit::kShare);
  std::shared_ptr<Task> child = kernel_->CreateTask(task_);
  bool found_shared = false;
  for (const RegionInfo& region : task_->VmRegions()) {
    if (region.start == addr) {
      found_shared = region.is_shared;
    }
  }
  EXPECT_TRUE(found_shared);
}

TEST_F(VmEdgeTest, OolCopyOfUntouchedMemoryIsZero) {
  // Transferring never-touched (lazily zero-filled) memory works and the
  // receiver sees zeros.
  std::shared_ptr<Task> receiver = kernel_->CreateTask();
  VmOffset src = task_->VmAllocate(2 * kPage).value();
  auto copy = kernel_->vm().CopyIn(task_->vm_context(), src, 2 * kPage);
  ASSERT_TRUE(copy.ok());
  Result<VmOffset> dst = kernel_->vm().CopyOut(receiver->vm_context(), copy.value());
  ASSERT_TRUE(dst.ok());
  std::vector<uint8_t> out(2 * kPage, 0xFF);
  ASSERT_EQ(receiver->Read(dst.value(), out.data(), out.size()), KernReturn::kSuccess);
  for (uint8_t b : out) {
    ASSERT_EQ(b, 0);
  }
}

TEST_F(VmEdgeTest, CopyBytesRoundTrip) {
  // CopyAsBytes/CopyFromBytes (the cross-host transport primitives).
  VmOffset src = task_->VmAllocate(2 * kPage).value();
  std::vector<uint8_t> data(2 * kPage);
  std::iota(data.begin(), data.end(), 3);
  ASSERT_EQ(task_->Write(src, data.data(), data.size()), KernReturn::kSuccess);
  auto copy = kernel_->vm().CopyIn(task_->vm_context(), src, 2 * kPage).value();
  Result<std::vector<std::byte>> flat = kernel_->vm().CopyAsBytes(copy);
  ASSERT_TRUE(flat.ok());
  ASSERT_EQ(flat.value().size(), 2 * kPage);
  EXPECT_EQ(std::memcmp(flat.value().data(), data.data(), data.size()), 0);

  auto rebuilt = kernel_->vm().CopyFromBytes(flat.value().data(), flat.value().size());
  ASSERT_TRUE(rebuilt.ok());
  Result<VmOffset> dst = kernel_->vm().CopyOut(task_->vm_context(), rebuilt.value());
  ASSERT_TRUE(dst.ok());
  std::vector<uint8_t> out(2 * kPage);
  ASSERT_EQ(task_->Read(dst.value(), out.data(), out.size()), KernReturn::kSuccess);
  EXPECT_EQ(out, data);
}

TEST_F(VmEdgeTest, CopyFromBytesPartialPagePadsWithZeros) {
  std::vector<uint8_t> data(100, 0x77);
  auto copy = kernel_->vm().CopyFromBytes(data.data(), data.size());
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ(copy.value()->size(), kPage);  // Rounded to a page.
  Result<VmOffset> dst = kernel_->vm().CopyOut(task_->vm_context(), copy.value());
  ASSERT_TRUE(dst.ok());
  uint8_t head = 0, tail = 0xFF;
  ASSERT_EQ(task_->Read(dst.value(), &head, 1), KernReturn::kSuccess);
  ASSERT_EQ(task_->Read(dst.value() + 200, &tail, 1), KernReturn::kSuccess);
  EXPECT_EQ(head, 0x77);
  EXPECT_EQ(tail, 0);
}

TEST_F(VmEdgeTest, DeallocateSpanningManyEntries) {
  // Build a striped region (splits via per-page protection changes), then
  // deallocate the whole thing at once.
  VmOffset addr = task_->VmAllocate(8 * kPage).value();
  std::vector<uint8_t> data(8 * kPage, 0x21);
  ASSERT_EQ(task_->Write(addr, data.data(), data.size()), KernReturn::kSuccess);
  for (VmOffset p = 0; p < 8; p += 2) {
    ASSERT_EQ(task_->VmProtect(addr + p * kPage, kPage, false, kVmProtRead),
              KernReturn::kSuccess);
  }
  EXPECT_GE(task_->VmRegions().size(), 7u);  // Split into stripes.
  ASSERT_EQ(task_->VmDeallocate(addr, 8 * kPage), KernReturn::kSuccess);
  EXPECT_TRUE(task_->VmRegions().empty());
  uint8_t b;
  EXPECT_EQ(task_->Read(addr + 3 * kPage, &b, 1), KernReturn::kInvalidAddress);
}

TEST_F(VmEdgeTest, ForkWhileSplitEntriesExist) {
  VmOffset addr = task_->VmAllocate(4 * kPage).value();
  std::vector<uint8_t> data(4 * kPage, 0x44);
  ASSERT_EQ(task_->Write(addr, data.data(), data.size()), KernReturn::kSuccess);
  // Split: middle pages shared, outer pages copied.
  ASSERT_EQ(task_->VmInherit(addr + kPage, 2 * kPage, VmInherit::kShare), KernReturn::kSuccess);
  std::shared_ptr<Task> child = kernel_->CreateTask(task_);
  // Outer page: COW.
  uint32_t v = 1;
  ASSERT_EQ(child->Write(addr, &v, sizeof(v)), KernReturn::kSuccess);
  uint32_t out = 0;
  ASSERT_EQ(task_->Read(addr, &out, sizeof(out)), KernReturn::kSuccess);
  EXPECT_NE(out, 1u);
  // Middle page: shared.
  uint32_t sv = 2;
  ASSERT_EQ(child->Write(addr + kPage, &sv, sizeof(sv)), KernReturn::kSuccess);
  ASSERT_EQ(task_->Read(addr + kPage, &out, sizeof(out)), KernReturn::kSuccess);
  EXPECT_EQ(out, 2u);
}

TEST_F(VmEdgeTest, ReadAfterWriteThroughVmCopyChain) {
  // a -> b -> c chained vm_copies preserve values through two COW layers.
  VmOffset a = task_->VmAllocate(kPage).value();
  VmOffset b = task_->VmAllocate(kPage).value();
  VmOffset c = task_->VmAllocate(kPage).value();
  uint32_t v = 0x1A2B;
  ASSERT_EQ(task_->Write(a, &v, sizeof(v)), KernReturn::kSuccess);
  ASSERT_EQ(task_->VmCopy(a, kPage, b), KernReturn::kSuccess);
  ASSERT_EQ(task_->VmCopy(b, kPage, c), KernReturn::kSuccess);
  uint32_t v2 = 0x3C4D;
  ASSERT_EQ(task_->Write(b, &v2, sizeof(v2)), KernReturn::kSuccess);
  uint32_t out = 0;
  ASSERT_EQ(task_->Read(c, &out, sizeof(out)), KernReturn::kSuccess);
  EXPECT_EQ(out, 0x1A2Bu);  // c froze b's old value.
  ASSERT_EQ(task_->Read(a, &out, sizeof(out)), KernReturn::kSuccess);
  EXPECT_EQ(out, 0x1A2Bu);
}

TEST_F(VmEdgeTest, StatisticsHitRateImprovesOnRepeatedAccess) {
  VmOffset addr = task_->VmAllocate(4 * kPage).value();
  std::vector<uint8_t> buf(4 * kPage);
  task_->Read(addr, buf.data(), buf.size());
  VmStatistics first = task_->VmStats();
  // vm_read path: repeated kernel-mediated access hits the resident pages.
  for (int i = 0; i < 10; ++i) {
    task_->VmRead(addr, buf.data(), buf.size());
  }
  VmStatistics after = task_->VmStats();
  EXPECT_GT(after.hits, first.hits);
  EXPECT_GT(after.lookups, first.lookups);
}

TEST_F(VmEdgeTest, AllocateAtConflictsWithExistingRegion) {
  VmOffset addr = task_->VmAllocate(2 * kPage).value();
  EXPECT_EQ(task_->VmAllocate(kPage, false, addr + kPage).status(), KernReturn::kNoSpace);
  // But adjacent is fine.
  EXPECT_TRUE(task_->VmAllocate(kPage, false, addr + 2 * kPage).ok());
}

// A manager that accepts objects but never answers a data request; killing
// its memory-object port mid-fault exercises the death fast path (§6.2.1).
class SilentPager : public DataManager {
 public:
  SilentPager() : DataManager("silent") {}
  SendRight NewObject() { return CreateMemoryObject(1); }

 protected:
  void OnDataRequest(uint64_t, uint64_t, PagerDataRequestArgs) override {}
};

TEST_F(VmEdgeTest, ManagerDeathResolvesParkedFaulterWithErrorFast) {
  // Default policy (kError) and default pager_timeout (5 s): a faulter
  // parked on a dead manager's object must fail well before the timeout.
  SilentPager pager;
  pager.Start();
  SendRight object = pager.NewObject();
  VmOffset addr = task_->VmAllocateWithPager(kPage, object, 0).value();
  std::atomic<KernReturn> result{KernReturn::kSuccess};
  std::thread faulter([&] {
    uint64_t out = 0;
    result.store(task_->Read(addr, &out, sizeof(out)));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // Park it.
  auto death_time = std::chrono::steady_clock::now();
  pager.DestroyMemoryObject(object);
  faulter.join();
  auto resolved_in = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - death_time);
  EXPECT_EQ(result.load(), KernReturn::kMemoryError);
  EXPECT_LT(resolved_in.count(), 2000);  // Much less than the 5 s deadline.
  VmStatistics stats = kernel_->vm().Statistics();
  EXPECT_GE(stats.manager_deaths, 1u);
  EXPECT_GE(stats.death_resolved_pages, 1u);
  pager.Stop();
}

// An errant manager (§6 threat model) that answers data requests but also
// keeps the kernel's request port so the test can forge messages on it.
class ErrantPager : public DataManager {
 public:
  ErrantPager() : DataManager("errant") {}
  SendRight NewObject() { return CreateMemoryObject(1); }
  SendRight request_port() {
    std::lock_guard<std::mutex> g(mu_);
    return request_port_;
  }

 protected:
  void OnDataRequest(uint64_t, uint64_t, PagerDataRequestArgs args) override {
    {
      std::lock_guard<std::mutex> g(mu_);
      request_port_ = args.pager_request_port;
    }
    DataUnavailable(args.pager_request_port, args.offset, args.length);
  }

 private:
  std::mutex mu_;
  SendRight request_port_;
};

TEST_F(VmEdgeTest, ForgedDeathNotificationOnRequestPortIsIgnored) {
  // A kMsgIdPortDeath arriving on an ordinary pager request port was sent
  // by a manager, not the kernel: it must not sever the object it names.
  SilentPager victim;
  victim.Start();
  SendRight victim_object = victim.NewObject();
  ASSERT_TRUE(task_->VmAllocateWithPager(kPage, victim_object, 0).ok());
  ASSERT_NE(kernel_->vm().ObjectForPager(victim_object), nullptr);

  ErrantPager attacker;
  attacker.Start();
  SendRight attacker_object = attacker.NewObject();
  VmOffset addr = task_->VmAllocateWithPager(kPage, attacker_object, 0).value();
  uint64_t out = 0;
  ASSERT_EQ(task_->Read(addr, &out, sizeof(out)), KernReturn::kSuccess);  // Captures the port.
  SendRight request = attacker.request_port();
  ASSERT_TRUE(request.valid());

  // Forge a death notice naming the victim's memory-object port.
  Message forged(kMsgIdPortDeath);
  forged.PushU64(victim_object.id());
  ASSERT_EQ(MsgSend(request, std::move(forged)), KernReturn::kSuccess);

  // The victim is still bound to its (live) manager; no death was recorded.
  EXPECT_NE(kernel_->vm().ObjectForPager(victim_object), nullptr);
  EXPECT_EQ(kernel_->vm().Statistics().manager_deaths, 0u);
  attacker.Stop();
  victim.Stop();
  // The request port's handler declined the forgery: it is still queued.
  EXPECT_EQ(kernel_->vm().ObjectForPager(attacker_object)->request_receive.port()->Status().num_msgs,
            1u);
}

TEST(VmManagerDeathTest, BareVmSystemHandlesTheDeathAtItsNextEntry) {
  // No kernel thread at all: the death notice is recorded when the port
  // dies, and the next fault handles it before it looks at the object.
  PhysicalMemory phys(64, kPage);
  VmSystem::Config config;
  config.on_pager_timeout = VmSystem::Config::OnPagerTimeout::kZeroFill;
  VmSystem vm(&phys, config);
  TaskVm task = vm.CreateTaskVm();
  SilentPager pager;
  pager.Start();
  SendRight object = pager.NewObject();
  VmOffset addr = vm.AllocateWithPager(task, 0, kPage, true, object, 0).value();
  pager.DestroyMemoryObject(object);
  uint64_t out = 0xFFFF;
  ASSERT_EQ(vm.UserAccess(task, addr, &out, sizeof(out), /*is_write=*/false),
            KernReturn::kSuccess);
  EXPECT_EQ(out, 0u);
  EXPECT_EQ(vm.Statistics().manager_deaths, 1u);
  EXPECT_EQ(vm.ObjectForPager(object), nullptr);
  ASSERT_EQ(vm.Deallocate(task, addr, kPage), KernReturn::kSuccess);
  pager.Stop();
}

TEST(VmManagerDeathTest, ZeroFillPolicyRehomesObjectOnDeath) {
  // Under kZeroFill the parked faulter gets zeros instead of an error, and
  // the object is severed from the dead manager: later faults and writes
  // behave like ordinary anonymous memory.
  Kernel::Config config;
  config.frames = 64;
  config.page_size = kPage;
  config.disk_latency = DiskLatencyModel{0, 0};
  config.vm.on_pager_timeout = VmSystem::Config::OnPagerTimeout::kZeroFill;
  Kernel kernel(config);
  std::shared_ptr<Task> task = kernel.CreateTask();
  SilentPager pager;
  pager.Start();
  SendRight object = pager.NewObject();
  VmOffset addr = task->VmAllocateWithPager(2 * kPage, object, 0).value();
  std::atomic<KernReturn> result{KernReturn::kFailure};
  uint64_t out = 0xFFFF;
  std::thread faulter([&] { result.store(task->Read(addr, &out, sizeof(out))); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto death_time = std::chrono::steady_clock::now();
  pager.DestroyMemoryObject(object);
  faulter.join();
  auto resolved_in = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - death_time);
  EXPECT_EQ(result.load(), KernReturn::kSuccess);
  EXPECT_EQ(out, 0u);
  EXPECT_LT(resolved_in.count(), 2000);
  // The kernel dropped its association with the dead manager.
  EXPECT_EQ(kernel.vm().ObjectForPager(object), nullptr);
  // The never-faulted second page zero-fills like anonymous memory, and
  // writes succeed.
  uint64_t out2 = 0xFFFF;
  EXPECT_EQ(task->Read(addr + kPage, &out2, sizeof(out2)), KernReturn::kSuccess);
  EXPECT_EQ(out2, 0u);
  uint64_t v = 42;
  EXPECT_EQ(task->Write(addr, &v, sizeof(v)), KernReturn::kSuccess);
  VmStatistics stats = kernel.vm().Statistics();
  EXPECT_EQ(stats.manager_deaths, 1u);
  EXPECT_GE(stats.death_resolved_pages, 1u);
  task.reset();
  pager.Stop();
}

}  // namespace
}  // namespace mach
