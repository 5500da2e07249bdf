// Tests for copy-on-reference task migration (§8.2): demand paging against
// the source task, pre-paging, the eager baseline, transfer accounting, and
// migration across a NORMA link.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/kernel/task.h"
#include "src/managers/migrate/migration_manager.h"
#include "src/net/net_link.h"

namespace mach {
namespace {

constexpr VmSize kPage = 4096;

std::unique_ptr<Kernel> MakeHost(const std::string& name, uint32_t frames = 192) {
  Kernel::Config config;
  config.name = name;
  config.frames = frames;
  config.page_size = kPage;
  config.disk_latency = DiskLatencyModel{0, 0};
  return std::make_unique<Kernel>(config);
}

class MigrateTest : public ::testing::Test {
 protected:
  MigrateTest() {
    src_host_ = MakeHost("src");
    dst_host_ = MakeHost("dst");
    manager_ = std::make_unique<MigrationManager>();
    manager_->Start();
    source_ = src_host_->CreateTask(nullptr, "victim");
  }
  ~MigrateTest() override {
    migrated_.reset();
    source_.reset();
    manager_->Stop();
  }

  // Builds a source task with `pages` of stamped memory; returns the base.
  VmOffset Populate(VmSize pages) {
    VmOffset addr = source_->VmAllocate(pages * kPage).value();
    for (VmOffset p = 0; p < pages; ++p) {
      uint64_t stamp = Stamp(p);
      EXPECT_EQ(source_->Write(addr + p * kPage, &stamp, sizeof(stamp)), KernReturn::kSuccess);
    }
    return addr;
  }

  static uint64_t Stamp(VmOffset page) { return 0x517E000000000000ull + page; }

  std::unique_ptr<Kernel> src_host_;
  std::unique_ptr<Kernel> dst_host_;
  std::unique_ptr<MigrationManager> manager_;
  std::shared_ptr<Task> source_;
  std::shared_ptr<Task> migrated_;
};

TEST_F(MigrateTest, CopyOnReferenceSeesSourceMemory) {
  VmOffset addr = Populate(16);
  MigrationManager::Options options;
  Result<std::shared_ptr<Task>> r = manager_->Migrate(source_, dst_host_.get(), options);
  ASSERT_TRUE(r.ok());
  migrated_ = r.value();
  for (VmOffset p = 0; p < 16; ++p) {
    uint64_t out = 0;
    ASSERT_EQ(migrated_->Read(addr + p * kPage, &out, sizeof(out)), KernReturn::kSuccess);
    EXPECT_EQ(out, Stamp(p));
  }
}

TEST_F(MigrateTest, OnlyTouchedPagesTransfer) {
  VmOffset addr = Populate(64);
  MigrationManager::Options options;
  migrated_ = manager_->Migrate(source_, dst_host_.get(), options).value();
  EXPECT_EQ(manager_->pages_transferred(), 0u);  // Nothing moved yet.
  // Touch 5 pages only.
  for (VmOffset p = 0; p < 5; ++p) {
    uint64_t out = 0;
    ASSERT_EQ(migrated_->Read(addr + p * kPage, &out, sizeof(out)), KernReturn::kSuccess);
  }
  EXPECT_GE(manager_->pages_transferred(), 5u);
  EXPECT_LE(manager_->pages_transferred(), 10u);  // Far fewer than 64.
}

TEST_F(MigrateTest, EagerCopiesEverythingUpFront) {
  VmOffset addr = Populate(32);
  MigrationManager::Options options;
  options.strategy = MigrationManager::Strategy::kEager;
  migrated_ = manager_->Migrate(source_, dst_host_.get(), options).value();
  EXPECT_GE(manager_->pages_transferred(), 32u);
  uint64_t out = 0;
  ASSERT_EQ(migrated_->Read(addr + 31 * kPage, &out, sizeof(out)), KernReturn::kSuccess);
  EXPECT_EQ(out, Stamp(31));
  EXPECT_EQ(manager_->demand_requests(), 0u);  // No faults back to source.
}

TEST_F(MigrateTest, PrePageReducesDemandFaults) {
  VmOffset addr = Populate(16);
  MigrationManager::Options options;
  options.strategy = MigrationManager::Strategy::kPrePage;
  options.prepage_pages = 8;
  migrated_ = manager_->Migrate(source_, dst_host_.get(), options).value();
  // Give the pushed pages a moment to land.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  uint64_t demand_before = manager_->demand_requests();
  for (VmOffset p = 0; p < 8; ++p) {
    uint64_t out = 0;
    ASSERT_EQ(migrated_->Read(addr + p * kPage, &out, sizeof(out)), KernReturn::kSuccess);
    EXPECT_EQ(out, Stamp(p));
  }
  // The pre-paged range needed no (or few) demand faults.
  EXPECT_LE(manager_->demand_requests() - demand_before, 2u);
}

TEST_F(MigrateTest, MigratedWritesAreIndependentOfSource) {
  VmOffset addr = Populate(4);
  MigrationManager::Options options;
  migrated_ = manager_->Migrate(source_, dst_host_.get(), options).value();
  uint64_t v = 0xAAAA;
  ASSERT_EQ(migrated_->Write(addr, &v, sizeof(v)), KernReturn::kSuccess);
  // The source (suspended but readable via vm_read) is unchanged.
  uint64_t src_v = 0;
  ASSERT_EQ(source_->VmRead(addr, &src_v, sizeof(src_v)), KernReturn::kSuccess);
  EXPECT_EQ(src_v, Stamp(0));
}

TEST_F(MigrateTest, MigratedTaskSurvivesCachePressure) {
  // Destination kernel evicts migrated pages (writebacks to the manager);
  // refaults must see the migrated task's own writes.
  VmOffset addr = Populate(8);
  MigrationManager::Options options;
  migrated_ = manager_->Migrate(source_, dst_host_.get(), options).value();
  for (VmOffset p = 0; p < 8; ++p) {
    uint64_t v = 0xBBBB000000000000ull + p;
    ASSERT_EQ(migrated_->Write(addr + p * kPage, &v, sizeof(v)), KernReturn::kSuccess);
  }
  // Pressure: churn enough anonymous memory through the destination.
  VmOffset churn = migrated_->VmAllocate(256 * kPage).value();
  std::vector<uint8_t> junk(256 * kPage, 0x11);
  ASSERT_EQ(migrated_->Write(churn, junk.data(), junk.size()), KernReturn::kSuccess);
  for (VmOffset p = 0; p < 8; ++p) {
    uint64_t out = 0;
    ASSERT_EQ(migrated_->Read(addr + p * kPage, &out, sizeof(out)), KernReturn::kSuccess);
    EXPECT_EQ(out, 0xBBBB000000000000ull + p) << "page " << p;
  }
}

TEST_F(MigrateTest, RunningThreadMigratesAndContinues) {
  // The paper's scenario: a task is frozen, its address space migrates by
  // reference, and the computation resumes on the new host.
  VmOffset addr = source_->VmAllocate(2 * kPage).value();
  uint64_t acc = 0;
  for (VmOffset i = 0; i < 100; ++i) {
    acc += i;
  }
  ASSERT_EQ(source_->WriteValue<uint64_t>(addr, acc), KernReturn::kSuccess);
  ASSERT_EQ(source_->WriteValue<uint64_t>(addr + 8, 100), KernReturn::kSuccess);

  MigrationManager::Options options;
  migrated_ = manager_->Migrate(source_, dst_host_.get(), options).value();
  // Resume the computation on the destination host.
  std::shared_ptr<Thread> worker = migrated_->SpawnThread([addr](Thread& self) {
    uint64_t sum = self.task().ReadValue<uint64_t>(addr).value_or(0);
    uint64_t next = self.task().ReadValue<uint64_t>(addr + 8).value_or(0);
    for (uint64_t i = next; i < 200; ++i) {
      sum += i;
    }
    self.task().WriteValue<uint64_t>(addr, sum);
  });
  worker->Join();
  uint64_t expect = 0;
  for (uint64_t i = 0; i < 200; ++i) {
    expect += i;
  }
  EXPECT_EQ(migrated_->ReadValue<uint64_t>(addr).value(), expect);
}

TEST_F(MigrateTest, MigrationOverNormaLink) {
  SimClock net_clock;
  NetLink link(&src_host_->vm(), &dst_host_->vm(), &net_clock, kNormaLatency);
  VmOffset addr = Populate(16);
  MigrationManager::Options options;
  options.export_port = [&](SendRight object) { return link.ProxyForB(std::move(object)); };
  migrated_ = manager_->Migrate(source_, dst_host_.get(), options).value();
  uint64_t msgs_before = link.messages_forwarded();
  uint64_t out = 0;
  ASSERT_EQ(migrated_->Read(addr + 3 * kPage, &out, sizeof(out)), KernReturn::kSuccess);
  EXPECT_EQ(out, Stamp(3));
  EXPECT_GT(link.messages_forwarded(), msgs_before);  // Page moved on the wire.
  EXPECT_GT(net_clock.NowNs(), 0u);
}

TEST_F(MigrateTest, LinkDeathMidMigrationAbortsThenRetrySucceeds) {
  // The link partitions before the transfer: the failure detector declares
  // the peer dead, the exported proxies die, and Migrate unwinds with a
  // typed kMigrationAborted instead of hanging or half-transferring. After
  // the link heals, retrying the same migration succeeds.
  SimClock net_clock;
  NetFaultConfig faults;
  faults.reliable = true;
  faults.failure_detector = true;
  faults.max_retransmits = 2;
  faults.retransmit_base_ns = 1000;
  faults.degraded_after_timeouts = 1;
  faults.dead_after_timeouts = 3;
  NetLink link(&src_host_->vm(), &dst_host_->vm(), &net_clock, kUmaLatency, faults);

  VmOffset addr = Populate(16);
  MigrationManager::Options options;
  options.strategy = MigrationManager::Strategy::kPrePage;
  options.prepage_pages = 4;
  options.export_port = [&](SendRight object) { return link.ProxyForB(std::move(object)); };

  link.SetPartitioned(true);
  Result<std::shared_ptr<Task>> r = manager_->Migrate(source_, dst_host_.get(), options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status(), KernReturn::kMigrationAborted);
  EXPECT_EQ(manager_->migrations_aborted(), 1u);
  EXPECT_GE(link.peer_dead_events(), 1u);
  // The source was resumed by the unwind and is intact.
  uint64_t src_v = 0;
  ASSERT_EQ(source_->VmRead(addr, &src_v, sizeof(src_v)), KernReturn::kSuccess);
  EXPECT_EQ(src_v, Stamp(0));

  // Heal, and wait for the heartbeats to bring both directions back up.
  link.SetPartitioned(false);
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while ((link.a_to_b_status().health != LinkHealth::kUp ||
          link.b_to_a_status().health != LinkHealth::kUp) &&
         std::chrono::steady_clock::now() < deadline) {
    link.Tick();
  }
  ASSERT_EQ(link.a_to_b_status().health, LinkHealth::kUp);
  ASSERT_EQ(link.b_to_a_status().health, LinkHealth::kUp);

  // Source must be suspended-able again: retry the whole migration.
  Result<std::shared_ptr<Task>> retry = manager_->Migrate(source_, dst_host_.get(), options);
  ASSERT_TRUE(retry.ok()) << KernReturnName(retry.status());
  migrated_ = retry.value();
  for (VmOffset p = 0; p < 16; ++p) {
    uint64_t out = 0;
    ASSERT_EQ(migrated_->Read(addr + p * kPage, &out, sizeof(out)), KernReturn::kSuccess);
    EXPECT_EQ(out, Stamp(p)) << "page " << p;
  }
  EXPECT_EQ(manager_->migrations_aborted(), 1u);  // The retry did not abort.
}

}  // namespace
}  // namespace mach
