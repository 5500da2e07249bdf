// Tests for the Camelot-style recovery manager (§8.3): recoverable segments
// mapped into client address spaces, write-ahead logging, the WAL rule on
// pageout, abort, crash recovery (redo winners / undo losers), and
// randomized crash-point property tests.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/kernel/task.h"
#include "src/managers/camelot/recovery_manager.h"
#include "src/managers/camelot/wal.h"

namespace mach {
namespace {

constexpr VmSize kPage = 4096;

// --- WAL unit tests -----------------------------------------------------------

class WalTest : public ::testing::Test {
 protected:
  WalTest() : disk_(256, 512, nullptr, DiskLatencyModel{0, 0}), log_(&disk_) {}
  SimDisk disk_;
  WriteAheadLog log_;
};

TEST_F(WalTest, AppendAssignsMonotonicLsns) {
  LogRecord rec;
  rec.type = LogRecord::Type::kBegin;
  EXPECT_EQ(log_.Append(rec), 1u);
  EXPECT_EQ(log_.Append(rec), 2u);
  EXPECT_EQ(log_.last_lsn(), 2u);
  EXPECT_EQ(log_.forced_lsn(), 0u);
}

TEST_F(WalTest, ForceMakesRecordsDurable) {
  LogRecord rec;
  rec.type = LogRecord::Type::kUpdate;
  rec.tid = 9;
  rec.segment = 3;
  rec.offset = 0x1000;
  rec.old_data = {std::byte{1}, std::byte{2}};
  rec.new_data = {std::byte{3}, std::byte{4}, std::byte{5}};
  log_.Append(rec);
  log_.Force();
  std::vector<LogRecord> all = log_.ReadAll();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].tid, 9u);
  EXPECT_EQ(all[0].segment, 3u);
  EXPECT_EQ(all[0].offset, 0x1000u);
  EXPECT_EQ(all[0].old_data.size(), 2u);
  EXPECT_EQ(all[0].new_data.size(), 3u);
  EXPECT_EQ(all[0].new_data[2], std::byte{5});
}

TEST_F(WalTest, CrashDropsUnforcedTail) {
  LogRecord rec;
  rec.type = LogRecord::Type::kBegin;
  rec.tid = 1;
  log_.Append(rec);
  log_.Force();
  rec.tid = 2;
  log_.Append(rec);  // Not forced.
  log_.SimulateCrash();
  std::vector<LogRecord> all = log_.ReadAll();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].tid, 1u);
}

TEST_F(WalTest, ReopenedLogContinuesLsns) {
  LogRecord rec;
  rec.type = LogRecord::Type::kCommit;
  rec.tid = 5;
  log_.Append(rec);
  log_.Append(rec);
  log_.Force();
  WriteAheadLog reopened(&disk_);
  EXPECT_EQ(reopened.last_lsn(), 2u);
  LogRecord more;
  more.type = LogRecord::Type::kBegin;
  EXPECT_EQ(reopened.Append(more), 3u);
  reopened.Force();
  EXPECT_EQ(reopened.ReadAll().size(), 3u);
}

TEST_F(WalTest, RecordsSpanBlockBoundaries) {
  LogRecord rec;
  rec.type = LogRecord::Type::kUpdate;
  rec.new_data.assign(300, std::byte{0x7});  // > half a 512-byte block.
  for (int i = 0; i < 8; ++i) {
    log_.Append(rec);
  }
  log_.Force();
  EXPECT_EQ(log_.ReadAll().size(), 8u);
}

// --- recovery manager end-to-end -----------------------------------------------

class CamelotTest : public ::testing::Test {
 protected:
  CamelotTest() {
    Kernel::Config config;
    config.frames = 96;
    config.page_size = kPage;
    config.disk_latency = DiskLatencyModel{0, 0};
    kernel_ = std::make_unique<Kernel>(config);
    // The disks outlive the kernel (the crash tests destroy and recreate
    // it), so they must not hold the kernel's clock. Latency is zero here
    // anyway.
    data_disk_ = std::make_unique<SimDisk>(1024, kPage, nullptr, DiskLatencyModel{0, 0});
    log_disk_ = std::make_unique<SimDisk>(2048, 512, nullptr, DiskLatencyModel{0, 0});
    rm_ = std::make_unique<RecoveryManager>(data_disk_.get(), log_disk_.get(), kPage);
    rm_->Start();
    task_ = kernel_->CreateTask(nullptr, "camelot-client");
  }
  ~CamelotTest() override {
    task_.reset();
    rm_->Stop();
  }

  std::unique_ptr<Kernel> kernel_;
  std::unique_ptr<SimDisk> data_disk_;
  std::unique_ptr<SimDisk> log_disk_;
  std::unique_ptr<RecoveryManager> rm_;
  std::shared_ptr<Task> task_;
};

TEST_F(CamelotTest, MapSegmentAndReadZeros) {
  RecoverableSegment seg =
      RecoverableSegment::Map(rm_.get(), task_.get(), "bank", 4 * kPage).value();
  uint64_t v = 0xFF;
  ASSERT_EQ(task_->Read(seg.base(), &v, sizeof(v)), KernReturn::kSuccess);
  EXPECT_EQ(v, 0u);
}

TEST_F(CamelotTest, CommittedWriteIsVisible) {
  RecoverableSegment seg =
      RecoverableSegment::Map(rm_.get(), task_.get(), "bank", 4 * kPage).value();
  Transaction txn(rm_.get());
  uint64_t balance = 1000;
  ASSERT_EQ(txn.Write(seg, 0, &balance, sizeof(balance)), KernReturn::kSuccess);
  ASSERT_EQ(txn.Commit(), KernReturn::kSuccess);
  EXPECT_EQ(task_->ReadValue<uint64_t>(seg.base()).value(), 1000u);
}

TEST_F(CamelotTest, CommitForcesTheLog) {
  RecoverableSegment seg =
      RecoverableSegment::Map(rm_.get(), task_.get(), "bank", kPage).value();
  uint64_t forces_before = rm_->log_force_count();
  Transaction txn(rm_.get());
  uint64_t v = 7;
  txn.Write(seg, 0, &v, sizeof(v));
  EXPECT_EQ(rm_->log_force_count(), forces_before);  // No force yet.
  txn.Commit();
  EXPECT_GT(rm_->log_force_count(), forces_before);
}

TEST_F(CamelotTest, AbortRestoresOldValues) {
  RecoverableSegment seg =
      RecoverableSegment::Map(rm_.get(), task_.get(), "bank", kPage).value();
  {
    Transaction setup(rm_.get());
    uint64_t v = 500;
    setup.Write(seg, 16, &v, sizeof(v));
    setup.Commit();
  }
  {
    Transaction txn(rm_.get());
    uint64_t v = 999;
    txn.Write(seg, 16, &v, sizeof(v));
    EXPECT_EQ(task_->ReadValue<uint64_t>(seg.base() + 16).value(), 999u);  // Dirty read.
    txn.Abort();
  }
  EXPECT_EQ(task_->ReadValue<uint64_t>(seg.base() + 16).value(), 500u);
}

TEST_F(CamelotTest, WalRuleEnforcedOnPageout) {
  // Dirty recoverable pages evicted under memory pressure must not reach
  // the data disk before their log records are durable (§8.3).
  RecoverableSegment seg =
      RecoverableSegment::Map(rm_.get(), task_.get(), "big", 128 * kPage).value();
  Transaction txn(rm_.get());
  for (VmOffset p = 0; p < 128; ++p) {
    uint64_t v = 0xC0DE000000000000ull + p;
    ASSERT_EQ(txn.Write(seg, p * kPage, &v, sizeof(v)), KernReturn::kSuccess);
  }
  // 128 dirty pages vs 96 frames: evictions happened before this commit,
  // and each pre-commit eviction had to force the log first.
  EXPECT_GT(rm_->pageout_count(), 0u);
  EXPECT_GT(rm_->wal_enforced_count(), 0u);
  txn.Commit();
  // Everything still readable and correct.
  for (VmOffset p = 0; p < 128; ++p) {
    ASSERT_EQ(task_->ReadValue<uint64_t>(seg.base() + p * kPage).value(),
              0xC0DE000000000000ull + p);
  }
}

TEST_F(CamelotTest, LogDiskFaultDefersPageoutInsteadOfViolatingWal) {
  // When the log disk cannot force the WAL, dirty recoverable pages must
  // NOT reach the data disk (that would let a crash lose a committed
  // update). The manager stashes them, serves re-reads from the stash, and
  // completes the writes once the log heals.
  RecoverableSegment seg =
      RecoverableSegment::Map(rm_.get(), task_.get(), "big", 128 * kPage).value();
  FaultInjector inj(7);
  inj.SetProbability(SimDisk::kFaultWrite, 1.0);
  log_disk_->set_fault_injector(&inj);
  Transaction txn(rm_.get());
  for (VmOffset p = 0; p < 128; ++p) {
    uint64_t v = 0xFEED000000000000ull + p;
    ASSERT_EQ(txn.Write(seg, p * kPage, &v, sizeof(v)), KernReturn::kSuccess);
  }
  // 128 dirty pages vs 96 frames forced evictions, all with an unforceable
  // log: every one was deferred, none reached the data disk.
  EXPECT_GT(rm_->deferred_pageout_count(), 0u);
  EXPECT_EQ(rm_->pageout_count(), 0u);
  EXPECT_GT(rm_->io_error_count(), 0u);
  // Evicted pages are still readable (served from the deferred stash).
  EXPECT_EQ(task_->ReadValue<uint64_t>(seg.base()).value(), 0xFEED000000000000ull);
  // Heal the log; commit forces it and flushes the deferred pageouts.
  log_disk_->set_fault_injector(nullptr);
  ASSERT_EQ(txn.Commit(), KernReturn::kSuccess);
  EXPECT_GT(rm_->pageout_count(), 0u);
  for (VmOffset p = 0; p < 128; ++p) {
    ASSERT_EQ(task_->ReadValue<uint64_t>(seg.base() + p * kPage).value(),
              0xFEED000000000000ull + p);
  }
}

TEST_F(CamelotTest, WalForceFailureDefersWholeClusteredRunAndServesRereads) {
  // Clustered pageout hands the manager multi-page pager_data_write runs.
  // When the WAL force fails, every page of the run must land in the
  // deferred stash — a partially-applied run would put some pages on the
  // data disk while the log records describing them are still volatile.
  RecoverableSegment seg =
      RecoverableSegment::Map(rm_.get(), task_.get(), "runs", 128 * kPage).value();
  FaultInjector inj(11);
  inj.SetProbability(SimDisk::kFaultWrite, 1.0);
  log_disk_->set_fault_injector(&inj);
  VmStatistics before = kernel_->vm().Statistics();
  Transaction txn(rm_.get());
  for (VmOffset p = 0; p < 128; ++p) {
    uint64_t v = 0x2015'0000'0000ull + p;
    ASSERT_EQ(txn.Write(seg, p * kPage, &v, sizeof(v)), KernReturn::kSuccess);
  }
  VmStatistics after = kernel_->vm().Statistics();
  // The sequential dirty sweep through the 96-frame pool sent genuinely
  // clustered write-backs (more pages than messages)...
  ASSERT_GT(after.pageout_runs, before.pageout_runs);
  EXPECT_GT(after.pageout_run_pages - before.pageout_run_pages,
            after.pageout_runs - before.pageout_runs);
  // ...and with the log unforceable, no page of any run reached the data
  // disk; each was stashed individually.
  EXPECT_EQ(rm_->pageout_count(), 0u);
  EXPECT_GT(rm_->deferred_pageout_count(), 1u);
  // Every page — whichever run carried it out — re-reads correctly from
  // the stash while the fault is still armed and the disk holds nothing.
  for (VmOffset p = 0; p < 128; ++p) {
    ASSERT_EQ(task_->ReadValue<uint64_t>(seg.base() + p * kPage).value(),
              0x2015'0000'0000ull + p)
        << "page " << p;
  }
  // Heal and commit: the stash drains and the data is durable.
  log_disk_->set_fault_injector(nullptr);
  ASSERT_EQ(txn.Commit(), KernReturn::kSuccess);
  EXPECT_GT(rm_->pageout_count(), 0u);
  for (VmOffset p = 0; p < 128; ++p) {
    ASSERT_EQ(task_->ReadValue<uint64_t>(seg.base() + p * kPage).value(),
              0x2015'0000'0000ull + p);
  }
}

TEST_F(CamelotTest, CrashRecoveryRedoesCommittedTransactions) {
  {
    RecoverableSegment seg =
        RecoverableSegment::Map(rm_.get(), task_.get(), "acct", kPage).value();
    Transaction txn(rm_.get());
    uint64_t v = 4242;
    txn.Write(seg, 0, &v, sizeof(v));
    txn.Commit();
    // CRASH: volatile state (kernel page cache + log tail) is lost. The
    // committed update may never have been paged out.
    rm_->SimulateCrash();
    task_.reset();
    kernel_.reset();
  }
  // Reboot: fresh kernel, fresh manager over the same disks.
  Kernel::Config config;
  config.frames = 96;
  config.page_size = kPage;
  config.disk_latency = DiskLatencyModel{0, 0};
  kernel_ = std::make_unique<Kernel>(config);
  rm_ = std::make_unique<RecoveryManager>(data_disk_.get(), log_disk_.get(), kPage);
  rm_->Start();
  rm_->Recover();
  task_ = kernel_->CreateTask(nullptr, "rebooted");
  RecoverableSegment seg =
      RecoverableSegment::Map(rm_.get(), task_.get(), "acct", kPage).value();
  EXPECT_EQ(task_->ReadValue<uint64_t>(seg.base()).value(), 4242u);
}

TEST_F(CamelotTest, CrashRecoveryUndoesUncommittedTransactions) {
  {
    RecoverableSegment seg =
        RecoverableSegment::Map(rm_.get(), task_.get(), "acct2", kPage).value();
    Transaction setup(rm_.get());
    uint64_t v = 100;
    setup.Write(seg, 0, &v, sizeof(v));
    setup.Commit();
    // An uncommitted transaction writes, and its dirty page even reaches
    // disk via an explicit eviction path: force the log so the update
    // records are durable (as a pageout would), then crash mid-flight.
    Transaction loser(rm_.get());
    uint64_t bad = 666;
    loser.Write(seg, 0, &bad, sizeof(bad));
    // Make the loser's update durable in the log (as the WAL rule would on
    // pageout), but crash before commit.
    rm_->CommitTransaction(0);  // tid 0 commits nothing; just forces log.
    rm_->SimulateCrash();
    task_.reset();
    kernel_.reset();
  }
  Kernel::Config config;
  config.frames = 96;
  config.page_size = kPage;
  config.disk_latency = DiskLatencyModel{0, 0};
  kernel_ = std::make_unique<Kernel>(config);
  rm_ = std::make_unique<RecoveryManager>(data_disk_.get(), log_disk_.get(), kPage);
  rm_->Start();
  rm_->Recover();
  task_ = kernel_->CreateTask(nullptr, "rebooted");
  RecoverableSegment seg =
      RecoverableSegment::Map(rm_.get(), task_.get(), "acct2", kPage).value();
  // The loser was undone; the committed value survives.
  EXPECT_EQ(task_->ReadValue<uint64_t>(seg.base()).value(), 100u);
}

TEST_F(CamelotTest, RandomizedCrashPointsPreserveAtomicity) {
  // Property: after a crash at an arbitrary point in a transaction stream,
  // recovery yields exactly the effects of committed transactions, applied
  // in order.
  std::mt19937 rng(2026);
  for (int trial = 0; trial < 5; ++trial) {
    std::string segname = "prop" + std::to_string(trial);
    RecoverableSegment seg =
        RecoverableSegment::Map(rm_.get(), task_.get(), segname, kPage).value();
    // Reference model: committed slot values.
    std::vector<uint64_t> committed(8, 0);
    int crash_after = static_cast<int>(rng() % 10);
    for (int t = 0; t < 10; ++t) {
      Transaction txn(rm_.get());
      std::vector<std::pair<size_t, uint64_t>> writes;
      for (int w = 0; w < 3; ++w) {
        size_t slot = rng() % 8;
        uint64_t value = rng();
        writes.emplace_back(slot, value);
        ASSERT_EQ(txn.Write(seg, slot * 64, &value, sizeof(value)), KernReturn::kSuccess);
      }
      bool commit = (rng() % 2) == 0;
      if (commit) {
        txn.Commit();
        for (auto& [slot, value] : writes) {
          committed[slot] = value;
        }
      } else {
        txn.Abort();
      }
      if (t == crash_after) {
        break;
      }
    }
    rm_->SimulateCrash();
    rm_->Recover();
    // Validate against the data disk through a fresh manager view: read
    // the segment via a fresh mapping (fresh task to avoid stale cache).
    std::shared_ptr<Task> checker = kernel_->CreateTask(nullptr, "checker");
    // Note: the old kernel's cache may hold newer (uncommitted, undone)
    // data; map through a *new* object is not possible for the same
    // segment, so read the disk-backed truth via the recovery manager's
    // own state: flush the old mapping first.
    task_->VmDeallocate(seg.base(), seg.size());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    rm_->Recover();  // Idempotent; re-applies after any late writebacks.
    RecoverableSegment check =
        RecoverableSegment::Map(rm_.get(), checker.get(), segname, kPage).value();
    for (size_t slot = 0; slot < 8; ++slot) {
      uint64_t v = checker->ReadValue<uint64_t>(check.base() + slot * 64).value_or(~0ull);
      EXPECT_EQ(v, committed[slot]) << "trial " << trial << " slot " << slot;
    }
    checker.reset();
  }
}

// The example's teardown order — crash, drop the client task, destroy the
// manager, then the kernel — with dirty segment pages in the kernel cache.
// Dropping the task terminates the segment object, which sends its dirty
// pages to the manager as pager_data_write runs. The manager is destroyed
// as soon as its service thread has started writing them to disk, so the
// thread is still inside OnDataWrite: ~RecoveryManager must stop it before
// the segment directory and the log it writes into are torn down. ASan
// reports the use-after-free if the order is wrong.
TEST(CamelotTeardownTest, ManagerDestroyedWhileDirtyPagesArePagedOut) {
  constexpr int kRounds = 8;
  constexpr VmSize kPages = 256;  // 16 write-back runs per round.
  SimDisk data_disk(1024, kPage, nullptr, DiskLatencyModel{0, 0});
  SimDisk log_disk(16384, 512, nullptr, DiskLatencyModel{0, 0});
  Kernel::Config config;
  config.frames = 512;  // Everything stays resident until the task dies.
  config.page_size = kPage;
  config.disk_latency = DiskLatencyModel{0, 0};
  for (int round = 0; round < kRounds; ++round) {
    auto kernel = std::make_unique<Kernel>(config);
    auto rm = std::make_unique<RecoveryManager>(&data_disk, &log_disk, kPage);
    rm->Start();
    std::shared_ptr<Task> task = kernel->CreateTask(nullptr, "teardown-client");
    RecoverableSegment seg =
        RecoverableSegment::Map(rm.get(), task.get(), "teardown", kPages * kPage).value();
    {
      Transaction txn(rm.get());
      for (VmSize p = 0; p < kPages; ++p) {
        uint64_t v = uint64_t(round) * 1000 + p;
        ASSERT_EQ(txn.Write(seg, p * kPage, &v, sizeof(v)), KernReturn::kSuccess);
      }
      ASSERT_EQ(txn.Commit(), KernReturn::kSuccess);
    }
    rm->SimulateCrash();
    const uint64_t handled = rm->pageout_count() + rm->deferred_pageout_count();
    task.reset();
    for (int spin = 0;
         spin < 10'000'000 && rm->pageout_count() + rm->deferred_pageout_count() == handled;
         ++spin) {
      std::this_thread::yield();
    }
    rm.reset();
    kernel.reset();
  }
}

}  // namespace
}  // namespace mach
