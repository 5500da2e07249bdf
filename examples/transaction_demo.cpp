// Camelot-style transactions (§8.3): a tiny bank keeps its accounts in a
// recoverable virtual memory segment. Transfers are failure-atomic; a
// simulated crash loses all volatile state, and recovery from the
// write-ahead log restores exactly the committed balance sheet.
//
//   $ ./examples/transaction_demo

#include <cstdio>
#include <memory>

#include "src/kernel/kernel.h"
#include "src/kernel/task.h"
#include "src/managers/camelot/recovery_manager.h"

using namespace mach;

namespace {
constexpr VmSize kPage = 4096;
constexpr int kAccounts = 8;

uint64_t Balance(Task& task, const RecoverableSegment& seg, int account) {
  return task.ReadValue<uint64_t>(seg.base() + account * 64).value_or(0);
}

KernReturn Transfer(RecoveryManager* rm, const RecoverableSegment& seg, int from, int to,
                    uint64_t amount, bool fail_midway) {
  Transaction txn(rm);
  uint64_t from_balance = Balance(*seg.task(), seg, from);
  uint64_t to_balance = Balance(*seg.task(), seg, to);
  uint64_t new_from = from_balance - amount;
  txn.Write(seg, from * 64, &new_from, sizeof(new_from));
  if (fail_midway) {
    // Something went wrong between the two writes: abort undoes the debit.
    txn.Abort();
    return KernReturn::kAborted;
  }
  uint64_t new_to = to_balance + amount;
  txn.Write(seg, to * 64, &new_to, sizeof(new_to));
  return txn.Commit();
}
}  // namespace

int main() {
  Kernel::Config config;
  config.name = "bank-host";
  config.frames = 128;
  config.page_size = kPage;
  auto kernel = std::make_unique<Kernel>(config);
  // The recovery manager's permanent storage: a data disk and a log disk.
  // They outlive the crash below, so they charge a clock of their own, not
  // the kernel's, which dies with it.
  SimClock disk_clock;
  SimDisk data_disk(1024, kPage, &disk_clock);
  SimDisk log_disk(4096, 512, &disk_clock);
  auto rm = std::make_unique<RecoveryManager>(&data_disk, &log_disk, kPage);
  rm->Start();

  std::shared_ptr<Task> bank = kernel->CreateTask(nullptr, "bank");
  RecoverableSegment ledger =
      RecoverableSegment::Map(rm.get(), bank.get(), "ledger", kPage).value();
  std::printf("ledger mapped at 0x%llx (recoverable segment %llu)\n",
              (unsigned long long)ledger.base(), (unsigned long long)ledger.id());

  // Seed the accounts with 1000 each, in one transaction.
  {
    Transaction txn(rm.get());
    for (int a = 0; a < kAccounts; ++a) {
      uint64_t initial = 1000;
      txn.Write(ledger, a * 64, &initial, sizeof(initial));
    }
    txn.Commit();
  }

  // A committed transfer, a deliberately aborted one, and a transfer that
  // commits but whose pages never reach disk before the crash.
  Transfer(rm.get(), ledger, 0, 1, 250, /*fail_midway=*/false);
  std::printf("transfer 0->1 of 250 committed: a0=%llu a1=%llu\n",
              (unsigned long long)Balance(*bank, ledger, 0),
              (unsigned long long)Balance(*bank, ledger, 1));
  Transfer(rm.get(), ledger, 2, 3, 999, /*fail_midway=*/true);
  std::printf("transfer 2->3 aborted midway: a2=%llu a3=%llu (restored)\n",
              (unsigned long long)Balance(*bank, ledger, 2),
              (unsigned long long)Balance(*bank, ledger, 3));
  Transfer(rm.get(), ledger, 4, 5, 100, /*fail_midway=*/false);

  uint64_t total_before = 0;
  for (int a = 0; a < kAccounts; ++a) {
    total_before += Balance(*bank, ledger, a);
  }
  std::printf("total before crash: %llu (forces=%llu wal-enforced=%llu)\n",
              (unsigned long long)total_before, (unsigned long long)rm->log_force_count(),
              (unsigned long long)rm->wal_enforced_count());

  // CRASH: every volatile thing dies — the kernel (and its page cache),
  // the task, the manager's log tail.
  std::printf("\n*** CRASH ***\n\n");
  rm->SimulateCrash();
  bank.reset();
  rm.reset();
  kernel.reset();

  // Reboot: fresh kernel and manager over the same two disks.
  auto kernel2 = std::make_unique<Kernel>(config);
  auto rm2 = std::make_unique<RecoveryManager>(&data_disk, &log_disk, kPage);
  rm2->Start();
  rm2->Recover();
  std::shared_ptr<Task> bank2 = kernel2->CreateTask(nullptr, "bank-rebooted");
  RecoverableSegment ledger2 =
      RecoverableSegment::Map(rm2.get(), bank2.get(), "ledger", kPage).value();

  uint64_t total_after = 0;
  for (int a = 0; a < kAccounts; ++a) {
    uint64_t balance = Balance(*bank2, ledger2, a);
    total_after += balance;
    std::printf("account %d: %llu\n", a, (unsigned long long)balance);
  }
  std::printf("total after recovery: %llu — %s\n", (unsigned long long)total_after,
              total_after == total_before ? "no money created or destroyed"
                                          : "ATOMICITY VIOLATED");
  bank2.reset();
  rm2->Stop();
  return total_after == total_before ? 0 : 1;
}
