// tenant_serving: the E15 transaction mix on one host with 8 tenants. Each
// transaction reads and rewrites a page of the tenant's mapped file
// (FsServer), makes two Camelot transactional writes into its ledger pages,
// stamps and bumps its slot on the sharded shm board, then commits; one in 8
// aborts on purpose. 64 server frames against a ~98-page working set (8 x 8
// file pages, 8 x 4 ledger pages, 2 board pages) make file, ledger and board
// pages page out under the pageout daemon.
//
// Tenants run round-robin on one client thread with the process pinned to
// one CPU (remote tenants are left out: their runs are bimodal). The benchmark
// calls the same public APIs as tests/workload, but times set-up, each
// transaction and teardown separately. It exercises managers, SimDisk and
// memory pressure, and the local pager path without NetLink.
//
// Op: one transaction attempt. Checks: file stamps on every read, ledger
// slots and board counters against the benchmark's model, and the exactly-once
// ledger oracle (crash, recover, compare) after the timed phase.

#include <chrono>
#include <thread>

#include "perfbench/harness.h"
#include "src/hw/sim_disk.h"
#include "src/kernel/kernel.h"
#include "src/managers/camelot/recovery_manager.h"
#include "src/managers/fs/fs_server.h"
#include "src/managers/mfs/mapped_file.h"
#include "src/managers/shm/shm_broker.h"

namespace perfbench {
namespace {

using namespace mach;

constexpr VmSize kPage = 4096;
constexpr int kTenants = 8;
constexpr VmSize kFilePages = 8;
constexpr VmSize kSlotPages = 4;
constexpr VmSize kBoardPages = 2;
constexpr VmSize kLedgerSize = kTenants * kSlotPages * kPage;
constexpr uint32_t kServerFrames = 64;
constexpr int kShmShards = 4;
constexpr uint32_t kManagerDiskBlocks = 256;
constexpr int kWarmupRounds = 8;  // x kTenants transactions, in every Setup().
// A session is a fixed amount of work: it ends after this many
// transactions, warm-up included (or at the slice deadline, if that comes
// first). The oracle's recovery reads the whole log into memory, so peak RSS
// grows with a session's length; fixed-length sessions keep it, and the
// recovery's cost, independent of throughput. The Camelot log has no
// truncation: its 16 MiB disk holds a session with room to spare.
constexpr uint64_t kSessionTxns = 20000;
constexpr uint32_t kLogDiskBlocks = 32768;  // 512-byte blocks.

struct Tenant {
  std::shared_ptr<Task> task;
  MappedFile file;
  RecoverableSegment ledger;
  VmOffset board = 0;  // This tenant's board slot: counter, then stamp.
};

class TenantServing : public Workload {
 public:
  explicit TenantServing(uint64_t seed) : seed_(seed), rng_(seed ^ 0x7E4A'0000'0000'0000ull) {}

  std::string cpu_mask() const override { return mask_; }

  bool Place(std::string* why) override { return PinToLastCpu(&mask_, why); }

  void Setup() override {
    Kernel::Config config;
    config.name = "tenant-srv";
    config.frames = kServerFrames;
    config.page_size = kPage;
    config.backing_blocks = kPagingDiskBlocks;
    config.disk_latency = DiskLatencyModel{200'000, 100};
    config.vm.on_pager_timeout = VmSystem::Config::OnPagerTimeout::kZeroFill;
    host_ = std::make_unique<Kernel>(config);

    // The ledger and the files need a few dozen blocks each; the log holds
    // a whole session.
    const DiskLatencyModel manager_disk{2'000'000, 200};
    data_disk_ =
        std::make_unique<SimDisk>(kManagerDiskBlocks, kPage, &host_->clock(), manager_disk);
    log_disk_ = std::make_unique<SimDisk>(kLogDiskBlocks, 512, &host_->clock(), manager_disk);
    fs_disk_ =
        std::make_unique<SimDisk>(kManagerDiskBlocks, kPage, &host_->clock(), manager_disk);
    rm_ = std::make_unique<RecoveryManager>(data_disk_.get(), log_disk_.get(), kPage);
    rm_->Start();
    fs_ = std::make_unique<FsServer>(host_.get(), fs_disk_.get());
    fs_->StartServer();
    ShmOptions shm_options;  // Private directory clocks: not modelled device time.
    shm_options.page_size = kPage;
    shm_ = std::make_unique<ShmBroker>("board", kShmShards, shm_options);
    shm_->Start();

    session_txns_ = 0;
    file_model_.assign(kTenants, std::vector<uint64_t>(kFilePages, 0));
    ledger_model_.assign(kTenants, std::vector<uint64_t>(kSlotPages, 0));
    board_model_.assign(kTenants, 0);
    CreateFiles();
    tenants_.assign(kTenants, Tenant{});
    for (int t = 0; t < kTenants; ++t) {
      if (!OpenTenant(t)) {
        ++setup_failures_;
      }
    }
    PhaseStats warm;
    for (int r = 0; r < kWarmupRounds; ++r) {
      for (int t = 0; t < kTenants; ++t) {
        Transact(t, nullptr, warm);
      }
    }
    setup_failures_ += warm.failed;
  }

  void Teardown() override {
    tenants_.clear();
    checker_.reset();
    shm_->Stop();
    shm_.reset();
    fs_->StopServer();
    fs_.reset();
    rm_->Stop();
    rm_.reset();
    host_.reset();
    data_disk_.reset();
    log_disk_.reset();
    fs_disk_.reset();
  }

  void Run(uint64_t deadline_ns, Tracer* tracer, PhaseStats& stats) override {
    SpanLog* log = tracer != nullptr ? tracer->NewLog() : nullptr;
    const Counters before = Snapshot();
    uint64_t txns = 0;
    do {
      for (int t = 0; t < kTenants; ++t) {
        Transact(t, log, stats);
        ++txns;
      }
    } while (NowNs() < deadline_ns && session_txns_ < kSessionTxns);
    const Counters after = Snapshot();
    stats.vtime_ns = after.vtime_ns - before.vtime_ns;
    if (tracer == nullptr) {
      return;
    }
    const double n = double(txns);
    const VmStatistics& a = after.vm;
    const VmStatistics& b = before.vm;
    const uint64_t faults = a.faults - b.faults;
    stats.AddLayer("vm.fault.locks_per_fault",
                   faults ? double(a.fault_lock_ops - b.fault_lock_ops) / faults : 0);
    stats.AddLayer("camelot.log_forces_per_txn", (after.log_forces - before.log_forces) / n);
    stats.AddLayer("hw.disk.ops_per_txn", (after.disk_ops - before.disk_ops) / n);
    stats.AddLayer("hw.disk.vtime_us_per_txn", (after.vtime_ns - before.vtime_ns) / 1e3 / n);
    stats.AddLayer("vm.pageout.pages_per_txn", (a.pageouts - b.pageouts) / n);
    const uint64_t runs = a.pageout_runs - b.pageout_runs;
    stats.AddLayer("vm.pageout.pages_per_run",
                   runs ? double(a.pageout_run_pages - b.pageout_run_pages) / runs : 0);
    stats.AddLayer("vm.faults_per_txn", faults / n);
    stats.AddLayer("vm.fault_ahead.pages_per_request",
                   a.fault_ahead_requests - b.fault_ahead_requests
                       ? double(a.fault_ahead_pages - b.fault_ahead_pages) /
                             (a.fault_ahead_requests - b.fault_ahead_requests)
                       : 0);
    stats.AddLayer("vm.fault_ahead.unused_ratio",
                   a.fault_ahead_pages - b.fault_ahead_pages
                       ? double(a.fault_ahead_unused - b.fault_ahead_unused) /
                             (a.fault_ahead_pages - b.fault_ahead_pages)
                       : 0);
  }

  // The exactly-once oracle: drop every tenant (dirty pages write back),
  // crash the recovery manager, recover from the log, and compare every
  // ledger slot with the committed model.
  bool FinalCheck(std::string* why) override {
    if (setup_failures_ != 0) {
      *why = std::to_string(setup_failures_) + " set-up or warm-up operations failed";
      return false;
    }
    tenants_.clear();
    rm_->SimulateCrash();
    rm_->Recover();
    // Late write-backs from the dying tasks carry committed data; a second
    // pass re-applies the log over anything that landed meanwhile.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    rm_->Recover();
    checker_ = host_->CreateTask(nullptr, "oracle-checker");
    Result<RecoverableSegment> seg =
        RecoverableSegment::Map(rm_.get(), checker_.get(), "ledger", kLedgerSize);
    if (!seg.ok()) {
      *why = "oracle could not map the ledger";
      return false;
    }
    uint64_t mismatches = 0;
    for (int t = 0; t < kTenants; ++t) {
      for (VmSize p = 0; p < kSlotPages; ++p) {
        Result<uint64_t> v = checker_->ReadValue<uint64_t>(seg.value().base() + SlotOffset(t, p));
        mismatches += !v.ok() || v.value() != ledger_model_[t][p];
      }
    }
    if (mismatches != 0) {
      *why = "exactly-once oracle: " + std::to_string(mismatches) + " ledger slots differ";
      return false;
    }
    if (!reported_) {
      std::printf("# exactly-once oracle: %d ledger slots match the committed model\n",
                  kTenants * int(kSlotPages));
      reported_ = true;
    }
    return true;
  }

 private:
  struct Counters {
    VmStatistics vm;
    uint64_t log_forces = 0;
    uint64_t disk_ops = 0;
    uint64_t vtime_ns = 0;  // The host clock: the only modelled clock here.
  };

  Counters Snapshot() const {
    Counters c;
    c.vm = host_->vm().Statistics();
    c.log_forces = rm_->log_force_count();
    c.disk_ops = data_disk_->total_ops() + log_disk_->total_ops() + fs_disk_->total_ops() +
                 host_->paging_disk().total_ops();
    c.vtime_ns = host_->clock().NowNs();
    return c;
  }

  uint64_t FileStamp(int tenant, VmOffset page) const {
    return SplitMix64(seed_ ^ 0xF11E'0000'0000'0000ull ^ (uint64_t(tenant) << 12) ^ page);
  }
  static VmOffset SlotOffset(int tenant, VmSize slot) {
    return (uint64_t(tenant) * kSlotPages + slot) * kPage;
  }

  // Word 0 of every file page holds its stamp; word 1 is what transactions
  // rewrite.
  void CreateFiles() {
    std::shared_ptr<Task> admin = host_->CreateTask(nullptr, "fs-admin");
    FsClient client(admin.get(), fs_->service_port());
    const VmSize span = kFilePages * kPage;
    Result<VmOffset> buf = admin->VmAllocate(span);
    if (!buf.ok()) {
      ++setup_failures_;
      return;
    }
    for (int t = 0; t < kTenants; ++t) {
      for (VmOffset p = 0; p < kFilePages; ++p) {
        setup_failures_ += admin->WriteValue(buf.value() + p * kPage, FileStamp(t, p)) !=
                           KernReturn::kSuccess;
      }
      const std::string name = "f" + std::to_string(t);
      setup_failures_ += client.Create(name) != KernReturn::kSuccess;
      setup_failures_ += client.WriteFile(name, buf.value(), span) != KernReturn::kSuccess;
    }
    admin->VmDeallocate(buf.value(), span);
  }

  bool OpenTenant(int t) {
    Tenant& tenant = tenants_[t];
    tenant.task = host_->CreateTask(nullptr, "tenant-" + std::to_string(t));
    Result<MappedFile> file = MappedFile::Open(tenant.task.get(), fs_->service_port(),
                                               "f" + std::to_string(t), kFilePages * kPage);
    Result<RecoverableSegment> ledger =
        RecoverableSegment::Map(rm_.get(), tenant.task.get(), "ledger", kLedgerSize);
    Result<VmOffset> board =
        ShmBroker::MapRegion(*tenant.task, shm_->GetRegion("board", kBoardPages * kPage));
    if (!file.ok() || !ledger.ok() || !board.ok()) {
      return false;
    }
    tenant.file = file.value();
    tenant.ledger = ledger.value();
    tenant.board = board.value() + (uint64_t(t) * 64) % (kBoardPages * kPage);
    return true;
  }

  // A word load/store through the task, traced when `log` is set.
  static KernReturn Load(Task& task, VmOffset addr, uint64_t* v, SpanLog* log, uint64_t op,
                         uint64_t parent) {
    return log == nullptr
               ? task.Read(addr, v, sizeof(*v))
               : TracedAccess(task, addr, v, sizeof(*v), false, kFault, *log, op, parent);
  }
  static KernReturn Store(Task& task, VmOffset addr, uint64_t v, SpanLog* log, uint64_t op,
                          uint64_t parent) {
    return log == nullptr ? task.Write(addr, &v, sizeof(v))
                          : TracedAccess(task, addr, &v, sizeof(v), true, kFault, *log, op, parent);
  }

  // Times `call` as a span of `layer` when tracing.
  template <typename F>
  static auto Timed(SpanLog* log, Layer layer, uint64_t op, uint64_t parent, F&& call) {
    if (log == nullptr) {
      return call();
    }
    const uint64_t t0 = NowNs();
    auto result = call();
    log->Record(layer, op, parent, t0, NowNs());
    return result;
  }

  // One transaction attempt (an op). Every choice comes from the seeded
  // stream; every value read is checked against the model.
  void Transact(int t, SpanLog* log, PhaseStats& stats) {
    Tenant& tenant = tenants_[t];
    Task& task = *tenant.task;
    const uint64_t op = log != nullptr ? log->NextOpId() : 0;
    const uint64_t root = log != nullptr ? log->NextSpanId() : 0;
    const uint64_t t0 = NowNs();
    bool ok = true;

    // 1. Read-modify-write one page of the tenant's mapped file.
    const VmOffset fpage = rng_.Next() % kFilePages;
    uint64_t words[2] = {0, 0};
    Result<VmSize> got = Timed(log, kMfsRead, op, root, [&] {
      return tenant.file.ReadAt(fpage * kPage, words, sizeof(words));
    });
    ok &= got.ok() && got.value() == sizeof(words) && words[0] == FileStamp(t, fpage) &&
          words[1] == file_model_[t][fpage];
    const uint64_t stamp = FileStamp(t, fpage) ^ rng_.Next();
    const KernReturn wkr = Timed(log, kMfsWrite, op, root, [&] {
      return tenant.file.WriteAt(fpage * kPage + 8, &stamp, sizeof(stamp));
    });
    if (wkr == KernReturn::kSuccess) {
      file_model_[t][fpage] = stamp;
    } else {
      ok = false;
    }

    // 2. Two failure-atomic ledger writes, over slots first checked
    // against the committed model.
    VmSize slots[2];
    uint64_t values[2];
    for (int w = 0; w < 2; ++w) {
      slots[w] = rng_.Next() % kSlotPages;
      values[w] = rng_.Next() | 1;  // Never 0, the initial value.
    }
    for (int w = 0; w < 2; ++w) {
      uint64_t cur = 0;
      ok &= Load(task, tenant.ledger.base() + SlotOffset(t, slots[w]), &cur, log, op, root) ==
                KernReturn::kSuccess &&
            cur == ledger_model_[t][slots[w]];
    }
    const bool abort = (rng_.Next() & 7) == 0;
    if (ok) {
      Transaction txn(rm_.get());
      for (int w = 0; w < 2; ++w) {
        ok &= Timed(log, kCamelotWrite, op, root, [&] {
          return txn.Write(tenant.ledger, SlotOffset(t, slots[w]), &values[w], sizeof(values[w]));
        }) == KernReturn::kSuccess;
      }

      // 3. Stamp the tenant's slot on the shared board, then read, check
      // and bump its counter. Writing first makes a refault of a paged-out
      // board page ask the shard for write access at once. Read first, the
      // refault takes a read grant and then an unlock round trip whose
      // reply can land before the faulter waits for it
      // (VmSystem::WaitForPage). Pinned to one CPU, that costs a whole
      // 100 ms wait slice per refault, which would make throughput a count
      // of refaults.
      ok &= Timed(log, kBoardRmw, op, root, [&] {
        uint64_t count = 0;
        const bool read =
            Store(task, tenant.board + 8, stamp, log, op, root) == KernReturn::kSuccess &&
            Load(task, tenant.board, &count, log, op, root) == KernReturn::kSuccess &&
            count == board_model_[t];
        return read && Store(task, tenant.board, count + 1, log, op, root) == KernReturn::kSuccess;
      });
      ++board_model_[t];

      // 4. Commit, or the deliberate abort, which must leave no trace.
      if (abort || !ok) {
        ok &= Timed(log, kCamelotAbort, op, root, [&] { return txn.Abort(); }) ==
              KernReturn::kSuccess;
      } else if (Timed(log, kCamelotCommit, op, root, [&] { return txn.Commit(); }) ==
                 KernReturn::kSuccess) {
        for (int w = 0; w < 2; ++w) {
          ledger_model_[t][slots[w]] = values[w];
        }
      } else {
        ok = false;
      }
    }

    const uint64_t t1 = NowNs();
    if (log != nullptr) {
      log->Record(root, kOp, op, 0, t0, t1);
    }
    ++session_txns_;
    ++stats.attempted;
    if (ok) {
      stats.latency.Record(t1 - t0);
    } else {
      ++stats.failed;
    }
  }

  const uint64_t seed_;
  SeededStream rng_;
  std::string mask_;
  uint64_t setup_failures_ = 0;
  bool reported_ = false;  // The oracle's success line prints once per run.
  uint64_t session_txns_ = 0;  // Since Setup(), warm-up included.

  std::unique_ptr<Kernel> host_;
  std::unique_ptr<SimDisk> data_disk_;
  std::unique_ptr<SimDisk> log_disk_;
  std::unique_ptr<SimDisk> fs_disk_;
  std::unique_ptr<RecoveryManager> rm_;
  std::unique_ptr<FsServer> fs_;
  std::unique_ptr<ShmBroker> shm_;
  std::vector<Tenant> tenants_;
  std::shared_ptr<Task> checker_;

  // What the benchmark expects to read back: file word 1 per page, committed
  // ledger slot values, and board counters.
  std::vector<std::vector<uint64_t>> file_model_;
  std::vector<std::vector<uint64_t>> ledger_model_;
  std::vector<uint64_t> board_model_;
};

}  // namespace

std::unique_ptr<Workload> MakeTenantServing(uint64_t seed) {
  return std::make_unique<TenantServing>(seed);
}

}  // namespace perfbench
