// See tenant_workload.h for the workload's shape and invariants.

#include "tests/workload/tenant_workload.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/base/fault_injector.h"
#include "src/hw/sim_disk.h"
#include "src/ipc/port_gc.h"
#include "src/kernel/kernel.h"
#include "src/kernel/task.h"
#include "src/managers/camelot/recovery_manager.h"
#include "src/managers/fs/fs_server.h"
#include "src/managers/mfs/mapped_file.h"
#include "src/managers/shm/shm_broker.h"
#include "src/managers/shm/shm_directory.h"
#include "src/net/net_link.h"

namespace mach {
namespace {

constexpr VmSize kPage = 4096;
constexpr VmSize kBoardPages = 2;  // The shared shm stats board.

uint64_t FileStamp(uint64_t seed, int tenant, VmOffset page) {
  return 0xF11E'0000'0000'0000ull ^ (seed << 24) ^ (uint64_t(tenant) << 12) ^ page;
}

struct Tenant {
  int id = 0;
  int host_index = 0;
  Kernel* host = nullptr;
  NetLink* link = nullptr;  // nullptr = local to the server host.
  std::shared_ptr<Task> task;
  MappedFile file;
  RecoverableSegment ledger;
  VmOffset shm_base = 0;
  bool ok = false;
};

// Owns the cluster for one workload run. Everything is torn down (in
// dependency order) by Shutdown(), which the driver calls explicitly so it
// can measure the post-teardown baselines first.
class Cluster {
 public:
  Cluster(const TenantWorkloadOptions& opt, TenantWorkloadResult* res)
      : opt_(opt), res_(res), faults_(opt.seed), rng_(opt.seed * 0x9E37'79B9'7F4A'7C15ull + 1) {
    ledger_size_ = uint64_t(opt_.tenants) * opt_.slot_pages * kPage;
    model_.assign(opt_.tenants, std::vector<uint64_t>(opt_.slot_pages, 0));

    if (opt_.chaos) {
      // Data-disk faults (log and fs disks stay clean so commit durability
      // and the oracle are about the WAL, not torn logs).
      faults_.SetProbability(SimDisk::kFaultRead, 0.05);
      faults_.SetProbability(SimDisk::kFaultWrite, 0.1);
      // Wire faults; rates match the chaos soak's "reliable mode wins
      // through" envelope.
      faults_.SetProbability(NetLink::kFaultDrop, 0.1);
      faults_.SetProbability(NetLink::kFaultFragDrop, 0.05);
      faults_.SetProbability(NetLink::kFaultAckDrop, 0.05);
      faults_.SetProbability(NetLink::kFaultReorder, 0.05);
      // Coherence faults on the stats board.
      faults_.SetProbability(ShmDirectory::kFaultStaleHint, 0.2);
      faults_.SetProbability(ShmDirectory::kFaultForwardDrop, 0.1);
    }

    // Host 0: the server host. Small pool so the mapped files and the
    // ledger page out mid-run.
    Kernel::Config config;
    config.name = "tenant-srv";
    config.frames = opt_.server_frames;
    config.page_size = kPage;
    config.disk_latency = DiskLatencyModel{200'000, 100};
    config.vm.on_pager_timeout = VmSystem::Config::OnPagerTimeout::kZeroFill;
    hosts_.push_back(std::make_unique<Kernel>(config));

    DiskLatencyModel manager_disk{2'000'000, 200};
    data_disk_ = std::make_unique<SimDisk>(4096, kPage, &hosts_[0]->clock(), manager_disk,
                                           opt_.chaos ? &faults_ : nullptr);
    log_disk_ = std::make_unique<SimDisk>(65536, 512, &hosts_[0]->clock(), manager_disk);
    fs_disk_ = std::make_unique<SimDisk>(4096, kPage, &hosts_[0]->clock(), manager_disk);

    rm_ = std::make_unique<RecoveryManager>(data_disk_.get(), log_disk_.get(), kPage);
    rm_->Start();
    fs_ = std::make_unique<FsServer>(hosts_[0].get(), fs_disk_.get());
    fs_->StartServer();

    ShmOptions shm_options;
    shm_options.page_size = kPage;
    shm_options.clock = &net_clock_;
    shm_options.injector = opt_.chaos ? &faults_ : nullptr;
    shm_ = std::make_unique<ShmBroker>("board", size_t(opt_.shm_shards), shm_options);
    shm_->Start();

    // Remote hosts, each one NetLink hop from the server host.
    NetFaultConfig net;
    net.injector = opt_.chaos ? &faults_ : nullptr;
    net.reliable = true;
    net.max_retransmits = 8;
    net.failure_detector = true;
    net.degraded_after_timeouts = 6;
    net.dead_after_timeouts = 14;
    links_.push_back(nullptr);  // Host 0 needs no link.
    for (int h = 1; h < opt_.hosts; ++h) {
      config.name = "tenant-h" + std::to_string(h);
      config.frames = opt_.tenant_frames;
      hosts_.push_back(std::make_unique<Kernel>(config));
      links_.push_back(std::make_unique<NetLink>(&hosts_[0]->vm(), &hosts_[h]->vm(),
                                                 &net_clock_, kNormaLatency, net));
    }

    CreateFiles();
    tenants_.resize(opt_.tenants);
    for (int k = 0; k < opt_.tenants; ++k) {
      tenants_[k].id = k;
      tenants_[k].host_index = k % opt_.hosts;
      tenants_[k].host = hosts_[tenants_[k].host_index].get();
      tenants_[k].link = links_[tenants_[k].host_index].get();
      SetupTenant(tenants_[k]);
    }
  }

  // Virtual time: the sum of every host clock plus the network clock. The
  // driver is single-threaded, so per-transaction deltas are attributable.
  uint64_t VirtualNow() const {
    uint64_t ns = net_clock_.NowNs();
    for (const auto& h : hosts_) {
      ns += h->clock().NowNs();
    }
    return ns;
  }

  void Run() {
    const uint64_t start_ns = VirtualNow();
    for (int round = 0; round < opt_.txns_per_tenant; ++round) {
      if (opt_.chaos && round == opt_.txns_per_tenant / 2) {
        CrashAndHeal();
      }
      for (Tenant& t : tenants_) {
        RunOneTxn(t);
      }
    }
    res_->virtual_ns = VirtualNow() - start_ns;
    HarvestCounters();
  }

  // Drops all tenant tasks, then runs the exactly-once oracle: crash the
  // recovery manager once more, recover from the log on clean disks, and
  // compare every ledger slot to the committed model. Two Recover() passes
  // bracket a sleep so late writebacks from dying kernels are re-applied
  // over (chaos_test CamelotCrashPoints idiom).
  void OracleCheck() {
    // Partition every link first: a remote kernel's dying writebacks must
    // not trickle onto the data disk mid-comparison (committed data is
    // already durable in the log, so dropping them loses nothing).
    for (auto& link : links_) {
      if (link != nullptr) {
        link->SetPartitioned(true);
      }
    }
    for (Tenant& t : tenants_) {
      t.file = MappedFile();
      t.ledger = RecoverableSegment();
      t.task.reset();
    }
    data_disk_->set_fault_injector(nullptr);
    rm_->SimulateCrash();
    rm_->Recover();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    rm_->Recover();

    std::shared_ptr<Task> checker = hosts_[0]->CreateTask(nullptr, "oracle-checker");
    Result<RecoverableSegment> seg =
        RecoverableSegment::Map(rm_.get(), checker.get(), "ledger", ledger_size_);
    if (!seg.ok()) {
      res_->slot_mismatches = uint64_t(opt_.tenants) * opt_.slot_pages;
      res_->oracle_ok = false;
      return;
    }
    for (int k = 0; k < opt_.tenants; ++k) {
      for (VmSize p = 0; p < opt_.slot_pages; ++p) {
        VmOffset off = (uint64_t(k) * opt_.slot_pages + p) * kPage;
        Result<uint64_t> v = checker->ReadValue<uint64_t>(seg.value().base() + off);
        if (!v.ok() || v.value() != model_[k][p]) {
          ++res_->slot_mismatches;
        }
      }
    }
    res_->oracle_ok = res_->slot_mismatches == 0;
    checker.reset();
  }

  // Dependency-ordered teardown; after this only process-global port state
  // remains (measured by the caller).
  void Shutdown() {
    tenants_.clear();
    links_.clear();
    shm_->Stop();
    shm_.reset();
    fs_->StopServer();
    fs_.reset();
    rm_->Stop();
    rm_.reset();
    // Teardown-to-baseline: every server frame must be free or parked on a
    // paging queue. Cached pages of persisting objects (§3.4.1) may stay
    // resident until memory pressure reclaims them — that's the design, not
    // a leak — but a frame stuck busy or holding an orphaned placeholder
    // sits on no queue, and that is what this check catches.
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    auto accounted = [&] {
      VmStatistics st = hosts_[0]->vm().Statistics();
      return st.free_count + st.active_count + st.inactive_count;
    };
    while (accounted() + 4 < opt_.server_frames &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    res_->frames_drained = accounted() + 4 >= opt_.server_frames;
    hosts_.clear();
  }

 private:
  void CreateFiles() {
    std::shared_ptr<Task> admin = hosts_[0]->CreateTask(nullptr, "fs-admin");
    FsClient client(admin.get(), fs_->service_port());
    const VmSize span = opt_.file_pages * kPage;
    VmOffset buf = admin->VmAllocate(span).value();
    for (int k = 0; k < opt_.tenants; ++k) {
      for (VmOffset p = 0; p < opt_.file_pages; ++p) {
        uint64_t stamp = FileStamp(opt_.seed, k, p);
        admin->WriteValue(buf + p * kPage, stamp);
      }
      std::string name = "f" + std::to_string(k);
      client.Create(name);
      client.WriteFile(name, buf, span);
    }
    admin->VmDeallocate(buf, span);
  }

  bool SetupTenant(Tenant& t) {
    t.ok = false;
    t.task = t.host->CreateTask(nullptr, "tenant-" + std::to_string(t.id));

    // The mapped file, through the (possibly proxied) fs service port.
    SendRight fs_service = fs_->service_port();
    if (t.link != nullptr) {
      fs_service = t.link->ProxyForB(fs_service);
    }
    Result<MappedFile> file = MappedFile::Open(t.task.get(), fs_service,
                                               "f" + std::to_string(t.id),
                                               opt_.file_pages * kPage);
    if (!file.ok()) {
      return false;
    }
    t.file = file.value();

    // The recoverable ledger. Remote tenants map the segment's memory
    // object through a proxy so their paging traffic crosses the wire; the
    // transaction library's log calls stay direct (the transaction system
    // is a local library over the shared manager, per §8.3 — only page data
    // rides the lossy link).
    if (t.link != nullptr) {
      SendRight object = rm_->OpenSegment("ledger", ledger_size_);
      SendRight via = t.link->ProxyForB(std::move(object));
      Result<VmOffset> base = t.task->VmAllocateWithPager(ledger_size_, std::move(via), 0);
      if (!base.ok()) {
        return false;
      }
      t.ledger = RecoverableSegment(rm_->SegmentId("ledger"), base.value(), ledger_size_,
                                    t.task.get());
    } else {
      Result<RecoverableSegment> seg =
          RecoverableSegment::Map(rm_.get(), t.task.get(), "ledger", ledger_size_);
      if (!seg.ok()) {
        return false;
      }
      t.ledger = seg.value();
    }

    // The shared shm stats board (shard rights are auto-proxied by the
    // GetRegionVia RPC when it travels a link).
    ShmRegionInfoArgs info;
    if (t.link != nullptr) {
      Result<ShmRegionInfoArgs> remote = ShmBroker::GetRegionVia(
          t.link->ProxyForB(shm_->service_port()), "board", kBoardPages * kPage);
      if (!remote.ok()) {
        return false;
      }
      info = remote.value();
    } else {
      info = shm_->GetRegion("board", kBoardPages * kPage);
    }
    Result<VmOffset> board = ShmBroker::MapRegion(*t.task, info);
    if (!board.ok()) {
      return false;
    }
    t.shm_base = board.value();
    t.ok = true;
    return true;
  }

  void RunOneTxn(Tenant& t) {
    if (!t.ok) {
      return;
    }
    const uint64_t t0 = VirtualNow();
    bool io_ok = true;

    // 1. Read-modify-write one page of the tenant's mapped file.
    const VmOffset fpage = rng_() % opt_.file_pages;
    uint64_t file_value = 0;
    io_ok &= t.file.ReadAt(fpage * kPage, &file_value, sizeof(file_value)).ok();
    const uint64_t file_stamp = FileStamp(opt_.seed, t.id, fpage) ^ rng_();
    io_ok &= t.file.WriteAt(fpage * kPage + 8, &file_stamp, sizeof(file_stamp)) ==
             KernReturn::kSuccess;

    // 2. Two failure-atomic writes into the tenant's ledger pages. The
    // slots are validated against the committed model first: a data-disk
    // fault can hand the kernel a zero-filled substitute page (§6.2.1),
    // and starting a transaction over one would capture a *wrong undo
    // image* — a later abort would then "restore" garbage and log it as a
    // compensation. A real client would keep an application checksum; the
    // driver's model plays that role, and a stale slot is an error abort.
    std::vector<std::pair<VmSize, uint64_t>> writes;
    for (int w = 0; w < 2; ++w) {
      writes.emplace_back(rng_() % opt_.slot_pages, rng_() | 1);  // Value never 0.
    }
    for (const auto& [p, v] : writes) {
      const VmOffset off = (uint64_t(t.id) * opt_.slot_pages + p) * kPage;
      Result<uint64_t> cur = t.task->ReadValue<uint64_t>(t.ledger.base() + off);
      io_ok &= cur.ok() && cur.value() == model_[t.id][p];
    }
    if (!io_ok) {
      ++res_->aborted;
      ++res_->error_aborts;
      return;
    }
    Transaction txn(rm_.get());
    for (const auto& [p, v] : writes) {
      const VmOffset off = (uint64_t(t.id) * opt_.slot_pages + p) * kPage;
      if (txn.Write(t.ledger, off, &v, sizeof(v)) != KernReturn::kSuccess) {
        io_ok = false;
      }
    }

    // 3. Bump the tenant's slot on the shared stats board.
    const VmOffset slot = t.shm_base + (uint64_t(t.id) * 64) % (kBoardPages * kPage);
    Result<uint64_t> board = t.task->ReadValue<uint64_t>(slot);
    if (board.ok()) {
      io_ok &= t.task->WriteValue<uint64_t>(slot, board.value() + 1) == KernReturn::kSuccess;
    } else {
      io_ok = false;
    }

    if (!io_ok) {
      txn.Abort();
      ++res_->aborted;
      ++res_->error_aborts;
      return;
    }
    if ((rng_() & 7) == 0) {  // Deliberate abort: must leave no trace.
      txn.Abort();
      ++res_->aborted;
      return;
    }
    if (txn.Commit() == KernReturn::kSuccess) {
      for (const auto& [p, v] : writes) {
        model_[t.id][p] = v;
      }
      ++res_->committed;
      res_->latency.Record(VirtualNow() - t0);
    } else {
      ++res_->aborted;
      ++res_->error_aborts;
    }
  }

  // The mid-run incident: partition the first remote host until the
  // failure detector declares it dead, crash and recover the recovery
  // manager (on momentarily-clean disks, as after a controller reset),
  // heal the link, and rebuild the dead host's tenants.
  void CrashAndHeal() {
    NetLink* link = opt_.hosts > 1 ? links_[1].get() : nullptr;
    const auto wall_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);

    if (link != nullptr) {
      link->SetPartitioned(true);
      // Push traffic into the void so transport timeouts accrue on top of
      // the heartbeats.
      PortPair sink = PortAllocate("tenant-crash-sink");
      SendRight doomed = link->ProxyForB(sink.send);
      MsgSend(doomed, Message(0x0DEAD), kPoll);
      while (link->a_to_b_status().health != LinkHealth::kPeerDead &&
             link->b_to_a_status().health != LinkHealth::kPeerDead &&
             std::chrono::steady_clock::now() < wall_deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }

    // The manager crashes while the partition is outstanding; its recovery
    // runs on clean disks and is timed in virtual ns on the server clock.
    rm_->SimulateCrash();
    data_disk_->set_fault_injector(nullptr);
    const uint64_t recover_start = hosts_[0]->clock().NowNs();
    rm_->Recover();
    res_->camelot_recover_ns = hosts_[0]->clock().NowNs() - recover_start;
    if (opt_.chaos) {
      data_disk_->set_fault_injector(&faults_);
    }

    // Heal and rebuild: the dead host's tenants lost their proxies, so
    // they remap everything and heal_ns runs until one of them commits.
    const uint64_t heal_start = VirtualNow();
    if (link != nullptr) {
      link->SetPartitioned(false);
      while ((link->a_to_b_status().health != LinkHealth::kUp ||
              link->b_to_a_status().health != LinkHealth::kUp) &&
             std::chrono::steady_clock::now() < wall_deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      for (Tenant& t : tenants_) {
        if (t.host_index == 1) {
          t.file = MappedFile();
          t.ledger = RecoverableSegment();
          t.task.reset();
          SetupTenant(t);
        }
      }
      const uint64_t committed_before = res_->committed;
      for (int attempt = 0; attempt < 16 && res_->committed == committed_before; ++attempt) {
        for (Tenant& t : tenants_) {
          if (t.host_index == 1) {
            RunOneTxn(t);
          }
        }
      }
    }
    res_->heal_ns = VirtualNow() - heal_start;
  }

  void HarvestCounters() {
    for (const auto& h : hosts_) {
      VmStatistics st = h->vm().Statistics();
      res_->pageouts += st.pageouts;
      res_->pageout_runs += st.pageout_runs;
      res_->pageout_run_pages += st.pageout_run_pages;
    }
    res_->wal_enforced = rm_->wal_enforced_count();
    res_->deferred_pageouts = rm_->deferred_pageout_count();
    res_->io_errors = rm_->io_error_count();
    for (const auto& link : links_) {
      if (link != nullptr) {
        res_->bytes_retransmitted += link->bytes_retransmitted();
        res_->fragments_retransmitted += link->fragments_retransmitted();
        res_->messages_lost += link->messages_lost();
        res_->peer_dead_events += link->peer_dead_events();
      }
    }
    res_->shm_forward_drops = shm_->aggregate_counters().forward_drops;
  }

  const TenantWorkloadOptions opt_;
  TenantWorkloadResult* const res_;
  FaultInjector faults_;
  SimClock net_clock_;
  std::mt19937_64 rng_;
  VmSize ledger_size_ = 0;

  std::vector<std::unique_ptr<Kernel>> hosts_;
  std::vector<std::unique_ptr<NetLink>> links_;  // links_[h] reaches host h.
  std::unique_ptr<SimDisk> data_disk_;
  std::unique_ptr<SimDisk> log_disk_;
  std::unique_ptr<SimDisk> fs_disk_;
  std::unique_ptr<RecoveryManager> rm_;
  std::unique_ptr<FsServer> fs_;
  std::unique_ptr<ShmBroker> shm_;
  std::vector<Tenant> tenants_;
  // model_[tenant][slot]: the value the last *committed* transaction wrote.
  std::vector<std::vector<uint64_t>> model_;
};

}  // namespace

TenantWorkloadResult RunTenantWorkload(const TenantWorkloadOptions& options) {
  TenantWorkloadResult result;
  PortGcCollect();
  const size_t ports_before = PortGcLivePortCount();
  {
    Cluster cluster(options, &result);
    cluster.Run();
    cluster.OracleCheck();
    cluster.Shutdown();
  }
  PortGcCollect();
  result.ports_leaked = int64_t(PortGcLivePortCount()) - int64_t(ports_before);
  return result;
}

}  // namespace mach
