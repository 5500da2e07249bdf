// Chaos soak for the deterministic fault-injection harness: seeded faults
// at the disk, link, and pager layers, driven through the full stack
// (paging under memory pressure, RPC over a lossy link, task migration,
// manager death mid-fault).
//
// Invariants checked per seed:
//   * Determinism: the same seed replays the same per-point fault trace.
//   * No corruption: a page read back is either the data written or a whole
//     page of zeros (the §6.2.1 zero-fill substitution) — never torn.
//   * No hangs: every operation completes; a dead manager's waiting
//     faulters resolve in a small fraction of the 5 s pager timeout.
//   * No leaks: physical frames return to the free pool when tasks die.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <random>

#include "src/base/fault_injector.h"
#include "src/hw/sim_disk.h"
#include "src/ipc/ipc_faults.h"
#include "src/ipc/port_gc.h"
#include "src/kernel/kernel.h"
#include "src/kernel/task.h"
#include "src/managers/camelot/recovery_manager.h"
#include "src/managers/migrate/migration_manager.h"
#include "src/managers/shm/shm_broker.h"
#include "src/net/net_link.h"
#include "src/pager/data_manager.h"
#include "tests/workload/link_timer.h"
#include "tests/workload/tenant_workload.h"

namespace mach {
namespace {

constexpr VmSize kPage = 4096;

const uint64_t kSeeds[] = {1, 2, 3, 5, 8, 13, 21, 34, 55, 89};

// --- determinism: same seed => same fault trace -----------------------------

struct DiskTrace {
  std::vector<KernReturn> results;
  std::vector<std::string> report;
};

// A single-threaded disk workload whose fault decisions depend only on the
// injector seed.
DiskTrace RunDiskWorkload(uint64_t seed) {
  FaultInjector inj(seed);
  inj.SetProbability(SimDisk::kFaultRead, 0.1);
  inj.SetProbability(SimDisk::kFaultWrite, 0.1);
  SimClock clock;
  SimDisk disk(64, 512, &clock, DiskLatencyModel{}, &inj);
  DiskTrace trace;
  std::vector<char> buf(512, 'z');
  for (uint32_t i = 0; i < 200; ++i) {
    uint32_t block = (i * 7) % 64;
    if (i % 3 == 0) {
      trace.results.push_back(disk.WriteBlock(block, buf.data()));
    } else {
      trace.results.push_back(disk.ReadBlock(block, buf.data()));
    }
  }
  trace.report = inj.Report();
  return trace;
}

TEST(ChaosDeterminismTest, SameSeedReplaysTheSameFaultTrace) {
  for (uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    DiskTrace a = RunDiskWorkload(seed);
    DiskTrace b = RunDiskWorkload(seed);
    EXPECT_EQ(a.results, b.results);
    EXPECT_EQ(a.report, b.report);
  }
}

TEST(ChaosDeterminismTest, DistinctSeedsProduceDistinctTraces) {
  EXPECT_NE(RunDiskWorkload(kSeeds[0]).results, RunDiskWorkload(kSeeds[1]).results);
}

TEST(ChaosDeterminismTest, TraceIndependentOfOtherPointsInterleaving) {
  // The contract that makes multi-threaded chaos runs replayable: the k-th
  // decision of one point does not depend on how many times *other* points
  // were evaluated in between.
  FaultInjector plain(77), interleaved(77);
  plain.SetProbability("net.drop", 0.3);
  interleaved.SetProbability("net.drop", 0.3);
  interleaved.SetProbability("disk.read", 0.5);
  for (int i = 0; i < 500; ++i) {
    interleaved.ShouldFail("disk.read");  // Noise on another point.
    EXPECT_EQ(plain.ShouldFail("net.drop"), interleaved.ShouldFail("net.drop")) << "hit " << i;
  }
}

// --- the full-stack soak ----------------------------------------------------

// A manager that never answers data requests; its death mid-fault drives
// the kernel's death-notification fast path.
class SilentPager : public DataManager {
 public:
  SilentPager() : DataManager("chaos-silent") {}
  SendRight NewObject() { return CreateMemoryObject(1); }

 protected:
  void OnDataRequest(uint64_t, uint64_t, PagerDataRequestArgs) override {}
};

uint64_t Stamp(uint64_t seed, VmOffset page) {
  return 0xC0DE000000000000ull ^ (seed << 32) ^ page;
}

// Answers each (possibly multi-page) data request with one coalesced
// multi-page pager_data_provided run of per-page stamps; Silence() parks all
// later faults so a manager death can settle them.
class RunStampPager : public DataManager {
 public:
  RunStampPager() : DataManager("chaos-runs") {}
  SendRight NewObject() { return CreateMemoryObject(1, "chaos-run-object"); }
  void Silence() { silent_.store(true, std::memory_order_release); }
  uint64_t multi_page_requests() const {
    return multi_page_requests_.load(std::memory_order_acquire);
  }

 protected:
  void OnDataRequest(uint64_t, uint64_t, PagerDataRequestArgs args) override {
    if (silent_.load(std::memory_order_acquire)) {
      return;
    }
    if (args.length > kPage) {
      multi_page_requests_.fetch_add(1, std::memory_order_acq_rel);
    }
    PagerRunBuilder run(std::move(args.pager_request_port));
    for (VmOffset off = args.offset; off < args.offset + args.length; off += kPage) {
      std::vector<std::byte> page(kPage);
      const uint64_t stamp = Stamp(0xFA, off / kPage);
      std::memcpy(page.data(), &stamp, sizeof(stamp));
      run.AddData(off, std::move(page), kVmProtNone);
    }
  }

 private:
  std::atomic<bool> silent_{false};
  std::atomic<uint64_t> multi_page_requests_{0};
};

class ChaosSoak {
 public:
  explicit ChaosSoak(uint64_t seed) : seed_(seed), faults_(seed), ipc_faults_(seed ^ 0x19C0'FA17) {
    // Fault plan: transient backing-disk errors plus a lossy, jittery,
    // duplicating link — with the fragment-level points armed too, so the
    // selective-repeat transport sees dropped fragments, dropped SACKs and
    // reorders on every seed. Rates are high enough to fire constantly but
    // low enough that the retransmit budget below effectively never
    // exhausts.
    faults_.SetProbability(SimDisk::kFaultRead, 0.05);
    faults_.SetProbability(SimDisk::kFaultWrite, 0.05);
    faults_.SetProbability(NetLink::kFaultDrop, 0.15);
    faults_.SetProbability(NetLink::kFaultDuplicate, 0.05);
    faults_.SetProbability(NetLink::kFaultDelay, 0.2);
    faults_.SetProbability(NetLink::kFaultFragDrop, 0.05);
    faults_.SetProbability(NetLink::kFaultAckDrop, 0.05);
    faults_.SetProbability(NetLink::kFaultReorder, 0.05);
    // Suppress a random 30% of shadow-chain collapse opportunities: denial
    // must be purely a performance event, never a correctness one.
    faults_.SetProbability(VmSystem::kFaultCollapse, 0.3);
    // Sharded shm directory faults: hint repairs lost at ownership transfer
    // (the next forward chases through the stale hint) and forwards eaten
    // on the wire (the virtual-time deadline retries them).
    faults_.SetProbability(ShmDirectory::kFaultStaleHint, 0.3);
    faults_.SetProbability(ShmDirectory::kFaultForwardDrop, 0.1);

    Kernel::Config config;
    config.name = "chaos-a";
    config.frames = 48;  // Small pool: the workload below forces pageout.
    config.page_size = kPage;
    config.disk_latency = DiskLatencyModel{0, 0};
    // Injected backing faults degrade to zero-filled pages, not errors, so
    // the workload keeps running through them (§6.2.1).
    config.vm.on_pager_timeout = VmSystem::Config::OnPagerTimeout::kZeroFill;
    config.fault_injector = &faults_;
    host_a_ = std::make_unique<Kernel>(config);

    config.name = "chaos-b";
    config.frames = 96;
    config.fault_injector = nullptr;  // Faults live on A's disk only.
    host_b_ = std::make_unique<Kernel>(config);

    NetFaultConfig net;
    net.injector = &faults_;
    net.reliable = true;
    // With frag/ack/reorder armed on top of net.drop, a transport round
    // fails with probability ~0.25; 8 retries push per-message loss below
    // 1e-5, so the soak's "nothing reliable is ever lost" asserts hold.
    net.max_retransmits = 8;
    // The failure detector must only fire on real partitions, not on an
    // unlucky run of injected drops: 14 consecutive timeouts is ~1e-9 by
    // chance at these rates.
    net.failure_detector = true;
    net.degraded_after_timeouts = 6;
    net.dead_after_timeouts = 14;
    link_ = std::make_unique<NetLink>(&host_a_->vm(), &host_b_->vm(), &net_clock_,
                                      kNormaLatency, net);
    link_timer_ = std::make_unique<LinkTimer>(link_.get());
  }

  void Run() {
    // Runs first, while the hosts are idle: its leak check compares the
    // process-wide live-port count before and after the churn.
    PortChurnUnderIpcFaults();
    PagingUnderDiskFaults();
    ForkChurnUnderCollapseFaults();
    RpcOverLossyLink();
    PartitionAndHeal();
    ShardedShmShardHostDeathAndHeal();
    ManagerDeathMidFault();
    FaultAheadScanOverLossyLink();
    MigrationOverLossyLink();
    PartitionWithMigrationInFlight();
    MidMigrationHostCrash();
    CamelotCrashPointsUnderDataDiskFaults();
    NoLeaksAfterTeardown();
    SetIpcFaultInjector(nullptr);  // Belt and braces: never leak the arm.

    // The faults were real: every layer saw injections.
    EXPECT_GT(faults_.Injected(SimDisk::kFaultRead) + faults_.Injected(SimDisk::kFaultWrite), 0u)
        << "disk faults never fired";
    EXPECT_GT(faults_.Injected(NetLink::kFaultDrop), 0u) << "link drops never fired";
    EXPECT_GT(faults_.Evaluations(NetLink::kFaultFragDrop), 0u)
        << "net.frag_drop never consulted";
    EXPECT_GT(faults_.Evaluations(NetLink::kFaultAckDrop), 0u)
        << "net.ack_drop never consulted";
    EXPECT_GT(faults_.Evaluations(NetLink::kFaultReorder), 0u)
        << "net.reorder never consulted";
    EXPECT_GT(faults_.Evaluations(VmSystem::kFaultCollapse), 0u)
        << "no collapse opportunity ever reached the injector";
    EXPECT_GT(faults_.Evaluations(ShmDirectory::kFaultStaleHint), 0u)
        << "shm.stale_hint never consulted";
    EXPECT_GT(faults_.Evaluations(ShmDirectory::kFaultForwardDrop), 0u)
        << "shm.forward_drop never consulted";
    EXPECT_GT(ipc_faults_.Evaluations(kIpcFaultEnqueue), 0u) << "ipc.enqueue never consulted";
    EXPECT_GT(ipc_faults_.Evaluations(kIpcFaultRightTransfer), 0u)
        << "ipc.right_transfer never consulted";
    EXPECT_GT(ipc_faults_.Evaluations(kIpcFaultNotify), 0u) << "ipc.notify never consulted";
  }

 private:
  // Thrash 2x physical memory through a 48-frame pool while the backing
  // disk throws transient errors. Every page must come back as the written
  // stamp or as zeros — never garbage.
  void PagingUnderDiskFaults() {
    std::shared_ptr<Task> task = host_a_->CreateTask(nullptr, "thrash");
    const VmSize pages = 96;
    VmOffset base = task->VmAllocate(pages * kPage).value();
    for (VmOffset p = 0; p < pages; ++p) {
      uint64_t stamp = Stamp(seed_, p);
      ASSERT_EQ(task->Write(base + p * kPage, &stamp, sizeof(stamp)), KernReturn::kSuccess);
    }
    uint64_t zeroed = 0;
    for (VmOffset p = 0; p < pages; ++p) {
      uint64_t out = 0xDEAD;
      ASSERT_EQ(task->Read(base + p * kPage, &out, sizeof(out)), KernReturn::kSuccess);
      if (out == 0) {
        ++zeroed;  // Lost to an injected backing fault: allowed.
      } else {
        EXPECT_EQ(out, Stamp(seed_, p)) << "page " << p << " is torn";
      }
    }
    // The workload must have survived as a whole: zero-fill substitution is
    // the exception, not the rule.
    EXPECT_LT(zeroed, pages / 2);
  }

  // Fork/exit churn over an inherited region while collapse attempts are
  // randomly suppressed and the backing disk throws. A denied collapse must
  // leave the chain walkable; a granted one must migrate pages correctly —
  // the survivor's view never depends on which way the coin landed.
  void ForkChurnUnderCollapseFaults() {
    std::shared_ptr<Task> task = host_a_->CreateTask(nullptr, "churn0");
    const VmSize pages = 8;
    VmOffset base = task->VmAllocate(pages * kPage).value();
    std::vector<uint64_t> model(pages);
    for (VmOffset p = 0; p < pages; ++p) {
      model[p] = Stamp(seed_, 2000 + p);
      ASSERT_EQ(task->Write(base + p * kPage, &model[p], sizeof(uint64_t)),
                KernReturn::kSuccess);
    }
    for (int g = 1; g <= 24; ++g) {
      std::shared_ptr<Task> child = host_a_->CreateTask(task, "churn");
      VmOffset p = g % pages;
      model[p] = Stamp(seed_, 3000 + g);
      ASSERT_EQ(child->Write(base + p * kPage, &model[p], sizeof(uint64_t)),
                KernReturn::kSuccess);
      task = child;  // The parent dies: a collapse opportunity, maybe denied.
    }
    for (VmOffset p = 0; p < pages; ++p) {
      uint64_t out = 0xDEAD;
      ASSERT_EQ(task->Read(base + p * kPage, &out, sizeof(out)), KernReturn::kSuccess);
      // An injected backing fault may zero-fill an evicted page; collapse —
      // granted or denied — must never tear or mis-migrate one.
      EXPECT_TRUE(out == model[p] || out == 0) << "churn page " << p;
    }
  }

  // A request/reply workload across the faulty link. Reliable mode must
  // deliver every RPC despite drops, duplicates, and delay jitter.
  void RpcOverLossyLink() {
    PortPair service = PortAllocate("chaos-echo");
    std::atomic<bool> stop{false};
    std::thread server([&] {
      while (!stop.load(std::memory_order_acquire)) {
        Result<Message> req = MsgReceive(service.receive, std::chrono::milliseconds(100));
        if (!req.ok()) {
          continue;
        }
        Message reply(req.value().id() + 1);
        reply.PushU64(req.value().TakeU64().value() * 3);
        MsgSend(req.value().reply_port(), std::move(reply));
      }
    });
    SendRight proxy = link_->ProxyForA(service.send);
    for (uint64_t i = 0; i < 50; ++i) {
      Message request(100 + i);
      request.PushU64(i);
      Result<Message> reply =
          MsgRpc(proxy, std::move(request), kWaitForever, std::chrono::seconds(10));
      ASSERT_TRUE(reply.ok()) << "rpc " << i << " lost on a reliable link";
      EXPECT_EQ(reply.value().id(), 101 + i);
      EXPECT_EQ(reply.value().TakeU64().value(), i * 3);
    }
    stop.store(true, std::memory_order_release);
    server.join();
    EXPECT_EQ(link_->messages_lost(), 0u);
  }

  // A partitioned link loses even reliable traffic (after burning its
  // retransmit budget), the failure detector declares the peer dead and
  // kills the proxies; healing re-enters kUp and fresh proxies carry
  // traffic again.
  void PartitionAndHeal() {
    PortPair sink = PortAllocate("chaos-partition-sink");
    SendRight proxy = link_->ProxyForA(sink.send);
    uint64_t lost_before = link_->messages_lost();
    uint64_t dead_before = link_->peer_dead_events();
    link_->SetPartitioned(true);
    ASSERT_EQ(MsgSend(proxy, Message(7)), KernReturn::kSuccess);  // Into the void.
    // Transport timeouts plus heartbeats push both directions to kPeerDead.
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while ((link_->a_to_b_status().health != LinkHealth::kPeerDead ||
            link_->messages_lost() <= lost_before) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_EQ(link_->a_to_b_status().health, LinkHealth::kPeerDead);
    EXPECT_GT(link_->messages_lost(), lost_before);
    EXPECT_GT(link_->peer_dead_events(), dead_before);
    // The old proxy died with the peer; senders observe port death.
    EXPECT_EQ(MsgSend(proxy, Message(9), kPoll), KernReturn::kPortDead);

    link_->SetPartitioned(false);
    while ((link_->a_to_b_status().health != LinkHealth::kUp ||
            link_->b_to_a_status().health != LinkHealth::kUp) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_EQ(link_->a_to_b_status().health, LinkHealth::kUp);
    SendRight fresh = link_->ProxyForA(sink.send);
    ASSERT_EQ(MsgSend(fresh, Message(8)), KernReturn::kSuccess);
    Result<Message> got = MsgReceive(sink.receive, std::chrono::seconds(10));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value().id(), 8u);
  }

  // Two hosts write-share a sharded region with the shm.* points armed and
  // all of B's coherence traffic on the lossy reliable wire: stale hints
  // chase, dropped forwards retry on the virtual-time deadline, and every
  // transition still converges. Then the link partitions — the shard host
  // is dead from B's point of view — and a faulter parked on the wire must
  // resolve via the peer-dead proxy kill in a fraction of the 5 s pager
  // timeout. After the heal, B re-resolves the region through fresh proxies
  // and sharing resumes.
  void ShardedShmShardHostDeathAndHeal() {
    ShmOptions options;
    options.injector = &faults_;
    ShmBroker broker("chaos-shm", 4, options);
    broker.Start();
    const VmSize pages = 5;  // Pages 0-3 ping-pong; page 4 stays unfetched.
    ShmRegionInfoArgs local = broker.GetRegion("chaos-region", pages * kPage);
    std::shared_ptr<Task> task_a = host_a_->CreateTask(nullptr, "shm-a");
    VmOffset a = ShmBroker::MapRegion(*task_a, local).value();
    Result<ShmRegionInfoArgs> remote = ShmBroker::GetRegionVia(
        link_->ProxyForB(broker.service_port()), "chaos-region", pages * kPage);
    ASSERT_TRUE(remote.ok()) << KernReturnName(remote.status());
    std::shared_ptr<Task> task_b = host_b_->CreateTask(nullptr, "shm-b");
    VmOffset b = ShmBroker::MapRegion(*task_b, remote.value()).value();

    auto sees = [](Task& task, VmOffset addr, uint64_t expect) {
      auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(15);
      while (std::chrono::steady_clock::now() < deadline) {
        uint64_t v = ~0ull;
        if (IsOk(task.Read(addr, &v, sizeof(v))) && v == expect) {
          return true;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      return false;
    };
    for (uint64_t round = 0; round < 3; ++round) {
      for (VmOffset p = 0; p + 1 < pages; ++p) {
        uint64_t va = Stamp(seed_, 7000 + round * 16 + p);
        ASSERT_EQ(task_a->Write(a + p * kPage, &va, sizeof(va)), KernReturn::kSuccess);
        ASSERT_TRUE(sees(*task_b, b + p * kPage, va)) << "round " << round << " page " << p;
        uint64_t vb = va ^ 0xFFFF;
        ASSERT_EQ(task_b->Write(b + p * kPage, &vb, sizeof(vb)), KernReturn::kSuccess);
        ASSERT_TRUE(sees(*task_a, a + p * kPage, vb)) << "round " << round << " page " << p;
      }
    }
    ShmCounters c = broker.aggregate_counters();
    EXPECT_GT(c.forwards, 0u);
    EXPECT_GT(c.ownership_transfers, 0u);
    EXPECT_GT(c.hint_hits, 0u) << "no forward was ever answered by the hinted owner";

    // The "shard host death": B's proxies die with the partition. A fault
    // parked on the dead wire (page 4 was never fetched) must resolve by
    // B's zero-fill policy via the proxy kill, not the 5 s timeout.
    uint64_t dead_before = link_->peer_dead_events();
    link_->SetPartitioned(true);
    auto start = std::chrono::steady_clock::now();
    uint64_t out = ~0ull;
    ASSERT_EQ(task_b->Read(b + 4 * kPage, &out, sizeof(out)), KernReturn::kSuccess);
    auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - start);
    EXPECT_EQ(out, 0u);
    EXPECT_LT(elapsed.count(), 4000) << "parked shm faulter burned the pager timeout";
    EXPECT_GT(link_->peer_dead_events(), dead_before);
    task_b.reset();

    // Heal: fresh proxies, fresh mapping, sharing resumes against the
    // directory's authoritative state.
    link_->SetPartitioned(false);
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while ((link_->a_to_b_status().health != LinkHealth::kUp ||
            link_->b_to_a_status().health != LinkHealth::kUp) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_EQ(link_->a_to_b_status().health, LinkHealth::kUp);
    ASSERT_EQ(link_->b_to_a_status().health, LinkHealth::kUp);
    Result<ShmRegionInfoArgs> fresh = ShmBroker::GetRegionVia(
        link_->ProxyForB(broker.service_port()), "chaos-region", pages * kPage);
    ASSERT_TRUE(fresh.ok()) << KernReturnName(fresh.status());
    std::shared_ptr<Task> task_b2 = host_b_->CreateTask(nullptr, "shm-b2");
    VmOffset b2 = ShmBroker::MapRegion(*task_b2, fresh.value()).value();
    uint64_t heal_v = Stamp(seed_, 7999);
    ASSERT_EQ(task_a->Write(a + kPage, &heal_v, sizeof(heal_v)), KernReturn::kSuccess);
    ASSERT_TRUE(sees(*task_b2, b2 + kPage, heal_v)) << "post-heal sharing never converged";
    task_b2.reset();
    task_a.reset();
    broker.Stop();
  }

  // Kill a manager while a fault is parked on it: the faulter must resolve
  // (zero-filled, per A's policy) in a small fraction of the 5 s timeout.
  void ManagerDeathMidFault() {
    std::shared_ptr<Task> task = host_a_->CreateTask(nullptr, "victim");
    SilentPager pager;
    pager.Start();
    SendRight object = pager.NewObject();
    VmOffset addr = task->VmAllocateWithPager(kPage, object, 0).value();
    std::atomic<KernReturn> result{KernReturn::kFailure};
    uint64_t out = 0xFFFF;
    std::thread faulter([&] { result.store(task->Read(addr, &out, sizeof(out))); });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    auto death_time = std::chrono::steady_clock::now();
    pager.DestroyMemoryObject(object);
    faulter.join();
    auto resolved_in = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - death_time);
    EXPECT_EQ(result.load(), KernReturn::kSuccess);
    EXPECT_EQ(out, 0u);
    EXPECT_LT(resolved_in.count(), 2000) << "faulter burned the pager timeout";
    EXPECT_GE(host_a_->vm().Statistics().manager_deaths, 1u);
    pager.Stop();
  }

  // A fault-ahead-heavy sequential scan whose pager sits across the lossy
  // link: the batched multi-page data requests and their multi-page provides
  // (up to 64 KB — many fragments) ride the SACK transport under frag, ack
  // and reorder drops. Halfway through, the manager dies with a run's worth
  // of speculative placeholders outstanding; every parked page must settle
  // by the death fast path (zero fill on B), never the 5 s pager timeout.
  void FaultAheadScanOverLossyLink() {
    RunStampPager pager;
    pager.Start();
    SendRight object = pager.NewObject();
    std::shared_ptr<Task> task = host_b_->CreateTask(nullptr, "scan-remote");
    const VmSize pages = 64;
    VmOffset base =
        task->VmAllocateWithPager(pages * kPage, link_->ProxyForB(object), 0).value();
    for (VmOffset p = 0; p < pages / 2; ++p) {
      uint64_t out = 0xDEAD;
      ASSERT_EQ(task->Read(base + p * kPage, &out, sizeof(out)), KernReturn::kSuccess);
      EXPECT_EQ(out, Stamp(0xFA, p)) << "page " << p << " lost on the reliable link";
    }
    EXPECT_GT(pager.multi_page_requests(), 0u)
        << "the sequential scan never batched a request across the wire";

    pager.Silence();                    // Later faults park on the wire...
    pager.DestroyMemoryObject(object);  // ...and the manager dies.
    auto death_time = std::chrono::steady_clock::now();
    for (VmOffset p = pages / 2; p < pages; ++p) {
      uint64_t out = 0xDEAD;
      ASSERT_EQ(task->Read(base + p * kPage, &out, sizeof(out)), KernReturn::kSuccess);
      // Answered earlier by a speculative run, or zero-filled by the death
      // fast path — never torn, never an error.
      EXPECT_TRUE(out == Stamp(0xFA, p) || out == 0) << "page " << p;
    }
    auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - death_time);
    EXPECT_LT(elapsed.count(), 4000) << "parked fault-ahead run burned the pager timeout";
    EXPECT_GT(host_b_->vm().Statistics().fault_ahead_requests, 0u);
    task.reset();
    pager.Stop();
  }

  // Migrate a task from the faulty host to the healthy one with its paging
  // traffic on the lossy (reliable) wire.
  void MigrationOverLossyLink() {
    std::shared_ptr<Task> source = host_a_->CreateTask(nullptr, "migrant");
    const VmSize pages = 8;
    VmOffset base = source->VmAllocate(pages * kPage).value();
    for (VmOffset p = 0; p < pages; ++p) {
      uint64_t stamp = Stamp(seed_, 1000 + p);
      ASSERT_EQ(source->Write(base + p * kPage, &stamp, sizeof(stamp)), KernReturn::kSuccess);
    }
    MigrationManager manager;
    manager.Start();
    MigrationManager::Options options;
    options.export_port = [&](SendRight object) { return link_->ProxyForB(std::move(object)); };
    Result<std::shared_ptr<Task>> migrated = manager.Migrate(source, host_b_.get(), options);
    ASSERT_TRUE(migrated.ok());
    for (VmOffset p = 0; p < pages; ++p) {
      uint64_t out = 0xDEAD;
      ASSERT_EQ(migrated.value()->Read(base + p * kPage, &out, sizeof(out)),
                KernReturn::kSuccess);
      // Source pages may have been zero-filled by A's faulty disk before
      // the migration; they must never arrive torn.
      EXPECT_TRUE(out == Stamp(seed_, 1000 + p) || out == 0) << "page " << p;
    }
    migrated.value().reset();
    source.reset();
    manager.Stop();
  }

  // Partition the link while a copy-on-reference migration has pages still
  // to pull: a faulter parked on the dead wire must resolve via the
  // peer-dead proxy kill (zero-fill on B) in a fraction of the 5 s pager
  // timeout, and once the link heals the migration can be redone.
  void PartitionWithMigrationInFlight() {
    std::shared_ptr<Task> source = host_a_->CreateTask(nullptr, "partition-migrant");
    const VmSize pages = 8;
    VmOffset base = source->VmAllocate(pages * kPage).value();
    for (VmOffset p = 0; p < pages; ++p) {
      uint64_t stamp = Stamp(seed_, 6000 + p);
      ASSERT_EQ(source->Write(base + p * kPage, &stamp, sizeof(stamp)), KernReturn::kSuccess);
    }
    MigrationManager manager;
    manager.Start();
    MigrationManager::Options options;
    options.export_port = [&](SendRight object) { return link_->ProxyForB(std::move(object)); };
    Result<std::shared_ptr<Task>> migrated = manager.Migrate(source, host_b_.get(), options);
    ASSERT_TRUE(migrated.ok());
    for (VmOffset p = 0; p < 2; ++p) {  // Pull a couple of pages while healthy.
      uint64_t out = 0xDEAD;
      ASSERT_EQ(migrated.value()->Read(base + p * kPage, &out, sizeof(out)),
                KernReturn::kSuccess);
      EXPECT_TRUE(out == Stamp(seed_, 6000 + p) || out == 0) << "page " << p;
    }

    uint64_t dead_before = link_->peer_dead_events();
    link_->SetPartitioned(true);
    auto start = std::chrono::steady_clock::now();
    uint64_t out = 0xDEAD;
    // This fault's data request dies on the wire; the read parks until the
    // failure detector kills the exported proxy and B's kernel zero-fills.
    ASSERT_EQ(migrated.value()->Read(base + 5 * kPage, &out, sizeof(out)),
              KernReturn::kSuccess);
    auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - start);
    EXPECT_TRUE(out == Stamp(seed_, 6005) || out == 0);
    EXPECT_LT(elapsed.count(), 4000) << "parked faulter burned the pager timeout";
    EXPECT_GT(link_->peer_dead_events(), dead_before);
    migrated.value().reset();

    // Heal and redo the migration over fresh proxies.
    link_->SetPartitioned(false);
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while ((link_->a_to_b_status().health != LinkHealth::kUp ||
            link_->b_to_a_status().health != LinkHealth::kUp) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_EQ(link_->a_to_b_status().health, LinkHealth::kUp);
    ASSERT_EQ(link_->b_to_a_status().health, LinkHealth::kUp);
    Result<std::shared_ptr<Task>> redo = manager.Migrate(source, host_b_.get(), options);
    ASSERT_TRUE(redo.ok()) << KernReturnName(redo.status());
    for (VmOffset p = 0; p < pages; ++p) {
      uint64_t v = 0xDEAD;
      ASSERT_EQ(redo.value()->Read(base + p * kPage, &v, sizeof(v)), KernReturn::kSuccess);
      EXPECT_TRUE(v == Stamp(seed_, 6000 + p) || v == 0) << "page " << p;
    }
    redo.value().reset();
    source.reset();
    manager.Stop();
  }

  // Seeded port churn — allocations, rights moving through messages, kills —
  // with every ipc.* point armed: sends fail spuriously, in-transit rights
  // get duplicated or dropped, notifications arrive late. Whatever the
  // schedule does, disarming plus one GC pass must return the process to its
  // starting live-port count.
  void PortChurnUnderIpcFaults() {
    PortGcCollect();
    const size_t baseline = PortGcLivePortCount();
    ipc_faults_.SetProbability(kIpcFaultEnqueue, 0.05);
    ipc_faults_.SetProbability(kIpcFaultRightTransfer, 0.05);
    ipc_faults_.SetProbability(kIpcFaultNotify, 0.3);
    SetIpcFaultInjector(&ipc_faults_);

    std::mt19937_64 rng(seed_ * 31 + 7);
    PortPair notify = PortAllocate("chaos-ipc-notify");
    notify.receive.port()->SetBacklog(1024);
    std::vector<SendRight> rights;
    std::vector<ReceiveRight> receives;
    for (int op = 0; op < 400; ++op) {
      switch (rng() % 6) {
        case 0: {
          if (receives.size() >= 32) break;
          PortPair pair = PortAllocate("chaos-churn");
          pair.receive.port()->RequestNoSendersNotification(notify.send);
          rights.push_back(std::move(pair.send));
          receives.push_back(std::move(pair.receive));
          break;
        }
        case 1: {
          if (rights.empty()) break;
          rights.push_back(rights[rng() % rights.size()]);
          break;
        }
        case 2: {
          if (rights.empty()) break;
          size_t i = rng() % rights.size();
          rights[i] = std::move(rights.back());
          rights.pop_back();
          break;
        }
        case 3: {  // Send a message carrying 0-2 rights.
          if (rights.empty()) break;
          SendRight dest = rights[rng() % rights.size()];
          Message msg(0x99);
          for (size_t c = rng() % 3; c > 0 && !rights.empty(); --c) {
            size_t i = rng() % rights.size();
            msg.PushPort(std::move(rights[i]));
            rights[i] = std::move(rights.back());
            rights.pop_back();
          }
          MsgSend(dest, std::move(msg), kPoll);
          break;
        }
        case 4: {  // Receive from a random port, re-homing carried rights.
          if (receives.empty()) break;
          Result<Message> got = MsgReceive(receives[rng() % receives.size()], kPoll);
          if (!got.ok()) break;
          Message msg = std::move(got).value();
          while (!msg.AtEnd()) {
            Result<SendRight> r = msg.TakePort();
            if (!r.ok()) break;
            if (r.value().valid()) {
              rights.push_back(std::move(r).value());
            }
          }
          break;
        }
        case 5: {  // Port death with whatever is still queued.
          if (receives.empty()) break;
          size_t i = rng() % receives.size();
          receives[i] = std::move(receives.back());
          receives.pop_back();
          break;
        }
      }
      if (op % 50 == 49) {
        IpcDrainDelayedNotifications();
      }
    }
    rights.clear();
    receives.clear();
    SetIpcFaultInjector(nullptr);  // Drains every deferred notification.
    EXPECT_EQ(IpcPendingDelayedNotificationCount(), 0u);
    notify = PortPair();
    PortGcCollect();
    EXPECT_EQ(PortGcLivePortCount(), baseline) << "ports leaked through the ipc fault schedule";
  }

  // Crash the source host's side of a live copy-on-reference migration: the
  // migration manager and source task die with residual dependencies
  // outstanding, and — with ipc.notify fully armed — the death notices that
  // resolve the orphaned faults sit on the deferred list until pumped. The
  // migrated task's remaining reads must still complete quickly (death fast
  // path + zero fill on host B), never hang, never tear.
  void MidMigrationHostCrash() {
    ipc_faults_.SetProbability(kIpcFaultEnqueue, 0.0);
    ipc_faults_.SetProbability(kIpcFaultRightTransfer, 0.0);
    ipc_faults_.SetProbability(kIpcFaultNotify, 1.0);
    SetIpcFaultInjector(&ipc_faults_);

    std::shared_ptr<Task> source = host_a_->CreateTask(nullptr, "crash-migrant");
    const VmSize pages = 8;
    VmOffset base = source->VmAllocate(pages * kPage).value();
    for (VmOffset p = 0; p < pages; ++p) {
      uint64_t stamp = Stamp(seed_, 4000 + p);
      ASSERT_EQ(source->Write(base + p * kPage, &stamp, sizeof(stamp)), KernReturn::kSuccess);
    }
    auto manager = std::make_unique<MigrationManager>();
    manager->Start();
    MigrationManager::Options options;
    options.strategy = MigrationManager::Strategy::kCopyOnReference;
    options.export_port = [&](SendRight object) { return link_->ProxyForB(std::move(object)); };
    Result<std::shared_ptr<Task>> migrated = manager->Migrate(source, host_b_.get(), options);
    ASSERT_TRUE(migrated.ok());
    for (VmOffset p = 0; p < 4; ++p) {  // Resident before the crash.
      uint64_t out = 0xDEAD;
      ASSERT_EQ(migrated.value()->Read(base + p * kPage, &out, sizeof(out)),
                KernReturn::kSuccess);
      EXPECT_TRUE(out == Stamp(seed_, 4000 + p) || out == 0) << "page " << p;
    }

    manager.reset();  // The "host crash": exporter objects die mid-stream.
    source.reset();

    std::atomic<bool> done{false};
    std::thread pump([&] {
      while (!done.load(std::memory_order_acquire)) {
        IpcDrainDelayedNotifications();
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    });
    auto start = std::chrono::steady_clock::now();
    for (VmOffset p = 4; p < pages; ++p) {
      uint64_t out = 0xDEAD;
      ASSERT_EQ(migrated.value()->Read(base + p * kPage, &out, sizeof(out)),
                KernReturn::kSuccess);
      // The source is gone: either the page made it across earlier or B
      // zero-fills. 0xDEAD would mean a torn/unresolved read.
      EXPECT_TRUE(out == Stamp(seed_, 4000 + p) || out == 0) << "page " << p;
    }
    auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - start);
    done.store(true, std::memory_order_release);
    pump.join();
    EXPECT_LT(elapsed.count(), 4000) << "orphaned faults burned the pager timeout";
    migrated.value().reset();
    SetIpcFaultInjector(nullptr);
    EXPECT_GT(ipc_faults_.Injected(kIpcFaultNotify), 0u);
  }

  // A Camelot transaction stream on the faulty host with injected write
  // faults on the DATA disk (the log disk stays clean, so commit durability
  // is well-defined) and delayed IPC notifications, crashed at a seeded
  // point. Recovery on clean hardware must yield exactly the committed
  // effects: losers rolled back, winners present.
  void CamelotCrashPointsUnderDataDiskFaults() {
    FaultInjector disk_faults(seed_ ^ 0xCA3E107);
    disk_faults.SetProbability(SimDisk::kFaultWrite, 0.15);
    SimDisk data_disk(512, kPage, nullptr, DiskLatencyModel{0, 0}, &disk_faults);
    SimDisk log_disk(4096, 512, nullptr, DiskLatencyModel{0, 0});
    auto rm = std::make_unique<RecoveryManager>(&data_disk, &log_disk, kPage);
    rm->Start();

    ipc_faults_.SetProbability(kIpcFaultNotify, 0.5);
    SetIpcFaultInjector(&ipc_faults_);

    // 96 pages against host A's 48 frames: ballast writes force evictions,
    // so the injected data-disk faults hit real pageout traffic (deferred
    // stash + retry), not just the recovery path.
    std::shared_ptr<Task> client = host_a_->CreateTask(nullptr, "camelot-chaos");
    const VmSize seg_pages = 96;
    RecoverableSegment seg =
        RecoverableSegment::Map(rm.get(), client.get(), "chaos-seg", seg_pages * kPage).value();

    std::mt19937_64 rng(seed_ * 131 + 17);
    std::vector<uint64_t> committed(8, 0);
    int crash_after = static_cast<int>(rng() % 6);
    for (int t = 0; t <= crash_after; ++t) {
      Transaction txn(rm.get());
      std::vector<std::pair<size_t, uint64_t>> writes;
      for (int w = 0; w < 3; ++w) {
        size_t slot = rng() % 8;
        uint64_t value = rng();
        writes.emplace_back(slot, value);
        ASSERT_EQ(txn.Write(seg, slot * 64, &value, sizeof(value)), KernReturn::kSuccess);
      }
      if (rng() % 2 == 0) {
        ASSERT_EQ(txn.Commit(), KernReturn::kSuccess);
        for (auto& [slot, value] : writes) {
          committed[slot] = value;
        }
      } else {
        ASSERT_EQ(txn.Abort(), KernReturn::kSuccess);
      }
      // Non-transactional ballast across the whole segment, churning the
      // frame pool so dirty recoverable pages page out mid-stream.
      for (VmOffset p = 1; p < seg_pages; p += 3) {
        uint64_t v = Stamp(seed_, 5000 + p);
        ASSERT_EQ(client->Write(seg.base() + p * kPage, &v, sizeof(v)), KernReturn::kSuccess);
      }
      IpcDrainDelayedNotifications();
    }
    EXPECT_GT(disk_faults.Evaluations(SimDisk::kFaultWrite), 0u)
        << "no pageout ever reached the faulty data disk";

    rm->SimulateCrash();  // Volatile log tail and deferred stash vanish.
    data_disk.set_fault_injector(nullptr);  // Recovery runs on clean hardware.
    rm->Recover();
    client->VmDeallocate(seg.base(), seg.size());
    client.reset();
    SetIpcFaultInjector(nullptr);  // Drains the teardown's deferred notices.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    rm->Recover();  // Idempotent; re-applies after any late writebacks.

    std::shared_ptr<Task> checker = host_a_->CreateTask(nullptr, "camelot-checker");
    RecoverableSegment check =
        RecoverableSegment::Map(rm.get(), checker.get(), "chaos-seg", seg_pages * kPage).value();
    for (size_t slot = 0; slot < 8; ++slot) {
      uint64_t v = checker->ReadValue<uint64_t>(check.base() + slot * 64).value_or(~0ull);
      EXPECT_EQ(v, committed[slot]) << "slot " << slot;
    }
    checker.reset();
    rm->Stop();
  }

  // With every task gone, the faulty host's frames drain back to the free
  // pool (no stuck busy pages, no leaked placeholder frames).
  void NoLeaksAfterTeardown() {
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    uint64_t free = 0;
    while (std::chrono::steady_clock::now() < deadline) {
      free = host_a_->phys().free_frames();
      if (free >= 48 - 4) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_GE(free, 48u - 4u) << "frames leaked after teardown";
  }

  const uint64_t seed_;
  FaultInjector faults_;
  FaultInjector ipc_faults_;
  SimClock net_clock_;
  std::unique_ptr<Kernel> host_a_;
  std::unique_ptr<Kernel> host_b_;
  std::unique_ptr<NetLink> link_;
  std::unique_ptr<LinkTimer> link_timer_;  // Heartbeats; stops before link_ dies.
};

// The E15 tenant-serving workload in miniature: two hosts, four tenants,
// chaos armed (data-disk + wire + shm faults, mid-run manager crash and
// link partition/heal), ten seeds. Per seed the driver's built-in oracle
// must hold — every committed transaction survives the final crash+recover
// exactly once, every abort leaves no trace — and teardown must return to
// baseline on both frames and ports.
TEST(TenantServingSoakTest, TenSeedsCommitExactlyOnceAndTearDownClean) {
  for (uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    TenantWorkloadOptions options;
    options.hosts = 2;
    options.tenants = 4;
    options.txns_per_tenant = 8;
    options.server_frames = 48;  // Small pool: clustering pageout runs fire.
    options.chaos = true;
    options.seed = seed;
    TenantWorkloadResult r = RunTenantWorkload(options);
    EXPECT_GT(r.committed, 0u) << "no transaction ever committed";
    EXPECT_TRUE(r.oracle_ok) << r.slot_mismatches
                             << " ledger slots diverged from the committed model";
    EXPECT_GT(r.camelot_recover_ns, 0u) << "the mid-run crash never recovered";
    EXPECT_TRUE(r.frames_drained) << "server frames leaked after teardown";
    EXPECT_EQ(r.ports_leaked, 0) << "ports leaked across the workload";
  }
}

TEST(ChaosSoakTest, TenSeedsSurviveDiskLinkAndPagerFaults) {
  for (uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ChaosSoak soak(seed);
    soak.Run();
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

}  // namespace
}  // namespace mach
