// Tests for the consistent network shared memory server (§4.2): the
// single-writer/multiple-readers protocol over the external memory
// management interface, across multiple kernels ("hosts"), directly and
// through latency-modelled NetLink proxies (§7).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/kernel/task.h"
#include "src/managers/shm/shm_broker.h"
#include "src/net/net_link.h"

namespace mach {
namespace {

constexpr VmSize kPage = 4096;

std::unique_ptr<Kernel> MakeHost(const std::string& name) {
  Kernel::Config config;
  config.name = name;
  config.frames = 128;
  config.page_size = kPage;
  config.disk_latency = DiskLatencyModel{0, 0};
  config.vm.pager_timeout = std::chrono::milliseconds(5000);
  return std::make_unique<Kernel>(config);
}

// Polls until `task` observes `expect` at `addr` (coherence actions are
// asynchronous messages).
bool EventuallySees(Task& task, VmOffset addr, uint32_t expect,
                    std::chrono::milliseconds budget = std::chrono::milliseconds(5000)) {
  auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    uint32_t v = 0;
    if (IsOk(task.Read(addr, &v, sizeof(v))) && v == expect) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

// The centralised §4.2 server: a 1-shard broker, so every region is one
// memory object served by one directory.
class ShmTest : public ::testing::Test {
 protected:
  ShmTest() {
    host_a_ = MakeHost("host-a");
    host_b_ = MakeHost("host-b");
    server_ = std::make_unique<ShmBroker>("shm", 1, ShmOptions{});
    server_->Start();
    task_a_ = host_a_->CreateTask(nullptr, "client-a");
    task_b_ = host_b_->CreateTask(nullptr, "client-b");
  }
  ~ShmTest() override {
    task_a_.reset();
    task_b_.reset();
    server_->Stop();
  }

  // The named region's memory object (§4.2: the same object X for every
  // client).
  SendRight Region(const std::string& name, VmSize size) {
    return server_->GetRegion(name, size).shard_objects[0];
  }
  ShmCounters Counters() const { return server_->aggregate_counters(); }

  std::unique_ptr<Kernel> host_a_;
  std::unique_ptr<Kernel> host_b_;
  std::unique_ptr<ShmBroker> server_;
  std::shared_ptr<Task> task_a_;
  std::shared_ptr<Task> task_b_;
};

TEST_F(ShmTest, SameObjectReturnedForSameName) {
  SendRight x1 = Region("r", 4 * kPage);
  SendRight x2 = Region("r", 4 * kPage);
  EXPECT_EQ(x1.id(), x2.id());
  EXPECT_NE(Region("other", kPage).id(), x1.id());
}

TEST_F(ShmTest, InitialContentsAreZero) {
  SendRight region = Region("zeros", 2 * kPage);
  VmOffset addr = task_a_->VmAllocateWithPager(2 * kPage, region, 0).value();
  uint64_t v = 0xFF;
  ASSERT_EQ(task_a_->Read(addr, &v, sizeof(v)), KernReturn::kSuccess);
  EXPECT_EQ(v, 0u);
  EXPECT_GE(Counters().read_grants, 1u);
}

TEST_F(ShmTest, WriteVisibleAcrossHosts) {
  SendRight region = Region("xhost", kPage);
  VmOffset a = task_a_->VmAllocateWithPager(kPage, region, 0).value();
  VmOffset b = task_b_->VmAllocateWithPager(kPage, region, 0).value();
  uint32_t v = 0x1234;
  ASSERT_EQ(task_a_->Write(a, &v, sizeof(v)), KernReturn::kSuccess);
  EXPECT_TRUE(EventuallySees(*task_b_, b, 0x1234));
}

TEST_F(ShmTest, PingPongWrites) {
  // Ownership of the page migrates back and forth (§4.2's final frame,
  // repeatedly).
  SendRight region = Region("pingpong", kPage);
  VmOffset a = task_a_->VmAllocateWithPager(kPage, region, 0).value();
  VmOffset b = task_b_->VmAllocateWithPager(kPage, region, 0).value();
  for (uint32_t round = 1; round <= 10; ++round) {
    uint32_t va = round * 2;
    ASSERT_EQ(task_a_->Write(a, &va, sizeof(va)), KernReturn::kSuccess);
    ASSERT_TRUE(EventuallySees(*task_b_, b, va)) << "round " << round;
    uint32_t vb = round * 2 + 1;
    ASSERT_EQ(task_b_->Write(b, &vb, sizeof(vb)), KernReturn::kSuccess);
    ASSERT_TRUE(EventuallySees(*task_a_, a, vb)) << "round " << round;
  }
  const ShmCounters c = Counters();
  EXPECT_GT(c.invalidations + c.recalls, 0u);
}

TEST_F(ShmTest, ConcurrentReadersNoInvalidation) {
  // Multiple readers of a stable page coexist without coherence traffic.
  SendRight region = Region("readers", kPage);
  VmOffset a = task_a_->VmAllocateWithPager(kPage, region, 0).value();
  VmOffset b = task_b_->VmAllocateWithPager(kPage, region, 0).value();
  uint32_t seed = 77;
  ASSERT_EQ(task_a_->Write(a, &seed, sizeof(seed)), KernReturn::kSuccess);
  ASSERT_TRUE(EventuallySees(*task_b_, b, 77));
  // Settle, then read from both sides repeatedly.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  uint64_t inval_before = Counters().invalidations;
  for (int i = 0; i < 20; ++i) {
    uint32_t va = 0, vb = 0;
    ASSERT_EQ(task_a_->Read(a, &va, sizeof(va)), KernReturn::kSuccess);
    ASSERT_EQ(task_b_->Read(b, &vb, sizeof(vb)), KernReturn::kSuccess);
    EXPECT_EQ(va, 77u);
    EXPECT_EQ(vb, 77u);
  }
  EXPECT_EQ(Counters().invalidations, inval_before);
}

TEST_F(ShmTest, DistinctPagesHaveIndependentOwnership) {
  // Writers on different pages do not interfere (no false sharing at page
  // granularity).
  SendRight region = Region("pages", 2 * kPage);
  VmOffset a = task_a_->VmAllocateWithPager(2 * kPage, region, 0).value();
  VmOffset b = task_b_->VmAllocateWithPager(2 * kPage, region, 0).value();
  uint32_t va = 100, vb = 200;
  ASSERT_EQ(task_a_->Write(a, &va, sizeof(va)), KernReturn::kSuccess);
  ASSERT_EQ(task_b_->Write(b + kPage, &vb, sizeof(vb)), KernReturn::kSuccess);
  EXPECT_TRUE(EventuallySees(*task_b_, b, 100));
  EXPECT_TRUE(EventuallySees(*task_a_, a + kPage, 200));
}

TEST_F(ShmTest, ThreeHosts) {
  auto host_c = MakeHost("host-c");
  std::shared_ptr<Task> task_c = host_c->CreateTask(nullptr, "client-c");
  SendRight region = Region("trio", kPage);
  VmOffset a = task_a_->VmAllocateWithPager(kPage, region, 0).value();
  VmOffset b = task_b_->VmAllocateWithPager(kPage, region, 0).value();
  VmOffset c = task_c->VmAllocateWithPager(kPage, region, 0).value();
  uint32_t v = 555;
  ASSERT_EQ(task_c->Write(c, &v, sizeof(v)), KernReturn::kSuccess);
  EXPECT_TRUE(EventuallySees(*task_a_, a, 555));
  EXPECT_TRUE(EventuallySees(*task_b_, b, 555));
  uint32_t v2 = 777;
  ASSERT_EQ(task_a_->Write(a, &v2, sizeof(v2)), KernReturn::kSuccess);
  EXPECT_TRUE(EventuallySees(*task_c, c, 777));
  task_c.reset();
}

TEST_F(ShmTest, SequentialConsistencyUnderContention) {
  // Property: a monotonically increasing counter written under ping-pong
  // ownership never goes backwards from either host's view.
  SendRight region = Region("mono", kPage);
  VmOffset a = task_a_->VmAllocateWithPager(kPage, region, 0).value();
  VmOffset b = task_b_->VmAllocateWithPager(kPage, region, 0).value();
  uint32_t zero = 0;
  ASSERT_EQ(task_a_->Write(a, &zero, sizeof(zero)), KernReturn::kSuccess);

  std::atomic<bool> stop{false};
  std::atomic<uint32_t> last_b{0};
  std::atomic<bool> regression{false};
  std::thread reader([&] {
    while (!stop.load()) {
      uint32_t v = 0;
      if (IsOk(task_b_->Read(b, &v, sizeof(v)))) {
        uint32_t prev = last_b.load();
        if (v < prev) {
          regression.store(true);
        }
        last_b.store(std::max(prev, v));
      }
    }
  });
  for (uint32_t i = 1; i <= 50; ++i) {
    ASSERT_EQ(task_a_->Write(a, &i, sizeof(i)), KernReturn::kSuccess);
  }
  EXPECT_TRUE(EventuallySees(*task_b_, b, 50));
  stop.store(true);
  reader.join();
  EXPECT_FALSE(regression.load()) << "shared counter went backwards on host B";
}

class ShmOverNetTest : public ShmTest {};

TEST_F(ShmOverNetTest, CoherenceThroughNormaLink) {
  // The server lives on host A; host B reaches the memory object through a
  // NORMA-latency proxy. All pager traffic for B crosses the link.
  SimClock net_clock;
  NetLink link(&host_a_->vm(), &host_b_->vm(), &net_clock, kNormaLatency);
  SendRight region = Region("remote", kPage);
  VmOffset a = task_a_->VmAllocateWithPager(kPage, region, 0).value();
  SendRight remote_region = link.ProxyForB(region);
  VmOffset b = task_b_->VmAllocateWithPager(kPage, remote_region, 0).value();

  uint32_t v = 42;
  ASSERT_EQ(task_a_->Write(a, &v, sizeof(v)), KernReturn::kSuccess);
  EXPECT_TRUE(EventuallySees(*task_b_, b, 42));
  uint64_t msgs_after_read = link.messages_forwarded();
  EXPECT_GT(msgs_after_read, 0u);
  EXPECT_GT(net_clock.NowNs(), 0u);

  // Remote write: unlock/invalidate traffic also crosses the link.
  uint32_t v2 = 43;
  ASSERT_EQ(task_b_->Write(b, &v2, sizeof(v2)), KernReturn::kSuccess);
  EXPECT_TRUE(EventuallySees(*task_a_, a, 43));
  EXPECT_GT(link.messages_forwarded(), msgs_after_read);
}

TEST_F(ShmOverNetTest, LocalityKeepsTrafficLow) {
  // Li's observation (§7): processors that seldom write the same data can
  // use network shared memory efficiently — repeated local reads after the
  // first fetch generate no link traffic.
  SimClock net_clock;
  NetLink link(&host_a_->vm(), &host_b_->vm(), &net_clock, kNormaLatency);
  SendRight region = Region("locality", kPage);
  SendRight remote_region = link.ProxyForB(region);
  VmOffset b = task_b_->VmAllocateWithPager(kPage, remote_region, 0).value();
  uint32_t v = 0;
  ASSERT_EQ(task_b_->Read(b, &v, sizeof(v)), KernReturn::kSuccess);
  uint64_t msgs_before = link.messages_forwarded();
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(task_b_->Read(b, &v, sizeof(v)), KernReturn::kSuccess);
  }
  EXPECT_EQ(link.messages_forwarded(), msgs_before);  // All cache hits.
}

// --- the sharded manager: broker front end + directory shards ---------------

class ShmShardedTest : public ::testing::Test {
 protected:
  static constexpr size_t kShards = 4;

  ShmShardedTest() {
    host_a_ = MakeHost("shard-host-a");
    host_b_ = MakeHost("shard-host-b");
    broker_ = std::make_unique<ShmBroker>("shmb", kShards, ShmOptions{});
    broker_->Start();
    task_a_ = host_a_->CreateTask(nullptr, "client-a");
    task_b_ = host_b_->CreateTask(nullptr, "client-b");
  }
  ~ShmShardedTest() override {
    task_a_.reset();
    task_b_.reset();
    broker_->Stop();
  }

  std::unique_ptr<Kernel> host_a_;
  std::unique_ptr<Kernel> host_b_;
  std::unique_ptr<ShmBroker> broker_;
  std::shared_ptr<Task> task_a_;
  std::shared_ptr<Task> task_b_;
};

TEST_F(ShmShardedTest, GetRegionIsStableAndPartitionsThePageSpace) {
  ShmRegionInfoArgs info = broker_->GetRegion("grid", 16 * kPage);
  ShmRegionInfoArgs again = broker_->GetRegion("grid", 16 * kPage);
  EXPECT_EQ(info.region_id, again.region_id);
  ASSERT_EQ(info.shard_objects.size(), kShards);
  for (size_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(info.shard_objects[s].id(), again.shard_objects[s].id());
  }
  // The avalanche hash spreads the page space: no shard inherits a hot
  // contiguous run, and several shards serve every realistic region.
  std::set<size_t> used;
  for (uint64_t p = 0; p < 16; ++p) {
    used.insert(ShmBroker::ShardOfPage(info.region_id, p, kShards));
  }
  EXPECT_GE(used.size(), 3u);
}

TEST_F(ShmShardedTest, WritesVisibleAcrossHostsOnBrokerMappedRegion) {
  ShmRegionInfoArgs info = broker_->GetRegion("grid", 8 * kPage);
  VmOffset a = ShmBroker::MapRegion(*task_a_, info).value();
  VmOffset b = ShmBroker::MapRegion(*task_b_, info).value();
  for (uint32_t p = 0; p < 8; ++p) {
    uint32_t v = 0xA000 + p;
    ASSERT_EQ(task_a_->Write(a + p * kPage, &v, sizeof(v)), KernReturn::kSuccess);
  }
  for (uint32_t p = 0; p < 8; ++p) {
    EXPECT_TRUE(EventuallySees(*task_b_, b + p * kPage, 0xA000 + p)) << "page " << p;
  }
  // Reverse direction: ownership of every page migrates to B.
  for (uint32_t p = 0; p < 8; ++p) {
    uint32_t v = 0xB000 + p;
    ASSERT_EQ(task_b_->Write(b + p * kPage, &v, sizeof(v)), KernReturn::kSuccess);
  }
  for (uint32_t p = 0; p < 8; ++p) {
    EXPECT_TRUE(EventuallySees(*task_a_, a + p * kPage, 0xB000 + p)) << "page " << p;
  }
  // The coherence load really spread across shards.
  size_t active = 0;
  for (size_t s = 0; s < kShards; ++s) {
    ShmCounters c = broker_->shard(s).directory().counters();
    active += (c.read_grants + c.write_grants) > 0 ? 1 : 0;
  }
  EXPECT_GE(active, 2u);
}

TEST_F(ShmShardedTest, PingPongMigratesOwnershipThroughTheHintChain) {
  ShmRegionInfoArgs info = broker_->GetRegion("pingpong", kPage);
  VmOffset a = ShmBroker::MapRegion(*task_a_, info).value();
  VmOffset b = ShmBroker::MapRegion(*task_b_, info).value();
  for (uint32_t round = 1; round <= 10; ++round) {
    uint32_t va = round * 2;
    ASSERT_EQ(task_a_->Write(a, &va, sizeof(va)), KernReturn::kSuccess);
    ASSERT_TRUE(EventuallySees(*task_b_, b, va)) << "round " << round;
    uint32_t vb = round * 2 + 1;
    ASSERT_EQ(task_b_->Write(b, &vb, sizeof(vb)), KernReturn::kSuccess);
    ASSERT_TRUE(EventuallySees(*task_a_, a, vb)) << "round " << round;
  }
  ShmCounters c = broker_->aggregate_counters();
  EXPECT_GT(c.forwards, 0u);
  EXPECT_GT(c.ownership_transfers, 0u);
  // The directory's owner hint pointed at the host that actually answered
  // with data — every transfer kept it repaired.
  EXPECT_GT(c.hint_hits, 0u);
  // The lock-completed ack path resolves every recall in a healthy run;
  // the virtual-time deadline is strictly a dead-host backstop.
  EXPECT_EQ(c.recall_timeouts, 0u);
}

TEST_F(ShmShardedTest, RemoteHostResolvesRegionThroughProxiedBroker) {
  // The broker and its shards live on host A; host B resolves the region
  // with an shm_get_region RPC through a NORMA proxy of the service port.
  // The reply's shard rights cross the link, so B's coherence traffic does
  // too — per shard, on distinct proxied objects.
  SimClock net_clock;
  NetLink link(&host_a_->vm(), &host_b_->vm(), &net_clock, kNormaLatency);
  ShmRegionInfoArgs local = broker_->GetRegion("wan", 4 * kPage);
  VmOffset a = ShmBroker::MapRegion(*task_a_, local).value();
  SendRight remote_service = link.ProxyForB(broker_->service_port());
  Result<ShmRegionInfoArgs> remote = ShmBroker::GetRegionVia(remote_service, "wan", 4 * kPage);
  ASSERT_TRUE(remote.ok()) << KernReturnName(remote.status());
  EXPECT_EQ(remote.value().region_id, local.region_id);
  ASSERT_EQ(remote.value().shard_objects.size(), kShards);
  for (size_t s = 0; s < kShards; ++s) {
    EXPECT_NE(remote.value().shard_objects[s].id(), local.shard_objects[s].id())
        << "shard " << s << " right did not come back as a link proxy";
  }
  VmOffset b = ShmBroker::MapRegion(*task_b_, remote.value()).value();
  uint32_t v = 4242;
  ASSERT_EQ(task_a_->Write(a, &v, sizeof(v)), KernReturn::kSuccess);
  EXPECT_TRUE(EventuallySees(*task_b_, b, 4242));
  uint32_t v2 = 4343;
  ASSERT_EQ(task_b_->Write(b + kPage, &v2, sizeof(v2)), KernReturn::kSuccess);
  EXPECT_TRUE(EventuallySees(*task_a_, a + kPage, 4343));
  EXPECT_GT(link.messages_forwarded(), 0u);
}

TEST_F(ShmShardedTest, DeadShardFailsItsPagesButLeavesOtherShardsServing) {
  // Shards fail independently: killing one shard's object resolves faults
  // on its pages quickly (death fast path, no 5 s pager-timeout burn) while
  // every other shard keeps serving.
  ShmRegionInfoArgs info = broker_->GetRegion("blast", 8 * kPage);
  VmOffset b = ShmBroker::MapRegion(*task_b_, info).value();
  const size_t victim_shard = ShmBroker::ShardOfPage(info.region_id, 0, kShards);
  uint64_t other_page = 0;
  for (uint64_t p = 1; p < 8; ++p) {
    if (ShmBroker::ShardOfPage(info.region_id, p, kShards) != victim_shard) {
      other_page = p;
      break;
    }
  }
  ASSERT_NE(other_page, 0u) << "every page hashed to one shard; grow the region";
  broker_->shard(victim_shard).DestroyMemoryObject(info.shard_objects[victim_shard]);
  auto start = std::chrono::steady_clock::now();
  uint32_t out = 0;
  EXPECT_NE(task_b_->Read(b, &out, sizeof(out)), KernReturn::kSuccess);
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_LT(elapsed.count(), 2000) << "dead-shard fault burned the pager timeout";
  EXPECT_EQ(task_b_->Read(b + other_page * kPage, &out, sizeof(out)), KernReturn::kSuccess);
  EXPECT_EQ(out, 0u);
}

}  // namespace
}  // namespace mach
