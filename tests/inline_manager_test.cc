// Tests for data managers served in the caller's thread
// (DataManager::Upcalls::kNeverWait): a fault's page-in runs in the faulting
// thread, a reclaim's pageout in the reclaiming thread, each memory-object
// port keeps its order, and a stopped, destroyed or re-entered manager falls
// back to the queue. Also the kernel's death watch on a memory-object port,
// withdrawn when the kernel drops the object.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/kernel/task.h"
#include "src/pager/data_manager.h"

namespace mach {
namespace {

using std::chrono::milliseconds;

constexpr VmSize kPage = 4096;

uint64_t Stamp(VmOffset offset) { return 0x5EED000000000000ull + offset; }

Kernel::Config SmallKernel(uint32_t frames, milliseconds pager_timeout) {
  Kernel::Config config;
  config.frames = frames;
  config.page_size = kPage;
  config.disk_latency = DiskLatencyModel{0, 0};
  config.vm.pager_timeout = pager_timeout;
  return config;
}

// The manager whose Stop() has returned in its destructor, and the upcalls
// that ended after that: none may, for the subclass is being destroyed.
std::atomic<const void*> g_stopped_pager{nullptr};
std::atomic<int> g_late_upcalls{0};

// A manager whose upcalls never wait on another thread. It serves pages from
// an in-memory store (a page it holds nothing for starts with its Stamp),
// records the thread each upcall ran on, and can hold one pageout open after
// storing it, as a slow disk write would.
class InlinePager : public DataManager {
 public:
  InlinePager() : DataManager("inline-pager", Upcalls::kNeverWait) { g_stopped_pager = nullptr; }
  ~InlinePager() override {
    Stop();
    g_stopped_pager = this;
  }

  SendRight NewObject() { return CreateMemoryObject(1); }

  // Runs `fn` as one of this manager's own threads.
  void AsManagerThread(const std::function<void()>& fn) {
    ManagerThread self(*this);
    fn();
  }

  // Run inside OnDataRequest, before the answer.
  std::function<void(const PagerDataRequestArgs&)> on_request;
  // Each page-in takes a little while, so one is nearly always in flight.
  std::atomic<bool> slow_requests{false};
  // The next pageout is held open for `hold` after its data is stored.
  std::atomic<bool> hold_next_write{false};
  static constexpr milliseconds kHold{200};

  // Blocks until a pageout is held; returns the offset of its first page.
  VmOffset WaitForHeldWrite() {
    while (!held_.load()) {
      std::this_thread::sleep_for(milliseconds(1));
    }
    return held_offset_.load();
  }

  std::vector<std::thread::id> request_threads() const {
    std::lock_guard<std::mutex> g(mu_);
    return request_threads_;
  }
  std::vector<std::thread::id> write_threads() const {
    std::lock_guard<std::mutex> g(mu_);
    return write_threads_;
  }
  std::thread::id service_thread() const {
    std::lock_guard<std::mutex> g(mu_);
    return service_thread_;
  }
  SendRight request_port() const {
    std::lock_guard<std::mutex> g(mu_);
    return request_port_;
  }

 protected:
  void OnInit(uint64_t, uint64_t, PagerInitArgs args) override {
    std::lock_guard<std::mutex> g(mu_);
    request_port_ = args.pager_request_port;
  }

  void OnDataRequest(uint64_t, uint64_t, PagerDataRequestArgs args) override {
    {
      std::lock_guard<std::mutex> g(mu_);
      request_threads_.push_back(std::this_thread::get_id());
    }
    if (on_request) {
      on_request(args);
    }
    std::vector<std::byte> data(args.length);
    {
      std::lock_guard<std::mutex> g(mu_);
      for (VmOffset off = 0; off < args.length; off += kPage) {
        auto it = store_.find(args.offset + off);
        if (it != store_.end()) {
          std::memcpy(data.data() + off, it->second.data(), kPage);
        } else {
          uint64_t stamp = Stamp(args.offset + off);
          std::memcpy(data.data() + off, &stamp, sizeof(stamp));
        }
      }
    }
    ProvideData(args.pager_request_port, args.offset, std::move(data), kVmProtNone);
    if (slow_requests) {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    if (g_stopped_pager.load() == this) {
      g_late_upcalls.fetch_add(1);
    }
  }

  void OnDataWrite(uint64_t, uint64_t, PagerDataWriteArgs args) override {
    {
      std::lock_guard<std::mutex> g(mu_);
      write_threads_.push_back(std::this_thread::get_id());
      for (VmOffset off = 0; off < args.data.size(); off += kPage) {
        store_[args.offset + off].assign(args.data.begin() + static_cast<long>(off),
                                         args.data.begin() + static_cast<long>(off + kPage));
      }
    }
    if (hold_next_write.exchange(false)) {
      held_offset_.store(args.offset);
      held_.store(true);
      std::this_thread::sleep_for(kHold);
    }
  }

  void OnServiceTick(bool) override {
    std::lock_guard<std::mutex> g(mu_);
    service_thread_ = std::this_thread::get_id();
  }

 private:
  mutable std::mutex mu_;
  std::map<VmOffset, std::vector<std::byte>> store_;
  std::vector<std::thread::id> request_threads_;
  std::vector<std::thread::id> write_threads_;
  std::thread::id service_thread_;
  SendRight request_port_;
  std::atomic<bool> held_{false};
  std::atomic<VmOffset> held_offset_{0};
};

TEST(InlineManagerTest, RequestRunsInTheFaultingThread) {
  Kernel kernel(SmallKernel(64, milliseconds(500)));
  InlinePager pager;
  pager.Start();
  std::shared_ptr<Task> task = kernel.CreateTask();
  VmOffset addr = task->VmAllocateWithPager(4 * kPage, pager.NewObject(), 0).value();
  uint64_t out = 0;
  ASSERT_EQ(task->Read(addr + 2 * kPage, &out, sizeof(out)), KernReturn::kSuccess);
  EXPECT_EQ(out, Stamp(2 * kPage));
  // The upcall ran here, so its pager_data_provided installed the page
  // before the kernel's send returned; pager_init, queued before the
  // request, was dispatched first (else the request would be rejected).
  ASSERT_EQ(pager.request_threads().size(), 1u);
  EXPECT_EQ(pager.request_threads()[0], std::this_thread::get_id());
  EXPECT_EQ(pager.protocol_rejects(), 0u);
  task.reset();
}

TEST(InlineManagerTest, FlushedPageIsReReadWithTheDataItWroteBack) {
  Kernel kernel(SmallKernel(64, milliseconds(2000)));
  InlinePager pager;
  pager.Start();
  std::shared_ptr<Task> task = kernel.CreateTask();
  VmOffset addr = task->VmAllocateWithPager(kPage, pager.NewObject(), 0).value();
  uint64_t out = 0;
  ASSERT_EQ(task->Read(addr, &out, sizeof(out)), KernReturn::kSuccess);
  const SendRight request_port = pager.request_port();
  ASSERT_TRUE(request_port.valid());
  for (uint64_t round = 1; round <= 1000; ++round) {
    ASSERT_EQ(task->Write(addr, &round, sizeof(round)), KernReturn::kSuccess);
    // The flush runs in this thread: it sends the dirty page under the
    // object lock, so its pager_data_write queues on the object port, and
    // frees the page. The re-read's request must not overtake that write.
    ASSERT_EQ(DataManager::FlushRequest(request_port, 0, kPage), KernReturn::kSuccess);
    ASSERT_EQ(task->Read(addr, &out, sizeof(out)), KernReturn::kSuccess);
    ASSERT_EQ(out, round) << "round " << round;
  }
  task.reset();
}

TEST(InlineManagerTest, ReclaimPageoutRunsInTheReclaimingThread) {
  // 64 dirty pages through 32 frames: reclaim writes pages back as the
  // writer goes, from the writer's own direct reclaim or the daemon.
  Kernel kernel(SmallKernel(32, milliseconds(2000)));
  InlinePager pager;
  pager.Start();
  std::shared_ptr<Task> task = kernel.CreateTask();
  constexpr VmSize kPages = 64;
  VmOffset addr = task->VmAllocateWithPager(kPages * kPage, pager.NewObject(), 0).value();
  auto value = [](VmOffset page) { return 0xD1D0000000000000ull + page; };
  constexpr uint64_t kMarker = 0x70C4ull;
  pager.hold_next_write = true;
  uint64_t seen = 0;
  VmOffset touched = 0;
  // While the first pageout is held open, touch its first page: the page is
  // busy, so the read waits, then reads back the written data, and the
  // write that follows is not lost when the reclaim frees the run.
  std::thread toucher([&] {
    touched = pager.WaitForHeldWrite();
    ASSERT_EQ(task->Read(addr + touched, &seen, sizeof(seen)), KernReturn::kSuccess);
    ASSERT_EQ(task->Write(addr + touched, &kMarker, sizeof(kMarker)), KernReturn::kSuccess);
  });
  for (VmOffset p = 0; p < kPages; ++p) {
    uint64_t v = value(p);
    ASSERT_EQ(task->Write(addr + p * kPage, &v, sizeof(v)), KernReturn::kSuccess);
  }
  toucher.join();
  EXPECT_EQ(seen, value(touched / kPage));
  const std::vector<std::thread::id> writers = pager.write_threads();
  ASSERT_FALSE(writers.empty());
  for (std::thread::id writer : writers) {
    EXPECT_NE(writer, pager.service_thread());
  }
  for (VmOffset p = 0; p < kPages; ++p) {
    uint64_t out = 0;
    ASSERT_EQ(task->Read(addr + p * kPage, &out, sizeof(out)), KernReturn::kSuccess);
    EXPECT_EQ(out, p * kPage == touched ? kMarker : value(p)) << "page " << p;
  }
  task.reset();
}

TEST(InlineManagerTest, StoppedManagerServesNothingInline) {
  const milliseconds timeout(200);
  Kernel kernel(SmallKernel(64, timeout));
  InlinePager pager;
  pager.Start();
  std::shared_ptr<Task> task = kernel.CreateTask();
  SendRight object = pager.NewObject();
  // Pages 0, 4 and 2: no two misses in a row are sequential, so no request
  // reaches past its own page (fault-ahead).
  VmOffset addr = task->VmAllocateWithPager(8 * kPage, object, 0).value();
  uint64_t out = 0;
  ASSERT_EQ(task->Read(addr, &out, sizeof(out)), KernReturn::kSuccess);
  pager.Stop();
  // The request queues on the port, and the fault ends per pager_timeout.
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(task->Read(addr + 4 * kPage, &out, sizeof(out)), KernReturn::kMemoryFailure);
  EXPECT_GE(std::chrono::steady_clock::now() - start, timeout * 3 / 4);
  EXPECT_EQ(pager.request_threads().size(), 1u);
  EXPECT_GE(object.port()->Status().num_msgs, 1u);
  // Started again, it serves inline, after whatever the port still holds
  // (the stale request, unless the service thread took it first).
  pager.Start();
  ASSERT_EQ(task->Read(addr + 2 * kPage, &out, sizeof(out)), KernReturn::kSuccess);
  EXPECT_EQ(out, Stamp(2 * kPage));
  EXPECT_EQ(pager.request_threads().back(), std::this_thread::get_id());
  ASSERT_EQ(task->Read(addr + 4 * kPage, &out, sizeof(out)), KernReturn::kSuccess);
  EXPECT_EQ(out, Stamp(4 * kPage));
  task.reset();
}

TEST(InlineManagerTest, ManagerThreadsFaultOnTheirOwnObjectQueues) {
  const milliseconds timeout(300);
  Kernel kernel(SmallKernel(64, timeout));
  InlinePager pager;
  pager.Start();
  std::shared_ptr<Task> task = kernel.CreateTask();
  VmOffset addr = task->VmAllocateWithPager(16 * kPage, pager.NewObject(), 0).value();
  uint64_t out = 0;
  // A thread of the manager's own: its request goes to the service thread.
  pager.AsManagerThread(
      [&] { ASSERT_EQ(task->Read(addr, &out, sizeof(out)), KernReturn::kSuccess); });
  EXPECT_EQ(out, Stamp(0));
  ASSERT_EQ(pager.request_threads().size(), 1u);
  EXPECT_NE(pager.request_threads()[0], std::this_thread::get_id());
  EXPECT_EQ(pager.request_threads()[0], pager.service_thread());
  // An inline upcall that faults on its own object: the nested request
  // queues behind the upcall, which holds the manager, and ends per
  // pager_timeout instead of deadlocking.
  KernReturn nested = KernReturn::kSuccess;
  pager.on_request = [&](const PagerDataRequestArgs& args) {
    if (args.offset == 8 * kPage) {
      uint64_t v = 0;
      nested = task->Read(addr + 12 * kPage, &v, sizeof(v));
    }
  };
  ASSERT_EQ(task->Read(addr + 8 * kPage, &out, sizeof(out)), KernReturn::kSuccess);
  EXPECT_EQ(out, Stamp(8 * kPage));
  EXPECT_EQ(nested, KernReturn::kMemoryFailure);
  pager.Stop();
  pager.on_request = nullptr;
  task.reset();
}

TEST(InlineManagerTest, StopAndDestroyWhileFaultersEnterInlineUpcalls) {
  // 128 pages through 32 frames keep page-ins and pageouts flowing inline
  // while the manager is stopped and destroyed under the faulters: the
  // upcall in flight ends first, and later ones queue on dead ports.
  Kernel kernel(SmallKernel(32, milliseconds(100)));
  auto pager = std::make_unique<InlinePager>();
  pager->slow_requests = true;
  pager->Start();
  std::shared_ptr<Task> task = kernel.CreateTask();
  constexpr VmSize kPages = 128;
  VmOffset addr = task->VmAllocateWithPager(kPages * kPage, pager->NewObject(), 0).value();
  std::atomic<bool> stop{false};
  std::vector<std::thread> faulters;
  for (int t = 0; t < 4; ++t) {
    faulters.emplace_back([&, t] {
      std::mt19937 rng(static_cast<uint32_t>(t) + 1);
      while (!stop.load()) {
        uint64_t v = rng();
        const VmOffset at = addr + (v % kPages) * kPage;
        if ((v & 1) != 0) {
          (void)task->Write(at, &v, sizeof(v));
        } else {
          (void)task->Read(at, &v, sizeof(v));
        }
      }
    });
  }
  std::this_thread::sleep_for(milliseconds(50));
  pager.reset();
  std::this_thread::sleep_for(milliseconds(50));
  stop = true;
  for (std::thread& f : faulters) {
    f.join();
  }
  EXPECT_EQ(g_late_upcalls.load(), 0);
  task.reset();
}

TEST(PagerDeathWatchTest, DroppedObjectsLeaveOneWatchOnTheirPort) {
  Kernel kernel(SmallKernel(64, milliseconds(500)));
  InlinePager pager;
  pager.Start();
  std::shared_ptr<Task> task = kernel.CreateTask();
  SendRight object = pager.NewObject();
  // Not cached: each unmap terminates the kernel's object, and each map
  // makes a new one, which watches the port again.
  for (int round = 0; round < 100; ++round) {
    VmOffset addr = task->VmAllocateWithPager(kPage, object, 0).value();
    uint64_t out = 0;
    ASSERT_EQ(task->Read(addr, &out, sizeof(out)), KernReturn::kSuccess);
    ASSERT_EQ(task->VmDeallocate(addr, kPage), KernReturn::kSuccess);
  }
  EXPECT_LE(object.port()->Status().death_watches, 1u);
  task.reset();
}

}  // namespace
}  // namespace mach
