// Multi-threaded VM stress tests for the fault-path lock hierarchy: many
// threads fault the same inherited-copy region while the pageout daemon
// reclaims under memory pressure and the backing data manager dies with
// requests in flight (§5.5, §6.2.1). The assertions are about *content*,
// not timing: every page a thread wrote must read back exactly as written
// (a single-threaded oracle model of the workload), pages never written
// must be whole (pager pattern or the §6.2.1 zero-fill, never torn), and
// teardown must drain every frame back to the free pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/kernel/task.h"
#include "src/pager/data_manager.h"

namespace mach {
namespace {

constexpr VmSize kPage = 4096;
constexpr int kThreads = 8;
constexpr int kPagesPerThread = 24;
constexpr int kWrittenPages = kThreads * kPagesPerThread;
constexpr int kReadPages = 16;  // Shared read-only tail, never written.
constexpr int kRegionPages = kWrittenPages + kReadPages;
constexpr uint8_t kPagerFill = 0x5A;

// Serves every page filled with kPagerFill until told to go silent (the
// errant manager of §6.1); silence leaves faulting threads parked on their
// busy placeholders so a subsequent port death hits them mid-fault.
class StampPager : public DataManager {
 public:
  StampPager() : DataManager("stamp-pager") {}

  std::atomic<bool> silent{false};

  SendRight NewObject() { return CreateMemoryObject(1); }

 protected:
  void OnDataRequest(uint64_t id, uint64_t cookie, PagerDataRequestArgs args) override {
    if (silent.load()) {
      return;
    }
    std::vector<std::byte> data(args.length, std::byte{kPagerFill});
    ProvideData(args.pager_request_port, args.offset, std::move(data), kVmProtNone);
  }
};

std::unique_ptr<Kernel> MakeKernel(uint32_t frames) {
  Kernel::Config config;
  config.frames = frames;
  config.page_size = kPage;
  config.disk_latency = DiskLatencyModel{0, 0};
  // Blocked faults must survive the manager's death: settle by zero-fill
  // rather than error, and do not wait long for a manager that is gone.
  config.vm.on_pager_timeout = VmSystem::Config::OnPagerTimeout::kZeroFill;
  config.vm.pager_timeout = std::chrono::milliseconds(2000);
  return std::make_unique<Kernel>(config);
}

uint8_t StampFor(int thread) { return static_cast<uint8_t>(0x10 + thread); }

// Polls the free-frame count back up to (near) `floor`: no stuck busy
// pages, no leaked placeholder frames, no pinned stragglers.
void ExpectTeardownToBaseline(Kernel& kernel, uint64_t floor) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  uint64_t free = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    free = kernel.phys().free_frames();
    if (free + 4 >= floor) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(free + 4, floor) << "frames leaked after teardown";
}

// The headline stress: eight threads push copy-on-write pages out of one
// pager-backed region inherited by a child task, with only enough physical
// memory for a fraction of the working set (so reclaim runs throughout)
// and a manager that goes silent and then dies halfway through.
TEST(VmConcurrentTest, InheritedCowStormWithReclaimAndPagerDeath) {
  auto kernel = MakeKernel(128);  // << 208-page working set: reclaim runs.
  const uint64_t free_baseline = kernel->phys().free_frames();

  StampPager pager;
  pager.Start();
  SendRight object = pager.NewObject();

  auto parent = kernel->CreateTask(nullptr, "cow-parent");
  const VmOffset base =
      parent->VmAllocateWithPager(VmSize{kRegionPages} * kPage, object, 0).value();

  // Prime a few pages so the inherited chain has resident state to copy.
  uint8_t probe = 0;
  ASSERT_EQ(parent->Read(base, &probe, 1), KernReturn::kSuccess);
  EXPECT_EQ(probe, kPagerFill);

  auto child = kernel->CreateTask(parent, "cow-child");

  std::atomic<int> pages_done{0};
  std::atomic<bool> pager_killed{false};
  std::atomic<int> read_errors{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<uint8_t> page(kPage, StampFor(t));
      std::vector<uint8_t> back(kPage);
      for (int p = 0; p < kPagesPerThread; ++p) {
        const VmOffset addr = base + static_cast<VmSize>(t * kPagesPerThread + p) * kPage;
        if (child->Write(addr, page.data(), page.size()) != KernReturn::kSuccess) {
          ++read_errors;
          continue;
        }
        // Interleave reads of the shared, never-written tail: these fault
        // against the pager (or its corpse) and must come back whole.
        const VmOffset shared =
            base + static_cast<VmSize>(kWrittenPages + (p % kReadPages)) * kPage;
        if (child->Read(shared, back.data(), back.size()) == KernReturn::kSuccess) {
          if (back[0] != kPagerFill && back[0] != 0) {
            ++read_errors;
          }
        }
        // Halfway through the aggregate workload: the manager stops
        // answering, then its object port dies with requests in flight.
        if (pages_done.fetch_add(1) + 1 == kWrittenPages / 2 &&
            !pager_killed.exchange(true)) {
          pager.silent = true;
          pager.DestroyMemoryObject(object);
        }
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_EQ(read_errors.load(), 0);

  // Single-threaded oracle pass: every page a thread wrote reads back as
  // one solid stamp — reclaim cycles through the default pager and the
  // mid-run manager death must not have torn or dropped any of them.
  std::vector<uint8_t> got(kPage);
  for (int t = 0; t < kThreads; ++t) {
    for (int p = 0; p < kPagesPerThread; ++p) {
      const VmOffset addr = base + static_cast<VmSize>(t * kPagesPerThread + p) * kPage;
      ASSERT_EQ(child->Read(addr, got.data(), got.size()), KernReturn::kSuccess)
          << "thread " << t << " page " << p;
      const uint8_t want = StampFor(t);
      for (int i = 0; i < static_cast<int>(kPage); ++i) {
        ASSERT_EQ(got[i], want) << "thread " << t << " page " << p << " byte " << i;
      }
    }
  }
  // Never-written pages are uniform: pager pattern, or zero if their fill
  // was settled by the death / zero-fill policy. Anything mixed is a torn
  // page escaping the busy protocol.
  for (int p = 0; p < kReadPages; ++p) {
    const VmOffset addr = base + static_cast<VmSize>(kWrittenPages + p) * kPage;
    ASSERT_EQ(child->Read(addr, got.data(), got.size()), KernReturn::kSuccess);
    EXPECT_TRUE(got[0] == kPagerFill || got[0] == 0) << "page " << p;
    for (int i = 1; i < static_cast<int>(kPage); ++i) {
      ASSERT_EQ(got[i], got[0]) << "torn shared page " << p << " byte " << i;
    }
  }

  // Writes before the death are COW pushes out of the pager-backed chain;
  // after it, the zero-fill conversion means fresh pages come up directly
  // in the child, so only a prefix of the workload counts as cow_faults.
  VmStatistics stats = kernel->vm().Statistics();
  EXPECT_GT(stats.cow_faults, 0u);
  EXPECT_GT(stats.pageouts + stats.parked_pageouts, 0u) << "no reclaim ran";

  child.reset();
  parent.reset();
  object = SendRight();
  ExpectTeardownToBaseline(*kernel, free_baseline);
  pager.Stop();
}

// Disjoint anonymous regions of one map faulted from eight threads: these
// only share the address map (taken shared) and the page queues, so every
// fault must complete and none may observe another thread's stamps.
TEST(VmConcurrentTest, DisjointZeroFillFaultsAreIndependent) {
  auto kernel = MakeKernel(512);
  const uint64_t free_baseline = kernel->phys().free_frames();
  auto task = kernel->CreateTask(nullptr, "disjoint");
  const VmOffset base =
      task->VmAllocate(VmSize{kThreads} * kPagesPerThread * kPage).value();

  std::vector<std::thread> workers;
  std::atomic<int> errors{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<uint8_t> page(kPage, StampFor(t));
      const VmOffset mine = base + static_cast<VmSize>(t) * kPagesPerThread * kPage;
      for (int p = 0; p < kPagesPerThread; ++p) {
        if (task->Write(mine + static_cast<VmSize>(p) * kPage, page.data(), page.size()) !=
            KernReturn::kSuccess) {
          ++errors;
        }
      }
      // Immediately read back the whole slice: zero-fill + write must be
      // atomic under the busy protocol even with 7 sibling faulters.
      std::vector<uint8_t> got(kPage);
      for (int p = 0; p < kPagesPerThread; ++p) {
        if (task->Read(mine + static_cast<VmSize>(p) * kPage, got.data(), got.size()) !=
                KernReturn::kSuccess ||
            got != page) {
          ++errors;
        }
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_EQ(errors.load(), 0);

  VmStatistics stats = kernel->vm().Statistics();
  EXPECT_GE(stats.zero_fill_count, static_cast<uint64_t>(kWrittenPages));

  task.reset();
  ExpectTeardownToBaseline(*kernel, free_baseline);
}

// Remembers writes and serves them back, so evicted pages survive the
// round trip — the oracle below depends on it.
class EchoStorePager : public DataManager {
 public:
  EchoStorePager() : DataManager("echo-store") {}
  SendRight NewObject() { return CreateMemoryObject(1); }

 protected:
  void OnDataRequest(uint64_t id, uint64_t cookie, PagerDataRequestArgs args) override {
    std::lock_guard<std::mutex> g(mu_);
    for (VmOffset off = args.offset; off < args.offset + args.length; off += kPage) {
      auto it = store_.find(off);
      if (it == store_.end()) {
        DataUnavailable(args.pager_request_port, off, kPage);
      } else {
        ProvideData(args.pager_request_port, off, it->second, kVmProtNone);
      }
    }
  }
  void OnDataWrite(uint64_t id, uint64_t cookie, PagerDataWriteArgs args) override {
    std::lock_guard<std::mutex> g(mu_);
    for (VmOffset delta = 0; delta + kPage <= args.data.size(); delta += kPage) {
      store_[args.offset + delta] = std::vector<std::byte>(
          args.data.begin() + delta, args.data.begin() + delta + kPage);
    }
  }

 private:
  std::mutex mu_;
  std::map<VmOffset, std::vector<std::byte>> store_;
};

TEST(VmConcurrentTest, ClusteredPageoutRacesFaultsOnOneObject) {
  // Clustered write-back walks an object's page list claiming contiguous
  // dirty neighbours — pages other threads dirtied and are about to fault
  // back in. Threads own interleaved stripes (thread t owns pages where
  // p % kThreads == t), so every run the clusterer builds spans pages
  // belonging to all eight threads while those threads concurrently
  // re-fault and re-dirty them. The assertions are content-only: after the
  // storm, each page holds exactly its owner's final sweep value.
  constexpr int kSweeps = 6;
  auto kernel = MakeKernel(96);  // << 192-page region: eviction throughout.
  const uint64_t free_baseline = kernel->phys().free_frames();
  EchoStorePager pager;
  pager.Start();
  SendRight object = pager.NewObject();
  auto task = kernel->CreateTask(nullptr, "cluster-race");
  const VmOffset base =
      task->VmAllocateWithPager(VmSize{kWrittenPages} * kPage, object, 0).value();

  auto value_for = [](int t, int p, int sweep) {
    return (static_cast<uint64_t>(0xA0 + t) << 48) |
           (static_cast<uint64_t>(sweep) << 32) | static_cast<uint64_t>(p);
  };
  std::vector<std::thread> workers;
  std::atomic<int> errors{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int sweep = 0; sweep < kSweeps; ++sweep) {
        for (int p = t; p < kWrittenPages; p += kThreads) {
          const VmOffset addr = base + static_cast<VmSize>(p) * kPage;
          if (task->WriteValue<uint64_t>(addr, value_for(t, p, sweep)) !=
              KernReturn::kSuccess) {
            ++errors;
            continue;
          }
          // Read back a neighbour from the *previous* sweep: it may be
          // mid-flight inside a clustered run right now, and must still
          // read as one whole write, never torn or rolled back.
          if (sweep > 0) {
            const int q = (p + kThreads) % kWrittenPages;
            auto got = task->ReadValue<uint64_t>(base + static_cast<VmSize>(q) * kPage);
            if (got.ok() && got.value() != 0 &&
                (got.value() & 0xFFFFFFFFull) != static_cast<uint64_t>(q)) {
              ++errors;
            }
          }
        }
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_EQ(errors.load(), 0);

  // Oracle: the final sweep's value, for every page, through whatever
  // evict/re-fault history the clusterer gave it.
  for (int p = 0; p < kWrittenPages; ++p) {
    auto got = task->ReadValue<uint64_t>(base + static_cast<VmSize>(p) * kPage);
    ASSERT_TRUE(got.ok()) << "page " << p;
    ASSERT_EQ(got.value(), value_for(p % kThreads, p, kSweeps - 1)) << "page " << p;
  }

  VmStatistics stats = kernel->vm().Statistics();
  EXPECT_GT(stats.pageouts, 0u) << "no eviction pressure: the race never ran";
  EXPECT_GT(stats.pageout_runs, 0u);
  EXPECT_GE(stats.pageout_run_pages, stats.pageout_runs);

  task.reset();
  object = SendRight();
  ExpectTeardownToBaseline(*kernel, free_baseline);
  pager.Stop();
}

TEST(VmConcurrentTest, FaultAheadScanRacesClusteredPageout) {
  // A sequential scanner keeps multi-page fault-ahead runs in flight —
  // pinned busy+absent placeholders scattered through the object — while
  // writer threads dirty interleaved pages of the same object and memory
  // pressure drives the clustered write-back over the same page list. The
  // clusterer must leave the pinned speculative placeholders alone, the
  // scanner's sweep must free exactly the unanswered ones, and the final
  // content oracle must hold through every evict/re-fault interleaving.
  constexpr int kScanPages = 96;
  constexpr int kWriters = 4;
  constexpr int kRounds = 4;
  auto kernel = MakeKernel(64);  // << 96-page region: reclaim runs constantly.
  const uint64_t free_baseline = kernel->phys().free_frames();
  EchoStorePager pager;
  pager.Start();
  SendRight object = pager.NewObject();
  auto task = kernel->CreateTask(nullptr, "fault-ahead-race");
  const VmOffset base =
      task->VmAllocateWithPager(VmSize{kScanPages} * kPage, object, 0).value();

  // Writer t owns pages where p % (2 * kWriters) == 2t + 1; even pages are
  // read-only (they settle as zero fill — the store starts empty).
  auto value_for = [](int t, int p, int round) {
    return (static_cast<uint64_t>(0xB0 + t) << 48) |
           (static_cast<uint64_t>(round) << 32) | static_cast<uint64_t>(p);
  };
  std::vector<std::thread> workers;
  std::atomic<int> errors{0};
  workers.emplace_back([&] {  // The scanner.
    for (int round = 0; round < kRounds; ++round) {
      for (int p = 0; p < kScanPages; ++p) {
        auto got = task->ReadValue<uint64_t>(base + static_cast<VmSize>(p) * kPage);
        if (!got.ok()) {
          ++errors;
          continue;
        }
        // Every observable value is either the zero fill or some writer's
        // whole 8-byte stamp for exactly this page — never torn.
        if (got.value() != 0 &&
            (got.value() & 0xFFFFFFFFull) != static_cast<uint64_t>(p)) {
          ++errors;
        }
      }
    }
  });
  for (int t = 0; t < kWriters; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (int p = 2 * t + 1; p < kScanPages; p += 2 * kWriters) {
          if (task->WriteValue<uint64_t>(base + static_cast<VmSize>(p) * kPage,
                                         value_for(t, p, round)) != KernReturn::kSuccess) {
            ++errors;
          }
        }
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_EQ(errors.load(), 0);

  // Oracle: every written page holds its owner's final-round value; every
  // read-only page is still the zero fill.
  for (int p = 0; p < kScanPages; ++p) {
    auto got = task->ReadValue<uint64_t>(base + static_cast<VmSize>(p) * kPage);
    ASSERT_TRUE(got.ok()) << "page " << p;
    if (p % 2 == 1) {
      const int owner = (p % (2 * kWriters)) / 2;
      ASSERT_EQ(got.value(), value_for(owner, p, kRounds - 1)) << "page " << p;
    } else {
      ASSERT_EQ(got.value(), 0u) << "page " << p;
    }
  }

  VmStatistics stats = kernel->vm().Statistics();
  EXPECT_GT(stats.fault_ahead_requests, 0u) << "the scan never batched a read";
  EXPECT_GT(stats.pageouts, 0u) << "no eviction pressure: the race never ran";
  EXPECT_GT(stats.pageout_runs, 0u);

  task.reset();
  object = SendRight();
  ExpectTeardownToBaseline(*kernel, free_baseline);
  pager.Stop();
}

TEST(VmConcurrentTest, OptimisticLookupSurvivesRegionChurn) {
  // Readers hammer the lock-free (seqlock) map lookup on a stable resident
  // region while churn threads mutate the map (vm_allocate/vm_deallocate of
  // scratch regions) as fast as they can. Every read must see the stable
  // pattern — a reader that resolves through a stale snapshot without
  // detecting the generation change would install a translation for a
  // deallocated or re-protected entry. A periodic kernel-mediated read
  // (ReadMemory, which never consults the pmap) is the oracle.
  auto kernel = MakeKernel(512);
  const uint64_t free_baseline = kernel->phys().free_frames();
  auto task = kernel->CreateTask(nullptr, "churn");

  constexpr int kStablePages = 32;
  constexpr int kReaders = 4;
  constexpr int kChurners = 2;
  const VmOffset base = task->VmAllocate(VmSize{kStablePages} * kPage).value();
  std::vector<uint8_t> pattern(kPage);
  for (int p = 0; p < kStablePages; ++p) {
    std::fill(pattern.begin(), pattern.end(), static_cast<uint8_t>(0x30 + p));
    ASSERT_EQ(task->Write(base + static_cast<VmSize>(p) * kPage, pattern.data(), kPage),
              KernReturn::kSuccess);
  }

  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kReaders; ++t) {
    workers.emplace_back([&, t] {
      std::vector<uint8_t> got(kPage);
      int iter = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        int p = (t * 7 + iter) % kStablePages;
        VmOffset addr = base + static_cast<VmSize>(p) * kPage;
        // Drop the translation so the access is a real re-fault through
        // the optimistic tier, not a pmap hit.
        task->vm_context().pmap->Remove(addr, addr + kPage);
        if (task->Read(addr, got.data(), kPage) != KernReturn::kSuccess ||
            got[0] != static_cast<uint8_t>(0x30 + p) ||
            got[kPage - 1] != static_cast<uint8_t>(0x30 + p)) {
          ++mismatches;
        }
        if (++iter % 64 == 0) {
          // Oracle: the object layer's view, resolved without the pmap.
          if (kernel->vm().ReadMemory(task->vm_context(), addr, got.data(), kPage) !=
                  KernReturn::kSuccess ||
              got[0] != static_cast<uint8_t>(0x30 + p)) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (int t = 0; t < kChurners; ++t) {
    workers.emplace_back([&, t] {
      std::vector<uint8_t> junk(kPage, static_cast<uint8_t>(0xC0 + t));
      while (!stop.load(std::memory_order_relaxed)) {
        Result<VmOffset> scratch = task->VmAllocate(4 * kPage);
        if (!scratch.ok()) {
          continue;
        }
        for (int p = 0; p < 4; ++p) {
          task->Write(scratch.value() + static_cast<VmSize>(p) * kPage, junk.data(), kPage);
        }
        task->VmDeallocate(scratch.value(), 4 * kPage);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  stop.store(true);
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_EQ(mismatches.load(), 0);

  VmStatistics stats = kernel->vm().Statistics();
  // The fast path must have actually run (and the churn must have actually
  // raced it at least occasionally on a multi-core host; retries may be 0
  // on a single CPU, so only the positive counter is asserted).
  EXPECT_GT(stats.map_lookups_optimistic, 0u);

  task.reset();
  ExpectTeardownToBaseline(*kernel, free_baseline);
}

// Never answers a request itself: the tests below send its Table 3-6 calls
// from threads of their own, with the request port pager_init brought.
class PassivePager : public DataManager {
 public:
  PassivePager() : DataManager("passive-pager") {}
  SendRight NewObject() { return CreateMemoryObject(1); }

  SendRight WaitForRequestPort() {
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    for (;;) {
      {
        std::lock_guard<std::mutex> g(mu_);
        if (request_.valid() || std::chrono::steady_clock::now() > deadline) {
          return request_;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

 protected:
  void OnInit(uint64_t, uint64_t, PagerInitArgs args) override {
    std::lock_guard<std::mutex> g(mu_);
    request_ = args.pager_request_port;
  }
  void OnDataRequest(uint64_t, uint64_t, PagerDataRequestArgs) override {}

 private:
  std::mutex mu_;
  SendRight request_;
};

TEST(VmConcurrentTest, ConcurrentProvidersOfOverlappingRuns) {
  // A manager's calls run in the threads that send them, so two threads
  // providing one object now race inside the kernel — the pager service
  // thread used to serialise them. Two providers sweep overlapping runs
  // over the object while readers fault every page and then mark it. Each
  // read must carry the manager's stamp; a provision of a resident page
  // must be ignored, so the marks survive the later sweeps and every page
  // is paged in exactly once.
  constexpr int kPages = 64;
  constexpr int kRun = 8;
  constexpr int kReaders = 4;
  auto kernel = MakeKernel(256);  // No memory pressure: nothing pages out.
  const uint64_t free_baseline = kernel->phys().free_frames();
  PassivePager pager;
  pager.Start();
  SendRight object = pager.NewObject();
  auto task = kernel->CreateTask(nullptr, "provide-race");
  const VmOffset base = task->VmAllocateWithPager(VmSize{kPages} * kPage, object, 0).value();
  SendRight request = pager.WaitForRequestPort();
  ASSERT_TRUE(request.valid());
  const uint64_t pageins_before = kernel->vm().Statistics().pageins;

  auto stamp = [](VmOffset off) { return 0x57A4000000000000ull + off; };
  std::atomic<bool> stop{false};
  std::atomic<int> sweeps{0};
  std::vector<std::thread> providers;
  for (int t = 0; t < 2; ++t) {
    providers.emplace_back([&, t] {
      // The second provider's runs straddle the first's.
      const VmOffset shift = VmOffset{static_cast<uint64_t>(t)} * (kRun / 2) * kPage;
      const VmSize end = VmSize{kPages} * kPage;
      while (!stop.load()) {
        for (VmOffset start = shift; start < end; start += VmSize{kRun} * kPage) {
          std::vector<std::byte> run(std::min<VmSize>(VmSize{kRun} * kPage, end - start));
          for (VmOffset off = 0; off < run.size(); off += kPage) {
            uint64_t word = stamp(start + off);
            std::memcpy(run.data() + off, &word, sizeof(word));
          }
          DataManager::ProvideData(request, start, std::move(run), kVmProtNone);
        }
        sweeps.fetch_add(1);
      }
    });
  }
  std::atomic<int> errors{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      for (int i = 0; i < kPages; ++i) {
        const int p = (i + r * (kPages / kReaders)) % kPages;
        const VmOffset addr = base + static_cast<VmSize>(p) * kPage;
        auto got = task->ReadValue<uint64_t>(addr);
        if (!got.ok() || got.value() != stamp(static_cast<VmOffset>(p) * kPage)) {
          ++errors;
        }
        if (task->WriteValue<uint64_t>(addr + 8 * (r + 1), 0xAA00 + r) != KernReturn::kSuccess) {
          ++errors;
        }
      }
    });
  }
  for (auto& r : readers) {
    r.join();
  }
  // Later sweeps land on resident, marked pages.
  const int sweeps_after_reads = sweeps.load();
  while (sweeps.load() < sweeps_after_reads + 4) {
    std::this_thread::yield();
  }
  stop.store(true);
  for (auto& t : providers) {
    t.join();
  }
  EXPECT_EQ(errors.load(), 0);
  for (int p = 0; p < kPages; ++p) {
    const VmOffset addr = base + static_cast<VmSize>(p) * kPage;
    ASSERT_EQ(task->ReadValue<uint64_t>(addr).value(), stamp(static_cast<VmOffset>(p) * kPage));
    for (int r = 0; r < kReaders; ++r) {
      ASSERT_EQ(task->ReadValue<uint64_t>(addr + 8 * (r + 1)).value(), 0xAA00u + r)
          << "page " << p << " lost reader " << r << "'s mark to a duplicate provision";
    }
  }
  EXPECT_EQ(kernel->vm().Statistics().pageins - pageins_before, static_cast<uint64_t>(kPages));

  task.reset();
  object = SendRight();
  request = SendRight();
  ExpectTeardownToBaseline(*kernel, free_baseline);
  pager.Stop();
}

TEST(VmConcurrentTest, KernelTeardownRacesManagerProvides) {
  // A manager call runs in the manager's thread right up to the kernel's
  // destruction. The lifetime guard must make a send racing ~VmSystem
  // either finish before it or decline (and then fail once the request port
  // dies with its object) — never run against a dead kernel.
  auto kernel = MakeKernel(64);
  PassivePager pager;
  pager.Start();
  SendRight object = pager.NewObject();
  auto task = kernel->CreateTask(nullptr, "teardown");
  ASSERT_TRUE(task->VmAllocateWithPager(8 * kPage, object, 0).ok());
  SendRight request = pager.WaitForRequestPort();
  ASSERT_TRUE(request.valid());
  // A cached object keeps its request port alive until the kernel dies.
  ASSERT_EQ(DataManager::SetCaching(request, true), KernReturn::kSuccess);
  task.reset();

  std::atomic<bool> stop{false};
  std::atomic<int> served{0};
  std::atomic<int> failed{0};
  std::atomic<int> other{0};
  std::thread sender([&] {
    std::vector<std::byte> data(kPage, std::byte{0x42});
    for (VmOffset off = 0; !stop.load(); off = (off + kPage) % (8 * kPage)) {
      KernReturn kr = DataManager::ProvideData(request, off, data, kVmProtNone);
      if (kr == KernReturn::kSuccess) {
        ++served;
      } else if (kr == KernReturn::kPortDead) {
        ++failed;
      } else {
        ++other;
      }
    }
  });
  while (served.load() < 100) {
    std::this_thread::yield();
  }
  kernel.reset();
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (failed.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  sender.join();
  EXPECT_GT(failed.load(), 0) << "the request port outlived its kernel";
  EXPECT_EQ(other.load(), 0);
  pager.Stop();
}

TEST(VmConcurrentTest, PageProtectNeverReachesADeadTasksPmap) {
  // A manager's pager_data_lock lowers every mapping of a page: it copies
  // the frame's pv list under the frame lock and lowers each listed pmap
  // after dropping it. A task mapping the page can die in that gap — its
  // vm_deallocate withdraws the mapping, then ~Pmap frees the pmap — while
  // another task's mapping keeps the object, so no termination waits on
  // the object lock. The walk must never reach the freed pmap (under ASan
  // it would be reported as a heap use-after-free).
  auto kernel = MakeKernel(64);
  PassivePager pager;
  pager.Start();
  SendRight object = pager.NewObject();
  auto keeper = kernel->CreateTask(nullptr, "keeper");
  VmOffset kept = keeper->VmAllocateWithPager(kPage, object, 0).value();
  SendRight request = pager.WaitForRequestPort();
  ASSERT_TRUE(request.valid());
  std::vector<std::byte> data(kPage, std::byte{0x33});
  ASSERT_EQ(DataManager::ProvideData(request, 0, data, kVmProtNone), KernReturn::kSuccess);
  ASSERT_EQ(keeper->ReadValue<uint8_t>(kept).value(), 0x33);

  std::atomic<bool> stop{false};
  std::atomic<int> locks{0};
  std::thread manager([&] {
    while (!stop.load()) {
      DataManager::LockData(request, 0, kPage, kVmProtWrite);
      DataManager::LockData(request, 0, kPage, kVmProtNone);
      locks.fetch_add(2);
    }
  });
  for (int round = 0; round < 30000; ++round) {
    auto task = kernel->CreateTask(nullptr, "mortal");
    VmOffset addr = task->VmAllocateWithPager(kPage, object, 0).value();
    ASSERT_EQ(task->ReadValue<uint8_t>(addr).value(), 0x33) << "round " << round;
  }
  stop.store(true);
  manager.join();
  EXPECT_GT(locks.load(), 0);
  EXPECT_EQ(keeper->ReadValue<uint8_t>(kept).value(), 0x33);
  keeper.reset();
  pager.Stop();
}

}  // namespace
}  // namespace mach
