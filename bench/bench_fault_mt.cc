// E11 (§5.5 on a multiprocessor): fault-path scaling under the VM lock
// hierarchy, at 1/2/4/8 threads. Faults that share nothing should scale with
// the thread count; faults that genuinely share state are bounded by it.
//
//   * DisjointZeroFill: one task; each thread first-touches pages of its own
//     VmAllocate region, so each faults into its own VmObject. The threads
//     share the task's map and pmap and the systemwide queues and free list.
//   * TaskPerThreadZeroFill: the same with one task per thread, so not even
//     the map or the pmap is shared.
//   * ResidentHit: one task; each thread reads its own resident pages
//     through Pmap::Access — the simulated load with no fault behind it.
//   * SharedCow: copy-on-write pushes of distinct pages out of one inherited
//     object, whose lock is the shared resource.
//   * SharedRead: resident re-faults of the same pages of one object (each
//     iteration drops the translation first).
//
// The zero-fill arms cycle each thread's region — deallocate and reallocate
// it, untimed — so a long run never runs out of frames and every timed
// access is a real first-touch fault. Every row is repeated and reported as
// aggregates: read the _median rows.

#include <benchmark/benchmark.h>

#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/kernel/task.h"

namespace {

using namespace mach;

constexpr VmSize kPage = 4096;
constexpr int kMaxThreads = 8;
constexpr int kRepetitions = 5;
// Zero-fill arms: faults per thread per run, in regions of kRegionPages.
constexpr int kZeroFillIterations = 32768;
constexpr VmSize kRegionPages = 1024;
// Resident hits: accesses per thread per run, over kHitPages own pages.
constexpr int kHitIterations = 1 << 20;
constexpr VmSize kHitPages = 64;
// Shared arms: one fresh page per iteration, so the run length is the
// per-thread page budget.
constexpr int kSharedPagesPerThread = 2048;

std::unique_ptr<Kernel> MakeKernel(uint32_t frames) {
  Kernel::Config config;
  config.frames = frames;
  config.page_size = kPage;
  config.disk_latency = DiskLatencyModel{0, 0};
  return std::make_unique<Kernel>(config);
}

// Shared across the threads of one benchmark run. Thread 0 builds it before
// the loop and tears it down after; the other threads only touch it inside
// the loop, which starts and ends on a barrier across all threads.
struct MtState {
  std::unique_ptr<Kernel> kernel;
  std::shared_ptr<Task> task;
  std::shared_ptr<Task> child;
  std::array<std::shared_ptr<Task>, kMaxThreads> thread_tasks;
  VmOffset base = 0;
};
MtState g_mt;

// One thread's zero-fill loop: every iteration first-touches a fresh page of
// the thread's own region, in the shared task or in its own.
void ZeroFillLoop(benchmark::State& state, bool task_per_thread) {
  const VmSize span = kRegionPages * kPage;
  Task* task = nullptr;
  VmOffset base = 0;
  VmSize next = kRegionPages;  // Forces the first region to be allocated.
  uint8_t b = 1;
  for (auto _ : state) {
    if (next == kRegionPages) {
      state.PauseTiming();
      if (task == nullptr) {
        task = task_per_thread ? g_mt.thread_tasks[state.thread_index()].get() : g_mt.task.get();
      } else {
        task->VmDeallocate(base, span);
      }
      base = task->VmAllocate(span).value();
      next = 0;
      state.ResumeTiming();
    }
    task->Write(base + next * kPage, &b, 1);  // Allocate + zero + map.
    ++next;
  }
  state.SetItemsProcessed(state.iterations());
}

uint32_t ZeroFillFrames(int threads) {
  // Every thread's region plus slack, so reclaim never runs.
  return static_cast<uint32_t>(threads * kRegionPages + 1024);
}

void BM_FaultMtDisjointZeroFill(benchmark::State& state) {
  if (state.thread_index() == 0) {
    g_mt.kernel = MakeKernel(ZeroFillFrames(state.threads()));
    g_mt.task = g_mt.kernel->CreateTask();
  }
  ZeroFillLoop(state, /*task_per_thread=*/false);
  if (state.thread_index() == 0) {
    g_mt.task.reset();
    g_mt.kernel.reset();
  }
}

void BM_FaultMtTaskPerThreadZeroFill(benchmark::State& state) {
  if (state.thread_index() == 0) {
    g_mt.kernel = MakeKernel(ZeroFillFrames(state.threads()));
    for (int i = 0; i < state.threads(); ++i) {
      g_mt.thread_tasks[i] = g_mt.kernel->CreateTask();
    }
  }
  ZeroFillLoop(state, /*task_per_thread=*/true);
  if (state.thread_index() == 0) {
    for (std::shared_ptr<Task>& t : g_mt.thread_tasks) {
      t.reset();
    }
    g_mt.kernel.reset();
  }
}

// Resident hits in one task: each thread reads its own kHitPages pages,
// faulted in before the run, through the task's one pmap. No faults occur.
void BM_FaultMtResidentHit(benchmark::State& state) {
  const VmSize span = kHitPages * kPage;
  if (state.thread_index() == 0) {
    g_mt.kernel = MakeKernel(static_cast<uint32_t>(kMaxThreads * kHitPages + 1024));
    g_mt.task = g_mt.kernel->CreateTask();
    g_mt.base = g_mt.task->VmAllocate(VmSize{kMaxThreads} * span).value();
    std::vector<uint8_t> init(VmSize{kMaxThreads} * span, 0x5);
    g_mt.task->Write(g_mt.base, init.data(), init.size());
  }
  VmOffset base = 0;
  Pmap* pmap = nullptr;
  uint64_t v = 0;
  uint64_t faults = 0;
  VmSize p = 0;
  for (auto _ : state) {
    if (pmap == nullptr) {
      pmap = g_mt.task->vm_context().pmap.get();
      base = g_mt.base + static_cast<VmOffset>(state.thread_index()) * span;
    }
    if (pmap->Access(base + p * kPage, &v, sizeof(v), /*is_write=*/false).fault !=
        Pmap::FaultKind::kNone) {
      ++faults;
    }
    p = (p + 1) % kHitPages;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["faults"] = benchmark::Counter(static_cast<double>(faults));
  if (state.thread_index() == 0) {
    g_mt.task.reset();
    g_mt.kernel.reset();
  }
}

// Copy-on-write faults against one inherited object: every thread pushes
// private copies of distinct pages out of the same shadow chain, so the
// source object's lock is the shared resource.
void BM_FaultMtSharedCow(benchmark::State& state) {
  const VmSize region = VmSize{kSharedPagesPerThread} * kPage;
  if (state.thread_index() == 0) {
    g_mt.kernel = MakeKernel(2 * kMaxThreads * kSharedPagesPerThread + 1024);
    g_mt.task = g_mt.kernel->CreateTask();
    g_mt.base = g_mt.task->VmAllocate(VmSize{kMaxThreads} * region).value();
    std::vector<uint8_t> init(VmSize{kMaxThreads} * region, 0x7);
    g_mt.task->Write(g_mt.base, init.data(), init.size());
    g_mt.child = g_mt.kernel->CreateTask(g_mt.task);  // COW view of it all.
  }
  VmOffset next = 0;
  uint8_t b = 9;
  for (auto _ : state) {
    if (next == 0) {
      next = g_mt.base + static_cast<VmOffset>(state.thread_index()) * region;
    }
    g_mt.child->Write(next, &b, 1);  // Shadow-chain walk + page copy.
    next += kPage;
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    VmStatistics stats = g_mt.kernel->vm().Statistics();
    state.counters["cow_faults"] = static_cast<double>(stats.cow_faults);
    state.counters["spurious_wakeups"] = static_cast<double>(stats.spurious_page_wakeups);
    g_mt.child.reset();
    g_mt.task.reset();
    g_mt.kernel.reset();
  }
}

// Read faults through one region shared by every thread: threads fault the
// same pages of the same object, so resolution is all lookup — the sharded
// hash and per-object locks are what is being exercised.
void BM_FaultMtSharedRead(benchmark::State& state) {
  const VmSize region = VmSize{kSharedPagesPerThread} * kPage;
  if (state.thread_index() == 0) {
    g_mt.kernel = MakeKernel(2 * kSharedPagesPerThread + 1024);
    g_mt.task = g_mt.kernel->CreateTask();
    g_mt.base = g_mt.task->VmAllocate(region).value();
    std::vector<uint8_t> init(region, 0x5);
    g_mt.task->Write(g_mt.base, init.data(), init.size());
  }
  VmOffset next = 0;
  uint8_t b = 0;
  for (auto _ : state) {
    if (next == 0) {
      next = g_mt.base;
    }
    // Drop this page's translation, then touch: resident-page fault.
    VmOffset page = next;
    g_mt.task->vm_context().pmap->Remove(page, page + kPage);
    g_mt.task->Read(page, &b, 1);
    next += kPage;
    if (next == g_mt.base + region) {
      next = g_mt.base;
    }
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    VmStatistics stats = g_mt.kernel->vm().Statistics();
    state.counters["fast_faults"] = static_cast<double>(stats.fast_faults);
    g_mt.task.reset();
    g_mt.kernel.reset();
  }
}

}  // namespace

BENCHMARK(BM_FaultMtDisjointZeroFill)
    ->Iterations(kZeroFillIterations)
    ->ThreadRange(1, kMaxThreads)
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly()
    ->UseRealTime();
BENCHMARK(BM_FaultMtTaskPerThreadZeroFill)
    ->Iterations(kZeroFillIterations)
    ->ThreadRange(1, kMaxThreads)
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly()
    ->UseRealTime();
BENCHMARK(BM_FaultMtResidentHit)
    ->Iterations(kHitIterations)
    ->ThreadRange(1, kMaxThreads)
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly()
    ->UseRealTime();
BENCHMARK(BM_FaultMtSharedCow)
    ->Iterations(kSharedPagesPerThread)
    ->ThreadRange(1, kMaxThreads)
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly()
    ->UseRealTime();
BENCHMARK(BM_FaultMtSharedRead)
    ->Iterations(kSharedPagesPerThread)
    ->ThreadRange(1, kMaxThreads)
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly()
    ->UseRealTime();

int main(int argc, char** argv) {
  // Scaling numbers from a single-CPU host are not scaling numbers: every
  // "concurrent" thread is time-sliced, so 2/4/8-thread rows measure the
  // scheduler, not the lock hierarchy. Flag such runs loudly in both the
  // human-readable stream and the JSON context so a reader (or a tooling
  // diff) can discount them.
  const unsigned cpus = std::thread::hardware_concurrency();
  benchmark::AddCustomContext("single_cpu_host", cpus <= 1 ? "true" : "false");
  benchmark::AddCustomContext("host_cpus", std::to_string(cpus));
  if (cpus <= 1) {
    fprintf(stderr,
            "*** WARNING: single-CPU host detected (hardware_concurrency=%u).\n"
            "*** Multi-threaded rows below measure time-slicing, not parallel\n"
            "*** scaling; treat every thread-count > 1 result as invalid.\n",
            cpus);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
