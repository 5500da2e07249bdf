// Fork-chain depth sweep: the cost of copy-on-write shadow chains with and
// without shadow-chain collapse (DESIGN deviation 3, now implemented). The
// off arm declines every collapse attempt at the vm.collapse fault point.
//
// Each generation forks from the previous one, writes one page (forcing a
// shadow object), and dies. Without collapse the survivor sits on a chain of
// `depth` shadow objects: every fault walks the whole chain and every dead
// generation's pages stay resident. With collapse the dying parents are
// spliced out as their references drop, so both fault latency and resident
// memory are O(1) in depth.
//
// Args: {depth, collapse? 0/1}. Counters: chain_len (survivor's actual chain
// length), resident (active+inactive pages), collapses, migrated.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>

#include "src/base/fault_injector.h"
#include "src/kernel/kernel.h"
#include "src/kernel/task.h"

namespace {

using namespace mach;

constexpr VmSize kPage = 4096;
constexpr VmSize kChainPages = 16;  // Pages in the inherited region.

// `no_collapse` must outlive the kernel; it is armed only for the off arm.
std::unique_ptr<Kernel> MakeKernel(bool collapse, FaultInjector& no_collapse) {
  if (!collapse) {
    no_collapse.SetEveryNth(VmSystem::kFaultCollapse, 1);
  }
  Kernel::Config config;
  config.frames = 8192;  // Roomy: reclaim must not pollute the numbers.
  config.page_size = kPage;
  config.disk_latency = DiskLatencyModel{0, 0};
  config.fault_injector = &no_collapse;
  return std::make_unique<Kernel>(config);
}

// Builds a fork chain `depth` generations deep over a kChainPages region and
// returns the sole survivor. Each generation writes one word to a page other
// than page 0 — enough to force a private shadow — then its parent dies, so
// page 0 is only ever resolvable from gen0's object at the chain's bottom.
std::shared_ptr<Task> BuildChain(Kernel& kernel, int64_t depth, VmOffset* base) {
  auto task = kernel.CreateTask(nullptr, "gen0");
  *base = task->VmAllocate(kChainPages * kPage).value();
  for (VmOffset p = 0; p < kChainPages; ++p) {
    task->WriteValue<uint64_t>(*base + p * kPage, p + 1);
  }
  for (int64_t g = 1; g <= depth; ++g) {
    auto child = kernel.CreateTask(task, "gen");
    child->WriteValue<uint64_t>(*base + (1 + g % (kChainPages - 1)) * kPage, 1000 + g);
    task = child;  // The previous generation dies here.
  }
  return task;
}

// Fault latency through the survivor's chain. VmRead resolves the page
// through the object layer on every call (no pmap caching), so each
// iteration pays exactly one ResolvePage walk.
void BM_ForkChainReadFault(benchmark::State& state) {
  const int64_t depth = state.range(0);
  const bool collapse = state.range(1) != 0;
  FaultInjector no_collapse;
  auto kernel = MakeKernel(collapse, no_collapse);
  VmOffset base = 0;
  auto task = BuildChain(*kernel, depth, &base);
  uint64_t v = 0;
  size_t i = 0;
  for (auto _ : state) {
    // Page 0 was written only by gen0: without collapse it sits at the very
    // bottom of the chain, the worst-case walk.
    task->VmRead(base, &v, sizeof(v));
    benchmark::DoNotOptimize(v);
    ++i;
  }
  VmStatistics st = kernel->vm().Statistics();
  state.counters["chain_len"] =
      static_cast<double>(kernel->vm().ShadowChainLength(task->vm_context(), base));
  state.counters["resident"] = static_cast<double>(st.active_count + st.inactive_count);
  state.counters["collapses"] = static_cast<double>(st.shadow_collapses + st.shadow_bypasses);
  state.counters["migrated"] = static_cast<double>(st.pages_migrated);
  state.SetItemsProcessed(static_cast<int64_t>(i));
  task.reset();
}
BENCHMARK(BM_ForkChainReadFault)
    ->ArgsProduct({{1, 4, 16, 64}, {0, 1}})
    ->ArgNames({"depth", "collapse"})
    ->Unit(benchmark::kMicrosecond);

// Chain construction + teardown: what fork/exit churn costs end to end,
// including the collapse work itself.
void BM_ForkChainBuild(benchmark::State& state) {
  const int64_t depth = state.range(0);
  const bool collapse = state.range(1) != 0;
  FaultInjector no_collapse;
  auto kernel = MakeKernel(collapse, no_collapse);
  for (auto _ : state) {
    VmOffset base = 0;
    auto task = BuildChain(*kernel, depth, &base);
    task.reset();
  }
  VmStatistics st = kernel->vm().Statistics();
  state.counters["collapses"] = static_cast<double>(st.shadow_collapses + st.shadow_bypasses);
  state.counters["migrated"] = static_cast<double>(st.pages_migrated);
  state.counters["resident"] = static_cast<double>(st.active_count + st.inactive_count);
  state.SetItemsProcessed(state.iterations() * depth);
  state.SetLabel(collapse ? "collapse" : "no-collapse");
}
BENCHMARK(BM_ForkChainBuild)
    ->ArgsProduct({{1, 4, 16, 64}, {0, 1}})
    ->ArgNames({"depth", "collapse"})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
