// E4 (§5.5): the cost structure of the fault handler. Each benchmark
// isolates one fault flavour:
//   resident revalidation < zero-fill < COW copy < external-pager fetch,
// with the external fetch dominated by the two messages it implies.
//
// The failure-path benchmarks at the bottom drive the fault-injection
// harness and report its counters (faults injected, retransmits, manager
// deaths recovered, pages zero-filled) as benchmark counters.

#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>
#include <thread>

#include "src/base/fault_injector.h"
#include "src/kernel/kernel.h"
#include "src/kernel/task.h"
#include "src/net/net_link.h"
#include "src/pager/data_manager.h"

namespace {

using namespace mach;

constexpr VmSize kPage = 4096;

std::unique_ptr<Kernel> MakeKernel(uint32_t frames = 8192) {
  Kernel::Config config;
  config.frames = frames;  // Large: reclaim must not pollute the numbers.
  config.page_size = kPage;
  config.disk_latency = DiskLatencyModel{0, 0};
  return std::make_unique<Kernel>(config);
}

// An immediate-answer pager for the fetch benchmark.
class InstantPager : public DataManager {
 public:
  InstantPager() : DataManager("instant") {}
  SendRight NewObject() { return CreateMemoryObject(1); }

 protected:
  void OnDataRequest(uint64_t id, uint64_t cookie, PagerDataRequestArgs args) override {
    std::vector<std::byte> data(args.length, std::byte{0x11});
    ProvideData(args.pager_request_port, args.offset, std::move(data), kVmProtNone);
  }
};

// Zero-fill fault: first touch of anonymous memory.
void BM_ZeroFillFault(benchmark::State& state) {
  auto kernel = MakeKernel();
  auto task = kernel->CreateTask();
  const VmSize chunk = 512 * kPage;
  VmOffset addr = 0;
  VmOffset next = 0;
  VmSize used = chunk;
  uint8_t b = 1;
  for (auto _ : state) {
    if (used == chunk) {
      if (addr != 0) {
        state.PauseTiming();
        task->VmDeallocate(addr, chunk);  // Frames return; no paging noise.
        state.ResumeTiming();
      }
      addr = task->VmAllocate(chunk).value();
      next = addr;
      used = 0;
    }
    task->Write(next, &b, 1);  // One fresh page: allocate + zero + map.
    next += kPage;
    used += kPage;
  }
  state.SetItemsProcessed(state.iterations());
  task.reset();
}

// Resident revalidation: the page is resident but the hardware mapping was
// lowered (protection change), so the fault only re-enters the pmap.
void BM_ResidentRevalidation(benchmark::State& state) {
  auto kernel = MakeKernel();
  auto task = kernel->CreateTask();
  VmOffset addr = task->VmAllocate(kPage).value();
  uint8_t b = 1;
  task->Write(addr, &b, 1);
  for (auto _ : state) {
    // Drop the hardware mapping, then touch: lookup finds the resident
    // page; only hardware validation runs.
    task->vm_context().pmap->Remove(addr, addr + kPage);
    task->Read(addr, &b, 1);
  }
  state.SetItemsProcessed(state.iterations());
  task.reset();
}

// Copy-on-write fault: write to a freshly forked COW page.
void BM_CowFault(benchmark::State& state) {
  auto kernel = MakeKernel();
  auto task = kernel->CreateTask();
  const VmSize chunk = 256 * kPage;
  VmOffset addr = task->VmAllocate(chunk).value();
  std::vector<uint8_t> init(chunk, 0x7);
  task->Write(addr, init.data(), init.size());
  std::shared_ptr<Task> child;
  VmOffset next = 0;
  VmSize used = chunk;
  uint8_t b = 9;
  for (auto _ : state) {
    if (used == chunk) {
      state.PauseTiming();
      child = kernel->CreateTask(task);  // Fresh COW view.
      next = addr;
      used = 0;
      state.ResumeTiming();
    }
    child->Write(next, &b, 1);  // Shadow + page copy.
    next += kPage;
    used += kPage;
  }
  state.SetItemsProcessed(state.iterations());
  child.reset();
  task.reset();
}

// External-pager fetch: pager_data_request / pager_data_provided round trip
// through real ports. The request queues for the manager's thread, which
// then runs the kernel's pager_data_provided handler itself: one handoff
// each way.
void BM_ExternalPagerFetch(benchmark::State& state) {
  auto kernel = MakeKernel();
  auto task = kernel->CreateTask();
  InstantPager pager;
  pager.Start();
  const VmSize chunk = 512 * kPage;
  SendRight object;
  VmOffset addr = 0;
  VmOffset next = 0;
  VmSize used = chunk;
  uint8_t b = 0;
  for (auto _ : state) {
    if (used == chunk) {
      state.PauseTiming();
      if (addr != 0) {
        task->VmDeallocate(addr, chunk);
        pager.DestroyMemoryObject(object);
      }
      object = pager.NewObject();
      addr = task->VmAllocateWithPager(chunk, object, 0).value();
      next = addr;
      used = 0;
      state.ResumeTiming();
    }
    task->Read(next, &b, 1);  // Full request/provide message round trip.
    next += kPage;
    used += kPage;
  }
  state.SetItemsProcessed(state.iterations());
  task.reset();
  pager.Stop();
}

// The pmap fast path (no fault at all), for scale.
void BM_ResidentAccess(benchmark::State& state) {
  auto kernel = MakeKernel();
  auto task = kernel->CreateTask();
  VmOffset addr = task->VmAllocate(kPage).value();
  uint8_t b = 1;
  task->Write(addr, &b, 1);
  for (auto _ : state) {
    task->Read(addr, &b, 1);
  }
  state.SetItemsProcessed(state.iterations());
  task.reset();
}

// --- failure paths ----------------------------------------------------------

// A manager that never answers; destroying its object exercises the death
// recovery path.
class SilentPager : public DataManager {
 public:
  SilentPager() : DataManager("silent") {}
  SendRight NewObject() { return CreateMemoryObject(1); }

 protected:
  void OnDataRequest(uint64_t, uint64_t, PagerDataRequestArgs) override {}
};

// Manager death mid-fault: the faulting thread is woken by the death
// notification and resolved under the zero-fill policy — this measures the
// recovery latency that replaces the 5 s pager timeout.
void BM_PagerDeathRecovery(benchmark::State& state) {
  Kernel::Config config;
  config.frames = 8192;
  config.page_size = kPage;
  config.disk_latency = DiskLatencyModel{0, 0};
  config.vm.on_pager_timeout = VmSystem::Config::OnPagerTimeout::kZeroFill;
  auto kernel = std::make_unique<Kernel>(config);
  auto task = kernel->CreateTask();
  SilentPager pager;
  pager.Start();
  for (auto _ : state) {
    SendRight object = pager.NewObject();
    VmOffset addr = task->VmAllocateWithPager(kPage, object, 0).value();
    uint8_t b = 0;
    std::thread faulter([&] { task->Read(addr, &b, 1); });
    pager.DestroyMemoryObject(object);
    faulter.join();
    state.PauseTiming();
    task->VmDeallocate(addr, kPage);
    state.ResumeTiming();
  }
  VmStatistics stats = kernel->vm().Statistics();
  state.counters["deaths_recovered"] = static_cast<double>(stats.manager_deaths);
  state.counters["death_resolved_pages"] = static_cast<double>(stats.death_resolved_pages);
  state.counters["pages_zero_filled"] = static_cast<double>(stats.zero_fill_count);
  task.reset();
  pager.Stop();
}

// Demand paging through a small frame pool while the backing disk throws
// seeded transient errors: the steady-state cost of running *through*
// faults rather than around them.
void BM_PagingUnderDiskFaults(benchmark::State& state) {
  FaultInjector inj(42);
  inj.SetProbability(SimDisk::kFaultRead, 0.02);
  inj.SetProbability(SimDisk::kFaultWrite, 0.02);
  Kernel::Config config;
  config.frames = 64;  // Working set below is 4x this: constant pageout.
  config.page_size = kPage;
  config.disk_latency = DiskLatencyModel{0, 0};
  config.vm.on_pager_timeout = VmSystem::Config::OnPagerTimeout::kZeroFill;
  config.fault_injector = &inj;
  auto kernel = std::make_unique<Kernel>(config);
  auto task = kernel->CreateTask();
  const VmSize pages = 256;
  VmOffset base = task->VmAllocate(pages * kPage).value();
  uint64_t i = 0;
  for (auto _ : state) {
    VmOffset addr = base + (i++ % pages) * kPage;
    uint64_t v = i;
    task->Write(addr, &v, sizeof(v));
  }
  state.SetItemsProcessed(state.iterations());
  VmStatistics stats = kernel->vm().Statistics();
  state.counters["faults_injected"] = static_cast<double>(inj.TotalInjected());
  state.counters["backing_errors"] =
      static_cast<double>(kernel->default_pager().backing_error_count());
  state.counters["pages_zero_filled"] = static_cast<double>(stats.zero_fill_count);
  state.counters["pageouts"] = static_cast<double>(stats.pageouts);
  task.reset();
}

// Request/reply over a lossy link in reliable mode: the retransmit scheme's
// cost, with its counters.
void BM_RpcOverLossyLink(benchmark::State& state) {
  Kernel::Config config;
  config.frames = 128;
  config.page_size = kPage;
  config.disk_latency = DiskLatencyModel{0, 0};
  config.name = "bench-a";
  auto host_a = std::make_unique<Kernel>(config);
  config.name = "bench-b";
  auto host_b = std::make_unique<Kernel>(config);
  FaultInjector inj(42);
  inj.SetProbability(NetLink::kFaultDrop, 0.1);
  SimClock net_clock;
  NetFaultConfig faults;
  faults.injector = &inj;
  faults.reliable = true;
  NetLink link(&host_a->vm(), &host_b->vm(), &net_clock, kNormaLatency, faults);

  PortPair service = PortAllocate("bench-echo");
  std::atomic<bool> stop{false};
  std::thread server([&] {
    while (!stop.load(std::memory_order_acquire)) {
      Result<Message> req = MsgReceive(service.receive, std::chrono::milliseconds(50));
      if (req.ok()) {
        MsgSend(req.value().reply_port(), Message(req.value().id() + 1));
      }
    }
  });
  SendRight proxy = link.ProxyForA(service.send);
  for (auto _ : state) {
    Result<Message> reply =
        MsgRpc(proxy, Message(1), kWaitForever, std::chrono::seconds(10));
    if (!reply.ok()) {
      state.SkipWithError("rpc lost on a reliable link");
      break;
    }
  }
  stop.store(true, std::memory_order_release);
  server.join();
  state.SetItemsProcessed(state.iterations());
  state.counters["faults_injected"] = static_cast<double>(inj.TotalInjected());
  state.counters["retransmits"] = static_cast<double>(link.retransmits());
  state.counters["wire_drops"] = static_cast<double>(link.messages_dropped());
  state.counters["lost"] = static_cast<double>(link.messages_lost());
}

// --- adaptive fault-ahead over the wire (E16) -------------------------------

// Serves per-page stamps for whole runs through the PagerRunBuilder,
// counting wire messages in both directions.
class RemoteRunPager : public DataManager {
 public:
  RemoteRunPager() : DataManager("remote-runs") {}
  SendRight NewObject() { return CreateMemoryObject(1); }
  uint64_t requests() const { return requests_.load(std::memory_order_relaxed); }
  uint64_t provide_messages() const { return provides_.load(std::memory_order_relaxed); }

 protected:
  void OnDataRequest(uint64_t, uint64_t, PagerDataRequestArgs args) override {
    requests_.fetch_add(1, std::memory_order_relaxed);
    PagerRunBuilder run(std::move(args.pager_request_port));
    for (VmOffset off = args.offset; off < args.offset + args.length; off += kPage) {
      std::vector<std::byte> page(kPage, std::byte{0x5C});
      run.AddData(off, std::move(page), kVmProtNone);
    }
    run.Flush();
    provides_.fetch_add(run.messages_sent(), std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> provides_{0};
};

// A 64-page read whose pager sits across a NetLink in reliable mode.
// Sequential scans batch into multi-page data requests — fewer messages per
// page — while random access must stay single-page. Args: {fault_ahead_max
// (1 = one request per page), fragment drop % on the wire}. The counters report message economy
// (req_per_page, msgs_per_page) and the speculation waste (fa_unused) so
// the E16 ledger stays honest.
void RemoteReadOverLink(benchmark::State& state, bool sequential) {
  const auto fault_ahead_max = static_cast<uint32_t>(state.range(0));
  const double frag_drop = static_cast<double>(state.range(1)) / 100.0;
  constexpr VmSize kScanPages = 64;

  Kernel::Config config;
  config.frames = 8192;
  config.page_size = kPage;
  config.disk_latency = DiskLatencyModel{0, 0};
  config.name = "remote-a";
  auto host_a = std::make_unique<Kernel>(config);
  config.name = "remote-b";
  config.vm.fault_ahead_max = fault_ahead_max;  // The ablation under test (client side).
  auto host_b = std::make_unique<Kernel>(config);

  FaultInjector inj(42);
  inj.SetProbability(NetLink::kFaultFragDrop, frag_drop);
  SimClock net_clock;
  NetFaultConfig faults;
  faults.injector = frag_drop > 0 ? &inj : nullptr;
  faults.reliable = true;
  NetLink link(&host_a->vm(), &host_b->vm(), &net_clock, kNormaLatency, faults);

  RemoteRunPager pager;
  pager.Start();
  auto task = host_b->CreateTask(nullptr, "remote-scan");

  // 37 is coprime to 64 and never yields a +1 successor, so the random
  // order defeats the sequentiality detector by construction.
  VmOffset order[kScanPages];
  for (VmOffset i = 0; i < kScanPages; ++i) {
    order[i] = sequential ? i : (i * 37) % kScanPages;
  }

  uint8_t b = 0;
  for (auto _ : state) {
    state.PauseTiming();
    SendRight object = pager.NewObject();
    VmOffset base =
        task->VmAllocateWithPager(kScanPages * kPage, link.ProxyForB(object), 0).value();
    state.ResumeTiming();
    for (VmOffset i = 0; i < kScanPages; ++i) {
      task->Read(base + order[i] * kPage, &b, 1);
    }
    state.PauseTiming();
    task->VmDeallocate(base, kScanPages * kPage);
    pager.DestroyMemoryObject(object);
    state.ResumeTiming();
  }
  const double pages = static_cast<double>(state.iterations()) * kScanPages;
  state.SetItemsProcessed(static_cast<int64_t>(pages));
  VmStatistics stats = host_b->vm().Statistics();
  state.counters["req_per_page"] = static_cast<double>(pager.requests()) / pages;
  state.counters["msgs_per_page"] =
      static_cast<double>(pager.requests() + pager.provide_messages()) / pages;
  state.counters["fa_requests"] = static_cast<double>(stats.fault_ahead_requests);
  state.counters["fa_pages"] = static_cast<double>(stats.fault_ahead_pages);
  state.counters["fa_unused"] = static_cast<double>(stats.fault_ahead_unused);
  state.counters["retransmits"] = static_cast<double>(link.retransmits());
  task.reset();
  pager.Stop();
}

void BM_RemoteSequentialScan(benchmark::State& state) { RemoteReadOverLink(state, true); }
void BM_RemoteRandomScan(benchmark::State& state) { RemoteReadOverLink(state, false); }

}  // namespace

BENCHMARK(BM_ResidentAccess);
BENCHMARK(BM_ResidentRevalidation);
BENCHMARK(BM_ZeroFillFault);
BENCHMARK(BM_CowFault);
BENCHMARK(BM_ExternalPagerFetch);
BENCHMARK(BM_PagerDeathRecovery)->Iterations(50)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PagingUnderDiskFaults);
BENCHMARK(BM_RpcOverLossyLink);
BENCHMARK(BM_RemoteSequentialScan)
    ->ArgNames({"fault_ahead_max", "frag_drop_pct"})
    ->Args({1, 0})
    ->Args({16, 0})
    ->Args({1, 5})
    ->Args({16, 5})
    ->Iterations(20)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RemoteRandomScan)
    ->ArgNames({"fault_ahead_max", "frag_drop_pct"})
    ->Args({1, 0})
    ->Args({16, 0})
    ->Args({1, 5})
    ->Args({16, 5})
    ->Iterations(20)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
