// fault_1cpu: the fault path with no pager, no message and no memory
// pressure. Three client threads share one task; each cycles its own
// VmAllocate region, so each faults into its own VmObject. A cycle
// first-touch writes every page (a zero-fill fault), re-reads each page a
// few times (resident pmap hits), then calls VmDeallocate.
//
// Op: one page touch — the write plus its re-reads.
//
// The process is pinned to one CPU, so the clients time-share it: this is
// the fault path's own cost (zero fill, pmap hits, map allocate and
// deallocate) without cross-CPU contention.

#include <latch>
#include <thread>

#include "perfbench/harness.h"
#include "src/kernel/kernel.h"

namespace perfbench {
namespace {

using namespace mach;

constexpr VmSize kPage = 4096;
constexpr int kThreads = 3;
constexpr VmSize kRegionPages = 256;
constexpr int kRereads = 4;
constexpr int kWarmupCycles = 16;  // Per thread, in every Setup().

class FaultWorkload : public Workload {
 public:
  explicit FaultWorkload(uint64_t seed) : seed_(seed) {}

  std::string cpu_mask() const override { return mask_; }

  bool Place(std::string* why) override { return PinToLastCpu(&mask_, why); }

  void Setup() override {
    Kernel::Config config;
    config.name = "fault";
    config.frames = 4096;  // 3 x 256-page regions never press on this.
    config.page_size = kPage;
    config.backing_blocks = kPagingDiskBlocks;
    config.disk_latency = DiskLatencyModel{0, 0};
    kernel_ = std::make_unique<Kernel>(config);
    task_ = kernel_->CreateTask(nullptr, "fault-client");
    PhaseStats warm;
    RunThreads(kWarmupCycles, UINT64_MAX, nullptr, warm);
    setup_failures_ += warm.failed;
  }

  void Teardown() override {
    task_.reset();
    kernel_.reset();
  }

  void Run(uint64_t deadline_ns, Tracer* tracer, PhaseStats& stats) override {
    const VmStatistics before = kernel_->vm().Statistics();
    RunThreads(INT32_MAX, deadline_ns, tracer, stats);
    const VmStatistics after = kernel_->vm().Statistics();
    if (tracer != nullptr) {
      const uint64_t faults = after.faults - before.faults;
      stats.AddLayer("vm.fault.locks_per_fault",
                     faults == 0 ? 0.0
                                 : double(after.fault_lock_ops - before.fault_lock_ops) / faults);
    }
  }

  bool FinalCheck(std::string* why) override {
    if (setup_failures_ != 0) {
      *why = std::to_string(setup_failures_) + " warm-up ops failed";
      return false;
    }
    return true;
  }

 private:
  void RunThreads(int cycles, uint64_t deadline_ns, Tracer* tracer, PhaseStats& stats) {
    std::vector<PhaseStats> results(kThreads);
    std::vector<SpanLog*> logs(kThreads, nullptr);
    if (tracer != nullptr) {
      for (int i = 0; i < kThreads; ++i) {
        logs[i] = tracer->NewLog();
      }
    }
    std::latch start(kThreads);  // The clients begin together.
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        start.arrive_and_wait();
        Client(i, cycles, deadline_ns, logs[i], results[i]);
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
    for (const PhaseStats& r : results) {
      stats.attempted += r.attempted;
      stats.failed += r.failed;
      stats.latency.Merge(r.latency);
    }
  }

  // One client thread: `cycles` region cycles, stopping early at the
  // deadline (checked after every op).
  void Client(int index, int cycles, uint64_t deadline_ns, SpanLog* log, PhaseStats& stats) {
    Task& task = *task_;
    const VmSize span = kRegionPages * kPage;
    for (int cycle = 0; cycle < cycles; ++cycle) {
      const uint64_t c0 = NowNs();
      Result<VmOffset> region = task.VmAllocate(span);
      if (log != nullptr) {
        log->Record(kMapAllocate, 0, 0, c0, NowNs());
      }
      if (!region.ok()) {
        ++stats.attempted;
        ++stats.failed;
        return;
      }
      const VmOffset base = region.value();
      bool stop = false;
      for (VmSize p = 0; p < kRegionPages && !stop; ++p) {
        // Seeded input: the value and the word it lands in.
        const uint64_t value =
            SplitMix64(seed_ ^ (uint64_t(index) << 56) ^ (uint64_t(cycle) << 20) ^ p);
        const VmOffset addr = base + p * kPage + ((value >> 7) % (kPage / 8)) * 8;
        const uint64_t t0 = NowNs();
        bool ok = log == nullptr ? Touch(task, addr, value) : TracedTouch(task, addr, value, *log);
        const uint64_t t1 = NowNs();
        ++stats.attempted;
        if (ok) {
          stats.latency.Record(t1 - t0);
        } else {
          ++stats.failed;
        }
        stop = t1 >= deadline_ns;
      }
      const uint64_t d0 = NowNs();
      const KernReturn kr = task.VmDeallocate(base, span);
      if (log != nullptr) {
        log->Record(kMapDeallocate, 0, 0, d0, NowNs());
      }
      if (kr != KernReturn::kSuccess) {
        ++stats.attempted;
        ++stats.failed;
        return;
      }
      if (stop) {
        return;
      }
    }
  }

  // The untraced op, through the public user-access API.
  static bool Touch(Task& task, VmOffset addr, uint64_t value) {
    bool ok = task.Write(addr, &value, sizeof(value)) == KernReturn::kSuccess;
    for (int r = 0; r < kRereads; ++r) {
      uint64_t got = 0;
      ok &= task.Read(addr, &got, sizeof(got)) == KernReturn::kSuccess && got == value;
    }
    return ok;
  }

  // The same op with a span around every pmap access and fault.
  static bool TracedTouch(Task& task, VmOffset addr, uint64_t value, SpanLog& log) {
    const uint64_t t0 = NowNs();
    const uint64_t op = log.NextOpId();
    const uint64_t root = log.NextSpanId();
    bool ok = TracedAccess(task, addr, &value, sizeof(value), /*is_write=*/true, kFaultZeroFill,
                           log, op, root) == KernReturn::kSuccess;
    for (int r = 0; r < kRereads; ++r) {
      uint64_t got = 0;
      ok &= TracedAccess(task, addr, &got, sizeof(got), /*is_write=*/false, kFault, log, op,
                         root) == KernReturn::kSuccess &&
            got == value;
    }
    log.Record(root, kOp, op, 0, t0, NowNs());
    return ok;
  }

  const uint64_t seed_;
  std::string mask_;
  uint64_t setup_failures_ = 0;
  std::unique_ptr<Kernel> kernel_;
  std::shared_ptr<Task> task_;
};

}  // namespace

std::unique_ptr<Workload> MakeFault1Cpu(uint64_t seed) {
  return std::make_unique<FaultWorkload>(seed);
}

}  // namespace perfbench
