// Measurement scaffolding shared by the benchmark's workloads: the span
// tracer that times the benchmark's own calls into each layer, process
// resource sampling, CPU placement, and the Workload interface main.cc
// drives. Latencies go into mach::Histogram (src/base/histogram.h).
//
// Every number here is measured from outside the program: the benchmark
// brackets its own calls into each module's public API. Nothing in src/
// knows it is being measured.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/base/hash.h"
#include "src/base/histogram.h"
#include "src/base/kern_return.h"
#include "src/kernel/task.h"

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Blocks of every benchmark kernel's default-pager disk. SimDisk zero-fills
// its whole store when it is built, so the kernel's 8192-block default would
// make set-up time mostly the host zeroing 32 MiB of fresh memory, which
// varies with the host's memory state. 1024 blocks is 16 times the 64 frames
// of tenant_serving, the only workload under memory pressure.
constexpr uint32_t kPagingDiskBlocks = 1024;

// Every seeded input (access orders, written values, stamps, transaction
// choices) is derived from the workload seed through SplitMix64, directly or
// through this sequential stream.
class SeededStream {
 public:
  explicit SeededStream(uint64_t seed) : state_(mach::SplitMix64(seed)) {}
  uint64_t Next() { return mach::SplitMix64(state_++); }

 private:
  uint64_t state_;
};

// The layers a span can belong to. Names are the per-layer metric stems.
enum Layer : uint8_t {
  kOp,                 // One client op (the root span).
  kPmapHit,            // Pmap::Access that hit.
  kPmapMiss,           // Pmap::Access that raised a fault.
  kFaultZeroFill,      // VmSystem::Fault on a first touch of anonymous memory.
  kFaultPager,         // VmSystem::Fault on an external-pager object.
  kFault,              // Any other VmSystem::Fault.
  kMapAllocate,        // Task::VmAllocate.
  kMapDeallocate,      // Task::VmDeallocate.
  kPagerUpcall,        // Manager OnDataRequest body through PagerRunBuilder::Flush.
  kPagerRequestWait,   // Fault start -> manager OnDataRequest (joined).
  kPagerProvideWait,   // Provide sent -> VmSystem::Fault returns (joined).
  kFlush,              // Manager FlushRequest -> OnLockCompleted.
  kMfsRead,            // MappedFile::ReadAt.
  kMfsWrite,           // MappedFile::WriteAt.
  kCamelotWrite,       // Transaction::Write.
  kCamelotCommit,      // Transaction::Commit.
  kCamelotAbort,       // Transaction::Abort.
  kBoardRmw,           // Shm board slot read + write.
  kLayerCount,
};

const char* LayerName(Layer layer);

// One span: a timed call into a layer. `op` is shared by every span of one
// client op; `parent` is the id of the enclosing span (0 = root).
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t op = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  Layer layer = kOp;
};

// Per-thread span log. Every span's duration lands in its layer's
// histogram; the first `raw_cap` spans are also kept whole for the trace
// file. Single-threaded: each recording thread owns one.
class SpanLog {
 public:
  SpanLog(uint32_t thread_index, size_t raw_cap);

  uint64_t NextOpId() { return (uint64_t{thread_index_} << 40) | ++ops_; }
  // A fresh span id, for a span whose children are recorded before it ends.
  uint64_t NextSpanId() { return (uint64_t{thread_index_} << 40) | ++spans_; }
  void Record(uint64_t id, Layer layer, uint64_t op, uint64_t parent, uint64_t start_ns,
              uint64_t end_ns);
  // Records a span under a fresh id and returns the id.
  uint64_t Record(Layer layer, uint64_t op, uint64_t parent, uint64_t start_ns,
                  uint64_t end_ns) {
    const uint64_t id = NextSpanId();
    Record(id, layer, op, parent, start_ns, end_ns);
    return id;
  }

  const mach::Histogram* histogram(Layer layer) const { return hist_[layer].get(); }
  const std::vector<Span>& raw() const { return raw_; }

 private:
  const uint32_t thread_index_;
  const size_t raw_cap_;
  uint64_t ops_ = 0;
  uint64_t spans_ = 0;
  std::array<std::unique_ptr<mach::Histogram>, kLayerCount> hist_;
  std::vector<Span> raw_;
};

// Owns the span logs of one traced phase and aggregates them at the end.
class Tracer {
 public:
  static constexpr size_t kRawSpansPerThread = 40000;

  // A new log for one recording thread (stable address for the phase).
  SpanLog* NewLog();

  // Merged duration histogram of `layer` over every log.
  mach::Histogram Merged(Layer layer) const;
  // Writes the kept raw spans as JSON lines. Returns false on I/O error.
  bool WriteSpans(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SpanLog>> logs_;
};

// The span of the last VmSystem::Fault an access took (id 0 = none).
struct FaultStamp {
  uint64_t id = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

// The traced twin of Task::Read / Task::Write for an access inside one
// page: Pmap::Access, and on a miss VmSystem::Fault then retry — exactly
// the loop VmSystem::UserAccess runs — with a span around each call.
mach::KernReturn TracedAccess(mach::Task& task, mach::VmOffset addr, void* buf, mach::VmSize len,
                              bool is_write, Layer fault_layer, SpanLog& log, uint64_t op,
                              uint64_t parent, FaultStamp* fault = nullptr);

// Process resource usage (all threads).
struct Usage {
  double cpu_s = 0;            // user + system.
  uint64_t voluntary_csw = 0;  // Blocking waits.
  double max_rss_mib = 0;      // Peak resident set so far.
};
Usage SampleUsage();

// CPU placement.
std::vector<int> AllowedCpus();
// Pins the calling thread, and so every thread it goes on to start, to the
// last allowed CPU. Sets `mask` to describe the placement, or `why`.
bool PinToLastCpu(std::string* mask, std::string* why);
std::string CpuListString(const std::vector<int>& cpus);

// What a timed phase produced. The harness adds wall, CPU and RSS figures.
struct PhaseStats {
  uint64_t attempted = 0;
  uint64_t failed = 0;      // Error returns, output-check mismatches, error aborts.
  mach::Histogram latency;  // Host ns per completed op.
  uint64_t vtime_ns = 0;    // Advance of every SimClock over the phase.
  // Per-layer metrics (traced phase only), in the order they were added.
  std::vector<std::pair<std::string, double>> layers;
  void AddLayer(const std::string& name, double value) { layers.emplace_back(name, value); }
};

// A benchmark workload. main.cc runs it as a series of sessions; a session
// calls Setup and Teardown untimed, then Setup again (timed: the median is
// setup_s), one Run, FinalCheck and Teardown.
class Workload {
 public:
  virtual ~Workload() = default;

  // CPUs the workload runs on, as placed by Place() (for the record).
  virtual std::string cpu_mask() const = 0;
  // Fixes the process's CPU placement before any kernel thread exists.
  // Returns false (with a reason) when the host cannot run the workload.
  virtual bool Place(std::string* why) = 0;

  // Boots the system and runs a fixed warm-up.
  virtual void Setup() = 0;
  virtual void Teardown() = 0;

  // The closed loop, until steady-clock `deadline_ns` or, for a workload
  // whose session is a fixed amount of work, until that work is done. With
  // a tracer, every call into a layer is wrapped in a span and per-layer
  // metrics are added.
  virtual void Run(uint64_t deadline_ns, Tracer* tracer, PhaseStats& stats) = 0;

  // Checks after the session's Run (oracles, determinism across repeats).
  // Returns false with a reason on any mismatch.
  virtual bool FinalCheck(std::string* why) = 0;
};

std::unique_ptr<Workload> MakeFault1Cpu(uint64_t seed);
std::unique_ptr<Workload> MakePagerStream(uint64_t seed);
std::unique_ptr<Workload> MakeTenantServing(uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
