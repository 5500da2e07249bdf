// pager_stream: the paper's central mechanism — a fault becomes messages to
// a user-level data manager — across a reliable NetLink (NORMA latency
// model, no injected faults). One client thread on host B pages fresh memory
// objects that a benchmark-owned DataManager on host A serves from an
// in-memory seeded store.
//
// Per object (one cycle), mapped as three entries so fault-ahead never runs
// from one part into the next:
//   1. a sequential read scan (fault-ahead runs);
//   2. single-page reads in a seeded random order (the sequentiality
//      detector stays at a one-page window, except at the rare +1 successor
//      a random order contains);
//   3. first-touch dirty writes;
//   4. a manager FlushRequest returns the dirty pages as clustered
//      pager_data_write runs, and the client waits for OnLockCompleted
//      before the object is destroyed (so termination write-back, one
//      message per dirty page, is deliberately not measured).
//
// Op: one client page access. The process is pinned to one CPU before any
// kernel, manager or link thread starts: the blocking handoffs of an
// external fault otherwise depend on which CPUs the threads land on.
//
// Every cycle uses the same seeded access pattern, so its message, byte and
// fragment counts and its modelled (virtual) time repeat exactly; the run
// checks that every cycle matches the first.

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <map>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "perfbench/harness.h"
#include "src/kernel/kernel.h"
#include "src/net/net_link.h"
#include "src/pager/data_manager.h"

namespace perfbench {
namespace {

using namespace mach;

constexpr VmSize kPage = 4096;
constexpr VmSize kWords = kPage / sizeof(uint64_t);
constexpr VmSize kScanPages = 512;
constexpr VmSize kStridePages = 64;
constexpr VmSize kWritePages = 384;
constexpr VmSize kObjectPages = kScanPages + kStridePages + kWritePages;
constexpr int kWarmupCycles = 2;  // In every Setup().
constexpr auto kFlushTimeout = std::chrono::seconds(30);

// Word k of page p of object `serial`, as the manager's store holds it.
uint64_t StoreWord(uint64_t seed, uint64_t serial, VmOffset page, VmSize k) {
  return SplitMix64(seed ^ (serial << 24) ^ page) + k * 0x9E3779B97F4A7C15ull;
}

// The benchmark's data manager: serves seeded pages in runs, records what
// comes back, and (when tracing) stamps every data-request upcall.
class StreamPager : public DataManager {
 public:
  struct Upcall {
    uint64_t serial;
    VmOffset offset;
    uint64_t start_ns;
    uint64_t end_ns;
  };
  struct Counts {
    uint64_t requests = 0;
    uint64_t provides = 0;    // pager_data_provided messages sent.
    uint64_t write_msgs = 0;  // OnDataWrite calls.
    uint64_t pages_written = 0;
  };

  explicit StreamPager(uint64_t seed) : DataManager("stream-pager"), seed_(seed) {}
  ~StreamPager() override { Stop(); }

  SendRight NewObject(uint64_t serial) {
    {
      std::lock_guard<std::mutex> g(mu_);
      Object& o = objects_[serial];
      o.written.assign(kWritePages * kPage, std::byte{0});
    }
    return CreateMemoryObject(serial, "stream-object");
  }

  void DestroyObject(uint64_t serial, const SendRight& object) {
    DestroyMemoryObject(object);
    std::lock_guard<std::mutex> g(mu_);
    objects_.erase(serial);
  }

  // Manager FlushRequest over the whole object, then wait for the kernel's
  // OnLockCompleted. Returns false on a send error or timeout.
  bool FlushAndWait(uint64_t serial) {
    SendRight request;
    {
      std::lock_guard<std::mutex> g(mu_);
      request = objects_[serial].request;
    }
    if (!request.valid() ||
        FlushRequest(request, 0, kObjectPages * kPage) != KernReturn::kSuccess) {
      return false;
    }
    std::unique_lock<std::mutex> lk(mu_);
    return cv_.wait_for(lk, kFlushTimeout, [&] { return objects_[serial].flushed; });
  }

  // The word the manager holds for write-region page `index` after a flush.
  uint64_t WrittenWord(uint64_t serial, VmSize index, VmSize k) {
    std::lock_guard<std::mutex> g(mu_);
    uint64_t v = 0;
    std::memcpy(&v, objects_[serial].written.data() + index * kPage + k * 8, sizeof(v));
    return v;
  }

  Counts counts() {
    std::lock_guard<std::mutex> g(mu_);
    return counts_;
  }
  uint64_t stray_writes() {
    std::lock_guard<std::mutex> g(mu_);
    return stray_writes_;
  }

  void SetTracing(bool on) { tracing_.store(on); }
  std::vector<Upcall> TakeUpcalls() {
    std::lock_guard<std::mutex> g(mu_);
    return std::move(upcalls_);
  }

 protected:
  void OnInit(uint64_t, uint64_t cookie, PagerInitArgs args) override {
    std::lock_guard<std::mutex> g(mu_);
    objects_[cookie].request = std::move(args.pager_request_port);
  }

  void OnDataRequest(uint64_t, uint64_t cookie, PagerDataRequestArgs args) override {
    const uint64_t t0 = NowNs();
    PagerRunBuilder run(std::move(args.pager_request_port));
    for (VmOffset off = args.offset; off < args.offset + args.length; off += kPage) {
      std::vector<std::byte> page(kPage);
      for (VmSize k = 0; k < kWords; ++k) {
        const uint64_t w = StoreWord(seed_, cookie, off / kPage, k);
        std::memcpy(page.data() + k * 8, &w, sizeof(w));
      }
      run.AddData(off, std::move(page), kVmProtNone);
    }
    run.Flush();
    const uint64_t t1 = NowNs();
    std::lock_guard<std::mutex> g(mu_);
    ++counts_.requests;
    counts_.provides += run.messages_sent();
    if (tracing_.load(std::memory_order_relaxed)) {
      upcalls_.push_back(Upcall{cookie, args.offset, t0, t1});
    }
  }

  void OnDataWrite(uint64_t, uint64_t cookie, PagerDataWriteArgs args) override {
    std::lock_guard<std::mutex> g(mu_);
    ++counts_.write_msgs;
    Object& o = objects_[cookie];
    const VmOffset write_base = (kScanPages + kStridePages) * kPage;
    for (VmSize done = 0; done < args.data.size(); done += kPage) {
      const VmOffset off = args.offset + done;
      ++counts_.pages_written;
      if (off < write_base || off >= kObjectPages * kPage) {
        ++stray_writes_;  // Only the write region is ever dirtied.
        continue;
      }
      std::memcpy(o.written.data() + (off - write_base), args.data.data() + done, kPage);
    }
  }

  void OnLockCompleted(uint64_t, uint64_t cookie, PagerLockCompletedArgs) override {
    {
      std::lock_guard<std::mutex> g(mu_);
      objects_[cookie].flushed = true;
    }
    cv_.notify_all();
  }

 private:
  struct Object {
    SendRight request;
    bool flushed = false;
    std::vector<std::byte> written;  // The write region as written back.
  };

  const uint64_t seed_;
  std::atomic<bool> tracing_{false};
  std::mutex mu_;
  std::condition_variable cv_;
  std::map<uint64_t, Object> objects_;
  Counts counts_;
  uint64_t stray_writes_ = 0;
  std::vector<Upcall> upcalls_;
};

// Everything one cycle did, as counted from outside: the manager's calls,
// the link's wire counters, and every SimClock's advance.
struct CycleCounts {
  uint64_t requests = 0;
  uint64_t provides = 0;
  uint64_t write_msgs = 0;
  uint64_t pages_written = 0;
  uint64_t net_msgs = 0;
  uint64_t net_bytes = 0;
  uint64_t net_frags = 0;
  uint64_t net_vtime_ns = 0;
  uint64_t vtime_ns = 0;
  uint64_t fa_requests = 0;
  uint64_t fa_pages = 0;
  uint64_t fa_unused = 0;
  uint64_t faults = 0;
  uint64_t fault_lock_ops = 0;

  bool operator==(const CycleCounts&) const = default;
  CycleCounts operator-(const CycleCounts& o) const {
    CycleCounts d;
    d.requests = requests - o.requests;
    d.provides = provides - o.provides;
    d.write_msgs = write_msgs - o.write_msgs;
    d.pages_written = pages_written - o.pages_written;
    d.net_msgs = net_msgs - o.net_msgs;
    d.net_bytes = net_bytes - o.net_bytes;
    d.net_frags = net_frags - o.net_frags;
    d.net_vtime_ns = net_vtime_ns - o.net_vtime_ns;
    d.vtime_ns = vtime_ns - o.vtime_ns;
    d.fa_requests = fa_requests - o.fa_requests;
    d.fa_pages = fa_pages - o.fa_pages;
    d.fa_unused = fa_unused - o.fa_unused;
    d.faults = faults - o.faults;
    d.fault_lock_ops = fault_lock_ops - o.fault_lock_ops;
    return d;
  }
};

// The client's record of one pager fault, joined to the manager's upcall
// by (object, offset).
struct FaultRecord {
  uint64_t op;
  FaultStamp fault;
};

class PagerStream : public Workload {
 public:
  explicit PagerStream(uint64_t seed) : seed_(seed) {
    // One seeded access pattern, replayed by every cycle.
    SeededStream rng(seed ^ 0x5CA9'0000'0000'0000ull);
    for (VmSize i = 0; i < kScanPages; ++i) {
      scan_word_.push_back(rng.Next() % kWords);
    }
    for (VmSize i = 0; i < kStridePages; ++i) {
      stride_order_.push_back(i);
      stride_word_.push_back(rng.Next() % kWords);
    }
    for (VmSize i = kStridePages - 1; i > 0; --i) {  // Fisher-Yates.
      std::swap(stride_order_[i], stride_order_[rng.Next() % (i + 1)]);
    }
    for (VmSize i = 0; i < kWritePages; ++i) {
      write_word_.push_back(rng.Next() % kWords);
    }
  }

  std::string cpu_mask() const override { return mask_; }

  bool Place(std::string* why) override { return PinToLastCpu(&mask_, why); }

  void Setup() override {
    Kernel::Config config;
    config.page_size = kPage;
    config.backing_blocks = kPagingDiskBlocks;
    config.disk_latency = DiskLatencyModel{0, 0};
    config.name = "stream-a";
    config.frames = 256;  // Host A runs only the manager.
    host_a_ = std::make_unique<Kernel>(config);
    config.name = "stream-b";
    config.frames = 4 * kObjectPages;  // No pageout: the object fits many times.
    host_b_ = std::make_unique<Kernel>(config);
    NetFaultConfig net;
    net.reliable = true;
    link_ = std::make_unique<NetLink>(&host_a_->vm(), &host_b_->vm(), &net_clock_, kNormaLatency,
                                      net);
    pager_ = std::make_unique<StreamPager>(seed_);
    pager_->Start();
    task_ = host_b_->CreateTask(nullptr, "stream-client");
    PhaseStats warm;
    for (int c = 0; c < kWarmupCycles; ++c) {
      Cycle(nullptr, warm);
    }
    setup_failures_ += warm.failed;
  }

  void Teardown() override {
    task_.reset();
    pager_.reset();
    link_.reset();
    host_b_.reset();
    host_a_.reset();
  }

  void Run(uint64_t deadline_ns, Tracer* tracer, PhaseStats& stats) override {
    SpanLog* log = tracer != nullptr ? tracer->NewLog() : nullptr;
    pager_->SetTracing(tracer != nullptr);
    const CycleCounts before = Snapshot();
    uint64_t cycles = 0;
    do {
      Cycle(log, stats);
      ++cycles;
    } while (NowNs() < deadline_ns);
    const CycleCounts d = Snapshot() - before;
    pager_->SetTracing(false);
    stats.vtime_ns = d.vtime_ns;
    if (tracer == nullptr) {
      return;
    }
    const double pages = double(cycles * kObjectPages);
    stats.AddLayer("vm.fault.locks_per_fault", d.faults ? double(d.fault_lock_ops) / d.faults : 0);
    stats.AddLayer("pager.requests_per_page", d.requests / pages);
    stats.AddLayer("vm.fault_ahead.pages_per_request",
                   d.fa_requests ? double(d.fa_pages) / d.fa_requests : 0);
    stats.AddLayer("vm.fault_ahead.unused_ratio",
                   d.fa_pages ? double(d.fa_unused) / d.fa_pages : 0);
    stats.AddLayer("pager.write_msgs_per_dirty_page",
                   double(d.write_msgs) / double(cycles * kWritePages));
    stats.AddLayer("net.msgs_per_page", d.net_msgs / pages);
    stats.AddLayer("net.bytes_per_page", d.net_bytes / pages);
    stats.AddLayer("net.fragments_per_page", d.net_frags / pages);
    stats.AddLayer("net.vtime_us_per_page", d.net_vtime_ns / 1e3 / pages);
  }

  bool FinalCheck(std::string* why) override {
    if (setup_failures_ != 0) {
      *why = std::to_string(setup_failures_) + " warm-up ops failed";
      return false;
    }
    if (pager_->stray_writes() != 0) {
      *why = std::to_string(pager_->stray_writes()) + " pages outside the write region came back";
      return false;
    }
    if (cycle_mismatches_ != 0) {
      *why = std::to_string(cycle_mismatches_) +
             " cycles differed from the first in message, byte, fragment or modelled-time counts";
      return false;
    }
    if (unmatched_upcalls_ != 0) {
      std::printf("# %llu traced manager upcalls matched no client fault\n",
                  (unsigned long long)unmatched_upcalls_);
    }
    if (reported_) {
      return true;
    }
    reported_ = true;
    std::printf("# every cycle repeated exactly: %llu requests, %llu provides, %llu data writes, "
                "%llu net msgs, %llu net bytes, %llu fragments, %.3f modelled us per cycle\n",
                (unsigned long long)reference_->requests, (unsigned long long)reference_->provides,
                (unsigned long long)reference_->write_msgs,
                (unsigned long long)reference_->net_msgs,
                (unsigned long long)reference_->net_bytes,
                (unsigned long long)reference_->net_frags, reference_->vtime_ns / 1e3);
    return true;
  }

 private:
  CycleCounts Snapshot() {
    CycleCounts c;
    const StreamPager::Counts p = pager_->counts();
    c.requests = p.requests;
    c.provides = p.provides;
    c.write_msgs = p.write_msgs;
    c.pages_written = p.pages_written;
    c.net_msgs = link_->messages_forwarded();
    c.net_bytes = link_->bytes_forwarded();
    c.net_frags = link_->fragments_sent();
    c.net_vtime_ns = net_clock_.NowNs();
    c.vtime_ns = net_clock_.NowNs() + host_a_->clock().NowNs() + host_b_->clock().NowNs();
    const VmStatistics st = host_b_->vm().Statistics();
    c.fa_requests = st.fault_ahead_requests;
    c.fa_pages = st.fault_ahead_pages;
    c.fa_unused = st.fault_ahead_unused;
    c.faults = st.faults;
    c.fault_lock_ops = st.fault_lock_ops;
    return c;
  }

  // One page access (an op), checked against what the store must return.
  void Access(Task& task, VmOffset addr, uint64_t serial, VmOffset object_offset, bool is_write,
              uint64_t value, SpanLog* log, PhaseStats& stats) {
    uint64_t word = value;
    KernReturn kr;
    const uint64_t t0 = NowNs();
    if (log == nullptr) {
      kr = is_write ? task.Write(addr, &word, sizeof(word)) : task.Read(addr, &word, sizeof(word));
    } else {
      const uint64_t op = log->NextOpId();
      const uint64_t root = log->NextSpanId();
      FaultStamp fault;
      kr = TracedAccess(task, addr, &word, sizeof(word), is_write, kFaultPager, *log, op, root,
                        &fault);
      log->Record(root, kOp, op, 0, t0, NowNs());
      if (fault.id != 0) {
        faults_[(serial << 32) | (object_offset / kPage)] = FaultRecord{op, fault};
      }
    }
    const uint64_t t1 = NowNs();
    ++stats.attempted;
    if (kr == KernReturn::kSuccess && word == value) {
      stats.latency.Record(t1 - t0);
    } else {
      ++stats.failed;
    }
  }

  void Cycle(SpanLog* log, PhaseStats& stats) {
    const CycleCounts before = Snapshot();
    const uint64_t serial = ++serial_;
    Task& task = *task_;
    const SendRight object = pager_->NewObject(serial);
    const SendRight proxy = link_->ProxyForB(object);
    const VmSize parts[3] = {kScanPages, kStridePages, kWritePages};
    VmOffset base[3] = {0, 0, 0};
    VmOffset first_page[3] = {0, kScanPages, kScanPages + kStridePages};
    for (int i = 0; i < 3; ++i) {
      Result<VmOffset> r = task.VmAllocateWithPager(parts[i] * kPage, proxy, first_page[i] * kPage);
      if (!r.ok()) {
        ++stats.attempted;
        ++stats.failed;
        return;
      }
      base[i] = r.value();
    }

    for (VmSize i = 0; i < kScanPages; ++i) {
      const VmSize k = scan_word_[i];
      Access(task, base[0] + i * kPage + k * 8, serial, i * kPage, false,
             StoreWord(seed_, serial, i, k), log, stats);
    }
    for (VmSize j = 0; j < kStridePages; ++j) {
      const VmSize i = stride_order_[j];
      const VmSize k = stride_word_[j];
      const VmOffset page = first_page[1] + i;
      Access(task, base[1] + i * kPage + k * 8, serial, page * kPage, false,
             StoreWord(seed_, serial, page, k), log, stats);
    }
    for (VmSize i = 0; i < kWritePages; ++i) {
      const VmOffset page = first_page[2] + i;
      Access(task, base[2] + i * kPage + write_word_[i] * 8, serial, page * kPage, true,
             WrittenValue(serial, i), log, stats);
    }

    const uint64_t f0 = NowNs();
    const bool flushed = pager_->FlushAndWait(serial);
    if (log != nullptr) {
      log->Record(kFlush, 0, 0, f0, NowNs());
    }
    // Every dirty word must have reached the manager, inside an intact page.
    uint64_t lost = flushed ? 0 : kWritePages;
    for (VmSize i = 0; flushed && i < kWritePages; ++i) {
      const VmSize k = write_word_[i];
      const VmSize other = (k + 1) % kWords;
      if (pager_->WrittenWord(serial, i, k) != WrittenValue(serial, i) ||
          pager_->WrittenWord(serial, i, other) !=
              StoreWord(seed_, serial, first_page[2] + i, other)) {
        ++lost;
      }
    }
    stats.attempted += lost;
    stats.failed += lost;

    for (int i = 0; i < 3; ++i) {
      if (task.VmDeallocate(base[i], parts[i] * kPage) != KernReturn::kSuccess) {
        ++stats.attempted;
        ++stats.failed;
      }
    }
    pager_->DestroyObject(serial, object);
    if (log != nullptr) {
      JoinUpcalls(*log);
    }

    const CycleCounts d = Snapshot() - before;
    if (!reference_.has_value()) {
      reference_ = d;
    } else if (!(d == *reference_)) {
      ++cycle_mismatches_;
    }
  }

  uint64_t WrittenValue(uint64_t serial, VmSize index) const {
    return SplitMix64(seed_ ^ 0x3717'0000'0000'0000ull ^ (serial << 24) ^ index);
  }

  // Joins each manager upcall to the client fault that caused it and
  // records the request-wait, upcall and provide-wait spans under it.
  void JoinUpcalls(SpanLog& log) {
    for (const StreamPager::Upcall& u : pager_->TakeUpcalls()) {
      auto it = faults_.find((u.serial << 32) | (u.offset / kPage));
      if (it == faults_.end()) {
        ++unmatched_upcalls_;
        continue;
      }
      const FaultRecord& f = it->second;
      log.Record(kPagerRequestWait, f.op, f.fault.id, f.fault.start_ns, u.start_ns);
      log.Record(kPagerUpcall, f.op, f.fault.id, u.start_ns, u.end_ns);
      log.Record(kPagerProvideWait, f.op, f.fault.id, u.end_ns, f.fault.end_ns);
    }
    faults_.clear();
  }

  const uint64_t seed_;
  std::vector<VmSize> scan_word_;
  std::vector<VmSize> stride_order_;
  std::vector<VmSize> stride_word_;
  std::vector<VmSize> write_word_;
  std::string mask_;

  uint64_t serial_ = 0;
  uint64_t setup_failures_ = 0;
  bool reported_ = false;  // The repeat summary prints once per run.
  std::optional<CycleCounts> reference_;
  uint64_t cycle_mismatches_ = 0;
  std::unordered_map<uint64_t, FaultRecord> faults_;  // This cycle's, by (serial, page).
  uint64_t unmatched_upcalls_ = 0;

  SimClock net_clock_;
  std::unique_ptr<Kernel> host_a_;
  std::unique_ptr<Kernel> host_b_;
  std::unique_ptr<NetLink> link_;
  std::unique_ptr<StreamPager> pager_;
  std::shared_ptr<Task> task_;
};

}  // namespace

std::unique_ptr<Workload> MakePagerStream(uint64_t seed) {
  return std::make_unique<PagerStream>(seed);
}

}  // namespace perfbench
