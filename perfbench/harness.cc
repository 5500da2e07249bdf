#include "perfbench/harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <fstream>

#include "src/kernel/kernel.h"

namespace perfbench {

// --- spans --------------------------------------------------------------------

const char* LayerName(Layer layer) {
  static constexpr const char* kNames[kLayerCount] = {
      "op",
      "hw.pmap.access",
      "hw.pmap.miss",
      "vm.fault.zero_fill",
      "vm.fault.pager",
      "vm.fault",
      "vm.map.allocate",
      "vm.map.deallocate",
      "pager.upcall",
      "pager.request_wait",
      "pager.provide_wait",
      "vm.flush",
      "mfs.read",
      "mfs.write",
      "camelot.write",
      "camelot.commit",
      "camelot.abort",
      "shm.board_rmw",
  };
  return kNames[layer];
}

SpanLog::SpanLog(uint32_t thread_index, size_t raw_cap)
    : thread_index_(thread_index), raw_cap_(raw_cap) {
  raw_.reserve(raw_cap_);
}

void SpanLog::Record(uint64_t id, Layer layer, uint64_t op, uint64_t parent, uint64_t start_ns,
                     uint64_t end_ns) {
  if (hist_[layer] == nullptr) {
    hist_[layer] = std::make_unique<mach::Histogram>();
  }
  hist_[layer]->Record(end_ns - start_ns);
  if (raw_.size() < raw_cap_) {
    raw_.push_back(Span{id, parent, op, start_ns, end_ns, layer});
  }
}

SpanLog* Tracer::NewLog() {
  std::lock_guard<std::mutex> g(mu_);
  logs_.push_back(
      std::make_unique<SpanLog>(static_cast<uint32_t>(logs_.size() + 1), kRawSpansPerThread));
  return logs_.back().get();
}

mach::Histogram Tracer::Merged(Layer layer) const {
  std::lock_guard<std::mutex> g(mu_);
  mach::Histogram merged;
  for (const auto& log : logs_) {
    if (const mach::Histogram* h = log->histogram(layer)) {
      merged.Merge(*h);
    }
  }
  return merged;
}

bool Tracer::WriteSpans(const std::string& path) const {
  std::lock_guard<std::mutex> g(mu_);
  std::ofstream out(path, std::ios::trunc);
  for (const auto& log : logs_) {
    for (const Span& s : log->raw()) {
      out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"op\":" << s.op
          << ",\"name\":\"" << LayerName(s.layer) << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << "}\n";
    }
  }
  return static_cast<bool>(out);
}

mach::KernReturn TracedAccess(mach::Task& task, mach::VmOffset addr, void* buf, mach::VmSize len,
                              bool is_write, Layer fault_layer, SpanLog& log, uint64_t op,
                              uint64_t parent, FaultStamp* fault) {
  mach::TaskVm& vm = task.vm_context();
  mach::VmSystem& system = task.kernel().vm();
  for (int tries = 0;; ++tries) {
    const uint64_t a0 = NowNs();
    const mach::Pmap::AccessResult ar = vm.pmap->Access(addr, buf, len, is_write);
    const uint64_t a1 = NowNs();
    if (ar.fault == mach::Pmap::FaultKind::kNone) {
      log.Record(kPmapHit, op, parent, a0, a1);
      return mach::KernReturn::kSuccess;
    }
    log.Record(kPmapMiss, op, parent, a0, a1);
    const mach::KernReturn kr =
        system.Fault(vm, ar.fault_addr, is_write ? mach::kVmProtWrite : mach::kVmProtRead);
    const uint64_t f1 = NowNs();
    const uint64_t id = log.Record(fault_layer, op, parent, a1, f1);
    if (fault != nullptr) {
      *fault = FaultStamp{id, a1, f1};
    }
    if (!mach::IsOk(kr)) {
      return kr;
    }
    if (tries >= 100) {  // UserAccess's bound on fault/steal retries.
      return mach::KernReturn::kFailure;
    }
  }
}

// --- process usage and placement ------------------------------------------------

Usage SampleUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
  u.voluntary_csw = static_cast<uint64_t>(ru.ru_nvcsw);
  u.max_rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
  return u;
}

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return cpus;
  }
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) {
      cpus.push_back(c);
    }
  }
  return cpus;
}

bool PinToLastCpu(std::string* mask, std::string* why) {
  const std::vector<int> cpus = AllowedCpus();
  cpu_set_t set;
  CPU_ZERO(&set);
  if (!cpus.empty()) {
    CPU_SET(cpus.back(), &set);
  }
  if (cpus.empty() || sched_setaffinity(0, sizeof(set), &set) != 0) {
    *why = "cannot pin the process to one CPU";
    return false;
  }
  *mask = "process pinned to cpu " + std::to_string(cpus.back());
  return true;
}

std::string CpuListString(const std::vector<int>& cpus) {
  std::string s;
  for (int c : cpus) {
    if (!s.empty()) {
      s += ',';
    }
    s += std::to_string(c);
  }
  return s;
}

}  // namespace perfbench
