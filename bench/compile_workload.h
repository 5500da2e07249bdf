// The synthetic compilation workload behind the §9 claims (E1/E2).
//
// A "build" of N modules: each module reads its source file and a set of
// shared headers (headers are re-read by every module — the re-reference
// pattern that makes caching matter), then writes an object file roughly as
// large as the source. "Compilation" itself is a trivial checksum pass so
// the benchmark isolates the I/O system.
//
// Two I/O paths over identical SimDisks:
//   * Mach path: mapped files through the external-pager filesystem — the
//     whole of physical memory caches file pages (pager_cache).
//   * Traditional path: read/write with user<->cache copies through a
//     buffer cache fixed at 10% of physical memory (§9).

#ifndef BENCH_COMPILE_WORKLOAD_H_
#define BENCH_COMPILE_WORKLOAD_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/kernel/task.h"
#include "src/managers/fs/fs_server.h"
#include "src/managers/mfs/mapped_file.h"
#include "src/managers/mfs/traditional_io.h"

namespace mach_bench {

using namespace mach;

struct CompileConfig {
  uint32_t frames = 1024;      // 4 MB of physical memory.
  VmSize page_size = 4096;
  int modules = 24;            // Source files per build.
  VmSize source_pages = 6;     // Pages per source file.
  int headers = 12;            // Shared headers, read by every module.
  VmSize header_pages = 4;     // Pages per header.
  DiskLatencyModel disk;       // Default: 20ms/op winchester.
};

// The compiler's own CPU time, modelled per page processed. §9's 2x is an
// end-to-end compile-time ratio: on the SunOS side of the comparison, I/O
// and compute were comparable halves of a cached small build — the cache
// removes (most of) the I/O half. 5 ms/page is a mid-80s workstation
// compiler pass over 4 KB of source.
inline constexpr double kCompileCpuMsPerPage = 5.0;

// The modelled compute of one build (E1), beside its SimDisk I/O time.
inline double CompileCpuMs(const CompileConfig& c) {
  const double pages_per_module =
      c.source_pages + c.headers * c.header_pages + c.source_pages /* object out */;
  return c.modules * pages_per_module * kCompileCpuMsPerPage;
}

struct CompileResult {
  uint64_t disk_ops = 0;       // Total disk operations for the build.
  uint64_t virtual_ns = 0;     // Simulated elapsed I/O time.
  uint64_t checksum = 0;       // Workload output (keeps passes honest).
};

// --- Mach mapped-file build ----------------------------------------------------

class MachBuildEnv {
 public:
  explicit MachBuildEnv(const CompileConfig& config) : config_(config) {
    Kernel::Config kc;
    kc.name = "build-host";
    kc.frames = config.frames;
    kc.page_size = config.page_size;
    kc.disk_latency = DiskLatencyModel{0, 0};  // Paging disk: not the subject.
    kernel_ = std::make_unique<Kernel>(kc);
    fs_disk_ = std::make_unique<SimDisk>(16384, config.page_size, &kernel_->clock(),
                                         config.disk);
    fs_ = std::make_unique<FsServer>(kernel_.get(), fs_disk_.get());
    fs_->StartServer();
    task_ = kernel_->CreateTask(nullptr, "cc");
    PopulateSources();
  }
  ~MachBuildEnv() {
    task_.reset();
    fs_->StopServer();
  }

  CompileResult Build() {
    uint64_t ops_before = fs_disk_->total_ops();
    uint64_t ns_before = kernel_->clock().NowNs();
    CompileResult result;
    const VmSize ps = config_.page_size;
    std::vector<std::byte> buf(ps);
    for (int m = 0; m < config_.modules; ++m) {
      uint64_t checksum = 0;
      // Read the module source.
      MappedFile src =
          MappedFile::Open(task_.get(), fs_->service_port(), SrcName(m)).value();
      for (VmSize off = 0; off < src.size(); off += ps) {
        Result<VmSize> n = src.ReadAt(off, buf.data(), ps);
        checksum = Mix(checksum, buf.data(), n.value_or(0));
      }
      src.Close();
      // Read every header (the shared, re-referenced working set).
      for (int h = 0; h < config_.headers; ++h) {
        MappedFile header =
            MappedFile::Open(task_.get(), fs_->service_port(), HeaderName(h)).value();
        for (VmSize off = 0; off < header.size(); off += ps) {
          Result<VmSize> n = header.ReadAt(off, buf.data(), ps);
          checksum = Mix(checksum, buf.data(), n.value_or(0));
        }
        header.Close();
      }
      // Write the object file.
      MappedFile obj = MappedFile::Open(task_.get(), fs_->service_port(), ObjName(m),
                                        config_.source_pages * ps)
                           .value();
      for (VmSize off = 0; off < config_.source_pages * ps; off += ps) {
        FillPage(buf.data(), ps, checksum + off);
        obj.WriteAt(off, buf.data(), ps);
      }
      // Lazy close: dirty object pages stay in the page cache and reach the
      // disk through background pageout, off the build's critical path —
      // Mach's write-back behaviour, and half of the §9 advantage.
      obj.CloseLazy();
      result.checksum ^= checksum;
    }
    result.disk_ops = fs_disk_->total_ops() - ops_before;
    result.virtual_ns = kernel_->clock().NowNs() - ns_before;
    return result;
  }

 private:
  void PopulateSources() {
    FsClient client(task_.get(), fs_->service_port());
    const VmSize ps = config_.page_size;
    std::vector<std::byte> buf;
    auto put = [&](const std::string& name, VmSize pages, uint64_t seed) {
      client.Create(name);
      buf.assign(pages * ps, std::byte{0});
      for (VmSize off = 0; off < buf.size(); off += 8) {
        uint64_t v = seed + off;
        std::memcpy(buf.data() + off, &v, sizeof(v));
      }
      VmOffset mem = task_->VmAllocate(pages * ps).value();
      task_->Write(mem, buf.data(), buf.size());
      client.WriteFile(name, mem, buf.size());
      task_->VmDeallocate(mem, pages * ps);
    };
    for (int m = 0; m < config_.modules; ++m) {
      put(SrcName(m), config_.source_pages, 0x5000 + m);
      client.Create(ObjName(m));
    }
    for (int h = 0; h < config_.headers; ++h) {
      put(HeaderName(h), config_.header_pages, 0x9000 + h);
    }
  }

  static std::string SrcName(int m) { return "src" + std::to_string(m) + ".c"; }
  static std::string ObjName(int m) { return "src" + std::to_string(m) + ".o"; }
  static std::string HeaderName(int h) { return "hdr" + std::to_string(h) + ".h"; }

  static uint64_t Mix(uint64_t acc, const std::byte* data, VmSize n) {
    for (VmSize i = 0; i < n; i += 64) {
      acc = acc * 1099511628211ull + static_cast<uint8_t>(data[i]);
    }
    return acc;
  }
  static void FillPage(std::byte* data, VmSize n, uint64_t seed) {
    for (VmSize i = 0; i < n; i += 8) {
      uint64_t v = seed + i;
      std::memcpy(data + i, &v, sizeof(v));
    }
  }

  CompileConfig config_;
  std::unique_ptr<Kernel> kernel_;
  std::unique_ptr<SimDisk> fs_disk_;
  std::unique_ptr<FsServer> fs_;
  std::shared_ptr<Task> task_;
};

// --- traditional UNIX build ------------------------------------------------------

class TraditionalBuildEnv {
 public:
  explicit TraditionalBuildEnv(const CompileConfig& config) : config_(config) {
    disk_ = std::make_unique<SimDisk>(16384, config.page_size, &clock_, config.disk);
    // "normally 10% of physical memory in a Berkeley UNIX system" (§9).
    fs_ = std::make_unique<TraditionalFileSystem>(disk_.get(), config.frames / 10);
    PopulateSources();
  }

  CompileResult Build() {
    uint64_t ops_before = disk_->total_ops();
    uint64_t ns_before = clock_.NowNs();
    CompileResult result;
    const VmSize ps = config_.page_size;
    std::vector<std::byte> buf(ps);
    for (int m = 0; m < config_.modules; ++m) {
      uint64_t checksum = 0;
      VmSize src_size = config_.source_pages * ps;
      for (VmSize off = 0; off < src_size; off += ps) {
        Result<VmSize> n = fs_->Read(SrcName(m), off, buf.data(), ps);
        checksum = Mix(checksum, buf.data(), n.value_or(0));
      }
      for (int h = 0; h < config_.headers; ++h) {
        VmSize hdr_size = config_.header_pages * ps;
        for (VmSize off = 0; off < hdr_size; off += ps) {
          Result<VmSize> n = fs_->Read(HeaderName(h), off, buf.data(), ps);
          checksum = Mix(checksum, buf.data(), n.value_or(0));
        }
      }
      for (VmSize off = 0; off < src_size; off += ps) {
        FillPage(buf.data(), ps, checksum + off);
        fs_->Write(ObjName(m), off, buf.data(), ps);
      }
      result.checksum ^= checksum;
    }
    result.disk_ops = disk_->total_ops() - ops_before;
    result.virtual_ns = clock_.NowNs() - ns_before;
    return result;
  }

 private:
  void PopulateSources() {
    const VmSize ps = config_.page_size;
    std::vector<std::byte> buf(ps);
    auto put = [&](const std::string& name, VmSize pages, uint64_t seed) {
      fs_->Create(name);
      for (VmSize p = 0; p < pages; ++p) {
        for (VmSize i = 0; i < ps; i += 8) {
          uint64_t v = seed + p * ps + i;
          std::memcpy(buf.data() + i, &v, sizeof(v));
        }
        fs_->Write(name, p * ps, buf.data(), ps);
      }
    };
    for (int m = 0; m < config_.modules; ++m) {
      put(SrcName(m), config_.source_pages, 0x5000 + m);
      fs_->Create(ObjName(m));
    }
    for (int h = 0; h < config_.headers; ++h) {
      put(HeaderName(h), config_.header_pages, 0x9000 + h);
    }
  }

  static std::string SrcName(int m) { return "src" + std::to_string(m) + ".c"; }
  static std::string ObjName(int m) { return "src" + std::to_string(m) + ".o"; }
  static std::string HeaderName(int h) { return "hdr" + std::to_string(h) + ".h"; }
  static uint64_t Mix(uint64_t acc, const std::byte* data, VmSize n) {
    for (VmSize i = 0; i < n; i += 64) {
      acc = acc * 1099511628211ull + static_cast<uint8_t>(data[i]);
    }
    return acc;
  }
  static void FillPage(std::byte* data, VmSize n, uint64_t seed) {
    for (VmSize i = 0; i < n; i += 8) {
      uint64_t v = seed + i;
      std::memcpy(data + i, &v, sizeof(v));
    }
  }

  CompileConfig config_;
  SimClock clock_;
  std::unique_ptr<SimDisk> disk_;
  std::unique_ptr<TraditionalFileSystem> fs_;
};

}  // namespace mach_bench

#endif  // BENCH_COMPILE_WORKLOAD_H_
