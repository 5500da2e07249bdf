// Simulated secondary storage. A flat array of fixed-size blocks with a
// configurable latency model charged to a SimClock, plus operation counters.
//
// The default pager, the filesystem manager and the Camelot disk manager all
// sit on SimDisk. §6.2.2: "there are no fundamental assumptions made about
// the nature of secondary storage" — the latency model is the only
// device-specific behaviour, and it is pluggable.
//
// I/O can fail: out-of-range access returns kInvalidArgument, a block marked
// bad returns kFailure permanently, and a FaultInjector (points "disk.read" /
// "disk.write") can fail any individual transfer transiently. Clients must
// check the returned KernReturn.

#ifndef SRC_HW_SIM_DISK_H_
#define SRC_HW_SIM_DISK_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "src/base/fault_injector.h"
#include "src/base/kern_return.h"
#include "src/base/sim_clock.h"
#include "src/base/vm_types.h"

namespace mach {

struct DiskLatencyModel {
  // Charged once per operation (seek + rotational average).
  uint64_t per_op_ns = 20'000'000;  // 20 ms: a late-80s winchester disk.
  // Charged per byte transferred (~1 MB/s transfer rate by default).
  uint64_t per_byte_ns = 1'000;
};

class SimDisk {
 public:
  // Fault points consulted on every transfer when an injector is attached.
  static constexpr const char* kFaultRead = "disk.read";
  static constexpr const char* kFaultWrite = "disk.write";

  SimDisk(uint32_t block_count, VmSize block_size, SimClock* clock,
          DiskLatencyModel latency = DiskLatencyModel{}, FaultInjector* injector = nullptr);

  SimDisk(const SimDisk&) = delete;
  SimDisk& operator=(const SimDisk&) = delete;

  VmSize block_size() const { return block_size_; }
  uint32_t block_count() const { return block_count_; }

  // Attach/detach a fault injector after construction. A transfer in
  // flight may still consult the previous one, which must outlive it: the
  // manager that writes may run in any thread that pages.
  void set_fault_injector(FaultInjector* injector) { injector_.store(injector); }

  // Reads/writes one whole block. Returns kInvalidArgument for out-of-range
  // blocks, kFailure for bad blocks or injected I/O errors.
  KernReturn ReadBlock(uint32_t block, void* dst);
  KernReturn WriteBlock(uint32_t block, const void* src);

  // Partial-block access (used by log managers). Still charged as one op.
  KernReturn ReadAt(uint32_t block, VmOffset offset, void* dst, VmSize len);
  KernReturn WriteAt(uint32_t block, VmOffset offset, const void* src, VmSize len);

  // Permanent media failure for one block: every subsequent transfer touching
  // it fails until ClearBadBlock.
  void MarkBadBlock(uint32_t block);
  void ClearBadBlock(uint32_t block);

  // Simple block allocator for managers that want one.
  // Returns UINT32_MAX when the disk is full.
  uint32_t AllocBlock();
  void FreeBlock(uint32_t block);
  uint32_t free_blocks() const;

  // Statistics for the benchmarks (§9 counts I/O operations).
  uint64_t read_ops() const { return read_ops_.load(std::memory_order_relaxed); }
  uint64_t write_ops() const { return write_ops_.load(std::memory_order_relaxed); }
  uint64_t total_ops() const { return read_ops() + write_ops(); }
  uint64_t bytes_transferred() const { return bytes_.load(std::memory_order_relaxed); }
  uint64_t read_errors() const { return read_errors_.load(std::memory_order_relaxed); }
  uint64_t write_errors() const { return write_errors_.load(std::memory_order_relaxed); }
  void ResetStats();

 private:
  void Charge(VmSize bytes);
  // Range check + bad-block check + injector consultation, shared by all
  // four transfer entry points. Charges the op (a failed transfer still
  // costs the seek).
  KernReturn CheckTransfer(uint32_t block, VmOffset offset, VmSize len, bool is_write);

  const uint32_t block_count_;
  const VmSize block_size_;
  SimClock* const clock_;
  const DiskLatencyModel latency_;
  std::atomic<FaultInjector*> injector_;

  mutable std::mutex mu_;
  std::vector<std::byte> data_;
  std::vector<uint32_t> free_list_;
  std::unordered_set<uint32_t> bad_blocks_;

  std::atomic<uint64_t> read_ops_{0};
  std::atomic<uint64_t> write_ops_{0};
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> read_errors_{0};
  std::atomic<uint64_t> write_errors_{0};
};

}  // namespace mach

#endif  // SRC_HW_SIM_DISK_H_
