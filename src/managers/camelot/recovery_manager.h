// The Camelot-style recovery manager (§8.3): a data manager that keeps
// permanent, failure-atomic objects in virtual memory using write-ahead
// logging.
//
// Servers map *recoverable segments* into their address spaces and operate
// on them as ordinary memory. The transaction library records undo/redo
// images in the log before each write. The recovery manager is the data
// manager for segment memory objects, and enforces the WAL rule exactly
// where the paper says Camelot does: "When the disk manager receives a
// pager_flush_request from the kernel, it verifies that the proper log
// records have been written before writing the specified pages to disk."
// Here that check runs on every pager_data_write (flush or eviction).
//
// Benefits reproduced (§8.3): clients access data by mapping; no
// client-side page replacement; physical memory use adapts to load;
// recoverable data is written directly to permanent backing storage.

#ifndef SRC_MANAGERS_CAMELOT_RECOVERY_MANAGER_H_
#define SRC_MANAGERS_CAMELOT_RECOVERY_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/hw/sim_disk.h"
#include "src/kernel/task.h"
#include "src/managers/camelot/wal.h"
#include "src/pager/data_manager.h"

namespace mach {

class RecoveryManager : public DataManager {
 public:
  // `data_disk` holds segment pages (block size == page size); `log_disk`
  // holds the write-ahead log.
  RecoveryManager(SimDisk* data_disk, SimDisk* log_disk, VmSize page_size);
  // Stops the service thread before any member it dispatches into dies.
  ~RecoveryManager() override;

  // Creates or reopens a named recoverable segment; returns its memory
  // object (map with vm_allocate_with_pager).
  SendRight OpenSegment(const std::string& name, VmSize size);
  uint64_t SegmentId(const std::string& name);

  // --- transaction interface (used by the Transaction library) ---------
  uint64_t BeginTransaction();
  // Records undo/redo images. Must be called *before* the memory write.
  void LogUpdate(uint64_t tid, uint64_t segment_id, VmOffset offset,
                 std::vector<std::byte> old_data, std::vector<std::byte> new_data);
  void CommitTransaction(uint64_t tid);  // Forces the log.
  void AbortTransaction(uint64_t tid);
  // Records an undo action taken during abort (redo-only compensation).
  void LogCompensation(uint64_t tid, uint64_t segment_id, VmOffset offset,
                       std::vector<std::byte> restored);

  // --- crash / recovery --------------------------------------------------
  // Drops the volatile log tail (the kernel-cache half of a crash is
  // modelled by discarding the client kernel/task).
  void SimulateCrash();
  // Redoes committed transactions and undoes losers against the data disk.
  void Recover();

  // Statistics.
  uint64_t log_force_count() const;
  uint64_t wal_enforced_count() const { return wal_enforced_.load(std::memory_order_relaxed); }
  uint64_t pageout_count() const { return pageouts_.load(std::memory_order_relaxed); }
  uint64_t io_error_count() const { return io_errors_.load(std::memory_order_relaxed); }
  // Pageouts deferred (page stashed in memory) because completing them
  // would have violated the WAL rule or failed on the data disk.
  uint64_t deferred_pageout_count() const { return deferred_.load(std::memory_order_relaxed); }

 protected:
  void OnDataRequest(uint64_t object_port_id, uint64_t cookie, PagerDataRequestArgs args) override;
  void OnDataWrite(uint64_t object_port_id, uint64_t cookie, PagerDataWriteArgs args) override;

 private:
  struct Segment {
    uint64_t id = 0;
    VmSize size = 0;
    SendRight object;
    std::vector<uint32_t> blocks;  // Per page; UINT32_MAX = hole (zeros).
    // Highest LSN that touched each page (for the WAL check).
    std::unordered_map<VmOffset, uint64_t> page_lsn;
    // Pageouts the manager could not complete — the WAL force or the data
    // write failed — keyed by page offset. The kernel has already evicted
    // these pages, so this stash is the only remaining copy: reads are
    // served from it and later pageouts/commits retry the write. Volatile
    // (lost on crash), like the log tail.
    std::map<VmOffset, std::vector<std::byte>> deferred;
  };

  Segment* SegmentByCookie(uint64_t cookie);
  uint32_t EnsureBlock(Segment* segment, size_t page_index);
  // One page's WAL check + in-place write. Returns true only when the page
  // is on the data disk with its log records durable. Caller holds mu_.
  bool TryWritePage(Segment* segment, VmOffset off, const std::byte* src);
  // Retries every deferred pageout of `segment`. Caller holds mu_.
  void FlushDeferred(Segment* segment);
  void ApplyImage(uint64_t segment_id, VmOffset offset, const std::vector<std::byte>& image);

  // The segment directory (names, ids, page->block maps) is persisted in
  // reserved blocks at the front of the data disk, so a rebooted manager
  // finds its segments again. Caller holds mu_.
  void SaveDirectory();
  void LoadDirectory();

  const VmSize page_size_;
  SimDisk* const data_disk_;
  WriteAheadLog log_;

  std::mutex mu_;
  std::map<std::string, Segment> segments_;
  uint64_t next_segment_id_ = 1;
  uint64_t next_tid_ = 1;
  std::set<uint64_t> active_tids_;

  std::atomic<uint64_t> wal_enforced_{0};
  std::atomic<uint64_t> pageouts_{0};
  std::atomic<uint64_t> io_errors_{0};
  std::atomic<uint64_t> deferred_{0};
};

// Client-side failure-atomic transactions over mapped recoverable segments.
class RecoverableSegment {
 public:
  RecoverableSegment() = default;
  RecoverableSegment(uint64_t id, VmOffset base, VmSize size, Task* task)
      : id_(id), base_(base), size_(size), task_(task) {}

  uint64_t id() const { return id_; }
  VmOffset base() const { return base_; }
  VmSize size() const { return size_; }
  Task* task() const { return task_; }

  // Maps the named segment into `task`.
  static Result<RecoverableSegment> Map(RecoveryManager* rm, Task* task,
                                        const std::string& name, VmSize size);

 private:
  uint64_t id_ = 0;
  VmOffset base_ = 0;
  VmSize size_ = 0;
  Task* task_ = nullptr;
};

class Transaction {
 public:
  explicit Transaction(RecoveryManager* rm) : rm_(rm), tid_(rm->BeginTransaction()) {}

  uint64_t tid() const { return tid_; }

  // Failure-atomic write: logs undo/redo, then writes through the mapping.
  KernReturn Write(const RecoverableSegment& segment, VmOffset offset, const void* data,
                   VmSize len);

  KernReturn Commit();
  KernReturn Abort();  // Restores the old values through the mapping.

 private:
  struct Undo {
    RecoverableSegment segment;
    VmOffset offset;
    std::vector<std::byte> old_data;
  };

  RecoveryManager* const rm_;
  const uint64_t tid_;
  bool done_ = false;
  std::vector<Undo> undo_log_;
};

}  // namespace mach

#endif  // SRC_MANAGERS_CAMELOT_RECOVERY_MANAGER_H_
