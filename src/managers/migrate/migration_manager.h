// Copy-on-reference task migration (§8.2, after Zayas): the migration
// manager creates a memory object representing each region of the original
// task's address space and maps it into a new task on the destination host.
// The destination kernel treats page faults on the migrated task by making
// paging requests on that memory object, which this manager satisfies by
// reading the source task's memory.
//
// Strategies (§8.2): pure demand (copy-on-reference), pre-paging the first
// pages of each region for tasks with predictable access patterns, and an
// eager baseline that copies the whole address space before resuming.

#ifndef SRC_MANAGERS_MIGRATE_MIGRATION_MANAGER_H_
#define SRC_MANAGERS_MIGRATE_MIGRATION_MANAGER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/kernel/task.h"
#include "src/pager/data_manager.h"

namespace mach {

class MigrationManager : public DataManager {
 public:
  enum class Strategy {
    kCopyOnReference,  // Pure demand paging against the source.
    kPrePage,          // Demand + push the first N pages of each region.
    kEager,            // Copy everything before the new task runs.
  };

  struct Options {
    Strategy strategy = Strategy::kCopyOnReference;
    size_t prepage_pages = 4;  // For kPrePage.
    // Applied to each memory object before the destination kernel maps it;
    // use a NetLink proxy exporter to put the paging traffic on the wire.
    std::function<SendRight(SendRight)> export_port;
  };

  MigrationManager() : DataManager("migrator") {}
  // Stops the service thread before the region table it dispatches into
  // dies.
  ~MigrationManager() override { Stop(); }

  // Migrates `source`'s address space into a fresh task on `destination`.
  // The source task is suspended and must outlive the migrated task while
  // copy-on-reference dependencies remain (the residual-dependency caveat
  // of Zayas' design). If the transport to the destination dies while the
  // transfer is in flight (an exported port observed dead, a pre-page push
  // failing with port death, or the destination kernel's request port dying
  // under the manager — e.g. a NetLink declaring the peer dead), the
  // migration is unwound — regions created by this call are released, the
  // source is resumed — and kMigrationAborted is returned; the caller may
  // retry once the link heals.
  Result<std::shared_ptr<Task>> Migrate(const std::shared_ptr<Task>& source,
                                        Kernel* destination, const Options& options);

  // Statistics: how much data actually moved.
  uint64_t pages_transferred() const { return pages_transferred_.load(std::memory_order_relaxed); }
  uint64_t demand_requests() const { return demand_requests_.load(std::memory_order_relaxed); }
  uint64_t migrations_aborted() const {
    return migrations_aborted_.load(std::memory_order_relaxed);
  }

 protected:
  void OnInit(uint64_t object_port_id, uint64_t cookie, PagerInitArgs args) override;
  void OnDataRequest(uint64_t object_port_id, uint64_t cookie, PagerDataRequestArgs args) override;
  void OnDataWrite(uint64_t object_port_id, uint64_t cookie, PagerDataWriteArgs args) override;
  // A request port the destination kernel gave us died: the kernel (or the
  // link carrying it) is gone. Mark the affected regions aborted so in-
  // flight Migrate calls unwind and stray data requests answer unavailable.
  void OnPortDeath(uint64_t port_id) override;

 private:
  struct MigratedRegion {
    std::shared_ptr<Task> source;
    VmOffset source_base = 0;
    VmSize size = 0;
    uint64_t object_port_id = 0;  // For release on abort.
    SendRight request_port;  // Destination kernel's request port (from init).
    bool aborted = false;    // Transport to the destination died.
    // Pages written back by the destination kernel (its evictions): served
    // from here in preference to the (now stale) source.
    std::unordered_map<VmOffset, std::vector<std::byte>> writebacks;
  };

  bool RegionAborted(uint64_t cookie);
  // Unwinds a failed Migrate call: releases the memory objects and region
  // entries it created and resumes the source.
  KernReturn AbortMigration(const std::shared_ptr<Task>& source,
                            const std::vector<uint64_t>& cookies, KernReturn status);

  std::mutex mu_;
  std::unordered_map<uint64_t, MigratedRegion> regions_;  // by cookie
  uint64_t next_cookie_ = 1;
  std::atomic<uint64_t> pages_transferred_{0};
  std::atomic<uint64_t> demand_requests_{0};
  std::atomic<uint64_t> migrations_aborted_{0};
};

}  // namespace mach

#endif  // SRC_MANAGERS_MIGRATE_MIGRATION_MANAGER_H_
