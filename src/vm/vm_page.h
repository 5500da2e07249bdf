// Resident page structures (§5.3) and pageout queues (§5.4).
//
// Each VmPage corresponds to a page of physical memory holding cached data
// for some (memory object, offset). As in Mach's resident page table, a
// VmPage belongs to its frame for the kernel's life: VmSystem builds one per
// physical frame, indexed by frame number, when it is constructed, so a
// fault allocates no memory. While its frame is allocated, a page lives on:
//   * its object's page list        (object_link)
//   * one of the pageout queues     (queue_link): active / inactive
//   * one object/offset hash bucket (hash_next)
// and is findable through the virtual-to-physical hash table (§5.3), keyed
// by (object, offset). While its frame is free the page is on no list, and
// its state is reset when the frame is handed out again (in sanitizer
// builds it is poisoned in between; see VmSystem::PageAllocLocked).
//
// Locking: a page's state fields (busy/absent/error/..., page_lock, dirty,
// identity and pin_count) are protected by the *owning VmObject's* lock; the
// queue membership fields (queue_link, and the identity fields while a
// PageRename is in flight) are additionally protected by the VmSystem page-
// queue lock, and hash_next by the shard lock of the page's hash bucket.
// The `queue` tag itself is atomic: it is only *written* under the queue
// lock, but may be *read* without it, so PageActivate can skip the lock
// entirely for a page already on the active queue (the overwhelmingly
// common case on the fault path). A stale read is benign — the slow path
// re-checks under the lock, and a page that deactivates concurrently is
// rescued later by its hardware reference bit (second chance). Frame
// contents and hardware bits live in hw::PhysicalMemory under per-frame
// locks. See the lock-order comment in vm_system.h.

#ifndef SRC_VM_VM_PAGE_H_
#define SRC_VM_VM_PAGE_H_

#include <atomic>
#include <cstdint>

#include "src/base/intrusive_list.h"
#include "src/base/vm_types.h"

namespace mach {

class VmObject;

struct VmPage {
  // Identity: which object/offset this physical page caches.
  VmObject* object = nullptr;
  VmOffset offset = 0;

  // The physical frame backing this page: fixed, and the page's index in
  // VmSystem's page table.
  uint32_t frame = UINT32_MAX;

  // Page state (§5.3 and Mach's vm_page):
  bool busy = false;    // In transit (pagein/pageout); waiters block on the
                        // owning object's condition variable. Only the
                        // thread that set busy may clear or free the page.
  bool absent = false;  // Data has been requested but has not arrived.
  bool error = false;   // The data manager reported failure for this page.
  bool unavailable = false;  // pager_data_unavailable arrived: the faulting
                             // thread must zero-fill or copy from the shadow
                             // (footnote 6 of the paper).
  bool dirty = false;   // Modified since last cleaned (kernel's view; the
                        // hardware modify bit is OR'd in when sampled).
  bool unlock_pending = false;  // A pager_data_unlock has been sent and not
                                // yet answered.

  bool readahead = false;  // Allocated speculatively by fault-ahead and not
                           // yet demanded by any faulting thread. Cleared
                           // (under the owning object's lock) at first
                           // touch; a page freed with the flag still set is
                           // counted as fault_ahead_unused.

  // Access *prohibited* by the data manager (pager_data_lock /
  // the lock_value of pager_data_provided). kVmProtNone = unrestricted.
  VmProt page_lock = kVmProtNone;

  // Short-term reference count taken by a fault while it installs the frame
  // into a pmap after dropping the object lock (distinct from `busy`, which
  // marks a page whose *data* is in transit). A pinned page may not be
  // freed, renamed by collapse, or selected by pageout; if the object dies
  // while pins are outstanding the page is orphaned and the last unpinner
  // frees it.
  uint16_t pin_count = 0;

  // Written only under the queue lock; readable lock-free (see the header
  // comment on the activation fast-out).
  enum class Queue : uint8_t { kNone, kActive, kInactive };
  std::atomic<Queue> queue{Queue::kNone};

  IntrusiveListNode object_link;  // VmObject::pages
  IntrusiveListNode queue_link;   // VmSystem active/inactive queue
  VmPage* hash_next = nullptr;    // Next in its hash bucket (shard lock).
};

using PageQueue = IntrusiveList<VmPage, &VmPage::queue_link>;
using ObjectPageList = IntrusiveList<VmPage, &VmPage::object_link>;

// vm_statistics (Table 3-3): systemwide VM event counters.
struct VmStatistics {
  VmSize page_size = 0;
  uint64_t free_count = 0;
  uint64_t active_count = 0;
  uint64_t inactive_count = 0;
  uint64_t faults = 0;          // Total map faults handled.
  uint64_t zero_fill_count = 0; // Pages zero-filled on demand.
  uint64_t cow_faults = 0;      // Copy-on-write page copies.
  uint64_t pageins = 0;         // pager_data_provided pages accepted.
  uint64_t pageouts = 0;        // pager_data_write pages sent.
  uint64_t reactivations = 0;   // Inactive pages saved by their ref bit.
  uint64_t lookups = 0;         // Object/offset hash probes of the page
                                // walk and the pager handlers (the fault
                                // fast step probes without counting).
  uint64_t hits = 0;            // Probes that found a resident page.
  uint64_t unlock_requests = 0; // pager_data_unlock calls issued.
  uint64_t parked_pageouts = 0; // Dirty pages diverted to the default pager
                                // because their manager was unresponsive
                                // (§6.2.2 protection path).
  uint64_t manager_deaths = 0;  // Memory-object port deaths recovered via
                                // the death-notification fast path (§6.2.1).
  uint64_t death_resolved_pages = 0;  // In-flight placeholder pages resolved
                                      // (zero-filled or errored) on death.
  uint64_t shadow_collapses = 0;  // Intermediate shadow objects spliced out
                                  // of a chain (Mach's vm_object_collapse).
  uint64_t shadow_bypasses = 0;   // Whole chains released because the top
                                  // object fully covers its window.
  uint64_t pages_migrated = 0;    // Pages re-homed into the survivor during
                                  // a collapse.
  uint64_t collapse_denied = 0;   // Collapse opportunities declined (busy
                                  // pages, uncovered pager-held data, or
                                  // injected suppression).
  uint64_t chain_depth_max = 0;   // Deepest shadow chain any fault walked.
  uint64_t fast_faults = 0;       // Faults that found their page settled
                                  // in the entry's own object: the fast
                                  // step's installs of a resident page and
                                  // ResolvePage's first-probe hits.
  uint64_t spurious_page_wakeups = 0;  // Page-wait wakeups that found the
                                       // awaited page still in transit.
  uint64_t collapse_denied_scan_cap = 0;  // Collapse bypasses declined only
                                          // because the coverage metadata
                                          // exceeded VmSystem::kCollapseScanCap
                                          // (also counted in collapse_denied).
  uint64_t collapse_denied_external = 0;  // Splices declined because the
                                          // shadow is an external manager's
                                          // object (never collapsed: its
                                          // holdings can't be enumerated).
  uint64_t activations_skipped = 0;   // PageActivate calls satisfied by the
                                      // lock-free queue-tag check (the page
                                      // was already active; no queue lock).
  uint64_t fault_lock_ops = 0;        // VM-tier (1-5) lock acquisitions made
                                      // inside Fault(), via the per-thread
                                      // probe; / faults = locks per fault.
  uint64_t map_lookups_optimistic = 0;  // Faults resolved end to end through
                                        // the lock-free (seqlock) map
                                        // lookup: no map lock taken at all.
  uint64_t map_lookup_retries = 0;    // Optimistic lookups abandoned because
                                      // the map generation moved (stale
                                      // snapshot, or an EnterIf rejection);
                                      // page-level misses and entries the
                                      // fast path refuses on principle
                                      // (sharing maps, pending COW) are not
                                      // counted — only genuine races are.
  uint64_t queue_batch_flushes = 0;   // Batched activations applied: each
                                      // is one queue_mu_ acquisition for
                                      // the pages one call gathered (a
                                      // vm_read/vm_write pin batch, a
                                      // provide, a manager's death, a copy
                                      // rebuilt from bytes).
  uint64_t pageout_runs = 0;          // pager_data_write messages sent by the
                                      // pageout/flush/clean paths; each
                                      // message carries one contiguous run
                                      // (always 1 page with clustering off).
  uint64_t pageout_run_pages = 0;     // Pages carried by those messages;
                                      // / pageout_runs = mean pages per run.
  uint64_t fault_ahead_requests = 0;  // pager_data_request messages whose
                                      // length covered more than one page
                                      // (a fault-ahead run).
  uint64_t fault_ahead_pages = 0;     // Extra (speculative) pages those runs
                                      // requested beyond the faulting page.
  uint64_t fault_ahead_unused = 0;    // Readahead pages reclaimed before any
                                      // thread touched them — wasted
                                      // speculation (includes placeholders
                                      // the manager never answered).
};

}  // namespace mach

#endif  // SRC_VM_VM_PAGE_H_
