// VmSystem: the machine-independent virtual memory system of one kernel
// (§5). It owns:
//
//   * the resident page pool over hw::PhysicalMemory: a page table with one
//     VmPage per frame, built once (a fault allocates no memory), the
//     object/offset hash over it (§5.3) and the active/inactive pageout
//     queues (§5.4) — one VmSystem per PhysicalMemory, which owns every
//     frame;
//   * the memory object registry: pager port -> VmObject, including the
//     cache of persisting objects (pager_cache, §3.4.1);
//   * the fault handler (§5.5): validity/protection, page lookup,
//     copy-on-write with shadow objects, hardware validation via Pmap;
//   * the pageout daemon and the inline reclaim path, including the §6.2.2
//     protection against errant data managers (parking dirty pages with the
//     trusted default pager) and the §6.2.3 reserved pool;
//   * the kernel ends of the external memory management interface:
//     requests are *sent* to memory object ports, and the manager calls of
//     Table 3-6 sent to a pager request port run the Handle* methods in the
//     sender's thread (the port's kernel-object handler); notifications and
//     any other message queue for the kernel's pager service thread.
//
// Concurrency: VM state is guarded by a lock hierarchy so concurrent faults
// on a multiprocessor contend only where they genuinely share state. From
// outermost to innermost:
//
//   1. AddressMap locks (reader-writer): shared on the fault path, exclusive
//      for structural mutation. A top-level map lock may be held while
//      taking a sharing map's lock; ForkMap orders parent before child.
//      Above the lock sits an optimistic tier: each map publishes an
//      immutable snapshot guarded by a seqlock-style generation counter, so
//      the resident-fault fast path — and the first touch of anonymous
//      memory, zero-filled under the object lock alone — resolves its entry
//      with no map lock at all and validates the generation inside the
//      pmap lock at install time (see address_map.h for the protocol; gated
//      by Config::optimistic_map_lookup).
//   2. chain_mu_: shadow-chain structure (shadow pointers, shadow_children),
//      object lifecycle (terminate / cache / registries) and map_refs
//      decrements. Witness type: ChainLock.
//   3. VmObject::mu (per object): the object's page list, page state, pager
//      ports and paged/parked metadata. Chain order is child before its
//      shadow parent (the fault walk direction), hand over hand.
//   4. Page-hash shard locks (64 shards keyed by the splitmix64 hash of
//      (object, offset)): pure membership — each guards its buckets'
//      intrusive chains (VmPage::hash_next); always leaf with respect to
//      object locks. An anonymous first touch finds or claims its slot in
//      one shard acquisition.
//   5. queue_mu_: the active/inactive queues, queue counts, each page's
//      queue field, and page identity while a PageRename is in flight.
//      Nests inside object locks; the pageout scan, which needs the reverse
//      direction, only ever try_locks an object from under it. The queue
//      tag itself is an atomic written only under this lock, so
//      PageActivate and PagesActivate skip the lock entirely for a page
//      already active (see vm_page.h).
//   6. The hardware tier: Pmap::mu_, which serialises pmap *writers* only
//      (Enter/EnterIf/Remove/Protect/PageProtect), then PhysicalMemory frame
//      and free-list locks. Pmap readers (Access, Translate) take no pmap
//      lock: Access validates its page-table entry under the frame lock.
//   7. Port locks (independent). A port reaches the kernel only through a
//      kernel-object handler, which the port runs with none of its locks
//      held, and the handler runs only the Table 3-6 ids, which the kernel
//      itself never sends: no VM lock is ever held on handler entry.
//
// Blocking operations never hold a lock they could convoy on: waits for busy
// pages use the owning object's condition variable (targeted wakeups, §5
// busy/wanted protocol), message sends to managers release the object lock
// (non-blocking kPoll sends excepted), and a fault installs its frame into
// the pmap under the map lock only, holding a pin on the page rather than
// the object lock.

#ifndef SRC_VM_VM_SYSTEM_H_
#define SRC_VM_VM_SYSTEM_H_

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/base/hash.h"
#include "src/base/kern_return.h"
#include "src/base/sync.h"
#include "src/base/vm_types.h"
#include "src/hw/physical_memory.h"
#include "src/hw/pmap.h"
#include "src/ipc/port.h"
#include "src/pager/parking.h"
#include "src/vm/address_map.h"
#include "src/vm/vm_object.h"
#include "src/vm/vm_page.h"

namespace mach {

class FaultInjector;
class VmMapCopy;

// Per-task VM context: the task's address map plus its physical map.
struct TaskVm {
  std::shared_ptr<AddressMap> map;
  std::unique_ptr<Pmap> pmap;
};

// vm_regions output element (Table 3-3).
struct RegionInfo {
  VmOffset start = 0;
  VmOffset end = 0;
  VmProt protection = kVmProtNone;
  VmProt max_protection = kVmProtNone;
  VmInherit inheritance = VmInherit::kCopy;
  bool is_shared = false;      // Backed through a sharing map.
  SendRight object_name;       // The pager name port (may be null).
};

class VmSystem {
 public:
  struct Config {
    // How long a fault waits for a data manager before applying
    // `on_pager_timeout` (§6.2.1 failure options).
    Timeout pager_timeout = std::chrono::milliseconds(5000);
    enum class OnPagerTimeout { kError, kZeroFill };
    OnPagerTimeout on_pager_timeout = OnPagerTimeout::kError;

    // §6.2.2 protection: divert dirty pages of unresponsive managers to the
    // default pager. When false, pageout simply drops such pages back on
    // the active queue (the unprotected behaviour, for the ablation bench).
    bool errant_manager_protection = true;

    // Lock-free (seqlock snapshot) address-map lookup on the fault path.
    // Off = every fault resolves its entry under the map's shared lock (the
    // lock-hierarchy-only behaviour, kept for the ablation bench). The
    // queue-tag fast-out and batched queue operations are unconditional;
    // only the map tier is gated.
    bool optimistic_map_lookup = true;

    // Clustered dirty pageout: when a dirty victim is written back, the
    // daemon gathers the object's contiguous dirty neighbours into one run
    // of at most this many pages and sends a single multi-page
    // pager_data_write instead of one message per page. Runs split at
    // non-contiguous, clean, busy or pinned pages. 1 = page-at-a-time
    // write-back (the pre-clustering behaviour, kept for the ablation
    // bench). Clamped to at least 1 at construction.
    uint32_t pageout_cluster_max = 16;

    // Adaptive fault-ahead: when a cache miss detects a sequential streak
    // (per-map-entry detector, see FaultAheadState), the fault allocates
    // busy+absent placeholders for a contiguous run of absent neighbours
    // and sends one multi-page pager_data_request covering the run. The
    // window scales 1→2→4→…→fault_ahead_max across consecutive sequential
    // misses and collapses to 1 on random access. 1 = one request per page
    // (the pre-batching behaviour, kept for the ablation bench). Clamped to
    // [1, kPagerMaxRunPages] at construction.
    uint32_t fault_ahead_max = 16;
  };

  // FaultInjector point name: when it fires, one collapse opportunity is
  // declined (counted in VmStatistics::collapse_denied). Firing on every
  // hit is the collapse ablation: chains then grow without bound.
  static constexpr const char* kFaultCollapse = "vm.collapse";

  // `injector` (optional, not owned) is consulted at the kFaultCollapse
  // point, so chaos soaks cover both collapsed and uncollapsed chains.
  explicit VmSystem(PhysicalMemory* phys) : VmSystem(phys, Config{}) {}
  VmSystem(PhysicalMemory* phys, Config config, FaultInjector* injector = nullptr);
  ~VmSystem();

  VmSystem(const VmSystem&) = delete;
  VmSystem& operator=(const VmSystem&) = delete;

  VmSize page_size() const { return phys_->page_size(); }
  PhysicalMemory* phys() const { return phys_; }

  // --- wiring ----------------------------------------------------------

  // The default pager: `service_port` receives pager_create calls;
  // `parking` is the trusted §6.2.2 side-store. Must be set before internal
  // objects can be paged out.
  void SetDefaultPager(SendRight service_port, TrustedParkingStore* parking);

  // The port set the kernel's pager service thread receives on: the death
  // notify port and every pager request port, whose handler declines
  // anything but a Table 3-6 call to this queue.
  const std::shared_ptr<PortSet>& pager_request_set() const { return pager_requests_; }

  // Creates a fresh task VM context (map + pmap).
  TaskVm CreateTaskVm();

  void StartPageoutDaemon();
  void StopPageoutDaemon();

  // --- Table 3-3: virtual memory operations -----------------------------

  // vm_allocate: zero-filled-on-demand memory, at `addr` or anywhere.
  Result<VmOffset> Allocate(TaskVm& task, VmOffset addr, VmSize size, bool anywhere);

  // vm_allocate_with_pager (Table 3-4): maps `memory_object` at `offset`.
  Result<VmOffset> AllocateWithPager(TaskVm& task, VmOffset addr, VmSize size, bool anywhere,
                                     SendRight memory_object, VmOffset offset);

  // vm_deallocate.
  KernReturn Deallocate(TaskVm& task, VmOffset addr, VmSize size);

  // vm_protect.
  KernReturn Protect(TaskVm& task, VmOffset addr, VmSize size, bool set_max, VmProt prot);

  // vm_inherit.
  KernReturn Inherit(TaskVm& task, VmOffset addr, VmSize size, VmInherit inheritance);

  // vm_read / vm_write: kernel-mediated access to a task's memory (faults
  // pages in as needed, honours entry protections like user access).
  KernReturn ReadMemory(TaskVm& task, VmOffset addr, void* buf, VmSize len);
  KernReturn WriteMemory(TaskVm& task, VmOffset addr, const void* buf, VmSize len);

  // vm_copy: copies [src, src+size) over [dst, dst+size) (copy-on-write).
  KernReturn Copy(TaskVm& task, VmOffset src, VmSize size, VmOffset dst);

  // vm_regions.
  std::vector<RegionInfo> Regions(TaskVm& task);

  // vm_statistics.
  VmStatistics Statistics() const;

  // --- user access & faults ---------------------------------------------

  // Simulated user load/store: pmap fast path, kernel fault on miss.
  // May span pages and entries.
  KernReturn UserAccess(TaskVm& task, VmOffset addr, void* buf, VmSize len, bool is_write);

  // The page fault handler (§5.5). `access` is the attempted access.
  KernReturn Fault(TaskVm& task, VmOffset addr, VmProt access);

  // --- inheritance / fork -------------------------------------------------

  // Populates `child` from `parent` per per-entry inheritance attributes
  // (share / copy / none, §3.3).
  void ForkMap(TaskVm& parent, TaskVm& child);

  // --- out-of-line message transfer (the duality §1) ----------------------

  // vm_map_copyin: captures [addr, addr+size) (page aligned) as a
  // copy-on-write map copy for transfer in a message.
  Result<std::shared_ptr<VmMapCopy>> CopyIn(TaskVm& task, VmOffset addr, VmSize size);

  // vm_map_copyout: maps a copy into `task` anywhere; returns the address.
  Result<VmOffset> CopyOut(TaskVm& task, const std::shared_ptr<VmMapCopy>& copy);

  // Flattens a map copy to bytes (used by cross-host transports).
  Result<std::vector<std::byte>> CopyAsBytes(const std::shared_ptr<VmMapCopy>& copy);

  // Rebuilds a map copy in *this* kernel from flat bytes (the receiving end
  // of a cross-host out-of-line transfer): a fresh internal object holding
  // the data. `size` is rounded up to whole pages.
  Result<std::shared_ptr<VmMapCopy>> CopyFromBytes(const void* data, VmSize size);

  // --- manager -> kernel calls (Table 3-6) --------------------------------
  // Run in the sending thread by a request port's kernel-object handler, and
  // by the pager service thread for notifications and declined messages;
  // `request_port_id` identifies the object. Also callable directly in
  // tests. Calls on different threads run concurrently under the object
  // locks.

  void HandlePagerMessage(uint64_t request_port_id, Message&& msg);

  // --- object cache maintenance -------------------------------------------

  // Drops cached (pager_cache'd) objects that have no resident pages.
  void TrimObjectCache();

  // Number of live memory objects known to this kernel (tests).
  size_t object_count() const;

  // Looks up the VmObject for a pager port (tests / kernel internals).
  std::shared_ptr<VmObject> ObjectForPager(const SendRight& pager) const;

  // Length of the shadow chain under the object mapped at `addr` (1 = no
  // shadow ancestors, 0 = no entry). Tests and benchmarks use this to show
  // collapse keeps chains bounded.
  size_t ShadowChainLength(TaskVm& task, VmOffset addr);

 private:
  friend class VmMapCopy;

  // Witness types: a ChainLock proves chain_mu_ is held, an ObjectLock
  // proves some object's mu is held. Passed by reference where a callee
  // relies on the caller's lock.
  using ChainLock = std::unique_lock<std::mutex>;
  using ObjectLock = std::unique_lock<std::mutex>;

  // The resident-page hash (§5.3) over the page table: a bucket array of
  // intrusive chains through VmPage::hash_next, sharded 64 ways. Each shard
  // owns a contiguous run of buckets under its own lock, padded to a cache
  // line, so concurrent faults on distinct shards touch distinct cache
  // lines — in the chains' heads and in the locks themselves. There are
  // about as many buckets as frames, and at least one per shard.
  static constexpr unsigned kPageHashShardBits = 6;
  static constexpr size_t kPageHashShards = size_t{1} << kPageHashShardBits;
  struct alignas(64) PageHashShard {
    std::mutex mu;
  };
  // The bucket an (object, offset) hashes to, with the shard lock that
  // guards its chain.
  struct Bucket {
    PageHashShard& shard;
    VmPage*& head;
  };

  // A cache-line-padded atomic counter. The systemwide counters are bumped
  // from every CPU on every fault; unpadded, neighbouring counters share a
  // line and every fetch_add drags that line between cores (false sharing).
  // Inheriting from std::atomic keeps every call site unchanged.
  struct alignas(64) PaddedAtomicU64 : std::atomic<uint64_t> {
    using std::atomic<uint64_t>::atomic;
  };

  // Systemwide VM event counters, atomically maintained; Statistics()
  // snapshots them into the plain VmStatistics wire struct.
  struct Counters {
    PaddedAtomicU64 faults{0};
    PaddedAtomicU64 zero_fill_count{0};
    PaddedAtomicU64 cow_faults{0};
    PaddedAtomicU64 pageins{0};
    PaddedAtomicU64 pageouts{0};
    PaddedAtomicU64 reactivations{0};
    PaddedAtomicU64 lookups{0};
    PaddedAtomicU64 hits{0};
    PaddedAtomicU64 unlock_requests{0};
    PaddedAtomicU64 parked_pageouts{0};
    PaddedAtomicU64 manager_deaths{0};
    PaddedAtomicU64 death_resolved_pages{0};
    PaddedAtomicU64 shadow_collapses{0};
    PaddedAtomicU64 shadow_bypasses{0};
    PaddedAtomicU64 pages_migrated{0};
    PaddedAtomicU64 collapse_denied{0};
    PaddedAtomicU64 chain_depth_max{0};
    PaddedAtomicU64 fast_faults{0};
    PaddedAtomicU64 spurious_page_wakeups{0};
    PaddedAtomicU64 collapse_denied_scan_cap{0};
    PaddedAtomicU64 collapse_denied_external{0};
    PaddedAtomicU64 activations_skipped{0};
    PaddedAtomicU64 fault_lock_ops{0};
    PaddedAtomicU64 map_lookups_optimistic{0};
    PaddedAtomicU64 map_lookup_retries{0};
    PaddedAtomicU64 queue_batch_flushes{0};
    PaddedAtomicU64 pageout_runs{0};
    PaddedAtomicU64 pageout_run_pages{0};
    PaddedAtomicU64 fault_ahead_requests{0};
    PaddedAtomicU64 fault_ahead_pages{0};
    PaddedAtomicU64 fault_ahead_unused{0};
  };

  // --- resident page management ---------------------------------------

  Bucket BucketFor(const VmObject* object, VmOffset offset) const;

  // Hash probe with lookup statistics. Caller holds the owner's mu (which
  // keeps the returned page alive and its state stable).
  VmPage* PageLookup(VmObject* object, VmOffset offset);
  // Probe without the lookups/hits counters: coverage checks (which must
  // not skew the hit rate) and the optimistic fault path (which trades the
  // two shared-counter xadds for raw single-thread speed).
  VmPage* PageLookupRaw(const VmObject* object, VmOffset offset) const;
  // Raw membership probe without statistics (coverage checks).
  bool PageResident(const VmObject* object, VmOffset offset) const;

  // Allocates a frame, and with it the frame's page, for (object, offset):
  // the check, the claim and the frame allocation are one shard
  // acquisition, and nothing is allocated on the heap. `zero` zeroes the
  // frame inside PhysicalMemory::AllocFrame. Never blocks and never
  // reclaims inline: on exhaustion returns kResourceShortage and pokes the
  // daemon; the caller must drop its locks and WaitForFreeFrames.
  // kMemoryPresent if the slot is already taken, with the page holding it
  // stored in `*present` when that is given. Caller holds the owner's mu.
  Result<VmPage*> PageAllocLocked(VmObject* object, VmOffset offset, bool allow_reserve,
                                  bool zero = false, VmPage** present = nullptr);

  // Zero fill on demand (§5.5): PageAllocLocked of a zeroed frame, counted
  // in zero_fill_count. The one step every fault tier that finds nothing to
  // read shares. Caller holds the owner's mu (`olk`).
  Result<VmPage*> ZeroFillLocked(ObjectLock& olk, VmObject* object, VmOffset offset,
                                 bool allow_reserve, VmPage** present = nullptr);

  // Whether nothing in `object`'s chain can hold data for a missing page —
  // internal, no pager, no shadow — so a miss is a zero fill in the object
  // itself, decided under its lock alone. Caller holds the object's mu.
  static bool AnonymousLocked(const VmObject& object);

  // Frees a resident page: unmaps, unhashes, unqueues, and returns the page
  // to the table with its frame. Caller holds the owner's mu (witnessed by
  // `olk`).
  void PageFreeLocked(ObjectLock& olk, VmPage* page);
  // PageFreeLocked for many pages of one object, with one queue_mu_ and
  // one free-list acquisition for the lot.
  void PagesFreeLocked(ObjectLock& olk, const std::vector<VmPage*>& pages);
  // The per-page part of a free: fault-ahead accounting, every hardware
  // mapping removed, hash and object-list membership dropped.
  void PageDetachLocked(VmPage* page);

  void PageActivate(VmPage* page);
  // PageActivate for the pages one call gathered (vm_read / vm_write, pager
  // data arrival, death resolution, a copy rebuilt from bytes): the pages
  // not yet active go on the active queue under one queue_mu_ acquisition,
  // counted in queue_batch_flushes. The caller keeps every page stable —
  // pinned, or its object's mu held — until this returns.
  void PagesActivate(std::span<VmPage* const> pages);
  void PageRemoveFromQueue(VmPage* page);
  // Variants for callers already under queue_mu_ (the pageout scan).
  void PageActivateLocked(VmPage* page);
  void PageDeactivateLocked(VmPage* page);
  void PageRemoveFromQueueLocked(VmPage* page);

  // Re-homes a page into `new_object` (collapse migration). Caller holds
  // both objects' locks; identity flips under queue_mu_ so the pageout scan
  // never sees a torn (object, offset).
  void PageRename(VmPage* page, VmObject* new_object, VmOffset new_offset);

  // Blocks briefly until frames may be available again: pokes the daemon,
  // runs one reclaim pass, then waits on free_cv_ with a bounded slice.
  // No locks may be held.
  void WaitForFreeFrames();

  // --- fault machinery --------------------------------------------------

  // A resolved page, pinned for installation. The pin (VmPage::pin_count)
  // keeps the page and frame alive after the object lock is dropped;
  // page_lock is snapshotted so UnpinPage can detect a manager lock that
  // raced with the install.
  struct PagePin {
    std::shared_ptr<VmObject> owner;
    VmPage* page = nullptr;
    bool from_backing = false;  // Page belongs to a shadow ancestor; map
                                // read-only (copy still pending).
    VmProt page_lock = kVmProtNone;
  };

  // Pins held across a multi-page kernel-mediated access, so the pages are
  // activated together (PagesActivate) while the pins keep them stable.
  // Drained (activate, then unpin) at a capacity scaled to physical memory —
  // so batched pins can never hold enough frames to starve reclaim — and on
  // every exit path via the destructor.
  struct PinBatch {
    static constexpr size_t kMaxPins = 16;
    explicit PinBatch(VmSystem* vm);
    ~PinBatch() { Drain(); }
    PinBatch(const PinBatch&) = delete;
    PinBatch& operator=(const PinBatch&) = delete;
    void Add(PagePin&& pin);
    void Drain();
    VmSystem* vm_;
    size_t cap_;
    std::array<PagePin, kMaxPins> pins_;
    size_t count_ = 0;
  };

  // Entry resolution under the map lock(s). `share_lock` keeps the sharing
  // map's entries stable for as long as the holder pointer is used.
  struct EntryRef {
    MapEntry* top = nullptr;     // Entry in the task's top-level map.
    MapEntry* holder = nullptr;  // Entry that references the object
                                 // (== top, or a sharing-map entry).
    VmOffset object_offset = 0;  // Offset of the faulting page in the object.
    bool needs_prepare = false;  // Lazy object creation or a shadow push is
                                 // required first (PrepareEntry).
    std::shared_lock<std::shared_mutex> share_lock;
  };

  // Read-only resolution; caller holds task.map->lock() (either mode).
  Result<EntryRef> LookupEntry(TaskVm& task, VmOffset addr, VmProt access);

  // Runs the per-entry sequentiality detector for a *miss* at
  // `object_offset` (the page was not resident) and returns the fault-ahead
  // window to use, >= 1. Caller holds the holder's map lock (shared is
  // fine; the detector word is atomic and advisory). Returns 1 whenever
  // fault-ahead is disabled.
  uint32_t ComputeFaultAheadWindow(MapEntry* holder, VmOffset object_offset);

  // Performs the mutations LookupEntry flagged (lazy zero-fill object,
  // copy-on-write shadow) under exclusive map locks. Takes no other locks
  // on entry.
  KernReturn PrepareEntry(TaskVm& task, VmOffset addr, VmProt access);

  // Where an access to a page lands: its object and offset, the fault-ahead
  // window to use if it misses, and whether the fast step already installed
  // it (a fault's resolution only).
  struct FaultTarget {
    std::shared_ptr<VmObject> object;
    VmOffset offset = 0;
    uint32_t fa_window = 1;
    bool installed = false;
  };

  // The one entry resolution of a fault, vm_read and vm_write: LookupEntry
  // under the shared map lock(s), PrepareEntry and a retry when the entry
  // needs it, and the fault-ahead window on a miss. With `fault`, the same
  // critical section republishes the map's snapshot and runs the fast step
  // (FastFault) at the generation it holds stable.
  Result<FaultTarget> ResolveEntry(TaskVm& task, VmOffset page_addr, VmProt access, bool fault);

  // The fast step both fault tiers share. Under `object`'s lock it
  // zero-fills the first touch of anonymous memory (`may_zero_fill` and
  // AnonymousLocked) in one shard acquisition or else probes the hash,
  // refuses an unsettled page, clamps `prot` (the entry's protection, less
  // write on a pending copy) by the page's manager lock, installs with
  // Pmap::EnterIf at map generation `gen` and activates. Counts the fault on
  // kInstalled (and fast_faults unless it zero-filled), and a refused
  // install in map_lookup_retries; kMissing is a true miss, the hash
  // holding no page at all.
  enum class FastStep { kInstalled, kMissing, kDeclined };
  FastStep FastFault(TaskVm& task, VmOffset page_addr, VmProt access, VmProt prot,
                     VmObject* object, VmOffset object_offset, bool may_zero_fill, uint64_t gen);

  // Tier 0 (Config::optimistic_map_lookup): resolves `page_addr` against
  // the map's published snapshot with no map lock and runs the fast step at
  // the snapshot's generation, which EnterIf validates inside the pmap lock.
  // Takes plain unshared entries only; returns false (fall back to the
  // locked path) for everything else, including every would-be error
  // verdict: errors are never decided from a snapshot.
  bool TryOptimisticFault(TaskVm& task, VmOffset page_addr, VmProt access);

  // The §5.5 page walk: finds or creates the page for
  // (first_object, first_offset), waiting on busy pages, asking pagers, and
  // performing the copy-on-write push as needed. Takes and releases object
  // locks internally (none held on entry or exit); returns the page pinned.
  // `fa_window` is the fault-ahead window in pages (>= 1) to apply if this
  // resolution turns into a pager request on `first_object` itself; shadow
  // descents and recursive copy pulls always run single-page.
  Result<PagePin> ResolvePage(std::shared_ptr<VmObject> first_object, VmOffset first_offset,
                              VmProt fault_type, uint32_t fa_window = 1);

  PagePin MakePinLocked(ObjectLock& olk, std::shared_ptr<VmObject> owner, VmPage* page,
                        bool from_backing);
  void UnpinPage(PagePin& pin);
  void UnpinRaw(const std::shared_ptr<VmObject>& owner, VmPage* page);

  // Waits (bounded slice) on `object`'s condition variable for a page state
  // change; returns false once `deadline` has passed. `olk` holds the
  // object's mu.
  bool WaitForPage(ObjectLock& olk, VmObject* object,
                   std::chrono::steady_clock::time_point deadline);

  // Settles a busy+absent placeholder whose data will never arrive (the
  // request never reached the manager, the wait timed out, the manager
  // died) as zero fill, the §6.2.1 substitute: zeroed, settled and dirty,
  // since no backing copy of the zeroes exists. Caller holds the owner's mu.
  void SettleZeroFillLocked(ObjectLock& olk, VmPage* page);

  // Message sends to the object's manager. `olk` (the object's mu) is
  // released across the send and reacquired; callers revalidate after.
  // `length` spans the whole run (page-size multiple; one page when no
  // fault-ahead applies).
  KernReturn RequestDataFromPager(ObjectLock& olk, const std::shared_ptr<VmObject>& object,
                                  VmOffset offset, VmSize length, VmProt access);
  KernReturn RequestUnlockFromPager(ObjectLock& olk, const std::shared_ptr<VmObject>& object,
                                    VmPage* page, VmProt access);
  // The send both share. A manager whose queue stays full for the whole
  // fault-wait budget is an unresponsive manager (§6.1), so the send is
  // bounded by pager_timeout (and by 2 s at most).
  KernReturn SendToPagerLocked(ObjectLock& olk, const std::shared_ptr<VmObject>& object,
                               Message msg);

  // --- objects -----------------------------------------------------------

  std::shared_ptr<VmObject> CreateInternalObject(VmSize size);
  // Pushes a shadow object in front of entry->object. Caller holds the
  // holder map exclusively plus chain_mu_.
  void MakeShadow(ChainLock& chain, MapEntry* entry);
  void ObjectRef(const std::shared_ptr<VmObject>& object) {
    object->map_refs.fetch_add(1, std::memory_order_relaxed);
  }
  void ObjectRelease(ChainLock& chain, std::shared_ptr<VmObject> object);
  void TerminateObject(ChainLock& chain, const std::shared_ptr<VmObject>& object);
  void ReleaseEntry(ChainLock& chain, MapEntry&& entry);
  // Marks `entry` copy-on-write for a copy taken of it (fork, vm_copy, an
  // out-of-line send; §5.5): sets needs_copy, write-protects the resident
  // pages of its window and takes the copy's reference to its object, which
  // it returns. Caller holds the entry's map exclusively.
  std::shared_ptr<VmObject> MarkCopyOnWrite(MapEntry* entry);

  // Ensures an internal object has a default-pager association
  // (pager_create). Caller holds chain_mu_ and the object's mu.
  bool EnsureInternalPager(ChainLock& chain, ObjectLock& olk,
                           const std::shared_ptr<VmObject>& object);
  // Forgets `object`'s manager: drops it from the pager registries and
  // deallocates the kernel's rights to its three ports. Caller holds
  // chain_mu_ and the object's mu.
  void DropPagerLocked(ChainLock& chain, ObjectLock& olk, VmObject* object);

  // --- map placement ------------------------------------------------------

  // Maps `entry` over a fresh range of `size` bytes: anywhere from `addr` up,
  // or exactly at `addr` (page-truncated) if that range is free. Returns the
  // address. Caller holds the map exclusively.
  Result<VmOffset> MapRegionLocked(AddressMap& map, VmOffset addr, VmSize size, bool anywhere,
                                   MapEntry entry);
  // Maps `copy`'s segments one after another from `addr`, copy-on-write
  // (a null segment stays lazy zero fill), and consumes it: each segment's
  // reference moves into its entry. Caller holds the map exclusively.
  void InsertCopyLocked(AddressMap& map, VmOffset addr, VmMapCopy& copy);

  // --- shadow-chain collapse (Mach's vm_object_collapse / bypass) --------

  // Cheap unlocked-precondition check + TryCollapse, used after a fault.
  void MaybeCollapse(const std::shared_ptr<VmObject>& object);

  // Attempts to shorten `object`'s shadow chain, repeatedly:
  //  * splice: if the immediate shadow's only reference is `object`'s shadow
  //    pointer, migrate its still-needed pages into `object` and splice it
  //    out of the chain;
  //  * bypass: if `object` itself covers every offset it could fault on, drop
  //    the whole remaining chain.
  // Caller holds chain_mu_ only; object locks are taken child-then-parent
  // inside. Declines — counting collapse_denied — whenever a busy or pinned
  // page or unaccounted pager-held data makes the splice unsafe.
  void TryCollapse(ChainLock& chain, const std::shared_ptr<VmObject>& object);

  // Whether `object` holds data for `offset` without consulting its shadow:
  // a resident page, a default-pager copy (paged_offsets), or a §6.2.2
  // parked copy. Caller holds the object's mu.
  bool ObjectCoversOffset(const VmObject* object, VmOffset offset) const;

  // Whether `object` covers every page of [0, size()) by itself, derived
  // from residency and pager metadata (never an O(size) offset scan).
  // kCapExceeded = the metadata was larger than kCollapseScanCap.
  enum class Coverage { kFull, kPartial, kCapExceeded };
  // Upper bound on the coverage-metadata entries (resident pages +
  // paged_offsets + parked_offsets) one FullyCoversSelf check examines.
  static constexpr size_t kCollapseScanCap = size_t{1} << 20;
  Coverage FullyCoversSelf(const VmObject* object) const;

  // --- pageout ------------------------------------------------------------

  // The pageout daemon's scan interval.
  static constexpr std::chrono::milliseconds kPageoutInterval{25};
  void PageoutDaemonMain();
  // Frees up to `want` frames from the inactive queue; returns the number
  // freed. Takes queue_mu_ and object locks (try_lock) internally; no locks
  // held on entry.
  uint32_t ReclaimPass(uint32_t want);
  // Writes one unqueued, settled page back to its manager (or parks it),
  // clustering up to Config::pageout_cluster_max of the object's
  // contiguous dirty neighbours into the same pager_data_write run. Caller
  // holds the owner's mu; returns the number of frames freed.
  uint32_t PageoutPageLocked(ObjectLock& olk, const std::shared_ptr<VmObject>& object,
                             VmPage* page);
  // Grows a write-back run around `seed` with the object's contiguous dirty
  // neighbours (each unqueued and write-protected as it is claimed). The
  // result is sorted by offset, contains `seed`, and every member is
  // settled: !busy, pin_count == 0, dirty. Caller holds the owner's mu.
  std::vector<VmPage*> CollectPageoutClusterLocked(VmObject* object, VmPage* seed);
  // Lowers each of `pages`' hardware mappings to `prot`, then samples the
  // modify bit: returns the dirty ones (marked dirty) sorted by offset,
  // ready for BuildPageoutRuns. Caller holds the owner's mu.
  std::vector<VmPage*> SortedDirtyLocked(const std::vector<VmPage*>& pages, VmProt prot);
  // Splits sorted settled dirty pages of one object into contiguous runs of
  // at most Config::pageout_cluster_max pages.
  std::vector<std::vector<VmPage*>> BuildPageoutRuns(std::vector<VmPage*> dirty_sorted) const;
  // Sends one pager_data_write covering `run` (contiguous, same object).
  // kWritten: accepted, paged_offsets updated. kParked: the manager did not
  // take the message and every page's data went to the §6.2.2 parking
  // store. kFailed: not written and not parked (unprotected mode); the
  // pages stay dirty. Caller holds the owner's mu.
  enum class RunWriteResult { kWritten, kParked, kFailed };
  RunWriteResult WritePageoutRun(ObjectLock& olk, const std::shared_ptr<VmObject>& object,
                                 const std::vector<VmPage*>& run, bool park_on_failure);

  // Drains deferred VmMapCopy releases if any are pending. Callers must
  // hold no VM locks.
  void MaybeDrainDeferred();

  // --- manager -> kernel handlers ----------------------------------------

  // Makes `request` a kernel-owned port: the six Table 3-6 calls sent to it
  // run HandlePagerMessage in the sender's thread; everything else queues
  // for the pager service thread. Called before the port's send right
  // leaves the kernel.
  void InstallPagerRequestHandler(const ReceiveRight& request);

  void HandleDataProvided(const std::shared_ptr<VmObject>& object, VmOffset offset,
                          const std::vector<std::byte>& data, VmProt lock_value);
  void HandleDataUnavailable(const std::shared_ptr<VmObject>& object, VmOffset offset,
                             VmSize size);
  void HandleDataLock(const std::shared_ptr<VmObject>& object, VmOffset offset, VmSize length,
                      VmProt lock_value);
  void HandleFlush(const std::shared_ptr<VmObject>& object, VmOffset offset, VmSize length);
  void HandleClean(const std::shared_ptr<VmObject>& object, VmOffset offset, VmSize length);
  // The pages of [offset, offset + length) a flush or clean handles now:
  // busy pages are in transit and pinned ones are being installed, so both
  // are left alone. Caller holds the object's mu.
  std::vector<VmPage*> RangePagesLocked(VmObject* object, VmOffset offset, VmSize length);
  // memory_object_lock_completed for a flush or clean of [offset, offset +
  // length): its dirty data, if any, went out before on the same port, so
  // the manager can tell "copy was clean" from "flush still in flight"
  // without a timeout. Caller holds the object's mu.
  void AckLockCompletedLocked(const VmObject& object, VmOffset offset, VmSize length);
  void HandleCache(const std::shared_ptr<VmObject>& object, bool may_cache);

  // Death-notification fast path (§6.2.1): the memory-object port of a
  // manager died. Resolves every in-flight placeholder page under the
  // configured on_pager_timeout policy (zero fill or error) and wakes the
  // faulting threads immediately instead of letting them burn the timeout.
  // Takes the object by value: the caller's reference typically aliases the
  // objects_by_pager_ entry this function erases. Caller holds chain_mu_.
  void HandlePagerDeath(ChainLock& chain, std::shared_ptr<VmObject> object);

  // ------------------------------------------------------------------------

  PhysicalMemory* const phys_;
  Config config_;
  FaultInjector* const injector_;
  // Pageout targets, in frames, derived from the frame count: the daemon
  // keeps free_target_ frames free, and only privileged allocations may
  // dip below reserved_ (the §6.2.3 reserved pool floor).
  const uint32_t free_target_;
  const uint32_t reserved_;

  // Tier 2: chain structure, object lifecycle, registries (see the header
  // comment for the full order).
  mutable std::mutex chain_mu_;

  // The resident page table: page_table_[f] is frame f's page. Its
  // membership is the frame's allocation (PhysicalMemory's free list).
  std::vector<VmPage> page_table_;

  // Tier 4: the sharded resident-page hash. Shard s owns buckets
  // [s << bucket_shift_, (s + 1) << bucket_shift_).
  mutable std::array<PageHashShard, kPageHashShards> page_shards_;
  unsigned bucket_shift_ = 0;
  mutable std::vector<VmPage*> buckets_;

  // Tier 5: pageout queues and page queue-membership. The alignas walls the
  // queue word group (mutex + heads + counts) off from neighbouring members
  // so fault-path activations and free-list traffic do not false-share.
  alignas(64) mutable std::mutex queue_mu_;
  PageQueue active_queue_;
  PageQueue inactive_queue_;
  uint32_t active_count_ = 0;
  uint32_t inactive_count_ = 0;

  // Free-frame waiters (fault path under memory pressure). Notified after
  // every frame free; waiters use bounded slices so a missed notify only
  // costs one slice.
  alignas(64) std::mutex free_mu_;
  std::condition_variable free_cv_;

  // Pageout daemon control.
  std::mutex pageout_mu_;
  std::condition_variable pageout_wake_;
  std::thread pageout_thread_;
  bool pageout_running_ = false;
  bool shutting_down_ = false;

  // Object registries: by memory-object (pager) port id and by request
  // port id. Guarded by chain_mu_.
  std::unordered_map<uint64_t, std::shared_ptr<VmObject>> objects_by_pager_;
  std::unordered_map<uint64_t, std::shared_ptr<VmObject>> objects_by_request_;

  std::shared_ptr<PortSet> pager_requests_ = PortSet::Create();

  // Every memory-object port is watched for death at association time
  // (vm_allocate_with_pager / pager_create); the notification lands here,
  // inside pager_requests_, where the pager service thread receives it.
  ReceiveRight death_notify_receive_;
  SendRight death_notify_send_;

  // The lifetime token every request port's handler holds. Handlers run
  // with `mu` shared; ~VmSystem first clears `vm` with it exclusive, so a
  // manager call racing teardown either finishes before it or declines to
  // the port's queue.
  struct KernelCallGuard {
    explicit KernelCallGuard(VmSystem* system) : vm(system) {}
    std::shared_mutex mu;
    VmSystem* vm;
  };
  const std::shared_ptr<KernelCallGuard> kernel_calls_ = std::make_shared<KernelCallGuard>(this);

  SendRight default_pager_service_;  // Guarded by chain_mu_.
  TrustedParkingStore* parking_ = nullptr;

  mutable Counters counters_;

  // Object references dropped by VmMapCopy destructors (possibly on threads
  // that must not take VM locks); drained opportunistically. The atomic
  // flag lets MaybeDrainDeferred skip the mutex on the (hot, empty) path.
  std::atomic<bool> deferred_pending_{false};
  std::mutex deferred_mu_;
  std::vector<std::shared_ptr<VmObject>> deferred_releases_;
};

// An out-of-line memory region captured from an address map (Mach's
// vm_map_copy). Holds copy-on-write references to the source objects; a
// CopyOut consumes it into a destination map.
class VmMapCopy {
 public:
  struct Segment {
    std::shared_ptr<VmObject> object;  // Null = zero-filled region.
    VmOffset offset = 0;
    VmSize size = 0;
  };

  VmMapCopy(VmSystem* system, VmSize size) : system_(system), size_(size) {}
  ~VmMapCopy();

  VmMapCopy(const VmMapCopy&) = delete;
  VmMapCopy& operator=(const VmMapCopy&) = delete;

  VmSize size() const { return size_; }
  std::vector<Segment>& segments() { return segments_; }
  const std::vector<Segment>& segments() const { return segments_; }
  VmSystem* system() const { return system_; }

 private:
  VmSystem* system_;
  VmSize size_;
  std::vector<Segment> segments_;
};

}  // namespace mach

#endif  // SRC_VM_VM_SYSTEM_H_
