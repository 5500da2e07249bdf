// VmSystem: construction, resident page management, object lifecycle, and
// the Table 3-3 / 3-4 operations. The fault handler lives in vm_fault.cc;
// the pageout daemon and the manager->kernel handlers in vm_pageout.cc.

#include "src/vm/vm_system.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <unordered_set>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#include "src/base/debug.h"
#include "src/base/fault_injector.h"
#include "src/base/lock_probe.h"
#include "src/base/log.h"
#include "src/pager/protocol.h"

namespace mach {

namespace {

// A free frame's page is poisoned in ASan builds, from before the frame
// returns to the free list until PageAllocLocked hands it out again, so a
// use of a freed page is still reported — though only until the frame's
// reuse, where a heap page would have stayed poisoned longer.
void PoisonPage(VmPage* page) {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_POISON_MEMORY_REGION(page, sizeof(VmPage));
#else
  (void)page;
#endif
}

void UnpoisonPage(VmPage* page) {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_UNPOISON_MEMORY_REGION(page, sizeof(VmPage));
#else
  (void)page;
#endif
}

VmPage* FindInChain(VmPage* head, const VmObject* object, VmOffset offset) {
  while (head != nullptr && (head->object != object || head->offset != offset)) {
    head = head->hash_next;
  }
  return head;
}

void UnlinkFromChain(VmPage*& head, VmPage* page) {
  VmPage** link = &head;
  while (*link != page) {
    assert(*link != nullptr);
    link = &(*link)->hash_next;
  }
  *link = page->hash_next;
  page->hash_next = nullptr;
}

}  // namespace

VmSystem::VmSystem(PhysicalMemory* phys, Config config, FaultInjector* injector)
    : phys_(phys),
      config_(config),
      injector_(injector),
      free_target_(std::max<uint32_t>(phys->frame_count() / 8, 4)),
      reserved_(std::max<uint32_t>(phys->frame_count() / 64, 2)),
      page_table_(phys->frame_count()) {
  // Every frame is free: its page waits, poisoned, for PageAllocLocked.
  for (uint32_t f = 0; f < page_table_.size(); ++f) {
    page_table_[f].frame = f;
    PoisonPage(&page_table_[f]);
  }
  while ((kPageHashShards << bucket_shift_) < phys->frame_count()) {
    ++bucket_shift_;
  }
  buckets_.assign(kPageHashShards << bucket_shift_, nullptr);
  // A cap of 1 is page-at-a-time. The wire decoder rejects runs beyond
  // kPagerMaxRunPages, so never ask for more than that.
  config_.pageout_cluster_max = std::max<uint32_t>(config_.pageout_cluster_max, 1);
  config_.fault_ahead_max =
      std::clamp<uint32_t>(config_.fault_ahead_max, 1, kPagerMaxRunPages);
  // Death notifications arrive from whichever thread kills a memory-object
  // port, perhaps under this kernel's locks: the handler only records the
  // dead port and wakes the daemon (tier 7 in vm_system.h).
  PortPair death = PortAllocate("pager-death-notify");
  death.receive.port()->SetKernelObjectHandler(
      [deferred = deferred_](Port&, Message& msg, Timeout) -> std::optional<KernReturn> {
        Result<uint64_t> dead_id = msg.TakeU64();
        if (msg.id() == kMsgIdPortDeath && dead_id.ok()) {
          std::lock_guard<std::mutex> g(deferred->mu);
          deferred->dead_pagers.push_back(dead_id.value());
          deferred->pending.store(true, std::memory_order_release);
        }
        deferred->wake.notify_all();
        return KernReturn::kSuccess;
      });
  death_notify_receive_ = std::move(death.receive);
  death_notify_send_ = std::move(death.send);
}

VmSystem::~VmSystem() {
  {
    // Manager calls in flight finish first; later ones decline to the queue.
    std::unique_lock<std::shared_mutex> g(kernel_calls_->mu);
    kernel_calls_->vm = nullptr;
  }
  StopPageoutDaemon();
  // Map-copy releases still pending die with the kernel, as its objects do;
  // they leave the record first, which the notify handler may keep alive.
  std::vector<std::shared_ptr<VmObject>> releases;
  {
    std::lock_guard<std::mutex> g(deferred_->mu);
    releases.swap(deferred_->releases);
  }
  // Free any pages still resident (objects referenced by leaked handles).
  // Execution is single-threaded by now, but PageFreeLocked still wants the
  // owner's lock as its witness.
  std::vector<VmPage*> pages;
  for (size_t s = 0; s < kPageHashShards; ++s) {
    std::lock_guard<std::mutex> g(page_shards_[s].mu);
    for (size_t b = s << bucket_shift_; b < (s + 1) << bucket_shift_; ++b) {
      for (VmPage* page = buckets_[b]; page != nullptr; page = page->hash_next) {
        pages.push_back(page);
      }
    }
  }
  for (VmPage* page : pages) {
    ObjectLock olk(page->object->mu);
    PageFreeLocked(olk, page);
  }
  // Every page was hashed from allocation to free, so every frame is back:
  // one short is a page unhashed and never freed (a leaked placeholder).
  MACH_DEBUG_ASSERT(phys_->free_frames() == phys_->frame_count());
}

void VmSystem::SetDefaultPager(SendRight service_port, TrustedParkingStore* parking) {
  ChainLock chain(chain_mu_);
  default_pager_service_ = std::move(service_port);
  parking_ = parking;
}

TaskVm VmSystem::CreateTaskVm() {
  TaskVm vm;
  // A full 32-bit address space starting above page 0 (so that address 0
  // stays invalid, catching null dereferences as real faults).
  vm.map = std::make_shared<AddressMap>(page_size(), uint64_t{1} << 32, page_size());
  vm.pmap = std::make_unique<Pmap>(phys_);
  return vm;
}

// --- resident page management ---------------------------------------------

VmSystem::Bucket VmSystem::BucketFor(const VmObject* object, VmOffset offset) const {
  // Object pointers share allocator alignment and offsets are page
  // multiples; a full-avalanche mix keeps (object, offset) keys from
  // clustering (see src/base/hash.h). Its low bits pick the shard, so shard
  // load stays uniform, and the bits above them the bucket within it.
  const uint64_t h = HashPointerAndU64(object, offset);
  const size_t shard = h & (kPageHashShards - 1);
  const size_t within = (h >> kPageHashShardBits) & ((size_t{1} << bucket_shift_) - 1);
  return Bucket{page_shards_[shard], buckets_[(shard << bucket_shift_) | within]};
}

VmPage* VmSystem::PageLookup(VmObject* object, VmOffset offset) {
  counters_.lookups.fetch_add(1, std::memory_order_relaxed);
  VmPage* page = PageLookupRaw(object, offset);
  if (page != nullptr) {
    counters_.hits.fetch_add(1, std::memory_order_relaxed);
  }
  return page;
}

VmPage* VmSystem::PageLookupRaw(const VmObject* object, VmOffset offset) const {
  // PageLookup minus the lookups/hits counter traffic (two contended xadds
  // the lock-free fault path exists to avoid; the optimistic counters
  // already tell the story).
  Bucket b = BucketFor(object, offset);
  lock_probe::Note();
  std::lock_guard<std::mutex> g(b.shard.mu);
  return FindInChain(b.head, object, offset);
}

bool VmSystem::PageResident(const VmObject* object, VmOffset offset) const {
  return PageLookupRaw(object, offset) != nullptr;
}

Result<VmPage*> VmSystem::PageAllocLocked(VmObject* object, VmOffset offset, bool allow_reserve,
                                          bool zero, VmPage** present) {
  assert(offset % page_size() == 0);
  VmPage* page = nullptr;
  {
    Bucket b = BucketFor(object, offset);
    lock_probe::Note();
    std::lock_guard<std::mutex> g(b.shard.mu);
    // The caller may have dropped the object lock since it probed: claiming
    // an occupied slot would leave two VmPages on it, so report it and let
    // the caller rescan (or take the page it found). Check and claim are
    // one shard acquisition.
    if (VmPage* held = FindInChain(b.head, object, offset); held != nullptr) {
      if (present != nullptr) {
        *present = held;
      }
      return KernReturn::kMemoryPresent;
    }
    std::optional<uint32_t> frame = phys_->AllocFrame(allow_reserve ? 0 : reserved_, zero);
    if (frame.has_value()) {
      // The frame's page, back from the free list: nothing of its previous
      // use may survive (its lists were left when it was freed).
      page = &page_table_[*frame];
      UnpoisonPage(page);
      assert(!page->object_link.linked() && !page->queue_link.linked());
      assert(page->queue.load(std::memory_order_relaxed) == VmPage::Queue::kNone);
      assert(page->pin_count == 0);  // Only the last unpinner frees a pinned page.
      page->object = object;
      page->offset = offset;
      page->busy = false;
      page->error = false;
      page->dirty = false;
      page->readahead = false;
      page->page_lock = kVmProtNone;
      page->hash_next = b.head;
      b.head = page;
    }
  }
  if (page == nullptr) {
    // Below the reserved floor (§6.2.3). The caller must drop every lock
    // and WaitForFreeFrames; poke the daemon on its behalf.
    deferred_->wake.notify_all();
    return KernReturn::kResourceShortage;
  }
  object->pages.PushBack(page);
  ++object->resident_count;
  return page;
}

Result<VmPage*> VmSystem::ZeroFillLocked(ObjectLock& olk, VmObject* object, VmOffset offset,
                                         bool allow_reserve, VmPage** present) {
  (void)olk;
  Result<VmPage*> np = PageAllocLocked(object, offset, allow_reserve, /*zero=*/true, present);
  if (np.ok()) {
    counters_.zero_fill_count.fetch_add(1, std::memory_order_relaxed);
  }
  return np;
}

bool VmSystem::AnonymousLocked(const VmObject& object) {
  return object.internal && !object.pager.valid() && object.shadow == nullptr;
}

void VmSystem::PageDetachLocked(VmPage* page) {
  if (page->readahead) {
    // A speculative fault-ahead page is being reclaimed before any thread
    // touched it: wasted speculation (the honest-waste counter for E16).
    counters_.fault_ahead_unused.fetch_add(1, std::memory_order_relaxed);
  }
  Pmap::PageProtect(phys_, page->frame, kVmProtNone);
  // A pager_data_unlock ends with its page: whatever the manager answers
  // next (a flush's data may come back as pager_data_provided), the owner
  // looks again and asks anew.
  if (PageRequest* unlock =
          FindRequestLocked(*page->object, PageRequest::Kind::kUnlock, page->offset)) {
    SettleLocked(*page->object, *unlock, 0, PageRequest::State::kProvided);
    page->object->cv.notify_all();
  }
  {
    Bucket b = BucketFor(page->object, page->offset);
    lock_probe::Note();
    std::lock_guard<std::mutex> g(b.shard.mu);
    UnlinkFromChain(b.head, page);
  }
  page->object->pages.Remove(page);
  --page->object->resident_count;
}

void VmSystem::PageFreeLocked(ObjectLock& olk, VmPage* page) {
  (void)olk;
  PageDetachLocked(page);
  PageRemoveFromQueue(page);
  const uint32_t frame = page->frame;
  PoisonPage(page);
  phys_->FreeFrame(frame);
  free_cv_.notify_all();
}

void VmSystem::PagesFreeLocked(ObjectLock& olk, const std::vector<VmPage*>& pages) {
  (void)olk;
  if (pages.empty()) {
    return;
  }
  std::vector<uint32_t> frames;
  frames.reserve(pages.size());
  for (VmPage* page : pages) {
    PageDetachLocked(page);
    frames.push_back(page->frame);
  }
  {
    lock_probe::Note();
    std::lock_guard<std::mutex> g(queue_mu_);
    for (VmPage* page : pages) {
      PageRemoveFromQueueLocked(page);
    }
  }
  for (VmPage* page : pages) {
    PoisonPage(page);
  }
  phys_->FreeFrames(frames);
  free_cv_.notify_all();
}

void VmSystem::PageActivate(VmPage* page) {
  // Lock-free fast-out: on the fault path nearly every activation finds the
  // page already active. The tag may be stale (a concurrent deactivation is
  // not yet visible), but that loses nothing — the page's reference bit
  // rescues it from the inactive queue exactly as if the orders had swapped.
  if (page->queue.load(std::memory_order_relaxed) == VmPage::Queue::kActive) {
    counters_.activations_skipped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  lock_probe::Note();
  std::lock_guard<std::mutex> g(queue_mu_);
  PageActivateLocked(page);
}

void VmSystem::PageActivateLocked(VmPage* page) {
  if (page->queue.load(std::memory_order_relaxed) == VmPage::Queue::kActive) {
    return;
  }
  PageRemoveFromQueueLocked(page);
  page->queue.store(VmPage::Queue::kActive, std::memory_order_relaxed);
  active_queue_.PushBack(page);
  ++active_count_;
}

void VmSystem::PageDeactivateLocked(VmPage* page) {
  if (page->queue.load(std::memory_order_relaxed) == VmPage::Queue::kInactive) {
    return;
  }
  PageRemoveFromQueueLocked(page);
  page->queue.store(VmPage::Queue::kInactive, std::memory_order_relaxed);
  inactive_queue_.PushBack(page);
  ++inactive_count_;
  // Clear the hardware reference bit so a later scan can tell whether the
  // page was touched while inactive (second chance).
  phys_->ClearReference(page->frame);
}

void VmSystem::PageRemoveFromQueue(VmPage* page) {
  lock_probe::Note();
  std::lock_guard<std::mutex> g(queue_mu_);
  PageRemoveFromQueueLocked(page);
}

void VmSystem::PageRemoveFromQueueLocked(VmPage* page) {
  switch (page->queue.load(std::memory_order_relaxed)) {
    case VmPage::Queue::kActive:
      active_queue_.Remove(page);
      --active_count_;
      break;
    case VmPage::Queue::kInactive:
      inactive_queue_.Remove(page);
      --inactive_count_;
      break;
    case VmPage::Queue::kNone:
      break;
  }
  page->queue.store(VmPage::Queue::kNone, std::memory_order_relaxed);
}

void VmSystem::PagesActivate(std::span<VmPage* const> pages) {
  // PageActivate's tag fast-out, page by page; the rest share one lock.
  const auto active = [](const VmPage* page) {
    return page->queue.load(std::memory_order_relaxed) == VmPage::Queue::kActive;
  };
  const auto skipped = static_cast<size_t>(std::count_if(pages.begin(), pages.end(), active));
  if (skipped > 0) {
    counters_.activations_skipped.fetch_add(skipped, std::memory_order_relaxed);
  }
  if (skipped == pages.size()) {
    return;
  }
  lock_probe::Note();
  std::lock_guard<std::mutex> g(queue_mu_);
  for (VmPage* page : pages) {
    PageActivateLocked(page);
  }
  counters_.queue_batch_flushes.fetch_add(1, std::memory_order_relaxed);
}

// The cap is a small fraction of physical memory, so batched pins can never
// starve reclaim.
VmSystem::PinBatch::PinBatch(VmSystem* vm)
    : vm_(vm), cap_(std::clamp<size_t>(vm->phys_->frame_count() / 8, 1, kMaxPins)) {}

void VmSystem::PinBatch::Add(PagePin&& pin) {
  pins_[count_++] = std::move(pin);
  if (count_ >= cap_) {
    Drain();
  }
}

void VmSystem::PinBatch::Drain() {
  // Activate *before* unpinning: the pin is what keeps each page stable
  // (unfreed, unrenamed) until its queue entry is applied.
  std::array<VmPage*, kMaxPins> pages;
  for (size_t i = 0; i < count_; ++i) {
    pages[i] = pins_[i].page;
  }
  vm_->PagesActivate(std::span(pages.data(), count_));
  for (size_t i = 0; i < count_; ++i) {
    vm_->UnpinPage(pins_[i]);
  }
  count_ = 0;
}

void VmSystem::PageRename(VmPage* page, VmObject* new_object, VmOffset new_offset) {
  // Caller holds both objects' locks. The pageout scan reads a queued
  // page's identity under queue_mu_ alone, so flip it under queue_mu_ too.
  {
    Bucket b = BucketFor(page->object, page->offset);
    lock_probe::Note();
    std::lock_guard<std::mutex> g(b.shard.mu);
    UnlinkFromChain(b.head, page);
  }
  page->object->pages.Remove(page);
  --page->object->resident_count;
  {
    lock_probe::Note();
    std::lock_guard<std::mutex> g(queue_mu_);
    page->object = new_object;
    page->offset = new_offset;
  }
  {
    Bucket b = BucketFor(new_object, new_offset);
    lock_probe::Note();
    std::lock_guard<std::mutex> g(b.shard.mu);
    assert(FindInChain(b.head, new_object, new_offset) == nullptr);
    page->hash_next = b.head;
    b.head = page;
  }
  new_object->pages.PushBack(page);
  ++new_object->resident_count;
}

void VmSystem::WaitForFreeFrames() {
  deferred_->wake.notify_all();
  if (ReclaimPass(free_target_) > 0) {
    return;
  }
  // Nothing reclaimable right now (pages busy / queues empty): wait for the
  // daemon or a manager to release something. The slice bounds the cost of
  // a missed notify.
  std::unique_lock<std::mutex> lk(free_mu_);
  free_cv_.wait_for(lk, std::chrono::milliseconds(50));
}

// --- object lifecycle -------------------------------------------------------

std::shared_ptr<VmObject> VmSystem::CreateInternalObject(VmSize size) {
  auto object = std::make_shared<VmObject>(size);
  object->internal = true;
  return object;
}

void VmSystem::MakeShadow(ChainLock& chain, MapEntry* entry) {
  (void)chain;
  // The shadow is fresh and unpublished until the entry assignment (made
  // under the holder map's exclusive lock), so its own lock is not needed.
  std::shared_ptr<VmObject> shadow = CreateInternalObject(entry->size());
  shadow->shadow = entry->object;
  shadow->shadow_offset = entry->offset;
  shadow->shadow->AddShadowChild(shadow.get());
  // The backing object's reference moves from the entry to the shadow
  // pointer: net reference count unchanged.
  entry->object = shadow;
  entry->offset = 0;
  entry->needs_copy = false;
  ObjectRef(entry->object);
}

void VmSystem::ObjectRelease(ChainLock& chain, std::shared_ptr<VmObject> object) {
  if (object == nullptr) {
    return;
  }
  const uint32_t prev = object->map_refs.fetch_sub(1, std::memory_order_acq_rel);
  assert(prev > 0);
  if (prev > 1) {
    // A dropped reference can leave a child's shadow pointer as the only
    // one remaining — the collapse opportunity. Map removal, task death and
    // map-copy consumption (MaybeDrainDeferred) all funnel through here.
    if (prev == 2 && object->shadow_children.size() == 1) {
      TryCollapse(chain, object->shadow_children.front()->shared_from_this());
    }
    return;
  }
  // No address-map references remain (§3.4.1 termination / caching).
  if (object->can_persist && object->pager.valid() && !object->internal) {
    object->cached = true;
    return;
  }
  TerminateObject(chain, object);
}

void VmSystem::TerminateObject(ChainLock& chain, const std::shared_ptr<VmObject>& object) {
  std::shared_ptr<VmObject> shadow;
  {
    ObjectLock olk(object->mu);
    if (!object->alive) {
      return;
    }
    object->alive = false;
    object->cached = false;
    // "When no references to a memory object remain, and all modifications
    // have been written back to the memory object, the kernel deallocates
    // its rights" (§3.4.1). Only an external object's manager can ever read
    // the data again, so only its dirty pages go back: in sorted runs, like
    // pageout, but never parked (the object's parked data is discarded
    // below). An internal object can never be mapped again and the default
    // pager frees its blocks on no-senders, so its pages are just freed.
    // Busy or pinned pages are orphaned — removed from the queues and left
    // resident; the owner of the request holding them, or the last
    // unpinner, frees them on seeing !alive.
    std::vector<VmPage*> victims;
    for (VmPage* page : object->pages) {
      if (page->busy || page->pin_count > 0) {
        PageRemoveFromQueue(page);
      } else {
        victims.push_back(page);
      }
    }
    if (!object->internal && object->pager.valid() && !object->pager.IsDead()) {
      for (const std::vector<VmPage*>& run :
           BuildPageoutRuns(SortedDirtyLocked(victims, kVmProtNone))) {
        WritePageoutRun(olk, object, run, /*park_on_failure=*/false);
      }
    }
    // One queue_mu_ and one free-list acquisition for the whole object.
    PagesFreeLocked(olk, victims);
    // Deallocate the kernel's rights to the three ports; the data manager
    // receives death notifications for the request and name ports and can
    // perform its shutdown (§3.4.1).
    DropPagerLocked(chain, olk, object.get());
    // Any data parked with the default pager under this object's id is
    // unreachable from now on; reclaim the store's blocks.
    if (parking_ != nullptr) {
      parking_->Discard(object->id());
    }
    // Wake faulters waiting on this object so they observe !alive.
    object->cv.notify_all();
    if (object->shadow != nullptr) {
      shadow = std::move(object->shadow);
      object->shadow = nullptr;
      shadow->RemoveShadowChild(object.get());
    }
  }
  // Releasing the shadow can recurse into terminates and collapse probes
  // that take other object locks; do it after dropping ours.
  if (shadow != nullptr) {
    ObjectRelease(chain, std::move(shadow));
  }
}

void VmSystem::ReleaseEntry(ChainLock& chain, MapEntry&& entry) {
  if (entry.is_share) {
    std::shared_ptr<AddressMap> share = std::move(entry.share_map);
    if (share != nullptr && share.use_count() == 1) {
      // Last top-level reference to the sharing map: release its objects.
      // No other map entry can reach the share map any more (use_count is
      // exact: faulters never retain the share_map pointer), so its lock is
      // not needed — and must not be taken here, where chain_mu_ is held.
      std::vector<MapEntry> subs = share->RemoveRange(share->min_address(), share->max_address());
      for (MapEntry& sub : subs) {
        ReleaseEntry(chain, std::move(sub));
      }
    }
    return;
  }
  if (entry.object != nullptr) {
    ObjectRelease(chain, std::move(entry.object));
  }
}

std::shared_ptr<VmObject> VmSystem::MarkCopyOnWrite(MapEntry* entry) {
  entry->needs_copy = true;
  {
    ObjectLock olk(entry->object->mu);
    for (VmPage* page : entry->object->pages) {
      if (page->offset >= entry->offset && page->offset < entry->offset + entry->size()) {
        Pmap::PageProtect(phys_, page->frame, kVmProtRead | kVmProtExecute);
      }
    }
  }
  ObjectRef(entry->object);
  return entry->object;
}

// --- shadow-chain collapse (Mach's vm_object_collapse / bypass) -------------

namespace {
// A request in flight (a page-in's placeholders, an unlock), a dead
// manager's error page or a pinned page makes residency unstable: another
// thread holds raw pointers into this object across a lock drop. Collapse
// must not touch such an object.
bool HasUnstablePage(const VmObject* object) {
  if (!object->requests.empty()) {
    return true;
  }
  for (const VmPage* page : object->pages) {
    if (page->busy || page->error || page->pin_count > 0) {
      return true;
    }
  }
  return false;
}
}  // namespace

bool VmSystem::ObjectCoversOffset(const VmObject* object, VmOffset offset) const {
  // Raw probe — coverage checks should not skew the lookup/hit statistics.
  if (PageResident(object, offset)) {
    return true;
  }
  // Parked (§6.2.2) and pager-held copies count only while the pager
  // association is intact — the fault path consults both under the same
  // condition, and coverage must mirror exactly what a fault could read.
  return object->pager.valid() && (object->parked_offsets.count(offset) != 0 ||
                                   object->paged_offsets.count(offset) != 0);
}

VmSystem::Coverage VmSystem::FullyCoversSelf(const VmObject* object) const {
  const VmSize ps = page_size();
  const uint64_t total = (object->size() + ps - 1) / ps;
  if (!object->pager.valid()) {
    // Residency is the only possible coverage; offsets are distinct and
    // in-range, so the count is exact.
    return uint64_t{object->resident_count} >= total ? Coverage::kFull : Coverage::kPartial;
  }
  // Coverage is derived from metadata (resident pages + pager-held +
  // parked offsets), never an O(size) offset scan; the cap bounds the
  // metadata walk for degenerate objects.
  const size_t metadata = size_t{object->resident_count} + object->paged_offsets.size() +
                          object->parked_offsets.size();
  if (metadata > kCollapseScanCap) {
    return Coverage::kCapExceeded;
  }
  // A pager may have provided unsolicited pages beyond size(); count
  // distinct in-range offsets only.
  std::unordered_set<VmOffset> covered;
  covered.reserve(metadata);
  for (const VmPage* page : object->pages) {
    if (page->offset < object->size()) {
      covered.insert(page->offset);
    }
  }
  for (VmOffset off : object->paged_offsets) {
    if (off < object->size()) {
      covered.insert(off);
    }
  }
  for (VmOffset off : object->parked_offsets) {
    if (off < object->size()) {
      covered.insert(off);
    }
  }
  return covered.size() >= total ? Coverage::kFull : Coverage::kPartial;
}

void VmSystem::MaybeCollapse(const std::shared_ptr<VmObject>& object) {
  bool opportunity = false;
  {
    lock_probe::Note();
    ObjectLock olk(object->mu);
    opportunity =
        object->alive && object->shadow != nullptr &&
        (object->shadow->map_refs.load(std::memory_order_acquire) == 1 ||
         (!object->pager.valid() &&
          uint64_t{object->resident_count} * page_size() >= object->size()));
  }
  if (!opportunity) {
    return;
  }
  lock_probe::Note();
  ChainLock chain(chain_mu_);
  TryCollapse(chain, object);
}

void VmSystem::TryCollapse(ChainLock& chain, const std::shared_ptr<VmObject>& object) {
  // Splice loop: absorb immediate shadows whose only reference is our
  // shadow pointer. Page migration is hash-table surgery on frames that
  // stay put — no copies and no blocking — under the child and parent
  // object locks (child first, the documented chain order).
  for (;;) {
    ObjectLock olk(object->mu);
    if (!object->alive || object->shadow == nullptr) {
      break;
    }
    std::shared_ptr<VmObject> sref = object->shadow;
    VmObject* s = sref.get();
    if (s->map_refs.load(std::memory_order_acquire) != 1 || s->shadow_children.size() != 1 ||
        !s->alive) {
      break;  // Someone else still reads through s.
    }
    // Mach never collapses pager-created objects: an external manager's
    // holdings can't be enumerated, and its dirty pages must flow back to
    // it at termination (which a bypass release still does), not be stolen
    // into the child.
    if (!s->internal && s->pager.valid()) {
      counters_.collapse_denied_external.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    ObjectLock slk(s->mu);
    if (HasUnstablePage(object.get()) || HasUnstablePage(s)) {
      counters_.collapse_denied.fetch_add(1, std::memory_order_relaxed);
      return;  // In-transit pages; retry on a later opportunity.
    }
    const VmOffset window_lo = object->shadow_offset;
    const VmOffset window_hi = window_lo + object->size();
    // Data s holds only on backing store (default pager / parking) cannot
    // be migrated without a blocking read-back; deny unless the child
    // covers those offsets (or a newer resident copy exists to migrate).
    bool backing_only_data = false;
    auto covered_or_resident = [&](VmOffset so) {
      return so < window_lo || so >= window_hi || PageResident(s, so) ||
             ObjectCoversOffset(object.get(), so - window_lo);
    };
    if (s->pager.valid()) {
      for (VmOffset so : s->paged_offsets) {
        if (!covered_or_resident(so)) {
          backing_only_data = true;
          break;
        }
      }
      for (VmOffset so : s->parked_offsets) {
        if (!covered_or_resident(so)) {
          backing_only_data = true;
          break;
        }
      }
    }
    if (backing_only_data) {
      counters_.collapse_denied.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (injector_ != nullptr && injector_->ShouldFail(kFaultCollapse)) {
      counters_.collapse_denied.fetch_add(1, std::memory_order_relaxed);
      return;  // Injected suppression (chaos coverage of long chains).
    }
    // Migrate: every page of s the child would still read through the
    // window moves into the child; pages the child already covers (its copy
    // supersedes the shadow's) and pages outside the window die with s.
    std::vector<VmPage*> source;
    for (VmPage* page : s->pages) {
      source.push_back(page);
    }
    for (VmPage* page : source) {
      if (page->offset < window_lo || page->offset >= window_hi) {
        PageFreeLocked(slk, page);
        continue;
      }
      const VmOffset co = page->offset - window_lo;
      if (ObjectCoversOffset(object.get(), co)) {
        PageFreeLocked(slk, page);
        continue;
      }
      // Any surviving hardware mappings of this frame are read-only
      // (from_backing resolutions never map a shadow's page writable), but
      // drop write access defensively before the identity change.
      Pmap::PageProtect(phys_, page->frame, kVmProtRead | kVmProtExecute);
      PageRename(page, object.get(), co);
      // The survivor's resident copy is now the only one — s's backing
      // store dies with it — so the page must not be dropped clean.
      page->dirty = true;
      counters_.pages_migrated.fetch_add(1, std::memory_order_relaxed);
    }
    // Splice s out: the child inherits s's shadow reference (net reference
    // count on the grandparent unchanged), and s's last reference — our
    // shadow pointer — is gone.
    std::shared_ptr<VmObject> doomed = std::move(object->shadow);
    doomed->RemoveShadowChild(object.get());
    object->shadow = std::move(doomed->shadow);
    object->shadow_offset += doomed->shadow_offset;
    doomed->shadow_offset = 0;
    if (object->shadow != nullptr) {
      object->shadow->RemoveShadowChild(doomed.get());
      object->shadow->AddShadowChild(object.get());
    }
    doomed->map_refs.store(0, std::memory_order_release);
    counters_.shadow_collapses.fetch_add(1, std::memory_order_relaxed);
    slk.unlock();
    olk.unlock();
    TerminateObject(chain, doomed);
  }
  // Bypass: if the child alone covers every page it can fault on, nothing
  // below it is reachable any more — release the whole remaining chain.
  std::shared_ptr<VmObject> released_chain;
  {
    ObjectLock olk(object->mu);
    if (object->alive && object->shadow != nullptr && !HasUnstablePage(object.get())) {
      switch (FullyCoversSelf(object.get())) {
        case Coverage::kPartial:
          break;
        case Coverage::kCapExceeded:
          counters_.collapse_denied.fetch_add(1, std::memory_order_relaxed);
          counters_.collapse_denied_scan_cap.fetch_add(1, std::memory_order_relaxed);
          break;
        case Coverage::kFull:
          if (injector_ != nullptr && injector_->ShouldFail(kFaultCollapse)) {
            counters_.collapse_denied.fetch_add(1, std::memory_order_relaxed);
            break;
          }
          released_chain = std::move(object->shadow);
          object->shadow_offset = 0;
          released_chain->RemoveShadowChild(object.get());
          counters_.shadow_bypasses.fetch_add(1, std::memory_order_relaxed);
          break;
      }
    }
  }
  if (released_chain != nullptr) {
    ObjectRelease(chain, std::move(released_chain));
  }
}

size_t VmSystem::ShadowChainLength(TaskVm& task, VmOffset addr) {
  const VmOffset page_addr = TruncPage(addr, page_size());
  std::shared_ptr<VmObject> object;
  {
    std::shared_lock<std::shared_mutex> mlk(task.map->lock());
    MapEntry* top = task.map->Lookup(page_addr);
    if (top == nullptr) {
      return 0;
    }
    if (top->is_share) {
      std::shared_lock<std::shared_mutex> slk(top->share_map->lock());
      const MapEntry* holder = top->share_map->Lookup(top->offset + (page_addr - top->start));
      if (holder == nullptr) {
        return 0;
      }
      object = holder->object;
    } else {
      object = top->object;
    }
  }
  ChainLock chain(chain_mu_);
  size_t depth = 0;
  for (const VmObject* o = object.get(); o != nullptr; o = o->shadow.get()) {
    ++depth;
  }
  return depth;
}

void VmSystem::MaybeDrainDeferred() {
  // Nothing-pending is the common case on the fault path; answer it from
  // the flag without touching the record's mutex.
  if (!deferred_->pending.load(std::memory_order_acquire)) {
    return;
  }
  std::vector<std::shared_ptr<VmObject>> releases;
  std::vector<uint64_t> dead_pagers;
  {
    std::lock_guard<std::mutex> g(deferred_->mu);
    deferred_->pending.store(false, std::memory_order_relaxed);
    releases.swap(deferred_->releases);
    dead_pagers.swap(deferred_->dead_pagers);
  }
  ChainLock chain(chain_mu_);
  for (uint64_t id : dead_pagers) {
    auto it = objects_by_pager_.find(id);
    if (it != objects_by_pager_.end()) {
      HandlePagerDeath(chain, it->second);
    }
  }
  // ObjectRelease spots collapse opportunities, so map-copy consumption
  // (out-of-line message teardown) compacts chains just like map removal.
  for (auto& object : releases) {
    ObjectRelease(chain, std::move(object));
  }
}

size_t VmSystem::object_count() const {
  ChainLock chain(chain_mu_);
  return objects_by_pager_.size();
}

std::shared_ptr<VmObject> VmSystem::ObjectForPager(const SendRight& pager) const {
  ChainLock chain(chain_mu_);
  auto it = objects_by_pager_.find(pager.id());
  return it == objects_by_pager_.end() ? nullptr : it->second;
}

void VmSystem::TrimObjectCache() {
  ChainLock chain(chain_mu_);
  std::vector<std::shared_ptr<VmObject>> victims;
  for (auto& [id, object] : objects_by_pager_) {
    bool idle;
    {
      ObjectLock olk(object->mu);
      idle = object->resident_count == 0;
    }
    if (object->cached && idle) {
      victims.push_back(object);
    }
  }
  for (auto& object : victims) {
    TerminateObject(chain, object);
  }
}

// --- Table 3-3 operations ---------------------------------------------------

Result<VmOffset> VmSystem::Allocate(TaskVm& task, VmOffset addr, VmSize size, bool anywhere) {
  if (size == 0) {
    return KernReturn::kInvalidArgument;
  }
  MaybeDrainDeferred();
  MapMutation mlk(*task.map);
  // Zero-filled on demand: the backing object is created at first fault.
  return MapRegionLocked(*task.map, addr, RoundPage(size, page_size()), anywhere, MapEntry{});
}

Result<VmOffset> VmSystem::AllocateWithPager(TaskVm& task, VmOffset addr, VmSize size,
                                             bool anywhere, SendRight memory_object,
                                             VmOffset offset) {
  if (size == 0 || !memory_object.valid()) {
    return KernReturn::kInvalidArgument;
  }
  if (offset % page_size() != 0) {
    // The paper permits unaligned offsets with alignment-consistency
    // caveats; this implementation requires page alignment (see DESIGN.md).
    return KernReturn::kInvalidArgument;
  }
  MaybeDrainDeferred();
  size = RoundPage(size, page_size());
  bool need_init = false;
  std::shared_ptr<VmObject> object;
  {
    ChainLock chain(chain_mu_);
    auto it = objects_by_pager_.find(memory_object.id());
    if (it != objects_by_pager_.end()) {
      object = it->second;
      object->cached = false;  // Revived from the object cache.
      ObjectLock olk(object->mu);
      object->set_size(std::max(object->size(), offset + size));
    } else {
      object = std::make_shared<VmObject>(offset + size);
      object->internal = false;
      object->pager = memory_object;
      PortPair request = PortAllocate("pager-request");
      InstallPagerRequestHandler(request.receive);
      PortPair name = PortAllocate("pager-name");
      object->request_receive = std::move(request.receive);
      object->request_send = request.send;
      object->name_receive = std::move(name.receive);
      object->name_send = name.send;
      object->pager_initialized = true;
      objects_by_pager_.emplace(memory_object.id(), object);
      objects_by_request_.emplace(object->request_send.id(), object);
      // Watch the manager's memory-object port so its death resolves
      // waiting faulters immediately (§6.2.1). Fires at once if the port
      // is already dead.
      memory_object.port()->RequestDeathNotification(death_notify_send_);
      need_init = true;
    }
  }
  Result<VmOffset> mapped = KernReturn::kFailure;
  {
    MapMutation mlk(*task.map);
    MapEntry entry;
    entry.object = object;
    entry.offset = offset;
    mapped = MapRegionLocked(*task.map, addr, size, anywhere, std::move(entry));
    if (!mapped.ok()) {
      return mapped;
    }
    ObjectRef(object);
  }
  if (need_init) {
    // pager_init is performed before the vm_allocate_with_pager call
    // completes (§4.2). Asynchronous: no reply is awaited.
    PagerInitArgs init;
    SendRight pager;
    {
      ObjectLock olk(object->mu);
      init.pager_request_port = object->request_send;
      init.pager_name_port = object->name_send;
      pager = object->pager;
    }
    init.page_size = page_size();
    if (pager.valid()) {
      MsgSend(pager, EncodePagerInit(init), std::chrono::milliseconds(1000));
    }
  }
  return mapped;
}

Result<VmOffset> VmSystem::MapRegionLocked(AddressMap& map, VmOffset addr, VmSize size,
                                           bool anywhere, MapEntry entry) {
  if (anywhere) {
    Result<VmOffset> found = map.FindSpace(size, addr);
    if (!found.ok()) {
      return found.status();
    }
    addr = found.value();
  } else {
    addr = TruncPage(addr, page_size());
    if (!map.RangeFree(addr, size)) {
      return KernReturn::kNoSpace;
    }
  }
  entry.start = addr;
  entry.end = addr + size;
  KernReturn kr = map.Insert(std::move(entry));
  if (!IsOk(kr)) {
    return kr;
  }
  return addr;
}

KernReturn VmSystem::Deallocate(TaskVm& task, VmOffset addr, VmSize size) {
  if (size == 0) {
    return KernReturn::kInvalidArgument;
  }
  MaybeDrainDeferred();
  MapMutation mlk(*task.map);
  VmOffset start = TruncPage(addr, page_size());
  VmOffset end = RoundPage(addr + size, page_size());
  std::vector<MapEntry> removed = task.map->RemoveRange(start, end);
  if (removed.empty()) {
    return KernReturn::kSuccess;  // Deallocating nothing is permitted.
  }
  ChainLock chain(chain_mu_);
  for (MapEntry& entry : removed) {
    task.pmap->Remove(entry.start, entry.end);
    ReleaseEntry(chain, std::move(entry));
  }
  return KernReturn::kSuccess;
}

KernReturn VmSystem::Protect(TaskVm& task, VmOffset addr, VmSize size, bool set_max,
                             VmProt prot) {
  if (size == 0) {
    return KernReturn::kInvalidArgument;
  }
  MapMutation mlk(*task.map);
  VmOffset start = TruncPage(addr, page_size());
  VmOffset end = RoundPage(addr + size, page_size());
  if (!task.map->RangeFullyCovered(start, end - start)) {
    return KernReturn::kInvalidAddress;
  }
  for (MapEntry* entry : task.map->ClipRange(start, end)) {
    if (set_max) {
      entry->max_protection &= prot;
      entry->protection &= entry->max_protection;
    } else {
      if ((prot & ~entry->max_protection) != 0) {
        return KernReturn::kProtectionFailure;
      }
      entry->protection = prot;
    }
    // Hardware mappings may only be lowered here; faults re-validate
    // upward later (§5.5 hardware validation).
    task.pmap->Protect(entry->start, entry->end, entry->protection);
  }
  return KernReturn::kSuccess;
}

KernReturn VmSystem::Inherit(TaskVm& task, VmOffset addr, VmSize size, VmInherit inheritance) {
  if (size == 0) {
    return KernReturn::kInvalidArgument;
  }
  MapMutation mlk(*task.map);
  VmOffset start = TruncPage(addr, page_size());
  VmOffset end = RoundPage(addr + size, page_size());
  if (!task.map->RangeFullyCovered(start, end - start)) {
    return KernReturn::kInvalidAddress;
  }
  for (MapEntry* entry : task.map->ClipRange(start, end)) {
    entry->inheritance = inheritance;
  }
  return KernReturn::kSuccess;
}

std::vector<RegionInfo> VmSystem::Regions(TaskVm& task) {
  std::shared_lock<std::shared_mutex> mlk(task.map->lock());
  std::vector<RegionInfo> out;
  for (const MapEntry* entry : task.map->AllEntries()) {
    RegionInfo info;
    info.start = entry->start;
    info.end = entry->end;
    info.protection = entry->protection;
    info.max_protection = entry->max_protection;
    info.inheritance = entry->inheritance;
    info.is_shared = entry->is_share;
    if (!entry->is_share && entry->object != nullptr) {
      // Only the name port is exposed: the memory object and request ports
      // would grant data and management access (footnote 3).
      ObjectLock olk(entry->object->mu);
      info.object_name = entry->object->name_send;
    }
    out.push_back(std::move(info));
  }
  return out;
}

VmStatistics VmSystem::Statistics() const {
  VmStatistics st;
  st.page_size = page_size();
  st.free_count = phys_->free_frames();
  {
    std::lock_guard<std::mutex> g(queue_mu_);
    st.active_count = active_count_;
    st.inactive_count = inactive_count_;
  }
  const auto load = [](const std::atomic<uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  st.faults = load(counters_.faults);
  st.zero_fill_count = load(counters_.zero_fill_count);
  st.cow_faults = load(counters_.cow_faults);
  st.pageins = load(counters_.pageins);
  st.pageouts = load(counters_.pageouts);
  st.reactivations = load(counters_.reactivations);
  st.lookups = load(counters_.lookups);
  st.hits = load(counters_.hits);
  st.unlock_requests = load(counters_.unlock_requests);
  st.parked_pageouts = load(counters_.parked_pageouts);
  st.manager_deaths = load(counters_.manager_deaths);
  st.death_resolved_pages = load(counters_.death_resolved_pages);
  st.shadow_collapses = load(counters_.shadow_collapses);
  st.shadow_bypasses = load(counters_.shadow_bypasses);
  st.pages_migrated = load(counters_.pages_migrated);
  st.collapse_denied = load(counters_.collapse_denied);
  st.chain_depth_max = load(counters_.chain_depth_max);
  st.fast_faults = load(counters_.fast_faults);
  st.spurious_page_wakeups = load(counters_.spurious_page_wakeups);
  st.collapse_denied_scan_cap = load(counters_.collapse_denied_scan_cap);
  st.collapse_denied_external = load(counters_.collapse_denied_external);
  st.activations_skipped = load(counters_.activations_skipped);
  st.fault_lock_ops = load(counters_.fault_lock_ops);
  st.map_lookups_optimistic = load(counters_.map_lookups_optimistic);
  st.map_lookup_retries = load(counters_.map_lookup_retries);
  st.queue_batch_flushes = load(counters_.queue_batch_flushes);
  st.pageout_runs = load(counters_.pageout_runs);
  st.pageout_run_pages = load(counters_.pageout_run_pages);
  st.fault_ahead_requests = load(counters_.fault_ahead_requests);
  st.fault_ahead_pages = load(counters_.fault_ahead_pages);
  st.fault_ahead_unused = load(counters_.fault_ahead_unused);
  return st;
}

// --- fork (inheritance, §3.3) ----------------------------------------------

void VmSystem::ForkMap(TaskVm& parent, TaskVm& child) {
  MaybeDrainDeferred();
  // Parent before child (the documented map order). The child map is fresh
  // and unpublished, but holding its lock keeps the discipline uniform.
  MapMutation plk(*parent.map);
  MapMutation clk(*child.map);
  // Snapshot entry ranges first: share conversion mutates entries in place
  // but not the map's structure.
  std::vector<VmOffset> starts;
  for (const MapEntry* e : parent.map->AllEntries()) {
    starts.push_back(e->start);
  }
  for (VmOffset start : starts) {
    MapEntry* entry = parent.map->Lookup(start);
    if (entry == nullptr) {
      continue;
    }
    switch (entry->inheritance) {
      case VmInherit::kNone:
        break;
      case VmInherit::kShare: {
        if (!entry->is_share) {
          // Convert the direct entry into a two-level (sharing map) entry
          // (§5.1). The object moves into the sharing map. The new sharing
          // map is unpublished until the entry assignment below, all under
          // the parent's exclusive lock.
          if (entry->object == nullptr) {
            entry->object = CreateInternalObject(entry->size());
            ObjectRef(entry->object);
          }
          auto share = std::make_shared<AddressMap>(0, entry->size(), page_size());
          MapEntry sub;
          sub.start = 0;
          sub.end = entry->size();
          sub.object = std::move(entry->object);
          sub.offset = entry->offset;
          sub.protection = kVmProtAll;  // Per-task attributes stay on top.
          sub.max_protection = kVmProtAll;
          sub.needs_copy = entry->needs_copy;
          share->Insert(std::move(sub));
          entry->object = nullptr;
          entry->is_share = true;
          entry->share_map = std::move(share);
          entry->offset = 0;
          entry->needs_copy = false;
        }
        MapEntry child_entry = *entry;  // Shares the sharing map.
        child.map->Insert(std::move(child_entry));
        break;
      }
      case VmInherit::kCopy: {
        if (entry->is_share) {
          // Copy each object referenced through the sharing map. Exclusive
          // on the sharing map: concurrent faults from other tasks sharing
          // it must observe needs_copy and the write-protect atomically.
          std::unique_lock<std::shared_mutex> slk(entry->share_map->lock());
          VmOffset window_lo = entry->offset;
          VmOffset window_hi = entry->offset + entry->size();
          for (MapEntry* sub : entry->share_map->ClipRange(window_lo, window_hi)) {
            MapEntry child_entry;
            child_entry.start = entry->start + (sub->start - entry->offset);
            child_entry.end = child_entry.start + sub->size();
            child_entry.protection = entry->protection;
            child_entry.max_protection = entry->max_protection;
            child_entry.inheritance = entry->inheritance;
            if (sub->object != nullptr) {
              child_entry.object = MarkCopyOnWrite(sub);
              child_entry.offset = sub->offset;
              child_entry.needs_copy = true;
            }
            child.map->Insert(std::move(child_entry));
          }
        } else {
          // Symmetric copy-on-write (§5.5): both sides shadow on write. An
          // untouched zero-fill region has no object yet: the child simply
          // gets its own.
          if (entry->object != nullptr) {
            MarkCopyOnWrite(entry);
          }
          child.map->Insert(MapEntry(*entry));
        }
        break;
      }
    }
  }
}

// --- out-of-line transfer (vm_map_copyin / copyout) --------------------------

Result<std::shared_ptr<VmMapCopy>> VmSystem::CopyIn(TaskVm& task, VmOffset addr, VmSize size) {
  if (size == 0 || addr % page_size() != 0 || size % page_size() != 0) {
    return KernReturn::kInvalidArgument;
  }
  MaybeDrainDeferred();
  MapMutation mlk(*task.map);
  if (!task.map->RangeFullyCovered(addr, size)) {
    return KernReturn::kInvalidAddress;
  }
  auto copy = std::make_shared<VmMapCopy>(this, size);
  const VmOffset end = addr + size;
  for (MapEntry* top : task.map->ClipRange(addr, end)) {
    // One segment per entry that holds the data: the top entry itself, or
    // the sharing-map entries under it — exclusive on the sharing map for the
    // needs_copy + write-protect mutation, as in ForkMap.
    std::unique_lock<std::shared_mutex> slk;
    std::vector<MapEntry*> holders{top};
    if (top->is_share) {
      slk = std::unique_lock<std::shared_mutex>(top->share_map->lock());
      holders = top->share_map->ClipRange(top->offset, top->offset + top->size());
    }
    for (MapEntry* holder : holders) {
      VmMapCopy::Segment seg;
      seg.size = holder->size();
      if (holder->object != nullptr) {
        seg.object = MarkCopyOnWrite(holder);
        seg.offset = holder->offset;
      }
      copy->segments().push_back(std::move(seg));
    }
  }
  return copy;
}

Result<VmOffset> VmSystem::CopyOut(TaskVm& task, const std::shared_ptr<VmMapCopy>& copy) {
  if (copy == nullptr || copy->system() != this) {
    return KernReturn::kInvalidArgument;
  }
  MaybeDrainDeferred();
  MapMutation mlk(*task.map);
  if (copy->segments().empty() && copy->size() != 0) {
    return KernReturn::kInvalidArgument;  // Already consumed.
  }
  Result<VmOffset> found = task.map->FindSpace(copy->size());
  if (!found.ok()) {
    return found.status();
  }
  InsertCopyLocked(*task.map, found.value(), *copy);
  return found.value();
}

void VmSystem::InsertCopyLocked(AddressMap& map, VmOffset addr, VmMapCopy& copy) {
  for (VmMapCopy::Segment& seg : copy.segments()) {
    MapEntry entry;
    entry.start = addr;
    entry.end = addr + seg.size;
    if (seg.object != nullptr) {
      entry.object = std::move(seg.object);  // Transfers the reference.
      entry.offset = seg.offset;
      entry.needs_copy = true;
    }
    addr += seg.size;
    map.Insert(std::move(entry));
  }
  copy.segments().clear();  // Consumed.
}

VmMapCopy::~VmMapCopy() {
  if (segments_.empty()) {
    return;
  }
  // Defer the reference drops: this destructor can run inside port teardown
  // paths that must not take VM locks.
  VmSystem::DeferredWork& deferred = *system_->deferred_;
  std::lock_guard<std::mutex> g(deferred.mu);
  for (Segment& seg : segments_) {
    if (seg.object != nullptr) {
      deferred.releases.push_back(std::move(seg.object));
    }
  }
  segments_.clear();
  if (!deferred.releases.empty()) {
    deferred.pending.store(true, std::memory_order_release);
  }
}

}  // namespace mach
