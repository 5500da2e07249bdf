// Page replacement (§5.4) and the kernel ends of the data manager → kernel
// interface (Table 3-6).
//
// The pageout daemon keeps a pool of free frames by aging pages from the
// active queue through the inactive queue (second-chance on the hardware
// reference bit) and writing dirty victims back to their data managers with
// pager_data_write. A dirty victim is clustered with its object's
// contiguous dirty neighbours so one message carries the whole run (at most
// Config::pageout_cluster_max pages; runs split at non-contiguous, clean,
// busy or pinned pages). All sends on this path are non-blocking: a manager
// that cannot accept its dirty data promptly has the data *parked* with the
// trusted default pager instead (§6.2.2), so an errant manager can never
// wedge the kernel's memory pool. The one send that may run long is a
// reclaim's to a manager served in the sender's thread
// (Port::inline_manager()): that manager promised never to wait, and its
// OnDataWrite runs in the reclaiming thread.
//
// Locking: the scan runs under queue_mu_ and must take object locks in the
// reverse of the documented order, so it only ever try_locks an object —
// contended pages rotate to the queue tail and the scan moves on. A chosen
// victim is unqueued, queue_mu_ is dropped, and the pageout itself runs
// under the object lock alone, except that a reclaim's send to an inline
// manager drops it too, the run's pages busy meanwhile. Manager handlers
// run under the owning object's lock and finish with a targeted cv
// broadcast.

#include <algorithm>
#include <cassert>
#include <cstring>
#include <vector>

#include "src/base/log.h"
#include "src/pager/protocol.h"
#include "src/vm/vm_system.h"

namespace mach {

void VmSystem::StartPageoutDaemon() {
  std::lock_guard<std::mutex> lk(deferred_->mu);
  if (pageout_running_) {
    return;
  }
  pageout_running_ = true;
  shutting_down_ = false;
  pageout_thread_ = std::thread([this] { PageoutDaemonMain(); });
}

void VmSystem::StopPageoutDaemon() {
  {
    std::lock_guard<std::mutex> lk(deferred_->mu);
    if (!pageout_running_) {
      return;
    }
    shutting_down_ = true;
    deferred_->wake.notify_all();
  }
  pageout_thread_.join();
  std::lock_guard<std::mutex> lk(deferred_->mu);
  pageout_running_ = false;
}

void VmSystem::PageoutDaemonMain() {
  std::unique_lock<std::mutex> lk(deferred_->mu);
  while (!shutting_down_) {
    // A recorded manager death, whose faulters may be parked, does not
    // wait for the interval.
    if (deferred_->dead_pagers.empty()) {
      deferred_->wake.wait_for(lk, kPageoutInterval);
    }
    if (shutting_down_) {
      break;
    }
    lk.unlock();
    MaybeDrainDeferred();
    {
      std::lock_guard<std::mutex> qlk(queue_mu_);
      AgePagesLocked();
    }
    // Replenish free memory.
    uint32_t free = phys_->free_frames();
    if (free < free_target_) {
      ReclaimPass(free_target_ - free);
    }
    lk.lock();
  }
}

void VmSystem::AgePagesLocked() {
  // Keep roughly a third of the in-use pool on the inactive queue so
  // reference information accumulates.
  uint32_t inactive_target = (active_count_ + inactive_count_) / 3;
  while (inactive_count_ < inactive_target && !active_queue_.empty()) {
    PageDeactivateLocked(active_queue_.Front());
  }
}

uint32_t VmSystem::ReclaimPass(uint32_t want) {
  uint32_t freed = 0;
  std::unique_lock<std::mutex> qlk(queue_mu_);
  // Bounded scan: each iteration either frees, reactivates, rotates or
  // deactivates a page; give every resident page at most one look.
  uint32_t guard = active_count_ + inactive_count_ + 8;
  while (freed < want && guard-- > 0) {
    if (inactive_queue_.empty()) {
      if (active_queue_.empty()) {
        break;
      }
      // Age as the daemon does, so a victim's dirty neighbours are inactive
      // too and its write-back clusters, whichever thread reclaims.
      AgePagesLocked();
      PageDeactivateLocked(active_queue_.Front());
      continue;
    }
    VmPage* page = inactive_queue_.Front();
    // Identity is stable while queue_mu_ is held (PageRename flips it under
    // queue_mu_), but the object lock order is the reverse of ours: try
    // only, and rotate contended pages to the tail.
    VmObject* owner = page->object;
    if (!owner->mu.try_lock()) {
      inactive_queue_.Remove(page);
      inactive_queue_.PushBack(page);
      continue;
    }
    ObjectLock olk(owner->mu, std::adopt_lock);
    // A queued page's owner is always alive (termination unqueues), so a
    // strong reference is safe to take here and keeps the object across the
    // pageout I/O below.
    std::shared_ptr<VmObject> object = owner->shared_from_this();
    if (page->busy || page->pin_count > 0) {
      // A request still holds it, or a fault is installing this frame right
      // now; clearly not idle.
      inactive_queue_.Remove(page);
      inactive_queue_.PushBack(page);
      continue;
    }
    if (phys_->IsReferenced(page->frame)) {
      // Second chance: touched while inactive.
      phys_->ClearReference(page->frame);
      PageActivateLocked(page);
      counters_.reactivations.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    PageRemoveFromQueueLocked(page);
    qlk.unlock();
    freed += PageoutPageLocked(olk, object, page);
    olk.unlock();
    qlk.lock();
  }
  qlk.unlock();
  if (freed > 0) {
    free_cv_.notify_all();
  }
  return freed;
}

bool VmSystem::EnsureInternalPager(ChainLock& chain, ObjectLock& olk,
                                   const std::shared_ptr<VmObject>& object) {
  (void)chain;
  (void)olk;
  if (object->pager.valid()) {
    return true;
  }
  if (!default_pager_service_.valid() || default_pager_service_.IsDead()) {
    return false;
  }
  // The kernel itself creates the memory object port and passes its receive
  // right to the default pager in a pager_create call (§3.4.1).
  PortPair obj_port = PortAllocate("kernel-object");
  // Pageout sends are non-blocking; a roomy queue keeps bursts of dirty
  // pages flowing to the (trusted, always-draining) default pager.
  obj_port.receive.port()->SetBacklog(1024);
  PortPair request = PortAllocate("pager-request");
  InstallPagerRequestHandler(request.receive);
  PortPair name = PortAllocate("pager-name");
  PagerCreateArgs args;
  args.new_memory_object = std::move(obj_port.receive);
  args.new_request_port = request.send;
  args.new_name_port = name.send;
  args.page_size = page_size();
  KernReturn kr = MsgSend(default_pager_service_, EncodePagerCreate(std::move(args)), kPoll);
  if (!IsOk(kr)) {
    // The (trusted) default pager could not take the message right now; the
    // receive right died with the message, so start fresh next time.
    return false;
  }
  object->pager = obj_port.send;
  object->request_receive = std::move(request.receive);
  object->request_send = request.send;
  object->name_receive = std::move(name.receive);
  object->name_send = name.send;
  object->pager_initialized = true;
  objects_by_pager_.emplace(object->pager.id(), object);
  objects_by_request_.emplace(object->request_send.id(), object);
  // Even the trusted default pager gets a death watch: if it goes away the
  // same §6.2.1 policy applies instead of a hung fault.
  object->pager.port()->RequestDeathNotification(death_notify_send_);
  return true;
}

void VmSystem::DropPagerLocked(ChainLock& chain, ObjectLock& olk, VmObject* object) {
  (void)chain;
  (void)olk;
  // Order matters: dropping the pager send right *first* makes the manager's
  // no-senders notification for the object port precede the request-port
  // death on the manager's notify queue — managers reclaim backing storage
  // on no-senders and treat the subsequent death as confirmation, never the
  // reverse.
  if (object->pager.valid()) {
    objects_by_pager_.erase(object->pager.id());
    // The kernel stops watching the port: a later death notice would name
    // an object it no longer has.
    object->pager.port()->CancelDeathNotification(death_notify_send_);
  }
  if (object->request_receive.valid()) {
    objects_by_request_.erase(object->request_receive.id());
  }
  object->pager = SendRight();
  object->request_send = SendRight();
  object->name_send = SendRight();
  object->request_receive.Destroy();
  object->name_receive.Destroy();
}

uint32_t VmSystem::PageoutPageLocked(ObjectLock& olk, const std::shared_ptr<VmObject>& object,
                                     VmPage* page) {
  for (;;) {
    // Invalidate all hardware mappings first, then sample the modify bit:
    // no access can slip in after the sample. (The loop re-runs this after
    // any window where the object lock was dropped.)
    Pmap::PageProtect(phys_, page->frame, kVmProtNone);
    bool dirty = page->dirty || phys_->IsModified(page->frame);
    if (!dirty) {
      // Clean data: the manager (or a zero fill) can reproduce it.
      PageFreeLocked(olk, page);
      return 1;
    }
    if (object->pager.valid()) {
      break;
    }
    // Kernel-created object touched for the first time: hand it to the
    // default pager via pager_create. That needs chain_mu_, which sits
    // *above* the object lock — pin the victim, drop the object lock, take
    // the chain lock, relock, revalidate.
    PagePin pin = MakePinLocked(olk, object, page, /*from_backing=*/false);
    olk.unlock();
    bool have_pager;
    {
      ChainLock chain(chain_mu_);
      olk.lock();
      have_pager = object->alive && EnsureInternalPager(chain, olk, object);
    }
    const bool last_pin = page->pin_count == 1;
    UnpinPage(pin, &olk);
    if (!object->alive) {
      // Terminated while unlocked: the page was orphaned, and the last
      // unpinner freed it.
      return last_pin ? 1 : 0;
    }
    if (page->pin_count > 0) {
      // A fault claimed the page during the gap: no longer a victim.
      PageActivate(page);
      return 0;
    }
    if (!have_pager) {
      PageActivate(page);  // Try again later.
      return 0;
    }
    // A mapping may have been re-established during the gap; loop to
    // re-protect and resample so no modification is lost.
  }
  // Dirty: the data must reach backing storage (pager_data_write). Gather
  // the object's contiguous dirty neighbours so one message carries the
  // whole run instead of one per page.
  std::vector<VmPage*> run = CollectPageoutClusterLocked(object.get(), page);
  if (WritePageoutRun(olk, object, run, /*park_on_failure=*/true, /*reclaim=*/true) !=
          RunWriteResult::kFailed ||
      !object->alive) {
    // Written or parked; or orphaned to us by a termination while the send
    // had the object unlocked, as a request's placeholders are.
    PagesFreeLocked(olk, run);
    return static_cast<uint32_t>(run.size());
  }
  // Unprotected mode (ablation): give up on these pages for now.
  for (VmPage* p : run) {
    PageActivate(p);
  }
  return 0;
}

std::vector<VmPage*> VmSystem::CollectPageoutClusterLocked(VmObject* object, VmPage* seed) {
  std::vector<VmPage*> run{seed};
  const VmSize ps = page_size();
  const size_t cap = config_.pageout_cluster_max;
  // Claims the page at `off` for the run if it is a settled dirty
  // neighbour that is already aging out (on the inactive queue, like the
  // seed was): stealing a hot active neighbour would save one message now
  // at the price of a near-certain refault. Sample the modify bit first so
  // clean pages keep their mappings, then protect-and-resample like the
  // seed: a page dirty before the protect stays dirty, and no access can
  // slip in after it.
  auto claim = [&](VmOffset off) -> VmPage* {
    VmPage* p = PageLookupRaw(object, off);
    if (p == nullptr || p->busy || p->pin_count > 0 ||
        p->queue.load(std::memory_order_relaxed) != VmPage::Queue::kInactive) {
      return nullptr;
    }
    if (!p->dirty && !phys_->IsModified(p->frame)) {
      return nullptr;  // Clean: the run splits here.
    }
    Pmap::PageProtect(phys_, p->frame, kVmProtNone);
    p->dirty = true;
    PageRemoveFromQueue(p);
    return p;
  };
  std::vector<VmPage*> below;
  for (VmOffset off = seed->offset; off >= ps && run.size() + below.size() < cap;) {
    off -= ps;
    VmPage* p = claim(off);
    if (p == nullptr) {
      break;
    }
    below.push_back(p);
  }
  std::reverse(below.begin(), below.end());
  below.insert(below.end(), run.begin(), run.end());
  run = std::move(below);
  for (VmOffset off = seed->offset + ps; run.size() < cap; off += ps) {
    VmPage* p = claim(off);
    if (p == nullptr) {
      break;
    }
    run.push_back(p);
  }
  return run;
}

std::vector<VmPage*> VmSystem::SortedDirtyLocked(const std::vector<VmPage*>& pages,
                                                 VmProt prot) {
  std::vector<VmPage*> dirty;
  for (VmPage* page : pages) {
    // Lower the mappings before sampling so no modification slips past
    // the copy.
    Pmap::PageProtect(phys_, page->frame, prot);
    if (page->dirty || phys_->IsModified(page->frame)) {
      page->dirty = true;
      dirty.push_back(page);
    }
  }
  std::sort(dirty.begin(), dirty.end(),
            [](const VmPage* a, const VmPage* b) { return a->offset < b->offset; });
  return dirty;
}

std::vector<std::vector<VmPage*>> VmSystem::BuildPageoutRuns(
    std::vector<VmPage*> dirty_sorted) const {
  const VmSize ps = page_size();
  const size_t cap = config_.pageout_cluster_max;
  std::vector<std::vector<VmPage*>> runs;
  for (VmPage* p : dirty_sorted) {
    if (!runs.empty() && runs.back().size() < cap &&
        runs.back().back()->offset + ps == p->offset) {
      runs.back().push_back(p);
    } else {
      runs.push_back({p});
    }
  }
  return runs;
}

VmSystem::RunWriteResult VmSystem::WritePageoutRun(ObjectLock& olk,
                                                   const std::shared_ptr<VmObject>& object,
                                                   const std::vector<VmPage*>& run,
                                                   bool park_on_failure, bool reclaim) {
  const VmSize ps = page_size();
  PagerDataWriteArgs args;
  args.offset = run.front()->offset;
  // The run moves into the message; the frames stay resident, so the
  // parking fallback below re-reads them instead.
  args.data.resize(run.size() * ps);
  for (size_t i = 0; i < run.size(); ++i) {
    phys_->ReadFrame(run[i]->frame, 0, args.data.data() + i * ps, ps);
  }
  counters_.pageout_runs.fetch_add(1, std::memory_order_relaxed);
  counters_.pageout_run_pages.fetch_add(run.size(), std::memory_order_relaxed);
  Message msg = EncodePagerDataWrite(std::move(args));
  const SendRight pager = object->pager;
  KernReturn kr;
  if (reclaim && pager.port()->inline_manager()) {
    // A reclaim holds no lock but this one (ReclaimPass), so it drops it and
    // the manager's OnDataWrite runs in this thread. The run stays busy
    // meanwhile: unmapped and unqueued, its frames unchanged, and a faulter
    // that wants one of its pages waits for it.
    for (VmPage* p : run) {
      p->busy = true;
    }
    {
      ScopedUnlock unlock(olk);
      kr = MsgSend(pager, std::move(msg), kPoll, SendLocks::kNone);
    }
    for (VmPage* p : run) {
      p->busy = false;
    }
    object->cv.notify_all();
    if (object->pager.port() != pager.port()) {
      kr = KernReturn::kPortDead;  // The manager was dropped meanwhile.
    }
  } else {
    kr = MsgSend(pager, std::move(msg), kPoll);
  }
  if (IsOk(kr)) {
    counters_.pageouts.fetch_add(run.size(), std::memory_order_relaxed);
    // The pager now holds these offsets: chain collapse must account for
    // them even though no pages are resident.
    for (VmPage* p : run) {
      object->paged_offsets.insert(p->offset);
    }
    return RunWriteResult::kWritten;
  }
  // The manager did not accept the data (queue full / port dead).
  if (park_on_failure && object->alive && config_.errant_manager_protection &&
      parking_ != nullptr) {
    // §6.2.2: divert to the default pager so pageout is never starved. The
    // parking store is per-page; each frame is read again for it.
    for (VmPage* page : run) {
      std::vector<std::byte> page_data(ps);
      phys_->ReadFrame(page->frame, 0, page_data.data(), ps);
      parking_->Park(object->id(), page->offset, std::move(page_data));
      object->parked_offsets.insert(page->offset);
    }
    counters_.parked_pageouts.fetch_add(run.size(), std::memory_order_relaxed);
    return RunWriteResult::kParked;
  }
  return RunWriteResult::kFailed;
}

// --- data manager -> kernel calls (Table 3-6) -------------------------------

void VmSystem::InstallPagerRequestHandler(const ReceiveRight& request) {
  request.port()->SetKernelObjectHandler(
      [guard = kernel_calls_](Port& port, Message& msg, Timeout) -> std::optional<KernReturn> {
        // Only the Table 3-6 ids, which the kernel never sends itself: a
        // kernel thread holding VM locks can then never enter a handler,
        // even when an errant manager names a request port as a memory
        // object. A death notice forged here stays queued too: only the
        // notify port's handler records deaths.
        if (!IsPagerManagerCall(msg.id())) {
          return std::nullopt;
        }
        std::shared_lock<std::shared_mutex> alive(guard->mu);
        if (guard->vm == nullptr) {
          return std::nullopt;
        }
        guard->vm->HandlePagerMessage(port.id(), std::move(msg));
        return KernReturn::kSuccess;
      });
}

void VmSystem::HandlePagerMessage(uint64_t request_port_id, Message&& msg) {
  std::shared_ptr<VmObject> object;
  {
    ChainLock chain(chain_mu_);
    auto it = objects_by_request_.find(request_port_id);
    if (it == objects_by_request_.end()) {
      MACH_LOG(kDebug) << "pager message for unknown request port " << request_port_id;
      return;
    }
    object = it->second;
  }
  switch (msg.id()) {
    case kMsgPagerDataProvided: {
      Result<PagerDataProvidedArgs> args = DecodePagerDataProvided(msg);
      if (args.ok()) {
        HandleDataProvided(object, args.value().offset, args.value().data,
                           args.value().lock_value);
      }
      break;
    }
    case kMsgPagerDataUnavailable: {
      Result<PagerDataUnavailableArgs> args = DecodePagerDataUnavailable(msg);
      if (args.ok()) {
        HandleDataUnavailable(object, args.value().offset, args.value().size);
      }
      break;
    }
    case kMsgPagerDataLock: {
      Result<PagerDataLockArgs> args = DecodePagerDataLock(msg);
      if (args.ok()) {
        HandleDataLock(object, args.value().offset, args.value().length,
                       args.value().lock_value);
      }
      break;
    }
    case kMsgPagerFlushRequest: {
      Result<PagerRangeArgs> args = DecodePagerFlushRequest(msg);
      if (args.ok()) {
        HandleFlush(object, args.value().offset, args.value().length);
      }
      break;
    }
    case kMsgPagerCleanRequest: {
      Result<PagerRangeArgs> args = DecodePagerCleanRequest(msg);
      if (args.ok()) {
        HandleClean(object, args.value().offset, args.value().length);
      }
      break;
    }
    case kMsgPagerCache: {
      Result<PagerCacheArgs> args = DecodePagerCache(msg);
      if (args.ok()) {
        HandleCache(object, args.value().may_cache);
      }
      break;
    }
    default:
      MACH_LOG(kWarn) << "unknown pager message id " << msg.id();
      break;
  }
}

void VmSystem::HandleDataProvided(const std::shared_ptr<VmObject>& object, VmOffset offset,
                                  const std::vector<std::byte>& data, VmProt lock_value) {
  const VmSize ps = page_size();
  if (offset % ps != 0) {
    return;  // Alignment violation: discard.
  }
  ObjectLock olk(object->mu);
  if (!object->alive) {
    return;
  }
  // Only integral multiples of the page size are accepted; a trailing
  // partial page is discarded (§3.4.1).
  const VmSize full = (data.size() / ps) * ps;
  // Activated together at the end: the object lock, held throughout, keeps
  // them stable, and a multi-page provision pays for one queue lock.
  std::vector<VmPage*> provided;
  provided.reserve(full / ps);
  for (VmOffset delta = 0; delta < full; delta += ps) {
    const VmOffset off = offset + delta;
    VmPage* page = nullptr;
    if (PageRequest* req = FindRequestLocked(*object, PageRequest::Kind::kData, off)) {
      // A placeholder waits for it, unless this is a duplicate provision.
      const auto i = static_cast<uint32_t>((off - req->offset) / ps);
      page = SettleLocked(*object, *req, i, PageRequest::State::kProvided) ? req->pages[i] : nullptr;
    } else if (PageLookup(object.get(), off) == nullptr && phys_->free_frames() > free_target_) {
      // Unsolicited data (pre-paging by an advanced manager), accepted only
      // while memory is plentiful — a flooding manager must not drain the
      // pool (§6.1). Already-resident data is ignored.
      Result<VmPage*> np = PageAllocLocked(object.get(), off, /*allow_reserve=*/false);
      page = np.ok() ? np.value() : nullptr;
    }
    if (page == nullptr) {
      continue;
    }
    phys_->WriteFrame(page->frame, 0, data.data() + delta, ps);
    phys_->ClearModify(page->frame);
    phys_->ClearReference(page->frame);
    page->page_lock = lock_value;
    provided.push_back(page);
    counters_.pageins.fetch_add(1, std::memory_order_relaxed);
  }
  PagesActivate(provided);
  object->cv.notify_all();
}

void VmSystem::HandleDataUnavailable(const std::shared_ptr<VmObject>& object, VmOffset offset,
                                     VmSize size) {
  const VmSize ps = page_size();
  ObjectLock olk(object->mu);
  if (!object->alive) {
    return;
  }
  // Zero-filled pages are queued like provided ones, so pageout can reclaim
  // the speculative ones no fault ever touches.
  std::vector<VmPage*> settled;  // Stable until activated: olk is held.
  for (VmOffset off = TruncPage(offset, ps); off < offset + size; off += ps) {
    if (PageRequest* req = FindRequestLocked(*object, PageRequest::Kind::kData, off)) {
      const auto i = static_cast<uint32_t>((off - req->offset) / ps);
      if (SettleLocked(*object, *req, i, PageRequest::State::kUnavailable)) {
        settled.push_back(req->pages[i]);
      }
    }
  }
  PagesActivate(settled);
  object->cv.notify_all();
}

void VmSystem::HandleDataLock(const std::shared_ptr<VmObject>& object, VmOffset offset,
                              VmSize length, VmProt lock_value) {
  const VmSize ps = page_size();
  ObjectLock olk(object->mu);
  if (!object->alive) {
    return;
  }
  for (VmOffset off = TruncPage(offset, ps); off < offset + length; off += ps) {
    // Any lock change answers a pager_data_unlock; the faulter looks again.
    if (PageRequest* req = FindRequestLocked(*object, PageRequest::Kind::kUnlock, off)) {
      SettleLocked(*object, *req, 0, PageRequest::State::kProvided);
    }
    VmPage* page = PageLookup(object.get(), off);
    if (page == nullptr) {
      continue;
    }
    page->page_lock = lock_value;
    // Lower existing hardware mappings to the newly permitted access. (A
    // busy placeholder has no mappings, so this is a no-op for it; pinned
    // pages are re-clamped at unpin if the lock changed under them.)
    Pmap::PageProtect(phys_, page->frame, kVmProtAll & ~lock_value);
  }
  object->cv.notify_all();
}

void VmSystem::HandleFlush(const std::shared_ptr<VmObject>& object, VmOffset offset,
                           VmSize length) {
  ObjectLock olk(object->mu);
  if (!object->alive) {
    return;
  }
  std::vector<VmPage*> victims = RangePagesLocked(object.get(), offset, length);
  // Invalidate every victim's mappings first, then sample: the dirty ones
  // go back to the manager in contiguous multi-page runs before anything
  // is freed (invalidation writes back modifications first, §3.4.1).
  std::vector<VmPage*> dirty = SortedDirtyLocked(victims, kVmProtNone);
  if (object->pager.valid()) {
    for (const std::vector<VmPage*>& run : BuildPageoutRuns(std::move(dirty))) {
      // kFailed (unprotected mode) leaves the run unwritten; the victims
      // are discarded below either way, exactly as the per-page path did.
      WritePageoutRun(olk, object, run, /*park_on_failure=*/true);
    }
  }
  PagesFreeLocked(olk, victims);
  AckLockCompletedLocked(*object, offset, length);
  object->cv.notify_all();
}

void VmSystem::HandleClean(const std::shared_ptr<VmObject>& object, VmOffset offset,
                           VmSize length) {
  ObjectLock olk(object->mu);
  if (!object->alive) {
    return;
  }
  // Write-protect, so the copy sent below stays the page's latest data.
  std::vector<VmPage*> dirty = SortedDirtyLocked(RangePagesLocked(object.get(), offset, length),
                                                 kVmProtRead | kVmProtExecute);
  if (object->pager.valid()) {
    for (const std::vector<VmPage*>& run : BuildPageoutRuns(std::move(dirty))) {
      if (WritePageoutRun(olk, object, run, /*park_on_failure=*/false) ==
          RunWriteResult::kWritten) {
        for (VmPage* page : run) {
          page->dirty = false;
          phys_->ClearModify(page->frame);
        }
      }
      // On failure the run's pages simply stay dirty; pageout retries later.
    }
  }
  AckLockCompletedLocked(*object, offset, length);
  object->cv.notify_all();
}

std::vector<VmPage*> VmSystem::RangePagesLocked(VmObject* object, VmOffset offset,
                                                VmSize length) {
  std::vector<VmPage*> pages;
  for (VmPage* page : object->pages) {
    if (page->offset >= TruncPage(offset, page_size()) && page->offset < offset + length &&
        !page->busy && page->pin_count == 0) {
      pages.push_back(page);
    }
  }
  return pages;
}

void VmSystem::AckLockCompletedLocked(const VmObject& object, VmOffset offset, VmSize length) {
  if (object.pager.valid()) {
    MsgSend(object.pager,
            EncodePagerLockCompleted(PagerLockCompletedArgs{object.request_send, offset, length}),
            kPoll);
  }
}

void VmSystem::HandleCache(const std::shared_ptr<VmObject>& object, bool may_cache) {
  ChainLock chain(chain_mu_);
  object->can_persist = may_cache;
  if (!may_cache && object->cached) {
    // Permission rescinded after the object went idle: terminate now.
    TerminateObject(chain, object);
  }
}

void VmSystem::HandlePagerDeath(ChainLock& chain, std::shared_ptr<VmObject> object) {
  const bool zero_fill = config_.on_pager_timeout == Config::OnPagerTimeout::kZeroFill;
  if (zero_fill && object->cached) {
    // A §3.4.1 cache entry has no map references: the pager registries are
    // the only thing keeping it alive, so the severing below would drop
    // the last reference to an object that still owns resident pages —
    // and nothing could ever map the re-homed internal object anyway.
    // Terminate instead; the dead pager takes no write-backs, so the
    // cached copies are simply discarded.
    counters_.manager_deaths.fetch_add(1, std::memory_order_relaxed);
    TerminateObject(chain, object);
    return;
  }
  ObjectLock olk(object->mu);
  if (!object->alive) {
    return;
  }
  counters_.manager_deaths.fetch_add(1, std::memory_order_relaxed);
  // Every request in flight settles now, under the same §6.2.1 policy a
  // timeout would apply: each unanswered placeholder, fault-ahead ones too,
  // is zero-filled or becomes an error page, and its owner wakes at once.
  std::vector<VmPage*> settled;  // Stable until activated: olk is held.
  for (PageRequest* req : object->requests) {
    for (uint32_t i = 0; i < std::max(req->count, 1u); ++i) {
      if (SettleLocked(*object, *req, i, PageRequest::State::kManagerDead)) {
        counters_.death_resolved_pages.fetch_add(1, std::memory_order_relaxed);
        if (zero_fill) {
          settled.push_back(req->pages[i]);
        }
      }
    }
  }
  // A dead manager can never answer pager_data_unlock: lift its locks.
  for (VmPage* page : object->pages) {
    page->page_lock = kVmProtNone;
  }
  PagesActivate(settled);
  if (zero_fill) {
    // Sever the association with the dead manager cleanly. The object
    // lives on as an internal one: future non-resident faults zero-fill,
    // and future pageouts re-home it with the default pager.
    DropPagerLocked(chain, olk, object.get());
    object->internal = true;
    object->pager_initialized = false;
    // Whatever the dead manager held is gone; a later re-homing with the
    // default pager must not inherit phantom coverage. (Parked offsets stay:
    // the parking store keys by the stable object id and still has the data.)
    object->paged_offsets.clear();
  }
  // Under kError the registries keep the dead pager right: resident error
  // pages answer kMemoryError, and future faults on non-resident pages hit
  // the pager.IsDead() fast path in PageInLocked (kMemoryFailure).
  object->cv.notify_all();
}

}  // namespace mach
