// The fault handler (§5.5): validity and protection, page lookup through
// the shadow chain, copy-on-write, data-manager interaction
// (pager_data_request / pager_data_unlock) and hardware validation.
//
// Concurrency shape (see the lock-order comment in vm_system.h): a fault
// resolves its map entry under the map lock(s) taken *shared*, walks the
// shadow chain under per-object locks taken hand over hand (child before
// parent), and installs the frame into the pmap under the map shared lock
// while holding only a pin on the page. A call to the data manager is one
// PageRequest record on the faulting thread's stack: the faulter waits on
// the record's state, on the owning object's condition variable — targeted
// wakeups, not a global poll — and other faulters wait for its busy
// placeholders' release there too.

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
#include <vector>

#include "src/base/lock_probe.h"
#include "src/base/log.h"
#include "src/pager/protocol.h"
#include "src/vm/vm_system.h"

namespace mach {

namespace {
using SteadyClock = std::chrono::steady_clock;

// Accumulates the VM-tier lock acquisitions made on this thread during the
// enclosing scope (one fault) into the given counter, on every exit path.
struct LockOpScope {
  explicit LockOpScope(std::atomic<uint64_t>& target)
      : target_(target), entry_(lock_probe::Count()) {}
  ~LockOpScope() {
    target_.fetch_add(lock_probe::Count() - entry_, std::memory_order_relaxed);
  }
  std::atomic<uint64_t>& target_;
  uint64_t entry_;
};

// A page walk that ends without a verdict and starts over from the top
// object: the state moved under it (a wake, a settled placeholder), or an
// allocation found its slot taken — PageAllocLocked's kMemoryPresent.
constexpr KernReturn kRescan = KernReturn::kMemoryPresent;
}  // namespace

// --- entry resolution -------------------------------------------------------

Result<VmSystem::EntryRef> VmSystem::LookupEntry(TaskVm& task, VmOffset addr, VmProt access) {
  EntryRef out;
  out.top = task.map->Lookup(addr);
  if (out.top == nullptr) {
    return KernReturn::kInvalidAddress;
  }
  if ((access & ~out.top->protection) != 0) {
    return KernReturn::kProtectionFailure;
  }
  VmOffset local;
  if (out.top->is_share) {
    VmOffset share_addr = out.top->offset + (addr - out.top->start);
    lock_probe::Note();
    out.share_lock = std::shared_lock<std::shared_mutex>(out.top->share_map->lock());
    out.holder = out.top->share_map->Lookup(share_addr);
    if (out.holder == nullptr) {
      return KernReturn::kInvalidAddress;
    }
    local = share_addr - out.holder->start;
  } else {
    out.holder = out.top;
    local = addr - out.top->start;
  }
  if (out.holder->object == nullptr ||
      (out.holder->needs_copy && (access & kVmProtWrite) != 0)) {
    // Lazy zero-fill object creation or a copy-on-write shadow push is
    // needed; both mutate the entry, so the caller must run PrepareEntry
    // under exclusive locks and retry.
    out.needs_prepare = true;
  }
  out.object_offset = out.holder->offset + local;
  return out;
}

KernReturn VmSystem::PrepareEntry(TaskVm& task, VmOffset addr, VmProt access) {
  lock_probe::Note();
  MapMutation map_lock(*task.map);
  MapEntry* top = task.map->Lookup(addr);
  if (top == nullptr) {
    return KernReturn::kInvalidAddress;
  }
  if ((access & ~top->protection) != 0) {
    return KernReturn::kProtectionFailure;
  }
  MapEntry* holder = top;
  std::unique_lock<std::shared_mutex> share_lock;
  if (top->is_share) {
    VmOffset share_addr = top->offset + (addr - top->start);
    lock_probe::Note();
    share_lock = std::unique_lock<std::shared_mutex>(top->share_map->lock());
    holder = top->share_map->Lookup(share_addr);
    if (holder == nullptr) {
      return KernReturn::kInvalidAddress;
    }
  }
  if (holder->object == nullptr) {
    // Zero-filled-on-demand region: create the backing object lazily.
    holder->object = CreateInternalObject(holder->size());
    ObjectRef(holder->object);
  }
  if (holder->needs_copy && (access & kVmProtWrite) != 0) {
    // Copy-on-write: shadow before the first write (§5.5). The chain lock
    // guards the shadow_children back-pointer update.
    lock_probe::Note();
    ChainLock chain(chain_mu_);
    MakeShadow(chain, holder);
  }
  return KernReturn::kSuccess;
}

// --- adaptive fault-ahead ---------------------------------------------------

uint32_t VmSystem::ComputeFaultAheadWindow(MapEntry* holder, VmOffset object_offset) {
  if (config_.fault_ahead_max == 1) {
    return 1;
  }
  const VmSize ps = page_size();
  const uint64_t page_no = object_offset / ps;
  const uint64_t prev = holder->fault_ahead.word.load(std::memory_order_relaxed);
  const uint64_t expected = prev & FaultAheadState::kPageMask;  // page+1; 0 = none.
  const uint32_t prev_win =
      static_cast<uint32_t>(prev >> FaultAheadState::kWindowShift);
  uint32_t win = 1;
  if (expected != 0 && page_no + 1 == expected) {
    // This miss landed exactly where the last run ended: a sequential
    // streak. Double the window. A truncated run (neighbour was resident,
    // entry boundary, frame shortage) makes the next miss arrive early and
    // reads as random — conservative, the streak just restarts.
    win = std::min(std::max(prev_win, 1u) * 2, config_.fault_ahead_max);
  }
  // Never let a run cross the mapping: clamp to the entry's remaining
  // object-coordinate range. Shm hash-stripe entries rely on this to keep a
  // run inside one shard's stripe.
  const uint64_t entry_pages_left =
      (holder->offset + holder->size() - object_offset) / ps;
  win = static_cast<uint32_t>(
      std::min<uint64_t>(win, std::max<uint64_t>(entry_pages_left, 1)));
  holder->fault_ahead.word.store(
      ((page_no + win + 1) & FaultAheadState::kPageMask) |
          (uint64_t{win} << FaultAheadState::kWindowShift),
      std::memory_order_relaxed);
  return win;
}

// --- pins -------------------------------------------------------------------

VmSystem::PagePin VmSystem::MakePinLocked(ObjectLock& olk, std::shared_ptr<VmObject> owner,
                                          VmPage* page, bool from_backing) {
  (void)olk;
  ++page->pin_count;
  PagePin pin;
  pin.owner = std::move(owner);
  pin.page = page;
  pin.from_backing = from_backing;
  pin.page_lock = page->page_lock;
  return pin;
}

void VmSystem::UnpinPage(PagePin& pin, ObjectLock* held) {
  if (pin.page == nullptr) {
    return;
  }
  // Declared before the lock: the pin's reference may be the object's last,
  // and must outlive the unlock.
  const std::shared_ptr<VmObject> owner = std::move(pin.owner);
  ObjectLock own;
  if (held == nullptr) {
    lock_probe::Note();
    own = ObjectLock(owner->mu);
    held = &own;
  }
  VmPage* page = pin.page;
  assert(page->pin_count > 0);
  --page->pin_count;
  if (page->pin_count == 0 && !owner->alive) {
    // The object died while we held the pin; the page was orphaned
    // (TerminateObject skips pinned pages) and we are the last holder.
    PageFreeLocked(*held, page);
  } else if (page->page_lock != pin.page_lock) {
    // A manager lock raced with our pmap install: the frame may now be
    // mapped with more access than the lock allows. Re-clamp every mapping.
    Pmap::PageProtect(phys_, page->frame, kVmProtAll & ~page->page_lock);
  }
  pin.page = nullptr;
  owner->cv.notify_all();
}

// --- requests to the data manager -------------------------------------------

bool VmSystem::WaitForPage(ObjectLock& olk, VmObject* object,
                           SteadyClock::time_point deadline) {
  // Bounded slice, so a deadline far off (or none) still wakes to re-check.
  SteadyClock::time_point slice = SteadyClock::now() + std::chrono::milliseconds(100);
  object->cv.wait_until(olk, std::min(slice, deadline));
  return SteadyClock::now() < deadline;
}

KernReturn VmSystem::SendToPagerLocked(ObjectLock& olk, const std::shared_ptr<VmObject>& object,
                                       Message msg) {
  Timeout bound = std::chrono::milliseconds(2000);
  if (config_.pager_timeout.has_value() && *config_.pager_timeout < *bound) {
    bound = config_.pager_timeout;
  }
  SendRight pager = object->pager;
  ScopedUnlock unlock(olk);
  // With the object lock dropped the faulter holds no VM lock (ResolvePage
  // takes none on entry), so a manager served in the sender's thread may
  // answer here, its pager_data_provided settling `req` before this returns.
  return MsgSend(pager, std::move(msg), bound, SendLocks::kNone);
}

PageRequest* VmSystem::FindRequestLocked(VmObject& object, PageRequest::Kind kind,
                                         VmOffset offset) const {
  for (PageRequest* req : object.requests) {
    if (req->kind == kind && offset >= req->offset &&
        offset < req->offset + VmSize{std::max(req->count, 1u)} * page_size()) {
      return req;
    }
  }
  return nullptr;
}

bool VmSystem::SettleLocked(const VmObject& object, PageRequest& req, uint32_t i,
                            PageRequest::State outcome) {
  using State = PageRequest::State;
  const uint64_t bit = uint64_t{1} << i;
  bool answered = false;
  // A page takes one answer. One the manager has no data for while a shadow
  // has it takes no substitute after: its owner copies the demanded page
  // from the shadow and frees the rest, even if the manager dies meanwhile.
  if (req.kind == PageRequest::Kind::kData && ((req.answered | req.unavailable) & bit) == 0) {
    VmPage* page = req.pages[i];
    // The §6.2.1 substitutes. A page the manager has no data for is zeroes
    // unless a shadow holds a copy (the owner makes it); a dead or
    // timed-out manager's page is zeroes under kZeroFill, while under
    // kError a dead manager's page becomes an error page and a timed-out
    // one is left for its owner to free.
    const bool zero_fill = outcome == State::kUnavailable
                               ? object.shadow == nullptr
                               : outcome != State::kProvided &&
                                     config_.on_pager_timeout == Config::OnPagerTimeout::kZeroFill;
    if (zero_fill) {
      phys_->ZeroFrame(page->frame);
      // No backing copy of substituted zeroes exists.
      page->dirty = outcome != State::kUnavailable;
      counters_.zero_fill_count.fetch_add(1, std::memory_order_relaxed);
    }
    page->error = outcome == State::kManagerDead && !zero_fill;
    answered = zero_fill || page->error || outcome == State::kProvided;
    req.answered |= answered ? bit : 0;
    req.unavailable |= outcome == State::kUnavailable && !answered ? bit : 0;
  }
  if (i == 0 && req.state == State::kRequested) {
    req.state = outcome;
  }
  return answered;
}

void VmSystem::AskLocked(ObjectLock& olk, const std::shared_ptr<VmObject>& object,
                         PageRequest& req, Message msg) {
  object->requests.PushBack(&req);
  if (!IsOk(SendToPagerLocked(olk, object, std::move(msg)))) {
    // It never reached the manager: no answer will come.
    SettleLocked(*object, req, 0, PageRequest::State::kTimedOut);
  }
  // Handlers settle the record in place, so an answer that landed while the
  // lock was dropped for the send is already here.
  while (object->alive && req.state == PageRequest::State::kRequested) {
    if (!WaitForPage(olk, object.get(), req.deadline)) {
      SettleLocked(*object, req, 0, PageRequest::State::kTimedOut);
    } else if (req.state == PageRequest::State::kRequested) {
      counters_.spurious_page_wakeups.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void VmSystem::ReleaseRequestLocked(ObjectLock& olk, VmObject& object, PageRequest& req) {
  object.requests.Remove(&req);
  for (uint32_t i = 0; i < req.count; ++i) {
    // An unanswered fault-ahead page is freed, never given a verdict no
    // thread asked for; a later demand fault asks again. A dead object's
    // pages were orphaned to us by TerminateObject.
    if (object.alive && ((req.answered >> i) & 1) != 0) {
      req.pages[i]->busy = false;
    } else {
      PageFreeLocked(olk, req.pages[i]);
    }
  }
  object.cv.notify_all();
}

KernReturn VmSystem::RequestUnlockLocked(ObjectLock& olk, const std::shared_ptr<VmObject>& object,
                                         VmOffset offset, VmProt access,
                                         SteadyClock::time_point deadline) {
  if (SteadyClock::now() >= deadline) {
    return KernReturn::kMemoryFailure;
  }
  if (FindRequestLocked(*object, PageRequest::Kind::kUnlock, offset) != nullptr) {
    // Another fault has asked already; wait for its answer.
    return WaitForPage(olk, object.get(), deadline) ? KernReturn::kSuccess
                                                    : KernReturn::kMemoryFailure;
  }
  PageRequest req(PageRequest::Kind::kUnlock, offset, deadline);
  counters_.unlock_requests.fetch_add(1, std::memory_order_relaxed);
  PagerDataUnlockArgs args;
  args.pager_request_port = object->request_send;
  args.offset = offset;
  args.length = page_size();
  args.desired_access = access;
  AskLocked(olk, object, req, EncodePagerDataUnlock(args));
  ReleaseRequestLocked(olk, *object, req);
  // A dead manager's locks are lifted, so its death answers too.
  return object->alive && req.state != PageRequest::State::kTimedOut
             ? KernReturn::kSuccess
             : KernReturn::kMemoryFailure;
}

Result<VmPage*> VmSystem::PageInLocked(ObjectLock& olk, const std::shared_ptr<VmObject>& object,
                                       VmOffset offset, VmProt access, uint32_t window,
                                       bool allow_reserve, SteadyClock::time_point deadline) {
  // §6.2.2: data parked with the default pager takes precedence over asking
  // the (possibly errant) manager.
  if (parking_ != nullptr && object->parked_offsets.erase(offset) != 0) {
    std::optional<std::vector<std::byte>> data = parking_->Unpark(object->id(), offset);
    if (data.has_value()) {
      Result<VmPage*> np = PageAllocLocked(object.get(), offset, allow_reserve);
      if (!np.ok()) {
        // Keep the unparked bytes safe either way.
        object->parked_offsets.insert(offset);
        parking_->Park(object->id(), offset, std::move(*data));
        return np.status();
      }
      VmSize n = std::min<VmSize>(data->size(), page_size());
      phys_->WriteFrame(np.value()->frame, 0, data->data(), n);
      np.value()->dirty = true;  // Never reached its manager.
      return np;
    }
  }
  if (object->pager.IsDead()) {
    // Destruction of a memory object by the data manager aborts requests in
    // progress (§6.2.1).
    if (config_.on_pager_timeout != Config::OnPagerTimeout::kZeroFill) {
      return KernReturn::kMemoryFailure;
    }
    return ZeroFillLocked(olk, object.get(), offset, allow_reserve);
  }
  // Cache miss: a placeholder for the demanded page and one pager_data_request
  // for it. Fault-ahead extends the request over a contiguous run of absent
  // neighbours, each with its own placeholder. The run ends at the object
  // end, any resident page (PageAllocLocked returns kMemoryPresent), parked
  // data, an offset an internal object never pushed to the default pager,
  // or a frame shortage — speculation never dips into the reserve.
  Result<VmPage*> np = PageAllocLocked(object.get(), offset, allow_reserve);
  if (!np.ok()) {
    return np.status();
  }
  PageRequest req(PageRequest::Kind::kData, offset, deadline);
  do {
    np.value()->busy = true;
    np.value()->readahead = req.count > 0;
    req.pages[req.count++] = np.value();
    const VmOffset next = offset + VmOffset{req.count} * page_size();
    if (req.count == window || next >= object->size() ||
        object->parked_offsets.count(next) != 0 ||
        (object->internal && object->paged_offsets.count(next) == 0)) {
      break;
    }
    np = PageAllocLocked(object.get(), next, /*allow_reserve=*/false);
  } while (np.ok());
  if (req.count > 1) {
    counters_.fault_ahead_requests.fetch_add(1, std::memory_order_relaxed);
    counters_.fault_ahead_pages.fetch_add(req.count - 1, std::memory_order_relaxed);
  }
  PagerDataRequestArgs args;
  args.pager_request_port = object->request_send;
  args.offset = offset;
  args.length = VmSize{req.count} * page_size();
  args.desired_access = access;
  AskLocked(olk, object, req, EncodePagerDataRequest(args));
  KernReturn failure = KernReturn::kMemoryFailure;
  if (object->alive && (req.unavailable & 1) != 0 && object->shadow != nullptr) {
    // The manager has no data for the page and the shadow does: copy it
    // from there (footnote 6), the record keeping the placeholder busy
    // across the recursion.
    Result<PagePin> backing = [&, shadow = object->shadow,
                               at = offset + object->shadow_offset] {
      ScopedUnlock unlock(olk);
      return ResolvePage(shadow, at, kVmProtRead);
    }();
    if (!backing.ok()) {
      failure = backing.status();  // The placeholder is freed below.
    } else {
      phys_->CopyFrame(backing.value().page->frame, req.pages[0]->frame);
      req.answered |= 1;  // Filled from the shadow.
      UnpinPage(backing.value());
    }
  }
  VmPage* page = req.pages[0];
  const bool settled = object->alive && (req.answered & 1) != 0;
  ReleaseRequestLocked(olk, *object, req);
  if (!settled) {
    return failure;
  }
  return page;
}

// --- the page walk ----------------------------------------------------------

Result<VmSystem::PagePin> VmSystem::ResolvePage(std::shared_ptr<VmObject> first_object,
                                                VmOffset first_offset, VmProt fault_type,
                                                uint32_t fa_window) {
  assert(first_offset % page_size() == 0);
  // Deadline for data-manager interactions (§6.2.1 failure options).
  SteadyClock::time_point deadline = SteadyClock::time_point::max();
  if (config_.pager_timeout.has_value()) {
    deadline = SteadyClock::now() + *config_.pager_timeout;
  }

  bool first_probe = true;
  int shortage_rounds = 0;
  for (;;) {  // Each iteration is one full rescan from the top object.
    // Why a scan ends without a verdict: kRescan starts over from the top,
    // kResourceShortage waits for frames first. PageAllocLocked's two
    // failures (slot taken, no frame) are exactly these, so an allocation
    // that fails just hands its status on.
    KernReturn retry = KernReturn::kSuccess;
    const bool allow_reserve = shortage_rounds >= 100;
    std::shared_ptr<VmObject> object = first_object;
    VmOffset offset = first_offset;
    uint64_t depth = 1;
    lock_probe::Note();
    ObjectLock olk(object->mu);
    while (retry == KernReturn::kSuccess) {
      // Invariant here: olk holds object->mu.
      VmPage* page = PageLookup(object.get(), offset);
      if (page == nullptr && object->pager.valid()) {
        // Not resident in a pager-backed object: unpark it or ask the
        // manager. The page comes back settled, straight from the request.
        first_probe = false;
        Result<VmPage*> in = PageInLocked(olk, object, offset, fault_type,
                                          object == first_object ? fa_window : 1,
                                          allow_reserve, deadline);
        if (!in.ok()) {
          if (in.status() != kRescan && in.status() != KernReturn::kResourceShortage) {
            return in.status();
          }
          retry = in.status();
          continue;
        }
        page = in.value();
      }
      if (page != nullptr) {
        // A faulting thread has reached this page: whatever happens next
        // (wait, pin), the speculation paid off.
        page->readahead = false;
        if (page->busy) {
          // A placeholder of another thread's request: wait for its release
          // and rescan from the top (the pointer may dangle after a wake —
          // the owner may have freed it).
          if (!WaitForPage(olk, object.get(), deadline)) {
            return KernReturn::kMemoryFailure;
          }
          if (VmPage* p2 = PageLookup(object.get(), offset); p2 != nullptr && p2->busy) {
            counters_.spurious_page_wakeups.fetch_add(1, std::memory_order_relaxed);
          }
          retry = kRescan;
          continue;
        }
        if (page->error) {
          return KernReturn::kMemoryError;
        }
        if (object == first_object) {
          // Found in the top object. Honour any data-manager lock: ask for
          // an unlock, then look again (the lock was dropped for the send).
          if ((fault_type & page->page_lock) != 0 && object->pager.valid()) {
            first_probe = false;
            KernReturn kr = RequestUnlockLocked(olk, object, offset, fault_type, deadline);
            if (!IsOk(kr)) {
              return kr;
            }
            continue;
          }
          if (first_probe) {
            // Settled page in the top object on the very first probe — the
            // fast path collapse funnels long-lived fork survivors into.
            counters_.fast_faults.fetch_add(1, std::memory_order_relaxed);
          }
          return MakePinLocked(olk, object, page, /*from_backing=*/false);
        }
        // Found in a backing (shadow ancestor) object.
        if ((fault_type & kVmProtWrite) != 0) {
          // Copy-on-write: push a private copy into the top object. Pin the
          // backing page so it survives while we drop its lock and lock the
          // top object (child-before-parent order forbids holding both the
          // other way, and we are at the parent now).
          PagePin source = MakePinLocked(olk, object, page, /*from_backing=*/true);
          olk.unlock();
          lock_probe::Note();
          ObjectLock top_lk(first_object->mu);
          Result<VmPage*> np = PageAllocLocked(first_object.get(), first_offset, allow_reserve);
          PagePin pin;
          if (np.ok()) {
            phys_->CopyFrame(page->frame, np.value()->frame);
            // A mapping of the original cannot tell whether it serves this
            // chain, which now has its own copy, or another one: drop them
            // all, as Mach's vm_fault does after a copy. The other chains
            // re-fault onto the original; this one installs the copy.
            Pmap::PageProtect(phys_, page->frame, kVmProtNone);
            np.value()->dirty = true;
            counters_.cow_faults.fetch_add(1, std::memory_order_relaxed);
            pin = MakePinLocked(top_lk, first_object, np.value(), /*from_backing=*/false);
          }
          top_lk.unlock();
          UnpinPage(source);
          if (!np.ok()) {
            retry = np.status();  // Slot taken (rescan, use that page) or no frame.
            continue;
          }
          return pin;
        }
        return MakePinLocked(olk, object, page, /*from_backing=*/true);
      }
      if (object->shadow != nullptr) {
        // Walk down, hand over hand: take the parent's lock before
        // releasing the child's so the shadow pointer we followed cannot be
        // spliced out from under us mid-step.
        std::shared_ptr<VmObject> parent = object->shadow;
        VmOffset parent_offset = offset + object->shadow_offset;
        lock_probe::Note();
        ObjectLock plk(parent->mu);
        olk.unlock();
        object = std::move(parent);
        offset = parent_offset;
        olk = std::move(plk);
        ++depth;
        // Skip pageless intermediates cheaply: an object with no resident
        // pages and no pager cannot resolve any offset itself.
        while (object->resident_count == 0 && !object->pager.valid() &&
               object->shadow != nullptr) {
          parent = object->shadow;
          parent_offset = offset + object->shadow_offset;
          lock_probe::Note();
          ObjectLock nlk(parent->mu);
          olk.unlock();
          object = std::move(parent);
          offset = parent_offset;
          olk = std::move(nlk);
          ++depth;
        }
        uint64_t prev_max = counters_.chain_depth_max.load(std::memory_order_relaxed);
        while (depth > prev_max && !counters_.chain_depth_max.compare_exchange_weak(
                                       prev_max, depth, std::memory_order_relaxed)) {
        }
        continue;
      }
      // Nothing anywhere in the chain: zero-fill in the *top* object so the
      // page is private to this mapping chain. A page that appeared there
      // while we walked takes the slot first (kMemoryPresent: rescan and
      // use it).
      if (object != first_object) {
        olk.unlock();
        lock_probe::Note();
        olk = ObjectLock(first_object->mu);
        object = first_object;
        offset = first_offset;
      }
      Result<VmPage*> np = ZeroFillLocked(olk, first_object.get(), first_offset, allow_reserve);
      if (!np.ok()) {
        retry = np.status();
        continue;
      }
      return MakePinLocked(olk, first_object, np.value(), /*from_backing=*/false);
    }
    if (olk.owns_lock()) {
      olk.unlock();  // A failed copy-on-write push has dropped it already.
    }
    first_probe = false;
    if (retry == KernReturn::kResourceShortage) {
      // Frame shortage below the reserved floor: with every lock dropped,
      // help reclaim and retry. After enough rounds dip into the reserve
      // (§6.2.3) so the fault that *frees* memory can always complete.
      if (++shortage_rounds > 100) {
        return KernReturn::kResourceShortage;
      }
      WaitForFreeFrames();
    }
  }
}

// --- the fault entry point --------------------------------------------------

VmSystem::FastStep VmSystem::FastFault(TaskVm& task, VmOffset page_addr, VmProt access,
                                       VmProt prot, VmObject* object, VmOffset object_offset,
                                       bool may_zero_fill, uint64_t gen) {
  // The object lock keeps the page and its frame stable across the install
  // (map → object → queues → pmap is the documented order), so the fast step
  // needs no pin. A caller's map lock or snapshot keeps `object` in memory;
  // its `alive` flag is checked here, under its lock.
  lock_probe::Note();
  ObjectLock olk(object->mu);
  if (!object->alive) {
    return FastStep::kDeclined;
  }
  VmPage* page = nullptr;
  bool zero_fill = false;
  if (may_zero_fill && AnonymousLocked(*object)) {
    // Anonymous memory: nothing in the chain can hold data, so the page walk
    // would zero-fill a missing page in this very slot. Claim it here, in
    // the same shard acquisition that finds a page already resident there.
    // A frame shortage is the page walk's work (it waits for the pageout
    // daemon).
    Result<VmPage*> np =
        ZeroFillLocked(olk, object, object_offset, /*allow_reserve=*/false, &page);
    zero_fill = np.ok();
    if (zero_fill) {
      page = np.value();
    }
  } else {
    page = PageLookupRaw(object, object_offset);
  }
  if (page == nullptr) {
    return FastStep::kMissing;
  }
  if (page->busy || page->error) {
    return FastStep::kDeclined;  // Placeholders and error pages are the page walk's work.
  }
  // First demand touch of a readahead page: recorded under the object lock,
  // the one lock the flag is guarded by.
  page->readahead = false;
  prot &= ~page->page_lock;
  if ((access & ~prot) != 0) {
    return FastStep::kDeclined;
  }
  // Install with the generation validated inside the pmap lock (see
  // Pmap::EnterIf for why that closes the stale-install race).
  const bool installed =
      task.pmap->EnterIf(page_addr, page->frame, prot, task.map->generation_word(), gen);
  if (installed || zero_fill) {
    // A refused install leaves a fresh page resident, settled and queued;
    // the locked path finds it there.
    PageActivate(page);
  }
  if (!installed) {
    counters_.map_lookup_retries.fetch_add(1, std::memory_order_relaxed);
    return FastStep::kDeclined;
  }
  if (!zero_fill) {
    counters_.fast_faults.fetch_add(1, std::memory_order_relaxed);
  }
  counters_.faults.fetch_add(1, std::memory_order_relaxed);
  return FastStep::kInstalled;
}

bool VmSystem::TryOptimisticFault(TaskVm& task, VmOffset page_addr, VmProt access) {
  // The ref pins the snapshot — and the shared_ptr<VmObject> inside its
  // entries — against reclamation for the rest of this function.
  AddressMap::SnapshotRef ref(*task.map);
  const MapSnapshot* snap = ref.get();
  if (snap == nullptr) {
    return false;  // Nothing published yet; the locked path will publish.
  }
  if (task.map->generation() != snap->gen) {
    // A mutation landed (or is in flight) since the snapshot was built.
    counters_.map_lookup_retries.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const MapSnapshotEntry* e = snap->Lookup(page_addr);
  if (e == nullptr || e->is_share || e->object == nullptr) {
    // Invalid address, a two-level (sharing map) entry, or a lazy
    // zero-fill entry: all need the locked path — and invalid-address is a
    // *verdict*, which we never return from a snapshot.
    return false;
  }
  VmProt prot = e->protection;
  if (e->needs_copy) {
    prot &= ~kVmProtWrite;  // A write here is a COW push: locked path.
  }
  if ((access & ~prot) != 0) {
    return false;
  }
  const VmOffset object_offset = TruncPage(e->offset + (page_addr - e->start), page_size());
  if (FastFault(task, page_addr, access, prot, e->object.get(), object_offset,
                /*may_zero_fill=*/!e->needs_copy, snap->gen) != FastStep::kInstalled) {
    return false;
  }
  counters_.map_lookups_optimistic.fetch_add(1, std::memory_order_relaxed);
  return true;
}

Result<VmSystem::FaultTarget> VmSystem::ResolveEntry(TaskVm& task, VmOffset page_addr,
                                                     VmProt access, bool fault) {
  for (;;) {
    lock_probe::Note();
    std::shared_lock<std::shared_mutex> map_lock(task.map->lock());
    if (fault && config_.optimistic_map_lookup && !task.map->snapshot_current()) {
      // Refresh the published snapshot while we are here anyway: under the
      // shared lock the generation is stable (mutators take it exclusive),
      // so concurrent publishers race benignly toward identical snapshots.
      task.map->PublishSnapshot();
    }
    Result<EntryRef> re = LookupEntry(task, page_addr, access);
    if (!re.ok()) {
      return re.status();
    }
    EntryRef& ref = re.value();
    if (ref.needs_prepare) {
      ref.share_lock = {};
      map_lock.unlock();
      KernReturn kr = PrepareEntry(task, page_addr, access);
      if (!IsOk(kr)) {
        return kr;
      }
      continue;  // Re-resolve with the entry prepared.
    }
    FaultTarget target;
    target.object = ref.holder->object;
    target.offset = TruncPage(ref.object_offset, page_size());
    bool missing;
    if (fault) {
      // The fast step, in this same critical section. No mutator can move
      // the generation while we hold the map lock shared, so its install
      // always validates. The first touch of an anonymous page is
      // zero-filled here too (a region's first fault, or the optimistic
      // tier switched off), but not through a sharing map.
      VmProt prot = ref.top->protection;
      if (ref.holder->needs_copy) {
        prot &= ~kVmProtWrite;
      }
      const FastStep step =
          FastFault(task, page_addr, access, prot, target.object.get(), target.offset,
                    !ref.top->is_share && !ref.holder->needs_copy, task.map->generation());
      target.installed = step == FastStep::kInstalled;
      missing = step == FastStep::kMissing;
    } else {
      // A racy (shard-lock only) probe is fine for a heuristic: a false
      // "miss" costs one detector update, nothing more.
      missing = !PageResident(target.object.get(), target.offset);
    }
    if (missing) {
      // A true miss (not even a placeholder): feed the sequentiality
      // detector and size the fault-ahead window while the holder pointer
      // is still valid under the map lock. Re-faults on pages fault-ahead
      // already brought in deliberately don't count — only run *starts*
      // advance the detector, which is what keeps the window doubling
      // across a scan.
      target.fa_window = ComputeFaultAheadWindow(ref.holder, target.offset);
    }
    return target;
  }
}

KernReturn VmSystem::Fault(TaskVm& task, VmOffset addr, VmProt access) {
  const VmOffset page_addr = TruncPage(addr, page_size());
  LockOpScope probe(counters_.fault_lock_ops);
  MaybeDrainDeferred();
  // Tier 0: the lock-free resolution. Touches no map lock at all — two
  // VM-tier locks (object, one page-hash shard) for the common resident
  // re-fault, and three (object, one shard acquisition that finds or claims
  // the slot, queue) for the first touch of anonymous memory; the pmap
  // writer lock and frame locks are the hardware tier. The locked path's
  // fast step is the same step plus the shared map lock.
  if (config_.optimistic_map_lookup && TryOptimisticFault(task, page_addr, access)) {
    return KernReturn::kSuccess;
  }
  for (int attempt = 0; attempt < 64; ++attempt) {
    // Phase 1: resolve the map entry under the map lock(s), shared mode;
    // the fast step completes the fault there when it can. Anything it
    // declines (a request's placeholder, an error page, locked against this
    // access, COW pending on a write, a miss that is not a one-pass zero
    // fill) takes the page walk.
    Result<FaultTarget> rt = ResolveEntry(task, page_addr, access, /*fault=*/true);
    if (!rt.ok()) {
      return rt.status();
    }
    if (rt.value().installed) {
      return KernReturn::kSuccess;
    }
    const std::shared_ptr<VmObject>& object = rt.value().object;
    const VmOffset object_offset = rt.value().offset;

    // Phase 2: find/create the page; returns it pinned, no locks held.
    Result<PagePin> rp = ResolvePage(object, object_offset, access, rt.value().fa_window);
    if (!rp.ok()) {
      return rp.status();
    }
    PagePin pin = std::move(rp.value());

    // Phase 3: revalidate that the map still leads to the same object and
    // install the translation under the map shared lock. The pin keeps the
    // page alive; holding the map lock keeps the entry's protection and
    // needs_copy stable against concurrent Protect/CopyIn/ForkMap (which
    // all take it exclusively), closing the classic COW install race.
    bool installed = false;
    {
      lock_probe::Note();
      std::shared_lock<std::shared_mutex> map_lock(task.map->lock());
      Result<EntryRef> re = LookupEntry(task, page_addr, access);
      if (re.ok() && !re.value().needs_prepare && re.value().holder->object == object &&
          TruncPage(re.value().object_offset, page_size()) == object_offset) {
        VmProt prot = re.value().top->protection;
        if (pin.from_backing || re.value().holder->needs_copy) {
          prot &= ~kVmProtWrite;  // Copy still pending.
        }
        prot &= ~pin.page_lock;
        if ((access & ~prot) == 0) {
          task.pmap->Enter(page_addr, pin.page->frame, prot);
          installed = true;
        }
      }
    }
    PageActivate(pin.page);
    UnpinPage(pin);
    if (!installed) {
      continue;  // The world changed under us; redo the fault.
    }
    counters_.faults.fetch_add(1, std::memory_order_relaxed);
    // Opportunistic collapse: cheap unlocked precondition checks inside.
    MaybeCollapse(object);
    return KernReturn::kSuccess;
  }
  return KernReturn::kFailure;
}

KernReturn VmSystem::UserAccess(TaskVm& task, VmOffset addr, void* buf, VmSize len,
                                bool is_write) {
  auto* bytes = static_cast<std::byte*>(buf);
  const VmSize ps = page_size();
  while (len > 0) {
    VmOffset page_addr = TruncPage(addr, ps);
    VmSize chunk = std::min<VmSize>(len, page_addr + ps - addr);
    // Hardware fast path; kernel fault on miss, then retry (bounded: the
    // pageout daemon may steal the page between fault and access).
    int tries = 0;
    for (;;) {
      Pmap::AccessResult ar = task.pmap->Access(addr, bytes, chunk, is_write);
      if (ar.fault == Pmap::FaultKind::kNone) {
        break;
      }
      KernReturn kr = Fault(task, ar.fault_addr, is_write ? kVmProtWrite : kVmProtRead);
      if (!IsOk(kr)) {
        return kr;
      }
      if (++tries > 100) {
        return KernReturn::kFailure;
      }
    }
    addr += chunk;
    bytes += chunk;
    len -= chunk;
  }
  return KernReturn::kSuccess;
}

// --- kernel-mediated access -------------------------------------------------

KernReturn VmSystem::ReadMemory(TaskVm& task, VmOffset addr, void* buf, VmSize len) {
  // vm_read: kernel-mediated, faults pages in via the object layer without
  // touching the task's pmap. Pins ride a PinBatch so the pages are
  // activated in one queue_mu_ acquisition instead of one per page.
  auto* out = static_cast<std::byte*>(buf);
  const VmSize ps = page_size();
  PinBatch batch(this);
  while (len > 0) {
    VmOffset page_addr = TruncPage(addr, ps);
    VmSize chunk = std::min<VmSize>(len, page_addr + ps - addr);
    Result<FaultTarget> rt = ResolveEntry(task, page_addr, kVmProtRead, /*fault=*/false);
    if (!rt.ok()) {
      return rt.status();
    }
    Result<PagePin> rp =
        ResolvePage(rt.value().object, rt.value().offset, kVmProtRead, rt.value().fa_window);
    if (!rp.ok()) {
      return rp.status();
    }
    phys_->ReadFrame(rp.value().page->frame, addr - page_addr, out, chunk);
    batch.Add(std::move(rp.value()));
    addr += chunk;
    out += chunk;
    len -= chunk;
  }
  return KernReturn::kSuccess;  // ~PinBatch activates and unpins.
}

KernReturn VmSystem::WriteMemory(TaskVm& task, VmOffset addr, const void* buf, VmSize len) {
  const auto* in = static_cast<const std::byte*>(buf);
  const VmSize ps = page_size();
  PinBatch batch(this);
  while (len > 0) {
    VmOffset page_addr = TruncPage(addr, ps);
    VmSize chunk = std::min<VmSize>(len, page_addr + ps - addr);
    Result<FaultTarget> rt = ResolveEntry(task, page_addr, kVmProtWrite, /*fault=*/false);
    if (!rt.ok()) {
      return rt.status();
    }
    Result<PagePin> rp =
        ResolvePage(rt.value().object, rt.value().offset, kVmProtWrite, rt.value().fa_window);
    if (!rp.ok()) {
      return rp.status();
    }
    PagePin pin = std::move(rp.value());
    bool locked;
    {
      ObjectLock olk(pin.owner->mu);
      // Honour manager locks on the kernel write path too: a lock that
      // landed after ResolvePage pinned the page sends this chunk round
      // again, and ResolvePage asks for the unlock.
      locked = (kVmProtWrite & pin.page->page_lock) != 0 && pin.owner->pager.valid();
      if (!locked) {
        phys_->WriteFrame(pin.page->frame, addr - page_addr, in, chunk);
        pin.page->dirty = true;
      }
    }
    if (locked) {
      UnpinPage(pin);
      continue;
    }
    batch.Add(std::move(pin));
    addr += chunk;
    in += chunk;
    len -= chunk;
  }
  return KernReturn::kSuccess;  // ~PinBatch activates and unpins.
}

// --- vm_copy and flat-byte conversion ---------------------------------------

KernReturn VmSystem::Copy(TaskVm& task, VmOffset src, VmSize size, VmOffset dst) {
  if (size == 0 || src % page_size() != 0 || dst % page_size() != 0 ||
      size % page_size() != 0) {
    return KernReturn::kInvalidArgument;
  }
  Result<std::shared_ptr<VmMapCopy>> copy = CopyIn(task, src, size);
  if (!copy.ok()) {
    return copy.status();
  }
  MapMutation map_lock(*task.map);
  // vm_copy overwrites an existing destination region.
  if (!task.map->RangeFullyCovered(dst, size)) {
    return KernReturn::kInvalidAddress;
  }
  std::vector<MapEntry> removed = task.map->RemoveRange(dst, dst + size);
  {
    ChainLock chain(chain_mu_);
    for (MapEntry& entry : removed) {
      task.pmap->Remove(entry.start, entry.end);
      ReleaseEntry(chain, std::move(entry));
    }
  }
  InsertCopyLocked(*task.map, dst, *copy.value());
  return KernReturn::kSuccess;
}

Result<std::shared_ptr<VmMapCopy>> VmSystem::CopyFromBytes(const void* data, VmSize size) {
  if (size == 0) {
    return KernReturn::kInvalidArgument;
  }
  const VmSize ps = page_size();
  const VmSize rounded = RoundPage(size, ps);
  std::shared_ptr<VmObject> object = CreateInternalObject(rounded);
  const auto* in = static_cast<const std::byte*>(data);
  ObjectLock olk(object->mu);
  // Pages not yet on a queue. The object is private (unpublished) and its
  // lock is held, so they stay stable until activated together.
  std::vector<VmPage*> fresh;
  fresh.reserve(rounded / ps);
  for (VmOffset off = 0; off < rounded; off += ps) {
    Result<VmPage*> np = PageAllocLocked(object.get(), off, /*allow_reserve=*/false);
    int rounds = 0;
    while (!np.ok() && np.status() == KernReturn::kResourceShortage && ++rounds <= 100) {
      // Queue what we hold before waiting, so reclaim may page it out.
      PagesActivate(fresh);
      fresh.clear();
      {
        ScopedUnlock unlock(olk);
        WaitForFreeFrames();
      }
      np = PageAllocLocked(object.get(), off, rounds >= 100);
    }
    if (!np.ok()) {
      // Terminating the object frees what is still resident in one
      // PagesFreeLocked batch, and drops any default-pager association a
      // pageout during the wait gave it.
      olk.unlock();
      ChainLock chain(chain_mu_);
      TerminateObject(chain, object);
      return np.status();
    }
    VmSize n = off < size ? std::min<VmSize>(ps, size - off) : 0;
    if (n < ps) {
      phys_->ZeroFrame(np.value()->frame);
    }
    if (n > 0) {
      phys_->WriteFrame(np.value()->frame, 0, in + off, n);
    }
    np.value()->dirty = true;  // No backing store yet.
    fresh.push_back(np.value());
  }
  PagesActivate(fresh);
  olk.unlock();
  auto copy = std::make_shared<VmMapCopy>(this, rounded);
  VmMapCopy::Segment seg;
  seg.object = object;
  seg.offset = 0;
  seg.size = rounded;
  ObjectRef(object);
  copy->segments().push_back(std::move(seg));
  return copy;
}

Result<std::vector<std::byte>> VmSystem::CopyAsBytes(const std::shared_ptr<VmMapCopy>& copy) {
  if (copy == nullptr || copy->system() != this) {
    return KernReturn::kInvalidArgument;
  }
  std::vector<std::byte> out(copy->size());
  PinBatch batch(this);
  VmSize cursor = 0;
  for (const VmMapCopy::Segment& seg : copy->segments()) {
    if (seg.object == nullptr) {
      cursor += seg.size;  // Zero region; `out` is zero-initialised.
      continue;
    }
    for (VmOffset off = 0; off < seg.size; off += page_size()) {
      Result<PagePin> rp =
          ResolvePage(seg.object, TruncPage(seg.offset + off, page_size()), kVmProtRead);
      if (!rp.ok()) {
        return rp.status();
      }
      VmSize n = std::min<VmSize>(page_size(), seg.size - off);
      phys_->ReadFrame(rp.value().page->frame, 0, out.data() + cursor + off, n);
      batch.Add(std::move(rp.value()));
    }
    cursor += seg.size;
  }
  return out;
}

}  // namespace mach
