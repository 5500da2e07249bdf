// The fault handler (§5.5): validity and protection, page lookup through
// the shadow chain, copy-on-write, data-manager interaction
// (pager_data_request / pager_data_unlock) and hardware validation.
//
// Concurrency shape (see the lock-order comment in vm_system.h): a fault
// resolves its map entry under the map lock(s) taken *shared*, walks the
// shadow chain under per-object locks taken hand over hand (child before
// parent), and installs the frame into the pmap under the map shared lock
// while holding only a pin on the page. Waits for busy pages block on the
// owning object's condition variable — targeted wakeups, not a global poll.

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

void VmSystem::UnpinPage(PagePin& pin) {
  if (pin.page == nullptr) {
    return;
  }
  lock_probe::Note();
  ObjectLock olk(pin.owner->mu);
  VmPage* page = pin.page;
  assert(page->pin_count > 0);
  --page->pin_count;
  if (page->pin_count == 0 && !pin.owner->alive) {
    // The object died while we held the pin; the page was orphaned
    // (TerminateObject skips pinned pages) and we are the last holder.
    PageFreeLocked(olk, page);
  } else if (page->page_lock != pin.page_lock) {
    // A manager lock raced with our pmap install: the frame may now be
    // mapped with more access than the lock allows. Re-clamp every mapping.
    Pmap::PageProtect(phys_, page->frame, kVmProtAll & ~page->page_lock);
  }
  pin.page = nullptr;
  pin.owner->cv.notify_all();
  pin.owner.reset();
}

void VmSystem::UnpinRaw(const std::shared_ptr<VmObject>& owner, VmPage* page) {
  lock_probe::Note();
  ObjectLock olk(owner->mu);
  assert(page->pin_count > 0);
  --page->pin_count;
  if (page->pin_count == 0 && !owner->alive) {
    PageFreeLocked(olk, page);
  }
  owner->cv.notify_all();
}

// --- pager interaction ------------------------------------------------------

bool VmSystem::WaitForPage(ObjectLock& olk, VmObject* object,
                           SteadyClock::time_point deadline) {
  // Bounded slice so a lost race (the notifying thread fired before we
  // blocked) costs one slice, not the whole fault budget.
  SteadyClock::time_point slice = SteadyClock::now() + std::chrono::milliseconds(100);
  object->cv.wait_until(olk, std::min(slice, deadline));
  return SteadyClock::now() < deadline;
}

KernReturn VmSystem::RequestDataFromPager(ObjectLock& olk,
                                          const std::shared_ptr<VmObject>& object,
                                          VmOffset offset, VmSize length, VmProt access) {
  PagerDataRequestArgs args;
  args.pager_request_port = object->request_send;
  args.offset = offset;
  args.length = length;
  args.desired_access = access;
  Message msg = EncodePagerDataRequest(args);
  SendRight pager = object->pager;
  // A manager whose queue stays full for the whole fault-wait budget is an
  // unresponsive manager (§6.1): bound the send by the same policy timeout.
  Timeout send_timeout = std::chrono::milliseconds(2000);
  if (config_.pager_timeout.has_value() && *config_.pager_timeout < *send_timeout) {
    send_timeout = config_.pager_timeout;
  }
  ScopedUnlock unlock(olk);
  return MsgSend(pager, std::move(msg), send_timeout);
}

KernReturn VmSystem::RequestUnlockFromPager(ObjectLock& olk,
                                            const std::shared_ptr<VmObject>& object,
                                            VmPage* page, VmProt access) {
  if (page->unlock_pending) {
    return KernReturn::kSuccess;  // Already asked; just wait.
  }
  page->unlock_pending = true;
  counters_.unlock_requests.fetch_add(1, std::memory_order_relaxed);
  PagerDataUnlockArgs args;
  args.pager_request_port = object->request_send;
  args.offset = page->offset;
  args.length = page_size();
  args.desired_access = access;
  Message msg = EncodePagerDataUnlock(args);
  SendRight pager = object->pager;
  ScopedUnlock unlock(olk);
  return MsgSend(pager, std::move(msg), std::chrono::milliseconds(2000));
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
    std::shared_ptr<VmObject> object = first_object;
    VmOffset offset = first_offset;
    uint64_t depth = 1;
    lock_probe::Note();
    ObjectLock olk(object->mu);
    bool rescan = false;
    bool need_frames = false;
    while (!rescan && !need_frames) {
      // Invariant here: olk holds object->mu.
      VmPage* page = PageLookup(object.get(), offset);
      if (page != nullptr) {
        // A faulting thread has reached this page: whatever happens next
        // (wait, settle, pin), the speculation paid off.
        page->readahead = false;
        if (page->busy) {
          // In transit on behalf of another thread; wait for a state change
          // and rescan from the top (the pointer may dangle after a wake —
          // the owning thread may have freed or renamed it).
          if (!WaitForPage(olk, object.get(), deadline)) {
            return KernReturn::kMemoryFailure;
          }
          if (VmPage* p2 = PageLookup(object.get(), offset); p2 != nullptr && p2->busy) {
            counters_.spurious_page_wakeups.fetch_add(1, std::memory_order_relaxed);
          }
          rescan = true;
          continue;
        }
        if (page->error) {
          return KernReturn::kMemoryError;
        }
        if (page->unavailable) {
          // The data manager has no data for this page: copy from the
          // shadow if there is one, else fill with zeros (footnote 6).
          if (object->shadow != nullptr) {
            page->busy = true;  // Own the placeholder across the recursion.
            std::shared_ptr<VmObject> backing_obj = object->shadow;
            VmOffset backing_off = offset + object->shadow_offset;
            Result<PagePin> backing = KernReturn::kFailure;
            {
              ScopedUnlock unlock(olk);
              backing = ResolvePage(backing_obj, backing_off, kVmProtRead);
            }
            // We own the busy placeholder: even on failure, we must settle
            // it ourselves (nobody else may touch a busy page).
            if (!object->alive) {
              if (backing.ok()) {
                UnpinPage(backing.value());
              }
              PageFreeLocked(olk, page);
              object->cv.notify_all();
              return KernReturn::kMemoryFailure;
            }
            if (!backing.ok()) {
              page->busy = false;
              page->error = true;
              object->cv.notify_all();
              return backing.status();
            }
            phys_->CopyFrame(backing.value().page->frame, page->frame);
            UnpinPage(backing.value());
            page->busy = false;
          } else {
            phys_->ZeroFrame(page->frame);
            counters_.zero_fill_count.fetch_add(1, std::memory_order_relaxed);
          }
          page->unavailable = false;
          page->absent = false;
          object->cv.notify_all();
        }
        if (object == first_object) {
          // Found in the top object. Honour any data-manager lock.
          if ((fault_type & page->page_lock) != 0 && object->pager.valid()) {
            KernReturn kr = RequestUnlockFromPager(olk, object, page, fault_type);
            if (!IsOk(kr) && kr != KernReturn::kSuccess) {
              return KernReturn::kMemoryFailure;
            }
            // The lock was dropped across the send, so the page pointer is
            // stale and the answer may already have landed (a manager's
            // pager_data_lock runs in its own thread, and its wakeup is gone
            // by now). Look again; wait only while the unlock is still
            // outstanding, then rescan.
            const VmPage* again = PageLookupRaw(object.get(), offset);
            const bool outstanding = again != nullptr && again->unlock_pending &&
                                     (fault_type & again->page_lock) != 0;
            if (outstanding ? !WaitForPage(olk, object.get(), deadline)
                            : SteadyClock::now() >= deadline) {
              return KernReturn::kMemoryFailure;
            }
            rescan = true;
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
          ++page->pin_count;
          std::shared_ptr<VmObject> backing_owner = object;
          olk.unlock();
          lock_probe::Note();
          ObjectLock top_lk(first_object->mu);
          Result<VmPage*> np =
              PageAllocLocked(first_object.get(), first_offset, shortage_rounds >= 100);
          if (!np.ok()) {
            top_lk.unlock();
            UnpinRaw(backing_owner, page);
            if (np.status() == KernReturn::kMemoryPresent) {
              rescan = true;  // Another thread won the slot; use its page.
            } else {
              need_frames = true;
            }
            lock_probe::Note();
            olk = ObjectLock(first_object->mu);  // Re-establish the invariant.
            object = first_object;
            offset = first_offset;
            continue;
          }
          phys_->CopyFrame(page->frame, np.value()->frame);
          np.value()->dirty = true;
          counters_.cow_faults.fetch_add(1, std::memory_order_relaxed);
          PagePin pin = MakePinLocked(top_lk, first_object, np.value(), /*from_backing=*/false);
          first_object->cv.notify_all();
          top_lk.unlock();
          UnpinRaw(backing_owner, page);
          return pin;
        }
        return MakePinLocked(olk, object, page, /*from_backing=*/true);
      }

      // Not resident in `object`.
      if (object->pager.valid()) {
        // §6.2.2: data parked with the default pager takes precedence over
        // asking the (possibly errant) manager.
        auto parked = object->parked_offsets.find(offset);
        if (parked != object->parked_offsets.end() && parking_ != nullptr) {
          std::optional<std::vector<std::byte>> data = parking_->Unpark(object->id(), offset);
          object->parked_offsets.erase(parked);
          if (data.has_value()) {
            Result<VmPage*> np =
                PageAllocLocked(object.get(), offset, shortage_rounds >= 100);
            if (!np.ok()) {
              // Keep the unparked bytes safe either way.
              object->parked_offsets[offset] = true;
              parking_->Park(object->id(), offset, std::move(*data));
              if (np.status() == KernReturn::kMemoryPresent) {
                rescan = true;
              } else {
                need_frames = true;
              }
              continue;
            }
            VmSize n = std::min<VmSize>(data->size(), page_size());
            phys_->WriteFrame(np.value()->frame, 0, data->data(), n);
            np.value()->dirty = true;  // Never reached its manager.
            object->cv.notify_all();
            rescan = true;  // Rescan finds it resident.
            continue;
          }
        }
        if (object->pager.IsDead()) {
          // Destruction of a memory object by the data manager aborts
          // requests in progress (§6.2.1).
          if (config_.on_pager_timeout == Config::OnPagerTimeout::kZeroFill) {
            Result<VmPage*> np =
                ZeroFillLocked(olk, object.get(), offset, shortage_rounds >= 100);
            if (!np.ok()) {
              if (np.status() == KernReturn::kMemoryPresent) {
                rescan = true;
              } else {
                need_frames = true;
              }
              continue;
            }
            object->cv.notify_all();
            rescan = true;
            continue;
          }
          return KernReturn::kMemoryFailure;
        }
        // Cache miss: allocate a placeholder and issue pager_data_request.
        Result<VmPage*> np = PageAllocLocked(object.get(), offset, shortage_rounds >= 100);
        if (!np.ok()) {
          if (np.status() == KernReturn::kMemoryPresent) {
            rescan = true;
          } else {
            need_frames = true;
          }
          continue;
        }
        VmPage* placeholder = np.value();
        placeholder->busy = true;
        placeholder->absent = true;
        // Pin across the request-and-wait window: busy alone stops
        // protecting the placeholder the instant a handler settles it, and
        // a flush/clean/pageout sweeping the object in the gap before we
        // re-check would free the page out from under our raw pointer.
        ++placeholder->pin_count;

        // Fault-ahead: extend the request over a contiguous run of absent
        // neighbours, each held as its own pinned busy+absent placeholder.
        // Top-object misses only — shadow descents stay single-page. The
        // run ends at the object end, any resident/busy/pinned page
        // (PageAllocLocked returns kMemoryPresent), parked data, an offset
        // an internal object never pushed to the default pager, or a frame
        // shortage — speculation never dips into the reserve.
        std::vector<VmPage*> extras;
        if (fa_window > 1 && object == first_object) {
          for (uint32_t i = 1; i < fa_window; ++i) {
            VmOffset eoff = offset + VmOffset{i} * page_size();
            if (eoff >= object->size() ||
                object->parked_offsets.count(eoff) != 0 ||
                (object->internal && object->paged_offsets.count(eoff) == 0)) {
              break;
            }
            Result<VmPage*> ep =
                PageAllocLocked(object.get(), eoff, /*allow_reserve=*/false);
            if (!ep.ok()) {
              break;
            }
            VmPage* extra = ep.value();
            extra->busy = true;
            extra->absent = true;
            extra->readahead = true;
            ++extra->pin_count;
            extras.push_back(extra);
          }
          if (!extras.empty()) {
            counters_.fault_ahead_requests.fetch_add(1, std::memory_order_relaxed);
            counters_.fault_ahead_pages.fetch_add(extras.size(),
                                                  std::memory_order_relaxed);
          }
        }
        // Releases the run's speculative placeholders on every exit from
        // the request-and-wait window (olk held). We own each extra's busy
        // bit, so one still busy+absent was never answered — the partial-
        // provide remainder — and is freed; a later demand fault re-issues
        // the request and the OnPagerTimeout policy applies there (a
        // speculative page is never zero-filled or errored in place: that
        // would fabricate a verdict no thread asked for). Settled extras
        // stay resident and just lose the pin; if the object died,
        // TerminateObject orphaned the pinned pages to us, the last holder.
        auto sweep_extras = [&]() {
          bool freed = false;
          for (VmPage* extra : extras) {
            assert(extra->pin_count > 0);
            --extra->pin_count;
            if (!object->alive) {
              if (extra->pin_count == 0) {
                PageFreeLocked(olk, extra);
              }
            } else if (extra->busy && extra->absent) {
              PageFreeLocked(olk, extra);
              freed = true;
            }
          }
          extras.clear();
          if (freed) {
            object->cv.notify_all();
          }
        };
        KernReturn kr = RequestDataFromPager(
            olk, object, offset,
            VmSize{1 + extras.size()} * page_size(), fault_type);
        // The object lock was dropped during the send. We still own the
        // placeholder (handlers settle busy+absent pages without freeing,
        // and the pin keeps every sweeper away), but the object may have
        // died — then TerminateObject orphaned the pinned page for us, its
        // last holder, to free.
        if (!object->alive) {
          sweep_extras();
          --placeholder->pin_count;
          PageFreeLocked(olk, placeholder);
          object->cv.notify_all();
          return KernReturn::kMemoryFailure;
        }
        if (!placeholder->absent || placeholder->error || placeholder->unavailable) {
          sweep_extras();
          --placeholder->pin_count;
          object->cv.notify_all();
          rescan = true;  // Data (or a verdict) arrived already.
          continue;
        }
        if (!IsOk(kr)) {
          // The request never reached the manager: nothing will answer the
          // run. Release every speculative placeholder before settling the
          // faulting page itself per policy.
          sweep_extras();
          if (config_.on_pager_timeout == Config::OnPagerTimeout::kZeroFill) {
            // Treat an unreachable manager per the timeout policy: settle
            // our own placeholder as zero fill in place.
            phys_->ZeroFrame(placeholder->frame);
            placeholder->busy = false;
            placeholder->absent = false;
            placeholder->dirty = true;  // Not backed by the manager.
            --placeholder->pin_count;
            counters_.zero_fill_count.fetch_add(1, std::memory_order_relaxed);
            object->cv.notify_all();
            rescan = true;
            continue;
          }
          --placeholder->pin_count;
          PageFreeLocked(olk, placeholder);
          object->cv.notify_all();
          return KernReturn::kMemoryFailure;
        }
        // Wait for pager_data_provided / pager_data_unavailable. The pin
        // keeps the pointer valid while the object lives; the object's
        // death is the one exit we must handle.
        for (;;) {
          if (!object->alive) {
            sweep_extras();
            --placeholder->pin_count;
            PageFreeLocked(olk, placeholder);
            object->cv.notify_all();
            return KernReturn::kMemoryFailure;
          }
          if (!placeholder->absent || placeholder->unavailable || placeholder->error) {
            break;
          }
          if (!WaitForPage(olk, object.get(), deadline)) {
            // §6.2.1: a timeout may abort the memory request. Either fail
            // the fault or substitute zero-filled memory.
            if (config_.on_pager_timeout == Config::OnPagerTimeout::kZeroFill) {
              phys_->ZeroFrame(placeholder->frame);
              placeholder->busy = false;
              placeholder->absent = false;
              placeholder->dirty = true;  // Not backed by the manager.
              counters_.zero_fill_count.fetch_add(1, std::memory_order_relaxed);
              object->cv.notify_all();
              break;
            }
            sweep_extras();
            --placeholder->pin_count;
            PageFreeLocked(olk, placeholder);
            object->cv.notify_all();
            return KernReturn::kMemoryFailure;
          }
          if (placeholder->absent && !placeholder->unavailable && !placeholder->error) {
            counters_.spurious_page_wakeups.fetch_add(1, std::memory_order_relaxed);
          }
        }
        // Reached on the primary's settlement (a multi-page provide settled
        // every page it covered under one handler lock acquisition before
        // we could observe it) and on the zero-fill timeout: either way,
        // speculative placeholders still unanswered are released here —
        // the partial-provide prefix rule.
        sweep_extras();
        --placeholder->pin_count;
        object->cv.notify_all();
        rescan = true;
        continue;
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
      // page is private to this mapping chain.
      if (object != first_object) {
        olk.unlock();
        lock_probe::Note();
        olk = ObjectLock(first_object->mu);
        object = first_object;
        offset = first_offset;
        if (PageLookup(object.get(), offset) != nullptr) {
          rescan = true;  // A page appeared while we walked; use it.
          continue;
        }
      }
      Result<VmPage*> np =
          ZeroFillLocked(olk, first_object.get(), first_offset, shortage_rounds >= 100);
      if (!np.ok()) {
        if (np.status() == KernReturn::kMemoryPresent) {
          rescan = true;
        } else {
          need_frames = true;
        }
        continue;
      }
      first_object->cv.notify_all();
      return MakePinLocked(olk, first_object, np.value(), /*from_backing=*/false);
    }
    olk.unlock();
    first_probe = false;
    if (need_frames) {
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
  const VmOffset object_offset =
      TruncPage(e->offset + (page_addr - e->start), page_size());
  // The snapshot's shared_ptr keeps the object's memory alive; its `alive`
  // flag is re-checked under its lock, exactly like the locked fast path.
  lock_probe::Note();
  ObjectLock olk(e->object->mu);
  if (!e->object->alive) {
    return false;
  }
  VmPage* page = nullptr;
  bool zero_fill = false;
  if (!e->needs_copy && AnonymousLocked(*e->object)) {
    // Anonymous memory: nothing in the chain can hold data, so the locked
    // path would zero-fill a missing page in this very slot. Claim it here,
    // under the one object lock this tier holds, in the same shard
    // acquisition that finds a page already resident there. A frame
    // shortage is locked-path work (it waits for the pageout daemon).
    Result<VmPage*> np = ZeroFillLocked(olk, e->object.get(), object_offset,
                                        /*allow_reserve=*/false, &page);
    zero_fill = np.ok();
    if (zero_fill) {
      page = np.value();
    }
  } else {
    page = PageLookupRaw(e->object.get(), object_offset);
  }
  if (page == nullptr || page->busy || page->absent || page->unavailable ||
      page->error) {
    return false;  // Unsettled (or missing) pages are locked-path work.
  }
  // First demand touch of a readahead page: recorded under the object lock
  // (held here), the one lock the flag is guarded by. The detector itself
  // lives in the map entry, which this tier never reads or writes.
  page->readahead = false;
  prot &= ~page->page_lock;
  if ((access & ~prot) != 0) {
    return false;
  }
  // Install with the generation validated inside the pmap lock (see
  // Pmap::EnterIf for why that closes the stale-install race). The object
  // lock keeps the page and its frame stable across the install, matching
  // the object→pmap order the locked fast path uses.
  const bool installed = task.pmap->EnterIf(page_addr, page->frame, prot,
                                            task.map->generation_word(), snap->gen);
  if (installed || zero_fill) {
    // A refused install leaves a fresh page resident, settled and queued;
    // the locked path finds it there.
    PageActivate(page);
  }
  if (!installed) {
    counters_.map_lookup_retries.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (!zero_fill) {
    counters_.fast_faults.fetch_add(1, std::memory_order_relaxed);
  }
  counters_.faults.fetch_add(1, std::memory_order_relaxed);
  counters_.map_lookups_optimistic.fetch_add(1, std::memory_order_relaxed);
  return true;
}

KernReturn VmSystem::Fault(TaskVm& task, VmOffset addr, VmProt access) {
  const VmOffset page_addr = TruncPage(addr, page_size());
  LockOpScope probe(counters_.fault_lock_ops);
  QueueBatchDrainedCheck batch_check;
  MaybeDrainDeferred();
  // Tier 0: the lock-free resolution. Touches no map lock at all — two
  // VM-tier locks (object, one page-hash shard) for the common resident
  // re-fault, and three (object, one shard acquisition that finds or claims
  // the slot, queue) for the first touch of anonymous memory; the pmap
  // writer lock and frame locks are the hardware tier.
  if (config_.optimistic_map_lookup && TryOptimisticFault(task, page_addr, access)) {
    return KernReturn::kSuccess;
  }
  for (int attempt = 0; attempt < 64; ++attempt) {
    // Phase 1: resolve the map entry under the map lock(s), shared mode.
    std::shared_ptr<VmObject> object;
    VmOffset object_offset;
    uint32_t fa_window = 1;
    {
      lock_probe::Note();
      std::shared_lock<std::shared_mutex> map_lock(task.map->lock());
      // Refresh the published snapshot while we are here anyway: under the
      // shared lock the generation is stable (mutators take it exclusive),
      // so concurrent publishers race benignly toward identical snapshots.
      if (config_.optimistic_map_lookup && !task.map->snapshot_current()) {
        task.map->PublishSnapshot();
      }
      Result<EntryRef> re = LookupEntry(task, page_addr, access);
      if (!re.ok()) {
        return re.status();
      }
      if (re.value().needs_prepare) {
        re.value().share_lock = {};
        map_lock.unlock();
        KernReturn kr = PrepareEntry(task, page_addr, access);
        if (!IsOk(kr)) {
          return kr;
        }
        continue;  // Re-resolve with the entry prepared.
      }
      object = re.value().holder->object;
      object_offset = TruncPage(re.value().object_offset, page_size());

      // Fast path: a settled page resident in the entry's own object can be
      // installed in this same critical section — map shared → object →
      // queues → pmap is the documented order, and the object lock keeps
      // the page stable across the pmap update, so no pin and no second
      // map lookup are needed. The first touch of an anonymous object's
      // page is zero-filled here and installed the same way (the optimistic
      // tier's one-pass fill, for a region's first fault or with that tier
      // off). Anything unsettled (busy, absent, locked against this access,
      // COW pending on a write) falls through to the general three-phase
      // path.
      {
        lock_probe::Note();
        ObjectLock olk(object->mu);
        VmPage* page = PageLookup(object.get(), object_offset);
        bool zero_fill = false;
        if (page == nullptr && !re.value().top->is_share && !re.value().holder->needs_copy &&
            AnonymousLocked(*object)) {
          Result<VmPage*> np =
              ZeroFillLocked(olk, object.get(), object_offset, /*allow_reserve=*/false);
          if (np.ok()) {
            page = np.value();
            zero_fill = true;
          }
        }
        if (page == nullptr) {
          // A true miss (not even a placeholder): feed the sequentiality
          // detector and size the fault-ahead window while the holder
          // pointer is still valid under the map lock. Re-faults on pages
          // fault-ahead already brought in deliberately don't count —
          // only run *starts* advance the detector, which is what keeps
          // the window doubling across a scan.
          fa_window = ComputeFaultAheadWindow(re.value().holder, object_offset);
        } else if (!page->busy && !page->absent && !page->unavailable &&
                   !page->error) {
          page->readahead = false;  // First demand touch.
          VmProt prot = re.value().top->protection;
          if (re.value().holder->needs_copy) {
            prot &= ~kVmProtWrite;
          }
          prot &= ~page->page_lock;
          if ((access & ~prot) == 0) {
            task.pmap->Enter(page_addr, page->frame, prot);
            PageActivate(page);
            if (!zero_fill) {
              counters_.fast_faults.fetch_add(1, std::memory_order_relaxed);
            }
            counters_.faults.fetch_add(1, std::memory_order_relaxed);
            return KernReturn::kSuccess;
          }
        }
      }
    }

    // Phase 2: find/create the page; returns it pinned, no locks held.
    Result<PagePin> rp = ResolvePage(object, object_offset, access, fa_window);
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
  // touching the task's pmap. Pins ride a PinBatch so each page's
  // activation lands in one batched queue_mu_ acquisition instead of one
  // per page.
  auto* out = static_cast<std::byte*>(buf);
  const VmSize ps = page_size();
  PinBatch batch(this);
  while (len > 0) {
    VmOffset page_addr = TruncPage(addr, ps);
    VmSize chunk = std::min<VmSize>(len, page_addr + ps - addr);
    std::shared_ptr<VmObject> object;
    VmOffset object_offset;
    uint32_t fa_window = 1;
    {
      std::shared_lock<std::shared_mutex> map_lock(task.map->lock());
      Result<EntryRef> re = LookupEntry(task, page_addr, kVmProtRead);
      if (!re.ok()) {
        return re.status();
      }
      if (re.value().needs_prepare) {
        re.value().share_lock = {};
        map_lock.unlock();
        KernReturn kr = PrepareEntry(task, page_addr, kVmProtRead);
        if (!IsOk(kr)) {
          return kr;
        }
        continue;  // Retry this chunk.
      }
      object = re.value().holder->object;
      object_offset = TruncPage(re.value().object_offset, ps);
      if (!PageResident(object.get(), object_offset)) {
        // A racy (shard-lock only) probe is fine for a heuristic: a false
        // "miss" costs one detector update, nothing more.
        fa_window = ComputeFaultAheadWindow(re.value().holder, object_offset);
      }
    }
    Result<PagePin> rp = ResolvePage(object, object_offset, kVmProtRead, fa_window);
    if (!rp.ok()) {
      return rp.status();
    }
    phys_->ReadFrame(rp.value().page->frame, addr - page_addr, out, chunk);
    batch.Add(std::move(rp.value()));
    addr += chunk;
    out += chunk;
    len -= chunk;
  }
  return KernReturn::kSuccess;  // ~PinBatch flushes and unpins.
}

KernReturn VmSystem::WriteMemory(TaskVm& task, VmOffset addr, const void* buf, VmSize len) {
  const auto* in = static_cast<const std::byte*>(buf);
  const VmSize ps = page_size();
  PinBatch batch(this);
  while (len > 0) {
    VmOffset page_addr = TruncPage(addr, ps);
    VmSize chunk = std::min<VmSize>(len, page_addr + ps - addr);
    std::shared_ptr<VmObject> object;
    VmOffset object_offset;
    uint32_t fa_window = 1;
    {
      std::shared_lock<std::shared_mutex> map_lock(task.map->lock());
      Result<EntryRef> re = LookupEntry(task, page_addr, kVmProtWrite);
      if (!re.ok()) {
        return re.status();
      }
      if (re.value().needs_prepare) {
        re.value().share_lock = {};
        map_lock.unlock();
        KernReturn kr = PrepareEntry(task, page_addr, kVmProtWrite);
        if (!IsOk(kr)) {
          return kr;
        }
        continue;  // Retry this chunk.
      }
      object = re.value().holder->object;
      object_offset = TruncPage(re.value().object_offset, ps);
      if (!PageResident(object.get(), object_offset)) {
        fa_window = ComputeFaultAheadWindow(re.value().holder, object_offset);
      }
    }
    Result<PagePin> rp = ResolvePage(object, object_offset, kVmProtWrite, fa_window);
    if (!rp.ok()) {
      return rp.status();
    }
    PagePin pin = std::move(rp.value());
    bool retry = false;
    {
      ObjectLock olk(pin.owner->mu);
      if ((kVmProtWrite & pin.page->page_lock) != 0 && pin.owner->pager.valid()) {
        // Honour manager locks on the kernel write path too.
        KernReturn kr = RequestUnlockFromPager(olk, pin.owner, pin.page, kVmProtWrite);
        if (!IsOk(kr)) {
          olk.unlock();
          UnpinPage(pin);
          return KernReturn::kMemoryFailure;
        }
        retry = true;  // Retry this chunk; ResolvePage waits out the unlock.
      } else {
        phys_->WriteFrame(pin.page->frame, addr - page_addr, in, chunk);
        pin.page->dirty = true;
      }
    }
    if (retry) {
      UnpinPage(pin);
      continue;
    }
    batch.Add(std::move(pin));
    addr += chunk;
    in += chunk;
    len -= chunk;
  }
  return KernReturn::kSuccess;  // ~PinBatch flushes and unpins.
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
  VmOffset cursor = dst;
  for (VmMapCopy::Segment& seg : copy.value()->segments()) {
    MapEntry entry;
    entry.start = cursor;
    entry.end = cursor + seg.size;
    if (seg.object != nullptr) {
      entry.object = std::move(seg.object);
      entry.offset = seg.offset;
      entry.needs_copy = true;
    }
    cursor += seg.size;
    task.map->Insert(std::move(entry));
  }
  copy.value()->segments().clear();
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
  for (VmOffset off = 0; off < rounded; off += ps) {
    Result<VmPage*> np = PageAllocLocked(object.get(), off, /*allow_reserve=*/false);
    int rounds = 0;
    while (!np.ok() && np.status() == KernReturn::kResourceShortage && ++rounds <= 100) {
      {
        ScopedUnlock unlock(olk);
        WaitForFreeFrames();
      }
      np = PageAllocLocked(object.get(), off, rounds >= 100);
    }
    if (!np.ok()) {
      // Apply the deferred activations before freeing: PageFreeLocked
      // unqueues, and the batch must never hold a dangling page.
      FlushQueueBatch();
      object->pages.ForEach([&](VmPage* page) { PageFreeLocked(olk, page); });
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
    // Defer the activation: the object is private (unpublished) and its
    // lock is held, so the page stays stable until the flush below.
    PageActivateDeferred(np.value());
  }
  FlushQueueBatch();
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
