#include "src/managers/shm/shm_directory.h"

#include <algorithm>

#include "src/base/log.h"
#include "src/pager/data_manager.h"

namespace mach {
namespace {

// How long (virtual ns) to wait for recalled data before retrying the
// forward, and how many retries before concluding the owner was clean.
constexpr uint64_t kRecallDeadlineNs = 150'000'000;
constexpr uint32_t kRecallRetries = 3;
// Virtual time charged per idle service pass (see the header comment).
constexpr uint64_t kIdleTickNs = 25'000'000;
// Small charge per *serviced* pass so a continuously busy shard still
// expires deadlines eventually — a writeback would have to be
// kRecallDeadlineNs / kBusyTickNs messages behind to time out falsely.
constexpr uint64_t kBusyTickNs = 1'000'000;

}  // namespace

ShmDirectory::ShmDirectory(ShmOptions options)
    : options_(std::move(options)),
      clock_(options_.clock != nullptr ? options_.clock : &owned_clock_) {}

void ShmDirectory::AddRegion(uint64_t region_id, VmSize size) {
  std::lock_guard<std::mutex> g(mu_);
  Region& region = regions_[region_id];
  if (region.size == 0) {
    region.size = RoundPage(size, options_.page_size);
  }
}

ShmDirectory::PageState& ShmDirectory::PageAt(Region& region, VmOffset offset) {
  auto it = region.pages.find(offset);
  if (it == region.pages.end()) {
    PageState fresh;
    fresh.data.assign(options_.page_size, std::byte{0});
    it = region.pages.emplace(offset, std::move(fresh)).first;
  }
  return it->second;
}

void ShmDirectory::Charge(uint64_t actions) {
  if (options_.service_cost_ns != 0) {
    service_ns_.fetch_add(actions * options_.service_cost_ns, std::memory_order_relaxed);
  }
}

void ShmDirectory::HandleInit(uint64_t region_id, SendRight request_port) {
  std::lock_guard<std::mutex> g(mu_);
  auto it = regions_.find(region_id);
  if (it == regions_.end()) {
    return;
  }
  // Record this use of the region: each kernel mapping it has its own
  // request port (§4.2 "distinct request and name ports for each kernel").
  it->second.uses.emplace(request_port.id(), request_port);
}

void ShmDirectory::InvalidateReaders(PageState& page, VmOffset offset, uint64_t except_id) {
  for (const SendRight& reader : page.reader_ports) {
    if (reader.id() == except_id) {
      continue;
    }
    DataManager::FlushRequest(reader, offset, options_.page_size);
    invalidations_.fetch_add(1, std::memory_order_relaxed);
    Charge();
  }
  page.reader_ports.clear();
  page.reader_ids.clear();
}

void ShmDirectory::SetOwner(PageState& page, const SendRight& req) {
  const uint64_t prev = page.last_owner;
  page.owner = req.id();
  page.owner_port = req;
  if (prev != 0 && prev != req.id()) {
    ownership_transfers_.fetch_add(1, std::memory_order_relaxed);
  }
  page.last_owner = req.id();
  // Repair the probable-owner hint to track the transfer — unless the
  // repair notice is "lost" (shm.stale_hint), in which case the next
  // forward for this page chases through the previous owner.
  if (options_.injector != nullptr && options_.injector->ShouldFail(kFaultStaleHint)) {
    return;
  }
  if (page.hint != 0 && page.hint != req.id()) {
    hint_repairs_.fetch_add(1, std::memory_order_relaxed);
  }
  page.hint = req.id();
  page.hint_port = req;
}

void ShmDirectory::ClearOwner(PageState& page) {
  page.owner = 0;
  page.owner_port = SendRight();
}

void ShmDirectory::GrantRead(PageState& page, const SendRight& req, VmOffset offset,
                             PagerRunBuilder* run) {
  // Count before providing: ProvideData wakes the faulting thread, which
  // may observe the statistics immediately.
  read_grants_.fetch_add(1, std::memory_order_relaxed);
  Charge();
  if (page.reader_ids.insert(req.id()).second) {
    page.reader_ports.push_back(req);
  }
  // Multiple readers are fine; the data goes out write-locked so a write
  // attempt must come back through pager_data_unlock (§4.2).
  if (run != nullptr) {
    run->AddData(offset, page.data, kVmProtWrite);
  } else {
    DataManager::ProvideData(req, offset, page.data, kVmProtWrite);
  }
}

void ShmDirectory::GrantWrite(PageState& page, const SendRight& req, VmOffset offset,
                              bool requester_has_copy) {
  InvalidateReaders(page, offset, req.id());
  SetOwner(page, req);
  write_grants_.fetch_add(1, std::memory_order_relaxed);
  Charge();
  if (requester_has_copy) {
    // The kernel already holds the (read-locked) data: just drop the lock.
    DataManager::LockData(req, offset, options_.page_size, kVmProtNone);
  } else {
    DataManager::ProvideData(req, offset, page.data, kVmProtNone);
  }
}

void ShmDirectory::SendForward(const SendRight& target, VmOffset offset, RecallKind kind,
                               bool exempt) {
  if (!exempt && options_.injector != nullptr &&
      options_.injector->ShouldFail(kFaultForwardDrop)) {
    forward_drops_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  forwards_.fetch_add(1, std::memory_order_relaxed);
  Charge();
  if (kind == RecallKind::kDowngrade) {
    // Demote instead of destroy: the owner writes back dirty data but keeps
    // a (now write-locked) copy and becomes an ordinary reader.
    DataManager::DowngradeToRead(target, offset, options_.page_size);
  } else {
    DataManager::FlushRequest(target, offset, options_.page_size);
  }
}

void ShmDirectory::BeginRecall(uint64_t region_id, VmOffset offset, PageState& page,
                               RecallKind kind) {
  if (page.recall != RecallKind::kNone) {
    if (kind == RecallKind::kFlush && page.recall == RecallKind::kDowngrade) {
      // A write request arrived behind a pending demotion: the owner must
      // now give the copy up entirely. Escalate in place.
      page.recall = RecallKind::kFlush;
      SendForward(page.chased ? page.owner_port
                              : (page.hint != 0 ? page.hint_port : page.owner_port),
                  offset, RecallKind::kFlush, /*exempt=*/false);
    }
    return;  // Recall already in flight; the new request just queues.
  }
  page.recall = kind;
  page.retries_left = kRecallRetries;
  page.chased = false;
  page.deadline_ns = clock_->NowNs() + kRecallDeadlineNs;
  recalls_.fetch_add(1, std::memory_order_relaxed);
  const bool via_hint = page.hint != 0;
  if (via_hint && page.hint != page.owner) {
    stale_hints_.fetch_add(1, std::memory_order_relaxed);
  }
  SendForward(via_hint ? page.hint_port : page.owner_port, offset, kind, /*exempt=*/false);
  active_recalls_.emplace(region_id, offset);
}

void ShmDirectory::ResolveRecallClean(uint64_t region_id, Region& region, VmOffset offset,
                                      PageState& page) {
  recall_timeouts_.fetch_add(1, std::memory_order_relaxed);
  if (page.recall == RecallKind::kDowngrade && page.owner != 0) {
    // The (reliably delivered, see Tick) clean left the ex-owner holding a
    // write-locked copy: it is a reader now.
    downgrades_.fetch_add(1, std::memory_order_relaxed);
    if (page.reader_ids.insert(page.owner).second) {
      page.reader_ports.push_back(page.owner_port);
    }
  }
  page.recall = RecallKind::kNone;
  active_recalls_.erase({region_id, offset});
  // No data came back across the full retry budget: the owner's copy was
  // clean (a clean page is flushed silently), so the stored data is still
  // authoritative.
  ClearOwner(page);
  Charge();
  ServePending(region_id, region, offset, page);
}

void ShmDirectory::ServePending(uint64_t region_id, Region& region, VmOffset offset,
                                PageState& page) {
  while (!page.pending.empty() && page.owner == 0) {
    PendingRequest pr = std::move(page.pending.front());
    page.pending.erase(page.pending.begin());
    if ((pr.access & kVmProtWrite) != 0) {
      GrantWrite(page, pr.request_port, offset, /*requester_has_copy=*/false);
      if (!page.pending.empty()) {
        // More waiters behind the new owner: recall immediately. The kind
        // depends on who is waiting — any writer forces a full flush.
        bool writer_waiting = false;
        for (const PendingRequest& rest : page.pending) {
          if ((rest.access & kVmProtWrite) != 0) {
            writer_waiting = true;
            break;
          }
        }
        BeginRecall(region_id, offset, page,
                    writer_waiting ? RecallKind::kFlush : RecallKind::kDowngrade);
      }
      return;
    }
    GrantRead(page, pr.request_port, offset);
  }
}

void ShmDirectory::HandleDataRequest(uint64_t region_id, SendRight request_port, VmOffset offset,
                                     VmSize length, VmProt desired_access) {
  std::lock_guard<std::mutex> g(mu_);
  auto rit = regions_.find(region_id);
  if (rit == regions_.end()) {
    DataManager::DataUnavailable(request_port, offset, length);
    return;
  }
  Region& region = rit->second;
  // A multi-page request is the kernel's fault-ahead: the first page is the
  // demanded one and keeps the directory's full semantics; the rest are
  // speculative. Contiguous read grants coalesce into one provide.
  PagerRunBuilder run(request_port);
  const VmOffset first_off = TruncPage(offset, options_.page_size);
  for (VmOffset off = first_off; off < offset + length; off += options_.page_size) {
    PageState& page = PageAt(region, off);
    if (off != first_off) {
      // Speculative pages are opportunistic: serve one only when it is
      // trivially grantable. Never recall a foreign owner, never queue
      // behind an in-flight recall, never transfer write ownership on
      // speculation, and (defensively — the kernel's map entries already
      // confine a run to one hash stripe) never answer for another shard's
      // pages. Silence is always legal here: the kernel frees unanswered
      // fault-ahead placeholders and re-faults on demand. Answering
      // pager_data_unavailable instead would be wrong — the kernel would
      // zero-fill a page whose authoritative bytes live elsewhere.
      if ((desired_access & kVmProtWrite) != 0 || page.owner != 0 ||
          page.recall != RecallKind::kNone ||
          (options_.shard_count > 1 &&
           ShmShardOfPage(region_id, off / options_.page_size, options_.shard_count) !=
               options_.shard_index)) {
        break;
      }
      GrantRead(page, request_port, off, &run);
      continue;
    }
    if (page.owner != 0 && page.owner != request_port.id()) {
      // Another kernel owns the page: forward the recall to the hinted
      // owner. Dirty data arrives as pager_data_write (FIFO on the object
      // port guarantees it precedes any later request from that kernel); a
      // clean copy is flushed silently, which the deadline in Tick
      // resolves. A read request demotes the owner to a reader instead.
      const bool wants_write = (desired_access & kVmProtWrite) != 0;
      BeginRecall(region_id, off, page, wants_write ? RecallKind::kFlush : RecallKind::kDowngrade);
      page.pending.push_back(PendingRequest{request_port, desired_access});
      // The demanded page is deferred behind a recall; speculating past it
      // would answer the run out of order for nothing — the faulter is
      // blocked on page one anyway.
      break;
    }
    if (page.owner == request_port.id()) {
      // The owner's kernel lost its copy (evicted). Any dirty data already
      // arrived (FIFO); our stored copy is current again.
      ClearOwner(page);
    }
    if ((desired_access & kVmProtWrite) != 0) {
      GrantWrite(page, request_port, off, /*requester_has_copy=*/false);
    } else {
      GrantRead(page, request_port, off, &run);
    }
  }
}

void ShmDirectory::HandleDataUnlock(uint64_t region_id, SendRight request_port, VmOffset offset,
                                    VmSize length, VmProt desired_access) {
  std::lock_guard<std::mutex> g(mu_);
  auto rit = regions_.find(region_id);
  if (rit == regions_.end()) {
    return;
  }
  Region& region = rit->second;
  for (VmOffset off = TruncPage(offset, options_.page_size); off < offset + length;
       off += options_.page_size) {
    PageState& page = PageAt(region, off);
    const uint64_t requester = request_port.id();
    if (page.owner == requester) {
      DataManager::LockData(request_port, off, options_.page_size, kVmProtNone);  // Duplicate.
      continue;
    }
    if (page.owner != 0) {
      BeginRecall(region_id, off, page, RecallKind::kFlush);
      page.pending.push_back(PendingRequest{request_port, desired_access | kVmProtWrite});
      continue;
    }
    // Reader upgrading to writer: invalidate the *other* readers, then
    // unlock the requester's copy in place (§4.2's final frame).
    InvalidateReaders(page, off, requester);
    SetOwner(page, request_port);
    write_grants_.fetch_add(1, std::memory_order_relaxed);
    Charge();
    DataManager::LockData(request_port, off, options_.page_size, kVmProtNone);
  }
}

void ShmDirectory::HandleDataWrite(uint64_t region_id, VmOffset offset,
                                   std::vector<std::byte> data) {
  std::lock_guard<std::mutex> g(mu_);
  auto rit = regions_.find(region_id);
  if (rit == regions_.end()) {
    return;
  }
  Region& region = rit->second;
  const size_t pages = data.size() / options_.page_size;
  for (size_t p = 0; p < pages; ++p) {
    VmOffset off = offset + p * options_.page_size;
    PageState& page = PageAt(region, off);
    page.data.assign(data.begin() + p * options_.page_size,
                     data.begin() + (p + 1) * options_.page_size);
    Charge();
    if (page.recall != RecallKind::kNone) {
      // The forwarded recall came back with data. Credit the hint if the
      // first hop answered; a chase means the hint had gone stale.
      if (!page.chased) {
        hint_hits_.fetch_add(1, std::memory_order_relaxed);
      }
      if (page.recall == RecallKind::kDowngrade && page.owner != 0) {
        // Demotion: the ex-owner kept a write-locked copy and reads on.
        downgrades_.fetch_add(1, std::memory_order_relaxed);
        if (page.reader_ids.insert(page.owner).second) {
          page.reader_ports.push_back(page.owner_port);
        }
      }
      page.recall = RecallKind::kNone;
      active_recalls_.erase({region_id, off});
    }
    // The owner's writable copy is gone (recalled, demoted, or evicted):
    // data settles here.
    ClearOwner(page);
    ServePending(region_id, region, off, page);
  }
}

void ShmDirectory::HandleLockCompleted(uint64_t region_id, uint64_t completer, VmOffset offset,
                                       VmSize length) {
  std::lock_guard<std::mutex> g(mu_);
  auto rit = regions_.find(region_id);
  if (rit == regions_.end()) {
    return;
  }
  Region& region = rit->second;
  for (VmOffset off = TruncPage(offset, options_.page_size); off < offset + length;
       off += options_.page_size) {
    auto pit = region.pages.find(off);
    if (pit == region.pages.end()) {
      continue;
    }
    PageState& page = pit->second;
    if (page.recall == RecallKind::kNone) {
      continue;  // Already resolved (a data_write settled it first).
    }
    if (page.owner != 0 && completer != page.owner) {
      // A non-owner finished the flush: the hint pointed at a kernel with
      // no copy. Chase the exact owner record right away.
      if (!page.chased) {
        page.chased = true;
        page.deadline_ns = clock_->NowNs() + kRecallDeadlineNs;
        SendForward(page.owner_port, off, page.recall, /*exempt=*/false);
      }
      continue;
    }
    // The owner processed the recall and (FIFO) sent no data first: its
    // copy was clean.
    recall_acks_.fetch_add(1, std::memory_order_relaxed);
    ResolveRecallClean(region_id, region, off, page);
  }
}

void ShmDirectory::HandlePortDeath(uint64_t port_id) {
  std::lock_guard<std::mutex> g(mu_);
  for (auto& [region_id, region] : regions_) {
    region.uses.erase(port_id);
    for (auto& [off, page] : region.pages) {
      if (page.owner == port_id) {
        // The owning kernel released the region (or died) holding write
        // access; whatever it wrote back last is what survives.
        if (page.recall != RecallKind::kNone) {
          page.recall = RecallKind::kNone;
          active_recalls_.erase({region_id, off});
        }
        ClearOwner(page);
      }
      if (page.hint == port_id) {
        page.hint = 0;
        page.hint_port = SendRight();
      }
      if (page.reader_ids.erase(port_id) != 0) {
        page.reader_ports.erase(
            std::remove_if(page.reader_ports.begin(), page.reader_ports.end(),
                           [&](const SendRight& r) { return r.id() == port_id; }),
            page.reader_ports.end());
      }
      page.pending.erase(
          std::remove_if(page.pending.begin(), page.pending.end(),
                         [&](const PendingRequest& pr) { return pr.request_port.id() == port_id; }),
          page.pending.end());
      ServePending(region_id, region, off, page);
    }
  }
}

void ShmDirectory::Tick(bool serviced) {
  std::lock_guard<std::mutex> g(mu_);
  // Virtual time advances mostly on idle passes: a deadline cannot expire
  // while recalled data is still queued behind other messages (the busy
  // charge is a factor kRecallDeadlineNs/kBusyTickNs smaller), so the
  // "no data ⇒ clean copy" inference below is deterministic.
  clock_->Charge(serviced ? kBusyTickNs : kIdleTickNs);
  if (active_recalls_.empty()) {
    return;
  }
  const uint64_t now = clock_->NowNs();
  // Copy: ResolveRecallClean / re-forwards mutate the active set.
  const std::vector<std::pair<uint64_t, VmOffset>> active(active_recalls_.begin(),
                                                          active_recalls_.end());
  for (const auto& [region_id, off] : active) {
    auto rit = regions_.find(region_id);
    if (rit == regions_.end()) {
      active_recalls_.erase({region_id, off});
      continue;
    }
    Region& region = rit->second;
    auto pit = region.pages.find(off);
    if (pit == region.pages.end()) {
      active_recalls_.erase({region_id, off});
      continue;
    }
    PageState& page = pit->second;
    if (page.recall == RecallKind::kNone || page.deadline_ns > now) {
      continue;
    }
    if (page.retries_left == 0 || page.owner == 0) {
      ResolveRecallClean(region_id, region, off, page);
      continue;
    }
    --page.retries_left;
    recall_retries_.fetch_add(1, std::memory_order_relaxed);
    page.deadline_ns = now + kRecallDeadlineNs;
    if (!page.chased && page.hint != page.owner) {
      // The hinted owner never answered: chase through the exact record.
      page.chased = true;
    }
    // The last attempt is injector-exempt (guaranteed local delivery), so
    // concluding "clean" after it is sound: the owner demonstrably received
    // the recall and sent nothing back.
    SendForward(page.chased || page.hint == 0 ? page.owner_port : page.hint_port, off,
                page.recall, /*exempt=*/page.retries_left == 0);
  }
}

ShmCounters ShmDirectory::counters() const {
  ShmCounters c;
  c.read_grants = read_grants_.load(std::memory_order_relaxed);
  c.write_grants = write_grants_.load(std::memory_order_relaxed);
  c.invalidations = invalidations_.load(std::memory_order_relaxed);
  c.recalls = recalls_.load(std::memory_order_relaxed);
  c.forwards = forwards_.load(std::memory_order_relaxed);
  c.hint_hits = hint_hits_.load(std::memory_order_relaxed);
  c.hint_repairs = hint_repairs_.load(std::memory_order_relaxed);
  c.stale_hints = stale_hints_.load(std::memory_order_relaxed);
  c.ownership_transfers = ownership_transfers_.load(std::memory_order_relaxed);
  c.downgrades = downgrades_.load(std::memory_order_relaxed);
  c.forward_drops = forward_drops_.load(std::memory_order_relaxed);
  c.recall_retries = recall_retries_.load(std::memory_order_relaxed);
  c.recall_acks = recall_acks_.load(std::memory_order_relaxed);
  c.recall_timeouts = recall_timeouts_.load(std::memory_order_relaxed);
  c.service_ns = service_ns_.load(std::memory_order_relaxed);
  return c;
}

}  // namespace mach
