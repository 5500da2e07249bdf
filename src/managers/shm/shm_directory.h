// ShmDirectory: the per-shard coherence state machine of the distributed
// network shared-memory directory (§4.2/§7, after Li & Hudak's dynamic
// distributed manager).
//
// One directory instance serves the subset of a region's pages that hash to
// its shard. It is deliberately *not* a DataManager — ShmShard adapts the
// external-pager upcalls onto it — so the protocol can be unit-driven and so
// every shard of a ShmBroker, including the single shard of a 1-shard
// (centralised) broker, runs the byte-identical state machine (the
// property-test oracle depends on that).
//
// Per page (single writer / multiple readers, with dynamic ownership):
//   * The *owner* is the last kernel granted write access; its request port
//     id is the directory's exact record. The *hint* is the port the
//     directory forwards recalls to first — normally the owner, but
//     possibly stale (a lost transfer notice, modelled by the
//     "shm.stale_hint" fault point, or a kernel that silently dropped its
//     clean copy). A stale hint costs one extra forward: the chase is
//     bounded by 2 because the exact owner record is always one hop away.
//   * A request while a foreign owner exists *forwards* to the hinted
//     owner: a write request recalls the page (pager_flush_request), a read
//     request demotes the owner to a reader instead (pager_clean_request +
//     a write lock), so read-mostly sharing stops destroying the writer's
//     copy.
//   * Forwards can be lost ("shm.forward_drop"); the recall deadline
//     retries them a bounded number of times before concluding the owner's
//     copy was clean (a clean copy is flushed silently — nothing comes
//     back) and serving the directory's stored data.
//
// Deadlines run on *virtual* time (SimClock), not std::chrono::steady_clock:
// the owning shard charges the clock only on idle service passes, so a
// deadline cannot expire while recalled data is still queued behind other
// messages — chaos runs and the NORMA latency sweep are replayable and a
// slow machine cannot turn an in-flight writeback into a false "was clean".

#ifndef SRC_MANAGERS_SHM_SHM_DIRECTORY_H_
#define SRC_MANAGERS_SHM_SHM_DIRECTORY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/base/fault_injector.h"
#include "src/base/hash.h"
#include "src/base/sim_clock.h"
#include "src/base/vm_types.h"
#include "src/ipc/port.h"

namespace mach {

class PagerRunBuilder;

struct ShmOptions {
  VmSize page_size = 4096;
  // Virtual-time source for recall deadlines. nullptr = the directory owns
  // a private clock (advanced only by Tick()).
  SimClock* clock = nullptr;
  // Optional injector for the shm.* fault points. Not owned.
  FaultInjector* injector = nullptr;
  // Modeled directory service cost charged to ShmCounters::service_ns per
  // coherence action (grant / invalidation / forward / settle). Used by
  // bench_shm_coherence to compute a CPU-count-independent makespan.
  uint64_t service_cost_ns = 0;
  // This directory's position in the broker's hash partition. Speculative
  // (fault-ahead) pages outside this shard's stripe are never answered; the
  // defaults describe a standalone (unsharded) directory that owns every
  // page. Set by ShmBroker when constructing its shards.
  uint32_t shard_index = 0;
  uint32_t shard_count = 1;
};

// Which shard serves page `page_index` of region `region_id` — SplitMix64
// avalanche, so consecutive pages spread uniformly and no shard inherits a
// hot contiguous run. Shared by the broker's map-building side and the
// directory's stripe clamp so the two can never disagree.
inline uint64_t ShmShardOfPage(uint64_t region_id, uint64_t page_index, uint64_t shard_count) {
  return HashCombine64(region_id, page_index) % shard_count;
}

// Counter snapshot. Read from client threads while the shard thread grants,
// hence the atomics live in the directory and this is a plain copy.
struct ShmCounters {
  uint64_t read_grants = 0;
  uint64_t write_grants = 0;
  uint64_t invalidations = 0;
  uint64_t recalls = 0;
  uint64_t forwards = 0;             // Recall/downgrade sends to a hinted owner.
  uint64_t hint_hits = 0;            // Forwards the hinted owner answered with data.
  uint64_t hint_repairs = 0;         // Hint rewritten after diverging from the owner.
  uint64_t stale_hints = 0;          // Forwards sent while hint != exact owner.
  uint64_t ownership_transfers = 0;  // Write grants handing a page owner -> owner.
  uint64_t downgrades = 0;           // Owners demoted to reader by a read request.
  uint64_t forward_drops = 0;        // Forwards eaten by shm.forward_drop.
  uint64_t recall_retries = 0;       // Deadline-driven re-forwards.
  uint64_t recall_acks = 0;          // Recalls resolved clean by lock_completed.
  uint64_t recall_timeouts = 0;      // Recalls resolved clean by deadline expiry.
  uint64_t service_ns = 0;           // Modeled service time (see ShmOptions).
};

class ShmDirectory {
 public:
  // Fault points (consulted when an injector is attached):
  //  * shm.forward_drop — the forward to the hinted owner is lost; the
  //    deadline path must retry it.
  //  * shm.stale_hint — the hint repair at ownership transfer is lost; the
  //    next forward for the page goes to the previous owner and must chase.
  static constexpr const char* kFaultForwardDrop = "shm.forward_drop";
  static constexpr const char* kFaultStaleHint = "shm.stale_hint";

  explicit ShmDirectory(ShmOptions options);

  ShmDirectory(const ShmDirectory&) = delete;
  ShmDirectory& operator=(const ShmDirectory&) = delete;

  // Registers a region this directory serves (idempotent). `region_id` is
  // the memory-object cookie the owning shard hands out.
  void AddRegion(uint64_t region_id, VmSize size);

  // --- external-pager upcalls, forwarded by ShmShard ----------------------
  void HandleInit(uint64_t region_id, SendRight request_port);
  void HandleDataRequest(uint64_t region_id, SendRight request_port, VmOffset offset,
                         VmSize length, VmProt desired_access);
  void HandleDataUnlock(uint64_t region_id, SendRight request_port, VmOffset offset,
                        VmSize length, VmProt desired_access);
  void HandleDataWrite(uint64_t region_id, VmOffset offset, std::vector<std::byte> data);
  // pager_lock_completed from `completer`: a flush/clean finished. FIFO on
  // the object port means any dirty data already settled, so a recall still
  // active when the owner's completion arrives was clean — resolve it now
  // (no timeout). A completion from a non-owner exposes a stale hint: the
  // chase to the exact owner starts immediately.
  void HandleLockCompleted(uint64_t region_id, uint64_t completer, VmOffset offset,
                           VmSize length);
  void HandlePortDeath(uint64_t port_id);

  // Service-loop tick: advances the private clock on idle passes and
  // resolves expired recall deadlines (retry, chase, or conclude-clean).
  void Tick(bool serviced);

  ShmCounters counters() const;
  const ShmOptions& options() const { return options_; }
  uint64_t now_ns() const { return clock_->NowNs(); }

 private:
  struct PendingRequest {
    SendRight request_port;
    VmProt access = kVmProtNone;
  };

  enum class RecallKind : uint8_t {
    kNone = 0,
    kFlush,      // Owner must give the page up (write request waiting).
    kDowngrade,  // Owner may keep a read copy (read request waiting).
  };

  struct PageState {
    std::vector<std::byte> data;  // Authoritative while owner == 0.
    uint64_t owner = 0;           // Exact record: last granted writer.
    SendRight owner_port;
    uint64_t last_owner = 0;      // Previous grantee, for transfer accounting.
    uint64_t hint = 0;            // Probable owner; forwards target this.
    SendRight hint_port;
    std::set<uint64_t> reader_ids;
    std::vector<SendRight> reader_ports;
    std::vector<PendingRequest> pending;
    // In-flight recall, resolved by a writeback or the deadline machinery.
    RecallKind recall = RecallKind::kNone;
    uint64_t deadline_ns = 0;
    uint32_t retries_left = 0;
    bool chased = false;  // Already re-forwarded to the exact owner.
  };

  struct Region {
    VmSize size = 0;
    // Every kernel ("use") of this region: request port id -> send right.
    std::unordered_map<uint64_t, SendRight> uses;
    std::map<VmOffset, PageState> pages;
  };

  PageState& PageAt(Region& region, VmOffset offset);
  void Charge(uint64_t actions = 1);
  // Grants the front-of-queue access(es) for a page whose data is settled.
  void ServePending(uint64_t region_id, Region& region, VmOffset offset, PageState& page);
  // `run` non-null routes the provide through a PagerRunBuilder so a
  // fault-ahead request's contiguous grants coalesce into one message.
  void GrantRead(PageState& page, const SendRight& req, VmOffset offset,
                 PagerRunBuilder* run = nullptr);
  void GrantWrite(PageState& page, const SendRight& req, VmOffset offset,
                  bool requester_has_copy);
  void InvalidateReaders(PageState& page, VmOffset offset, uint64_t except_id);
  // Starts (or joins) a recall of an owned page. kFlush upgrades a pending
  // kDowngrade recall — a write request must evict the owner even if a read
  // request only asked for a demotion.
  void BeginRecall(uint64_t region_id, VmOffset offset, PageState& page, RecallKind kind);
  // One forward on the wire (unless shm.forward_drop eats it). The final
  // retry of a recall passes exempt=true: it skips the injector so the
  // conclude-clean inference stays sound under injected drops.
  void SendForward(const SendRight& target, VmOffset offset, RecallKind kind, bool exempt);
  // The recall concluded without data: the hinted copy was clean or gone.
  void ResolveRecallClean(uint64_t region_id, Region& region, VmOffset offset, PageState& page);
  void SetOwner(PageState& page, const SendRight& req);
  void ClearOwner(PageState& page);

  const ShmOptions options_;
  SimClock owned_clock_;
  SimClock* const clock_;

  mutable std::mutex mu_;
  std::unordered_map<uint64_t, Region> regions_;
  // Pages with a recall in flight, so Tick never scans the whole space.
  std::set<std::pair<uint64_t, VmOffset>> active_recalls_;

  std::atomic<uint64_t> read_grants_{0};
  std::atomic<uint64_t> write_grants_{0};
  std::atomic<uint64_t> invalidations_{0};
  std::atomic<uint64_t> recalls_{0};
  std::atomic<uint64_t> forwards_{0};
  std::atomic<uint64_t> hint_hits_{0};
  std::atomic<uint64_t> hint_repairs_{0};
  std::atomic<uint64_t> stale_hints_{0};
  std::atomic<uint64_t> ownership_transfers_{0};
  std::atomic<uint64_t> downgrades_{0};
  std::atomic<uint64_t> forward_drops_{0};
  std::atomic<uint64_t> recall_retries_{0};
  std::atomic<uint64_t> recall_acks_{0};
  std::atomic<uint64_t> recall_timeouts_{0};
  std::atomic<uint64_t> service_ns_{0};
};

}  // namespace mach

#endif  // SRC_MANAGERS_SHM_SHM_DIRECTORY_H_
