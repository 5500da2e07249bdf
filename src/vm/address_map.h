// Address maps (§5.1): a task address map is a directory mapping each valid
// address range to a memory object and offset, plus protection and
// inheritance attributes.
//
// Maps are two-level: a top-level entry normally references a VmObject
// directly (the §5.1 optimization for unshared memory), but once read/write
// inheritance sharing has occurred the entry references a *sharing map* — an
// AddressMap in its own right whose entries hold the objects. Per-task
// attributes (protection, inheritance) stay in the top-level entry;
// operations on the memory itself are reflected in the sharing map.
//
// Locking: each map carries a reader-writer lock (`lock()`), the outermost
// tier of the VM lock order. Fault-path lookups take it shared so faults in
// disjoint regions of one map never contend; structural mutation and entry
// field writes (needs_copy, object installation) take it exclusive. All
// methods assume the caller holds the lock in the appropriate mode — the
// map does no locking of its own. A top-level map's lock may be held while
// taking a sharing map's lock, never the reverse; ForkMap orders parent
// before child. The map also performs no object reference accounting or
// pmap maintenance — VmSystem drives those from the entries these methods
// return, keeping policy out of the container.
//
// Optimistic (seqlock) read tier: on top of the lock, the map keeps a
// generation counter and a published immutable snapshot of its entries so
// the fault fast path can resolve an address without touching the lock at
// all. The protocol:
//
//   * Every mutation runs inside a MapMutation, which takes the lock
//     exclusively and bumps the generation to an odd value *before* the
//     mutation body (and so before any pmap clamp the mutation performs),
//     then back to even on completion. Under the shared lock the generation
//     is therefore always even and stable.
//   * PublishSnapshot (called under the lock, either mode) rebuilds the
//     snapshot — a flat sorted vector, never a view into the std::map — and
//     swaps it in atomically. Readers only ever dereference the immutable
//     snapshot, so there is no torn read to defend against; the generation
//     tells them whether what they read is still current.
//   * A lock-free reader pins the snapshot (SnapshotRef — an epoch counter,
//     not a lock: a single uncontended fetch_add each way), resolves its
//     address against it, and validates `generation() == snapshot->gen` —
//     final validation happens inside the pmap lock (Pmap::EnterIf), which
//     closes the race with a mutation's own pmap updates: the mutation's
//     generation bump happens-before its pmap clamps, so an install that
//     validates under the pmap lock cannot have missed a clamp. (That lock
//     serialises pmap writers only — the install and the clamps are both
//     writers. Pmap readers take no pmap lock; a simulated load or store
//     validates its page-table entry under the frame lock instead.) On any
//     mismatch the reader falls back to the shared-lock path, which
//     republishes.
//   * Reclamation: a publish retires the previous snapshot; retired
//     snapshots are deleted only when the reader count is observed to be
//     zero *after* the swap (sequentially consistent with the readers'
//     pin), so no reader can ever dereference a freed snapshot. A reader
//     that pins after that observation necessarily loads the new pointer.
//
// Sharing-map entries (is_share) are materialised in the snapshot but
// readers must refuse them: sub-entry state is not covered by the top-level
// generation.

#ifndef SRC_VM_ADDRESS_MAP_H_
#define SRC_VM_ADDRESS_MAP_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "src/base/kern_return.h"
#include "src/base/vm_types.h"

namespace mach {

class VmObject;
class AddressMap;

// Per-map-entry sequentiality detector state for adaptive fault-ahead. One
// atomic word so it can live inside a MapEntry (which ClipRange / RemoveRange
// / ForkMap copy freely) and be updated under the map's *shared* lock from
// the fault path: concurrent faulters race on it, but the word is only a
// readahead heuristic — a lost update costs at most one mis-sized window.
// The optimistic (seqlock) tier never reads or writes it: MapSnapshotEntry
// deliberately omits it, so detector updates can't perturb lock-free faults.
//
// Encoding: low 48 bits = (next expected faulting page index within the
// object) + 1, where 0 means "no history"; bits 48..63 = the window used at
// the last miss, so sequential streaks can double it 1→2→4→…→max.
struct FaultAheadState {
  std::atomic<uint64_t> word{0};

  FaultAheadState() = default;
  // Entry copies (clipping, forks) carry the heuristic along; relaxed is
  // fine, the value is advisory.
  FaultAheadState(const FaultAheadState& other)
      : word(other.word.load(std::memory_order_relaxed)) {}
  FaultAheadState& operator=(const FaultAheadState& other) {
    word.store(other.word.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
    return *this;
  }

  static constexpr uint64_t kPageMask = (uint64_t{1} << 48) - 1;
  static constexpr int kWindowShift = 48;
};

struct MapEntry {
  VmOffset start = 0;
  VmOffset end = 0;  // exclusive

  // Exactly one of these is meaningful. `object` may also be null for an
  // allocated-but-untouched region (zero-fill object created at first
  // fault, "filled-zero on demand" per Table 3-3).
  std::shared_ptr<VmObject> object;
  std::shared_ptr<AddressMap> share_map;
  bool is_share = false;

  VmOffset offset = 0;  // Offset of `start` within the object / share map.

  VmProt protection = kVmProtDefault;
  VmProt max_protection = kVmProtAll;
  VmInherit inheritance = VmInherit::kCopy;

  // Copy-on-write pending: the object must be shadowed before this entry's
  // memory is written (§5.5 "copy-on-write").
  bool needs_copy = false;

  // Adaptive fault-ahead sequentiality detector (see FaultAheadState).
  FaultAheadState fault_ahead;

  VmSize size() const { return end - start; }
};

// One entry of an immutable map snapshot (the seqlock read tier). Carries
// exactly the fields the fault fast path needs; sharing-map entries are
// present only so readers can recognise and refuse them.
struct MapSnapshotEntry {
  VmOffset start = 0;
  VmOffset end = 0;  // exclusive
  VmOffset offset = 0;
  VmProt protection = kVmProtNone;
  bool needs_copy = false;
  bool is_share = false;
  std::shared_ptr<VmObject> object;
};

// An immutable snapshot of a map's entries, published atomically. `gen` is
// the (even) map generation the snapshot was built at; a reader that later
// observes the same generation knows no mutation has intervened.
struct MapSnapshot {
  uint64_t gen = 0;
  std::vector<MapSnapshotEntry> entries;  // sorted by start

  // Returns the entry containing `addr`, or nullptr. Pure binary search
  // over immutable data: safe with no locks held.
  const MapSnapshotEntry* Lookup(VmOffset addr) const;
};

class AddressMap {
 public:
  AddressMap(VmOffset min_addr, VmOffset max_addr, VmSize page_size)
      : min_(min_addr), max_(max_addr), page_size_(page_size) {}
  ~AddressMap();

  AddressMap(const AddressMap&) = delete;
  AddressMap& operator=(const AddressMap&) = delete;

  VmOffset min_address() const { return min_; }
  VmOffset max_address() const { return max_; }
  VmSize page_size() const { return page_size_; }

  // The map lock (see the header comment for the sharing discipline).
  std::shared_mutex& lock() const { return mu_; }

  // --- the seqlock read tier (see the header comment) -------------------

  // The current generation. Even = stable; odd = a mutation is in flight.
  uint64_t generation() const { return gen_.load(std::memory_order_acquire); }

  // The generation word itself, for validation under another lock
  // (Pmap::EnterIf takes it by reference).
  const std::atomic<uint64_t>& generation_word() const { return gen_; }

  // Pins the published snapshot for the lifetime of the ref (null until the
  // first publish). Wait-free: one fetch_add to pin, one to unpin; while
  // any ref is live no retired snapshot is reclaimed, so the pointer (and
  // the object references inside it) stay valid without a lock.
  class SnapshotRef {
   public:
    explicit SnapshotRef(const AddressMap& map) : map_(map) {
      // seq_cst pairs with the publisher's exchange + reader-count check:
      // if the publisher saw zero readers after swapping, this pin is later
      // in the total order and must load the new pointer.
      map_.snap_readers_.fetch_add(1, std::memory_order_seq_cst);
      snap_ = map_.snapshot_.load(std::memory_order_seq_cst);
    }
    ~SnapshotRef() { map_.snap_readers_.fetch_sub(1, std::memory_order_release); }

    SnapshotRef(const SnapshotRef&) = delete;
    SnapshotRef& operator=(const SnapshotRef&) = delete;

    const MapSnapshot* get() const { return snap_; }

   private:
    const AddressMap& map_;
    const MapSnapshot* snap_ = nullptr;
  };

  // Whether the published snapshot matches the current generation.
  bool snapshot_current() const {
    return published_gen_.load(std::memory_order_acquire) ==
           gen_.load(std::memory_order_relaxed);
  }

  // Rebuilds and publishes the snapshot from the current entries. Caller
  // holds the lock (either mode; shared publishers race benignly — they
  // build identical snapshots, since mutation requires exclusive).
  void PublishSnapshot();

  // Returns the entry containing `addr`, or nullptr.
  MapEntry* Lookup(VmOffset addr);
  const MapEntry* Lookup(VmOffset addr) const;

  // Finds a free gap of `size` bytes at or above `hint` (page aligned).
  Result<VmOffset> FindSpace(VmSize size, VmOffset hint = 0) const;

  // True if [start, start+size) overlaps no entry and is within bounds.
  bool RangeFree(VmOffset start, VmSize size) const;

  // True if every byte of [start, start+size) is covered by entries.
  bool RangeFullyCovered(VmOffset start, VmSize size) const;

  // Inserts a new entry; the range must be free. Takes ownership.
  KernReturn Insert(MapEntry entry);

  // Splits entries so that `start` and `end` fall on entry boundaries, then
  // returns pointers to all entries overlapping [start, end), in order.
  // Pointers are valid until the next structural mutation.
  std::vector<MapEntry*> ClipRange(VmOffset start, VmOffset end);

  // Removes all entries overlapping [start, end) (clipping at the edges)
  // and returns them so the caller can release references and mappings.
  std::vector<MapEntry> RemoveRange(VmOffset start, VmOffset end);

  // All entries overlapping [start, end), without clipping.
  std::vector<MapEntry*> EntriesIn(VmOffset start, VmOffset end);

  // Every entry, in address order (vm_regions).
  std::vector<const MapEntry*> AllEntries() const;

  size_t entry_count() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

 private:
  friend class MapMutation;

  // Splits the entry containing `addr` so that an entry boundary falls
  // exactly at `addr` (no-op if already on a boundary).
  void ClipAt(VmOffset addr);

  // Generation bumps around a mutation; only MapMutation calls these, with
  // the lock held exclusively.
  void BeginMutation() { gen_.fetch_add(1, std::memory_order_acq_rel); }
  void EndMutation() { gen_.fetch_add(1, std::memory_order_acq_rel); }

  mutable std::shared_mutex mu_;
  VmOffset min_;
  VmOffset max_;
  VmSize page_size_;
  std::map<VmOffset, MapEntry> entries_;  // keyed by entry.start

  // Seqlock state (see the header comment). `published_gen_` starts at an
  // odd sentinel so snapshot_current() is false before the first publish.
  // The snapshot is a plain atomic pointer (not atomic<shared_ptr>, whose
  // libstdc++ implementation is an internal spinlock — a lock on the fault
  // fast path, and one ThreadSanitizer cannot see through); lifetime is
  // handled by the SnapshotRef epoch counter plus the retired list.
  std::atomic<uint64_t> gen_{0};
  std::atomic<uint64_t> published_gen_{uint64_t(-1)};
  std::atomic<const MapSnapshot*> snapshot_{nullptr};
  mutable std::atomic<uint64_t> snap_readers_{0};
  std::mutex retired_mu_;  // Leaf lock; taken only inside PublishSnapshot.
  std::vector<const MapSnapshot*> retired_;
};

// RAII for a map mutation: takes the map lock exclusively and brackets the
// scope with the generation bump (odd at entry, even again at exit — the
// destructor body runs EndMutation before the member unique_lock unlocks).
// Every writer to a top-level map's entries must use this, or optimistic
// readers would miss the mutation and trust a stale snapshot.
class MapMutation {
 public:
  explicit MapMutation(AddressMap& map) : map_(map), lk_(map.lock()) {
    map_.BeginMutation();
  }
  ~MapMutation() { map_.EndMutation(); }

  MapMutation(const MapMutation&) = delete;
  MapMutation& operator=(const MapMutation&) = delete;

 private:
  AddressMap& map_;
  std::unique_lock<std::shared_mutex> lk_;
};

}  // namespace mach

#endif  // SRC_VM_ADDRESS_MAP_H_
