// Simulated physical memory: a fixed array of page frames plus the pieces of
// state real memory hardware keeps — per-frame reference/modify bits and the
// set of virtual mappings of each frame (the "pv list" a real pmap module
// maintains so it can find every mapping of a physical page).
//
// All access to frame contents goes through this class so that the hardware
// bits are maintained exactly as an MMU would maintain them. Each frame has
// its own lock serialising that frame's data, bits, and pv list — the
// per-cache-line atomicity real memory hardware gives — so accesses to
// distinct frames proceed in parallel on a multiprocessor. The free list has
// a separate lock. A pmap *writer* takes frame locks inside its Pmap::mu_
// (pv maintenance), never the reverse; a pmap *reader* (Pmap::Access) holds
// no pmap lock at all and validates its translation under the frame lock
// instead (AccessIf). Two frame locks are only ever held together by
// CopyFrame, which acquires them in frame-index order.
//
// Each frame also publishes its number of mappings (the pv list's length),
// written under the frame lock and readable without it, so
// Pmap::PageProtect returns at once for a frame nobody maps — every page
// vm_deallocate frees after its Pmap::Remove. PvList lets a pv walker hold
// each listed pmap before the frame lock drops; ~Pmap waits for those
// holds, so a walk never reaches a destroyed pmap (see pmap.h).

#ifndef SRC_HW_PHYSICAL_MEMORY_H_
#define SRC_HW_PHYSICAL_MEMORY_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "src/base/vm_types.h"

namespace mach {

class Pmap;

// Identifies one mapping of a physical frame (an entry on the frame's
// pv list).
struct PvEntry {
  Pmap* pmap;
  VmOffset vaddr;
};

class PhysicalMemory {
 public:
  // `frame_count` frames of `page_size` bytes each. `page_size` must be a
  // power of two (it is the *system* page size — a boot-time parameter per
  // §3.3, any multiple of a hardware page).
  PhysicalMemory(uint32_t frame_count, VmSize page_size);

  PhysicalMemory(const PhysicalMemory&) = delete;
  PhysicalMemory& operator=(const PhysicalMemory&) = delete;

  VmSize page_size() const { return page_size_; }
  uint32_t frame_count() const { return frame_count_; }

  // Raw frame allocation. The VM layer's free queue sits above this; these
  // simply hand out unused frames. AllocFrame returns nullopt when no more
  // than `reserve` frames are free (the check and the allocation are one
  // free-list critical section); `zero` clears the frame's data in the same
  // frame-lock acquisition that clears its hardware bits. FreeFrames
  // returns a batch of frames under one free-list acquisition, in order,
  // exactly as that many FreeFrame calls would. A freed frame must have no
  // mappings left on its pv list.
  std::optional<uint32_t> AllocFrame(uint32_t reserve = 0, bool zero = false);
  void FreeFrame(uint32_t frame);
  void FreeFrames(const std::vector<uint32_t>& frames);
  uint32_t free_frames() const;

  // Frame content access (performs the copy under the frame's lock and
  // maintains hardware bits the way a CPU access through a TLB entry would).
  void ReadFrame(uint32_t frame, VmOffset offset, void* dst, VmSize len);
  void WriteFrame(uint32_t frame, VmOffset offset, const void* src, VmSize len);
  void ZeroFrame(uint32_t frame);
  void CopyFrame(uint32_t src_frame, uint32_t dst_frame);

  // The lock-free pmap's load/store: ReadFrame or WriteFrame, performed only
  // if `pte` still holds `expected` once the frame's lock is held. A pmap
  // withdraws or lowers a translation before it takes this lock (PvRemove,
  // SyncFrame), so a copy that validates here runs before that pmap call
  // returns, and one that starts later sees the new entry. Returns false,
  // copying nothing, when the entry changed; the caller reloads and retries.
  bool AccessIf(uint32_t frame, VmOffset offset, void* buf, VmSize len, bool is_write,
                const std::atomic<uint64_t>& pte, uint64_t expected);

  // Takes and drops the frame's lock: returns once every AccessIf that was
  // copying under it has finished.
  void SyncFrame(uint32_t frame);

  // Hardware reference / modify bits.
  bool IsReferenced(uint32_t frame) const;
  bool IsModified(uint32_t frame) const;
  void ClearReference(uint32_t frame);
  void ClearModify(uint32_t frame);
  void SetReference(uint32_t frame);
  void SetModify(uint32_t frame);

  // pv-list maintenance, used by Pmap. PvList copies the list under the
  // frame's lock; a pv walker passes `hold`, called for every entry before
  // that lock drops, to keep each pmap alive until it is done with it.
  void PvAdd(uint32_t frame, Pmap* pmap, VmOffset vaddr);
  void PvRemove(uint32_t frame, Pmap* pmap, VmOffset vaddr);
  std::vector<PvEntry> PvList(uint32_t frame) const {
    return PvList(frame, [](Pmap*) {});
  }
  template <typename Hold>
  std::vector<PvEntry> PvList(uint32_t frame, Hold&& hold) const {
    std::lock_guard<std::mutex> g(frames_[frame].mu);
    for (const PvEntry& e : frames_[frame].pv) {
      hold(e.pmap);
    }
    return frames_[frame].pv;
  }

  // The frame's number of mappings, read without taking its lock. It
  // counts every mapping entered under a lock the caller has acquired since
  // (PageProtect's callers hold the owning object's lock).
  uint32_t mapping_count(uint32_t frame) const {
    return frames_[frame].mappings.load(std::memory_order_acquire);
  }

 private:
  struct Frame {
    mutable std::mutex mu;
    bool referenced = false;
    bool modified = false;
    std::vector<PvEntry> pv;
    std::atomic<uint32_t> mappings{0};  // pv.size(), stored under mu.
  };

  const uint32_t frame_count_;
  const VmSize page_size_;
  std::vector<std::byte> data_;
  std::vector<Frame> frames_;
  std::vector<uint32_t> free_list_;
  mutable std::mutex free_mu_;
};

}  // namespace mach

#endif  // SRC_HW_PHYSICAL_MEMORY_H_
