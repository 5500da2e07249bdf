// The physical map (pmap) module — the machine-dependent half of the Mach VM
// system (§5.5 "hardware validation"). A Pmap holds the virtual-to-physical
// translations for one address map. Everything above this layer is machine-
// independent, exactly as the paper describes.
//
// "User" code has no real MMU here, so every simulated memory access is an
// explicit Access() call: it performs translation, protection check,
// reference/modify bit maintenance and the data copy atomically, which is
// the contract a CPU load/store gives the kernel. A failed Access() is a
// page fault: the caller (the task copyin/copyout layer) invokes the kernel
// fault handler and retries.
//
// The translations live in a radix page table, as an MMU's do: each slot
// of a leaf holds one atomic page-table entry (frame, protection, valid).
// Nodes are allocated on the first Enter below them and freed only with the
// Pmap, so a reader can walk the table without a lock and never meets a
// freed node.
//
// Locking: Pmap::mu_ serialises *writers* only (Enter, EnterIf, Remove,
// Protect and PageProtect's per-pmap step). Readers — Access, Translate,
// ProtectionOf — take no pmap lock: Access loads the entry, then validates
// it under the frame's lock and copies only if it is unchanged (see
// PhysicalMemory::AccessIf), else reloads. A writer that withdraws or lowers
// an entry stores the new entry first and then takes the frame's lock
// (PvRemove, SyncFrame), so once Remove, Protect or PageProtect returns no
// copy through the old translation is still in flight — the guarantee a TLB
// shootdown gives. Writers may take frame (pv) locks while holding mu_,
// never the reverse (PageProtect copies the pv list first).
//
// PageProtect returns at once for a frame with no mappings (its count is
// PhysicalMemory::mapping_count), taking no lock. Otherwise it holds each
// pmap it copied from the pv list, from inside the frame lock until it has
// lowered that pmap's entry, and ~Pmap waits for its holds to drain after
// withdrawing its own pv entries: a task may die while a pager call or the
// pageout daemon is walking one of its frames, and the walk never reaches
// a destroyed pmap.

#ifndef SRC_HW_PMAP_H_
#define SRC_HW_PMAP_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>

#include "src/base/vm_types.h"
#include "src/hw/physical_memory.h"

namespace mach {

class Pmap {
 public:
  explicit Pmap(PhysicalMemory* phys);
  ~Pmap();

  Pmap(const Pmap&) = delete;
  Pmap& operator=(const Pmap&) = delete;

  // Result of a failed Access(): which fault the "hardware" raised.
  enum class FaultKind {
    kNone,        // Access succeeded.
    kNotPresent,  // No translation for the page.
    kProtection,  // Translation present but protection insufficient.
  };

  struct AccessResult {
    FaultKind fault = FaultKind::kNone;
    VmOffset fault_addr = 0;  // Page-aligned address of the faulting page.
  };

  // pmap_enter: installs (or replaces) the translation for the page
  // containing `vaddr`.
  void Enter(VmOffset vaddr, uint32_t frame, VmProt prot);

  // Conditional pmap_enter for optimistic (lock-free) fault installs: the
  // translation goes in only if `gen` still equals `expected`, checked
  // under this pmap's lock. A VM-layer mutation bumps its generation before
  // performing any pmap updates of its own, so an install that validates
  // here cannot be reordered after a clamp it should have observed: either
  // the clamp already ran (then the generation changed and we refuse) or it
  // has not reached this pmap yet (then it serialises behind us on mu_ and
  // lowers what we installed). Returns whether the translation was
  // installed.
  bool EnterIf(VmOffset vaddr, uint32_t frame, VmProt prot,
               const std::atomic<uint64_t>& gen, uint64_t expected);

  // pmap_remove: removes translations for [start, end). Absent parts of the
  // table are skipped whole.
  void Remove(VmOffset start, VmOffset end);

  // pmap_protect: lowers the protection of translations in [start, end)
  // to at most `prot` (removing them if prot == none).
  void Protect(VmOffset start, VmOffset end, VmProt prot);

  // pmap_page_protect: lowers the protection of *every* mapping of `frame`,
  // in all pmaps, to at most `prot`. Used for copy-on-write write-protection
  // and for pageout (prot == none). Callers serialise against racing new
  // mappings with the owning VmObject's lock (faults only install a frame
  // while it is pinned, and pinned frames are re-checked at unpin); that
  // same lock makes every mapping they must lower visible to the lock-free
  // mapping-count check, so an unmapped frame returns at once.
  static void PageProtect(PhysicalMemory* phys, uint32_t frame, VmProt prot);

  // Simulated CPU access: copies `len` bytes between `buf` and the virtual
  // range starting at `vaddr` *within one page*. Returns the fault raised,
  // if any. Reference (and modify, for writes) bits are set on success.
  AccessResult Access(VmOffset vaddr, void* buf, VmSize len, bool is_write);

  // Translation query (no access, no bit updates). Used by tests and by the
  // fault handler's fast revalidation path.
  std::optional<uint32_t> Translate(VmOffset vaddr, VmProt required) const;

  // Returns the current protection of the page's translation, if present.
  std::optional<VmProt> ProtectionOf(VmOffset vaddr) const;

  // Number of installed translations (for tests/statistics).
  size_t entry_count() const;

  // Number of page-table nodes (leaves and directories) allocated so far:
  // tests use it to check that a sparse space only builds what it touches.
  size_t node_count() const;

  PhysicalMemory* phys() const { return phys_; }

 private:
  // A page-table entry: frame << 32 | prot << 1 | valid. Zero is "no
  // translation", which is what a fresh leaf holds.
  using Pte = uint64_t;
  static constexpr Pte kValid = 1;
  static Pte MakePte(uint32_t frame, VmProt prot) {
    return (Pte{frame} << 32) | (Pte{prot & kVmProtAll} << 1) | kValid;
  }
  static uint32_t PteFrame(Pte pte) { return static_cast<uint32_t>(pte >> 32); }
  static VmProt PteProt(Pte pte) { return static_cast<VmProt>(pte >> 1) & kVmProtAll; }

  // One radix node of kSlots slots. A level-0 node is a leaf and its slots
  // are entries; a level-n node's slots point at level n-1 nodes (stored as
  // integers so both kinds share one layout). The root's level grows as
  // higher page numbers are entered: the old root becomes child 0 of the
  // new one, so a reader still holding the old root walks a valid subtree.
  static constexpr unsigned kBits = 9;
  static constexpr uint64_t kSlots = uint64_t{1} << kBits;
  static constexpr uint64_t kSlotMask = kSlots - 1;
  struct Node {
    explicit Node(unsigned l) : level(l) {}
    const unsigned level;
    std::atomic<uint64_t> slot[kSlots]{};
  };

  // Whether a node at `level` spans page number `pn`.
  static bool Covers(unsigned level, uint64_t pn) {
    const unsigned bits = kBits * (level + 1);
    return bits >= 64 || (pn >> bits) == 0;
  }
  static Node* Child(const Node* node, uint64_t pn) {
    return reinterpret_cast<Node*>(
        node->slot[(pn >> (kBits * node->level)) & kSlotMask].load(std::memory_order_acquire));
  }

  // The entry slot for page number `pn`, or null if its leaf is absent. No
  // lock needed to find it or load it; storing to it needs mu_.
  std::atomic<Pte>* FindPte(uint64_t pn) const;

  // The entry slot for `pn`, allocating the root and the path down to the
  // leaf as needed. Caller holds mu_.
  std::atomic<Pte>& PteForEnter(uint64_t pn);

  // Calls fn(slot, pn, pte) for every valid entry whose page overlaps
  // [start, end), skipping absent subtrees. Caller holds mu_.
  template <typename Fn>
  void ForEachPte(VmOffset start, VmOffset end, Fn&& fn);

  void EnterLocked(uint64_t pn, uint32_t frame, VmProt prot);
  // Withdraws a valid entry, then drops its pv entry. Caller holds mu_.
  void ClearLocked(std::atomic<Pte>& slot, uint64_t pn, Pte pte);
  // Lowers a valid entry's protection to at most `prot` (removing it when
  // prot == none). Caller holds mu_.
  void LowerLocked(std::atomic<Pte>& slot, uint64_t pn, Pte pte, VmProt prot);

  // Called by PageProtect via the pv list.
  void LowerProtection(VmOffset page_addr, uint32_t frame, VmProt prot);

  VmOffset PageAddr(uint64_t pn) const { return pn << page_shift_; }
  static void FreeTree(Node* node);

  PhysicalMemory* const phys_;
  const unsigned page_shift_;
  mutable std::mutex mu_;            // Writers only.
  std::atomic<Node*> root_{nullptr};  // Written under mu_, read lock-free.
  // PageProtect walks holding this pmap (taken under a frame lock while
  // copying the pv list, dropped once its entry is lowered).
  std::atomic<uint32_t> walkers_{0};
  size_t entries_ = 0;                // Guarded by mu_.
  size_t nodes_ = 0;                  // Guarded by mu_.
};

}  // namespace mach

#endif  // SRC_HW_PMAP_H_
