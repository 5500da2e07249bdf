#include "src/hw/pmap.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <thread>

namespace mach {

Pmap::Pmap(PhysicalMemory* phys)
    : phys_(phys), page_shift_(static_cast<unsigned>(std::countr_zero(phys->page_size()))) {}

Pmap::~Pmap() {
  {
    // Drop all pv entries for translations still installed.
    std::lock_guard<std::mutex> g(mu_);
    ForEachPte(0, ~VmOffset{0}, [&](std::atomic<Pte>&, uint64_t pn, Pte pte) {
      phys_->PvRemove(PteFrame(pte), this, PageAddr(pn));
    });
  }
  // No pv list names this pmap any more, so no new walk can reach it. A
  // walk that copied an entry before it went took its hold under the frame
  // lock PvRemove took after it: wait for those (mu_ is free for them).
  while (walkers_.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
  FreeTree(root_.load(std::memory_order_relaxed));
}

void Pmap::FreeTree(Node* node) {
  if (node == nullptr) {
    return;
  }
  if (node->level > 0) {
    for (const std::atomic<uint64_t>& s : node->slot) {
      FreeTree(reinterpret_cast<Node*>(s.load(std::memory_order_relaxed)));
    }
  }
  delete node;
}

std::atomic<Pmap::Pte>* Pmap::FindPte(uint64_t pn) const {
  Node* node = root_.load(std::memory_order_acquire);
  if (node == nullptr || !Covers(node->level, pn)) {
    return nullptr;
  }
  while (node->level > 0) {
    node = Child(node, pn);
    if (node == nullptr) {
      return nullptr;
    }
  }
  return &node->slot[pn & kSlotMask];
}

std::atomic<Pmap::Pte>& Pmap::PteForEnter(uint64_t pn) {
  Node* root = root_.load(std::memory_order_relaxed);
  if (root == nullptr) {
    unsigned level = 0;
    while (!Covers(level, pn)) {
      ++level;
    }
    root = new Node(level);
    ++nodes_;
    root_.store(root, std::memory_order_release);
  }
  while (!Covers(root->level, pn)) {
    Node* up = new Node(root->level + 1);
    ++nodes_;
    up->slot[0].store(reinterpret_cast<uintptr_t>(root), std::memory_order_relaxed);
    root_.store(up, std::memory_order_release);
    root = up;
  }
  Node* node = root;
  while (node->level > 0) {
    std::atomic<uint64_t>& s = node->slot[(pn >> (kBits * node->level)) & kSlotMask];
    Node* child = reinterpret_cast<Node*>(s.load(std::memory_order_relaxed));
    if (child == nullptr) {
      child = new Node(node->level - 1);
      ++nodes_;
      s.store(reinterpret_cast<uintptr_t>(child), std::memory_order_release);
    }
    node = child;
  }
  return node->slot[pn & kSlotMask];
}

template <typename Fn>
void Pmap::ForEachPte(VmOffset start, VmOffset end, Fn&& fn) {
  Node* root = root_.load(std::memory_order_relaxed);
  if (root == nullptr || end <= start) {
    return;
  }
  uint64_t pn = start >> page_shift_;
  const uint64_t last = (end - 1) >> page_shift_;
  for (;;) {
    if (!Covers(root->level, pn)) {
      return;
    }
    Node* node = root;
    while (node->level > 0) {
      Node* child = Child(node, pn);
      if (child == nullptr) {
        break;
      }
      node = child;
    }
    if (node->level == 0) {
      const uint64_t stop = std::min(last, pn | kSlotMask);
      for (;; ++pn) {
        std::atomic<Pte>& slot = node->slot[pn & kSlotMask];
        const Pte pte = slot.load(std::memory_order_relaxed);
        if ((pte & kValid) != 0) {
          fn(slot, pn, pte);
        }
        if (pn == stop) {
          break;
        }
      }
    } else {
      // The child spanning pn is absent: jump to the last page it would
      // have covered.
      pn |= (uint64_t{1} << (kBits * node->level)) - 1;
    }
    if (pn >= last) {
      return;
    }
    ++pn;
  }
}

void Pmap::Enter(VmOffset vaddr, uint32_t frame, VmProt prot) {
  std::lock_guard<std::mutex> g(mu_);
  EnterLocked(vaddr >> page_shift_, frame, prot);
}

bool Pmap::EnterIf(VmOffset vaddr, uint32_t frame, VmProt prot,
                   const std::atomic<uint64_t>& gen, uint64_t expected) {
  std::lock_guard<std::mutex> g(mu_);
  if (gen.load(std::memory_order_acquire) != expected) {
    return false;
  }
  EnterLocked(vaddr >> page_shift_, frame, prot);
  return true;
}

void Pmap::EnterLocked(uint64_t pn, uint32_t frame, VmProt prot) {
  std::atomic<Pte>& slot = PteForEnter(pn);
  const Pte old = slot.load(std::memory_order_relaxed);
  const Pte pte = MakePte(frame, prot);
  if ((old & kValid) != 0 && PteFrame(old) == frame) {
    if (old != pte) {
      slot.store(pte, std::memory_order_release);
      if ((PteProt(old) & ~PteProt(pte)) != 0) {
        phys_->SyncFrame(frame);  // Lowered: wait out copies under the old rights.
      }
    }
    return;
  }
  // The new frame's pv entry exists before the entry is visible, and the
  // old frame's goes only after the entry stopped naming it, so PageProtect
  // always finds every translation a reader could use.
  phys_->PvAdd(frame, this, PageAddr(pn));
  slot.store(pte, std::memory_order_release);
  if ((old & kValid) != 0) {
    phys_->PvRemove(PteFrame(old), this, PageAddr(pn));
  } else {
    ++entries_;
  }
}

void Pmap::ClearLocked(std::atomic<Pte>& slot, uint64_t pn, Pte pte) {
  slot.store(0, std::memory_order_release);
  --entries_;
  phys_->PvRemove(PteFrame(pte), this, PageAddr(pn));
}

void Pmap::LowerLocked(std::atomic<Pte>& slot, uint64_t pn, Pte pte, VmProt prot) {
  if (prot == kVmProtNone) {
    ClearLocked(slot, pn, pte);
    return;
  }
  const Pte lowered = MakePte(PteFrame(pte), PteProt(pte) & prot);
  if (lowered != pte) {
    slot.store(lowered, std::memory_order_release);
    phys_->SyncFrame(PteFrame(pte));
  }
}

void Pmap::Remove(VmOffset start, VmOffset end) {
  std::lock_guard<std::mutex> g(mu_);
  ForEachPte(start, end, [&](std::atomic<Pte>& slot, uint64_t pn, Pte pte) {
    ClearLocked(slot, pn, pte);
  });
}

void Pmap::Protect(VmOffset start, VmOffset end, VmProt prot) {
  std::lock_guard<std::mutex> g(mu_);
  ForEachPte(start, end, [&](std::atomic<Pte>& slot, uint64_t pn, Pte pte) {
    LowerLocked(slot, pn, pte, prot);
  });
}

void Pmap::LowerProtection(VmOffset page_addr, uint32_t frame, VmProt prot) {
  std::lock_guard<std::mutex> g(mu_);
  const uint64_t pn = page_addr >> page_shift_;
  std::atomic<Pte>* slot = FindPte(pn);
  if (slot == nullptr) {
    return;
  }
  const Pte pte = slot->load(std::memory_order_relaxed);
  if ((pte & kValid) == 0 || PteFrame(pte) != frame) {
    return;  // Mapping changed since the pv list was sampled.
  }
  LowerLocked(*slot, pn, pte, prot);
}

void Pmap::PageProtect(PhysicalMemory* phys, uint32_t frame, VmProt prot) {
  if (phys->mapping_count(frame) == 0) {
    return;  // Nothing maps the frame: nothing to lower, no copy in flight.
  }
  // Copy the pv list first: pv access takes the frame lock, and we must not
  // hold it while taking individual pmap locks (lock order pmap > frame).
  // Each listed pmap is held from inside that lock until its entry is
  // lowered, so a dying task's ~Pmap waits for us instead of freeing it.
  const std::vector<PvEntry> pv = phys->PvList(
      frame, [](Pmap* pmap) { pmap->walkers_.fetch_add(1, std::memory_order_relaxed); });
  for (const PvEntry& e : pv) {
    e.pmap->LowerProtection(e.vaddr, frame, prot);
    e.pmap->walkers_.fetch_sub(1, std::memory_order_release);
  }
}

Pmap::AccessResult Pmap::Access(VmOffset vaddr, void* buf, VmSize len, bool is_write) {
  const VmOffset page_addr = TruncPage(vaddr, phys_->page_size());
  assert(vaddr - page_addr + len <= phys_->page_size());  // One page at a time.
  const std::atomic<Pte>* slot = FindPte(vaddr >> page_shift_);
  if (slot == nullptr) {
    return AccessResult{FaultKind::kNotPresent, page_addr};
  }
  const VmProt required = is_write ? kVmProtWrite : kVmProtRead;
  for (;;) {
    const Pte pte = slot->load(std::memory_order_acquire);
    if ((pte & kValid) == 0) {
      return AccessResult{FaultKind::kNotPresent, page_addr};
    }
    if ((PteProt(pte) & required) != required) {
      return AccessResult{FaultKind::kProtection, page_addr};
    }
    // The copy runs under the frame's lock, and only if the entry still
    // names this frame with these rights: a translation being torn down
    // cannot be used mid-copy (TLB-entry-level atomicity).
    if (phys_->AccessIf(PteFrame(pte), vaddr - page_addr, buf, len, is_write, *slot, pte)) {
      return AccessResult{};
    }
  }
}

std::optional<uint32_t> Pmap::Translate(VmOffset vaddr, VmProt required) const {
  const std::atomic<Pte>* slot = FindPte(vaddr >> page_shift_);
  const Pte pte = slot == nullptr ? 0 : slot->load(std::memory_order_acquire);
  if ((pte & kValid) == 0 || (PteProt(pte) & required) != required) {
    return std::nullopt;
  }
  return PteFrame(pte);
}

std::optional<VmProt> Pmap::ProtectionOf(VmOffset vaddr) const {
  const std::atomic<Pte>* slot = FindPte(vaddr >> page_shift_);
  const Pte pte = slot == nullptr ? 0 : slot->load(std::memory_order_acquire);
  if ((pte & kValid) == 0) {
    return std::nullopt;
  }
  return PteProt(pte);
}

size_t Pmap::entry_count() const {
  std::lock_guard<std::mutex> g(mu_);
  return entries_;
}

size_t Pmap::node_count() const {
  std::lock_guard<std::mutex> g(mu_);
  return nodes_;
}

}  // namespace mach
