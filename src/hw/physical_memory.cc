#include "src/hw/physical_memory.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/base/debug.h"

namespace mach {

PhysicalMemory::PhysicalMemory(uint32_t frame_count, VmSize page_size)
    : frame_count_(frame_count),
      page_size_(page_size),
      data_(static_cast<size_t>(frame_count) * page_size),
      frames_(frame_count) {
  assert(page_size != 0 && (page_size & (page_size - 1)) == 0);
  free_list_.reserve(frame_count);
  // Hand frames out in ascending order for reproducibility.
  for (uint32_t f = frame_count; f > 0; --f) {
    free_list_.push_back(f - 1);
  }
}

std::optional<uint32_t> PhysicalMemory::AllocFrame(uint32_t reserve, bool zero) {
  uint32_t frame;
  {
    std::lock_guard<std::mutex> g(free_mu_);
    if (free_list_.size() <= reserve) {
      return std::nullopt;
    }
    frame = free_list_.back();
    free_list_.pop_back();
  }
  std::lock_guard<std::mutex> fg(frames_[frame].mu);
  frames_[frame].referenced = false;
  frames_[frame].modified = false;
  assert(frames_[frame].pv.empty());
  if (zero) {
    std::memset(data_.data() + static_cast<size_t>(frame) * page_size_, 0, page_size_);
  }
  return frame;
}

void PhysicalMemory::FreeFrame(uint32_t frame) {
  assert(frame < frame_count_);
  MACH_DEBUG_ASSERT(mapping_count(frame) == 0);
  std::lock_guard<std::mutex> g(free_mu_);
  free_list_.push_back(frame);
}

void PhysicalMemory::FreeFrames(const std::vector<uint32_t>& frames) {
  for (uint32_t frame : frames) {
    assert(frame < frame_count_);
    MACH_DEBUG_ASSERT(mapping_count(frame) == 0);
  }
  std::lock_guard<std::mutex> g(free_mu_);
  free_list_.insert(free_list_.end(), frames.begin(), frames.end());
}

uint32_t PhysicalMemory::free_frames() const {
  std::lock_guard<std::mutex> g(free_mu_);
  return static_cast<uint32_t>(free_list_.size());
}

void PhysicalMemory::ReadFrame(uint32_t frame, VmOffset offset, void* dst, VmSize len) {
  assert(frame < frame_count_ && offset + len <= page_size_);
  std::lock_guard<std::mutex> g(frames_[frame].mu);
  std::memcpy(dst, data_.data() + static_cast<size_t>(frame) * page_size_ + offset, len);
  frames_[frame].referenced = true;
}

void PhysicalMemory::WriteFrame(uint32_t frame, VmOffset offset, const void* src, VmSize len) {
  assert(frame < frame_count_ && offset + len <= page_size_);
  std::lock_guard<std::mutex> g(frames_[frame].mu);
  std::memcpy(data_.data() + static_cast<size_t>(frame) * page_size_ + offset, src, len);
  frames_[frame].referenced = true;
  frames_[frame].modified = true;
}

void PhysicalMemory::ZeroFrame(uint32_t frame) {
  assert(frame < frame_count_);
  std::lock_guard<std::mutex> g(frames_[frame].mu);
  std::memset(data_.data() + static_cast<size_t>(frame) * page_size_, 0, page_size_);
}

void PhysicalMemory::CopyFrame(uint32_t src_frame, uint32_t dst_frame) {
  assert(src_frame < frame_count_ && dst_frame < frame_count_);
  assert(src_frame != dst_frame);
  // The only place two frame locks are held together: take them in index
  // order so concurrent copies cannot deadlock.
  Frame& first = frames_[std::min(src_frame, dst_frame)];
  Frame& second = frames_[std::max(src_frame, dst_frame)];
  std::lock_guard<std::mutex> g1(first.mu);
  std::lock_guard<std::mutex> g2(second.mu);
  std::memcpy(data_.data() + static_cast<size_t>(dst_frame) * page_size_,
              data_.data() + static_cast<size_t>(src_frame) * page_size_, page_size_);
}

bool PhysicalMemory::AccessIf(uint32_t frame, VmOffset offset, void* buf, VmSize len,
                              bool is_write, const std::atomic<uint64_t>& pte,
                              uint64_t expected) {
  assert(frame < frame_count_ && offset + len <= page_size_);
  Frame& f = frames_[frame];
  std::lock_guard<std::mutex> g(f.mu);
  // Relaxed suffices: a pmap stores the new entry before it takes this lock,
  // so the lock's acquire makes that store visible here.
  if (pte.load(std::memory_order_relaxed) != expected) {
    return false;
  }
  std::byte* data = data_.data() + static_cast<size_t>(frame) * page_size_ + offset;
  if (is_write) {
    std::memcpy(data, buf, len);
    f.modified = true;
  } else {
    std::memcpy(buf, data, len);
  }
  f.referenced = true;
  return true;
}

void PhysicalMemory::SyncFrame(uint32_t frame) {
  std::lock_guard<std::mutex> g(frames_[frame].mu);
}

bool PhysicalMemory::IsReferenced(uint32_t frame) const {
  std::lock_guard<std::mutex> g(frames_[frame].mu);
  return frames_[frame].referenced;
}

bool PhysicalMemory::IsModified(uint32_t frame) const {
  std::lock_guard<std::mutex> g(frames_[frame].mu);
  return frames_[frame].modified;
}

void PhysicalMemory::ClearReference(uint32_t frame) {
  std::lock_guard<std::mutex> g(frames_[frame].mu);
  frames_[frame].referenced = false;
}

void PhysicalMemory::ClearModify(uint32_t frame) {
  std::lock_guard<std::mutex> g(frames_[frame].mu);
  frames_[frame].modified = false;
}

void PhysicalMemory::SetReference(uint32_t frame) {
  std::lock_guard<std::mutex> g(frames_[frame].mu);
  frames_[frame].referenced = true;
}

void PhysicalMemory::SetModify(uint32_t frame) {
  std::lock_guard<std::mutex> g(frames_[frame].mu);
  frames_[frame].modified = true;
}

void PhysicalMemory::PvAdd(uint32_t frame, Pmap* pmap, VmOffset vaddr) {
  Frame& f = frames_[frame];
  std::lock_guard<std::mutex> g(f.mu);
  f.pv.push_back(PvEntry{pmap, vaddr});
  f.mappings.store(static_cast<uint32_t>(f.pv.size()), std::memory_order_release);
}

void PhysicalMemory::PvRemove(uint32_t frame, Pmap* pmap, VmOffset vaddr) {
  Frame& f = frames_[frame];
  std::lock_guard<std::mutex> g(f.mu);
  auto it = std::find_if(f.pv.begin(), f.pv.end(), [&](const PvEntry& e) {
    return e.pmap == pmap && e.vaddr == vaddr;
  });
  if (it != f.pv.end()) {
    f.pv.erase(it);
    f.mappings.store(static_cast<uint32_t>(f.pv.size()), std::memory_order_release);
  }
}

}  // namespace mach
