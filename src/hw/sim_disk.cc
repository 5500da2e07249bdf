#include "src/hw/sim_disk.h"

#include <cassert>
#include <cstring>

namespace mach {

SimDisk::SimDisk(uint32_t block_count, VmSize block_size, SimClock* clock,
                 DiskLatencyModel latency, FaultInjector* injector)
    : block_count_(block_count),
      block_size_(block_size),
      clock_(clock),
      latency_(latency),
      injector_(injector),
      data_(static_cast<size_t>(block_count) * block_size) {
  free_list_.reserve(block_count);
  for (uint32_t b = block_count; b > 0; --b) {
    free_list_.push_back(b - 1);
  }
}

void SimDisk::Charge(VmSize bytes) {
  if (clock_ != nullptr) {
    clock_->Charge(latency_.per_op_ns + latency_.per_byte_ns * bytes);
  }
  bytes_.fetch_add(bytes, std::memory_order_relaxed);
}

KernReturn SimDisk::CheckTransfer(uint32_t block, VmOffset offset, VmSize len, bool is_write) {
  if (block >= block_count_ || offset > block_size_ || len > block_size_ - offset) {
    return KernReturn::kInvalidArgument;
  }
  bool bad;
  {
    std::lock_guard<std::mutex> g(mu_);
    bad = bad_blocks_.count(block) != 0;
  }
  if (FaultInjector* injector = injector_.load(); !bad && injector != nullptr) {
    bad = injector->ShouldFail(is_write ? kFaultWrite : kFaultRead);
  }
  if (bad) {
    // A failed transfer still costs the seek (and retries re-charge).
    Charge(0);
    (is_write ? write_errors_ : read_errors_).fetch_add(1, std::memory_order_relaxed);
    return KernReturn::kFailure;
  }
  return KernReturn::kSuccess;
}

KernReturn SimDisk::ReadBlock(uint32_t block, void* dst) {
  return ReadAt(block, 0, dst, block_size_);
}

KernReturn SimDisk::WriteBlock(uint32_t block, const void* src) {
  return WriteAt(block, 0, src, block_size_);
}

KernReturn SimDisk::ReadAt(uint32_t block, VmOffset offset, void* dst, VmSize len) {
  KernReturn kr = CheckTransfer(block, offset, len, /*is_write=*/false);
  if (!IsOk(kr)) {
    return kr;
  }
  {
    std::lock_guard<std::mutex> g(mu_);
    std::memcpy(dst, data_.data() + static_cast<size_t>(block) * block_size_ + offset, len);
  }
  read_ops_.fetch_add(1, std::memory_order_relaxed);
  Charge(len);
  return KernReturn::kSuccess;
}

KernReturn SimDisk::WriteAt(uint32_t block, VmOffset offset, const void* src, VmSize len) {
  KernReturn kr = CheckTransfer(block, offset, len, /*is_write=*/true);
  if (!IsOk(kr)) {
    return kr;
  }
  {
    std::lock_guard<std::mutex> g(mu_);
    std::memcpy(data_.data() + static_cast<size_t>(block) * block_size_ + offset, src, len);
  }
  write_ops_.fetch_add(1, std::memory_order_relaxed);
  Charge(len);
  return KernReturn::kSuccess;
}

void SimDisk::MarkBadBlock(uint32_t block) {
  std::lock_guard<std::mutex> g(mu_);
  bad_blocks_.insert(block);
}

void SimDisk::ClearBadBlock(uint32_t block) {
  std::lock_guard<std::mutex> g(mu_);
  bad_blocks_.erase(block);
}

uint32_t SimDisk::AllocBlock() {
  std::lock_guard<std::mutex> g(mu_);
  if (free_list_.empty()) {
    return UINT32_MAX;
  }
  uint32_t b = free_list_.back();
  free_list_.pop_back();
  return b;
}

void SimDisk::FreeBlock(uint32_t block) {
  std::lock_guard<std::mutex> g(mu_);
  assert(block < block_count_);
  free_list_.push_back(block);
}

uint32_t SimDisk::free_blocks() const {
  std::lock_guard<std::mutex> g(mu_);
  return static_cast<uint32_t>(free_list_.size());
}

void SimDisk::ResetStats() {
  read_ops_.store(0, std::memory_order_relaxed);
  write_ops_.store(0, std::memory_order_relaxed);
  bytes_.store(0, std::memory_order_relaxed);
  read_errors_.store(0, std::memory_order_relaxed);
  write_errors_.store(0, std::memory_order_relaxed);
}

}  // namespace mach
