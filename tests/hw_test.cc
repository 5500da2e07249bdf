// Unit tests for the simulated hardware: physical memory frames, hardware
// reference/modify bits, pv lists, the pmap module, and the simulated disk.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "src/hw/physical_memory.h"
#include "src/hw/pmap.h"
#include "src/hw/sim_disk.h"

namespace mach {
namespace {

constexpr VmSize kPage = 4096;

TEST(PhysicalMemoryTest, AllocateAndFreeFrames) {
  PhysicalMemory phys(8, kPage);
  EXPECT_EQ(phys.free_frames(), 8u);
  std::vector<uint32_t> frames;
  for (int i = 0; i < 8; ++i) {
    auto f = phys.AllocFrame();
    ASSERT_TRUE(f.has_value());
    frames.push_back(*f);
  }
  EXPECT_EQ(phys.free_frames(), 0u);
  EXPECT_FALSE(phys.AllocFrame().has_value());
  for (uint32_t f : frames) {
    phys.FreeFrame(f);
  }
  EXPECT_EQ(phys.free_frames(), 8u);
}

TEST(PhysicalMemoryTest, ReadWriteFrameData) {
  PhysicalMemory phys(4, kPage);
  uint32_t f = *phys.AllocFrame();
  const char msg[] = "hello, frame";
  phys.WriteFrame(f, 100, msg, sizeof(msg));
  char buf[sizeof(msg)] = {};
  phys.ReadFrame(f, 100, buf, sizeof(msg));
  EXPECT_STREQ(buf, msg);
}

TEST(PhysicalMemoryTest, HardwareBitsTrackAccess) {
  PhysicalMemory phys(4, kPage);
  uint32_t f = *phys.AllocFrame();
  EXPECT_FALSE(phys.IsReferenced(f));
  EXPECT_FALSE(phys.IsModified(f));
  char b = 0;
  phys.ReadFrame(f, 0, &b, 1);
  EXPECT_TRUE(phys.IsReferenced(f));
  EXPECT_FALSE(phys.IsModified(f));
  phys.ClearReference(f);
  EXPECT_FALSE(phys.IsReferenced(f));
  phys.WriteFrame(f, 0, &b, 1);
  EXPECT_TRUE(phys.IsReferenced(f));
  EXPECT_TRUE(phys.IsModified(f));
  phys.ClearModify(f);
  EXPECT_FALSE(phys.IsModified(f));
}

TEST(PhysicalMemoryTest, ZeroAndCopyFrame) {
  PhysicalMemory phys(4, kPage);
  uint32_t a = *phys.AllocFrame();
  uint32_t b = *phys.AllocFrame();
  uint32_t v = 0xABCD1234;
  phys.WriteFrame(a, 8, &v, sizeof(v));
  phys.CopyFrame(a, b);
  uint32_t out = 0;
  phys.ReadFrame(b, 8, &out, sizeof(out));
  EXPECT_EQ(out, v);
  phys.ZeroFrame(b);
  phys.ReadFrame(b, 8, &out, sizeof(out));
  EXPECT_EQ(out, 0u);
}

TEST(PhysicalMemoryTest, FreshFrameHasClearedBits) {
  PhysicalMemory phys(1, kPage);
  uint32_t f = *phys.AllocFrame();
  char b = 1;
  phys.WriteFrame(f, 0, &b, 1);
  // No pv entries -> can free directly.
  phys.FreeFrame(f);
  uint32_t f2 = *phys.AllocFrame();
  EXPECT_EQ(f2, f);
  EXPECT_FALSE(phys.IsReferenced(f2));
  EXPECT_FALSE(phys.IsModified(f2));
}

TEST(PhysicalMemoryTest, ZeroingAllocationClearsTheOldContents) {
  PhysicalMemory phys(1, kPage);
  uint32_t f = *phys.AllocFrame();
  std::vector<uint8_t> junk(kPage, 0xC3);
  phys.WriteFrame(f, 0, junk.data(), kPage);
  phys.FreeFrame(f);
  ASSERT_EQ(*phys.AllocFrame(0, /*zero=*/true), f);
  std::vector<uint8_t> out(kPage, 0xFF);
  phys.ReadFrame(f, 0, out.data(), kPage);
  EXPECT_EQ(out, std::vector<uint8_t>(kPage, 0));
  EXPECT_FALSE(phys.IsModified(f));
}

class PmapTest : public ::testing::Test {
 protected:
  PmapTest() : phys_(16, kPage), pmap_(&phys_) {}
  PhysicalMemory phys_;
  Pmap pmap_;
};

TEST_F(PmapTest, AccessWithoutMappingFaults) {
  char buf[4];
  auto r = pmap_.Access(0x1000, buf, sizeof(buf), /*is_write=*/false);
  EXPECT_EQ(r.fault, Pmap::FaultKind::kNotPresent);
  EXPECT_EQ(r.fault_addr, 0x1000u);
}

TEST_F(PmapTest, EnterThenAccess) {
  uint32_t f = *phys_.AllocFrame();
  pmap_.Enter(0x2000, f, kVmProtDefault);
  uint32_t v = 77;
  auto w = pmap_.Access(0x2010, &v, sizeof(v), /*is_write=*/true);
  EXPECT_EQ(w.fault, Pmap::FaultKind::kNone);
  uint32_t out = 0;
  auto r = pmap_.Access(0x2010, &out, sizeof(out), /*is_write=*/false);
  EXPECT_EQ(r.fault, Pmap::FaultKind::kNone);
  EXPECT_EQ(out, 77u);
  EXPECT_TRUE(phys_.IsReferenced(f));
  EXPECT_TRUE(phys_.IsModified(f));
}

TEST_F(PmapTest, ProtectionFault) {
  uint32_t f = *phys_.AllocFrame();
  pmap_.Enter(0x3000, f, kVmProtRead);
  uint32_t v = 1;
  auto w = pmap_.Access(0x3000, &v, sizeof(v), /*is_write=*/true);
  EXPECT_EQ(w.fault, Pmap::FaultKind::kProtection);
  auto r = pmap_.Access(0x3000, &v, sizeof(v), /*is_write=*/false);
  EXPECT_EQ(r.fault, Pmap::FaultKind::kNone);
}

TEST_F(PmapTest, RemoveRange) {
  uint32_t f1 = *phys_.AllocFrame();
  uint32_t f2 = *phys_.AllocFrame();
  pmap_.Enter(0x1000, f1, kVmProtDefault);
  pmap_.Enter(0x2000, f2, kVmProtDefault);
  EXPECT_EQ(pmap_.entry_count(), 2u);
  pmap_.Remove(0x1000, 0x2000);
  EXPECT_EQ(pmap_.entry_count(), 1u);
  EXPECT_FALSE(pmap_.Translate(0x1000, kVmProtRead).has_value());
  EXPECT_TRUE(pmap_.Translate(0x2000, kVmProtRead).has_value());
}

TEST_F(PmapTest, ProtectLowersButNeverRaises) {
  uint32_t f = *phys_.AllocFrame();
  pmap_.Enter(0x1000, f, kVmProtDefault);
  pmap_.Protect(0x1000, 0x2000, kVmProtRead);
  EXPECT_EQ(*pmap_.ProtectionOf(0x1000), kVmProtRead);
  // Protect with broader rights does not raise.
  pmap_.Protect(0x1000, 0x2000, kVmProtAll);
  EXPECT_EQ(*pmap_.ProtectionOf(0x1000), kVmProtRead);
}

TEST_F(PmapTest, ProtectToNoneRemoves) {
  uint32_t f = *phys_.AllocFrame();
  pmap_.Enter(0x1000, f, kVmProtDefault);
  pmap_.Protect(0x1000, 0x2000, kVmProtNone);
  EXPECT_EQ(pmap_.entry_count(), 0u);
}

TEST_F(PmapTest, PageProtectHitsAllPmaps) {
  Pmap other(&phys_);
  uint32_t f = *phys_.AllocFrame();
  pmap_.Enter(0x1000, f, kVmProtDefault);
  other.Enter(0x8000, f, kVmProtDefault);
  Pmap::PageProtect(&phys_, f, kVmProtRead);
  EXPECT_EQ(*pmap_.ProtectionOf(0x1000), kVmProtRead);
  EXPECT_EQ(*other.ProtectionOf(0x8000), kVmProtRead);
  Pmap::PageProtect(&phys_, f, kVmProtNone);
  EXPECT_EQ(pmap_.entry_count(), 0u);
  EXPECT_EQ(other.entry_count(), 0u);
  EXPECT_TRUE(phys_.PvList(f).empty());
}

TEST_F(PmapTest, MappingCountFollowsEveryPmapWriter) {
  Pmap other(&phys_);
  const uint32_t f = *phys_.AllocFrame();
  const uint32_t g = *phys_.AllocFrame();
  std::atomic<uint64_t> gen{4};
  EXPECT_EQ(phys_.mapping_count(f), 0u);
  pmap_.Enter(0x1000, f, kVmProtDefault);
  pmap_.Enter(0x1000, f, kVmProtRead);  // Same frame: still one mapping.
  EXPECT_EQ(phys_.mapping_count(f), 1u);
  EXPECT_TRUE(other.EnterIf(0x3000, f, kVmProtDefault, gen, 4));
  EXPECT_FALSE(other.EnterIf(0x4000, f, kVmProtDefault, gen, 3));  // Refused.
  pmap_.Enter(0x2000, f, kVmProtDefault);
  EXPECT_EQ(phys_.mapping_count(f), 3u);
  pmap_.Enter(0x2000, g, kVmProtDefault);  // Replaced by another frame.
  EXPECT_EQ(phys_.mapping_count(f), 2u);
  EXPECT_EQ(phys_.mapping_count(g), 1u);
  pmap_.Protect(0x1000, 0x2000, kVmProtRead);  // Lowered, still mapped.
  EXPECT_EQ(phys_.mapping_count(f), 2u);
  pmap_.Protect(0x1000, 0x3000, kVmProtNone);  // Protect to none removes.
  EXPECT_EQ(phys_.mapping_count(f), 1u);
  EXPECT_EQ(phys_.mapping_count(g), 0u);
  other.Remove(0x3000, 0x4000);
  EXPECT_EQ(phys_.mapping_count(f), 0u);
  EXPECT_EQ(phys_.mapping_count(f), phys_.PvList(f).size());

  // A mapped frame is still lowered in every pmap; an unmapped one is left
  // as it is (there is nothing to lower).
  pmap_.Enter(0x5000, f, kVmProtDefault);
  other.Enter(0x6000, f, kVmProtDefault);
  other.Enter(0x7000, f, kVmProtDefault);
  EXPECT_EQ(phys_.mapping_count(f), 3u);
  Pmap::PageProtect(&phys_, f, kVmProtRead);
  EXPECT_EQ(*pmap_.ProtectionOf(0x5000), kVmProtRead);
  EXPECT_EQ(*other.ProtectionOf(0x6000), kVmProtRead);
  EXPECT_EQ(*other.ProtectionOf(0x7000), kVmProtRead);
  Pmap::PageProtect(&phys_, f, kVmProtNone);
  EXPECT_EQ(phys_.mapping_count(f), 0u);
  EXPECT_EQ(pmap_.entry_count() + other.entry_count(), 0u);
  Pmap::PageProtect(&phys_, g, kVmProtNone);
  EXPECT_EQ(phys_.mapping_count(g), 0u);
}

TEST_F(PmapTest, ReplacingMappingUpdatesPvList) {
  uint32_t f1 = *phys_.AllocFrame();
  uint32_t f2 = *phys_.AllocFrame();
  pmap_.Enter(0x1000, f1, kVmProtDefault);
  pmap_.Enter(0x1000, f2, kVmProtRead);
  EXPECT_TRUE(phys_.PvList(f1).empty());
  EXPECT_EQ(phys_.PvList(f2).size(), 1u);
  EXPECT_EQ(*pmap_.ProtectionOf(0x1000), kVmProtRead);
}

TEST_F(PmapTest, DestructorCleansPvLists) {
  uint32_t f = *phys_.AllocFrame();
  {
    Pmap temp(&phys_);
    temp.Enter(0x1000, f, kVmProtDefault);
    EXPECT_EQ(phys_.PvList(f).size(), 1u);
  }
  EXPECT_TRUE(phys_.PvList(f).empty());
  phys_.FreeFrame(f);
}

TEST_F(PmapTest, SparseHighAddressesAllocateLeavesLazily) {
  EXPECT_EQ(pmap_.node_count(), 0u);
  uint32_t f = *phys_.AllocFrame();
  pmap_.Enter(0x1000, f, kVmProtDefault);
  const size_t low = pmap_.node_count();
  EXPECT_EQ(low, 1u);  // A low address needs only its own leaf.
  pmap_.Enter(0x2000, f, kVmProtRead);
  EXPECT_EQ(pmap_.node_count(), low);  // Same leaf.

  // Far-apart addresses build their own paths, never the space between:
  // at most one leaf plus one directory per level for each.
  const VmOffset high = VmOffset{1} << 44;
  const VmOffset top = ~VmOffset{0} & ~(kPage - 1);
  pmap_.Enter(high, f, kVmProtRead);
  pmap_.Enter(top + 0x10, f, kVmProtDefault);
  const size_t built = pmap_.node_count();
  EXPECT_GT(built, 2u);
  EXPECT_LE(built, 3u * 6u);
  EXPECT_EQ(pmap_.entry_count(), 4u);
  EXPECT_EQ(pmap_.Translate(high + 5, kVmProtRead), f);
  EXPECT_EQ(pmap_.ProtectionOf(top), kVmProtDefault);
  EXPECT_FALSE(pmap_.Translate(high + kPage, kVmProtRead).has_value());
  EXPECT_FALSE(pmap_.Translate(VmOffset{1} << 40, kVmProtRead).has_value());
  uint64_t v = 0x0123456789abcdefull;
  EXPECT_EQ(pmap_.Access(top + 8, &v, sizeof(v), /*is_write=*/true).fault,
            Pmap::FaultKind::kNone);
  uint64_t out = 0;
  EXPECT_EQ(pmap_.Access(0x1008, &out, sizeof(out), /*is_write=*/false).fault,
            Pmap::FaultKind::kNone);
  EXPECT_EQ(out, v);  // Both translations name the same frame.

  // One Remove over the whole space visits only the leaves that exist, so
  // it returns at once; nodes live until the Pmap dies.
  pmap_.Remove(0, ~VmOffset{0});
  EXPECT_EQ(pmap_.entry_count(), 0u);
  EXPECT_TRUE(phys_.PvList(f).empty());
  EXPECT_FALSE(pmap_.Translate(top, kVmProtRead).has_value());
  EXPECT_EQ(pmap_.node_count(), built);
}

TEST_F(PmapTest, EntryCountAcrossReplaceRemoveAndProtect) {
  uint32_t f1 = *phys_.AllocFrame();
  uint32_t f2 = *phys_.AllocFrame();
  pmap_.Enter(0x1000, f1, kVmProtDefault);
  EXPECT_EQ(pmap_.entry_count(), 1u);
  pmap_.Enter(0x1000, f2, kVmProtRead);  // Replace the frame.
  EXPECT_EQ(pmap_.entry_count(), 1u);
  pmap_.Enter(0x1000, f2, kVmProtDefault);  // Same frame, new rights.
  EXPECT_EQ(pmap_.entry_count(), 1u);
  pmap_.Enter(0x2000, f1, kVmProtRead);
  EXPECT_EQ(pmap_.entry_count(), 2u);
  pmap_.Protect(0x1000, 0x2000, kVmProtRead);  // Lowered, still present.
  EXPECT_EQ(pmap_.entry_count(), 2u);
  pmap_.Protect(0x0, 0x3000, kVmProtNone);
  EXPECT_EQ(pmap_.entry_count(), 0u);
  EXPECT_TRUE(phys_.PvList(f1).empty());
  EXPECT_TRUE(phys_.PvList(f2).empty());
  pmap_.Enter(0x1000, f1, kVmProtDefault);
  EXPECT_EQ(pmap_.entry_count(), 1u);
  pmap_.Remove(0x1000, 0x2000);
  pmap_.Remove(0x1000, 0x2000);  // Removing nothing changes nothing.
  EXPECT_EQ(pmap_.entry_count(), 0u);
}

TEST_F(PmapTest, TranslateReportsTheReplacingFrame) {
  uint32_t f1 = *phys_.AllocFrame();
  uint32_t f2 = *phys_.AllocFrame();
  const uint64_t old_word = 1, new_word = 2;
  phys_.WriteFrame(f1, 0, &old_word, sizeof(old_word));
  phys_.WriteFrame(f2, 0, &new_word, sizeof(new_word));
  pmap_.Enter(0x5000, f1, kVmProtDefault);
  pmap_.Enter(0x5000, f2, kVmProtRead);
  EXPECT_EQ(pmap_.Translate(0x5000, kVmProtRead), f2);
  EXPECT_FALSE(pmap_.Translate(0x5000, kVmProtWrite).has_value());
  EXPECT_EQ(pmap_.ProtectionOf(0x5000), kVmProtRead);
  uint64_t out = 0;
  EXPECT_EQ(pmap_.Access(0x5000, &out, sizeof(out), /*is_write=*/false).fault,
            Pmap::FaultKind::kNone);
  EXPECT_EQ(out, new_word);
  EXPECT_TRUE(phys_.PvList(f1).empty());
}

// Readers hit a translation while a writer removes it and then reuses the
// frame for new contents, as pageout does. Access takes no pmap lock, so
// this is the check that a copy never runs through a withdrawn entry: once
// Remove returns, the old address must not reach the frame.
TEST(PmapRaceTest, NoAccessThroughARemovedTranslation) {
  constexpr int kReaders = 3;
  constexpr int kRounds = 3000;
  constexpr uint64_t kMapped = 0xAAAAAAAAAAAAAAAAull;
  constexpr uint64_t kReused = 0x5555555555555555ull;
  constexpr VmOffset kAddr = 0x40000;
  PhysicalMemory phys(8, kPage);
  Pmap pmap(&phys);
  const uint32_t frame = *phys.AllocFrame();
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> stale{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        uint64_t v = 0;
        if (pmap.Access(kAddr, &v, sizeof(v), /*is_write=*/false).fault ==
            Pmap::FaultKind::kNone) {
          hits.fetch_add(1, std::memory_order_relaxed);
          if (v != kMapped) {
            stale.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (int round = 0; round < kRounds; ++round) {
    phys.WriteFrame(frame, 0, &kMapped, sizeof(kMapped));
    pmap.Enter(kAddr, frame, kVmProtRead);
    const uint64_t seen = hits.load(std::memory_order_relaxed);
    for (int spin = 0; spin < 1000 && hits.load(std::memory_order_relaxed) == seen; ++spin) {
      std::this_thread::yield();
    }
    pmap.Remove(kAddr, kAddr + kPage);
    phys.WriteFrame(frame, 0, &kReused, sizeof(kReused));
  }
  stop.store(true);
  for (std::thread& t : readers) {
    t.join();
  }
  EXPECT_GT(hits.load(), 0u);
  EXPECT_EQ(stale.load(), 0u);
}

// Writers store through a writable translation while PageProtect lowers it
// to read-only, as a fork's copy-on-write setup does. Once PageProtect has
// returned, a snapshot of the frame must stay exact: no write that read the
// old entry may still land.
TEST(PmapRaceTest, NoWriteLandsAfterPageProtectReadReturns) {
  constexpr int kWriters = 3;
  constexpr int kRounds = 1000;
  constexpr VmOffset kAddr = 0x80000;
  PhysicalMemory phys(8, kPage);
  Pmap pmap(&phys);
  const uint32_t frame = *phys.AllocFrame();
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> writes{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (uint64_t n = 1; !stop.load(std::memory_order_relaxed); ++n) {
        if (pmap.Access(kAddr + 8 * w, &n, sizeof(n), /*is_write=*/true).fault ==
            Pmap::FaultKind::kNone) {
          writes.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  int changed = 0;
  for (int round = 0; round < kRounds; ++round) {
    pmap.Enter(kAddr, frame, kVmProtDefault);
    const uint64_t seen = writes.load(std::memory_order_relaxed);
    for (int spin = 0; spin < 1000 && writes.load(std::memory_order_relaxed) == seen; ++spin) {
      std::this_thread::yield();
    }
    Pmap::PageProtect(&phys, frame, kVmProtRead);
    uint64_t before[kWriters];
    phys.ReadFrame(frame, 0, before, sizeof(before));
    for (int spin = 0; spin < 50; ++spin) {
      std::this_thread::yield();
    }
    uint64_t after[kWriters];
    phys.ReadFrame(frame, 0, after, sizeof(after));
    changed += std::memcmp(before, after, sizeof(before)) != 0;
  }
  stop.store(true);
  for (std::thread& t : writers) {
    t.join();
  }
  EXPECT_GT(writes.load(), 0u);
  EXPECT_EQ(changed, 0);
  EXPECT_EQ(pmap.ProtectionOf(kAddr), kVmProtRead);
}

TEST(SimDiskTest, ReadBackWrittenBlock) {
  SimClock clock;
  SimDisk disk(16, 512, &clock);
  std::vector<char> out(512);
  std::vector<char> in(512, 'x');
  disk.WriteBlock(3, in.data());
  disk.ReadBlock(3, out.data());
  EXPECT_EQ(std::memcmp(in.data(), out.data(), 512), 0);
}

TEST(SimDiskTest, CountsOperations) {
  SimClock clock;
  SimDisk disk(16, 512, &clock);
  std::vector<char> buf(512);
  disk.WriteBlock(0, buf.data());
  disk.WriteBlock(1, buf.data());
  disk.ReadBlock(0, buf.data());
  EXPECT_EQ(disk.write_ops(), 2u);
  EXPECT_EQ(disk.read_ops(), 1u);
  EXPECT_EQ(disk.total_ops(), 3u);
  EXPECT_EQ(disk.bytes_transferred(), 3u * 512u);
  disk.ResetStats();
  EXPECT_EQ(disk.total_ops(), 0u);
}

TEST(SimDiskTest, ChargesVirtualTime) {
  SimClock clock;
  DiskLatencyModel model;
  model.per_op_ns = 1000;
  model.per_byte_ns = 2;
  SimDisk disk(4, 256, &clock, model);
  std::vector<char> buf(256);
  disk.ReadBlock(0, buf.data());
  EXPECT_EQ(clock.NowNs(), 1000u + 2u * 256u);
}

TEST(SimDiskTest, BlockAllocator) {
  SimClock clock;
  SimDisk disk(4, 256, &clock);
  EXPECT_EQ(disk.free_blocks(), 4u);
  uint32_t b0 = disk.AllocBlock();
  uint32_t b1 = disk.AllocBlock();
  EXPECT_NE(b0, b1);
  EXPECT_EQ(disk.free_blocks(), 2u);
  disk.FreeBlock(b0);
  EXPECT_EQ(disk.free_blocks(), 3u);
  disk.AllocBlock();
  disk.AllocBlock();
  disk.AllocBlock();
  EXPECT_EQ(disk.AllocBlock(), UINT32_MAX);
}

TEST(SimDiskTest, PartialAccess) {
  SimClock clock;
  SimDisk disk(4, 512, &clock);
  const char msg[] = "log-record";
  EXPECT_EQ(disk.WriteAt(2, 100, msg, sizeof(msg)), KernReturn::kSuccess);
  char buf[sizeof(msg)] = {};
  EXPECT_EQ(disk.ReadAt(2, 100, buf, sizeof(buf)), KernReturn::kSuccess);
  EXPECT_STREQ(buf, msg);
}

TEST(SimDiskTest, OutOfRangeIsAnErrorNotACrash) {
  SimClock clock;
  SimDisk disk(4, 512, &clock);
  std::vector<char> buf(512);
  // Block index out of range.
  EXPECT_EQ(disk.ReadBlock(4, buf.data()), KernReturn::kInvalidArgument);
  EXPECT_EQ(disk.WriteBlock(4, buf.data()), KernReturn::kInvalidArgument);
  EXPECT_EQ(disk.ReadBlock(UINT32_MAX, buf.data()), KernReturn::kInvalidArgument);
  // Transfer running past the end of the block.
  EXPECT_EQ(disk.ReadAt(0, 500, buf.data(), 13), KernReturn::kInvalidArgument);
  EXPECT_EQ(disk.WriteAt(0, 513, buf.data(), 0), KernReturn::kInvalidArgument);
  // Failed transfers neither move data nor count as operations.
  EXPECT_EQ(disk.total_ops(), 0u);
  // Boundary cases that must succeed: last block, exact-fit transfer.
  EXPECT_EQ(disk.WriteBlock(3, buf.data()), KernReturn::kSuccess);
  EXPECT_EQ(disk.WriteAt(0, 500, buf.data(), 12), KernReturn::kSuccess);
  EXPECT_EQ(disk.ReadAt(0, 512, buf.data(), 0), KernReturn::kSuccess);
}

TEST(SimDiskTest, BadBlocksFailUntilCleared) {
  SimClock clock;
  SimDisk disk(4, 512, &clock);
  std::vector<char> buf(512, 'y');
  disk.MarkBadBlock(2);
  EXPECT_EQ(disk.WriteBlock(2, buf.data()), KernReturn::kFailure);
  EXPECT_EQ(disk.ReadBlock(2, buf.data()), KernReturn::kFailure);
  EXPECT_EQ(disk.write_errors(), 1u);
  EXPECT_EQ(disk.read_errors(), 1u);
  EXPECT_EQ(disk.WriteBlock(1, buf.data()), KernReturn::kSuccess);
  disk.ClearBadBlock(2);
  EXPECT_EQ(disk.WriteBlock(2, buf.data()), KernReturn::kSuccess);
}

TEST(SimDiskTest, InjectedFaultsFollowTheSchedule) {
  SimClock clock;
  FaultInjector inj(42);
  inj.SetSchedule(SimDisk::kFaultRead, {1});  // Fail the second read only.
  SimDisk disk(4, 512, &clock, DiskLatencyModel{}, &inj);
  std::vector<char> buf(512);
  EXPECT_EQ(disk.ReadBlock(0, buf.data()), KernReturn::kSuccess);
  EXPECT_EQ(disk.ReadBlock(0, buf.data()), KernReturn::kFailure);
  EXPECT_EQ(disk.ReadBlock(0, buf.data()), KernReturn::kSuccess);
  EXPECT_EQ(disk.read_errors(), 1u);
  EXPECT_EQ(inj.Injected(SimDisk::kFaultRead), 1u);
  // Writes are a separate fault point.
  EXPECT_EQ(disk.WriteBlock(0, buf.data()), KernReturn::kSuccess);
  EXPECT_EQ(disk.WriteBlock(0, buf.data()), KernReturn::kSuccess);
}

}  // namespace
}  // namespace mach
