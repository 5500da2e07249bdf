// The §9 compilation shapes (E1, E2) through the file server's mapped-file
// path, on the workload the bench_compile_cache and bench_io_reduction
// binaries print. Disk operations and virtual I/O time are modelled counts,
// so every figure here is deterministic.

#include <gtest/gtest.h>

#include "bench/compile_workload.h"

namespace mach_bench {
namespace {

// E1: a rebuild of a small program that fits the kernel's page cache.
TEST(CompileShapesTest, WarmMappedBuildIsDiskFreeAndAboutTwiceAsFast) {
  CompileConfig config;
  const double cpu_ms = CompileCpuMs(config);
  CompileResult mach_warm;
  {
    MachBuildEnv env(config);
    env.Build();
    mach_warm = env.Build();
  }
  CompileResult trad_warm;
  {
    TraditionalBuildEnv env(config);
    env.Build();
    trad_warm = env.Build();
  }
  EXPECT_EQ(mach_warm.disk_ops, 0u);
  EXPECT_EQ(mach_warm.checksum, trad_warm.checksum);
  const double speedup =
      (trad_warm.virtual_ns / 1e6 + cpu_ms) / (mach_warm.virtual_ns / 1e6 + cpu_ms);
  EXPECT_GE(speedup, 1.8);  // Paper: about 2x.
}

// E2: total I/O operations of a cold build, traditional over mapped.
TEST(CompileShapesTest, IoReductionGrowsWithBuildSize) {
  struct Row {
    int modules;
    int headers;
  };
  double last = 0;
  for (const Row& row : {Row{16, 16}, Row{32, 24}, Row{48, 32}}) {
    CompileConfig config;
    config.frames = 1024;
    config.modules = row.modules;
    config.headers = row.headers;
    config.header_pages = 6;
    uint64_t mach_ops = 0;
    {
      MachBuildEnv env(config);
      mach_ops = env.Build().disk_ops;
    }
    uint64_t trad_ops = 0;
    {
      TraditionalBuildEnv env(config);
      trad_ops = env.Build().disk_ops;
    }
    ASSERT_GT(mach_ops, 0u);
    const double reduction = static_cast<double>(trad_ops) / static_cast<double>(mach_ops);
    if (row.modules == 16) {
      EXPECT_GE(reduction, 9.0);
    }
    EXPECT_GT(reduction, last) << row.modules << " modules";
    last = reduction;
  }
}

}  // namespace
}  // namespace mach_bench
