// E14 (§4.2/§7, after Li & Hudak): the sharded shared-memory directory — an
// ablation over shard count × host count × write sharing. One shard is the
// centralised §4.2 server, so the shard axis starts at the baseline.
//
// Every host maps the same region; each performs a fixed sweep of cold
// write faults over its own *private* pages (disjoint working sets) plus an
// optional fraction of writes into a small *shared* pool all hosts contend
// on (ownership ping-pong: forwards, recalls, hint traffic).
//
// Wall-clock time would show directory parallelism only as far as the
// host's CPUs allow (the JSON stamps host_cpus), so it is not the measure.
// Instead every directory charges a modeled service cost
// (ShmOptions::service_cost_ns) per coherence action into its own
// ShmCounters::service_ns, and the report derives
//
//   makespan  = max over directory instances of service_ns
//   speedup   = sum(service_ns) / makespan
//
// One shard (one directory, one lock, one request port) serialises every
// action, so its makespan equals the total. N shards partition the page
// space by SplitMix64 hash across N independent directories, so
// disjoint-page load spreads and throughput grows near-linearly in N —
// bounded only by hash balance. Write sharing adds forwards/recalls against
// the hinted owner; the hint counters in the JSON show the chase machinery
// at work.
//
// Output: the JSON document on stdout (ci.sh bench captures it into
// BENCH_shm_coherence.json); a human-readable table on stderr.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/kernel/task.h"
#include "src/managers/shm/shm_broker.h"

namespace {

using namespace mach;

constexpr VmSize kPage = 4096;
constexpr VmSize kSharedPages = 4;    // Contended pool, all hosts.
constexpr VmSize kPrivatePages = 48;  // Cold-write sweep, per host.
constexpr uint64_t kServiceCostNs = 1000;  // Modeled cost per directory action.

std::unique_ptr<Kernel> MakeHost(const std::string& name) {
  Kernel::Config config;
  config.name = name;
  config.frames = 512;
  config.page_size = kPage;
  config.disk_latency = DiskLatencyModel{0, 0};
  return std::make_unique<Kernel>(config);
}

struct Cell {
  size_t shards = 1;
  int hosts = 0;
  int write_pct = 0;
  uint64_t actions = 0;      // Total directory coherence actions.
  uint64_t total_ns = 0;     // Sum of modeled service time over directories.
  uint64_t makespan_ns = 0;  // Busiest directory's modeled service time.
  double speedup = 0.0;      // total_ns / makespan_ns (1.0 == serialised).
  double throughput_actions_per_ms = 0.0;
  uint64_t wall_ms = 0;
  ShmCounters counters;
};

// One host's access sweep: a cold write to each of its private pages,
// interleaved with writes into the shared pool every `1/write_pct` steps.
void HostSweep(Task& task, VmOffset base, int host_index, int write_pct) {
  const VmOffset private0 = kSharedPages + static_cast<VmOffset>(host_index) * kPrivatePages;
  int shared_i = 0;
  for (VmOffset i = 0; i < kPrivatePages; ++i) {
    uint64_t v = (static_cast<uint64_t>(host_index) << 32) | i;
    task.WriteValue<uint64_t>(base + (private0 + i) * kPage, v);
    if (write_pct > 0 && static_cast<int>(i % (100 / write_pct)) == 0) {
      VmOffset sp = static_cast<VmOffset>(shared_i++) % kSharedPages;
      task.WriteValue<uint64_t>(base + sp * kPage, v ^ 0xBEEF);
    }
  }
}

Cell RunCell(size_t shards, int hosts, int write_pct) {
  Cell cell;
  cell.shards = shards;
  cell.hosts = hosts;
  cell.write_pct = write_pct;

  ShmOptions options;
  options.page_size = kPage;
  options.service_cost_ns = kServiceCostNs;

  const VmSize region_pages = kSharedPages + static_cast<VmSize>(hosts) * kPrivatePages;

  ShmBroker broker("bench", shards, options);
  broker.Start();
  ShmRegionInfoArgs info = broker.GetRegion("bench", region_pages * kPage);

  std::vector<std::unique_ptr<Kernel>> kernels;
  std::vector<std::shared_ptr<Task>> tasks;
  std::vector<VmOffset> bases;
  for (int h = 0; h < hosts; ++h) {
    kernels.push_back(MakeHost("h" + std::to_string(h)));
    tasks.push_back(kernels.back()->CreateTask());
    bases.push_back(ShmBroker::MapRegion(*tasks.back(), info).value());
  }

  auto start = std::chrono::steady_clock::now();
  std::vector<std::shared_ptr<Thread>> threads;
  for (int h = 0; h < hosts; ++h) {
    threads.push_back(tasks[h]->SpawnThread([&, h](Thread& self) {
      HostSweep(self.task(), bases[h], h, write_pct);
    }));
  }
  for (auto& t : threads) {
    t->Join();
  }
  // Let trailing downgrade/writeback traffic settle before the snapshot.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  cell.wall_ms = static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                           std::chrono::steady_clock::now() - start)
                                           .count());

  cell.counters = broker.aggregate_counters();
  cell.total_ns = cell.counters.service_ns;
  cell.makespan_ns = broker.max_shard_service_ns();
  cell.actions = cell.total_ns / kServiceCostNs;
  cell.speedup =
      cell.makespan_ns ? static_cast<double>(cell.total_ns) / cell.makespan_ns : 0.0;
  cell.throughput_actions_per_ms =
      cell.makespan_ns ? static_cast<double>(cell.actions) * 1e6 / cell.makespan_ns : 0.0;

  for (auto& t : tasks) {
    t.reset();
  }
  broker.Stop();
  return cell;
}

void EmitCell(const Cell& c, bool last) {
  const ShmCounters& k = c.counters;
  std::printf(
      "    {\"shards\": %zu, \"hosts\": %d, \"write_pct\": %d,\n"
      "     \"actions\": %llu, \"total_service_ns\": %llu, \"makespan_ns\": %llu,\n"
      "     \"speedup\": %.3f, \"throughput_actions_per_ms\": %.1f, \"wall_ms\": %llu,\n"
      "     \"counters\": {\"read_grants\": %llu, \"write_grants\": %llu,"
      " \"invalidations\": %llu, \"recalls\": %llu, \"forwards\": %llu,"
      " \"hint_hits\": %llu, \"hint_repairs\": %llu, \"stale_hints\": %llu,"
      " \"ownership_transfers\": %llu, \"downgrades\": %llu,"
      " \"recall_acks\": %llu, \"recall_timeouts\": %llu}}%s\n",
      c.shards, c.hosts, c.write_pct, (unsigned long long)c.actions,
      (unsigned long long)c.total_ns, (unsigned long long)c.makespan_ns, c.speedup,
      c.throughput_actions_per_ms, (unsigned long long)c.wall_ms,
      (unsigned long long)k.read_grants, (unsigned long long)k.write_grants,
      (unsigned long long)k.invalidations, (unsigned long long)k.recalls,
      (unsigned long long)k.forwards, (unsigned long long)k.hint_hits,
      (unsigned long long)k.hint_repairs, (unsigned long long)k.stale_hints,
      (unsigned long long)k.ownership_transfers, (unsigned long long)k.downgrades,
      (unsigned long long)k.recall_acks, (unsigned long long)k.recall_timeouts,
      last ? "" : ",");
}

}  // namespace

int main() {
  const size_t shard_axis[] = {1, 2, 4, 8};
  const int host_axis[] = {2, 4};
  const int write_pcts[] = {0, 25};

  std::fprintf(stderr,
               "E14: sharded shm directory, 1 shard = centralised (modeled %llu ns/action)\n"
               "  %6s %5s %7s %9s %12s %8s %10s %9s\n",
               (unsigned long long)kServiceCostNs, "shards", "hosts", "write%", "actions",
               "makespan_us", "speedup", "thru/ms", "hint_hits");

  std::vector<Cell> cells;
  for (int hosts : host_axis) {
    for (int wp : write_pcts) {
      for (size_t shards : shard_axis) {
        cells.push_back(RunCell(shards, hosts, wp));
      }
    }
  }
  for (const Cell& c : cells) {
    std::fprintf(stderr, "  %6zu %5d %7d %9llu %12.1f %8.2f %10.1f %9llu\n", c.shards,
                 c.hosts, c.write_pct, (unsigned long long)c.actions,
                 c.makespan_ns / 1000.0, c.speedup, c.throughput_actions_per_ms,
                 (unsigned long long)c.counters.hint_hits);
  }

  // Acceptance digests: sharded throughput must be monotonic in shard count
  // (>=2x by 4 shards) on the disjoint two-host config, and write sharing
  // must exercise the hint chain.
  double thru[9] = {0};  // Indexed by shard count, hosts=2, write_pct=0.
  uint64_t hint_hits_sharing = 0;
  for (const Cell& c : cells) {
    if (c.hosts == 2 && c.write_pct == 0 && c.shards <= 8) {
      thru[c.shards] = c.throughput_actions_per_ms;
    }
    if (c.hosts == 2 && c.write_pct > 0) {
      hint_hits_sharing += c.counters.hint_hits;
    }
  }
  bool monotonic = thru[1] <= thru[2] && thru[2] <= thru[4] && thru[4] <= thru[8];
  double speedup4 = thru[1] > 0 ? thru[4] / thru[1] : 0.0;

  std::printf("{\n");
  std::printf("  \"bench\": \"shm_coherence\",\n");
  std::printf("  \"page_size\": %llu,\n", (unsigned long long)kPage);
  std::printf("  \"service_cost_ns\": %llu,\n", (unsigned long long)kServiceCostNs);
  const unsigned cpus = std::thread::hardware_concurrency();
  std::printf("  \"host_cpus\": %u,\n", cpus);
  std::printf("  \"single_cpu_host\": %s,\n", cpus <= 1 ? "true" : "false");
  std::printf("  \"shared_pages\": %llu,\n", (unsigned long long)kSharedPages);
  std::printf("  \"private_pages_per_host\": %llu,\n", (unsigned long long)kPrivatePages);
  std::printf("  \"grid\": [\n");
  for (size_t i = 0; i < cells.size(); ++i) {
    EmitCell(cells[i], i + 1 == cells.size());
  }
  std::printf("  ],\n");
  std::printf("  \"acceptance\": {\n");
  std::printf("    \"sharded_monotonic_in_shards\": %s,\n", monotonic ? "true" : "false");
  std::printf("    \"sharded_speedup_at_4_shards\": %.3f,\n", speedup4);
  std::printf("    \"hint_hits_two_host_write_sharing\": %llu\n",
              (unsigned long long)hint_hits_sharing);
  std::printf("  }\n");
  std::printf("}\n");

  std::fprintf(stderr,
               "\nshape: one shard (the centralised directory) serialises every action\n"
               "(speedup 1.0); more shards spread disjoint-page load by the page-hash, so\n"
               "throughput grows near-linearly in shard count (monotonic=%s, x%.2f at 4\n"
               "shards). Write sharing drives forwards through the owner hint\n"
               "(hint_hits=%llu over the two-host cells).\n",
               monotonic ? "true" : "false", speedup4, (unsigned long long)hint_hits_sharing);
  return monotonic && speedup4 >= 2.0 && hint_hits_sharing > 0 ? 0 : 1;
}
