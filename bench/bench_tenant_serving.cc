// E15: multi-tenant transactional file serving under pressure, faults, and
// a mid-run host crash — the system-wide "traffic" benchmark. Drives the
// tests/workload tenant workload (mfs mapped files + Camelot recoverable
// ledger + sharded shm board, remote tenants paging over NetLink) on
// {1 host clean, 4 hosts chaos} and emits one JSON document on stdout
// (ci.sh bench captures it as BENCH_tenant_serving.json); the
// human-readable summary goes to stderr.
//
// Reported per arm:
//   * committed-transaction throughput over virtual time;
//   * an HDR-style log-bucket latency histogram (p50/p99/p999, virtual ns);
//   * the mid-run crash's recovery time and the partition heal time;
//   * retransmit / abort / pageout-clustering counters.
// Plus a single-host clustering ablation (BenchEnv, no faults): the same
// dirty sweep at pageout_cluster_max 16 and 1, showing the
// pager_data_write message-count reduction directly. Its counts follow the
// pageout daemon's timing and move from run to run, so each cap runs
// kSweeps times and reports the minimum, median and maximum; at cap 1 every
// page is its own message.
//
// All time is virtual (SimClock) and the injector is seeded, so the
// numbers are deterministic and diffable.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_env.h"
#include "src/kernel/kernel.h"
#include "src/kernel/task.h"
#include "src/managers/camelot/recovery_manager.h"
#include "tests/workload/tenant_workload.h"

namespace {

using namespace mach;

constexpr VmSize kPage = 4096;

struct AblationArm {
  uint64_t pageouts = 0;
  uint64_t runs = 0;
  double pages_per_run = 0.0;
};

constexpr int kSweeps = 5;

// Minimum, median and maximum of one count over the sweeps.
struct Spread {
  double min = 0, median = 0, max = 0;
};
Spread SpreadOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return Spread{v.front(), v[v.size() / 2], v.back()};
}
std::string SpreadJson(const Spread& s, const char* format) {
  char buf[160];
  std::string f = std::string("{\"min\": ") + format + ", \"median\": " + format +
                  ", \"max\": " + format + "}";
  std::snprintf(buf, sizeof(buf), f.c_str(), s.min, s.median, s.max);
  return buf;
}

// One deterministic dirty sweep: a 128-page recoverable segment written
// end to end through a 64-frame pool, so roughly half the segment is
// evicted while still dirty. Reuses the Camelot bench scaffolding.
AblationArm DirtySweep(uint32_t cluster_max) {
  VmSystem::Config vm;
  vm.pageout_cluster_max = cluster_max;
  BenchEnv env(64, vm);
  RecoverableSegment seg =
      RecoverableSegment::Map(env.rm.get(), env.task.get(), "sweep", 128 * kPage).value();
  Transaction txn(env.rm.get());
  for (VmOffset p = 0; p < 128; ++p) {
    uint64_t v = p + 1;
    txn.Write(seg, p * kPage, &v, sizeof(v));
  }
  txn.Commit();
  VmStatistics st = env.kernel->vm().Statistics();
  AblationArm arm;
  arm.pageouts = st.pageouts;
  arm.runs = st.pageout_runs;
  arm.pages_per_run = st.pageout_runs ? double(st.pageout_run_pages) / st.pageout_runs : 0.0;
  return arm;
}

void PrintArmJson(const TenantWorkloadOptions& opt, const TenantWorkloadResult& r) {
  double virtual_s = r.virtual_ns / 1e9;
  double throughput = virtual_s > 0 ? r.committed / virtual_s : 0.0;
  std::printf("    {\"hosts\": %d, \"chaos\": %s,\n", opt.hosts, opt.chaos ? "true" : "false");
  std::printf("     \"committed\": %llu, \"aborted\": %llu, \"error_aborts\": %llu,\n",
              (unsigned long long)r.committed, (unsigned long long)r.aborted,
              (unsigned long long)r.error_aborts);
  std::printf("     \"virtual_ms\": %.3f, \"throughput_txn_per_vsec\": %.1f,\n",
              r.virtual_ns / 1e6, throughput);
  std::printf("     \"latency_vns\": %s,\n", r.latency.ToJson().c_str());
  std::printf("     \"camelot_recover_ms\": %.3f, \"heal_ms\": %.3f, \"oracle_ok\": %s,\n",
              r.camelot_recover_ns / 1e6, r.heal_ns / 1e6, r.oracle_ok ? "true" : "false");
  std::printf("     \"pageouts\": %llu, \"pageout_runs\": %llu, \"pages_per_run\": %.2f,\n",
              (unsigned long long)r.pageouts, (unsigned long long)r.pageout_runs,
              r.pageout_runs ? double(r.pageout_run_pages) / r.pageout_runs : 0.0);
  std::printf("     \"wal_enforced\": %llu, \"deferred_pageouts\": %llu,\n",
              (unsigned long long)r.wal_enforced, (unsigned long long)r.deferred_pageouts);
  std::printf("     \"bytes_retransmitted\": %llu, \"fragments_retransmitted\": %llu,\n",
              (unsigned long long)r.bytes_retransmitted,
              (unsigned long long)r.fragments_retransmitted);
  std::printf("     \"messages_lost\": %llu, \"peer_dead_events\": %llu, "
              "\"shm_forward_drops\": %llu}",
              (unsigned long long)r.messages_lost, (unsigned long long)r.peer_dead_events,
              (unsigned long long)r.shm_forward_drops);
}

}  // namespace

int main() {
  std::fprintf(stderr, "E15: multi-tenant serving under pressure, chaos, and a host crash\n\n");

  // Part 1: the clustering ablation in isolation (no faults).
  const uint32_t caps[2] = {16, 1};
  Spread pageouts[2], writes[2], per_run[2];
  for (int i = 0; i < 2; ++i) {
    std::vector<double> p, w, r;
    for (int sweep = 0; sweep < kSweeps; ++sweep) {
      const AblationArm arm = DirtySweep(caps[i]);
      p.push_back(double(arm.pageouts));
      w.push_back(double(arm.runs));
      r.push_back(arm.pages_per_run);
    }
    pageouts[i] = SpreadOf(p);
    writes[i] = SpreadOf(w);
    per_run[i] = SpreadOf(r);
  }
  std::fprintf(stderr, "clustering ablation (128-page dirty sweep, 64 frames; median [min, max] "
                       "of %d sweeps):\n", kSweeps);
  std::fprintf(stderr, "  %-6s %18s %18s %22s\n", "cap", "pageouts", "data_writes", "pages/run");
  for (int i = 0; i < 2; ++i) {
    std::fprintf(stderr, "  %-6u %6.0f [%3.0f, %3.0f] %6.0f [%3.0f, %3.0f] %6.2f [%5.2f, %5.2f]\n",
                 caps[i], pageouts[i].median, pageouts[i].min, pageouts[i].max, writes[i].median,
                 writes[i].min, writes[i].max, per_run[i].median, per_run[i].min, per_run[i].max);
  }

  // Part 2: the two workload arms.
  std::printf("{\n  \"benchmark\": \"tenant_serving\",\n");
  std::printf("  \"clustering_ablation\": {\n");
  for (int i = 0; i < 2; ++i) {
    std::printf("    \"cap_%u\": {\"pageout_cluster_max\": %u, \"sweeps\": %d, \"pageouts\": %s, "
                "\"data_writes\": %s, \"pages_per_run\": %s}%s\n",
                caps[i], caps[i], kSweeps, SpreadJson(pageouts[i], "%.0f").c_str(),
                SpreadJson(writes[i], "%.0f").c_str(), SpreadJson(per_run[i], "%.2f").c_str(),
                i == 0 ? "," : "");
  }
  std::printf("  },\n  \"configs\": [\n");

  std::fprintf(stderr, "\n%-6s %6s %9s %9s %12s %10s %10s %10s %11s %9s\n", "hosts", "chaos",
               "committed", "aborted", "txn/vsec", "p50(vus)", "p99(vus)", "p999(vus)",
               "recover_ms", "heal_ms");
  for (bool chaos : {false, true}) {
    TenantWorkloadOptions opt;
    opt.hosts = chaos ? 4 : 1;
    opt.tenants = 8;
    opt.txns_per_tenant = 24;
    opt.server_frames = 64;
    opt.tenant_frames = 48;
    opt.chaos = chaos;
    opt.seed = 42;
    TenantWorkloadResult r = RunTenantWorkload(opt);
    if (chaos) {
      std::printf(",\n");
    }
    PrintArmJson(opt, r);
    std::fprintf(stderr, "%-6d %6s %9llu %9llu %12.1f %10.1f %10.1f %10.1f %11.3f %9.3f\n",
                 opt.hosts, chaos ? "yes" : "no", (unsigned long long)r.committed,
                 (unsigned long long)r.aborted,
                 r.virtual_ns ? r.committed * 1e9 / r.virtual_ns : 0.0, r.latency.P50() / 1e3,
                 r.latency.P99() / 1e3, r.latency.P999() / 1e3, r.camelot_recover_ns / 1e6,
                 r.heal_ns / 1e6);
    if (!r.oracle_ok) {
      std::fprintf(stderr, "  WARNING: exactly-once oracle failed for this arm\n");
    }
  }
  std::printf("\n  ]\n}\n");
  std::fprintf(stderr,
               "\nshape: clustering cuts pager_data_write messages several-fold at equal\n"
               "pages written; chaos arms pay retransmits and the crash pays one log\n"
               "replay, while committed work still lands exactly once.\n");
  return 0;
}
