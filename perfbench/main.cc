// perfbench: one run of one workload.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-file PATH]
//
// Measures a closed loop for S seconds, as at least kSlices sessions on
// freshly set-up systems. With --trace 1 one more session of S/2 seconds runs with
// a span around every call into a layer; its per-layer metrics, and its
// throughput against the untraced slices' (the tracing overhead), are what
// the run reports. Human-readable lines start with '#'; the last line is
// the JSON result.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "perfbench/harness.h"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_file;
};

// A session lasts at most S / kSlices seconds; one whose workload ends it
// sooner (a fixed amount of work) is followed by more until S seconds have
// been measured, up to kMaxSlices.
constexpr int kSlices = 30;
constexpr int kMaxSlices = 300;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The per-layer metrics every traced run reports, in BENCHMARK.json order.
// A layer the workload never calls reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"hw.pmap.access_ns", "ns"},
    {"vm.fault.zero_fill_us", "us"},
    {"vm.map.allocate_us", "us"},
    {"vm.map.deallocate_us", "us"},
    {"vm.fault.locks_per_fault", "count"},
    {"proc.voluntary_csw_per_op", "count"},
    {"pager.request_wait_us", "us"},
    {"pager.upcall_us", "us"},
    {"pager.provide_wait_us", "us"},
    {"pager.requests_per_page", "count"},
    {"vm.fault_ahead.pages_per_request", "count"},
    {"vm.fault_ahead.unused_ratio", "ratio"},
    {"pager.write_msgs_per_dirty_page", "count"},
    {"vm.flush_us", "us"},
    {"net.msgs_per_page", "count"},
    {"net.bytes_per_page", "B"},
    {"net.fragments_per_page", "count"},
    {"net.vtime_us_per_page", "us"},
    {"mfs.read_us", "us"},
    {"mfs.write_us", "us"},
    {"camelot.write_us", "us"},
    {"camelot.commit_us", "us"},
    {"shm.board_rmw_us", "us"},
    {"camelot.log_forces_per_txn", "count"},
    {"hw.disk.ops_per_txn", "count"},
    {"hw.disk.vtime_us_per_txn", "us"},
    {"vm.pageout.pages_per_txn", "count"},
    {"vm.pageout.pages_per_run", "count"},
    {"vm.faults_per_txn", "count"},
    {"sim.vtime_us_per_op", "us"},
    {"trace.ops_per_s_ratio", "ratio"},
};

// Per-layer timings read straight off the tracer: median span duration.
struct LayerTiming {
  const char* metric;
  Layer layer;
  double per_ns;  // Divisor from ns to the metric's unit.
};
constexpr LayerTiming kLayerTimings[] = {
    {"hw.pmap.access_ns", kPmapHit, 1.0},
    {"vm.fault.zero_fill_us", kFaultZeroFill, 1e3},
    {"vm.map.allocate_us", kMapAllocate, 1e3},
    {"vm.map.deallocate_us", kMapDeallocate, 1e3},
    {"pager.request_wait_us", kPagerRequestWait, 1e3},
    {"pager.upcall_us", kPagerUpcall, 1e3},
    {"pager.provide_wait_us", kPagerProvideWait, 1e3},
    {"vm.flush_us", kFlush, 1e3},
    {"mfs.read_us", kMfsRead, 1e3},
    {"mfs.write_us", kMfsWrite, 1e3},
    {"camelot.write_us", kCamelotWrite, 1e3},
    {"camelot.commit_us", kCamelotCommit, 1e3},
    {"shm.board_rmw_us", kBoardRmw, 1e3},
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

int UsageError(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "fault_1cpu|pager_stream|tenant_serving "
               "--seed N --seconds S --trace 0|1 [--trace-file PATH]\n",
               why);
  return 2;
}

// One measured phase: the workload's own stats plus the harness's view.
struct Phase {
  PhaseStats stats;
  double wall_s = 0;
  double cpu_s = 0;
  uint64_t voluntary_csw = 0;
  double ops_per_s() const { return wall_s > 0 ? stats.latency.count() / wall_s : 0; }
  double per_op(double total) const {
    return stats.latency.count() == 0 ? 0 : total / stats.latency.count();
  }
  double quantile_us(double q) const { return double(stats.latency.Percentile(q)) / 1e3; }
  // Folds another phase's counts and latencies into this one.
  void Add(const Phase& p) {
    stats.attempted += p.stats.attempted;
    stats.failed += p.stats.failed;
    stats.latency.Merge(p.stats.latency);
    stats.vtime_ns += p.stats.vtime_ns;
    wall_s += p.wall_s;
    cpu_s += p.cpu_s;
    voluntary_csw += p.voluntary_csw;
  }
};

// The end-to-end figures of one untraced slice; each metric is their median.
struct SliceFigures {
  double ops_per_s;
  double p50_us;
  double p99_us;
  double cpu_us_per_op;
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.size() % 2 ? v[v.size() / 2] : (v[v.size() / 2 - 1] + v[v.size() / 2]) / 2;
}

Phase Measure(Workload& workload, double seconds, Tracer* tracer) {
  Phase phase;
  const Usage u0 = SampleUsage();
  const uint64_t t0 = NowNs();
  workload.Run(t0 + static_cast<uint64_t>(seconds * 1e9), tracer, phase.stats);
  phase.wall_s = (NowNs() - t0) / 1e9;
  const Usage u1 = SampleUsage();
  phase.cpu_s = u1.cpu_s - u0.cpu_s;
  phase.voluntary_csw = u1.voluntary_csw - u0.voluntary_csw;
  return phase;
}

void Report(const char* label, const Phase& p) {
  const uint64_t n = p.stats.latency.count();
  const uint64_t beyond_p99 = n - std::min<uint64_t>(n, (n * 99 + 99) / 100);
  std::printf("# %s: %llu ops attempted, %llu failed (failed_op_ratio %.6g), %.3f s wall\n", label,
              (unsigned long long)p.stats.attempted, (unsigned long long)p.stats.failed,
              p.stats.attempted == 0 ? 0.0 : double(p.stats.failed) / p.stats.attempted, p.wall_s);
  std::printf("#   ops_per_s %.6g 1/s | op_p50_us %.6g us | op_p99_us %.6g us (%llu samples, "
              "%llu beyond p99)\n",
              p.ops_per_s(), p.quantile_us(0.5), p.quantile_us(0.99), (unsigned long long)n,
              (unsigned long long)beyond_p99);
  std::printf("#   cpu_us_per_op %.6g us | vtime_us_per_op %.6g us (modelled) | "
              "voluntary_csw_per_op %.6g\n",
              p.per_op(p.cpu_s * 1e6), p.per_op(p.stats.vtime_ns / 1e3),
              p.per_op(double(p.voluntary_csw)));
}

int Main(int argc, char** argv) {
  Options opt;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      return UsageError(("missing value for " + arg).c_str());
    }
    const char* val = argv[++i];
    if (arg == "--workload") {
      opt.workload = val;
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(val, nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(val);
      have_seconds = opt.seconds > 0;
    } else if (arg == "--trace") {
      opt.trace = std::strcmp(val, "1") == 0;
      have_trace = opt.trace || std::strcmp(val, "0") == 0;
    } else if (arg == "--trace-file") {
      opt.trace_file = val;
    } else {
      return UsageError(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return UsageError("--workload, --seed, --seconds (> 0) and --trace 0|1 are required");
  }

  std::unique_ptr<Workload> workload;
  if (opt.workload == "fault_1cpu") {
    workload = MakeFault1Cpu(opt.seed);
  } else if (opt.workload == "pager_stream") {
    workload = MakePagerStream(opt.seed);
  } else if (opt.workload == "tenant_serving") {
    workload = MakeTenantServing(opt.seed);
  } else {
    return UsageError(("unknown workload " + opt.workload).c_str());
  }

  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const std::string allowed = CpuListString(AllowedCpus());
  std::string why;
  const bool placed = workload->Place(&why);
  std::printf("{\"record\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
              "\"min_slices\": %d, \"nproc\": %ld, \"allowed_cpus\": %s, \"cpu_mask\": %s, "
              "\"build_type\": %s, \"compiler\": %s}}\n",
              Quote(opt.workload).c_str(), (unsigned long long)opt.seed, Num(opt.seconds).c_str(),
              opt.trace ? 1 : 0, kSlices, nproc, Quote(allowed).c_str(),
              Quote(placed ? workload->cpu_mask() : "none").c_str(),
              Quote(PERFBENCH_BUILD_TYPE).c_str(), Quote(PERFBENCH_COMPILER).c_str());
  if (!placed) {
    std::printf("# cannot run: %s\n", why.c_str());
    std::printf("{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {}}\n");
    std::fflush(stdout);
    return 1;
  }

  // Each slice is one session on a freshly set-up system: set up (boot,
  // create, warm up — timed; the median over sessions is setup_s), measure,
  // check the outputs, tear down. Every end-to-end metric is the median
  // over the slices, so a transient disturbance on a shared host moves one
  // slice rather than the result, and no slice inherits another's state
  // (the Camelot log, for one, only grows).
  //
  // The timed set-up directly follows an untimed set-up and teardown, so it
  // starts from the allocator state a teardown leaves rather than from the
  // session before it. After a longer session the heap holds more freed
  // memory, and set-up then zeroes recycled instead of fresh pages: setup_s
  // would follow the previous session's length and be bimodal.
  std::vector<double> setup_s;
  bool checks_ok = true;
  std::string check_why;
  auto session = [&](double seconds, Tracer* tracer) {
    workload->Setup();
    workload->Teardown();
    const uint64_t t0 = NowNs();
    workload->Setup();
    setup_s.push_back((NowNs() - t0) / 1e9);
    Phase phase = Measure(*workload, seconds, tracer);
    if (!workload->FinalCheck(&check_why)) {
      checks_ok = false;
    }
    workload->Teardown();
    return phase;
  };
  std::vector<SliceFigures> slices;
  Phase untraced;  // All slices together, for counts and the report.
  double measured_s = 0;
  for (int i = 0; i < kSlices || (measured_s < opt.seconds && i < kMaxSlices); ++i) {
    const Phase p = session(opt.seconds / kSlices, nullptr);
    measured_s += p.wall_s;
    slices.push_back(SliceFigures{p.ops_per_s(), p.quantile_us(0.5), p.quantile_us(0.99),
                                  p.per_op(p.cpu_s * 1e6)});
    untraced.Add(p);
  }
  Tracer tracer;
  Phase traced;
  if (opt.trace) {
    traced = session(opt.seconds / 2, &tracer);
  }
  const double peak_rss_mib = SampleUsage().max_rss_mib;

  auto slice_median = [&](double SliceFigures::*figure) {
    std::vector<double> v;
    for (const SliceFigures& f : slices) {
      v.push_back(f.*figure);
    }
    return Median(v);
  };
  const double ops_per_s = slice_median(&SliceFigures::ops_per_s);
  const double setup_median = Median(setup_s);

  std::printf("# %zu sessions; setup_s runs:", slices.size());
  for (double s : setup_s) {
    std::printf(" %.4f", s);
  }
  std::printf(" (median %.4f s) | peak_rss_mib %.1f MiB\n", setup_median, peak_rss_mib);
  Report("untraced", untraced);
  std::printf("#   ops_per_s by slice:");
  for (const SliceFigures& f : slices) {
    std::printf(" %.0f", f.ops_per_s);
  }
  std::printf("\n");
  if (opt.trace) {
    Report("traced", traced);
  }
  if (!checks_ok) {
    std::printf("# output check failed: %s\n", check_why.c_str());
  }
  const Phase& main_phase = opt.trace ? traced : untraced;
  const bool correct = checks_ok && untraced.stats.failed == 0 && traced.stats.failed == 0 &&
                       main_phase.stats.latency.count() > 0;

  std::map<std::string, double> values;
  std::vector<MetricSpec> specs;
  if (!opt.trace) {
    values = {
        {"ops_per_s", ops_per_s},
        {"op_p50_us", slice_median(&SliceFigures::p50_us)},
        {"op_p99_us", slice_median(&SliceFigures::p99_us)},
        {"cpu_us_per_op", slice_median(&SliceFigures::cpu_us_per_op)},
        {"setup_s", setup_median},
        {"peak_rss_mib", peak_rss_mib},
    };
    specs = {{"ops_per_s", "1/s"}, {"op_p50_us", "us"},   {"op_p99_us", "us"},
             {"cpu_us_per_op", "us"}, {"setup_s", "s"}, {"peak_rss_mib", "MiB"}};
  } else {
    for (const LayerTiming& t : kLayerTimings) {
      values[t.metric] = double(tracer.Merged(t.layer).Percentile(0.5)) / t.per_ns;
    }
    for (const auto& [name, value] : traced.stats.layers) {
      values[name] = value;
    }
    values["proc.voluntary_csw_per_op"] = traced.per_op(double(traced.voluntary_csw));
    values["sim.vtime_us_per_op"] = traced.per_op(traced.stats.vtime_ns / 1e3);
    values["trace.ops_per_s_ratio"] =
        ops_per_s > 0 ? traced.ops_per_s() / ops_per_s : 0;
    specs.assign(std::begin(kPerLayer), std::end(kPerLayer));
    if (!opt.trace_file.empty() && !tracer.WriteSpans(opt.trace_file)) {
      std::printf("# could not write %s\n", opt.trace_file.c_str());
    }
    for (const MetricSpec& s : specs) {
      std::printf("#   %s %.6g %s\n", s.name, values[s.name], s.unit);
    }
  }

  std::string metrics;
  for (const MetricSpec& s : specs) {
    if (!metrics.empty()) {
      metrics += ", ";
    }
    metrics += Quote(s.name) + ": {\"value\": " + Num(values[s.name]) +
               ", \"unit\": " + Quote(s.unit) + "}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", (unsigned long long)main_phase.stats.attempted,
              (unsigned long long)main_phase.stats.failed, metrics.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
