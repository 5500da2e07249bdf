#!/usr/bin/env bash
# CI entry point: tier-1 verification plus an optional sanitizer pass.
#
#   ./ci.sh            # tier-1: configure, build, ctest, plus the IPC
#                      # port/right suites, the fault-ahead suites, the
#                      # pmap teardown race and the kernel and NetLink
#                      # teardown races re-run under ASan with leak
#                      # detection (cycle reclamation and speculative-
#                      # placeholder sweeps must be leak-clean)
#   ./ci.sh asan       # tier-1 under ASan+UBSan (-DMACH_SANITIZE=address)
#   ./ci.sh tsan       # VM/IPC/pager concurrency suites under ThreadSanitizer
#   ./ci.sh perfbench  # benchmark smoke: every BENCHMARK.json workload for
#                      # 2 s, seed 1, traced and untraced; fails unless each
#                      # last line is a strict result (no NaN or Infinity,
#                      # exactly the four result keys, correct, 0 failed)
#                      # giving every per_layer (traced) or end_to_end
#                      # (untraced) metric as a finite number
#   ./ci.sh all        # all of the above, sequentially
#   ./ci.sh bench [name...]  # run benchmark binaries, JSON into BENCH_<name>.json
#                            # (all of bench/ by default; names drop the bench_ prefix)
set -euo pipefail
cd "$(dirname "$0")"

jobs=$(nproc 2>/dev/null || echo 4)

run_suite() {
  local dir=$1
  shift
  cmake -B "$dir" -S . "$@"
  cmake --build "$dir" -j "$jobs"
  ctest --test-dir "$dir" --output-on-failure -j "$jobs"
}

# The port-GC and no-senders machinery is only proven correct if reclaiming
# queue cycles frees every byte: run the IPC suites leak-checked even in the
# fast lane.
ipc_leak_lane() {
  export UBSAN_OPTIONS=${UBSAN_OPTIONS:-print_stacktrace=1}
  export ASAN_OPTIONS=${ASAN_OPTIONS:-detect_leaks=1}
  cmake -B build-asan -S . -DMACH_SANITIZE=address
  cmake --build build-asan -j "$jobs" --target ipc_test ipc_property_test
  ctest --test-dir build-asan --output-on-failure -j "$jobs" -R '^(ipc_test|ipc_property_test)$'
}

# The fault-ahead read path claims speculative placeholder pages that the
# faulter's sweep must free on every early exit (partial provide, pager
# death, teardown). Pages live in a frame-indexed table, so a placeholder
# unhashed but never freed is no heap leak: ~VmSystem's assertion that
# every frame is back on the free list (live in this build) catches it, and
# LeakSanitizer catches an unreleased message buffer. The lane also runs the
# sub-second race of a pager call lowering a dying task's mappings, where
# only ASan sees a pv walk reach a freed pmap, and the two teardown races of
# calls made in the sender's thread: manager calls racing ~VmSystem, and
# sends through NetLink proxies racing ~NetLink.
fault_ahead_leak_lane() {
  export UBSAN_OPTIONS=${UBSAN_OPTIONS:-print_stacktrace=1}
  export ASAN_OPTIONS=${ASAN_OPTIONS:-detect_leaks=1}
  cmake -B build-asan -S . -DMACH_SANITIZE=address
  cmake --build build-asan -j "$jobs" --target vm_test pager_test vm_concurrent_test net_test
  ./build-asan/tests/vm_test --gtest_filter='FaultAheadTest.*'
  ./build-asan/tests/pager_test --gtest_filter='FaultAheadPagerTest.*:PagerProtocolValidationTest.*:ExternalPagerTest.ForgedOversizeDataRequestIsRejectedAtTheWire'
  ./build-asan/tests/vm_concurrent_test --gtest_filter='VmConcurrentTest.PageProtectNeverReachesADeadTasksPmap:VmConcurrentTest.KernelTeardownRacesManagerProvides'
  ./build-asan/tests/net_test --gtest_filter='NetTest.SendersRacingLinkTeardownSeeSuccessOrPortDeath'
}

mode=${1:-tier1}
case "$mode" in
  tier1)
    run_suite build
    ipc_leak_lane
    fault_ahead_leak_lane
    ;;
  asan)
    # Chaos and soak tests allocate aggressively; keep ASan strict but let
    # UBSan report without aborting the whole suite on first finding.
    export UBSAN_OPTIONS=${UBSAN_OPTIONS:-print_stacktrace=1}
    export ASAN_OPTIONS=${ASAN_OPTIONS:-detect_leaks=1}
    run_suite build-asan -DMACH_SANITIZE=address
    ;;
  tsan)
    # Data-race lane for the VM lock hierarchy: the suites that fault,
    # reclaim, and message concurrently run under ThreadSanitizer, plus the
    # lock-free pmap reads (hw_test), manager teardown order (camelot_test),
    # the file server (fs_test), the pager suite (pager_test), where manager
    # handlers settle page-in and unlock requests while their faulters wait,
    # and the NetLink suites (net_test, migrate_test, kernel_server_test),
    # whose senders' threads run the link and the remote kernel's pager
    # handlers. Kept to the concurrency-heavy binaries — TSan is ~10x, and
    # the full suite runs in the other lanes.
    export TSAN_OPTIONS=${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}
    tsan_suites='^(hw_test|vm_test|vm_concurrent_test|property_test|ipc_property_test|shm_test|shm_property_test|camelot_test|net_test|fs_test|pager_test|migrate_test|kernel_server_test)$'
    cmake -B build-tsan -S . -DMACH_SANITIZE=thread
    cmake --build build-tsan -j "$jobs" --target \
      hw_test vm_test vm_concurrent_test property_test ipc_property_test shm_test \
      shm_property_test camelot_test net_test fs_test pager_test migrate_test kernel_server_test
    ctest --test-dir build-tsan --output-on-failure -j "$jobs" -R "$tsan_suites"
    ;;
  perfbench)
    # Tier-1 never compiles perfbench/, so a renamed name it uses, or a
    # workload that stops checking out, would otherwise surface only in the
    # benchmark itself. run.py builds its own Release tree (.bench_build/)
    # and prints its JSON result as the last line. Each workload runs
    # traced, which must report every per_layer metric, and untraced, which
    # must report every end_to_end metric. The last line is parsed
    # strictly: a line that is not a result, a NaN or an Infinity fails.
    check_result='
import json, math, sys
def refuse(token):
    raise ValueError("not a finite number: " + token)
kind = "per_layer" if sys.argv[1] == "1" else "end_to_end"
r = json.loads(sys.stdin.read(), parse_constant=refuse)
if not isinstance(r, dict) or set(r) != {"correct", "attempted", "failed", "metrics"}:
    sys.exit("not a result: " + json.dumps(r)[:200])
want = [m["name"] for m in json.load(open("BENCHMARK.json"))[kind]]
def finite(m):
    v = m.get("value") if isinstance(m, dict) else None
    return type(v) in (int, float) and math.isfinite(v)
bad = [n for n in want if not finite(r["metrics"].get(n))]
print("correct", r["correct"], "attempted", r["attempted"], "failed", r["failed"],
      kind, len(want) - len(bad), "of", len(want))
if bad:
    sys.exit("missing or not a finite number: " + ", ".join(bad))
sys.exit(0 if r["correct"] is True and type(r["failed"]) is int and r["failed"] == 0 else 1)'
    workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
    for w in $workloads; do
      for trace in 1 0; do
        echo "=== perfbench $w trace=$trace"
        out=$(python3 perfbench/run.py --workload "$w" --seed 1 --seconds 2 --trace "$trace")
        if [ "$trace" = 1 ]; then
          grep '^# every cycle repeated exactly' <<<"$out" || true
        fi
        tail -n 1 <<<"$out" | python3 -c "$check_result" "$trace"
      done
    done
    ;;
  all)
    "$0" tier1
    "$0" asan
    "$0" tsan
    "$0" perfbench
    ;;
  bench)
    # Machine-readable perf lane: every google-benchmark binary emits JSON
    # into BENCH_<name>.json at the repo root, so perf changes land as
    # reviewable diffs alongside the code that caused them.
    cmake -B build -S .
    cmake --build build -j "$jobs"
    shift || true
    names="$*"
    if [ -z "$names" ]; then
      for b in build/bench/bench_*; do
        [ -x "$b" ] || continue
        names="$names ${b##*/bench_}"
      done
    fi
    # The multi-thread scaling bench and its single-thread ablation are one
    # experiment: regenerating one without the other leaves the pair of
    # JSON files describing different kernels.
    case " $names " in
      *" fault_mt "*) case " $names " in
        *" fault_st "*) ;;
        *) names="$names fault_st" ;;
      esac ;;
    esac
    for name in $names; do
      bin="build/bench/bench_${name}"
      if [ ! -x "$bin" ]; then
        echo "ci.sh bench: no such benchmark binary: $bin" >&2
        exit 2
      fi
      echo "=== bench_${name} -> BENCH_${name}.json"
      if [ "$name" = migration ] || [ "$name" = shm_coherence ] ||
         [ "$name" = tenant_serving ]; then
        # bench_migration, bench_shm_coherence, and bench_tenant_serving are
        # plain sweep drivers that write their own JSON document to stdout
        # (drop-rate x latency grid / shard-count ablation from the 1-shard
        # centralised baseline / multi-tenant serving arms plus the
        # pageout_cluster_max 16-vs-1 dirty sweep; human table on stderr),
        # not google-benchmark binaries.
        "$bin" > "BENCH_${name}.json"
      else
        "$bin" --benchmark_format=json --benchmark_out_format=json > "BENCH_${name}.json"
      fi
    done
    ;;
  *)
    echo "usage: $0 [tier1|asan|tsan|perfbench|all|bench [name...]]" >&2
    exit 2
    ;;
esac
