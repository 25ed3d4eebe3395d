#!/usr/bin/env bash
# Sanitizer gate for the concurrency-heavy suites. Builds the stack twice
# (-DLMS_SANITIZE=thread and =address, same flags the CMake presets use) and
# runs the suites that exercise threads and raw buffers: obs (self-scrape
# thread, span recorder/exporter, the TracingStress.* concurrent
# producers-vs-exporter-vs-sampling test), net (TCP transport, pub/sub HWM),
# alert (evaluator vs. gauge callbacks), tsdb (sharded storage under
# concurrent writers/queries/retention, trace assembly), router (async
# ingest flusher task, trace context hand-off to the flusher, concurrent
# spool flushes), profiling
# (concurrent region markers against the per-thread stacks and shared
# aggregates of the marker SDK), core_sched (the TaskScheduler runtime:
# work stealing, pinned affinity lanes, timer heap, periodic fixed-delay
# re-arm, shutdown drain), cpuprofile
# (the sampling CPU profiler: SIGPROF handler vs. the per-thread SPSC rings
# vs. the fold task, plus the timer-mode busy-loop capture — TSan/ASan are
# the strongest checks that the signal-context ring writes are race- and
# overflow-free).
#
# The thread mode additionally forces -DLMS_RANK_CHECKS=ON and
# -DLMS_LOCK_STATS=ON so the lock-rank deadlock detector and the contention
# profiler (core/sync.hpp) run alongside TSan in the same suites — TSan is
# the strongest check that the lock-free lockstats table and the owner-side
# hold timing are race-free; the undefined mode covers UB (signed overflow,
# misaligned access, bad shifts) in the same concurrency-heavy paths.
#
# core_sync_lockstats_test pins its instrumentation per-TU, so it runs in
# every mode regardless of the tree-wide -DLMS_LOCK_STATS setting.
#
# Usage: ci/sanitize.sh [thread|address|undefined|all]   (default: all)

set -euo pipefail
cd "$(dirname "$0")/.."

SUITES=(obs_test net_test alert_test tsdb_test router_test profiling_test
        core_sched_test core_sync_lockstats_test cpuprofile_test)
MODE="${1:-all}"

run_mode() {
  local mode="$1" dir
  local -a extra=()
  case "$mode" in
    thread)
      dir=build-tsan
      extra+=(-DLMS_RANK_CHECKS=ON -DLMS_LOCK_STATS=ON)
      ;;
    address) dir=build-asan ;;
    undefined) dir=build-ubsan ;;
  esac
  echo "=== ${mode} sanitizer: configure + build (${dir}) ==="
  cmake -B "$dir" -S . -DLMS_SANITIZE="$mode" "${extra[@]}" >/dev/null
  cmake --build "$dir" -j "$(nproc)" --target "${SUITES[@]}"
  for suite in "${SUITES[@]}"; do
    echo "=== ${mode} sanitizer: ${suite} ==="
    "$dir/tests/$suite"
  done
}

case "$MODE" in
  thread|address|undefined) run_mode "$MODE" ;;
  all)
    run_mode thread
    run_mode address
    run_mode undefined
    ;;
  *)
    echo "usage: $0 [thread|address|undefined|all]" >&2
    exit 2
    ;;
esac

echo "sanitize: all suites clean"
