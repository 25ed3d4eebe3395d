// Prices the core::TaskScheduler runtime that carries every background
// loop of the stack (router flusher, CQ runner, retention, alerts, trace
// export, self-scrape, collector ticks):
//
//   1. fan-out   — a burst of no-op tasks submitted from one producer
//                  thread, drained by the worker pool (the steal path);
//   2. pinned    — the same burst spread over affinity keys, exercising the
//                  per-key FIFO lanes (submit(fn, key));
//   3. delayed   — a batch of sub-millisecond timers through the shared
//                  min-heap;
//   4. periodic  — manual-mode cadence: a fixed-delay task stepped across a
//                  simulated hour must fire exactly once per interval;
//
// Results land in BENCH_sched.json. LMS_BENCH_SMOKE=1 shrinks the budgets
// and suppresses the baseline write.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "bench_util.hpp"
#include "lms/core/taskscheduler.hpp"
#include "lms/json/json.hpp"
#include "lms/util/clock.hpp"

namespace {

using namespace lms;

constexpr util::TimeNs kSec = util::kNanosPerSecond;

const int kFanoutTasks = bench::scaled(200'000, 2'000);
const int kPinnedKeys = 16;
const int kPinnedTasks = bench::scaled(200'000, 2'000);
const int kDelayedTasks = bench::scaled(20'000, 200);
const int kManualSteps = bench::scaled(3'600, 60);  // one simulated hour

/// Spin until the counter reaches `want` (worker completion barrier).
void await(const std::atomic<int>& counter, int want) {
  while (counter.load(std::memory_order_acquire) < want) {
    std::this_thread::yield();
  }
}

double fanout_rate(core::TaskScheduler& sched) {
  std::atomic<int> done{0};
  const util::TimeNs start = util::monotonic_now_ns();
  for (int i = 0; i < kFanoutTasks; ++i) {
    sched.submit([&done] { done.fetch_add(1, std::memory_order_acq_rel); });
  }
  await(done, kFanoutTasks);
  const double wall_ns = static_cast<double>(util::monotonic_now_ns() - start);
  return kFanoutTasks / (wall_ns / 1e9);
}

double pinned_rate(core::TaskScheduler& sched) {
  std::atomic<int> done{0};
  const util::TimeNs start = util::monotonic_now_ns();
  for (int i = 0; i < kPinnedTasks; ++i) {
    sched.submit([&done] { done.fetch_add(1, std::memory_order_acq_rel); },
                 static_cast<std::uint64_t>(i % kPinnedKeys));
  }
  await(done, kPinnedTasks);
  const double wall_ns = static_cast<double>(util::monotonic_now_ns() - start);
  return kPinnedTasks / (wall_ns / 1e9);
}

double delayed_drain_ms(core::TaskScheduler& sched) {
  std::atomic<int> done{0};
  const util::TimeNs start = util::monotonic_now_ns();
  for (int i = 0; i < kDelayedTasks; ++i) {
    // Staggered sub-ms due times: the heap stays populated while draining.
    sched.submit_after(static_cast<util::TimeNs>(i % 97) * 10'000,
                       [&done] { done.fetch_add(1, std::memory_order_acq_rel); });
  }
  await(done, kDelayedTasks);
  return static_cast<double>(util::monotonic_now_ns() - start) / 1e6;
}

/// Manual-mode cadence: stepping one simulated hour in 1 s steps must run a
/// 1 s fixed-delay periodic exactly once per step. Returns the run count.
std::uint64_t manual_periodic_runs() {
  core::TaskScheduler::Options opts;
  opts.manual = true;
  opts.workers = 1;
  opts.name = "bench.sched.manual";
  core::TaskScheduler sched(opts);
  std::atomic<std::uint64_t> runs{0};
  auto task = sched.submit_periodic("bench.periodic", kSec, [&runs] { ++runs; });
  for (int i = 1; i <= kManualSteps; ++i) {
    (void)sched.advance_to(static_cast<util::TimeNs>(i) * kSec);
  }
  task.cancel();
  sched.stop();
  return runs.load();
}

}  // namespace

int main() {
  const unsigned hw = std::thread::hardware_concurrency();
  core::TaskScheduler sched;  // worker count from LMS_SCHED_WORKERS / hw
  std::printf("=== bench_sched: %zu workers, %u hardware threads ===\n\n",
              sched.worker_count(), hw);

  const double fanout = fanout_rate(sched);
  const double pinned = pinned_rate(sched);
  const double delayed_ms = delayed_drain_ms(sched);
  const core::runtime::SchedStats& stats = sched.stats();
  const std::uint64_t stolen = stats.stolen.load();
  const std::uint64_t steal_attempts = stats.steal_attempts.load();
  std::printf("fan-out:  %10.2f Ktasks/s  (stolen %llu / attempts %llu)\n", fanout / 1e3,
              static_cast<unsigned long long>(stolen),
              static_cast<unsigned long long>(steal_attempts));
  std::printf("pinned:   %10.2f Ktasks/s  (%d keys)\n", pinned / 1e3, kPinnedKeys);
  std::printf("delayed:  %d timers drained in %.2f ms\n", kDelayedTasks, delayed_ms);

  const std::uint64_t periodic_runs = manual_periodic_runs();
  std::printf("periodic: %llu runs over %d manual 1 s steps (want %d)\n",
              static_cast<unsigned long long>(periodic_runs), kManualSteps, kManualSteps);

  json::Object top;
  top["bench"] = "bench_sched";
  top["hardware_threads"] = static_cast<std::int64_t>(hw);
  top["workers"] = static_cast<std::int64_t>(sched.worker_count());
  top["fanout_tasks"] = kFanoutTasks;
  top["fanout_tasks_per_sec"] = fanout;
  top["stolen"] = static_cast<std::int64_t>(stolen);
  top["steal_attempts"] = static_cast<std::int64_t>(steal_attempts);
  top["pinned_keys"] = kPinnedKeys;
  top["pinned_tasks"] = kPinnedTasks;
  top["pinned_tasks_per_sec"] = pinned;
  top["delayed_tasks"] = kDelayedTasks;
  top["delayed_drain_ms"] = delayed_ms;
  top["manual_steps"] = kManualSteps;
  top["periodic_runs"] = static_cast<std::int64_t>(periodic_runs);

  sched.stop();
  const bool fired_right = periodic_runs == static_cast<std::uint64_t>(kManualSteps);
  if (!fired_right) {
    std::printf("FAIL: periodic ran %llu times, want %d\n",
                static_cast<unsigned long long>(periodic_runs), kManualSteps);
  }
  const bool wrote =
      bench::write_baseline("BENCH_sched.json", json::Value(std::move(top)).dump_pretty());
  return wrote && fired_right ? 0 : 1;
}
