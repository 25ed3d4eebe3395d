// Tests for lms::core::TaskScheduler — the work-stealing runtime every
// background loop in the stack now runs on. Covers steal correctness under
// load, delayed-task ordering, periodic fixed-delay semantics (threaded and
// manual/deterministic), affinity serialization, shutdown drain, and the
// runtime-stats surface.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "lms/core/runnable.hpp"
#include "lms/core/runtime.hpp"
#include "lms/core/taskscheduler.hpp"
#include "lms/util/clock.hpp"

namespace {

using lms::core::PeriodicTaskHandle;
using lms::core::TaskScheduler;
namespace runtime = lms::core::runtime;

constexpr lms::util::TimeNs kMs = lms::util::kNanosPerMilli;

void spin_until(const std::function<bool()>& cond,
                std::chrono::milliseconds timeout = std::chrono::seconds(10)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!cond() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(TaskScheduler, ExecutesSubmittedTasks) {
  TaskScheduler::Options opts;
  opts.workers = 2;
  TaskScheduler sched(opts);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    sched.submit([&count] { count.fetch_add(1); });
  }
  spin_until([&] { return count.load() == 100; });
  EXPECT_EQ(count.load(), 100);
  EXPECT_EQ(sched.worker_count(), 2u);
  EXPECT_GE(sched.stats().executed.load(), 100u);
}

TEST(TaskScheduler, StealsFromBlockedWorkerUnderLoad) {
  TaskScheduler::Options opts;
  opts.workers = 2;
  TaskScheduler sched(opts);

  // Park worker 0 (affinity key 0) so everything round-robined onto its
  // stealable lane can only complete if worker 1 steals it.
  std::atomic<bool> release{false};
  std::atomic<bool> parked{false};
  sched.submit(
      [&] {
        parked.store(true);
        while (!release.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
      },
      /*affinity_key=*/0);
  spin_until([&] { return parked.load(); });

  std::atomic<int> count{0};
  constexpr int kTasks = 200;
  for (int i = 0; i < kTasks; ++i) {
    sched.submit([&count] { count.fetch_add(1); });
  }
  spin_until([&] { return count.load() == kTasks; });
  EXPECT_EQ(count.load(), kTasks);
  EXPECT_GT(sched.stats().stolen.load(), 0u);
  release.store(true);
  sched.stop();
}

TEST(TaskScheduler, DelayedTasksFireInDueOrderManual) {
  TaskScheduler::Options opts;
  opts.workers = 1;
  opts.manual = true;
  TaskScheduler sched(opts);
  std::vector<std::string> order;
  sched.submit_after(30, [&order] { order.push_back("a"); });
  sched.submit_after(10, [&order] { order.push_back("b"); });
  sched.submit_after(20, [&order] { order.push_back("c"); });

  EXPECT_EQ(sched.advance_to(5), 0u);
  EXPECT_TRUE(order.empty());
  EXPECT_EQ(sched.advance_to(15), 1u);
  ASSERT_EQ(order.size(), 1u);
  EXPECT_EQ(order[0], "b");
  EXPECT_EQ(sched.advance_to(100), 2u);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[1], "c");
  EXPECT_EQ(order[2], "a");
}

TEST(TaskScheduler, DelayedTaskNotEarlyThreaded) {
  TaskScheduler::Options opts;
  opts.workers = 1;
  TaskScheduler sched(opts);
  const auto start = std::chrono::steady_clock::now();
  std::atomic<bool> ran{false};
  std::atomic<std::int64_t> elapsed_ms{0};
  sched.submit_after(50 * kMs, [&] {
    elapsed_ms.store(std::chrono::duration_cast<std::chrono::milliseconds>(
                         std::chrono::steady_clock::now() - start)
                         .count());
    ran.store(true);
  });
  spin_until([&] { return ran.load(); });
  ASSERT_TRUE(ran.load());
  EXPECT_GE(elapsed_ms.load(), 50);
}

TEST(TaskScheduler, PeriodicFixedDelayKeepsMinimumGap) {
  TaskScheduler::Options opts;
  opts.workers = 1;
  TaskScheduler sched(opts);
  std::vector<std::int64_t> starts_ms;
  std::atomic<int> runs{0};
  const auto t0 = std::chrono::steady_clock::now();
  PeriodicTaskHandle handle = sched.submit_periodic("test.periodic.gap", 20 * kMs, [&] {
    starts_ms.push_back(std::chrono::duration_cast<std::chrono::milliseconds>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    runs.fetch_add(1);
  });
  spin_until([&] { return runs.load() >= 4; }, std::chrono::seconds(30));
  handle.cancel();
  ASSERT_GE(starts_ms.size(), 4u);
  // Fixed delay: the next run becomes due interval after the previous run
  // completes, so start-to-start gaps are at least interval + work time
  // (allow 2ms of clock rounding slack).
  for (std::size_t i = 1; i < starts_ms.size(); ++i) {
    EXPECT_GE(starts_ms[i] - starts_ms[i - 1], 18) << "gap " << i;
  }
}

TEST(TaskScheduler, PeriodicManualFiresOncePerOverdueAdvance) {
  TaskScheduler::Options opts;
  opts.workers = 1;
  opts.manual = true;
  TaskScheduler sched(opts);
  int count = 0;
  PeriodicTaskHandle handle = sched.submit_periodic("test.periodic.manual", 10, [&] { ++count; });

  sched.advance_to(5);  // first due is armed for attach time
  EXPECT_EQ(count, 1);
  sched.advance_to(9);  // re-armed for 15: not due yet
  EXPECT_EQ(count, 1);
  sched.advance_to(100);  // overdue by many intervals: exactly one run
  EXPECT_EQ(count, 2);
  sched.advance_to(120);
  EXPECT_EQ(count, 3);

  handle.trigger();  // early run supersedes the pending timer
  sched.run_ready();
  EXPECT_EQ(count, 4);

  handle.cancel();
  sched.advance_to(1000);
  EXPECT_EQ(count, 4);
}

TEST(TaskScheduler, PeriodicAggregatesIntoOneLoopStatsRow) {
  TaskScheduler::Options opts;
  opts.workers = 2;
  TaskScheduler sched(opts);
  std::atomic<int> runs{0};
  PeriodicTaskHandle handle =
      sched.submit_periodic("test.periodic.row", 1 * kMs, [&] { runs.fetch_add(1); });
  spin_until([&] { return runs.load() >= 3; });
  bool found = false;
  for (const runtime::LoopSnapshot& row : runtime::loop_snapshot()) {
    if (row.name == "test.periodic.row") {
      found = true;
      EXPECT_GE(row.iterations, 3u);
    }
  }
  EXPECT_TRUE(found);
  handle.cancel();
  // Cancelling drops the handle's row once pending heap entries are gone;
  // at minimum no further iterations accumulate.
  const int after = runs.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(runs.load(), after);
}

TEST(TaskScheduler, AffinityTasksNeverRunConcurrentlyForSameKey) {
  TaskScheduler::Options opts;
  opts.workers = 4;
  TaskScheduler sched(opts);
  constexpr int kKeys = 4;
  constexpr int kPerKey = 100;
  std::atomic<int> in_flight[kKeys] = {};
  std::atomic<int> violations{0};
  std::atomic<int> done{0};
  for (int i = 0; i < kPerKey; ++i) {
    for (std::uint64_t key = 0; key < kKeys; ++key) {
      sched.submit(
          [&, key] {
            if (in_flight[key].fetch_add(1) != 0) violations.fetch_add(1);
            std::this_thread::yield();
            in_flight[key].fetch_sub(1);
            done.fetch_add(1);
          },
          key);
    }
  }
  spin_until([&] { return done.load() == kKeys * kPerKey; }, std::chrono::seconds(30));
  EXPECT_EQ(done.load(), kKeys * kPerKey);
  EXPECT_EQ(violations.load(), 0);
  EXPECT_GE(sched.stats().pinned.load(), static_cast<std::uint64_t>(kKeys * kPerKey));
}

TEST(TaskScheduler, StopDrainsReadyAndDropsUndueTimers) {
  TaskScheduler::Options opts;
  opts.workers = 1;
  TaskScheduler sched(opts);

  // Park the single worker so submissions pile up, then stop(): every ready
  // task must still run (drain), the far-future timer must not.
  std::atomic<bool> release{false};
  std::atomic<bool> parked{false};
  sched.submit([&] {
    parked.store(true);
    while (!release.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  spin_until([&] { return parked.load(); });

  std::atomic<int> count{0};
  for (int i = 0; i < 50; ++i) {
    sched.submit([&count] { count.fetch_add(1); });
    sched.submit([&count] { count.fetch_add(1); }, /*affinity_key=*/i % 3);
  }
  std::atomic<bool> timer_ran{false};
  sched.submit_after(10 * lms::util::kNanosPerSecond, [&timer_ran] { timer_ran.store(true); });

  release.store(true);
  sched.stop();
  EXPECT_TRUE(sched.stopped());
  EXPECT_EQ(count.load(), 100);
  EXPECT_FALSE(timer_ran.load());

  // Post-stop submissions run inline instead of being dropped.
  bool inline_ran = false;
  sched.submit([&inline_ran] { inline_ran = true; });
  EXPECT_TRUE(inline_ran);
}

TEST(TaskScheduler, CancelWaitsForInFlightRun) {
  TaskScheduler::Options opts;
  opts.workers = 2;
  TaskScheduler sched(opts);
  std::atomic<bool> started{false};
  std::atomic<bool> finished{false};
  PeriodicTaskHandle handle = sched.submit_periodic("test.periodic.cancel", 1 * kMs, [&] {
    started.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    finished.store(true);
  });
  spin_until([&] { return started.load(); });
  handle.cancel();
  EXPECT_TRUE(finished.load());  // cancel() returned only after the run ended
  EXPECT_FALSE(handle.active());
}

TEST(TaskScheduler, SchedStatsSnapshotExported) {
  TaskScheduler::Options opts;
  opts.workers = 2;
  opts.name = "test.sched.stats";
  TaskScheduler sched(opts);
  std::atomic<int> count{0};
  for (int i = 0; i < 32; ++i) sched.submit([&count] { count.fetch_add(1); });
  spin_until([&] { return count.load() == 32; });
  bool found = false;
  for (const runtime::SchedSnapshot& s : runtime::sched_snapshot()) {
    if (s.name == "test.sched.stats") {
      found = true;
      EXPECT_EQ(s.workers, 2u);
      EXPECT_GE(s.submitted, 32u);
      EXPECT_GE(s.executed, 32u);
      EXPECT_GE(s.high_watermark, 1u);
    }
  }
  EXPECT_TRUE(found);
  sched.stop();
  // Stats row unregisters with the scheduler object, not at stop().
  EXPECT_FALSE(runtime::sched_snapshot().empty());
}

// A minimal Runnable: lifecycle tri-state + task wiring through on_attach.
class PingComponent : public lms::core::Runnable {
 public:
  std::atomic<int> pings{0};

 protected:
  void on_attach(TaskScheduler& sched) override {
    task_ = sched.submit_periodic("test.runnable.ping", 1 * kMs, [this] { pings.fetch_add(1); });
  }
  void on_detach() override { task_.cancel(); }

 private:
  PeriodicTaskHandle task_;
};

TEST(Runnable, AttachDetachLifecycle) {
  PingComponent comp;
  EXPECT_FALSE(comp.attached());
  EXPECT_FALSE(comp.ever_attached());

  TaskScheduler::Options opts;
  opts.workers = 1;
  TaskScheduler sched(opts);
  comp.attach(sched);
  EXPECT_TRUE(comp.attached());
  EXPECT_TRUE(comp.ever_attached());
  spin_until([&] { return comp.pings.load() >= 2; });
  EXPECT_GE(comp.pings.load(), 2);

  comp.detach();
  EXPECT_FALSE(comp.attached());
  EXPECT_TRUE(comp.ever_attached());
  const int after = comp.pings.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(comp.pings.load(), after);

  // Re-attach is legal (tests swap schedulers).
  comp.attach(sched);
  EXPECT_TRUE(comp.attached());
  comp.detach();
}

TEST(TaskScheduler, QueueDelayRecordedPerTaskName) {
  // Manual mode makes the submit→run latency exact: the task is enqueued at
  // manual-now 0 and runs when advance_to(5ms) drains the queues.
  TaskScheduler::Options opts;
  opts.workers = 1;
  opts.manual = true;
  TaskScheduler sched(opts);
  std::string seen_name;
  std::atomic<bool> ran{false};
  sched.submit([&] {
    const char* name = runtime::current_task_name();
    seen_name = name != nullptr ? name : "";
    ran = true;
  });
  sched.advance_to(5 * kMs);
  ASSERT_TRUE(ran.load());
  // The running task sees its own name; it clears again afterwards.
  EXPECT_EQ(seen_name, "sched.submit");
  EXPECT_EQ(runtime::current_task_name(), nullptr);

  bool found = false;
  for (const runtime::sched_delay::TaskDelaySnapshot& t : runtime::sched_delay::snapshot()) {
    if (std::string(t.name) != "sched.submit") continue;
    found = true;
    EXPECT_GT(t.count, 0u);
    EXPECT_GE(t.delay_ns_max, static_cast<std::uint64_t>(5 * kMs));
    EXPECT_GE(t.delay_ns_total, static_cast<std::uint64_t>(5 * kMs));
    EXPECT_GT(runtime::sched_delay::delay_quantile_ns(t, 0.99), 0u);
  }
  EXPECT_TRUE(found) << "no sched.submit row in the queue-delay table";
}

TEST(TaskScheduler, QueueDelayTracksPeriodicTasksByName) {
  TaskScheduler::Options opts;
  opts.workers = 1;
  opts.manual = true;
  TaskScheduler sched(opts);
  std::string seen_name;
  PeriodicTaskHandle handle = sched.submit_periodic("test.delayname", 2 * kMs, [&] {
    const char* name = runtime::current_task_name();
    seen_name = name != nullptr ? name : "";
  });
  sched.advance_to(2 * kMs);
  EXPECT_EQ(seen_name, "test.delayname");
  bool found = false;
  for (const runtime::sched_delay::TaskDelaySnapshot& t : runtime::sched_delay::snapshot()) {
    if (std::string(t.name) == "test.delayname") {
      found = true;
      EXPECT_GT(t.count, 0u);
    }
  }
  EXPECT_TRUE(found) << "no test.delayname row in the queue-delay table";
  handle.cancel();
}

TEST(Runnable, ManualModeDrivesAttachedComponent) {
  PingComponent comp;
  TaskScheduler::Options opts;
  opts.workers = 1;
  opts.manual = true;
  TaskScheduler sched(opts);
  comp.attach(sched);
  sched.advance_to(5 * kMs);
  EXPECT_EQ(comp.pings.load(), 1);
  sched.advance_to(10 * kMs);
  EXPECT_EQ(comp.pings.load(), 2);
  comp.detach();
  sched.advance_to(100 * kMs);
  EXPECT_EQ(comp.pings.load(), 2);
}

}  // namespace
