#pragma once

// lms::core::TaskScheduler — the stack's shared background runtime.
//
// A work-stealing pool that replaces the seven hand-rolled
// thread+CondVar+stop_ loops (router flusher, CQ runner, retention, alert
// evaluator, trace exporter, self-scrape, collector send loop) with one set
// of worker threads and a declarative task API:
//
//   - submit(fn)                 run-soon task; lands on the submitter's own
//                                worker when called from a worker (LIFO
//                                locality), round-robin otherwise. Stealable.
//   - submit(fn, affinity_key)   pinned task: always runs on worker
//                                (key % workers) and is never stolen. A
//                                single worker executes its pinned lane in
//                                FIFO order, so two tasks with the same key
//                                never run concurrently — this is how
//                                per-shard TSDB writes keep cache locality
//                                and mutual exclusion without a lock convoy.
//   - submit_after(delay, fn)    delayed task via a min-heap serviced by the
//                                workers themselves (no dedicated timer
//                                thread).
//   - submit_periodic(...)       named periodic task with fixed-delay
//                                semantics (next due = completion +
//                                interval) and a per-task LoopStats row in
//                                /debug/runtime. Returns a handle that can
//                                trigger() an early run or cancel().
//
// Scheduling shape (tateyama-style): each worker owns a deque used LIFO
// from its own end (newest first, cache-warm) and stolen FIFO from the
// other end, half at a time, by idle workers. Pinned lanes are separate
// FIFO queues that stealing never touches.
//
// Locking discipline: all internal mutexes are core::sync wrappers at
// Rank::kSched (worker i uses seq=i, the timer heap seq=workers), so rank
// checking and lock-stats cover the scheduler itself. The implementation
// never holds two scheduler locks at once and never holds any scheduler
// lock while running a task, which is why tasks may freely acquire
// lower-ranked component locks (kAlert, kTsdbShard, ...).
//
// Manual mode (Options::manual) runs no threads: the owner drives the same
// task graph deterministically with run_ready() / advance_to(now) on a
// simulated-time axis. The cluster harness uses this so every test stays
// reproducible; the threaded mode uses the monotonic clock.
//
// Shutdown: stop() drains every ready task (including pinned lanes), drops
// timers that are not yet due, and joins the workers. After stop(),
// submissions execute inline on the caller so no work is ever silently
// lost.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "lms/core/runtime.hpp"
#include "lms/core/sync.hpp"
#include "lms/util/clock.hpp"

namespace lms::core {

class TaskScheduler;

namespace sched_detail {
struct PeriodicState;
struct QueuedTask;
struct Worker;
struct TimerQueue;
}  // namespace sched_detail

/// Handle to a periodic task. Move-only; the destructor cancels the task if
/// it is still live, so a component that drops its handle on detach gets
/// the old stop()/join() guarantee (no further runs, in-flight run
/// completed) for free.
class PeriodicTaskHandle {
 public:
  PeriodicTaskHandle() = default;
  ~PeriodicTaskHandle();
  PeriodicTaskHandle(PeriodicTaskHandle&& other) noexcept;
  PeriodicTaskHandle& operator=(PeriodicTaskHandle&& other) noexcept;
  PeriodicTaskHandle(const PeriodicTaskHandle&) = delete;
  PeriodicTaskHandle& operator=(const PeriodicTaskHandle&) = delete;

  /// Run the task as soon as possible, superseding the pending timer; the
  /// periodic cadence restarts from the triggered run's completion. This is
  /// the replacement for "notify the loop CV early" (e.g. the router waking
  /// its flusher when a batch is full). No-op on an empty/cancelled handle.
  void trigger();

  /// Stop the task: no further runs start, and any in-flight run has
  /// completed when cancel() returns. Idempotent. Must not be called from
  /// inside the task itself (it would wait for its own completion).
  void cancel();

  /// True while the task is live (submitted and not cancelled).
  bool active() const;

 private:
  friend class TaskScheduler;
  explicit PeriodicTaskHandle(std::shared_ptr<sched_detail::PeriodicState> state);

  std::shared_ptr<sched_detail::PeriodicState> state_;
};

class TaskScheduler {
 public:
  using Task = std::function<void()>;

  struct Options {
    /// Worker count. 0 = auto: $LMS_SCHED_WORKERS if set, else
    /// hardware_concurrency clamped to [1, 8].
    std::size_t workers = 0;
    /// Manual mode: no threads; the owner calls run_ready()/advance_to().
    bool manual = false;
    /// Name for the SchedStats row in /debug/runtime and lms_runtime_sched_*.
    const char* name = "core.sched";
  };

  TaskScheduler();
  explicit TaskScheduler(Options options);
  ~TaskScheduler();
  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;

  /// Run-soon task (stealable). After stop() the task runs inline.
  void submit(Task fn);

  /// Pinned task: runs on worker (affinity_key % workers), never stolen,
  /// FIFO within the key's worker — tasks sharing a key never overlap.
  void submit(Task fn, std::uint64_t affinity_key);

  /// Run `fn` once, no earlier than `delay` from now (monotonic time in
  /// threaded mode, the advance_to() axis in manual mode).
  void submit_after(util::TimeNs delay, Task fn);

  /// Named periodic task with fixed-delay semantics: the next run becomes
  /// due `interval` after the previous run *completes* (threaded mode), or
  /// `interval` after the advance that ran it (manual mode — one run per
  /// overdue advance, which is what deterministic step-driven tests want).
  /// First run: after `interval` in threaded mode, on the first advance in
  /// manual mode. The name labels a LoopStats duty-cycle row.
  PeriodicTaskHandle submit_periodic(std::string name, util::TimeNs interval, Task fn);

  /// Drain ready tasks, drop undue timers, join workers. Idempotent.
  void stop();

  // --- manual mode -------------------------------------------------------

  /// Manual mode only: run queued tasks until every queue is empty.
  /// Returns the number of tasks executed.
  std::size_t run_ready();

  /// Manual mode only: move simulated time forward, firing due timers
  /// (periodic tasks re-arm against `now`, so each fires at most once per
  /// call) and then draining ready tasks. Returns tasks executed.
  std::size_t advance_to(util::TimeNs now);

  // --- introspection -----------------------------------------------------

  std::size_t worker_count() const { return workers_.size(); }
  bool manual() const { return options_.manual; }
  bool stopped() const { return stopped_.load(std::memory_order_acquire); }

  const runtime::SchedStats& stats() const { return stats_; }

 private:
  friend class PeriodicTaskHandle;
  friend struct sched_detail::PeriodicState;

  void enqueue_local(std::size_t index, Task fn, const char* name);
  void enqueue_pinned(std::size_t index, Task fn, const char* name);
  void schedule_timer(util::TimeNs due, Task fn, bool pinned, std::uint64_t key,
                      const char* name);
  void notify_all_workers();
  void worker_loop(std::size_t index);
  /// Move due timer entries into the worker queues. Returns promoted count.
  std::size_t promote_due_timers(util::TimeNs now);
  util::TimeNs next_timer_due() const;
  util::TimeNs scheduler_now() const;
  void run_task(Task& fn);
  /// Record the queued task's submit→run delay, set the task-name TLS scope,
  /// and execute it. Queue bookkeeping (ready_count_, depth) stays at the
  /// pop site.
  void run_queued(sched_detail::QueuedTask& qt);
  void run_periodic(const std::shared_ptr<sched_detail::PeriodicState>& state,
                    std::uint64_t gen);
  void trigger_periodic(const std::shared_ptr<sched_detail::PeriodicState>& state);
  bool steal_into(std::size_t thief);
  /// Single-threaded FIFO drain of every queue (manual run_ready + the
  /// shutdown sweep). Returns the number of tasks executed.
  std::size_t drain_queues();

  Options options_;
  runtime::SchedStats stats_;
  std::vector<std::unique_ptr<sched_detail::Worker>> workers_;
  std::unique_ptr<sched_detail::TimerQueue> timers_;
  std::atomic<std::uint64_t> rr_next_{0};        ///< round-robin cursor
  std::atomic<std::uint64_t> ready_count_{0};    ///< tasks queued, not yet run
  std::atomic<std::uint64_t> timer_version_{0};  ///< bumped on timer insert
  std::atomic<util::TimeNs> manual_now_{0};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};
};

// ===========================================================================
// Implementation. Header-only (like sync.hpp / runtime.hpp) so lms::obs
// components can run on the scheduler without a core<->obs link cycle, and
// so per-TU LMS_SYNC_* pinning never mixes two wrapper layouts through a
// library object.
// ===========================================================================

namespace sched_detail {

/// A task in a worker lane, stamped with its name (for the task-name TLS
/// scope and the queue-delay table; always a string literal or a string
/// owned by a PeriodicState the closure keeps alive) and its enqueue time
/// on the scheduler's clock, so the pop site can record submit→run latency.
struct QueuedTask {
  TaskScheduler::Task fn;
  const char* name = nullptr;
  util::TimeNs enqueued_ns = 0;
};

struct Worker {
  explicit Worker(std::size_t index)
      : mu(sync::Rank::kSched, "sched.worker", index),
        loop_name("sched.worker" + std::to_string(index)),
        loop(loop_name.c_str()) {}

  sync::Mutex mu;
  sync::CondVar cv;
  /// Stealable lane: owner pushes/pops at the back (LIFO, cache-warm),
  /// thieves take from the front (FIFO, oldest first).
  std::deque<QueuedTask> local LMS_GUARDED_BY(mu);
  /// Affinity lane: strictly FIFO, never stolen.
  std::deque<QueuedTask> pinned LMS_GUARDED_BY(mu);
  std::string loop_name;
  runtime::LoopStats loop;
  std::thread thread;
};

struct TimerEntry {
  util::TimeNs due;
  std::uint64_t order;  ///< insertion counter: FIFO tie-break for equal due
  TaskScheduler::Task fn;
  bool pinned;
  std::uint64_t key;
  const char* name;
};

/// Comparator for std::push_heap/pop_heap (max-heap order inverted into a
/// min-heap on (due, order)).
inline bool timer_later(const TimerEntry& a, const TimerEntry& b) {
  if (a.due != b.due) return a.due > b.due;
  return a.order > b.order;
}

struct TimerQueue {
  explicit TimerQueue(std::uintptr_t seq) : mu(sync::Rank::kSched, "sched.timers", seq) {}

  sync::Mutex mu;
  std::vector<TimerEntry> heap LMS_GUARDED_BY(mu);
  std::uint64_t next_order LMS_GUARDED_BY(mu) = 0;
};

struct PeriodicState {
  PeriodicState(TaskScheduler* sched_in, std::string name_in, util::TimeNs interval_in,
                TaskScheduler::Task fn_in)
      : sched(sched_in),
        name(std::move(name_in)),
        interval(interval_in),
        fn(std::move(fn_in)),
        mu(sync::Rank::kSched, "sched.periodic"),
        loop(name.c_str()) {}

  TaskScheduler* sched;
  std::string name;
  util::TimeNs interval;
  TaskScheduler::Task fn;
  sync::Mutex mu;
  sync::CondVar cv;
  bool in_flight LMS_GUARDED_BY(mu) = false;
  /// Bumped by trigger()/cancel(); a queued run or heap entry carrying a
  /// stale generation is a no-op when it fires.
  std::atomic<std::uint64_t> gen{0};
  std::atomic<bool> cancelled{false};
  /// Duty-cycle row named after the task, aggregating across whichever
  /// workers happen to run it.
  runtime::LoopStats loop;
};

inline constexpr util::TimeNs kNoTimer = std::numeric_limits<util::TimeNs>::max();
/// Idle workers re-check state at least this often even with no timer due.
inline constexpr util::TimeNs kMaxIdleWaitNs = 200 * util::kNanosPerMilli;

/// Worker identity of the calling thread (any scheduler instance).
inline thread_local TaskScheduler* tls_scheduler = nullptr;
inline thread_local std::size_t tls_worker_index = 0;

inline std::size_t resolve_workers(std::size_t requested) {
  if (requested != 0) return std::clamp<std::size_t>(requested, 1, 64);
  if (const char* env = std::getenv("LMS_SCHED_WORKERS")) {
    const long n = std::strtol(env, nullptr, 10);
    if (n >= 1) return std::min<std::size_t>(static_cast<std::size_t>(n), 64);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 8);
}

}  // namespace sched_detail

// ---------------------------------------------------------------------------
// PeriodicTaskHandle
// ---------------------------------------------------------------------------

inline PeriodicTaskHandle::PeriodicTaskHandle(
    std::shared_ptr<sched_detail::PeriodicState> state)
    : state_(std::move(state)) {}

inline PeriodicTaskHandle::~PeriodicTaskHandle() { cancel(); }

inline PeriodicTaskHandle::PeriodicTaskHandle(PeriodicTaskHandle&& other) noexcept
    : state_(std::move(other.state_)) {}

inline PeriodicTaskHandle& PeriodicTaskHandle::operator=(
    PeriodicTaskHandle&& other) noexcept {
  if (this != &other) {
    cancel();
    state_ = std::move(other.state_);
  }
  return *this;
}

inline void PeriodicTaskHandle::trigger() {
  if (state_ == nullptr || state_->cancelled.load(std::memory_order_acquire)) return;
  state_->sched->trigger_periodic(state_);
}

inline void PeriodicTaskHandle::cancel() {
  // state_ is deliberately kept (not reset): a cancelled handle stays inert
  // but valid, so another thread calling trigger() concurrently with a
  // shutdown-path cancel() never races on the shared_ptr itself.
  if (state_ == nullptr) return;
  state_->gen.fetch_add(1, std::memory_order_acq_rel);
  sync::UniqueLock lock(state_->mu);
  // The store happens under mu so it cannot interleave with a run between
  // its cancelled-check and its in_flight=true (both also under mu).
  state_->cancelled.store(true, std::memory_order_release);
  while (state_->in_flight) state_->cv.wait(lock);
}

inline bool PeriodicTaskHandle::active() const {
  return state_ != nullptr && !state_->cancelled.load(std::memory_order_acquire);
}

// ---------------------------------------------------------------------------
// TaskScheduler
// ---------------------------------------------------------------------------

inline TaskScheduler::TaskScheduler() : TaskScheduler(Options{}) {}

inline TaskScheduler::TaskScheduler(Options options) : options_(options) {
  const std::size_t n = sched_detail::resolve_workers(options_.workers);
  stats_.name = options_.name;
  stats_.workers = n;
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<sched_detail::Worker>(i));
  }
  timers_ = std::make_unique<sched_detail::TimerQueue>(static_cast<std::uintptr_t>(n));
  runtime::register_scheduler(&stats_);
  if (!options_.manual) {
    for (std::size_t i = 0; i < n; ++i) {
      workers_[i]->thread = std::thread([this, i] { worker_loop(i); });
    }
  }
}

inline TaskScheduler::~TaskScheduler() {
  stop();
  runtime::unregister_scheduler(&stats_);
}

inline util::TimeNs TaskScheduler::scheduler_now() const {
  if (options_.manual) return manual_now_.load(std::memory_order_acquire);
  return static_cast<util::TimeNs>(sync::lockstats::now_ns());
}

inline void TaskScheduler::run_task(Task& fn) {
  fn();
  stats_.executed.fetch_add(1, std::memory_order_relaxed);
}

inline void TaskScheduler::run_queued(sched_detail::QueuedTask& qt) {
  const util::TimeNs now = scheduler_now();
  const std::uint64_t delay_ns =
      now > qt.enqueued_ns ? static_cast<std::uint64_t>(now - qt.enqueued_ns) : 0;
  runtime::sched_delay::record(runtime::sched_delay::intern(qt.name), delay_ns);
  runtime::TaskNameScope name_scope(qt.name);
  run_task(qt.fn);
}

inline void TaskScheduler::enqueue_local(std::size_t index, Task fn, const char* name) {
  sched_detail::Worker& w = *workers_[index];
  {
    sync::LockGuard lock(w.mu);
    w.local.push_back(sched_detail::QueuedTask{std::move(fn), name, scheduler_now()});
  }
  stats_.on_enqueue(ready_count_.fetch_add(1, std::memory_order_relaxed) + 1);
  if (!options_.manual) w.cv.notify_one();
}

inline void TaskScheduler::enqueue_pinned(std::size_t index, Task fn, const char* name) {
  sched_detail::Worker& w = *workers_[index];
  {
    sync::LockGuard lock(w.mu);
    w.pinned.push_back(sched_detail::QueuedTask{std::move(fn), name, scheduler_now()});
  }
  stats_.on_enqueue(ready_count_.fetch_add(1, std::memory_order_relaxed) + 1);
  if (!options_.manual) w.cv.notify_one();
}

inline void TaskScheduler::submit(Task fn) {
  stats_.submitted.fetch_add(1, std::memory_order_relaxed);
  if (stopped_.load(std::memory_order_acquire)) {
    // The pool is gone; run inline so no work is silently dropped.
    run_task(fn);
    return;
  }
  std::size_t index;
  if (!options_.manual && sched_detail::tls_scheduler == this) {
    index = sched_detail::tls_worker_index;  // LIFO locality: stay cache-warm
  } else {
    index = static_cast<std::size_t>(rr_next_.fetch_add(1, std::memory_order_relaxed)) %
            workers_.size();
  }
  enqueue_local(index, std::move(fn), "sched.submit");
}

inline void TaskScheduler::submit(Task fn, std::uint64_t affinity_key) {
  stats_.submitted.fetch_add(1, std::memory_order_relaxed);
  stats_.pinned.fetch_add(1, std::memory_order_relaxed);
  if (stopped_.load(std::memory_order_acquire)) {
    run_task(fn);
    return;
  }
  enqueue_pinned(static_cast<std::size_t>(affinity_key % workers_.size()), std::move(fn),
                 "sched.pinned");
}

inline void TaskScheduler::submit_after(util::TimeNs delay, Task fn) {
  stats_.submitted.fetch_add(1, std::memory_order_relaxed);
  stats_.delayed.fetch_add(1, std::memory_order_relaxed);
  if (stopping_.load(std::memory_order_acquire)) return;  // undue timers are dropped
  if (delay < 0) delay = 0;
  schedule_timer(scheduler_now() + delay, std::move(fn), /*pinned=*/false, 0,
                 "sched.delayed");
}

inline PeriodicTaskHandle TaskScheduler::submit_periodic(std::string name,
                                                         util::TimeNs interval, Task fn) {
  if (interval < 1) interval = 1;
  auto state = std::make_shared<sched_detail::PeriodicState>(this, std::move(name), interval,
                                                             std::move(fn));
  if (!stopping_.load(std::memory_order_acquire)) {
    // Manual mode arms for "now": the first advance runs it, mirroring the
    // last_run=0 semantics of the step-driven loops this API replaces.
    const util::TimeNs first_due =
        options_.manual ? scheduler_now() : scheduler_now() + interval;
    stats_.delayed.fetch_add(1, std::memory_order_relaxed);
    std::shared_ptr<sched_detail::PeriodicState> self = state;
    const std::uint64_t gen = state->gen.load(std::memory_order_relaxed);
    schedule_timer(
        first_due, [this, self, gen] { run_periodic(self, gen); }, /*pinned=*/true,
        reinterpret_cast<std::uintptr_t>(state.get()), state->name.c_str());
  }
  return PeriodicTaskHandle(std::move(state));
}

inline void TaskScheduler::trigger_periodic(
    const std::shared_ptr<sched_detail::PeriodicState>& state) {
  if (stopping_.load(std::memory_order_acquire)) return;
  // Invalidate the pending heap entry; the triggered run re-arms the cadence
  // from its own completion.
  const std::uint64_t gen = state->gen.fetch_add(1, std::memory_order_acq_rel) + 1;
  std::shared_ptr<sched_detail::PeriodicState> self = state;
  stats_.submitted.fetch_add(1, std::memory_order_relaxed);
  stats_.pinned.fetch_add(1, std::memory_order_relaxed);
  // Bypass submit(fn, key) so the queued run keeps the periodic task's name
  // (the closure's shared_ptr keeps the name's storage alive while queued).
  enqueue_pinned(
      static_cast<std::size_t>(reinterpret_cast<std::uintptr_t>(state.get()) %
                               workers_.size()),
      [this, self, gen] { run_periodic(self, gen); }, state->name.c_str());
}

inline void TaskScheduler::run_periodic(
    const std::shared_ptr<sched_detail::PeriodicState>& state, std::uint64_t gen) {
  if (state->gen.load(std::memory_order_acquire) != gen) return;  // superseded
  {
    sync::LockGuard lock(state->mu);
    if (state->cancelled.load(std::memory_order_relaxed)) return;
    state->in_flight = true;
  }
  {
    runtime::BusyScope scope(state->loop);
    state->fn();
  }
  stats_.periodic_runs.fetch_add(1, std::memory_order_relaxed);
  bool cancelled;
  {
    sync::LockGuard lock(state->mu);
    state->in_flight = false;
    cancelled = state->cancelled.load(std::memory_order_relaxed);
    state->cv.notify_all();
  }
  if (cancelled || stopping_.load(std::memory_order_acquire)) return;
  if (state->gen.load(std::memory_order_acquire) != gen) return;  // trigger() raced us
  // Fixed delay: next due counts from this run's completion (or, in manual
  // mode, from the advance that ran it — one run per overdue advance).
  stats_.delayed.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<sched_detail::PeriodicState> self = state;
  schedule_timer(
      scheduler_now() + state->interval, [this, self, gen] { run_periodic(self, gen); },
      /*pinned=*/true, reinterpret_cast<std::uintptr_t>(state.get()), state->name.c_str());
}

inline void TaskScheduler::schedule_timer(util::TimeNs due, Task fn, bool pinned,
                                          std::uint64_t key, const char* name) {
  {
    sync::LockGuard lock(timers_->mu);
    timers_->heap.push_back(sched_detail::TimerEntry{due, timers_->next_order++,
                                                     std::move(fn), pinned, key, name});
    std::push_heap(timers_->heap.begin(), timers_->heap.end(), sched_detail::timer_later);
  }
  timer_version_.fetch_add(1, std::memory_order_release);
  if (!options_.manual) notify_all_workers();
}

inline std::size_t TaskScheduler::promote_due_timers(util::TimeNs now) {
  std::vector<sched_detail::TimerEntry> due;
  {
    sync::LockGuard lock(timers_->mu);
    while (!timers_->heap.empty() && timers_->heap.front().due <= now) {
      std::pop_heap(timers_->heap.begin(), timers_->heap.end(), sched_detail::timer_later);
      due.push_back(std::move(timers_->heap.back()));
      timers_->heap.pop_back();
    }
  }
  for (sched_detail::TimerEntry& e : due) {
    if (e.pinned) {
      stats_.pinned.fetch_add(1, std::memory_order_relaxed);
      enqueue_pinned(static_cast<std::size_t>(e.key % workers_.size()), std::move(e.fn),
                     e.name);
    } else if (!options_.manual && sched_detail::tls_scheduler == this) {
      enqueue_local(sched_detail::tls_worker_index, std::move(e.fn), e.name);
    } else {
      enqueue_local(static_cast<std::size_t>(
                        rr_next_.fetch_add(1, std::memory_order_relaxed)) %
                        workers_.size(),
                    std::move(e.fn), e.name);
    }
  }
  return due.size();
}

inline util::TimeNs TaskScheduler::next_timer_due() const {
  sync::LockGuard lock(timers_->mu);
  return timers_->heap.empty() ? sched_detail::kNoTimer : timers_->heap.front().due;
}

inline void TaskScheduler::notify_all_workers() {
  for (auto& w : workers_) {
    // Empty lock/unlock pairs with the waiter's held-mutex window: a worker
    // between its last state check and cv.wait() holds mu, so this blocks
    // until it actually waits and the notify is never lost.
    { sync::LockGuard lock(w->mu); }
    w->cv.notify_all();
  }
}

inline bool TaskScheduler::steal_into(std::size_t thief) {
  const std::size_t n = workers_.size();
  if (n <= 1) return false;
  for (std::size_t off = 1; off < n; ++off) {
    const std::size_t victim = (thief + off) % n;
    stats_.steal_attempts.fetch_add(1, std::memory_order_relaxed);
    std::vector<sched_detail::QueuedTask> loot;
    {
      sched_detail::Worker& v = *workers_[victim];
      sync::LockGuard lock(v.mu);
      const std::size_t take = (v.local.size() + 1) / 2;
      loot.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        loot.push_back(std::move(v.local.front()));
        v.local.pop_front();
      }
    }
    if (loot.empty()) continue;
    stats_.stolen.fetch_add(loot.size(), std::memory_order_relaxed);
    if (loot.size() > 1) {
      sched_detail::Worker& w = *workers_[thief];
      sync::LockGuard lock(w.mu);
      for (std::size_t i = 1; i < loot.size(); ++i) {
        w.local.push_back(std::move(loot[i]));
      }
    }
    ready_count_.fetch_sub(1, std::memory_order_relaxed);
    stats_.depth.store(ready_count_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    runtime::BusyScope scope(workers_[thief]->loop);
    run_queued(loot.front());
    return true;
  }
  return false;
}

inline void TaskScheduler::worker_loop(std::size_t index) {
  sched_detail::tls_scheduler = this;
  sched_detail::tls_worker_index = index;
  sched_detail::Worker& w = *workers_[index];
  for (;;) {
    sched_detail::QueuedTask task;
    bool have = false;
    {
      sync::LockGuard lock(w.mu);
      if (!w.pinned.empty()) {
        task = std::move(w.pinned.front());
        w.pinned.pop_front();
        have = true;
      } else if (!w.local.empty()) {
        task = std::move(w.local.back());  // LIFO: newest, cache-warm
        w.local.pop_back();
        have = true;
      }
    }
    if (have) {
      ready_count_.fetch_sub(1, std::memory_order_relaxed);
      stats_.depth.store(ready_count_.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
      runtime::BusyScope scope(w.loop);
      run_queued(task);
      continue;
    }
    const std::uint64_t tv = timer_version_.load(std::memory_order_acquire);
    if (promote_due_timers(scheduler_now()) > 0) continue;
    if (steal_into(index)) continue;
    if (stopping_.load(std::memory_order_acquire)) break;  // nothing anywhere: drained
    const util::TimeNs due = next_timer_due();
    sync::UniqueLock lock(w.mu);
    if (!w.pinned.empty() || !w.local.empty()) continue;
    if (stopping_.load(std::memory_order_acquire)) break;
    if (timer_version_.load(std::memory_order_acquire) != tv) continue;
    util::TimeNs wait_ns = sched_detail::kMaxIdleWaitNs;
    if (due != sched_detail::kNoTimer) {
      const util::TimeNs now = scheduler_now();
      if (due <= now) continue;
      wait_ns = std::min<util::TimeNs>(due - now, sched_detail::kMaxIdleWaitNs);
    }
    w.cv.wait_for(lock, std::chrono::nanoseconds(wait_ns));
  }
  sched_detail::tls_scheduler = nullptr;
}

inline std::size_t TaskScheduler::drain_queues() {
  std::size_t ran = 0;
  bool found = true;
  while (found) {
    found = false;
    for (auto& wp : workers_) {
      sched_detail::Worker& w = *wp;
      for (;;) {
        sched_detail::QueuedTask task;
        bool have = false;
        {
          sync::LockGuard lock(w.mu);
          if (!w.pinned.empty()) {
            task = std::move(w.pinned.front());
            w.pinned.pop_front();
            have = true;
          } else if (!w.local.empty()) {
            // FIFO here (unlike the worker's LIFO): manual mode and the
            // shutdown sweep run tasks in submission order, deterministically.
            task = std::move(w.local.front());
            w.local.pop_front();
            have = true;
          }
        }
        if (!have) break;
        found = true;
        ready_count_.fetch_sub(1, std::memory_order_relaxed);
        stats_.depth.store(ready_count_.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
        run_queued(task);
        ++ran;
      }
    }
  }
  return ran;
}

inline std::size_t TaskScheduler::run_ready() {
  if (!options_.manual) return 0;
  return drain_queues();
}

inline std::size_t TaskScheduler::advance_to(util::TimeNs now) {
  if (!options_.manual) return 0;
  util::TimeNs cur = manual_now_.load(std::memory_order_relaxed);
  while (cur < now &&
         !manual_now_.compare_exchange_weak(cur, now, std::memory_order_acq_rel)) {
  }
  std::size_t ran = drain_queues();
  while (promote_due_timers(manual_now_.load(std::memory_order_acquire)) > 0) {
    ran += drain_queues();
  }
  return ran;
}

inline void TaskScheduler::stop() {
  const bool first = !stopping_.exchange(true, std::memory_order_acq_rel);
  if (first && !options_.manual) {
    notify_all_workers();
    for (auto& w : workers_) {
      if (w->thread.joinable()) w->thread.join();
    }
  }
  {
    sync::LockGuard lock(timers_->mu);
    timers_->heap.clear();  // undue timers are dropped, not run early
  }
  // Final single-threaded sweep: anything still queued (e.g. pushed while
  // the workers were exiting) runs here so shutdown never loses work.
  drain_queues();
  stopped_.store(true, std::memory_order_release);
}

}  // namespace lms::core
