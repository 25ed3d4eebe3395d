#pragma once

// lms::core::sync — the stack's locking vocabulary.
//
// Every mutex in src/ is one of the wrappers below instead of a raw
// std::mutex / std::shared_mutex, which buys two independent layers of
// lock-discipline enforcement:
//
//  1. Compile time (Clang only): the wrappers carry Clang Thread Safety
//     Analysis capability attributes, and guarded fields / lock-requiring
//     methods across the stack are annotated with LMS_GUARDED_BY /
//     LMS_REQUIRES. `clang++ -Wthread-safety -Werror` then proves that no
//     guarded field is touched without its lock (ci/static_analysis.sh runs
//     this build). Under GCC all annotation macros expand to nothing.
//
//  2. Run time (debug builds only): every Mutex/SharedMutex is constructed
//     with a Rank from the documented global lock hierarchy (see the
//     "Concurrency invariants" section of DESIGN.md). A thread-local
//     held-lock stack asserts that blocking acquisitions happen in strictly
//     increasing (rank, seq) order, which makes lock-order inversions —
//     the deadlocks TSan only finds on the interleavings it happens to
//     execute — deterministic assertion failures on *any* execution that
//     merely reaches the second acquisition. Same-rank acquisitions are
//     ordered by a per-lock sequence token (defaults to the object address;
//     the TSDB shard stripes pass their shard index explicitly, turning the
//     ReadSnapshot ordered-fallback convention into an enforced invariant).
//     try_lock acquisitions cannot deadlock and are exempt from the order
//     check, but still count as held for subsequent blocking acquisitions.
//     The checker compiles out entirely when LMS_SYNC_RANK_CHECKS is 0
//     (default in NDEBUG builds): release wrappers are exactly a
//     std::mutex / std::shared_mutex, zero added state or branches.
//
//  3. Contention profiling (opt-in, works in release builds): with
//     LMS_SYNC_LOCK_STATS=1 (-DLMS_LOCK_STATS=ON) every wrapper accumulates
//     per-lock-site statistics into the process-wide lockstats table, keyed
//     by the (name, rank) the wrapper already carries — all stripes named
//     "tsdb.shard" aggregate into one site. Blocking acquisitions first
//     attempt an uncontended try_lock; only when that fails is the wait
//     timed (two clock reads), so the uncontended fast path costs one
//     failed-then-successful atomic exchange, a relaxed counter bump and a
//     hold-start timestamp. Exclusive holds are timed owner-side (shared
//     holds are not: a shared hold timestamp would race between readers).
//     The lockstats table and snapshot API compile unconditionally (they
//     are cold); only the hot-path hooks are gated, and a runtime toggle
//     (lockstats::set_enabled) lets one instrumented binary measure its own
//     overhead against the disabled baseline.
//
// Annotating new code (the short version; DESIGN.md has the full how-to):
//
//   class Thing {
//     void rebuild() LMS_REQUIRES(mu_);          // caller must hold mu_
//     core::sync::Mutex mu_{core::sync::Rank::kNet, "thing"};
//     std::map<...> state_ LMS_GUARDED_BY(mu_);  // only touched under mu_
//   };
//
// and take locks through the scoped wrappers (LockGuard / SharedLockGuard /
// WriteLockGuard / UniqueLock) so the analysis sees the acquire/release
// pair. CondVar deliberately has no predicate-taking wait: write the
// `while (!cond) cv.wait(lock);` loop in the caller, where the analysis
// knows the lock is held (a predicate lambda would be analyzed as an
// unannotated separate function and rejected).

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <shared_mutex>
#include <vector>

// ---------------------------------------------------------------------------
// Clang Thread Safety Analysis attribute macros (no-ops elsewhere).
// ---------------------------------------------------------------------------

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define LMS_TSA_ATTR(x) __attribute__((x))
#endif
#endif
#ifndef LMS_TSA_ATTR
#define LMS_TSA_ATTR(x)  // not Clang (or too old): annotations vanish
#endif

#define LMS_CAPABILITY(x) LMS_TSA_ATTR(capability(x))
#define LMS_SCOPED_CAPABILITY LMS_TSA_ATTR(scoped_lockable)
#define LMS_GUARDED_BY(x) LMS_TSA_ATTR(guarded_by(x))
#define LMS_PT_GUARDED_BY(x) LMS_TSA_ATTR(pt_guarded_by(x))
#define LMS_ACQUIRED_BEFORE(...) LMS_TSA_ATTR(acquired_before(__VA_ARGS__))
#define LMS_ACQUIRED_AFTER(...) LMS_TSA_ATTR(acquired_after(__VA_ARGS__))
#define LMS_REQUIRES(...) LMS_TSA_ATTR(requires_capability(__VA_ARGS__))
#define LMS_REQUIRES_SHARED(...) LMS_TSA_ATTR(requires_shared_capability(__VA_ARGS__))
#define LMS_ACQUIRE(...) LMS_TSA_ATTR(acquire_capability(__VA_ARGS__))
#define LMS_ACQUIRE_SHARED(...) LMS_TSA_ATTR(acquire_shared_capability(__VA_ARGS__))
#define LMS_RELEASE(...) LMS_TSA_ATTR(release_capability(__VA_ARGS__))
#define LMS_RELEASE_SHARED(...) LMS_TSA_ATTR(release_shared_capability(__VA_ARGS__))
#define LMS_TRY_ACQUIRE(...) LMS_TSA_ATTR(try_acquire_capability(__VA_ARGS__))
#define LMS_TRY_ACQUIRE_SHARED(...) LMS_TSA_ATTR(try_acquire_shared_capability(__VA_ARGS__))
#define LMS_EXCLUDES(...) LMS_TSA_ATTR(locks_excluded(__VA_ARGS__))
#define LMS_ASSERT_CAPABILITY(x) LMS_TSA_ATTR(assert_capability(x))
#define LMS_RETURN_CAPABILITY(x) LMS_TSA_ATTR(lock_returned(x))
#define LMS_NO_THREAD_SAFETY_ANALYSIS LMS_TSA_ATTR(no_thread_safety_analysis)

// ---------------------------------------------------------------------------
// Runtime lock-rank checking switch. Overridable per-TU / via CMake
// (-DLMS_RANK_CHECKS=ON|OFF); defaults to "debug builds only".
// ---------------------------------------------------------------------------

#ifndef LMS_SYNC_RANK_CHECKS
#ifdef NDEBUG
#define LMS_SYNC_RANK_CHECKS 0
#else
#define LMS_SYNC_RANK_CHECKS 1
#endif
#endif

// ---------------------------------------------------------------------------
// Contention-profiling switch (-DLMS_LOCK_STATS=ON). Off by default; unlike
// rank checking it is intended to be usable in optimized release builds.
// ---------------------------------------------------------------------------

#ifndef LMS_SYNC_LOCK_STATS
#define LMS_SYNC_LOCK_STATS 0
#endif

namespace lms::core::sync {

/// The global lock hierarchy. A thread may only block-acquire a lock whose
/// rank is strictly greater than every lock it already holds (same rank is
/// allowed with a strictly increasing per-lock `seq`). Ranks are spaced so
/// new tiers can slot in; the full table (lock, what it guards, allowed
/// nesting) lives in DESIGN.md "Concurrency invariants".
enum class Rank : int {
  kAppShim = 10,             ///< MPI/OpenMP/alloc shims feeding libusermetric
  kUserMetric = 20,          ///< UserMetricClient buffer (held across the send)
  kAnalysis = 25,            ///< stream aggregator / online rule engine
  kAlert = 30,               ///< alert evaluator (held across TSDB queries)
  kProfiler = 35,            ///< profiling SDK region stacks + aggregates
  kProfilingCollector = 36,  ///< per-collector open-bracket maps
  kDashboard = 40,           ///< dashboard agent store
  // 45 (kLoopControl) retired: the per-loop sleep/stop condvar locks died
  // with the migration of every background loop onto the TaskScheduler.
  kNet = 50,                 ///< inproc registry, tcp worker list, pub/sub broker
  kRouterTags = 54,          ///< router tag store
  kRouterIngest = 55,        ///< router async-ingest queues
  kRouterSpool = 56,         ///< router disk-spool deque
  kRouterJobs = 57,          ///< router running-job table
  kTsdbMap = 60,             ///< storage database map
  kTsdbShard = 65,           ///< series shard stripes (seq = shard index)
  kTsdbAux = 70,             ///< slow-query ring
  kQueue = 80,               ///< util::BoundedQueue internal lock
  kSched = 85,               ///< TaskScheduler worker queues + timer heap (seq = worker)
  kObsRegistry = 90,         ///< metrics registry instrument map
  kObsTrace = 92,            ///< span recorder ring
  kObsProfile = 93,          ///< CPU profiler fold table + symbol cache
  kRuntimeRegistry = 95,     ///< core::runtime queue/loop stats registry
  kLogging = 100,            ///< logger/log-ring: any thread may log anywhere
};

/// True when this translation unit was compiled with the runtime rank
/// checker; tests assert both states.
inline constexpr bool kRankCheckingEnabled = LMS_SYNC_RANK_CHECKS != 0;

/// True when this translation unit was compiled with contention profiling
/// (LMS_SYNC_LOCK_STATS, i.e. -DLMS_LOCK_STATS=ON).
inline constexpr bool kLockStatsEnabled = LMS_SYNC_LOCK_STATS != 0;

/// Sentinel for "order same-rank locks by object address" (the default).
inline constexpr std::uintptr_t kSeqFromAddress = ~std::uintptr_t{0};

// ---------------------------------------------------------------------------
// lockstats — the per-lock-site contention registry.
//
// Always compiled (it is cold data + snapshot code); only the wrapper
// hot-path hooks are gated on LMS_SYNC_LOCK_STATS. That way a test binary
// that pins the macro per-TU instruments its own header-inline wrappers
// while still sharing this one process-wide table, and the export layer in
// lms::obs can read snapshots regardless of how its own TU was compiled.
// ---------------------------------------------------------------------------

namespace lockstats {

/// Log2 wait-time histogram: bucket i counts waits with
/// bit_width(wait_ns) == i (bucket 39 is the overflow tail, ~9 minutes+).
inline constexpr std::size_t kWaitBuckets = 40;

/// Fixed capacity of the site table. Sites are (name, rank) pairs — one per
/// distinct wrapper construction site, not per instance — so the stack uses
/// a few dozen. Registrations past the cap are counted in dropped().
inline constexpr std::size_t kMaxSites = 128;

/// One lock site: every counter is a relaxed atomic bumped from the wrapper
/// hot path; readers snapshot them without stopping writers.
struct SiteStats {
  std::atomic<const char*> name{nullptr};
  std::atomic<int> rank{0};
  std::atomic<std::uint64_t> acquisitions{0};  ///< all lock/try_lock successes
  std::atomic<std::uint64_t> contended{0};     ///< acquisitions that had to wait
  std::atomic<std::uint64_t> wait_ns_total{0};
  std::atomic<std::uint64_t> wait_ns_max{0};
  std::atomic<std::uint64_t> hold_ns_total{0};  ///< exclusive holds only
  std::atomic<std::uint64_t> hold_ns_max{0};
  std::array<std::atomic<std::uint64_t>, kWaitBuckets> wait_hist{};
};

namespace impl {

struct Table {
  std::array<SiteStats, kMaxSites> slots;
  std::atomic<std::size_t> used{0};
  std::atomic<std::uint64_t> dropped{0};
};

inline Table& table() {
  static Table t;
  return t;
}

/// Serializes registration only (construction-time cold path). A raw
/// std::mutex is fine here: this header is the one place allowed to use
/// one, it is a leaf (nothing is acquired under it), and it must not be a
/// sync::Mutex (whose constructor is the caller).
inline std::mutex& intern_mu() {
  static std::mutex mu;
  return mu;
}

inline std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{true};
  return flag;
}

inline bool site_matches(const SiteStats& slot, const char* name, int rank) {
  const char* slot_name = slot.name.load(std::memory_order_acquire);
  return slot_name != nullptr && slot.rank.load(std::memory_order_relaxed) == rank &&
         (slot_name == name || std::strcmp(slot_name, name) == 0);
}

}  // namespace impl

/// Monotonic nanoseconds for wait/hold timing. Local to this header so core
/// stays below util in the layering.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

/// Runtime toggle for the (compiled-in) hot-path hooks. Default on. Lets
/// bench_lock_stats measure instrumented-vs-not in a single binary.
inline bool enabled() { return impl::enabled_flag().load(std::memory_order_relaxed); }
inline void set_enabled(bool on) { impl::enabled_flag().store(on, std::memory_order_relaxed); }

/// Sites that could not be registered because the table was full.
inline std::uint64_t dropped_sites() {
  return impl::table().dropped.load(std::memory_order_relaxed);
}

/// Find-or-create the stats slot for (name, rank). Called once per wrapper
/// construction; nullptr when the table is full (the wrapper then simply
/// records nothing). Names are compared by content, so identical literals
/// duplicated across translation units still share one site.
inline SiteStats* intern_site(const char* name, int rank) {
  if (name == nullptr) name = "<unnamed>";
  impl::Table& t = impl::table();
  const std::size_t seen = t.used.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < seen; ++i) {
    if (impl::site_matches(t.slots[i], name, rank)) return &t.slots[i];
  }
  std::lock_guard<std::mutex> guard(impl::intern_mu());
  const std::size_t used = t.used.load(std::memory_order_relaxed);
  for (std::size_t i = seen; i < used; ++i) {
    if (impl::site_matches(t.slots[i], name, rank)) return &t.slots[i];
  }
  if (used >= kMaxSites) {
    t.dropped.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  SiteStats& slot = t.slots[used];
  slot.rank.store(rank, std::memory_order_relaxed);
  slot.name.store(name, std::memory_order_release);
  t.used.store(used + 1, std::memory_order_release);
  return &slot;
}

inline void atomic_max(std::atomic<std::uint64_t>& target, std::uint64_t value) {
  std::uint64_t cur = target.load(std::memory_order_relaxed);
  while (cur < value &&
         !target.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

inline std::size_t wait_bucket(std::uint64_t wait_ns) {
  return std::min<std::size_t>(static_cast<std::size_t>(std::bit_width(wait_ns)),
                               kWaitBuckets - 1);
}

/// Inclusive upper bound of histogram bucket i in nanoseconds.
inline std::uint64_t bucket_upper_ns(std::size_t i) {
  if (i >= kWaitBuckets - 1) return ~std::uint64_t{0};
  return (std::uint64_t{1} << i) - 1;
}

inline void record_acquire(SiteStats* s) {
  s->acquisitions.fetch_add(1, std::memory_order_relaxed);
}

inline void record_wait(SiteStats* s, std::uint64_t wait_ns) {
  s->contended.fetch_add(1, std::memory_order_relaxed);
  s->wait_ns_total.fetch_add(wait_ns, std::memory_order_relaxed);
  atomic_max(s->wait_ns_max, wait_ns);
  s->wait_hist[wait_bucket(wait_ns)].fetch_add(1, std::memory_order_relaxed);
}

inline void record_hold(SiteStats* s, std::uint64_t hold_ns) {
  s->hold_ns_total.fetch_add(hold_ns, std::memory_order_relaxed);
  atomic_max(s->hold_ns_max, hold_ns);
}

/// Point-in-time copy of one site. Counters are read relaxed and
/// independently, so a snapshot taken under load is approximate (e.g.
/// contended may momentarily exceed the matching histogram sum).
struct SiteSnapshot {
  const char* name;
  int rank;
  std::uint64_t acquisitions;
  std::uint64_t contended;
  std::uint64_t wait_ns_total;
  std::uint64_t wait_ns_max;
  std::uint64_t hold_ns_total;
  std::uint64_t hold_ns_max;
  std::array<std::uint64_t, kWaitBuckets> wait_hist;
};

/// Approximate q-quantile (0..1) of the wait distribution: the upper bound
/// of the first histogram bucket reaching the target cumulative count.
inline std::uint64_t wait_quantile_ns(const SiteSnapshot& s, double q) {
  std::uint64_t total = 0;
  for (std::uint64_t c : s.wait_hist) total += c;
  if (total == 0) return 0;
  const auto target = static_cast<std::uint64_t>(q * static_cast<double>(total));
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < kWaitBuckets; ++i) {
    cum += s.wait_hist[i];
    if (cum > target || (q >= 1.0 && cum == total)) return bucket_upper_ns(i);
  }
  return bucket_upper_ns(kWaitBuckets - 1);
}

/// All registered sites, sorted by wait_ns_total descending (the
/// "contention ranking" /debug/runtime serves).
inline std::vector<SiteSnapshot> snapshot() {
  impl::Table& t = impl::table();
  const std::size_t used = t.used.load(std::memory_order_acquire);
  std::vector<SiteSnapshot> out;
  out.reserve(used);
  for (std::size_t i = 0; i < used; ++i) {
    const SiteStats& s = t.slots[i];
    SiteSnapshot snap;
    snap.name = s.name.load(std::memory_order_acquire);
    snap.rank = s.rank.load(std::memory_order_relaxed);
    snap.acquisitions = s.acquisitions.load(std::memory_order_relaxed);
    snap.contended = s.contended.load(std::memory_order_relaxed);
    snap.wait_ns_total = s.wait_ns_total.load(std::memory_order_relaxed);
    snap.wait_ns_max = s.wait_ns_max.load(std::memory_order_relaxed);
    snap.hold_ns_total = s.hold_ns_total.load(std::memory_order_relaxed);
    snap.hold_ns_max = s.hold_ns_max.load(std::memory_order_relaxed);
    for (std::size_t b = 0; b < kWaitBuckets; ++b) {
      snap.wait_hist[b] = s.wait_hist[b].load(std::memory_order_relaxed);
    }
    out.push_back(snap);
  }
  std::sort(out.begin(), out.end(), [](const SiteSnapshot& a, const SiteSnapshot& b) {
    if (a.wait_ns_total != b.wait_ns_total) return a.wait_ns_total > b.wait_ns_total;
    return a.acquisitions > b.acquisitions;
  });
  return out;
}

/// Zero every counter while keeping site registrations (and the cached
/// SiteStats* in live wrappers) valid. Tests and the bench use this between
/// phases; concurrent updates during the reset may survive it.
inline void reset() {
  impl::Table& t = impl::table();
  const std::size_t used = t.used.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < used; ++i) {
    SiteStats& s = t.slots[i];
    s.acquisitions.store(0, std::memory_order_relaxed);
    s.contended.store(0, std::memory_order_relaxed);
    s.wait_ns_total.store(0, std::memory_order_relaxed);
    s.wait_ns_max.store(0, std::memory_order_relaxed);
    s.hold_ns_total.store(0, std::memory_order_relaxed);
    s.hold_ns_max.store(0, std::memory_order_relaxed);
    for (auto& b : s.wait_hist) b.store(0, std::memory_order_relaxed);
  }
}

}  // namespace lockstats

/// Called with a human-readable description when a rank violation is
/// detected. Default (nullptr) prints to stderr and aborts; tests install a
/// capturing handler instead.
using RankViolationHandler = void (*)(const char* message);

namespace detail {

inline std::atomic<RankViolationHandler>& violation_handler_slot() {
  static std::atomic<RankViolationHandler> slot{nullptr};
  return slot;
}

#if LMS_SYNC_RANK_CHECKS

struct HeldLock {
  const void* addr;
  int rank;
  std::uintptr_t seq;
  const char* name;
  bool try_acquired;
};

inline std::vector<HeldLock>& held_stack() {
  static thread_local std::vector<HeldLock> stack;
  return stack;
}

inline void report_violation(const char* message) {
  RankViolationHandler handler = violation_handler_slot().load(std::memory_order_acquire);
  if (handler != nullptr) {
    handler(message);
    return;
  }
  std::fprintf(stderr, "%s\n", message);
  std::abort();
}

/// Validate a *blocking* acquisition of (rank, seq) against the held stack.
/// Runs before the acquisition so the report fires even if the acquisition
/// would deadlock.
inline void check_order(const void* addr, int rank, std::uintptr_t seq, const char* name) {
  const std::vector<HeldLock>& held = held_stack();
  char msg[512];
  for (const HeldLock& h : held) {
    if (h.addr == addr) {
      std::snprintf(msg, sizeof(msg),
                    "lock-rank violation: re-acquiring lock '%s' (rank %d) already held by "
                    "this thread (self-deadlock)",
                    name, rank);
      report_violation(msg);
      return;
    }
  }
  const HeldLock* top = nullptr;
  for (const HeldLock& h : held) {
    if (top == nullptr || h.rank > top->rank || (h.rank == top->rank && h.seq > top->seq)) {
      top = &h;
    }
  }
  if (top == nullptr) return;
  if (rank < top->rank) {
    std::snprintf(msg, sizeof(msg),
                  "lock-rank violation: acquiring '%s' (rank %d) while holding '%s' (rank %d); "
                  "the lock hierarchy requires strictly increasing rank",
                  name, rank, top->name, top->rank);
    report_violation(msg);
  } else if (rank == top->rank && seq <= top->seq) {
    std::snprintf(msg, sizeof(msg),
                  "lock-rank violation: same-rank cross-order acquisition of '%s' "
                  "(rank %d, seq %llu) while holding '%s' (rank %d, seq %llu); same-rank locks "
                  "must be taken in increasing seq order",
                  name, rank, static_cast<unsigned long long>(seq), top->name, top->rank,
                  static_cast<unsigned long long>(top->seq));
    report_violation(msg);
  }
}

/// Reentrance check for try-acquisitions (try_lock of a lock this thread
/// already holds is UB on std::mutex and a guaranteed-false result at best).
inline void check_reentrance(const void* addr, const char* name) {
  for (const HeldLock& h : held_stack()) {
    if (h.addr == addr) {
      char msg[512];
      std::snprintf(msg, sizeof(msg),
                    "lock-rank violation: try-acquiring lock '%s' already held by this thread",
                    name);
      report_violation(msg);
      return;
    }
  }
}

inline void note_acquire(const void* addr, int rank, std::uintptr_t seq, const char* name,
                         bool try_acquired) {
  held_stack().push_back(HeldLock{addr, rank, seq, name, try_acquired});
}

/// Locks may be released in any order (ReadSnapshot releases front-to-back),
/// so erase by address rather than popping.
inline void note_release(const void* addr) {
  std::vector<HeldLock>& held = held_stack();
  for (auto it = held.rbegin(); it != held.rend(); ++it) {
    if (it->addr == addr) {
      held.erase(std::next(it).base());
      return;
    }
  }
}

#endif  // LMS_SYNC_RANK_CHECKS

}  // namespace detail

/// Install a violation handler (nullptr restores print-and-abort). Returns
/// the previous handler. Affects all threads; meant for tests.
inline RankViolationHandler set_rank_violation_handler(RankViolationHandler handler) {
  return detail::violation_handler_slot().exchange(handler, std::memory_order_acq_rel);
}

/// Number of sync locks the calling thread currently holds (0 when the
/// checker is compiled out). Test/debug helper.
inline std::size_t held_lock_count() {
#if LMS_SYNC_RANK_CHECKS
  return detail::held_stack().size();
#else
  return 0;
#endif
}

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

class LMS_CAPABILITY("mutex") Mutex {
 public:
  /// `seq` orders same-rank locks; the default orders by object address.
  /// Pass an explicit small seq (e.g. a shard index) when same-rank locks
  /// live behind unique_ptrs and addresses are not meaningful.
  explicit Mutex(Rank rank, const char* name, std::uintptr_t seq = kSeqFromAddress)
#if LMS_SYNC_RANK_CHECKS
      : rank_(static_cast<int>(rank)),
        seq_(seq == kSeqFromAddress ? reinterpret_cast<std::uintptr_t>(this) : seq),
        name_(name)
#endif
  {
#if LMS_SYNC_LOCK_STATS
    stats_ = lockstats::intern_site(name, static_cast<int>(rank));
#endif
#if !LMS_SYNC_RANK_CHECKS && !LMS_SYNC_LOCK_STATS
    (void)rank;
    (void)name;
#endif
#if !LMS_SYNC_RANK_CHECKS
    (void)seq;
#endif
  }

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() LMS_ACQUIRE() {
#if LMS_SYNC_RANK_CHECKS
    detail::check_order(this, rank_, seq_, name_);
#endif
#if LMS_SYNC_LOCK_STATS
    // Uncontended fast path: one try_lock, no clock reads for the wait.
    if (stats_ != nullptr && lockstats::enabled()) {
      if (!mu_.try_lock()) {
        const std::uint64_t wait_start = lockstats::now_ns();
        mu_.lock();
        lockstats::record_wait(stats_, lockstats::now_ns() - wait_start);
      }
      lockstats::record_acquire(stats_);
      hold_start_ns_ = lockstats::now_ns();
    } else {
      mu_.lock();
      hold_start_ns_ = 0;
    }
#else
    mu_.lock();
#endif
#if LMS_SYNC_RANK_CHECKS
    detail::note_acquire(this, rank_, seq_, name_, /*try_acquired=*/false);
#endif
  }

  void unlock() LMS_RELEASE() {
#if LMS_SYNC_RANK_CHECKS
    detail::note_release(this);
#endif
#if LMS_SYNC_LOCK_STATS
    // hold_start_ns_ is owner-only state: written after acquiring, read
    // here before releasing. 0 means "acquired while stats were off".
    if (stats_ != nullptr && hold_start_ns_ != 0) {
      lockstats::record_hold(stats_, lockstats::now_ns() - hold_start_ns_);
      hold_start_ns_ = 0;
    }
#endif
    mu_.unlock();
  }

  bool try_lock() LMS_TRY_ACQUIRE(true) {
#if LMS_SYNC_RANK_CHECKS
    detail::check_reentrance(this, name_);
#endif
    const bool locked = mu_.try_lock();
#if LMS_SYNC_LOCK_STATS
    if (locked) {
      if (stats_ != nullptr && lockstats::enabled()) {
        lockstats::record_acquire(stats_);
        hold_start_ns_ = lockstats::now_ns();
      } else {
        hold_start_ns_ = 0;
      }
    }
#endif
#if LMS_SYNC_RANK_CHECKS
    if (locked) detail::note_acquire(this, rank_, seq_, name_, /*try_acquired=*/true);
#endif
    return locked;
  }

 private:
  friend class CondVar;

  std::mutex mu_;
#if LMS_SYNC_RANK_CHECKS
  int rank_;
  std::uintptr_t seq_;
  const char* name_;
#endif
#if LMS_SYNC_LOCK_STATS
  lockstats::SiteStats* stats_;
  std::uint64_t hold_start_ns_ = 0;
#endif
};

// ---------------------------------------------------------------------------
// SharedMutex
// ---------------------------------------------------------------------------

class LMS_CAPABILITY("shared_mutex") SharedMutex {
 public:
  explicit SharedMutex(Rank rank, const char* name, std::uintptr_t seq = kSeqFromAddress)
#if LMS_SYNC_RANK_CHECKS
      : rank_(static_cast<int>(rank)),
        seq_(seq == kSeqFromAddress ? reinterpret_cast<std::uintptr_t>(this) : seq),
        name_(name)
#endif
  {
#if LMS_SYNC_LOCK_STATS
    stats_ = lockstats::intern_site(name, static_cast<int>(rank));
#endif
#if !LMS_SYNC_RANK_CHECKS && !LMS_SYNC_LOCK_STATS
    (void)rank;
    (void)name;
#endif
#if !LMS_SYNC_RANK_CHECKS
    (void)seq;
#endif
  }

  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() LMS_ACQUIRE() {
#if LMS_SYNC_RANK_CHECKS
    detail::check_order(this, rank_, seq_, name_);
#endif
#if LMS_SYNC_LOCK_STATS
    if (stats_ != nullptr && lockstats::enabled()) {
      if (!mu_.try_lock()) {
        const std::uint64_t wait_start = lockstats::now_ns();
        mu_.lock();
        lockstats::record_wait(stats_, lockstats::now_ns() - wait_start);
      }
      lockstats::record_acquire(stats_);
      hold_start_ns_ = lockstats::now_ns();
    } else {
      mu_.lock();
      hold_start_ns_ = 0;
    }
#else
    mu_.lock();
#endif
#if LMS_SYNC_RANK_CHECKS
    detail::note_acquire(this, rank_, seq_, name_, /*try_acquired=*/false);
#endif
  }

  void unlock() LMS_RELEASE() {
#if LMS_SYNC_RANK_CHECKS
    detail::note_release(this);
#endif
#if LMS_SYNC_LOCK_STATS
    if (stats_ != nullptr && hold_start_ns_ != 0) {
      lockstats::record_hold(stats_, lockstats::now_ns() - hold_start_ns_);
      hold_start_ns_ = 0;
    }
#endif
    mu_.unlock();
  }

  void lock_shared() LMS_ACQUIRE_SHARED() {
#if LMS_SYNC_RANK_CHECKS
    detail::check_order(this, rank_, seq_, name_);
#endif
#if LMS_SYNC_LOCK_STATS
    // Shared waits are timed; shared holds are not (a hold timestamp
    // shared between concurrent readers would race).
    if (stats_ != nullptr && lockstats::enabled()) {
      if (!mu_.try_lock_shared()) {
        const std::uint64_t wait_start = lockstats::now_ns();
        mu_.lock_shared();
        lockstats::record_wait(stats_, lockstats::now_ns() - wait_start);
      }
      lockstats::record_acquire(stats_);
    } else {
      mu_.lock_shared();
    }
#else
    mu_.lock_shared();
#endif
#if LMS_SYNC_RANK_CHECKS
    detail::note_acquire(this, rank_, seq_, name_, /*try_acquired=*/false);
#endif
  }

  void unlock_shared() LMS_RELEASE_SHARED() {
#if LMS_SYNC_RANK_CHECKS
    detail::note_release(this);
#endif
    mu_.unlock_shared();
  }

  bool try_lock() LMS_TRY_ACQUIRE(true) {
#if LMS_SYNC_RANK_CHECKS
    detail::check_reentrance(this, name_);
#endif
    const bool locked = mu_.try_lock();
#if LMS_SYNC_LOCK_STATS
    if (locked) {
      if (stats_ != nullptr && lockstats::enabled()) {
        lockstats::record_acquire(stats_);
        hold_start_ns_ = lockstats::now_ns();
      } else {
        hold_start_ns_ = 0;
      }
    }
#endif
#if LMS_SYNC_RANK_CHECKS
    if (locked) detail::note_acquire(this, rank_, seq_, name_, /*try_acquired=*/true);
#endif
    return locked;
  }

  bool try_lock_shared() LMS_TRY_ACQUIRE_SHARED(true) {
#if LMS_SYNC_RANK_CHECKS
    detail::check_reentrance(this, name_);
#endif
    const bool locked = mu_.try_lock_shared();
#if LMS_SYNC_LOCK_STATS
    if (locked && stats_ != nullptr && lockstats::enabled()) {
      lockstats::record_acquire(stats_);
    }
#endif
#if LMS_SYNC_RANK_CHECKS
    if (locked) detail::note_acquire(this, rank_, seq_, name_, /*try_acquired=*/true);
#endif
    return locked;
  }

 private:
  std::shared_mutex mu_;
#if LMS_SYNC_RANK_CHECKS
  int rank_;
  std::uintptr_t seq_;
  const char* name_;
#endif
#if LMS_SYNC_LOCK_STATS
  lockstats::SiteStats* stats_;
  std::uint64_t hold_start_ns_ = 0;
#endif
};

// ---------------------------------------------------------------------------
// Scoped wrappers
// ---------------------------------------------------------------------------

/// std::lock_guard equivalent over sync::Mutex.
class LMS_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& mu) LMS_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~LockGuard() LMS_RELEASE() { mu_.unlock(); }
  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& mu_;
};

/// std::shared_lock equivalent over sync::SharedMutex (reader side).
class LMS_SCOPED_CAPABILITY SharedLockGuard {
 public:
  explicit SharedLockGuard(SharedMutex& mu) LMS_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.lock_shared();
  }
  ~SharedLockGuard() LMS_RELEASE() { mu_.unlock_shared(); }
  SharedLockGuard(const SharedLockGuard&) = delete;
  SharedLockGuard& operator=(const SharedLockGuard&) = delete;

 private:
  SharedMutex& mu_;
};

/// std::unique_lock<std::shared_mutex> equivalent (writer side).
class LMS_SCOPED_CAPABILITY WriteLockGuard {
 public:
  explicit WriteLockGuard(SharedMutex& mu) LMS_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~WriteLockGuard() LMS_RELEASE() { mu_.unlock(); }
  WriteLockGuard(const WriteLockGuard&) = delete;
  WriteLockGuard& operator=(const WriteLockGuard&) = delete;

 private:
  SharedMutex& mu_;
};

/// Relockable scoped lock over sync::Mutex; the only lock CondVar accepts.
class LMS_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& mu) LMS_ACQUIRE(mu) : mu_(&mu) {
    mu_->lock();
    owned_ = true;
  }
  ~UniqueLock() LMS_RELEASE() {
    if (owned_) mu_->unlock();
  }
  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void lock() LMS_ACQUIRE() {
    mu_->lock();
    owned_ = true;
  }
  void unlock() LMS_RELEASE() {
    mu_->unlock();
    owned_ = false;
  }
  bool owns_lock() const { return owned_; }

 private:
  friend class CondVar;

  Mutex* mu_;
  bool owned_ = false;
};

// ---------------------------------------------------------------------------
// CondVar
// ---------------------------------------------------------------------------

/// Condition variable bound to sync::Mutex via UniqueLock. Deliberately has
/// no predicate overloads — spell the `while (!cond) wait(lock);` loop at
/// the call site so Clang's analysis sees guarded reads under the held lock.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

  /// The lock must be owned. The wait releases and re-acquires it; the rank
  /// checker unwinds and replays the bookkeeping accordingly, so waiting
  /// while holding a *higher*-ranked second lock is flagged on wakeup.
  void wait(UniqueLock& lock) {
    Mutex& mu = *lock.mu_;
#if LMS_SYNC_RANK_CHECKS
    detail::note_release(&mu);
#endif
#if LMS_SYNC_LOCK_STATS
    // The wait releases the mutex: close out the current hold so time spent
    // asleep is not billed as hold time, then restart after re-acquiring.
    if (mu.stats_ != nullptr && mu.hold_start_ns_ != 0) {
      lockstats::record_hold(mu.stats_, lockstats::now_ns() - mu.hold_start_ns_);
      mu.hold_start_ns_ = 0;
    }
#endif
    {
      std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
      cv_.wait(native);
      native.release();
    }
#if LMS_SYNC_LOCK_STATS
    if (mu.stats_ != nullptr && lockstats::enabled()) {
      lockstats::record_acquire(mu.stats_);
      mu.hold_start_ns_ = lockstats::now_ns();
    }
#endif
#if LMS_SYNC_RANK_CHECKS
    detail::check_order(&mu, mu.rank_, mu.seq_, mu.name_);
    detail::note_acquire(&mu, mu.rank_, mu.seq_, mu.name_, /*try_acquired=*/false);
#endif
  }

  template <class Rep, class Period>
  std::cv_status wait_for(UniqueLock& lock, const std::chrono::duration<Rep, Period>& dur) {
    Mutex& mu = *lock.mu_;
#if LMS_SYNC_RANK_CHECKS
    detail::note_release(&mu);
#endif
#if LMS_SYNC_LOCK_STATS
    if (mu.stats_ != nullptr && mu.hold_start_ns_ != 0) {
      lockstats::record_hold(mu.stats_, lockstats::now_ns() - mu.hold_start_ns_);
      mu.hold_start_ns_ = 0;
    }
#endif
    std::cv_status status;
    {
      std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
      status = cv_.wait_for(native, dur);
      native.release();
    }
#if LMS_SYNC_LOCK_STATS
    if (mu.stats_ != nullptr && lockstats::enabled()) {
      lockstats::record_acquire(mu.stats_);
      mu.hold_start_ns_ = lockstats::now_ns();
    }
#endif
#if LMS_SYNC_RANK_CHECKS
    detail::check_order(&mu, mu.rank_, mu.seq_, mu.name_);
    detail::note_acquire(&mu, mu.rank_, mu.seq_, mu.name_, /*try_acquired=*/false);
#endif
    return status;
  }

 private:
  std::condition_variable cv_;
};

}  // namespace lms::core::sync
