#pragma once

// Embedded time-series storage engine — the InfluxDB stand-in (§III-C).
//
// Model (matches InfluxDB 1.x):
//   database -> measurement -> series (unique tag set) -> field columns
// A series holds one column per field key. Writes are typically time-ordered
// per series; out-of-order writes are handled by sorted insertion.
//
// Typed columns (the TSM layout: one typed, time-sorted block per field): a
// column is a contiguous time vector plus ONE value vector of the column's
// type — double, int64, bool (stored as uint8_t) or string. Strings only
// occur in event, trace and profile series. The first value written fixes
// the column's type; a later value of another type is rejected for that
// field only (InfluxDB 1.x's "field type conflict"): the point's other
// fields and the batch's other points still land, and the write calls
// return the number of rejected values. A float sample takes 16 B (8 B time
// + 8 B value) before vector slack; a per-sample std::variant<double,
// int64_t, bool, std::string> value would take 8 B + 40 B on libstdc++.
//
// Concurrency: each Database is partitioned into N lock-striped shards keyed
// by series-key hash (measurement + tag set), so writes to different series
// proceed in parallel and retention sweeps one stripe at a time instead of
// stalling the world. Readers never touch a mutex directly: the only way to
// reach series data concurrently is a ReadSnapshot — an RAII guard that
// acquires every stripe shared once and hands out stable `const Series*`
// views for its lifetime. Writers use the WriteBatch value object (database +
// precision + default timestamp + points), which the storage applies shard by
// shard. A snapshot taken while a batch is being applied may observe a prefix
// of that batch (per-stripe atomicity, not per-batch) — acceptable for a
// monitoring store and the price of not having a global lock.
//
// Scheduler offload (set_scheduler): with a core::TaskScheduler attached,
// a writer that finds a stripe contended does not join the convoy blocking
// on the stripe mutex. It stages its per-stripe point group into the
// shard's staging buffer (a tiny kTsdbStage lock) and a single drain task —
// pinned to the stripe index, so same-stripe drains always land on the same
// worker and are never concurrent — applies every staged group under ONE
// stripe acquisition, then wakes the waiting writers. Semantics are
// unchanged (write() still returns only after the points are applied:
// read-your-writes holds); what changes is that N convoying writers become
// one drain task, so stripe lock-wait and handoff churn collapse. Writers
// on scheduler worker threads (e.g. the router's flusher task) apply
// inline — a worker must never block waiting on work only another task on
// the same worker could perform.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "lms/core/sync.hpp"
#include "lms/core/taskscheduler.hpp"
#include "lms/lineproto/point.hpp"
#include "lms/util/status.hpp"

namespace lms::tsdb {

using lineproto::FieldValue;
using lineproto::Point;
using lineproto::Tag;
using util::TimeNs;

/// A field column: a sorted time vector and one typed value vector.
class Column {
 public:
  /// Value type of a column; the index of its vector in the value variant.
  enum class Type : std::uint8_t { kFloat, kInt, kBool, kString };

  /// Insert one sample in time order. The first value fixes the column's
  /// type; a value of another type is not stored and returns false.
  bool append(TimeNs t, const FieldValue& v);
  std::size_t size() const { return times_.size(); }
  bool empty() const { return times_.empty(); }
  Type type() const { return static_cast<Type>(values_.index()); }
  bool is_numeric() const { return type() == Type::kFloat || type() == Type::kInt; }

  const std::vector<TimeNs>& times() const { return times_; }
  /// Typed views; empty unless the column has that type.
  std::span<const double> floats() const { return view<double>(); }
  std::span<const std::int64_t> ints() const { return view<std::int64_t>(); }
  std::span<const std::uint8_t> bools() const { return view<std::uint8_t>(); }
  std::span<const std::string> strings() const { return view<std::string>(); }

  /// Sample i of a numeric column as a double (ints widened).
  double number_at(std::size_t i) const {
    return type() == Type::kFloat ? floats()[i] : static_cast<double>(ints()[i]);
  }
  /// Sample i boxed as a FieldValue, for generic readers (persistence,
  /// first()/last() and raw query cells).
  FieldValue value_at(std::size_t i) const;

  /// Index of the first sample with time >= t.
  std::size_t lower_bound(TimeNs t) const;

  /// Drop all samples with time < cutoff; returns number dropped.
  std::size_t drop_before(TimeNs cutoff);

 private:
  static constexpr std::size_t kInitialCapacity = 16;  ///< numeric/bool columns

  template <typename T>
  std::span<const T> view() const {
    const auto* v = std::get_if<std::vector<T>>(&values_);
    return v != nullptr ? std::span<const T>(*v) : std::span<const T>();
  }

  std::vector<TimeNs> times_;
  std::variant<std::vector<double>, std::vector<std::int64_t>, std::vector<std::uint8_t>,
               std::vector<std::string>>
      values_;
};

/// A series: one measurement + unique sorted tag set.
struct Series {
  std::string measurement;
  std::vector<Tag> tags;  // sorted by key
  std::map<std::string, Column> columns;

  std::string_view tag(std::string_view key) const;
};

/// A write in one value object: database + timestamp handling + points.
/// This is the unit the HTTP façade and the router's ingest/spool paths
/// produce and the storage consumes.
struct WriteBatch {
  std::string db;
  /// Timestamp assigned to points whose own timestamp is 0.
  TimeNs default_time = 0;
  /// Precision multiplier applied to non-zero point timestamps: 1 for ns
  /// (the wire default), 1e3 for u, 1e6 for ms, 1e9 for s.
  TimeNs timestamp_scale = 1;
  std::vector<Point> points;
};

class Database;

/// RAII read guard over one database: acquires every shard lock shared on
/// construction and releases on destruction. While it lives, `const Series*`
/// views obtained through the database are stable (writes and retention to
/// the guarded shards are blocked). Default-constructed or failed lookups are
/// empty; test with operator bool.
class ReadSnapshot {
 public:
  ReadSnapshot() = default;
  /// Snapshot a database directly (also used for standalone Database tests).
  /// The dynamic set of stripe locks is not expressible in thread-safety
  /// annotations, so acquisition and release opt out of the analysis; the
  /// runtime rank checker still validates the stripe order (kTsdbShard with
  /// seq = stripe index).
  explicit ReadSnapshot(const Database& db) LMS_NO_THREAD_SAFETY_ANALYSIS;
  ReadSnapshot(ReadSnapshot&& other) noexcept
      : db_(other.db_), locks_(std::move(other.locks_)) {
    other.db_ = nullptr;
    other.locks_.clear();
  }
  ReadSnapshot& operator=(ReadSnapshot&& other) noexcept {
    if (this != &other) {
      release();
      db_ = other.db_;
      locks_ = std::move(other.locks_);
      other.db_ = nullptr;
      other.locks_.clear();
    }
    return *this;
  }
  ~ReadSnapshot() { release(); }

  explicit operator bool() const { return db_ != nullptr; }
  const Database* operator->() const { return db_; }
  const Database& operator*() const { return *db_; }
  const Database* get() const { return db_; }

  /// Release the locks early (the snapshot becomes empty).
  void release() LMS_NO_THREAD_SAFETY_ANALYSIS;

 private:
  const Database* db_ = nullptr;
  std::vector<core::sync::SharedMutex*> locks_;
};

/// A single database, internally partitioned into lock-striped shards.
///
/// Write/retention entry points lock the stripes they touch internally. Read
/// accessors (series_of, measurements, counts, ...) do NOT lock: concurrent
/// callers must hold a ReadSnapshot; single-threaded callers (unit tests)
/// may call them directly.
class Database {
 public:
  static constexpr std::size_t kDefaultShards = 16;

  explicit Database(std::string name, std::size_t shard_count = kDefaultShards);

  const std::string& name() const { return name_; }
  std::size_t shard_count() const { return shards_.size(); }

  /// Which stripe a series identity hashes to — the query engine uses this
  /// to report how many distinct shards a statement touched (EXPLAIN,
  /// /debug/slow_queries). `tags` must be the series' sorted tag set.
  std::size_t shard_of_key(std::string_view measurement, const std::vector<Tag>& tags) const;

  /// Ingest one normalized point. Points with timestamp 0 get `default_time`.
  /// Returns the number of field values rejected for a type conflict.
  std::size_t write(const Point& point, TimeNs default_time);

  /// Ingest a batch: points are bucketed per shard first, so each stripe is
  /// locked exactly once per batch. Non-zero timestamps are multiplied by
  /// `timestamp_scale` (precision handling); zero timestamps get
  /// `default_time` unscaled. Returns the number of field values rejected
  /// for a type conflict (their points' other fields still land).
  std::size_t write_batch(const std::vector<Point>& points, TimeNs default_time,
                          TimeNs timestamp_scale = 1);

  /// Attach (or detach with nullptr) the scheduler used for contended-write
  /// offload — see the header comment. Call before concurrent writers start;
  /// the scheduler must outlive all writes.
  void set_scheduler(core::TaskScheduler* sched) {
    sched_.store(sched, std::memory_order_release);
  }

  /// All series of a measurement (pointers stable while a ReadSnapshot is
  /// held; single-threaded callers: until the next retention run).
  std::vector<const Series*> series_of(std::string_view measurement) const;

  /// Series of a measurement filtered by required tag equalities.
  std::vector<const Series*> series_matching(
      std::string_view measurement, const std::vector<Tag>& required_tags) const;

  std::vector<std::string> measurements() const;
  std::vector<std::string> field_keys(std::string_view measurement) const;
  std::vector<std::string> tag_keys(std::string_view measurement) const;
  std::vector<std::string> tag_values(std::string_view measurement,
                                      std::string_view tag_key) const;

  /// Total stored samples across all columns.
  std::size_t sample_count() const;
  std::size_t series_count() const;

  /// Retention: drop samples older than cutoff; removes emptied series.
  /// Locks one stripe at a time (exclusive), so queries on other stripes
  /// proceed while old data is swept.
  std::size_t drop_before(TimeNs cutoff);

  /// Retention limited to measurements selected by `pred` — lets raw data
  /// expire while downsampled rollups persist (the §II data-volume story).
  std::size_t drop_before_if(TimeNs cutoff,
                             const std::function<bool(const std::string&)>& pred);

 private:
  friend class ReadSnapshot;

  struct SeriesKey {
    std::string measurement;
    std::vector<Tag> tags;
    bool operator<(const SeriesKey& other) const {
      if (measurement != other.measurement) return measurement < other.measurement;
      return tags < other.tags;
    }
  };

  /// One lock stripe: its own mutex, series map and per-measurement indexes.
  /// A series lives entirely inside the shard its key hashes to. Stripe
  /// mutexes share Rank::kTsdbShard with seq = stripe index, so the rank
  /// checker enforces the fixed 0..N-1 multi-stripe acquisition order that
  /// ReadSnapshot's blocking fallback relies on. The data members are not
  /// GUARDED_BY(mu): read accessors deliberately take no lock (the snapshot
  /// protocol pins the stripes instead), which static analysis cannot see.
  /// One writer's points for one stripe, parked while a drain task owns the
  /// stripe. Stack-allocated by the staging writer, which blocks on
  /// stage_cv until `done` — so the pointers stay valid for the drain.
  struct StagedGroup {
    const std::vector<const Point*>* bucket = nullptr;
    TimeNs default_time = 0;
    TimeNs timestamp_scale = 1;
    std::size_t rejected = 0;  // set by the drain before `done`
    bool done = false;         // guarded by the shard's stage_mu
  };

  struct Shard {
    explicit Shard(std::size_t stripe)
        : mu(core::sync::Rank::kTsdbShard, "tsdb.shard", stripe),
          stage_mu(core::sync::Rank::kTsdbStage, "tsdb.stage", stripe) {}
    mutable core::sync::SharedMutex mu;
    std::map<SeriesKey, std::unique_ptr<Series>> series;
    // measurement -> tag key -> tag value -> series pointers
    std::map<std::string, std::map<std::string, std::map<std::string, std::set<Series*>>>> index;
    std::map<std::string, std::set<Series*>> by_measurement;
    /// Staging lane for the scheduler offload. stage_mu ranks below the
    /// stripe mutex and is only ever held for queue flips, never across the
    /// actual series writes.
    core::sync::Mutex stage_mu;
    core::sync::CondVar stage_cv;
    std::vector<StagedGroup*> staged LMS_GUARDED_BY(stage_mu);
    bool drain_pending LMS_GUARDED_BY(stage_mu) = false;
  };

  std::size_t shard_of(const Point& point) const;
  /// Returns the number of field values rejected for a type conflict.
  std::size_t write_into(Shard& shard, const Point& point, TimeNs t) const;
  /// Apply one bucketed group; the caller holds the stripe exclusively.
  std::size_t apply_group(Shard& shard, const StagedGroup& group) const;
  /// Drain task body: apply every staged group of `shard` under one stripe
  /// acquisition, repeat until the staging buffer is empty.
  void drain_stage(Shard& shard);
  std::size_t drop_before_shard(Shard& shard, TimeNs cutoff,
                                const std::function<bool(const std::string&)>& pred);

  std::string name_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<core::TaskScheduler*> sched_{nullptr};
};

/// Multi-database storage — the unit the HTTP API serves. The database map
/// has its own (tiny) lock; all series-level concurrency lives in the
/// per-database shards. Databases are never destroyed, so Database pointers
/// stay valid for the storage's lifetime.
class Storage {
 public:
  Storage() = default;
  /// Override the stripe count of databases created by this storage
  /// (1 = the old global-lock behaviour, used as the bench baseline).
  explicit Storage(std::size_t shards_per_db) : shards_per_db_(shards_per_db) {}

  /// Get or create a database.
  Database& database(const std::string& name);

  /// Database lookup without creation (nullptr if absent). The returned
  /// pointer is stable; concurrent readers must go through snapshot().
  Database* find_database(const std::string& name);

  /// Acquire a read snapshot of one database. Empty when the database does
  /// not exist — test with operator bool.
  ReadSnapshot snapshot(const std::string& name) const;

  /// Attach (or detach with nullptr) the scheduler used for contended-write
  /// offload, applied to every existing and future database. Call before
  /// concurrent writers start; the scheduler must outlive all writes.
  void set_scheduler(core::TaskScheduler* sched);

  /// Apply a write batch (database created on demand). Returns the number of
  /// field values rejected for a type conflict.
  std::size_t write(const WriteBatch& batch);

  /// Convenience: write `points` into `db` at ns precision.
  std::size_t write(const std::string& db, const std::vector<Point>& points,
                    TimeNs default_time);

  std::vector<std::string> databases() const;

  /// Aggregate size counters, sampled under per-database snapshots (feeds
  /// the tsdb_series/tsdb_samples gauges, /stats and /health).
  struct Totals {
    std::size_t databases = 0;
    std::size_t series = 0;
    std::size_t samples = 0;
  };
  Totals totals() const;

  /// Apply retention to every database.
  std::size_t drop_before(TimeNs cutoff);

  /// Apply measurement-filtered retention to every database.
  std::size_t drop_before_if(TimeNs cutoff,
                             const std::function<bool(const std::string&)>& pred);

 private:
  Database& get_or_create(const std::string& name);

  std::size_t shards_per_db_ = Database::kDefaultShards;
  core::TaskScheduler* sched_ LMS_GUARDED_BY(mu_) = nullptr;
  /// Guards dbs_ (map structure only). Ranked below the shard locks: the
  /// snapshot path resolves the Database under mu_, drops it, then takes the
  /// stripe locks.
  mutable core::sync::SharedMutex mu_{core::sync::Rank::kTsdbMap, "tsdb.storage.map"};
  std::map<std::string, std::unique_ptr<Database>> dbs_ LMS_GUARDED_BY(mu_);
};

}  // namespace lms::tsdb
