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
// Series index: each stripe holds one hash map from the canonical series
// key — the bytes lineproto::append_line writes before the first space
// (measurement plus key-sorted tags, serializer-escaped) — to its Series.
// The stripe of a series is that key's hash modulo the stripe count, and
// the map reuses the same hash. A scanned line whose prefix is already
// canonical (lineproto::LineView::canonical — every line the router
// forwards) is looked up by its raw bytes without an allocation; any other
// line, and every Point, first has its key built into a scratch buffer.
//
// One write path: write_lines resolves each line's key and stripe, buckets
// the lines by stripe, then applies each bucket under its stripe's write
// lock, one stripe at a time, so a writer never holds two stripes and takes
// each once per batch. Point writers (write_batch: continuous-query rollups,
// alert events, snapshot load) are projected into the same scanned form
// first, 256 points at a time. A single-stripe database (Storage(1)) runs
// the same loop with one bucket; it is the global-lock baseline
// bench_tsdb_ingest measures sharding by.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <variant>
#include <vector>

#include "lms/core/sync.hpp"
#include "lms/lineproto/codec.hpp"
#include "lms/lineproto/point.hpp"
#include "lms/util/status.hpp"

namespace lms::tsdb {

using lineproto::FieldValue;
using lineproto::Point;
using lineproto::Tag;
using lineproto::ValueView;
using util::TimeNs;

/// A field column: a sorted time vector and one typed value vector.
class Column {
 public:
  /// Value type of a column; the index of its vector in the value variant.
  enum class Type : std::uint8_t { kFloat, kInt, kBool, kString };

  /// Insert one sample in time order. The first value fixes the column's
  /// type; a value of another type is not stored and returns false.
  bool append(TimeNs t, const ValueView& v);
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
  std::map<std::string, Column, std::less<>> columns;

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

  /// Which stripe a series identity hashes to: the stripe the write path
  /// stores it in. The query engine uses this to report how many distinct
  /// shards a statement touched (EXPLAIN, /debug/slow_queries). `tags` must
  /// be the series' sorted tag set.
  std::size_t shard_of_key(std::string_view measurement, const std::vector<Tag>& tags) const;

  /// The series of one identity (`tags` sorted), looked up in stripe
  /// shard_of_key() only; nullptr if absent there. Lets tests check that
  /// shard_of_key() names the stripe the write path chose.
  const Series* find_series(std::string_view measurement, const std::vector<Tag>& tags) const;

  /// Ingest one point. Points with timestamp 0 get `default_time`.
  /// Returns the number of field values rejected for a type conflict.
  std::size_t write(const Point& point, TimeNs default_time);

  /// Ingest a batch of points (tags need not be sorted), applied as
  /// write_lines does, one 256-point chunk at a time. Non-zero timestamps
  /// are multiplied by `timestamp_scale` (precision handling); zero
  /// timestamps get `default_time` unscaled. Returns the number of field
  /// values rejected for a type conflict (their points' other fields still
  /// land).
  std::size_t write_batch(std::span<const Point> points, TimeNs default_time,
                          TimeNs timestamp_scale = 1);

  /// Ingest scanned lines (lineproto::scan) — the /write path. Lines are
  /// bucketed per stripe first, so each stripe is locked exactly once per
  /// batch. Timestamps as in write_batch. Sorts the tags of non-canonical
  /// lines in place.
  std::size_t write_lines(lineproto::ScannedBatch& lines, TimeNs default_time,
                          TimeNs timestamp_scale = 1);

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

  /// A series-index key with its hash computed once: the same hash picks
  /// the stripe and the bucket.
  struct HashedKey {
    std::string_view bytes;
    std::size_t hash;
  };
  /// Not noexcept on purpose: libstdc++ then caches each node's hash, so a
  /// lookup compares hashes before bytes and never rehashes a stored key.
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view key) const;
    std::size_t operator()(const HashedKey& key) const { return key.hash; }
  };
  struct KeyEqual {
    using is_transparent = void;
    bool operator()(std::string_view a, std::string_view b) const noexcept { return a == b; }
    bool operator()(const HashedKey& a, std::string_view b) const noexcept { return a.bytes == b; }
    bool operator()(std::string_view a, const HashedKey& b) const noexcept { return a == b.bytes; }
  };

  /// One lock stripe: its own mutex, series index and per-measurement tag
  /// indexes. A series lives entirely inside the shard its key hashes to.
  /// Stripe mutexes share Rank::kTsdbShard with seq = stripe index, so the
  /// rank checker enforces the fixed 0..N-1 multi-stripe acquisition order
  /// that ReadSnapshot's blocking fallback relies on. The data members are
  /// not GUARDED_BY(mu): read accessors deliberately take no lock (the
  /// snapshot protocol pins the stripes instead), which static analysis
  /// cannot see.
  struct Shard {
    explicit Shard(std::size_t stripe)
        : mu(core::sync::Rank::kTsdbShard, "tsdb.shard", stripe) {}
    mutable core::sync::SharedMutex mu;
    /// canonical series key -> series (node-based: Series addresses are stable)
    std::unordered_map<std::string, Series, KeyHash, KeyEqual> series;
    // measurement -> tag key -> tag value -> series pointers
    std::map<std::string, std::map<std::string, std::map<std::string, std::set<Series*>>>> index;
    std::map<std::string, std::set<Series*>> by_measurement;
  };

  /// Per-thread buffers of the write path, so steady-state writes do not
  /// allocate.
  struct WriteScratch;

  /// Apply one line to its stripe (held exclusively): find or create its
  /// series, append its fields. Returns the type-conflict count.
  static std::size_t apply_line(Shard& shard, const HashedKey& key,
                                const lineproto::ScannedBatch& batch,
                                const lineproto::LineView& line, TimeNs t);
  std::size_t drop_before_shard(Shard& shard, TimeNs cutoff,
                                const std::function<bool(const std::string&)>& pred);

  std::string name_;
  std::vector<std::unique_ptr<Shard>> shards_;
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
  /// Guards dbs_ (map structure only). Ranked below the shard locks: the
  /// snapshot path resolves the Database under mu_, drops it, then takes the
  /// stripe locks.
  mutable core::sync::SharedMutex mu_{core::sync::Rank::kTsdbMap, "tsdb.storage.map"};
  std::map<std::string, std::unique_ptr<Database>> dbs_ LMS_GUARDED_BY(mu_);
};

}  // namespace lms::tsdb
