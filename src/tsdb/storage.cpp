#include "lms/tsdb/storage.hpp"

#include <algorithm>
#include <thread>
#include <type_traits>

namespace lms::tsdb {

namespace {

/// The value a column stores for a scanned value of its own type.
template <typename T>
T unbox(const ValueView& v) {
  if constexpr (std::is_same_v<T, double>) {
    return std::get<double>(v);
  } else if constexpr (std::is_same_v<T, std::int64_t>) {
    return std::get<std::int64_t>(v);
  } else if constexpr (std::is_same_v<T, std::uint8_t>) {
    return std::get<bool>(v) ? 1 : 0;
  } else {
    return std::string(std::get<std::string_view>(v));
  }
}

}  // namespace

bool Column::append(TimeNs t, const ValueView& v) {
  // ValueView's alternatives are in Type order.
  const auto type = static_cast<Type>(v.index());
  if (type != this->type()) {
    if (!times_.empty()) return false;  // first type wins
    switch (type) {
      case Type::kFloat:
        values_.emplace<0>();
        break;
      case Type::kInt:
        values_.emplace<1>();
        break;
      case Type::kBool:
        values_.emplace<2>();
        break;
      case Type::kString:
        values_.emplace<3>();
        break;
    }
  }
  if (times_.empty() && type != Type::kString) {
    // Start at 16 slots. Growing 1-2-4-8 frees tiny chunks, and allocating
    // from a heap full of them makes new-series apply ~1.5x slower. Long
    // columns end at the same capacity. String columns (spans, events) are
    // short, so they keep plain growth.
    times_.reserve(kInitialCapacity);
    std::visit([](auto& values) { values.reserve(kInitialCapacity); }, values_);
  }
  // In-order append is the common case; out-of-order writes sort-insert.
  const auto it = times_.empty() || t >= times_.back()
                      ? times_.end()
                      : std::upper_bound(times_.begin(), times_.end(), t);
  const auto idx = it - times_.begin();
  times_.insert(it, t);
  std::visit(
      [&](auto& values) {
        using T = typename std::decay_t<decltype(values)>::value_type;
        values.insert(values.begin() + idx, unbox<T>(v));
      },
      values_);
  return true;
}

FieldValue Column::value_at(std::size_t i) const {
  switch (type()) {
    case Type::kFloat:
      return floats()[i];
    case Type::kInt:
      return ints()[i];
    case Type::kBool:
      return bools()[i] != 0;
    case Type::kString:
      return strings()[i];
  }
  return {};
}

std::size_t Column::lower_bound(TimeNs t) const {
  return static_cast<std::size_t>(std::lower_bound(times_.begin(), times_.end(), t) -
                                  times_.begin());
}

std::size_t Column::drop_before(TimeNs cutoff) {
  const std::size_t n = lower_bound(cutoff);
  if (n == 0) return 0;
  const auto count = static_cast<std::ptrdiff_t>(n);
  times_.erase(times_.begin(), times_.begin() + count);
  std::visit([count](auto& values) { values.erase(values.begin(), values.begin() + count); },
             values_);
  return n;
}

std::string_view Series::tag(std::string_view key) const {
  for (const auto& [k, v] : tags) {
    if (k == key) return v;
  }
  return {};
}

// ---------------------------------------------------------------- snapshot

ReadSnapshot::ReadSnapshot(const Database& db) : db_(&db) {
  // All-or-nothing acquisition: block on stripe 0, then try the rest. If a
  // stripe is write-locked, drop everything and start over — holding some
  // stripes while blocked on another would stall writers on the held ones
  // (a lock convoy under mixed load). Bounded retries, then a blocking pass
  // in fixed 0..N-1 order (deadlock-free: concurrent snapshots acquire in
  // the same order and writers only ever hold a single stripe). The rank
  // checker enforces the ordered fallback: stripes share Rank::kTsdbShard
  // with seq = stripe index, so a blocking acquire out of index order aborts.
  locks_.reserve(db.shards_.size());
  const auto unlock_all = [this] {
    for (auto* mu : locks_) mu->unlock_shared();
    locks_.clear();
  };
  for (int attempt = 0; attempt < 16; ++attempt) {
    db.shards_[0]->mu.lock_shared();
    locks_.push_back(&db.shards_[0]->mu);
    bool all = true;
    for (std::size_t i = 1; i < db.shards_.size(); ++i) {
      core::sync::SharedMutex& mu = db.shards_[i]->mu;
      if (!mu.try_lock_shared()) {
        all = false;
        break;
      }
      locks_.push_back(&mu);
    }
    if (all) return;
    unlock_all();
    std::this_thread::yield();
  }
  for (const auto& shard : db.shards_) {
    shard->mu.lock_shared();
    locks_.push_back(&shard->mu);
  }
}

void ReadSnapshot::release() {
  for (auto* mu : locks_) mu->unlock_shared();
  locks_.clear();
  db_ = nullptr;
}

// ---------------------------------------------------------------- database

std::size_t Database::KeyHash::operator()(std::string_view key) const {
  return std::hash<std::string_view>{}(key);
}

struct Database::WriteScratch {
  std::string built;  ///< keys built for non-canonical lines
  std::vector<std::pair<std::size_t, std::size_t>> built_at;  ///< (line, offset in built)
  std::vector<HashedKey> keys;                                 ///< per line
  std::vector<std::uint32_t> stripe_of;                        ///< per line
  std::vector<std::uint32_t> bucket_end;  ///< per stripe, exclusive prefix sums
  std::vector<std::uint32_t> next;        ///< per stripe, fill cursor
  std::vector<std::uint32_t> order;       ///< line indexes grouped by stripe
};

Database::Database(std::string name, std::size_t shard_count) : name_(std::move(name)) {
  if (shard_count == 0) shard_count = 1;
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>(i));
  }
}

std::size_t Database::shard_of_key(std::string_view measurement,
                                   const std::vector<Tag>& tags) const {
  thread_local std::string key;
  key.clear();
  lineproto::append_series_key(key, measurement, tags);
  return KeyHash()(key) % shards_.size();
}

const Series* Database::find_series(std::string_view measurement,
                                    const std::vector<Tag>& tags) const {
  const Shard& shard = *shards_[shard_of_key(measurement, tags)];
  std::string key;
  lineproto::append_series_key(key, measurement, tags);
  const auto it = shard.series.find(std::string_view(key));
  return it != shard.series.end() ? &it->second : nullptr;
}

std::size_t Database::apply_line(Shard& shard, const HashedKey& key,
                                 const lineproto::ScannedBatch& batch,
                                 const lineproto::LineView& line, TimeNs t) {
  auto it = shard.series.find(key);
  if (it == shard.series.end()) {
    it = shard.series.emplace(std::string(key.bytes), Series()).first;
    Series& s = it->second;
    s.measurement = line.measurement;
    const auto tags = batch.tags_of(line);
    s.tags.reserve(tags.size());
    for (const auto& tag : tags) s.tags.emplace_back(std::string(tag.key), std::string(tag.value));
    shard.by_measurement[s.measurement].insert(&s);
    auto& meas_index = shard.index[s.measurement];
    for (const auto& [tk, tv] : s.tags) meas_index[tk][tv].insert(&s);
  }
  Series& s = it->second;
  std::size_t rejected = 0;
  for (const auto& field : batch.fields_of(line)) {
    auto cit = s.columns.find(field.key);
    if (cit == s.columns.end()) cit = s.columns.emplace(std::string(field.key), Column()).first;
    if (!cit->second.append(t, field.value)) ++rejected;
  }
  return rejected;
}

std::size_t Database::write(const Point& point, TimeNs default_time) {
  return write_batch(std::span<const Point>(&point, 1), default_time, 1);
}

std::size_t Database::write_batch(std::span<const Point> points, TimeNs default_time,
                                  TimeNs timestamp_scale) {
  // Project the points into scanned form (views into the points; their
  // prefixes are not canonical, so write_lines builds their keys). Chunks
  // keep the projection cache-resident on large batches.
  constexpr std::size_t kChunk = 256;
  thread_local lineproto::ScannedBatch batch;
  std::size_t rejected = 0;
  for (std::size_t at = 0; at < points.size(); at += kChunk) {
    batch.clear();
    for (const Point& p : points.subspan(at, std::min(kChunk, points.size() - at))) {
      lineproto::LineView line;
      line.measurement = p.measurement;
      line.tags_begin = static_cast<std::uint32_t>(batch.tags.size());
      for (const auto& [k, v] : p.tags) batch.tags.push_back({k, v});
      line.tags_end = static_cast<std::uint32_t>(batch.tags.size());
      line.fields_begin = static_cast<std::uint32_t>(batch.fields.size());
      for (const auto& [k, v] : p.fields) batch.fields.push_back({k, v.view()});
      line.fields_end = static_cast<std::uint32_t>(batch.fields.size());
      line.timestamp = p.timestamp;
      batch.lines.push_back(line);
    }
    rejected += write_lines(batch, default_time, timestamp_scale);
  }
  return rejected;
}

std::size_t Database::write_lines(lineproto::ScannedBatch& batch, TimeNs default_time,
                                  TimeNs timestamp_scale) {
  const std::size_t n = batch.lines.size();
  if (n == 0) return 0;
  if (timestamp_scale <= 0) timestamp_scale = 1;
  thread_local WriteScratch scratch;
  auto& [built, built_at, keys, stripe_of, bucket_end, next, order] = scratch;

  // Resolve every line's canonical key: its raw prefix when canonical,
  // otherwise built from its key-sorted tags into `built` (views are taken
  // once `built` stops growing).
  built.clear();
  built_at.clear();
  keys.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const lineproto::LineView& line = batch.lines[i];
    if (line.canonical) {
      keys[i].bytes = line.prefix;
      continue;
    }
    const auto tags = batch.tags_of(line);
    lineproto::sort_tags(tags);
    built_at.emplace_back(i, built.size());
    lineproto::append_series_key(built, line.measurement, tags);
  }
  for (std::size_t k = 0; k < built_at.size(); ++k) {
    const auto [i, at] = built_at[k];
    const std::size_t end = k + 1 < built_at.size() ? built_at[k + 1].second : built.size();
    keys[i].bytes = std::string_view(built).substr(at, end - at);
  }

  // Bucket by stripe with a counting sort (stable: each stripe applies its
  // lines in batch order), so each stripe mutex is taken once per batch.
  const std::size_t stripes = shards_.size();
  stripe_of.resize(n);
  bucket_end.assign(stripes + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i].hash = KeyHash()(keys[i].bytes);
    stripe_of[i] = static_cast<std::uint32_t>(keys[i].hash % stripes);
    ++bucket_end[stripe_of[i] + 1];
  }
  for (std::size_t s = 0; s < stripes; ++s) bucket_end[s + 1] += bucket_end[s];
  next.assign(bucket_end.begin(), bucket_end.end() - 1);
  order.resize(n);
  for (std::size_t i = 0; i < n; ++i) order[next[stripe_of[i]]++] = static_cast<std::uint32_t>(i);

  std::size_t rejected = 0;
  for (std::size_t s = 0; s < stripes; ++s) {
    if (bucket_end[s] == bucket_end[s + 1]) continue;
    Shard& shard = *shards_[s];
    const core::sync::WriteLockGuard lock(shard.mu);
    for (std::uint32_t k = bucket_end[s]; k < bucket_end[s + 1]; ++k) {
      const lineproto::LineView& line = batch.lines[order[k]];
      const TimeNs t = line.timestamp != 0 ? line.timestamp * timestamp_scale : default_time;
      rejected += apply_line(shard, keys[order[k]], batch, line, t);
    }
  }
  return rejected;
}

std::vector<const Series*> Database::series_of(std::string_view measurement) const {
  std::vector<const Series*> out;
  const std::string key(measurement);
  for (const auto& shard : shards_) {
    const auto it = shard->by_measurement.find(key);
    if (it == shard->by_measurement.end()) continue;
    out.insert(out.end(), it->second.begin(), it->second.end());
  }
  return out;
}

std::vector<const Series*> Database::series_matching(
    std::string_view measurement, const std::vector<Tag>& required_tags) const {
  if (required_tags.empty()) return series_of(measurement);
  std::vector<const Series*> out;
  const std::string meas(measurement);
  for (const auto& shard : shards_) {
    const auto mit = shard->index.find(meas);
    if (mit == shard->index.end()) continue;
    // Intersect the per-tag posting sets, starting from the smallest.
    std::vector<const std::set<Series*>*> postings;
    bool missing = false;
    for (const auto& [tk, tv] : required_tags) {
      const auto kit = mit->second.find(tk);
      if (kit == mit->second.end()) {
        missing = true;
        break;
      }
      const auto vit = kit->second.find(tv);
      if (vit == kit->second.end()) {
        missing = true;
        break;
      }
      postings.push_back(&vit->second);
    }
    if (missing) continue;
    std::sort(postings.begin(), postings.end(),
              [](const auto* a, const auto* b) { return a->size() < b->size(); });
    for (Series* candidate : *postings.front()) {
      bool in_all = true;
      for (std::size_t i = 1; i < postings.size(); ++i) {
        if (postings[i]->count(candidate) == 0) {
          in_all = false;
          break;
        }
      }
      if (in_all) out.push_back(candidate);
    }
  }
  return out;
}

std::vector<std::string> Database::measurements() const {
  std::set<std::string> names;
  for (const auto& shard : shards_) {
    for (const auto& [m, _] : shard->by_measurement) {
      if (!_.empty()) names.insert(m);
    }
  }
  return {names.begin(), names.end()};
}

std::vector<std::string> Database::field_keys(std::string_view measurement) const {
  std::set<std::string> keys;
  for (const Series* s : series_of(measurement)) {
    for (const auto& [k, _] : s->columns) keys.insert(k);
  }
  return {keys.begin(), keys.end()};
}

std::vector<std::string> Database::tag_keys(std::string_view measurement) const {
  std::set<std::string> keys;
  const std::string meas(measurement);
  for (const auto& shard : shards_) {
    const auto it = shard->index.find(meas);
    if (it == shard->index.end()) continue;
    for (const auto& [k, _] : it->second) keys.insert(k);
  }
  return {keys.begin(), keys.end()};
}

std::vector<std::string> Database::tag_values(std::string_view measurement,
                                              std::string_view tag_key) const {
  std::set<std::string> values;
  const std::string meas(measurement);
  const std::string key(tag_key);
  for (const auto& shard : shards_) {
    const auto it = shard->index.find(meas);
    if (it == shard->index.end()) continue;
    const auto kit = it->second.find(key);
    if (kit == it->second.end()) continue;
    for (const auto& [v, series_set] : kit->second) {
      if (!series_set.empty()) values.insert(v);
    }
  }
  return {values.begin(), values.end()};
}

std::size_t Database::sample_count() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    for (const auto& [_, s] : shard->series) {
      for (const auto& [__, col] : s.columns) n += col.size();
    }
  }
  return n;
}

std::size_t Database::series_count() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) n += shard->series.size();
  return n;
}

std::size_t Database::drop_before(TimeNs cutoff) {
  return drop_before_if(cutoff, [](const std::string&) { return true; });
}

std::size_t Database::drop_before_if(TimeNs cutoff,
                                     const std::function<bool(const std::string&)>& pred) {
  std::size_t dropped = 0;
  for (const auto& shard : shards_) {
    const core::sync::WriteLockGuard lock(shard->mu);
    dropped += drop_before_shard(*shard, cutoff, pred);
  }
  return dropped;
}

std::size_t Database::drop_before_shard(Shard& shard, TimeNs cutoff,
                                        const std::function<bool(const std::string&)>& pred) {
  std::size_t dropped = 0;
  for (auto it = shard.series.begin(); it != shard.series.end();) {
    Series& s = it->second;
    if (!pred(s.measurement)) {
      ++it;
      continue;
    }
    bool all_empty = true;
    for (auto cit = s.columns.begin(); cit != s.columns.end();) {
      dropped += cit->second.drop_before(cutoff);
      if (cit->second.empty()) {
        cit = s.columns.erase(cit);
      } else {
        all_empty = false;
        ++cit;
      }
    }
    if (all_empty) {
      // Unlink the series from the tag indexes, then erase its index entry.
      shard.by_measurement[s.measurement].erase(&s);
      auto& meas_index = shard.index[s.measurement];
      for (const auto& [tk, tv] : s.tags) {
        meas_index[tk][tv].erase(&s);
      }
      it = shard.series.erase(it);
    } else {
      ++it;
    }
  }
  return dropped;
}

// ---------------------------------------------------------------- storage

Database& Storage::get_or_create(const std::string& name) {
  {
    const core::sync::SharedLockGuard lock(mu_);
    const auto it = dbs_.find(name);
    if (it != dbs_.end()) return *it->second;
  }
  const core::sync::WriteLockGuard lock(mu_);
  auto it = dbs_.find(name);
  if (it == dbs_.end()) {
    it = dbs_.emplace(name, std::make_unique<Database>(name, shards_per_db_)).first;
  }
  return *it->second;
}

Database& Storage::database(const std::string& name) { return get_or_create(name); }

Database* Storage::find_database(const std::string& name) {
  const core::sync::SharedLockGuard lock(mu_);
  const auto it = dbs_.find(name);
  return it != dbs_.end() ? it->second.get() : nullptr;
}

ReadSnapshot Storage::snapshot(const std::string& name) const {
  const Database* db = nullptr;
  {
    const core::sync::SharedLockGuard lock(mu_);
    const auto it = dbs_.find(name);
    if (it != dbs_.end()) db = it->second.get();
  }
  // Databases are never destroyed, so the pointer stays valid after the map
  // lock is dropped; the snapshot then pins the shard contents.
  return db != nullptr ? ReadSnapshot(*db) : ReadSnapshot();
}

std::size_t Storage::write(const WriteBatch& batch) {
  return get_or_create(batch.db).write_batch(batch.points, batch.default_time,
                                             batch.timestamp_scale);
}

std::size_t Storage::write(const std::string& db, const std::vector<Point>& points,
                           TimeNs default_time) {
  return get_or_create(db).write_batch(points, default_time, 1);
}

std::vector<std::string> Storage::databases() const {
  const core::sync::SharedLockGuard lock(mu_);
  std::vector<std::string> out;
  out.reserve(dbs_.size());
  for (const auto& [name, _] : dbs_) out.push_back(name);
  return out;
}

Storage::Totals Storage::totals() const {
  Totals t;
  for (const auto& name : databases()) {
    const ReadSnapshot snap = snapshot(name);
    if (!snap) continue;
    ++t.databases;
    t.series += snap->series_count();
    t.samples += snap->sample_count();
  }
  return t;
}

std::size_t Storage::drop_before(TimeNs cutoff) {
  return drop_before_if(cutoff, [](const std::string&) { return true; });
}

std::size_t Storage::drop_before_if(TimeNs cutoff,
                                    const std::function<bool(const std::string&)>& pred) {
  std::size_t dropped = 0;
  for (const auto& name : databases()) {
    Database* db = find_database(name);
    if (db != nullptr) dropped += db->drop_before_if(cutoff, pred);
  }
  return dropped;
}

}  // namespace lms::tsdb
