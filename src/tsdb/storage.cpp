#include "lms/tsdb/storage.hpp"

#include <algorithm>
#include <thread>
#include <type_traits>

namespace lms::tsdb {

namespace {

Column::Type type_of(const FieldValue& v) {
  if (v.is_double()) return Column::Type::kFloat;
  if (v.is_int()) return Column::Type::kInt;
  if (v.is_bool()) return Column::Type::kBool;
  return Column::Type::kString;
}

template <typename T>
T unbox(const FieldValue& v) {
  if constexpr (std::is_same_v<T, double>) {
    return v.as_double();
  } else if constexpr (std::is_same_v<T, std::int64_t>) {
    return v.as_int();
  } else if constexpr (std::is_same_v<T, std::uint8_t>) {
    return v.as_bool() ? 1 : 0;
  } else {
    return v.as_string();
  }
}

}  // namespace

bool Column::append(TimeNs t, const FieldValue& v) {
  const Type type = type_of(v);
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

namespace {

/// FNV-1a over the series identity (measurement + sorted tag set). The tag
/// set is sorted on normalized points, so the hash is canonical.
std::size_t series_hash(std::string_view measurement, const std::vector<Tag>& tags) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::string_view s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
    h ^= 0xff;  // separator so ("ab","c") != ("a","bc")
    h *= 1099511628211ULL;
  };
  mix(measurement);
  for (const auto& [k, v] : tags) {
    mix(k);
    mix(v);
  }
  return static_cast<std::size_t>(h);
}

}  // namespace

Database::Database(std::string name, std::size_t shard_count) : name_(std::move(name)) {
  if (shard_count == 0) shard_count = 1;
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>(i));
  }
}

std::size_t Database::shard_of(const Point& point) const {
  return series_hash(point.measurement, point.tags) % shards_.size();
}

std::size_t Database::shard_of_key(std::string_view measurement,
                                   const std::vector<Tag>& tags) const {
  return series_hash(measurement, tags) % shards_.size();
}

std::size_t Database::write_into(Shard& shard, const Point& point, TimeNs t) const {
  SeriesKey key{point.measurement, point.tags};
  auto it = shard.series.find(key);
  if (it == shard.series.end()) {
    auto s = std::make_unique<Series>();
    s->measurement = point.measurement;
    s->tags = point.tags;
    Series* raw = s.get();
    it = shard.series.emplace(std::move(key), std::move(s)).first;
    shard.by_measurement[point.measurement].insert(raw);
    auto& meas_index = shard.index[point.measurement];
    for (const auto& [tk, tv] : point.tags) {
      meas_index[tk][tv].insert(raw);
    }
  }
  Series& s = *it->second;
  std::size_t rejected = 0;
  for (const auto& [fk, fv] : point.fields) {
    if (!s.columns[fk].append(t, fv)) ++rejected;
  }
  return rejected;
}

std::size_t Database::write(const Point& point, TimeNs default_time) {
  Shard& shard = *shards_[shard_of(point)];
  const TimeNs t = point.timestamp != 0 ? point.timestamp : default_time;
  const core::sync::WriteLockGuard lock(shard.mu);
  return write_into(shard, point, t);
}

std::size_t Database::apply_group(Shard& shard, const StagedGroup& group) const {
  std::size_t rejected = 0;
  for (const Point* p : *group.bucket) {
    const TimeNs t =
        p->timestamp != 0 ? p->timestamp * group.timestamp_scale : group.default_time;
    rejected += write_into(shard, *p, t);
  }
  return rejected;
}

void Database::drain_stage(Shard& shard) {
  for (;;) {
    std::vector<StagedGroup*> groups;
    {
      const core::sync::LockGuard lock(shard.stage_mu);
      if (shard.staged.empty()) {
        shard.drain_pending = false;
        return;
      }
      groups.swap(shard.staged);
    }
    {
      // The one blocking stripe acquisition on this path: every group staged
      // while the stripe was busy lands under it together.
      const core::sync::WriteLockGuard lock(shard.mu);
      for (StagedGroup* g : groups) g->rejected = apply_group(shard, *g);
    }
    {
      const core::sync::LockGuard lock(shard.stage_mu);
      for (StagedGroup* g : groups) g->done = true;
    }
    shard.stage_cv.notify_all();
  }
}

std::size_t Database::write_batch(const std::vector<Point>& points, TimeNs default_time,
                                  TimeNs timestamp_scale) {
  if (points.empty()) return 0;
  if (timestamp_scale <= 0) timestamp_scale = 1;
  std::size_t rejected = 0;
  if (shards_.size() == 1) {
    Shard& shard = *shards_[0];
    const core::sync::WriteLockGuard lock(shard.mu);
    for (const auto& p : points) {
      const TimeNs t = p.timestamp != 0 ? p.timestamp * timestamp_scale : default_time;
      rejected += write_into(shard, p, t);
    }
    return rejected;
  }
  // Bucket per stripe so each stripe mutex is taken exactly once per batch.
  std::vector<std::vector<const Point*>> buckets(shards_.size());
  for (const auto& p : points) {
    buckets[shard_of(p)].push_back(&p);
  }
  // Offload is off without a scheduler, and a scheduler worker always writes
  // inline: a worker blocking on a drain pinned to its own lane would
  // deadlock, and the flusher task already owns its batch end to end.
  core::TaskScheduler* sched = sched_.load(std::memory_order_acquire);
  if (sched != nullptr &&
      (sched->manual() || sched->stopped() || core::TaskScheduler::on_worker_thread())) {
    sched = nullptr;
  }
  std::vector<StagedGroup> staged;
  std::vector<Shard*> staged_shards;
  if (sched != nullptr) {
    staged.reserve(buckets.size());  // stable addresses: drains hold pointers
    staged_shards.reserve(buckets.size());
  }
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i].empty()) continue;
    Shard& shard = *shards_[i];
    if (sched == nullptr) {
      const core::sync::WriteLockGuard lock(shard.mu);
      for (const Point* p : buckets[i]) {
        const TimeNs t = p->timestamp != 0 ? p->timestamp * timestamp_scale : default_time;
        rejected += write_into(shard, *p, t);
      }
      continue;
    }
    StagedGroup group{&buckets[i], default_time, timestamp_scale, 0, false};
    if (shard.mu.try_lock()) {
      // Uncontended stripe: apply inline, no convoy to join.
      rejected += apply_group(shard, group);
      shard.mu.unlock();
      continue;
    }
    // Contended: park the group and let the stripe's drain task batch it
    // with everyone else's instead of piling onto the stripe mutex.
    staged.push_back(group);
    staged_shards.push_back(&shard);
    bool schedule = false;
    {
      const core::sync::LockGuard lock(shard.stage_mu);
      shard.staged.push_back(&staged.back());
      if (!shard.drain_pending) {
        shard.drain_pending = true;
        schedule = true;
      }
    }
    if (schedule) {
      sched->submit([this, &shard] { drain_stage(shard); },
                    static_cast<std::uint64_t>(i));
    }
  }
  // Wait for every staged group: write_batch keeps read-your-writes.
  for (std::size_t i = 0; i < staged.size(); ++i) {
    Shard& shard = *staged_shards[i];
    core::sync::UniqueLock lock(shard.stage_mu);
    while (!staged[i].done) shard.stage_cv.wait(lock);
    rejected += staged[i].rejected;
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
      for (const auto& [__, col] : s->columns) n += col.size();
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
    Series& s = *it->second;
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
      Series* raw = it->second.get();
      shard.by_measurement[s.measurement].erase(raw);
      auto& meas_index = shard.index[s.measurement];
      for (const auto& [tk, tv] : s.tags) {
        meas_index[tk][tv].erase(raw);
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
    it->second->set_scheduler(sched_);
  }
  return *it->second;
}

void Storage::set_scheduler(core::TaskScheduler* sched) {
  const core::sync::WriteLockGuard lock(mu_);
  sched_ = sched;
  for (const auto& [_, db] : dbs_) db->set_scheduler(sched);
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
