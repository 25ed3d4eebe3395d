// Prices the contention-observability layer, then uses it: the
// bench_tsdb_ingest 8-writer/16-stripe mix runs twice in one instrumented
// binary — first with the lockstats hooks toggled off
// (lockstats::set_enabled(false), the pure-overhead baseline: one relaxed
// load + branch per acquisition), then with them on — so the throughput
// cost of wait/hold timing is measured rather than estimated. The enabled
// run's per-lock wait ranking (what GET /debug/runtime serves) is printed
// and written to BENCH_lock_stats.json as evidence for or against ROADMAP
// item 2's claim that multi-writer ingest is lock-handoff-bound.
//
// In a build without -DLMS_LOCK_STATS=ON the wrappers carry no hooks and
// there is nothing to measure; the binary says so and exits 0 (the smoke
// gate runs it in every configuration).

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "lms/core/sync.hpp"
#include "lms/json/json.hpp"
#include "lms/tsdb/query.hpp"
#include "lms/tsdb/storage.hpp"
#include "lms/util/clock.hpp"

namespace {

using namespace lms;
namespace lockstats = core::sync::lockstats;

constexpr util::TimeNs kSec = util::kNanosPerSecond;
constexpr util::TimeNs kT0 = 1'500'000'000LL * kSec;
const int kPointsPerWriter = bench::scaled(40'000, 1'000);
constexpr int kBatchSize = 100;      // points per storage.write(), like a collector batch
constexpr int kQueryThreads = 2;     // dashboard-style pollers
constexpr int kHostsPerWriter = 64;  // distinct series per writer thread
constexpr int kWriterThreads = 8;    // the config ROADMAP item 2 talks about
const int kReps = bench::scaled(3, 1);  // alternating off/on pairs; best-of

struct RunResult {
  double points_per_sec = 0;
  double wall_ms = 0;
};

/// One ingest run: 8 writers batch-appending into the 16-stripe storage
/// while query threads poll (same mix as bench_tsdb_ingest).
RunResult run_ingest() {
  tsdb::Storage storage(tsdb::Database::kDefaultShards);
  storage.database("lms");
  tsdb::Engine engine(storage);

  std::atomic<bool> stop{false};
  std::vector<std::thread> queriers;
  queriers.reserve(kQueryThreads);
  for (int q = 0; q < kQueryThreads; ++q) {
    queriers.emplace_back([&engine, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        (void)engine.query("lms", "SELECT count(v) FROM cpu WHERE hostname = 'w0h0'", kT0);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }

  const util::TimeNs start = util::monotonic_now_ns();
  std::vector<std::thread> writers;
  writers.reserve(kWriterThreads);
  for (int w = 0; w < kWriterThreads; ++w) {
    writers.emplace_back([&storage, w] {
      std::vector<lineproto::Point> batch;
      batch.reserve(kBatchSize);
      int written = 0;
      while (written < kPointsPerWriter) {
        batch.clear();
        for (int i = 0; i < kBatchSize && written < kPointsPerWriter; ++i, ++written) {
          lineproto::Point p;
          p.measurement = "cpu";
          p.set_tag("hostname",
                    "w" + std::to_string(w) + "h" + std::to_string(written % kHostsPerWriter));
          p.add_field("v", static_cast<double>(written));
          p.timestamp = kT0 + static_cast<util::TimeNs>(written) * kSec;
          p.normalize();
          batch.push_back(std::move(p));
        }
        storage.write("lms", batch, kT0);
      }
    });
  }
  for (auto& t : writers) t.join();
  const double wall_ns = static_cast<double>(util::monotonic_now_ns() - start);
  stop.store(true);
  for (auto& t : queriers) t.join();

  RunResult res;
  res.wall_ms = wall_ns / 1e6;
  res.points_per_sec = double(kWriterThreads) * kPointsPerWriter / (wall_ns / 1e9);
  return res;
}

/// Print the top sites of a ranking and return them as a JSON array.
json::Array report_ranking(const std::vector<lockstats::SiteSnapshot>& ranking) {
  std::printf("%-28s %5s %12s %12s %14s %12s\n", "lock site", "rank", "acquis.",
              "contended", "wait total ms", "p99 us");
  json::Array sites;
  std::size_t printed = 0;
  for (const auto& s : ranking) {
    if (s.acquisitions == 0 || printed >= 8) continue;
    ++printed;
    std::printf("%-28s %5d %12llu %12llu %14.2f %12.1f\n", s.name, s.rank,
                static_cast<unsigned long long>(s.acquisitions),
                static_cast<unsigned long long>(s.contended),
                static_cast<double>(s.wait_ns_total) / 1e6,
                static_cast<double>(lockstats::wait_quantile_ns(s, 0.99)) / 1e3);
    json::Object o;
    o["lock"] = std::string(s.name);
    o["rank"] = s.rank;
    o["acquisitions"] = static_cast<std::int64_t>(s.acquisitions);
    o["contended"] = static_cast<std::int64_t>(s.contended);
    o["wait_ns_total"] = static_cast<std::int64_t>(s.wait_ns_total);
    o["wait_ns_max"] = static_cast<std::int64_t>(s.wait_ns_max);
    o["wait_p99_ns"] = static_cast<std::int64_t>(lockstats::wait_quantile_ns(s, 0.99));
    o["hold_ns_total"] = static_cast<std::int64_t>(s.hold_ns_total);
    sites.emplace_back(std::move(o));
  }
  return sites;
}

}  // namespace

int main() {
  const unsigned hw = std::thread::hardware_concurrency();
  if (!core::sync::kLockStatsEnabled) {
    std::printf("bench_lock_stats: built without -DLMS_LOCK_STATS=ON, nothing to "
                "measure (wrappers carry no hooks); exiting.\n");
    return 0;
  }

  std::printf("=== bench_lock_stats: %d-writer ingest, %d pts/writer, %d reps, "
              "%u hardware threads ===\n\n",
              kWriterThreads, kPointsPerWriter, kReps, hw);

  // Alternate off/on so drift (thermal, page cache) hits both sides alike;
  // keep the best of each, the usual way to compare two fast paths.
  RunResult best_off, best_on;
  for (int rep = 0; rep < kReps; ++rep) {
    lockstats::set_enabled(false);
    const RunResult off = run_ingest();
    if (off.points_per_sec > best_off.points_per_sec) best_off = off;

    lockstats::set_enabled(true);
    lockstats::reset();  // rank only this run's contention
    const RunResult on = run_ingest();
    if (on.points_per_sec > best_on.points_per_sec) best_on = on;

    std::printf("rep %d: stats off %8.2f Mpts/s   stats on %8.2f Mpts/s\n", rep,
                off.points_per_sec / 1e6, on.points_per_sec / 1e6);
  }
  lockstats::set_enabled(true);

  const double overhead_pct =
      100.0 * (best_off.points_per_sec - best_on.points_per_sec) / best_off.points_per_sec;
  std::printf("\nbest stats-off: %.2f Mpts/s   best stats-on: %.2f Mpts/s   "
              "overhead: %.2f%%\n\n",
              best_off.points_per_sec / 1e6, best_on.points_per_sec / 1e6, overhead_pct);

  // The contention ranking of the final enabled run — the /debug/runtime
  // view of this workload.
  const auto ranking = lockstats::snapshot();
  json::Array sites = report_ranking(ranking);

  json::Object top;
  top["bench"] = "bench_lock_stats";
  top["hardware_threads"] = static_cast<std::int64_t>(hw);
  top["writer_threads"] = kWriterThreads;
  top["points_per_writer"] = kPointsPerWriter;
  top["batch_size"] = kBatchSize;
  top["query_threads"] = kQueryThreads;
  top["reps"] = kReps;
  top["points_per_sec_stats_off"] = best_off.points_per_sec;
  top["points_per_sec_stats_on"] = best_on.points_per_sec;
  top["overhead_pct"] = overhead_pct;
  top["ranking"] = std::move(sites);
  if (!ranking.empty() && ranking.front().acquisitions > 0) {
    top["top_wait_site"] = std::string(ranking.front().name);
  }
  return bench::write_baseline("BENCH_lock_stats.json",
                               json::Value(std::move(top)).dump_pretty())
             ? 0
             : 1;
}
