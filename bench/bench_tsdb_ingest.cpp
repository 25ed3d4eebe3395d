// Prices the sharded storage engine's ingest path: N writer threads append
// batches into one database while query threads run aggregations against it
// (the dashboard-poll mix from the paper's production setting). Every
// configuration runs twice — against a single-stripe storage (the old
// global-lock layout, Storage(1)) and against the default 16-stripe layout —
// so the speedup from lock striping is measured, not assumed. Writes the
// numbers as a machine-readable baseline to BENCH_tsdb_ingest.json.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "lms/json/json.hpp"
#include "lms/tsdb/query.hpp"
#include "lms/tsdb/storage.hpp"
#include "lms/util/clock.hpp"

namespace {

using namespace lms;

constexpr util::TimeNs kSec = util::kNanosPerSecond;
constexpr util::TimeNs kT0 = 1'500'000'000LL * kSec;
const int kPointsPerWriter = bench::scaled(40'000, 1'000);
constexpr int kBatchSize = 100;      // points per storage.write(), like a collector batch
constexpr int kQueryThreads = 2;     // dashboard-style pollers
constexpr int kHostsPerWriter = 64;  // distinct series per writer thread

struct RunResult {
  double points_per_sec = 0;
  double wall_ms = 0;
  std::uint64_t queries_served = 0;
};

RunResult run_ingest(std::size_t stripes, int writer_threads) {
  tsdb::Storage storage(stripes);
  storage.database("lms");  // pre-create so queriers never miss it
  tsdb::Engine engine(storage);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> queries{0};
  std::vector<std::thread> queriers;
  queriers.reserve(kQueryThreads);
  for (int q = 0; q < kQueryThreads; ++q) {
    queriers.emplace_back([&storage, &engine, &stop, &queries] {
      while (!stop.load(std::memory_order_relaxed)) {
        // A dashboard-style targeted query: one host's series, bounded cost.
        auto r = engine.query("lms", "SELECT count(v) FROM cpu WHERE hostname = 'w0h0'", kT0);
        if (r.ok()) queries.fetch_add(1, std::memory_order_relaxed);
        // Poll, don't hot-loop: dashboards refresh on an interval.
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }

  const util::TimeNs start = util::monotonic_now_ns();
  std::vector<std::thread> writers;
  writers.reserve(static_cast<std::size_t>(writer_threads));
  for (int w = 0; w < writer_threads; ++w) {
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
  res.points_per_sec = double(writer_threads) * kPointsPerWriter / (wall_ns / 1e9);
  res.queries_served = queries.load();
  return res;
}

}  // namespace

int main() {
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("=== bench_tsdb_ingest: %d pts/writer, batches of %d, %d query threads, "
              "%u hardware threads ===\n\n",
              kPointsPerWriter, kBatchSize, kQueryThreads, hw);
  std::printf("%-22s %8s %12s %12s %10s\n", "config", "writers", "Mpts/s", "wall ms",
              "queries");

  const int writer_counts[] = {1, 4, 8};
  json::Array runs;
  double speedup_at_8 = 0;
  for (const int writers : writer_counts) {
    const RunResult single = run_ingest(1, writers);
    const RunResult sharded = run_ingest(tsdb::Database::kDefaultShards, writers);
    const double speedup = sharded.points_per_sec / single.points_per_sec;
    if (writers == 8) speedup_at_8 = speedup;
    std::printf("%-22s %8d %12.2f %12.1f %10llu\n", "single-stripe", writers,
                single.points_per_sec / 1e6, single.wall_ms,
                static_cast<unsigned long long>(single.queries_served));
    std::printf("%-22s %8d %12.2f %12.1f %10llu   (%.2fx)\n", "sharded-16", writers,
                sharded.points_per_sec / 1e6, sharded.wall_ms,
                static_cast<unsigned long long>(sharded.queries_served), speedup);
    for (const auto* r : {&single, &sharded}) {
      json::Object o;
      o["stripes"] = (r == &single) ? 1 : static_cast<std::int64_t>(tsdb::Database::kDefaultShards);
      o["writer_threads"] = writers;
      o["points_per_sec"] = r->points_per_sec;
      o["wall_ms"] = r->wall_ms;
      o["queries_served"] = static_cast<std::int64_t>(r->queries_served);
      runs.emplace_back(std::move(o));
    }
  }

  json::Object top;
  top["bench"] = "bench_tsdb_ingest";
  // Lock striping buys parallel writes; the measured speedup scales with the
  // cores actually available (on a single-core box it only reflects reduced
  // lock-handoff overhead, not parallelism).
  top["hardware_threads"] = static_cast<std::int64_t>(hw);
  top["points_per_writer"] = kPointsPerWriter;
  top["batch_size"] = kBatchSize;
  top["query_threads"] = kQueryThreads;
  top["runs"] = std::move(runs);
  top["speedup_8_writers"] = speedup_at_8;
  std::printf("\nsharded speedup at 8 writers: %.2fx\n", speedup_at_8);
  return bench::write_baseline("BENCH_tsdb_ingest.json",
                               json::Value(std::move(top)).dump_pretty())
             ? 0
             : 1;
}
