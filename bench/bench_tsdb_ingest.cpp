// Prices the sharded storage engine's ingest path: N writer threads append
// batches into one database while query threads run aggregations against it
// (the dashboard-poll mix from the paper's production setting). Every
// configuration runs twice — against a single-stripe storage (the old
// global-lock layout, Storage(1)) and against the default 16-stripe layout —
// so the speedup from lock striping is measured, not assumed. The six
// configurations run round-robin for several rounds, so drift hits them
// alike; the baseline (BENCH_tsdb_ingest.json) records each one's median and
// range over the rounds.

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
const int kPointsPerWriter = bench::scaled(200'000, 1'000);  // runs of ~0.1 s, not ~10 ms
const int kRounds = bench::scaled(9, 1);  // rounds over all configs: median and range
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
              "median of %d rounds, %u hardware threads ===\n\n",
              kPointsPerWriter, kBatchSize, kQueryThreads, kRounds, hw);

  struct Config {
    std::size_t stripes;
    int writers;
  };
  const Config configs[] = {{1, 1}, {tsdb::Database::kDefaultShards, 1},
                            {1, 4}, {tsdb::Database::kDefaultShards, 4},
                            {1, 8}, {tsdb::Database::kDefaultShards, 8}};
  constexpr int kConfigs = static_cast<int>(sizeof(configs) / sizeof(configs[0]));
  struct PerConfig {
    std::vector<double> points_per_sec, wall_ms, queries_served;
  };
  PerConfig per[kConfigs];
  std::vector<double> speedups_8;  // per round: sharded / single-stripe at 8 writers
  (void)run_ingest(1, 1);          // warmup, discarded
  for (int r = 0; r < kRounds; ++r) {
    for (int c = 0; c < kConfigs; ++c) {
      const RunResult res = run_ingest(configs[c].stripes, configs[c].writers);
      per[c].points_per_sec.push_back(res.points_per_sec);
      per[c].wall_ms.push_back(res.wall_ms);
      per[c].queries_served.push_back(static_cast<double>(res.queries_served));
    }
    speedups_8.push_back(per[5].points_per_sec.back() / per[4].points_per_sec.back());
  }

  std::printf("%-14s %8s %12s %22s %10s %10s\n", "config", "writers", "Mpts/s", "[min, max]",
              "wall ms", "queries");
  json::Array runs;
  for (int c = 0; c < kConfigs; ++c) {
    const bench::Spread pps = bench::spread(per[c].points_per_sec);
    const bench::Spread wall = bench::spread(per[c].wall_ms);
    const bench::Spread queries = bench::spread(per[c].queries_served);
    std::printf("%-14s %8d %12.2f   [%8.2f, %8.2f] %10.1f %10.0f\n",
                configs[c].stripes == 1 ? "single-stripe" : "sharded-16", configs[c].writers,
                pps.median / 1e6, pps.min / 1e6, pps.max / 1e6, wall.median, queries.median);
    json::Object o;
    o["stripes"] = static_cast<std::int64_t>(configs[c].stripes);
    o["writer_threads"] = configs[c].writers;
    bench::put_spread(o, "points_per_sec", pps);
    bench::put_spread(o, "wall_ms", wall);
    bench::put_spread(o, "queries_served", queries);
    runs.emplace_back(std::move(o));
  }
  const bench::Spread speedup_8 = bench::spread(speedups_8);

  json::Object top;
  top["bench"] = "bench_tsdb_ingest";
  // Lock striping buys parallel writes; the measured speedup scales with the
  // cores actually available (on a single-core box it only reflects reduced
  // lock-handoff overhead, not parallelism).
  top["hardware_threads"] = static_cast<std::int64_t>(hw);
  top["points_per_writer"] = kPointsPerWriter;
  top["batch_size"] = kBatchSize;
  top["query_threads"] = kQueryThreads;
  top["rounds"] = kRounds;
  top["runs"] = std::move(runs);
  bench::put_spread(top, "speedup_8_writers", speedup_8);
  std::printf("\nsharded speedup at 8 writers: %.2fx [%.2f, %.2f]\n", speedup_8.median,
              speedup_8.min, speedup_8.max);
  return bench::write_baseline("BENCH_tsdb_ingest.json",
                               json::Value(std::move(top)).dump_pretty())
             ? 0
             : 1;
}
