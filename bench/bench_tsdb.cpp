// Perf-3 (paper §III-C): the time-series back-end — memory per stored
// sample, ingest rate, windowed aggregation query latency vs. series
// cardinality, tag-index selectivity and retention enforcement.

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>

#include "lms/lineproto/codec.hpp"
#include "lms/tsdb/persist.hpp"
#include "lms/tsdb/query.hpp"
#include "lms/tsdb/storage.hpp"
#include "lms/util/rng.hpp"

namespace {

using namespace lms;
using tsdb::TimeNs;

constexpr TimeNs kSec = util::kNanosPerSecond;

std::vector<lineproto::Point> make_points(int n, int hosts, TimeNs t0) {
  util::Rng rng(3);
  std::vector<lineproto::Point> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    lineproto::Point p;
    p.measurement = "cpu";
    p.set_tag("hostname", "node" + std::to_string(i % hosts));
    p.set_tag("jobid", std::to_string(i % 8));
    p.add_field("user_percent", rng.uniform(0, 100));
    p.add_field("system_percent", rng.uniform(0, 20));
    p.timestamp = t0 + (i / hosts) * 10 * kSec;
    p.normalize();
    out.push_back(std::move(p));
  }
  return out;
}

/// Resident set size from /proc/self/statm (0 where unavailable).
std::size_t rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long pages = 0;
  unsigned long resident = 0;
  const int n = std::fscanf(f, "%lu %lu", &pages, &resident);
  std::fclose(f);
  return n == 2 ? resident * static_cast<std::size_t>(sysconf(_SC_PAGESIZE)) : 0;
}

void BM_BytesPerSample(benchmark::State& state) {
  // Fixed preload in the collector fleet's shape: 64 hosts x 8 float fields,
  // 180 ticks written host-interleaved, so every column grows by 180
  // interleaved appends. The counter is RSS growth / Storage::totals()
  // samples. The batches are built up front and each storage is kept alive,
  // so no iteration reuses memory another one freed.
  constexpr int kHosts = 64;
  constexpr int kTicks = 180;
  static const char* const kFields[] = {"cpi",      "dp_mflop_per_s", "mem_bw", "l2_bw",
                                        "l3_bw",    "power_w",        "clock",  "ipc"};
  util::Rng rng(5);
  std::vector<std::vector<lineproto::Point>> batches(kTicks);
  for (int tick = 0; tick < kTicks; ++tick) {
    for (int h = 0; h < kHosts; ++h) {
      lineproto::Point p;
      p.measurement = "likwid";
      p.set_tag("hostname", "node" + std::to_string(h));
      p.set_tag("jobid", std::to_string(h / 8));
      for (const char* field : kFields) p.add_field(field, rng.uniform(0, 1000));
      p.timestamp = tick * 10 * kSec;
      p.normalize();
      batches[static_cast<std::size_t>(tick)].push_back(std::move(p));
    }
  }
  std::vector<std::unique_ptr<tsdb::Storage>> kept;
  std::size_t grown = 0;
  std::size_t samples = 0;
  for (auto _ : state) {
    const std::size_t rss0 = rss_bytes();
    auto storage = std::make_unique<tsdb::Storage>();
    for (const auto& batch : batches) storage->write("lms", batch, 0);
    grown += rss_bytes() - rss0;
    samples += storage->totals().samples;
    kept.push_back(std::move(storage));
  }
  state.counters["bytes_per_sample"] =
      static_cast<double>(grown) / static_cast<double>(std::max<std::size_t>(1, samples));
  state.SetItemsProcessed(static_cast<std::int64_t>(samples));
}
BENCHMARK(BM_BytesPerSample)->Iterations(5)->Unit(benchmark::kMillisecond);

void BM_WritePoints(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    tsdb::Storage storage;
    const auto points = make_points(batch, 16, 0);
    state.ResumeTiming();
    storage.write("lms", points, 0);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_WritePoints)->Arg(100)->Arg(1000)->Arg(10000);

void BM_AppendSteadyState(benchmark::State& state) {
  // Long-running ingest into existing series (the common case).
  tsdb::Storage storage;
  storage.write("lms", make_points(1000, 16, 0), 0);
  TimeNs t = 1'000'000 * kSec;
  util::Rng rng(4);
  for (auto _ : state) {
    lineproto::Point p;
    p.measurement = "cpu";
    p.set_tag("hostname", "node3");
    p.set_tag("jobid", "1");
    p.add_field("user_percent", rng.uniform(0, 100));
    p.timestamp = (t += 10 * kSec);
    p.normalize();
    storage.write("lms", {p}, 0);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AppendSteadyState);

void BM_WindowedQueryVsSeriesCount(benchmark::State& state) {
  const int hosts = static_cast<int>(state.range(0));
  tsdb::Storage storage;
  // One hour of data at 10 s cadence per host.
  storage.write("lms", make_points(360 * hosts, hosts, 0), 0);
  const auto stmt =
      tsdb::parse_query("SELECT mean(user_percent) FROM cpu WHERE time >= 0 AND "
                        "time < 3600s GROUP BY time(60s), hostname",
                        0);
  for (auto _ : state) {
    auto r = tsdb::execute(storage.snapshot("lms"), *stmt);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::to_string(hosts) + " hosts x 360 samples");
}
BENCHMARK(BM_WindowedQueryVsSeriesCount)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_TagSelectiveQuery(benchmark::State& state) {
  tsdb::Storage storage;
  storage.write("lms", make_points(360 * 64, 64, 0), 0);
  // Selective: one host out of 64 — exercises the tag index.
  const auto stmt = tsdb::parse_query(
      "SELECT mean(user_percent) FROM cpu WHERE hostname='node17' AND time >= 0 AND "
      "time < 3600s GROUP BY time(60s)",
      0);
  for (auto _ : state) {
    auto r = tsdb::execute(storage.snapshot("lms"), *stmt);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TagSelectiveQuery);

void BM_QueryParse(benchmark::State& state) {
  const std::string q =
      "SELECT mean(user_percent) AS u, max(system_percent) FROM cpu WHERE "
      "hostname='node1' AND jobid='3' AND time >= now() - 1h GROUP BY time(30s) "
      "fill(previous) ORDER BY time DESC LIMIT 100";
  for (auto _ : state) {
    auto stmt = tsdb::parse_query(q, 1'700'000'000LL * kSec);
    benchmark::DoNotOptimize(stmt);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QueryParse);

void BM_RetentionSweep(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    tsdb::Storage storage;
    storage.write("lms", make_points(20000, 32, 0), 0);
    state.ResumeTiming();
    benchmark::DoNotOptimize(storage.drop_before(360 * 10 * kSec / 2));
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_RetentionSweep);

void BM_SnapshotSaveLoad(benchmark::State& state) {
  tsdb::Storage storage;
  storage.write("lms", make_points(20000, 32, 0), 0);
  const std::string path = "/tmp/lms_bench_snapshot.lp";
  for (auto _ : state) {
    benchmark::DoNotOptimize(tsdb::save_snapshot(storage, path));
    tsdb::Storage restored;
    benchmark::DoNotOptimize(tsdb::load_snapshot(restored, path));
  }
  state.SetItemsProcessed(state.iterations() * 20000 * 2);  // save + load
}
BENCHMARK(BM_SnapshotSaveLoad)->Unit(benchmark::kMillisecond);

void BM_InfluxJsonEncode(benchmark::State& state) {
  tsdb::Storage storage;
  storage.write("lms", make_points(360 * 16, 16, 0), 0);
  const auto stmt = tsdb::parse_query(
      "SELECT mean(user_percent) FROM cpu WHERE time >= 0 AND time < 3600s "
      "GROUP BY time(60s), hostname",
      0);
  tsdb::QueryResult result = tsdb::execute(storage.snapshot("lms"), *stmt).take();
  for (auto _ : state) {
    benchmark::DoNotOptimize(tsdb::to_influx_json(result));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InfluxJsonEncode);

}  // namespace
