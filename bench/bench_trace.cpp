// Prices the distributed-tracing instrumentation on the hot ingest path:
// line-protocol batches POSTed through router -> TSDB over the in-process
// transport, with tracing fully disabled, head-sampling at 0%, the
// production-style 1%, and the keep-everything 100%. Each request crosses
// two traced hops (router server + forward to the TSDB), so the measured
// delta prices span construction, context propagation and recorder pushes —
// the acceptance bar is <5% regression at 1% sampling versus disabled.
// Writes the numbers as a machine-readable baseline to BENCH_trace.json.

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "lms/core/router.hpp"
#include "lms/json/json.hpp"
#include "lms/net/transport.hpp"
#include "lms/obs/trace.hpp"
#include "lms/tsdb/http_api.hpp"
#include "lms/tsdb/storage.hpp"
#include "lms/util/clock.hpp"

namespace {

using namespace lms;

constexpr util::TimeNs kSec = util::kNanosPerSecond;
constexpr util::TimeNs kT0 = 1'500'000'000LL * kSec;
const int kBatches = bench::scaled(400, 20);  // requests per run
constexpr int kBatchPoints = 100;   // points per request, like a collector flush
const int kReps = bench::scaled(9, 1);  // rounds over all configs: median and range

struct Config {
  const char* name;
  bool enabled;
  double sample_rate;
};

struct RunResult {
  double points_per_sec = 0;
  double wall_ms = 0;
  std::uint64_t spans_recorded = 0;
};

std::string make_batch(int batch) {
  std::string body;
  body.reserve(static_cast<std::size_t>(kBatchPoints) * 48);
  for (int i = 0; i < kBatchPoints; ++i) {
    body += "cpu,hostname=h" + std::to_string(i % 16) + " user_percent=" +
            std::to_string(batch % 100) + " " +
            std::to_string(kT0 + (static_cast<util::TimeNs>(batch) * kBatchPoints + i) * kSec) +
            "\n";
  }
  return body;
}

RunResult run_ingest(const Config& cfg) {
  obs::set_tracing_enabled(cfg.enabled);
  obs::set_trace_sample_rate(cfg.sample_rate);
  obs::SpanRecorder::global().clear();
  const std::uint64_t recorded_before = obs::SpanRecorder::global().recorded();

  util::SimClock clock(kT0);
  net::InprocNetwork network;
  net::InprocHttpClient client(network);
  tsdb::Storage storage;
  tsdb::HttpApi db_api(storage, clock);
  network.bind("tsdb", db_api.handler());
  core::MetricsRouter::Options router_opts;
  router_opts.db_url = "inproc://tsdb";
  router_opts.publish = false;
  core::MetricsRouter router(client, clock, router_opts, nullptr);
  network.bind("router", router.handler());

  std::vector<std::string> bodies;
  bodies.reserve(kBatches);
  for (int b = 0; b < kBatches; ++b) bodies.push_back(make_batch(b));

  const util::TimeNs start = util::monotonic_now_ns();
  for (const std::string& body : bodies) {
    auto resp = client.post("inproc://router/write?db=lms", body, "text/plain");
    if (!resp.ok() || resp->status != 204) {
      std::fprintf(stderr, "write failed\n");
      std::exit(1);
    }
  }
  const double wall_ns = static_cast<double>(util::monotonic_now_ns() - start);

  RunResult res;
  res.wall_ms = wall_ns / 1e6;
  res.points_per_sec = double(kBatches) * kBatchPoints / (wall_ns / 1e9);
  res.spans_recorded = obs::SpanRecorder::global().recorded() - recorded_before;
  return res;
}

}  // namespace

int main() {
  const unsigned hw = std::thread::hardware_concurrency();
  const Config configs[] = {
      {"disabled", false, 1.0},
      {"sampled-0pct", true, 0.0},
      {"sampled-1pct", true, 0.01},
      {"sampled-100pct", true, 1.0},
  };
  std::printf("=== bench_trace: %d batches x %d points through router -> TSDB, "
              "median of %d rounds, %u hardware threads ===\n\n",
              kBatches, kBatchPoints, kReps, hw);
  std::printf("%-16s %12s %10s %14s %12s\n", "config", "Mpts/s", "wall ms", "spans", "overhead");

  // Run the configs round-robin (disabled, 0%, 1%, 100%, disabled, ...) so
  // drift hits every config alike; each round's overhead is taken against
  // that round's "disabled" run.
  constexpr int kConfigs = static_cast<int>(sizeof(configs) / sizeof(configs[0]));
  struct PerConfig {
    std::vector<double> points_per_sec, wall_ms, overhead_pct;
    std::uint64_t spans = 0;
  };
  PerConfig per[kConfigs];
  (void)run_ingest(configs[0]);  // warmup, discarded
  for (int r = 0; r < kReps; ++r) {
    double baseline = 0;
    for (int c = 0; c < kConfigs; ++c) {
      const RunResult res = run_ingest(configs[c]);
      if (c == 0) baseline = res.points_per_sec;
      per[c].points_per_sec.push_back(res.points_per_sec);
      per[c].wall_ms.push_back(res.wall_ms);
      per[c].overhead_pct.push_back((baseline - res.points_per_sec) / baseline * 100.0);
      per[c].spans = res.spans_recorded;
    }
  }

  json::Array runs;
  bench::Spread overhead_1pct;
  bench::Spread overhead_100pct;
  for (int c = 0; c < kConfigs; ++c) {
    const Config& cfg = configs[c];
    const bench::Spread pps = bench::spread(per[c].points_per_sec);
    const bench::Spread wall = bench::spread(per[c].wall_ms);
    const bench::Spread overhead = bench::spread(per[c].overhead_pct);
    if (cfg.name == std::string("sampled-1pct")) overhead_1pct = overhead;
    if (cfg.name == std::string("sampled-100pct")) overhead_100pct = overhead;
    std::printf("%-16s %12.2f %10.1f %14llu %10.1f%%  [%.1f, %.1f]\n", cfg.name,
                pps.median / 1e6, wall.median, static_cast<unsigned long long>(per[c].spans),
                overhead.median, overhead.min, overhead.max);
    json::Object o;
    o["config"] = cfg.name;
    o["tracing_enabled"] = cfg.enabled;
    o["sample_rate"] = cfg.sample_rate;
    bench::put_spread(o, "points_per_sec", pps);
    bench::put_spread(o, "wall_ms", wall);
    o["spans_recorded"] = static_cast<std::int64_t>(per[c].spans);
    bench::put_spread(o, "overhead_pct", overhead);
    runs.emplace_back(std::move(o));
  }
  obs::set_tracing_enabled(true);
  obs::set_trace_sample_rate(1.0);

  json::Object top;
  top["bench"] = "bench_trace";
  top["hardware_threads"] = static_cast<std::int64_t>(hw);
  top["batches"] = kBatches;
  top["batch_points"] = kBatchPoints;
  top["reps"] = kReps;
  top["runs"] = std::move(runs);
  bench::put_spread(top, "overhead_pct_1pct_sampling", overhead_1pct);
  bench::put_spread(top, "overhead_pct_100pct_sampling", overhead_100pct);
  std::printf("\noverhead at 1%% sampling: %.1f%% [%.1f, %.1f] (bar: <5%%)\n",
              overhead_1pct.median, overhead_1pct.min, overhead_1pct.max);
  return bench::write_baseline("BENCH_trace.json", json::Value(std::move(top)).dump_pretty())
             ? 0
             : 1;
}
