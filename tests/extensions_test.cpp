// Tests for the extension components: the stream aggregator (§III-B
// "aggregators"), the MPI tooling-interface profiler (§IV planned feature),
// continuous queries / downsampling, and the router's store-and-forward
// spool.

#include <gtest/gtest.h>

#include "lms/analysis/aggregator.hpp"
#include "lms/core/router.hpp"
#include "lms/lineproto/codec.hpp"
#include "lms/tsdb/continuous.hpp"
#include "lms/tsdb/http_api.hpp"
#include "lms/usermetric/mpi_profiler.hpp"
#include "lms/usermetric/omp_profiler.hpp"
#include "lms/analysis/recorder.hpp"
#include "lms/collector/agent.hpp"
#include "lms/tsdb/persist.hpp"
#include <fstream>

namespace lms {
namespace {

using util::kNanosPerMinute;
using util::kNanosPerSecond;

constexpr util::TimeNs kSec = kNanosPerSecond;
constexpr util::TimeNs kMin = kNanosPerMinute;

// ------------------------------------------------------------- aggregator

class AggregatorTest : public ::testing::Test {
 protected:
  AggregatorTest() : clock_(0), db_api_(storage_, clock_), client_(network_) {
    network_.bind("tsdb", db_api_.handler());
    core::MetricsRouter::Options opts;
    opts.db_url = "inproc://tsdb";
    router_ = std::make_unique<core::MetricsRouter>(client_, clock_, opts, &broker_);
  }

  void write_metric(const std::string& host, const std::string& job, double flops,
                    util::TimeNs t) {
    core::JobSignal signal;
    if (router_->find_job(job) == std::nullopt) {
      signal.job_id = job;
      signal.user = "u";
      signal.nodes = {"h1", "h2", "h3", "h4"};
      (void)router_->job_start(signal);
    }
    lineproto::Point p = lineproto::make_point("likwid_mem_dp", "dp_mflop_per_s", flops, t,
                                               {{"hostname", host}});
    (void)router_->write_lines(lineproto::serialize(p) + "\n");
  }

  tsdb::Storage storage_;
  util::SimClock clock_;
  net::InprocNetwork network_;
  tsdb::HttpApi db_api_;
  net::InprocHttpClient client_;
  net::PubSubBroker broker_;
  std::unique_ptr<core::MetricsRouter> router_;
};

TEST_F(AggregatorTest, EmitsJobLevelWindows) {
  analysis::StreamAggregator::Options opts;
  opts.window = kMin;
  opts.router_url = "inproc://tsdb";  // write straight to the DB for clarity
  analysis::StreamAggregator agg(broker_, client_, opts);

  // Four hosts reporting within the same 1-minute window.
  for (int h = 1; h <= 4; ++h) {
    write_metric("h" + std::to_string(h), "9", 1000.0 * h, 30 * kSec);
  }
  clock_.set(2 * kMin);
  EXPECT_EQ(agg.pump(clock_.now()), 1u);

  tsdb::Database* db = storage_.find_database("lms");
  const auto series = db->series_matching("likwid_mem_dp_job", {{"jobid", "9"}});
  ASSERT_EQ(series.size(), 1u);
  const auto& cols = series[0]->columns;
  EXPECT_DOUBLE_EQ(cols.at("dp_mflop_per_s_sum").value_at(0).as_double(), 10000.0);
  EXPECT_DOUBLE_EQ(cols.at("dp_mflop_per_s_mean").value_at(0).as_double(), 2500.0);
  EXPECT_DOUBLE_EQ(cols.at("dp_mflop_per_s_min").value_at(0).as_double(), 1000.0);
  EXPECT_DOUBLE_EQ(cols.at("dp_mflop_per_s_max").value_at(0).as_double(), 4000.0);
  EXPECT_EQ(cols.at("dp_mflop_per_s_nodes").value_at(0).as_int(), 4);
  // Window stamped at its end.
  EXPECT_EQ(cols.at("dp_mflop_per_s_sum").times()[0], kMin);
}

TEST_F(AggregatorTest, IncompleteWindowHeldUntilComplete) {
  analysis::StreamAggregator::Options opts;
  opts.window = kMin;
  opts.router_url = "inproc://tsdb";
  analysis::StreamAggregator agg(broker_, client_, opts);
  write_metric("h1", "9", 100.0, 30 * kSec);
  clock_.set(45 * kSec);  // window [0,60s) not over yet
  EXPECT_EQ(agg.pump(clock_.now()), 0u);
  clock_.set(61 * kSec);
  EXPECT_EQ(agg.pump(clock_.now()), 1u);
}

TEST_F(AggregatorTest, FlushForcesOpenWindows) {
  analysis::StreamAggregator::Options opts;
  opts.window = kMin;
  opts.router_url = "inproc://tsdb";
  analysis::StreamAggregator agg(broker_, client_, opts);
  write_metric("h1", "9", 100.0, 30 * kSec);
  clock_.set(40 * kSec);
  EXPECT_EQ(agg.flush(clock_.now()), 1u);
  EXPECT_EQ(agg.stats().points_emitted, 1u);
}

TEST_F(AggregatorTest, SkipsUntaggedAndOwnOutput) {
  analysis::StreamAggregator::Options opts;
  opts.window = kMin;
  opts.router_url = "inproc://tsdb";
  analysis::StreamAggregator agg(broker_, client_, opts);
  // No job tags: point from an unallocated host.
  lineproto::Point p =
      lineproto::make_point("cpu", "user_percent", 5.0, 10 * kSec, {{"hostname", "h9"}});
  (void)router_->write_lines(lineproto::serialize(p) + "\n");
  // An already-aggregated point must not be re-aggregated.
  lineproto::Point a = lineproto::make_point("cpu_job", "user_percent_mean", 5.0, 10 * kSec,
                                             {{"jobid", "9"}});
  (void)router_->write_lines(lineproto::serialize(a) + "\n");
  clock_.set(2 * kMin);
  EXPECT_EQ(agg.pump(clock_.now()), 0u);
}

TEST_F(AggregatorTest, MeasurementGlobFilter) {
  analysis::StreamAggregator::Options opts;
  opts.window = kMin;
  opts.router_url = "inproc://tsdb";
  opts.measurement_globs = {"likwid_*"};
  analysis::StreamAggregator agg(broker_, client_, opts);
  write_metric("h1", "9", 100.0, 30 * kSec);  // likwid_mem_dp: selected
  lineproto::Point p = lineproto::make_point("cpu", "user_percent", 5.0, 30 * kSec,
                                             {{"hostname", "h1"}});
  (void)router_->write_lines(lineproto::serialize(p) + "\n");  // cpu: filtered
  clock_.set(2 * kMin);
  EXPECT_EQ(agg.pump(clock_.now()), 1u);
  EXPECT_TRUE(storage_.find_database("lms")->series_of("cpu_job").empty());
}

// ------------------------------------------------------------ mpi profiler

struct UmCapture {
  net::InprocNetwork network;
  std::vector<lineproto::Point> points;
  UmCapture() {
    network.bind("router", [this](const net::HttpRequest& req) {
      auto pts = lineproto::parse_lenient(req.body, nullptr);
      points.insert(points.end(), pts.begin(), pts.end());
      return net::HttpResponse::no_content();
    });
  }
  const lineproto::FieldValue* field(const std::string& name) const {
    for (const auto& p : points) {
      if (const auto* f = p.field(name)) return f;
    }
    return nullptr;
  }
};

TEST(MpiProfilerTest, ReportsFractions) {
  UmCapture sink;
  util::SimClock clock(0);
  net::InprocHttpClient client(sink.network);
  usermetric::UserMetricClient::Options opts;
  opts.router_url = "inproc://router";
  usermetric::UserMetricClient um(client, clock, opts);
  usermetric::MpiProfiler prof(um, /*rank=*/3, /*interval=*/10 * kSec);

  // 10-second interval: 2 s in Allreduce (sync), 1 s in Send, 1 MB moved.
  prof.record(usermetric::MpiCall::kAllreduce, 1 * kSec, 2 * kSec, 512 * 1024);
  prof.record(usermetric::MpiCall::kSend, 5 * kSec, 1 * kSec, 512 * 1024);
  prof.report(10 * kSec);
  um.flush();

  ASSERT_NE(sink.field("mpi_time_fraction"), nullptr);
  // Interval started at first event (1 s) and ended at 10 s -> 9 s window.
  EXPECT_NEAR(sink.field("mpi_time_fraction")->as_double(), 3.0 / 9.0, 1e-9);
  EXPECT_NEAR(sink.field("mpi_sync_fraction")->as_double(), 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(sink.field("mpi_calls_per_sec")->as_double(), 2.0 / 9.0, 1e-9);
  EXPECT_NEAR(sink.field("mpi_bytes_per_sec")->as_double(), 1048576.0 / 9.0, 1e-6);
  // Rank tag attached.
  EXPECT_EQ(sink.points[0].tag("rank"), "3");
  EXPECT_EQ(prof.total_calls(), 2u);
  EXPECT_EQ(prof.total_mpi_time(), 3 * kSec);
}

TEST(MpiProfilerTest, AutoReportsAtInterval) {
  UmCapture sink;
  util::SimClock clock(0);
  net::InprocHttpClient client(sink.network);
  usermetric::UserMetricClient::Options opts;
  opts.router_url = "inproc://router";
  usermetric::UserMetricClient um(client, clock, opts);
  usermetric::MpiProfiler prof(um, 0, 10 * kSec);
  // Calls spanning 25 s: reports at >=10 s and >=20 s boundaries.
  for (int i = 0; i < 25; ++i) {
    prof.record(usermetric::MpiCall::kBarrier, i * kSec, kSec / 10);
  }
  um.flush();
  int reports = 0;
  for (const auto& p : sink.points) {
    if (p.field("mpi_time_fraction") != nullptr) ++reports;
  }
  EXPECT_EQ(reports, 2);
}

TEST(MpiProfilerTest, CallClassification) {
  using usermetric::MpiCall;
  EXPECT_TRUE(usermetric::mpi_call_is_synchronizing(MpiCall::kBarrier));
  EXPECT_TRUE(usermetric::mpi_call_is_synchronizing(MpiCall::kWait));
  EXPECT_TRUE(usermetric::mpi_call_is_synchronizing(MpiCall::kAllreduce));
  EXPECT_FALSE(usermetric::mpi_call_is_synchronizing(MpiCall::kIsend));
  EXPECT_FALSE(usermetric::mpi_call_is_synchronizing(MpiCall::kBcast));
  EXPECT_EQ(usermetric::mpi_call_name(MpiCall::kAllreduce), "MPI_Allreduce");
}

// ------------------------------------------------------------ omp profiler

TEST(OmpProfilerTest, ReportsParallelMetrics) {
  UmCapture sink;
  util::SimClock clock(0);
  net::InprocHttpClient client(sink.network);
  usermetric::UserMetricClient::Options opts;
  opts.router_url = "inproc://router";
  usermetric::UserMetricClient um(client, clock, opts);
  usermetric::OmpProfiler prof(um, 10 * kSec);

  // 10 s interval: two 2-second regions on 4 threads — one balanced, one
  // where a single thread does double the work of the others.
  prof.record_region(1 * kSec, 2 * kSec, {2 * kSec, 2 * kSec, 2 * kSec, 2 * kSec});
  prof.record_region(5 * kSec, 2 * kSec, {2 * kSec, 1 * kSec, 1 * kSec, 1 * kSec});
  prof.report(11 * kSec);
  um.flush();

  ASSERT_NE(sink.field("omp_parallel_fraction"), nullptr);
  EXPECT_NEAR(sink.field("omp_parallel_fraction")->as_double(), 4.0 / 10.0, 1e-9);
  EXPECT_NEAR(sink.field("omp_regions_per_sec")->as_double(), 0.2, 1e-9);
  // Efficiencies: 1.0 and 5/8; duration-weighted mean = (1.0 + 0.625)/2.
  EXPECT_NEAR(sink.field("omp_load_efficiency")->as_double(), 0.8125, 1e-9);
  EXPECT_NEAR(sink.field("omp_avg_threads")->as_double(), 4.0, 1e-9);
  EXPECT_EQ(prof.total_regions(), 2u);
}

TEST(OmpProfilerTest, AutoReportsWhenIntervalCovered) {
  UmCapture sink;
  util::SimClock clock(0);
  net::InprocHttpClient client(sink.network);
  usermetric::UserMetricClient::Options opts;
  opts.router_url = "inproc://router";
  usermetric::UserMetricClient um(client, clock, opts);
  usermetric::OmpProfiler prof(um, 5 * kSec);
  for (int i = 0; i < 12; ++i) {
    prof.record_region(i * kSec, kSec / 2, {kSec / 2, kSec / 2});
  }
  um.flush();
  int reports = 0;
  for (const auto& p : sink.points) {
    if (p.field("omp_parallel_fraction") != nullptr) ++reports;
  }
  EXPECT_GE(reports, 2);
}

// --------------------------------------------------------- finding recorder

TEST(FindingRecorderTest, WritesAlertsAsEvents) {
  tsdb::Storage storage;
  util::SimClock clock(0);
  tsdb::HttpApi api(storage, clock);
  net::InprocNetwork network;
  network.bind("tsdb", api.handler());
  net::InprocHttpClient client(network);
  analysis::FindingRecorder recorder(client, "inproc://tsdb");

  analysis::Finding f;
  f.rule = "compute_break";
  f.description = "break in computation";
  f.hostname = "h3";
  f.job_id = "42";
  f.severity = analysis::Severity::kCritical;
  f.start = 10 * kMin;
  f.end = 22 * kMin;
  EXPECT_EQ(recorder.record({f}), 1u);
  EXPECT_EQ(recorder.recorded(), 1u);

  tsdb::Database* db = storage.find_database("lms");
  const auto series = db->series_matching(
      "alerts", {{"jobid", "42"}, {"rule", "compute_break"}, {"severity", "critical"}});
  ASSERT_EQ(series.size(), 1u);
  const auto& text = series[0]->columns.at("text");
  EXPECT_NE(text.value_at(0).as_string().find("compute_break on h3"), std::string::npos);
  EXPECT_DOUBLE_EQ(series[0]->columns.at("duration_s").value_at(0).as_double(), 720.0);
  EXPECT_EQ(text.times()[0], 22 * kMin);
  // Empty input is a no-op.
  EXPECT_EQ(recorder.record({}), 0u);
}

TEST(FindingRecorderTest, CountsFailures) {
  net::InprocNetwork network;  // no endpoint bound
  net::InprocHttpClient client(network);
  analysis::FindingRecorder recorder(client, "inproc://tsdb");
  analysis::Finding f;
  f.rule = "x";
  EXPECT_EQ(recorder.record({f}), 0u);
  EXPECT_EQ(recorder.failures(), 1u);
}

// ------------------------------------------------------------- continuous

TEST(ContinuousQueryTest, DownsamplesIntoRollup) {
  tsdb::Storage storage;
  // 30 minutes of 10 s data for two hosts.
  std::vector<lineproto::Point> points;
  for (int h = 1; h <= 2; ++h) {
    for (util::TimeNs t = 0; t < 30 * kMin; t += 10 * kSec) {
      points.push_back(lineproto::make_point(
          "cpu", "user_percent", h * 10.0, t,
          {{"hostname", "h" + std::to_string(h)}, {"jobid", "1"}}));
    }
  }
  storage.write("lms", points, 0);

  tsdb::CqRunner runner(storage, "lms");
  tsdb::ContinuousQuery cq;
  cq.name = "cpu_5m";
  cq.source_measurement = "cpu";
  cq.target_measurement = "cpu_5m";
  cq.fields = {{"user_percent", tsdb::Aggregator::kMean},
               {"user_percent", tsdb::Aggregator::kMax}};
  cq.window = 5 * kMin;
  runner.add(cq);

  const std::size_t written = runner.run(30 * kMin + kMin);
  // 2 hosts x 6 windows of 5 minutes.
  EXPECT_EQ(written, 12u);
  tsdb::Database* db = storage.find_database("lms");
  const auto series = db->series_matching("cpu_5m", {{"hostname", "h2"}});
  ASSERT_EQ(series.size(), 1u);
  const auto& mean_col = series[0]->columns.at("user_percent_mean");
  ASSERT_EQ(mean_col.size(), 6u);
  EXPECT_DOUBLE_EQ(mean_col.value_at(0).as_double(), 20.0);
  EXPECT_DOUBLE_EQ(series[0]->columns.at("user_percent_max").value_at(0).as_double(), 20.0);
  // jobid preserved on the rollup.
  EXPECT_EQ(series[0]->tag("jobid"), "1");
}

TEST(ContinuousQueryTest, WatermarkAvoidsReprocessing) {
  tsdb::Storage storage;
  std::vector<lineproto::Point> points;
  for (util::TimeNs t = 0; t < 10 * kMin; t += 10 * kSec) {
    points.push_back(
        lineproto::make_point("cpu", "user_percent", 50.0, t, {{"hostname", "h1"}}));
  }
  storage.write("lms", points, 0);
  tsdb::CqRunner runner(storage, "lms");
  tsdb::ContinuousQuery cq;
  cq.name = "cpu_5m";
  cq.source_measurement = "cpu";
  cq.target_measurement = "cpu_5m";
  cq.fields = {{"user_percent", tsdb::Aggregator::kMean}};
  cq.window = 5 * kMin;
  cq.group_tags = {"hostname"};
  runner.add(cq);

  EXPECT_EQ(runner.run(11 * kMin), 2u);
  // Immediate re-run: nothing new.
  EXPECT_EQ(runner.run(11 * kMin), 0u);
  // More data arrives; only the new window is processed.
  std::vector<lineproto::Point> more;
  for (util::TimeNs t = 10 * kMin; t < 15 * kMin; t += 10 * kSec) {
    more.push_back(
        lineproto::make_point("cpu", "user_percent", 80.0, t, {{"hostname", "h1"}}));
  }
  storage.write("lms", more, 0);
  EXPECT_EQ(runner.run(16 * kMin), 1u);
  const auto series = storage.find_database("lms")->series_of("cpu_5m");
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0]->columns.at("user_percent_mean").size(), 3u);
}

TEST(ContinuousQueryTest, LagHoldsBackRecentWindow) {
  tsdb::Storage storage;
  storage.write("lms",
                {lineproto::make_point("cpu", "user_percent", 50.0, 4 * kMin + 50 * kSec,
                                       {{"hostname", "h1"}})},
                0);
  tsdb::CqRunner::Options opts;
  opts.lag = kMin;
  tsdb::CqRunner runner(storage, "lms", opts);
  tsdb::ContinuousQuery cq;
  cq.name = "cpu_5m";
  cq.source_measurement = "cpu";
  cq.target_measurement = "cpu_5m";
  cq.fields = {{"user_percent", tsdb::Aggregator::kMean}};
  cq.window = 5 * kMin;
  runner.add(cq);
  // At 5m30s the [0,5m) window ended 30 s ago — still inside the lag.
  EXPECT_EQ(runner.run(5 * kMin + 30 * kSec), 0u);
  EXPECT_EQ(runner.run(6 * kMin + 10 * kSec), 1u);
}

TEST(ContinuousQueryTest, RetentionPlusRollupKeepsHistory) {
  // The §II data-volume story: raw expires, rollups survive.
  tsdb::Storage storage;
  std::vector<lineproto::Point> points;
  for (util::TimeNs t = 0; t < 60 * kMin; t += 10 * kSec) {
    points.push_back(
        lineproto::make_point("cpu", "user_percent", 42.0, t, {{"hostname", "h1"}}));
  }
  storage.write("lms", points, 0);
  tsdb::CqRunner runner(storage, "lms");
  tsdb::ContinuousQuery cq;
  cq.name = "cpu_5m";
  cq.source_measurement = "cpu";
  cq.target_measurement = "cpu_rollup";
  cq.fields = {{"user_percent", tsdb::Aggregator::kMean}};
  cq.window = 5 * kMin;
  cq.group_tags = {"hostname"};
  runner.add(cq);
  runner.run(61 * kMin);

  // Expire raw data older than 10 minutes... which also hits old rollups;
  // real deployments put rollups in a separate database/retention policy —
  // emulate by checking the rollup count before expiry covers the hour.
  tsdb::Database* db = storage.find_database("lms");
  ASSERT_EQ(db->series_of("cpu_rollup").size(), 1u);
  EXPECT_EQ(db->series_of("cpu_rollup")[0]->columns.at("user_percent_mean").size(), 12u);
  const std::size_t dropped = db->drop_before(50 * kMin);
  EXPECT_GT(dropped, 0u);
  // Raw thinned out, rollup series still holds the tail.
  EXPECT_FALSE(db->series_of("cpu_rollup").empty());
}

// ------------------------------------------------------------- persistence

TEST(PersistTest, SnapshotRoundTrip) {
  tsdb::Storage storage;
  storage.write("lms",
                {lineproto::make_point("cpu", "user_percent", 42.5, 1000,
                                       {{"hostname", "h1"}, {"jobid", "7"}}),
                 lineproto::make_point("events", "text", std::string("job start"), 2000,
                                       {{"jobid", "7"}})},
                0);
  storage.write("user_alice", {lineproto::make_point("m", "v", 1.0, 3000)}, 0);

  const std::string path = ::testing::TempDir() + "/lms_snapshot_test.lp";
  ASSERT_TRUE(tsdb::save_snapshot(storage, path).ok());

  tsdb::Storage restored;
  auto loaded = tsdb::load_snapshot(restored, path);
  ASSERT_TRUE(loaded.ok()) << loaded.message();
  EXPECT_EQ(*loaded, 3u);
  EXPECT_EQ(restored.databases(), storage.databases());
  tsdb::Database* db = restored.find_database("lms");
  ASSERT_NE(db, nullptr);
  const auto series = db->series_matching("cpu", {{"hostname", "h1"}, {"jobid", "7"}});
  ASSERT_EQ(series.size(), 1u);
  EXPECT_DOUBLE_EQ(series[0]->columns.at("user_percent").value_at(0).as_double(), 42.5);
  EXPECT_EQ(series[0]->columns.at("user_percent").times()[0], 1000);
  // String events survive too.
  EXPECT_EQ(db->series_matching("events", {{"jobid", "7"}})[0]
                ->columns.at("text")
                .value_at(0)
                .as_string(),
            "job start");
  EXPECT_NE(restored.find_database("user_alice"), nullptr);
}

TEST(PersistTest, MultiFieldPointsStayMerged) {
  tsdb::Storage storage;
  lineproto::Point p;
  p.measurement = "cpu";
  p.set_tag("hostname", "h1");
  p.add_field("user", 1.0);
  p.add_field("system", 2.0);
  p.timestamp = 500;
  p.normalize();
  storage.write("lms", {p}, 0);
  const tsdb::ReadSnapshot snap = storage.snapshot("lms");
  ASSERT_TRUE(snap);
  const std::string dump = tsdb::dump_database(*snap);
  // Both fields on one line: the dump re-merges columns by timestamp.
  EXPECT_EQ(dump, "cpu,hostname=h1 system=2,user=1 500\n");
}

TEST(PersistTest, LoadRejectsGarbage) {
  tsdb::Storage storage;
  EXPECT_FALSE(tsdb::load_snapshot(storage, "/nonexistent/path").ok());
  const std::string path = ::testing::TempDir() + "/not_a_snapshot.lp";
  {
    std::ofstream f(path);
    f << "cpu v=1 100\n";  // valid lines but no header
  }
  EXPECT_FALSE(tsdb::load_snapshot(storage, path).ok());
}

// ---------------------------------------------------------- rules from ini

TEST(RulesFromConfig, ParsesFullRule) {
  const auto cfg = util::Config::parse(R"(
[rule:gpu_idle]
description = GPU allocated but idle
severity = critical
min_duration = 5m
resolution = 15s
condition = gpu.utilization < 5
condition2 = gpu.power_watts < 50
)");
  ASSERT_TRUE(cfg.ok());
  auto rules = analysis::rules_from_config(*cfg);
  ASSERT_TRUE(rules.ok()) << rules.message();
  ASSERT_EQ(rules->size(), 1u);
  const analysis::Rule& r = (*rules)[0];
  EXPECT_EQ(r.name, "gpu_idle");
  EXPECT_EQ(r.severity, analysis::Severity::kCritical);
  EXPECT_EQ(r.min_duration, 5 * kMin);
  EXPECT_EQ(r.resolution, 15 * kSec);
  ASSERT_EQ(r.conditions.size(), 2u);
  EXPECT_EQ(r.conditions[0].metric.measurement, "gpu");
  EXPECT_EQ(r.conditions[0].metric.field, "utilization");
  EXPECT_EQ(r.conditions[0].op, analysis::ThresholdOp::kBelow);
  EXPECT_DOUBLE_EQ(r.conditions[0].threshold, 5.0);
  EXPECT_EQ(r.conditions[1].op, analysis::ThresholdOp::kBelow);
}

TEST(RulesFromConfig, DefaultsAndAboveOperator) {
  const auto cfg = util::Config::parse(R"(
[rule:hot]
condition = memory.used_percent > 95
[other_section]
ignored = yes
)");
  auto rules = analysis::rules_from_config(*cfg);
  ASSERT_TRUE(rules.ok()) << rules.message();
  ASSERT_EQ(rules->size(), 1u);
  EXPECT_EQ((*rules)[0].severity, analysis::Severity::kWarning);  // default
  EXPECT_EQ((*rules)[0].conditions[0].op, analysis::ThresholdOp::kAbove);
  EXPECT_EQ((*rules)[0].description, "hot");  // defaults to the name
}

TEST(RulesFromConfig, Rejections) {
  auto check_fails = [](std::string_view ini) {
    const auto cfg = util::Config::parse(ini);
    ASSERT_TRUE(cfg.ok());
    EXPECT_FALSE(analysis::rules_from_config(*cfg).ok()) << ini;
  };
  check_fails("[rule:x]\ndescription = no conditions\n");
  check_fails("[rule:x]\ncondition = malformed\n");
  check_fails("[rule:x]\ncondition = a.b < notanumber\n");
  check_fails("[rule:x]\ncondition = a.b < 1 > 2\n");
  check_fails("[rule:x]\ncondition = a.b < 1\nseverity = fatal\n");
  check_fails("[rule:x]\ncondition = a.b < 1\nmin_duration = 10parsecs\n");
  check_fails("[rule:x]\ncondition = nofield < 1\n");
}

TEST(RulesFromConfig, ConfiguredRuleDetects) {
  // A config-defined rule drives the same engine as the built-ins.
  tsdb::Storage storage;
  std::vector<lineproto::Point> points;
  for (util::TimeNs t = 0; t < 20 * kMin; t += 10 * kSec) {
    points.push_back(lineproto::make_point("gpu", "utilization", t > 5 * kMin ? 1.0 : 80.0,
                                           t, {{"hostname", "h1"}, {"jobid", "1"}}));
  }
  storage.write("lms", points, 0);
  const auto cfg = util::Config::parse(
      "[rule:gpu_idle]\nseverity = warning\nmin_duration = 5m\ncondition = gpu.utilization "
      "< 5\n");
  auto rules = analysis::rules_from_config(*cfg);
  ASSERT_TRUE(rules.ok());
  analysis::MetricFetcher fetcher(storage, "lms");
  analysis::RuleEngine engine(fetcher);
  for (auto& r : *rules) engine.add_rule(std::move(r));
  const auto findings = engine.evaluate_host("h1", "1", 0, 20 * kMin);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "gpu_idle");
}

// ------------------------------------------------------ agent self-monitor

TEST(AgentSelfMonitor, EmitsOwnCounters) {
  tsdb::Storage storage;
  util::SimClock clock(0);
  tsdb::HttpApi api(storage, clock);
  net::InprocNetwork network;
  network.bind("router", api.handler());
  net::InprocHttpClient client(network);

  collector::HostAgent::Options opts;
  opts.router_url = "inproc://router";
  opts.flush_interval = 10 * kSec;
  opts.self_monitor_interval = 30 * kSec;
  opts.hostname = "h1";
  collector::HostAgent agent(client, opts);
  for (int t = 0; t <= 70; t += 10) {
    agent.tick(static_cast<util::TimeNs>(t) * kSec);
  }
  tsdb::Database* db = storage.find_database("lms");
  ASSERT_NE(db, nullptr);
  const auto series = db->series_matching("agent", {{"hostname", "h1"}});
  ASSERT_EQ(series.size(), 1u);
  // Self-monitor points at t=0,30,60.
  EXPECT_EQ(series[0]->columns.at("points_sent").size(), 3u);
  // The last report reflects earlier sends.
  EXPECT_GT(series[0]->columns.at("points_sent").value_at(2).as_int(), 0);
}

// ------------------------------------------------------------ router spool

struct FlakyDb {
  net::InprocNetwork network;
  tsdb::Storage storage;
  util::SimClock clock{0};
  tsdb::HttpApi api{storage, clock};
  bool down = false;

  FlakyDb() {
    network.bind("tsdb", [this](const net::HttpRequest& req) {
      if (down) return net::HttpResponse::text(503, "db down");
      return api.handler()(req);
    });
  }
};

TEST(RouterSpoolTest, SpoolsWhileDbDownAndDrains) {
  FlakyDb db;
  net::InprocHttpClient client(db.network);
  core::MetricsRouter::Options opts;
  opts.db_url = "inproc://tsdb";
  opts.spool_capacity = 100;
  core::MetricsRouter router(client, db.clock, opts);

  db.down = true;
  for (int i = 0; i < 5; ++i) {
    auto r = router.write_lines("cpu,hostname=h1 v=" + std::to_string(i) + " " +
                                std::to_string((i + 1) * 1000) + "\n");
    ASSERT_TRUE(r.ok());  // acknowledged despite the outage
  }
  EXPECT_EQ(router.spool_size(), 5u);
  EXPECT_EQ(router.stats().points_spooled, 5u);
  EXPECT_EQ(db.storage.databases().size(), 0u);

  db.down = false;
  // The next write drains the spool first.
  ASSERT_TRUE(router.write_lines("cpu,hostname=h1 v=99 9000\n").ok());
  EXPECT_EQ(router.spool_size(), 0u);
  EXPECT_EQ(db.storage.find_database("lms")->sample_count(), 6u);
  EXPECT_EQ(router.stats().points_out, 6u);
}

TEST(RouterSpoolTest, BoundedSpoolDropsOldest) {
  FlakyDb db;
  net::InprocHttpClient client(db.network);
  core::MetricsRouter::Options opts;
  opts.db_url = "inproc://tsdb";
  opts.spool_capacity = 3;
  core::MetricsRouter router(client, db.clock, opts);
  db.down = true;
  for (int i = 0; i < 10; ++i) {
    (void)router.write_lines("cpu,hostname=h1 v=" + std::to_string(i) + " " +
                             std::to_string((i + 1) * 1000) + "\n");
  }
  EXPECT_EQ(router.spool_size(), 3u);
  EXPECT_EQ(router.stats().spool_dropped, 7u);
  db.down = false;
  EXPECT_EQ(router.flush_spool(), 3u);
  // The three newest survived.
  const auto* col = &db.storage.find_database("lms")->series_of("cpu")[0]->columns.at("v");
  EXPECT_DOUBLE_EQ(col->value_at(0).as_double(), 7.0);
}

TEST(RouterSpoolTest, DisabledSpoolReportsErrors) {
  FlakyDb db;
  net::InprocHttpClient client(db.network);
  core::MetricsRouter::Options opts;
  opts.db_url = "inproc://tsdb";
  core::MetricsRouter router(client, db.clock, opts);
  db.down = true;
  EXPECT_FALSE(router.write_lines("cpu,hostname=h1 v=1 1000\n").ok());
  EXPECT_EQ(router.spool_size(), 0u);
}

}  // namespace
}  // namespace lms
