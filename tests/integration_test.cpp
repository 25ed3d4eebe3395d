// Full-stack integration tests reproducing the paper's scenarios end to end:
//   - Fig. 2: online job evaluation with per-node verdicts,
//   - Fig. 3: miniMD application-level metrics and start/end events,
//   - Fig. 4: >10-minute computation break detected online and offline,
//   - pattern classification of characteristic workloads,
//   - the whole pipeline over real TCP sockets (deployment mode).

#include <gtest/gtest.h>

#include "lms/cluster/harness.hpp"
#include "lms/core/router.hpp"
#include "lms/lineproto/codec.hpp"
#include "lms/net/tcp_http.hpp"
#include "lms/tsdb/http_api.hpp"
#include "lms/util/strings.hpp"

namespace lms {
namespace {

using util::kNanosPerMinute;
using util::kNanosPerSecond;

constexpr util::TimeNs kMin = kNanosPerMinute;

TEST(Integration, Fig4ComputeBreakDetectedOnlineAndOffline) {
  cluster::ClusterHarness::Options opts;
  opts.nodes = 4;
  cluster::ClusterHarness harness(opts);
  // compute_break: 10 min compute, 12 min break, then compute again (the
  // Fig. 4 timeline on hosts h1..h4).
  const int job = harness.submit("compute_break", "alice", 4, 40 * kMin);
  ASSERT_TRUE(harness.run_until_done(job, 90 * kMin));
  const auto* record = harness.job_record(job);

  // Online: the stream analyzer saw the break as it happened.
  const auto online = harness.online_engine().take_findings();
  std::set<std::string> hosts_fired;
  for (const auto& f : online) {
    if (f.rule == "compute_break") hosts_fired.insert(f.hostname);
  }
  EXPECT_EQ(hosts_fired.size(), 4u) << "online findings: " << online.size();

  // Offline: the rule engine re-derives the same break from the database.
  analysis::RuleEngine engine(harness.fetcher());
  for (auto& r : analysis::builtin_rules()) engine.add_rule(std::move(r));
  const auto findings = engine.evaluate_job(record->nodes, std::to_string(job),
                                            record->start_time, record->end_time);
  std::size_t breaks = 0;
  for (const auto& f : findings) {
    if (f.rule != "compute_break") continue;
    ++breaks;
    // Break starts ~10 min into the job and lasts ~12 min.
    EXPECT_NEAR(util::ns_to_seconds(f.start - record->start_time), 600.0, 60.0);
    EXPECT_NEAR(util::ns_to_seconds(f.duration()), 720.0, 90.0);
  }
  EXPECT_EQ(breaks, 4u);
}

TEST(Integration, Fig2OnlineEvaluationFlagsIdleJob) {
  cluster::ClusterHarness::Options opts;
  opts.nodes = 4;
  cluster::ClusterHarness harness(opts);
  const int job = harness.submit("idle", "bob", 4, 30 * kMin);
  harness.run_for(15 * kMin);

  // Evaluate "from the start of the job until the loading of the Grafana
  // dashboard" (Fig. 2).
  const auto running = harness.router().running_jobs();
  ASSERT_EQ(running.size(), 1u);
  const auto eval = harness.reporter().evaluate(std::to_string(job), running[0].nodes,
                                                running[0].start_time, harness.now());
  ASSERT_EQ(eval.hosts.size(), 4u);
  // CPU load row: critical on every node.
  const auto& cpu_row = eval.rows[0];
  ASSERT_EQ(cpu_row.check.label, "CPU load");
  for (const auto& cell : cpu_row.cells) {
    EXPECT_EQ(cell.verdict, analysis::Verdict::kCritical);
  }
  // The job classifies as idle with maximal optimization potential.
  EXPECT_EQ(eval.classification.pattern, analysis::Pattern::kIdle);
  EXPECT_DOUBLE_EQ(eval.classification.optimization_potential, 1.0);
  // The idle rule fired on every node.
  std::set<std::string> hosts;
  for (const auto& f : eval.findings) {
    if (f.rule == "idle_node") hosts.insert(f.hostname);
  }
  EXPECT_EQ(hosts.size(), 4u);
}

TEST(Integration, Fig3MiniMdAppMetricsAndEvents) {
  cluster::ClusterHarness::Options opts;
  opts.nodes = 4;
  cluster::ClusterHarness harness(opts);
  const int job = harness.submit("minimd", "carol", 4, 10 * kMin);
  ASSERT_TRUE(harness.run_until_done(job, 30 * kMin));
  const auto* record = harness.job_record(job);
  const std::string job_str = std::to_string(job);

  // The four Fig. 3 series exist, tagged with the job.
  for (const char* field : {"runtime_100iters", "pressure", "temperature", "energy"}) {
    auto series = harness.fetcher().fetch({"usermetric", field}, {{"jobid", job_str}},
                                          record->start_time, record->end_time + kMin);
    ASSERT_TRUE(series.ok()) << field;
    // 10 min at 50 iters/s = 30000 iters -> ~300 reports per field.
    EXPECT_GT(series->size(), 250u) << field;
    EXPECT_LT(series->size(), 350u) << field;
  }

  // Physically sensible values: temperature equilibrates between 0.2 and 2,
  // runtime per 100 iterations is ~2 s.
  auto temp = harness.fetcher().fetch({"usermetric", "temperature"}, {{"jobid", job_str}},
                                      record->start_time, record->end_time + kMin);
  EXPECT_GT(temp->mean(), 0.2);
  EXPECT_LT(temp->mean(), 2.0);
  auto runtime = harness.fetcher().fetch({"usermetric", "runtime_100iters"},
                                         {{"jobid", job_str}}, record->start_time,
                                         record->end_time + kMin);
  EXPECT_NEAR(runtime->mean(), 2.0, 0.2);

  // Start/end events around the run (dark dashed lines in Fig. 3).
  tsdb::Database* db = harness.storage().find_database("lms");
  const auto ev_series = db->series_matching("userevents", {{"jobid", job_str}});
  ASSERT_FALSE(ev_series.empty());
  std::vector<std::string> texts;
  for (const auto* s : ev_series) {
    const auto it = s->columns.find("text");
    if (it == s->columns.end()) continue;
    for (std::size_t i = 0; i < it->second.size(); ++i) {
      texts.push_back(it->second.value_at(i).as_string());
    }
  }
  EXPECT_NE(std::find(texts.begin(), texts.end(), "start of minimd"), texts.end());
  EXPECT_NE(std::find(texts.begin(), texts.end(), "end of minimd"), texts.end());
}

TEST(Integration, PatternClassificationPerWorkload) {
  struct Case {
    const char* workload;
    analysis::Pattern expected;
  };
  const Case cases[] = {
      {"stream", analysis::Pattern::kBandwidthSaturation},
      {"dgemm", analysis::Pattern::kComputeBound},
      {"idle", analysis::Pattern::kIdle},
      {"imbalanced", analysis::Pattern::kLoadImbalance},
      {"scalar", analysis::Pattern::kScalarCode},
      {"latency", analysis::Pattern::kMemoryLatencyBound},
  };
  for (const auto& c : cases) {
    cluster::ClusterHarness::Options opts;
    opts.nodes = 4;
    // All HPM groups needed by the signature builder.
    opts.hpm_groups = {"MEM_DP", "FLOPS_DP", "BRANCH"};
    cluster::ClusterHarness harness(opts);
    const int job = harness.submit(c.workload, "user", 4, 10 * kMin);
    ASSERT_TRUE(harness.run_until_done(job, 30 * kMin)) << c.workload;
    const auto* record = harness.job_record(job);
    const auto sig = analysis::signature_from_db(harness.fetcher(), record->nodes,
                                                 std::to_string(job), record->start_time,
                                                 record->end_time, *harness.options().arch);
    const auto result = analysis::DecisionTree::default_tree().classify(sig);
    EXPECT_EQ(result.pattern, c.expected)
        << c.workload << " classified as " << analysis::pattern_name(result.pattern);
  }
}

TEST(Integration, MpiToolingDataShowsImbalance) {
  // §IV planned feature, implemented: PMPI-style profiling data flows
  // through libusermetric; the waiting ranks of an imbalanced job show high
  // MPI time fractions while the overloaded rank does not.
  cluster::ClusterHarness::Options opts;
  opts.nodes = 4;
  cluster::ClusterHarness harness(opts);
  const int job = harness.submit("imbalanced", "alice", 4, 10 * kMin);
  ASSERT_TRUE(harness.run_until_done(job, 30 * kMin));
  const std::string job_str = std::to_string(job);
  const auto* record = harness.job_record(job);

  auto heavy = harness.fetcher().fetch({"usermetric", "mpi_time_fraction"},
                                       {{"jobid", job_str}, {"rank", "0"}},
                                       record->start_time, record->end_time + kMin);
  auto light = harness.fetcher().fetch({"usermetric", "mpi_time_fraction"},
                                       {{"jobid", job_str}, {"rank", "2"}},
                                       record->start_time, record->end_time + kMin);
  ASSERT_TRUE(heavy.ok());
  ASSERT_TRUE(light.ok());
  ASSERT_FALSE(heavy->empty());
  ASSERT_FALSE(light->empty());
  EXPECT_LT(heavy->mean(), 0.1);
  EXPECT_GT(light->mean(), 0.5);
  // Waiting happens in synchronizing calls.
  auto sync = harness.fetcher().fetch({"usermetric", "mpi_sync_fraction"},
                                      {{"jobid", job_str}, {"rank", "2"}},
                                      record->start_time, record->end_time + kMin);
  ASSERT_FALSE(sync->empty());
  EXPECT_GT(sync->mean(), 0.8);
}

TEST(Integration, MemleakTriggersMemoryRule) {
  cluster::ClusterHarness::Options opts;
  opts.nodes = 1;
  cluster::ClusterHarness harness(opts);
  // 64 GB node, leak starts at 4 GB and grows 120 MB/s -> hits 95% after
  // ~8 minutes; run 15.
  const int job = harness.submit("memleak", "dave", 1, 15 * kMin);
  ASSERT_TRUE(harness.run_until_done(job, 40 * kMin));
  const auto* record = harness.job_record(job);
  analysis::RuleEngine engine(harness.fetcher());
  for (auto& r : analysis::builtin_rules()) engine.add_rule(std::move(r));
  const auto findings = engine.evaluate_job(record->nodes, std::to_string(job),
                                            record->start_time, record->end_time);
  bool found = false;
  for (const auto& f : findings) {
    if (f.rule == "memory_exceeded") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Integration, MultipleJobsIsolatedByTags) {
  cluster::ClusterHarness::Options opts;
  opts.nodes = 4;
  cluster::ClusterHarness harness(opts);
  const int a = harness.submit("dgemm", "alice", 2, 5 * kMin);
  const int b = harness.submit("stream", "bob", 2, 5 * kMin);
  harness.run_for(3 * kMin);
  EXPECT_EQ(harness.scheduler().running().size(), 2u);

  // Each job's metrics carry only its own tags.
  tsdb::Database* db = harness.storage().find_database("lms");
  const auto a_series = db->series_matching("likwid_mem_dp", {{"jobid", std::to_string(a)}});
  const auto b_series = db->series_matching("likwid_mem_dp", {{"jobid", std::to_string(b)}});
  ASSERT_FALSE(a_series.empty());
  ASSERT_FALSE(b_series.empty());
  for (const auto* s : a_series) EXPECT_EQ(s->tag("user"), "alice");
  for (const auto* s : b_series) EXPECT_EQ(s->tag("user"), "bob");
  // Node sets are disjoint.
  std::set<std::string> a_hosts, b_hosts;
  for (const auto* s : a_series) a_hosts.emplace(s->tag("hostname"));
  for (const auto* s : b_series) b_hosts.emplace(s->tag("hostname"));
  for (const auto& h : a_hosts) EXPECT_EQ(b_hosts.count(h), 0u);

  // dgemm's flop rate clearly exceeds stream's.
  auto a_flops = harness.fetcher().fetch({"likwid_mem_dp", "dp_mflop_per_s"},
                                         {{"jobid", std::to_string(a)}}, 0, harness.now());
  auto b_flops = harness.fetcher().fetch({"likwid_mem_dp", "dp_mflop_per_s"},
                                         {{"jobid", std::to_string(b)}}, 0, harness.now());
  EXPECT_GT(a_flops->mean(), 5 * b_flops->mean());
}

TEST(Integration, OnlineFindingsRecordedAsAlerts) {
  cluster::ClusterHarness::Options opts;
  opts.nodes = 2;
  opts.record_findings = true;
  cluster::ClusterHarness harness(opts);
  const int job = harness.submit("idle", "carol", 2, 20 * kMin);
  ASSERT_TRUE(harness.run_until_done(job, 60 * kMin));
  // Findings landed in the DB as queryable alert events.
  const std::string job_str = std::to_string(job);
  tsdb::Database* db = harness.storage().find_database("lms");
  const auto series = db->series_matching("alerts", {{"jobid", job_str}});
  ASSERT_FALSE(series.empty());
  std::set<std::string> rules;
  for (const auto* s : series) rules.emplace(s->tag("rule"));
  EXPECT_TRUE(rules.count("idle_node"));
}

TEST(Integration, MiniMdReportsOmpToolingData) {
  cluster::ClusterHarness::Options opts;
  opts.nodes = 2;
  cluster::ClusterHarness harness(opts);
  const int job = harness.submit("minimd", "alice", 2, 10 * kMin);
  ASSERT_TRUE(harness.run_until_done(job, 30 * kMin));
  const std::string job_str = std::to_string(job);
  auto frac = harness.fetcher().fetch({"usermetric", "omp_parallel_fraction"},
                                      {{"jobid", job_str}}, 0, harness.now());
  auto eff = harness.fetcher().fetch({"usermetric", "omp_load_efficiency"},
                                     {{"jobid", job_str}}, 0, harness.now());
  ASSERT_TRUE(frac.ok());
  ASSERT_FALSE(frac->empty());
  EXPECT_NEAR(frac->mean(), 0.85, 0.1);
  ASSERT_FALSE(eff->empty());
  EXPECT_GT(eff->mean(), 0.9);  // balanced threads
}

TEST(Integration, AggregatorProducesJobLevelSeries) {
  cluster::ClusterHarness::Options opts;
  opts.nodes = 4;
  opts.enable_aggregator = true;
  cluster::ClusterHarness harness(opts);
  const int job = harness.submit("dgemm", "alice", 4, 10 * kMin);
  ASSERT_TRUE(harness.run_until_done(job, 30 * kMin));
  const std::string job_str = std::to_string(job);

  // Job-level aggregate series exist: the windowed cross-node mean matches
  // the raw per-host values, and all 4 nodes contributed to each window.
  auto mean = harness.fetcher().fetch({"likwid_mem_dp_job", "dp_mflop_per_s_mean"},
                                      {{"jobid", job_str}}, 0, harness.now());
  auto nodes = harness.fetcher().fetch({"likwid_mem_dp_job", "dp_mflop_per_s_nodes"},
                                       {{"jobid", job_str}}, 0, harness.now());
  auto raw = harness.fetcher().fetch({"likwid_mem_dp", "dp_mflop_per_s"},
                                     {{"jobid", job_str}}, 0, harness.now());
  ASSERT_TRUE(mean.ok());
  ASSERT_FALSE(mean->empty());
  ASSERT_FALSE(nodes->empty());
  EXPECT_NEAR(mean->mean(), raw->mean(), 0.02 * raw->mean());
  EXPECT_NEAR(nodes->mean(), 4.0, 0.01);
  // min <= mean <= max in every window.
  auto mn = harness.fetcher().fetch({"likwid_mem_dp_job", "dp_mflop_per_s_min"},
                                    {{"jobid", job_str}}, 0, harness.now());
  auto mx = harness.fetcher().fetch({"likwid_mem_dp_job", "dp_mflop_per_s_max"},
                                    {{"jobid", job_str}}, 0, harness.now());
  ASSERT_EQ(mn->size(), mean->size());
  ASSERT_EQ(mx->size(), mean->size());
  for (std::size_t i = 0; i < mean->size(); ++i) {
    EXPECT_LE(mn->values[i], mean->values[i] + 1e-9);
    EXPECT_LE(mean->values[i], mx->values[i] + 1e-9);
  }
  EXPECT_GT(harness.aggregator()->stats().points_emitted, 0u);
}

TEST(Integration, RollupsSurviveRetention) {
  cluster::ClusterHarness::Options opts;
  opts.nodes = 2;
  opts.enable_rollups = true;
  opts.retention = 15 * kMin;  // raw data lives 15 minutes
  cluster::ClusterHarness harness(opts);
  const int job = harness.submit("dgemm", "alice", 2, 30 * kMin);
  ASSERT_TRUE(harness.run_until_done(job, 60 * kMin));
  harness.run_for(20 * kMin);  // idle on; retention keeps mowing

  tsdb::Database* db = harness.storage().find_database("lms");
  ASSERT_NE(db, nullptr);
  // Raw cpu data older than the retention window is gone...
  const auto* record = harness.job_record(job);
  auto early_raw = harness.fetcher().fetch({"cpu", "user_percent"},
                                           {{"jobid", std::to_string(job)}},
                                           record->start_time, record->start_time + 5 * kMin);
  ASSERT_TRUE(early_raw.ok());
  EXPECT_TRUE(early_raw->empty());
  // ...but the 5-minute rollups still cover the whole job.
  auto rollup = harness.fetcher().fetch({"cpu_rollup", "user_percent_mean"},
                                        {{"jobid", std::to_string(job)}},
                                        record->start_time, record->end_time);
  ASSERT_TRUE(rollup.ok());
  ASSERT_GE(rollup->size(), 5u);
  EXPECT_NEAR(rollup->mean(), 98.0, 3.0);  // dgemm keeps the CPUs busy
  auto hpm_rollup = harness.fetcher().fetch({"likwid_mem_dp_rollup", "dp_mflop_per_s_mean"},
                                            {{"jobid", std::to_string(job)}},
                                            record->start_time, record->end_time);
  ASSERT_FALSE(hpm_rollup->empty());
}

TEST(Integration, FullPipelineOverTcpSockets) {
  // Deployment mode: DB and router as real HTTP servers, collector posting
  // over TCP — the "existing infrastructure" integration path.
  tsdb::Storage storage;
  util::SimClock clock(1000 * kNanosPerSecond);
  tsdb::HttpApi db_api(storage, clock);
  net::TcpHttpServer db_server(db_api.handler());
  ASSERT_TRUE(db_server.start().ok());

  net::TcpHttpClient router_db_client;
  core::MetricsRouter::Options ropts;
  ropts.db_url = db_server.url();
  core::MetricsRouter router(router_db_client, clock, ropts);
  net::TcpHttpServer router_server(router.handler());
  ASSERT_TRUE(router_server.start().ok());

  net::TcpHttpClient client;
  // Job signal, like a scheduler prolog would send with curl.
  auto resp = client.post(router_server.url() + "/job/start",
                          R"({"jobid":"77","user":"eve","nodes":["n1"]})",
                          "application/json");
  ASSERT_TRUE(resp.ok()) << resp.message();
  EXPECT_EQ(resp->status, 204);
  // Metric delivery, like a curl cronjob (paper §III-A).
  resp = client.post(router_server.url() + "/write?db=lms",
                     "cpu,hostname=n1 user_percent=88 999000000000\n", "text/plain");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 204);
  // Query back through the DB's HTTP API; enrichment happened en route.
  resp = client.get(db_server.url() + "/query?db=lms&q=" +
                    util::url_encode("SELECT user_percent FROM cpu WHERE jobid='77'"));
  ASSERT_TRUE(resp.ok());
  EXPECT_NE(resp->body.find("88"), std::string::npos);
  router_server.stop();
  db_server.stop();
}

TEST(Integration, DbOutageLosesNoPoints) {
  // Failure injection: the database endpoint disappears mid-run. Agents
  // keep their batches in the retry queue and deliver once the DB returns —
  // the cpu series ends up gap-free.
  cluster::ClusterHarness::Options opts;
  opts.nodes = 2;
  cluster::ClusterHarness harness(opts);
  const int job = harness.submit("dgemm", "alice", 2, 30 * kMin);
  harness.run_for(5 * kMin);

  // Outage: 10 minutes without a database.
  harness.network().unbind(cluster::ClusterHarness::kDbEndpoint);
  harness.run_for(10 * kMin);
  // Nothing new could land.
  tsdb::Database* db = harness.storage().find_database("lms");
  const auto count_cpu = [&] {
    std::size_t n = 0;
    for (const auto* s : db->series_matching("cpu", {{"hostname", "h1"}})) {
      const auto it = s->columns.find("user_percent");
      if (it != s->columns.end()) n += it->second.size();
    }
    return n;
  };
  const std::size_t during_outage = count_cpu();

  // Recovery.
  harness.network().bind(cluster::ClusterHarness::kDbEndpoint,
                         harness.db_api().handler());
  harness.run_for(10 * kMin);
  const std::size_t after = count_cpu();
  // 25 minutes at 10 s cadence ~ 150 samples; allow slack for baselines.
  EXPECT_GT(after, during_outage + 100);

  // Gap-free: consecutive cpu samples for the job never more than ~2
  // collection intervals apart, despite the outage.
  const auto series = harness.fetcher().fetch_host(
      {"cpu", "user_percent"}, "h1", std::to_string(job), 0, harness.now());
  ASSERT_TRUE(series.ok());
  util::TimeNs max_gap = 0;
  for (std::size_t i = 1; i < series->times.size(); ++i) {
    max_gap = std::max(max_gap, series->times[i] - series->times[i - 1]);
  }
  EXPECT_LE(max_gap, 21 * kNanosPerSecond);
}

TEST(Integration, PortableAcrossArchitectures) {
  // The §II portability claim: swap the simulated CPU; nothing above the
  // HPM layer changes — same pipeline, same classification logic.
  cluster::ClusterHarness::Options opts;
  opts.nodes = 2;
  opts.arch = &hpm::simx86_small();
  cluster::ClusterHarness harness(opts);
  const int job = harness.submit("stream", "alice", 2, 10 * kMin);
  ASSERT_TRUE(harness.run_until_done(job, 30 * kMin));
  const auto* record = harness.job_record(job);
  const auto sig = analysis::signature_from_db(harness.fetcher(), record->nodes,
                                               std::to_string(job), record->start_time,
                                               record->end_time, hpm::simx86_small());
  // Saturation is judged against *this* architecture's peak.
  EXPECT_GT(sig.mem_bw_fraction, 0.7);
  EXPECT_EQ(analysis::DecisionTree::default_tree().classify(sig).pattern,
            analysis::Pattern::kBandwidthSaturation);
}

TEST(Integration, RouterStatsConsistentAfterRun) {
  cluster::ClusterHarness::Options opts;
  opts.nodes = 2;
  cluster::ClusterHarness harness(opts);
  const int job = harness.submit("minimd", "alice", 2, 5 * kMin);
  ASSERT_TRUE(harness.run_until_done(job, 20 * kMin));
  const auto stats = harness.router().stats();
  EXPECT_EQ(stats.points_in, stats.points_out);
  EXPECT_EQ(stats.parse_errors, 0u);
  EXPECT_EQ(stats.forward_failures, 0u);
  EXPECT_EQ(stats.jobs_started, 1u);
  EXPECT_EQ(stats.jobs_ended, 1u);
  // Everything the router forwarded is in the DB.
  tsdb::Database* db = harness.storage().find_database("lms");
  EXPECT_EQ(db->sample_count() > 0, true);
  // No host keeps job tags after the job ended.
  EXPECT_EQ(harness.router().tag_store().host_count(), 0u);
}

}  // namespace
}  // namespace lms
