// Tests for the paper's core component: the metrics router — tag store,
// enrichment keyed by the hostname tag, job start/end signals, per-user
// duplication, PUB/SUB publication, the spool under async and concurrent
// flushes — plus the Ganglia pulling proxy.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "lms/core/pullproxy.hpp"
#include "lms/core/router.hpp"
#include "lms/json/json.hpp"
#include "lms/lineproto/codec.hpp"
#include "lms/tsdb/http_api.hpp"
#include "lms/util/strings.hpp"

namespace lms::core {
namespace {

using lineproto::Point;
using util::kNanosPerSecond;

constexpr util::TimeNs kSec = kNanosPerSecond;

// ---------------------------------------------------------------- tagstore

TEST(TagStoreTest, SetClearLookup) {
  TagStore store;
  store.set_tags("h1", {{"jobid", "7"}, {"user", "alice"}});
  EXPECT_EQ(store.host_count(), 1u);
  EXPECT_EQ(store.tags_for("h1").size(), 2u);
  EXPECT_TRUE(store.tags_for("h2").empty());
  store.clear_tags("h1");
  EXPECT_EQ(store.host_count(), 0u);
}

TEST(TagStoreTest, EnrichAppendsWithoutOverwriting) {
  TagStore store;
  store.set_tags("h1", {{"jobid", "7"}, {"user", "alice"}});
  Point p = lineproto::make_point("cpu", "v", 1.0, 10,
                                  {{"hostname", "h1"}, {"user", "produceruser"}});
  EXPECT_EQ(store.enrich(p), 1u);  // only jobid added; user kept
  EXPECT_EQ(p.tag("jobid"), "7");
  EXPECT_EQ(p.tag("user"), "produceruser");
  // Tags stay sorted after enrichment (canonical form).
  for (std::size_t i = 1; i < p.tags.size(); ++i) {
    EXPECT_LE(p.tags[i - 1].first, p.tags[i].first);
  }
}

TEST(TagStoreTest, EnrichWithoutHostnameIsNoop) {
  TagStore store;
  store.set_tags("h1", {{"jobid", "7"}});
  Point p = lineproto::make_point("cpu", "v", 1.0, 10);
  EXPECT_EQ(store.enrich(p), 0u);
  EXPECT_TRUE(p.tags.empty());
}

TEST(TagStoreTest, BatchEnrichMatchesPerPointEnrich) {
  TagStore store;
  // Unsorted, with a repeated key: the first value given wins.
  store.set_tags("h1", {{"user", "alice"}, {"jobid", "7"}, {"queue", "batch"}, {"jobid", "8"}});
  store.set_tags("h2", {{"jobid", "9"}});
  std::vector<Point> batch;
  for (int i = 0; i < 12; ++i) {
    std::vector<lineproto::Tag> tags = {{"hostname", "h" + std::to_string(i % 4)}};
    if (i % 3 == 0) tags.emplace_back("user", "producer");   // kept over the store's
    if (i % 5 == 0) tags.emplace_back("zone", "z1");         // sorts after the store's
    batch.push_back(lineproto::make_point("cpu", "v", 1.0 * i, 10 + i, tags));
  }
  std::vector<Point> one_by_one = batch;
  std::size_t added = 0;
  for (auto& p : one_by_one) added += store.enrich(p);
  EXPECT_EQ(store.enrich(batch), added);
  EXPECT_EQ(batch, one_by_one);
  EXPECT_EQ(batch[1].tag("jobid"), "7");
  EXPECT_EQ(batch[1].tag("user"), "alice");
  EXPECT_EQ(batch[4].tag("user"), "");  // h0 has no job
  EXPECT_EQ(batch[9].tag("user"), "producer");
  EXPECT_EQ(batch[9].tag("queue"), "batch");
  for (const auto& p : batch) {
    EXPECT_TRUE(std::is_sorted(p.tags.begin(), p.tags.end(),
                               [](const auto& a, const auto& b) { return a.first < b.first; }));
  }
}

// ---------------------------------------------------------------- fixture

class RouterTest : public ::testing::Test {
 protected:
  RouterTest()
      : clock_(100 * kSec),
        db_api_(storage_, clock_),
        client_(network_) {
    network_.bind("tsdb", db_api_.handler());
    MetricsRouter::Options opts;
    opts.db_url = "inproc://tsdb";
    opts.database = "lms";
    opts.duplicate_per_user = true;
    router_ = std::make_unique<MetricsRouter>(client_, clock_, opts, &broker_);
    network_.bind("router", router_->handler());
  }

  JobSignal signal(const std::string& id, const std::string& user,
                   std::vector<std::string> nodes) {
    JobSignal s;
    s.job_id = id;
    s.user = user;
    s.nodes = std::move(nodes);
    s.extra_tags = {{"queue", "batch"}};
    return s;
  }

  /// Options for a router with async ingest that only flushes on demand
  /// (the interval is an hour, so the background flusher never interferes
  /// with deterministic assertions).
  MetricsRouter::Options async_opts() {
    MetricsRouter::Options opts;
    opts.db_url = "inproc://tsdb";
    opts.database = "lms";
    opts.async_ingest = true;
    opts.ingest_flush_interval = util::kNanosPerHour;
    return opts;
  }

  net::HttpResponse post_write(MetricsRouter& router, const std::string& body,
                               const std::string& db = {}, const std::string& precision = {}) {
    net::HttpRequest req = net::HttpRequest::post("/write", body, "text/plain");
    if (!db.empty()) req.query.set("db", db);
    if (!precision.empty()) req.query.set("precision", precision);
    return router.handler()(req);
  }

  tsdb::Storage storage_;
  util::SimClock clock_;
  net::InprocNetwork network_;
  tsdb::HttpApi db_api_;
  net::InprocHttpClient client_;
  net::PubSubBroker broker_;
  std::unique_ptr<MetricsRouter> router_;
};

TEST_F(RouterTest, ForwardsPointsToDatabase) {
  auto n = router_->write_lines("cpu,hostname=h1 user=42 1000\n");
  ASSERT_TRUE(n.ok()) << n.message();
  EXPECT_EQ(*n, 1u);
  tsdb::Database* db = storage_.find_database("lms");
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(db->sample_count(), 1u);
}

TEST_F(RouterTest, EnrichesWithJobTags) {
  ASSERT_TRUE(router_->job_start(signal("42", "alice", {"h1", "h2"})).ok());
  router_->write_lines("cpu,hostname=h1 v=1 1000\ncpu,hostname=h3 v=2 1000\n");
  tsdb::Database* db = storage_.find_database("lms");
  // h1 point got jobid/user/queue tags, h3 (not in job) did not.
  EXPECT_EQ(db->series_matching("cpu", {{"jobid", "42"}, {"user", "alice"}}).size(), 1u);
  EXPECT_EQ(db->series_matching("cpu", {{"hostname", "h3"}, {"jobid", "42"}}).size(), 0u);
  EXPECT_EQ(db->series_matching("cpu", {{"queue", "batch"}}).size(), 1u);
}

TEST_F(RouterTest, JobEndStopsTagging) {
  router_->job_start(signal("42", "alice", {"h1"}));
  ASSERT_TRUE(router_->job_end("42").ok());
  router_->write_lines("cpu,hostname=h1 v=1 2000\n");
  tsdb::Database* db = storage_.find_database("lms");
  EXPECT_EQ(db->series_matching("cpu", {{"jobid", "42"}}).size(), 0u);
  EXPECT_FALSE(router_->job_end("42").ok());  // second end: unknown job
}

TEST_F(RouterTest, JobSignalsBecomeAnnotationEvents) {
  router_->job_start(signal("42", "alice", {"h1", "h2"}));
  clock_.advance(10 * kSec);
  router_->job_end("42");
  tsdb::Database* db = storage_.find_database("lms");
  const auto series = db->series_matching("events", {{"jobid", "42"}});
  ASSERT_EQ(series.size(), 1u);
  const auto& col = series[0]->columns.at("type");
  ASSERT_EQ(col.size(), 2u);
  EXPECT_EQ(col.value_at(0).as_string(), "job_start");
  EXPECT_EQ(col.value_at(1).as_string(), "job_end");
  EXPECT_EQ(col.times()[1] - col.times()[0], 10 * kSec);
}

TEST_F(RouterTest, PerUserDuplication) {
  router_->job_start(signal("42", "alice", {"h1"}));
  router_->write_lines("cpu,hostname=h1 v=1 1000\ncpu,hostname=h9 v=2 1000\n");
  // h1's point lands in lms AND user_alice; h9's only in lms.
  tsdb::Database* user_db = storage_.find_database("user_alice");
  ASSERT_NE(user_db, nullptr);
  EXPECT_EQ(user_db->sample_count(), 1u);
  EXPECT_EQ(storage_.find_database("lms")->series_of("cpu").size(), 2u);
  EXPECT_EQ(router_->stats().points_duplicated, 1u);
}

TEST_F(RouterTest, PublishesMetricsAndJobMeta) {
  auto metrics_sub = broker_.subscribe("metrics");
  auto jobs_sub = broker_.subscribe("jobs");
  router_->job_start(signal("42", "alice", {"h1"}));
  router_->write_lines("cpu,hostname=h1 v=1 1000\n");

  const auto job_msg = jobs_sub->try_receive();
  ASSERT_TRUE(job_msg.has_value());
  const auto meta = json::parse(job_msg->payload);
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ((*meta)["type"].as_string(), "job_start");
  EXPECT_EQ((*meta)["nodes"][0].as_string(), "h1");

  const auto metric_msg = metrics_sub->try_receive();
  ASSERT_TRUE(metric_msg.has_value());
  // Published lines are the *enriched* ones.
  const auto points = lineproto::parse(metric_msg->payload);
  ASSERT_TRUE(points.ok());
  EXPECT_EQ((*points)[0].tag("jobid"), "42");
}

TEST_F(RouterTest, RunningJobsTracked) {
  router_->job_start(signal("1", "alice", {"h1"}));
  router_->job_start(signal("2", "bob", {"h2", "h3"}));
  auto jobs = router_->running_jobs();
  EXPECT_EQ(jobs.size(), 2u);
  auto job = router_->find_job("2");
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(job->user, "bob");
  EXPECT_EQ(job->nodes.size(), 2u);
  router_->job_end("1");
  EXPECT_EQ(router_->running_jobs().size(), 1u);
  EXPECT_FALSE(router_->find_job("1").has_value());
}

TEST_F(RouterTest, HttpEndpoints) {
  // /ping
  EXPECT_EQ(client_.get("inproc://router/ping")->status, 204);
  // /job/start via HTTP JSON.
  auto resp = client_.post("inproc://router/job/start",
                           R"({"jobid":"9","user":"carol","nodes":["h1"],)"
                           R"("tags":{"account":"proj1"}})",
                           "application/json");
  EXPECT_EQ(resp->status, 204);
  // /write via HTTP.
  resp = client_.post("inproc://router/write?db=lms", "cpu,hostname=h1 v=3 500\n",
                      "text/plain");
  EXPECT_EQ(resp->status, 204);
  EXPECT_EQ(storage_.find_database("lms")
                ->series_matching("cpu", {{"account", "proj1"}})
                .size(),
            1u);
  // /jobs listing.
  resp = client_.get("inproc://router/jobs");
  auto jobs = json::parse(resp->body);
  ASSERT_TRUE(jobs.ok());
  EXPECT_EQ((*jobs)["jobs"][0]["jobid"].as_string(), "9");
  EXPECT_EQ((*jobs)["jobs"][0]["tags"]["account"].as_string(), "proj1");
  // /job/end.
  resp = client_.post("inproc://router/job/end", R"({"jobid":"9"})", "application/json");
  EXPECT_EQ(resp->status, 204);
  // /stats.
  resp = client_.get("inproc://router/stats");
  auto stats = json::parse(resp->body);
  EXPECT_EQ((*stats)["jobs_started"].as_int(), 1);
  EXPECT_EQ((*stats)["jobs_ended"].as_int(), 1);
  // Unknown endpoint.
  EXPECT_EQ(client_.get("inproc://router/nope")->status, 404);
  // Malformed job signal.
  EXPECT_EQ(client_.post("inproc://router/job/start", "{notjson", "application/json")->status,
            400);
  EXPECT_EQ(client_.post("inproc://router/job/start", R"({"user":"x"})",
                         "application/json")
                ->status,
            400);
}

TEST_F(RouterTest, BadLinesCounted) {
  auto n = router_->write_lines("cpu,hostname=h1 v=1\nbroken\n");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1u);
  EXPECT_EQ(router_->stats().parse_errors, 1u);
  EXPECT_FALSE(router_->write_lines("completely broken").ok());
}

TEST_F(RouterTest, UnstampedPointsGetRouterTime) {
  router_->write_lines("cpu,hostname=h1 v=1\n");
  tsdb::Database* db = storage_.find_database("lms");
  const auto series = db->series_of("cpu");
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0]->columns.at("v").times()[0], 100 * kSec);
}

TEST_F(RouterTest, PrecisionParameterScalesTimestamps) {
  EXPECT_EQ(post_write(*router_, "cpu,hostname=h1 v=1 5\n", "", "s").status, 204);
  const auto series = storage_.find_database("lms")->series_of("cpu");
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0]->columns.at("v").times()[0], 5 * kSec);
  // And the same invalid-precision rejection as the TSDB façade.
  EXPECT_EQ(post_write(*router_, "cpu,hostname=h1 v=1\n", "", "parsec").status, 400);
}

// ---------------------------------------------------------------- async ingest

TEST_F(RouterTest, AsyncIngestBuffersUntilFlush) {
  router_ = std::make_unique<MetricsRouter>(client_, clock_, async_opts(), &broker_);
  auto n = router_->write_lines("cpu,hostname=h1 v=1 1000\ncpu,hostname=h2 v=2 1000\n");
  ASSERT_TRUE(n.ok()) << n.message();
  EXPECT_EQ(*n, 2u);
  // Accepted but not forwarded yet.
  EXPECT_EQ(router_->ingest_queue_points(), 2u);
  EXPECT_EQ(storage_.totals().samples, 0u);
  EXPECT_EQ(router_->stats().points_out, 0u);

  EXPECT_EQ(router_->flush_ingest(), 2u);
  EXPECT_EQ(router_->ingest_queue_points(), 0u);
  EXPECT_EQ(storage_.totals().samples, 2u);
  const auto s = router_->stats();
  EXPECT_EQ(s.points_out, 2u);
  EXPECT_EQ(s.ingest_flushed, 2u);
}

TEST_F(RouterTest, AsyncIngestBackpressureIs429WithRetryAfter) {
  auto opts = async_opts();
  opts.ingest_queue_capacity = 4;
  router_ = std::make_unique<MetricsRouter>(client_, clock_, opts, &broker_);

  ASSERT_TRUE(router_->write_lines("a,hostname=h1 v=1 1\na,hostname=h2 v=1 1\na,hostname=h3 v=1 1\n").ok());
  const auto resp = post_write(
      *router_, "b,hostname=h1 v=1 1\nb,hostname=h2 v=1 1\nb,hostname=h3 v=1 1\n");
  EXPECT_EQ(resp.status, 429);
  EXPECT_EQ(resp.headers.get_or("Retry-After", ""), "1");
  auto body = json::parse(resp.body);
  ASSERT_TRUE(body.ok()) << resp.body;
  EXPECT_TRUE(util::starts_with((*body)["error"].as_string(), "backpressure"));
  EXPECT_EQ(router_->stats().ingest_rejected, 3u);
  // The rejected batch left no partial residue.
  EXPECT_EQ(router_->ingest_queue_points(), 3u);

  // Draining the queue makes room again.
  EXPECT_EQ(router_->flush_ingest(), 3u);
  EXPECT_EQ(post_write(*router_, "b,hostname=h1 v=1 1\n").status, 204);
}

TEST_F(RouterTest, AsyncIngestRoutesPerUserDuplicates) {
  auto opts = async_opts();
  opts.duplicate_per_user = true;
  router_ = std::make_unique<MetricsRouter>(client_, clock_, opts, &broker_);

  ASSERT_TRUE(router_->write_lines("cpu,hostname=h1,user=alice v=1 1000\n").ok());
  // Primary point + its per-user copy, routed at accept time.
  EXPECT_EQ(router_->ingest_queue_points(), 2u);
  EXPECT_EQ(router_->flush_ingest(), 2u);
  EXPECT_EQ(storage_.find_database("lms")->sample_count(), 1u);
  ASSERT_NE(storage_.find_database("user_alice"), nullptr);
  EXPECT_EQ(storage_.find_database("user_alice")->sample_count(), 1u);
  const auto s = router_->stats();
  EXPECT_EQ(s.points_out, 1u);
  EXPECT_EQ(s.points_duplicated, 1u);
}

TEST_F(RouterTest, AsyncIngestShutdownDrainsQueue) {
  router_ = std::make_unique<MetricsRouter>(client_, clock_, async_opts(), &broker_);
  ASSERT_TRUE(router_->write_lines("cpu,hostname=h1 v=1 1000\n").ok());
  EXPECT_EQ(storage_.totals().samples, 0u);
  router_.reset();  // joins the flusher and drains what is left
  EXPECT_EQ(storage_.totals().samples, 1u);
}

TEST_F(RouterTest, AsyncIngestBackgroundFlusherDelivers) {
  auto opts = async_opts();
  opts.ingest_flush_interval = util::kNanosPerMilli;  // real-time cadence
  router_ = std::make_unique<MetricsRouter>(client_, clock_, opts, &broker_);
  ASSERT_TRUE(router_->write_lines("cpu,hostname=h1 v=1 1000\n").ok());
  // totals() snapshots, so polling concurrently with the flusher is safe.
  for (int i = 0; i < 2000 && storage_.totals().samples == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(storage_.totals().samples, 1u);
  EXPECT_EQ(router_->ingest_queue_points(), 0u);
}

// ---------------------------------------------------------------- bytes

/// A back-end that records every /write body per database and accepts it.
class RecordingDb : public net::HttpClient {
 public:
  util::Result<net::HttpResponse> send(const std::string& url, net::HttpRequest req) override {
    const std::string db = std::string(url.substr(url.find("db=") + 3));
    const std::lock_guard<std::mutex> lock(mu_);
    bodies_[db].push_back(std::move(req.body));
    return net::HttpResponse::no_content();
  }
  /// The POSTed bodies for one database, in order.
  std::vector<std::string> bodies(const std::string& db) {
    const std::lock_guard<std::mutex> lock(mu_);
    return bodies_[db];
  }
  void clear() {
    const std::lock_guard<std::mutex> lock(mu_);
    bodies_.clear();
  }

 private:
  std::mutex mu_;
  std::map<std::string, std::vector<std::string>> bodies_;
};

std::string concat(const std::vector<std::string>& parts) {
  std::string out;
  for (const auto& p : parts) out += p;
  return out;
}

/// Every '\n'-terminated line of `text`.
std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  for (std::size_t start = 0; start < text.size();) {
    const std::size_t nl = text.find('\n', start);
    EXPECT_NE(nl, std::string::npos) << "unterminated line in " << text;
    if (nl == std::string::npos) break;
    out.push_back(text.substr(start, nl + 1 - start));
    start = nl + 1;
  }
  return out;
}

/// The lines of `text` whose point carries user=<user>.
std::string lines_of_user(const std::string& text, std::string_view user) {
  std::string out;
  for (const auto& line : lines_of(text)) {
    const auto p = lineproto::parse_line(util::trim(line));
    EXPECT_TRUE(p.ok()) << line;
    if (p.ok() && p->tag("user") == user) out += line;
  }
  return out;
}

TEST(RouterBytes, UserDbsGetThePrimaryLinesByteForByte) {
  for (const bool async : {false, true}) {
    SCOPED_TRACE(async ? "async ingest" : "inline forward");
    util::SimClock clock(100 * kSec);
    RecordingDb db;
    net::PubSubBroker broker;
    TaskScheduler::Options sched_opts;
    sched_opts.manual = true;
    TaskScheduler sched(sched_opts);
    MetricsRouter::Options opts;
    opts.db_url = "inproc://tsdb";
    opts.database = "lms";
    opts.duplicate_per_user = true;
    opts.async_ingest = async;
    opts.scheduler = &sched;
    MetricsRouter router(db, clock, opts, &broker);
    auto sub = broker.subscribe("metrics");

    JobSignal alice{"7", "alice", {"h1", "h2"}, {{"queue", "batch"}}};
    JobSignal bob{"8", "bob", {"h3"}, {}};
    ASSERT_TRUE(router.job_start(alice).ok());
    ASSERT_TRUE(router.job_start(bob).ok());
    db.clear();  // drop the job annotation events

    std::size_t accepted = 0;
    for (int i = 0; i < 20; ++i) {
      const std::string t = " " + std::to_string(1000 + i);
      std::string body = "cpu,hostname=h" + std::to_string(i % 4 + 1) + " v=" +
                         std::to_string(i) + t + "\n";
      body += "my\\ meas,hostname=h" + std::to_string(i % 3 + 1) +
              ",k\\=ey=v\\,alue s=\"q\\\" \\\\ \",n=" + std::to_string(i) + "i" + t + "\n";
      body += "mem,hostname=h4 used=0.5" + t + "\n";  // no job: no user copy
      auto n = router.write_lines(body);
      ASSERT_TRUE(n.ok()) << n.message();
      accepted += *n;
    }
    if (async) router.flush_ingest();

    const std::string primary = concat(db.bodies("lms"));
    ASSERT_EQ(lines_of(primary).size(), accepted);
    EXPECT_EQ(router.stats().points_out, accepted);
    for (const std::string user : {"alice", "bob"}) {
      const std::string copy = concat(db.bodies("user_" + user));
      EXPECT_FALSE(copy.empty()) << user;
      EXPECT_EQ(copy, lines_of_user(primary, user)) << user;
    }
    EXPECT_EQ(router.stats().points_duplicated,
              lines_of(concat(db.bodies("user_alice"))).size() +
                  lines_of(concat(db.bodies("user_bob"))).size());

    // The broker saw exactly the accepted lines, in order.
    std::string published;
    while (auto msg = sub->try_receive()) published += msg->payload;
    EXPECT_EQ(published, primary);
  }
}

TEST(RouterBytes, QueueSplitLosesAndRepeatsNoLine) {
  util::SimClock clock(100 * kSec);
  RecordingDb db;
  net::PubSubBroker broker;
  TaskScheduler::Options sched_opts;
  sched_opts.manual = true;
  TaskScheduler sched(sched_opts);
  MetricsRouter::Options opts;
  opts.db_url = "inproc://tsdb";
  opts.database = "lms";
  opts.duplicate_per_user = true;
  opts.async_ingest = true;
  opts.scheduler = &sched;
  opts.ingest_max_batch = 3;  // forces cuts inside and across writes
  MetricsRouter router(db, clock, opts, &broker);
  auto sub = broker.subscribe("metrics");
  ASSERT_TRUE(router.job_start({"7", "alice", {"h1"}, {}}).ok());
  db.clear();

  std::size_t accepted = 0;
  for (int w = 0; w < 7; ++w) {
    std::string body;
    for (int i = 0; i <= w; ++i) {
      body += "cpu,hostname=h" + std::to_string(i % 2 + 1) + " v=" + std::to_string(w * 10 + i) +
              " " + std::to_string(1000 + w * 10 + i) + "\n";
    }
    auto n = router.write_lines(body);
    ASSERT_TRUE(n.ok()) << n.message();
    accepted += *n;
  }
  const std::size_t flushed = router.flush_ingest();
  EXPECT_EQ(flushed, accepted + router.stats().points_duplicated);
  EXPECT_EQ(router.ingest_queue_points(), 0u);

  std::string published;
  while (auto msg = sub->try_receive()) published += msg->payload;
  const auto forwards = db.bodies("lms");
  EXPECT_GT(forwards.size(), 1u);
  for (const auto& body : forwards) EXPECT_LE(lines_of(body).size(), 3u) << body;
  // Concatenated, the cut batches are the accepted lines: none lost, none
  // repeated, order kept.
  EXPECT_EQ(concat(forwards), published);
  EXPECT_EQ(lines_of(published).size(), accepted);
  for (const auto& body : db.bodies("user_alice")) EXPECT_LE(lines_of(body).size(), 3u);
  EXPECT_EQ(concat(db.bodies("user_alice")), lines_of_user(published, "alice"));
  const auto s = router.stats();
  EXPECT_EQ(s.points_out, accepted);
  EXPECT_EQ(s.ingest_flushed, accepted + s.points_duplicated);
}

// ---------------------------------------------------------------- spool

/// A TSDB whose next /write, once `armed`, parks until `release`; every
/// other request fails with 503 while `down` is set. Lets a test hold one
/// flush_spool() forward in flight while other calls run.
struct GatedDb {
  net::InprocNetwork network;
  tsdb::Storage storage;
  util::SimClock clock{0};
  tsdb::HttpApi api{storage, clock};
  std::atomic<bool> down{false};
  std::atomic<bool> armed{false};
  std::atomic<bool> parked{false};
  std::atomic<bool> release{false};

  GatedDb() {
    network.bind("tsdb", [this](const net::HttpRequest& req) {
      if (req.path == "/write" && armed.exchange(false)) {
        parked = true;
        for (int i = 0; i < 5000 && !release; ++i) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return api.handler()(req);
      }
      if (down) return net::HttpResponse::text(503, "db down");
      return api.handler()(req);
    });
  }

  void wait_parked() const {
    for (int i = 0; i < 5000 && !parked; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
};

void spool_writes(MetricsRouter& router, int from, int to) {
  for (int i = from; i < to; ++i) {
    ASSERT_TRUE(router
                    .write_lines("cpu,hostname=h1 v=" + std::to_string(i) + " " +
                                 std::to_string((i + 1) * 1000) + "\n")
                    .ok());
  }
}

TEST(RouterSpoolTest, AsyncFlushDrainsSpoolWithoutNewWrites) {
  GatedDb db;
  net::InprocHttpClient client(db.network);
  MetricsRouter::Options opts;
  opts.db_url = "inproc://tsdb";
  opts.spool_capacity = 100;
  opts.async_ingest = true;
  opts.ingest_flush_interval = util::kNanosPerHour;  // flush on demand only
  MetricsRouter router(client, db.clock, opts);

  db.down = true;
  ASSERT_TRUE(router.write_lines("cpu,hostname=h1 v=1 1000\ncpu,hostname=h1 v=2 2000\n").ok());
  EXPECT_EQ(router.flush_ingest(), 2u);  // the forward fails: the batch is spooled
  EXPECT_EQ(router.spool_size(), 2u);

  db.down = false;
  // No new write arrives; the flush alone must retry the spool.
  EXPECT_EQ(router.flush_ingest(), 0u);
  EXPECT_EQ(router.spool_size(), 0u);
  ASSERT_NE(db.storage.find_database("lms"), nullptr);
  EXPECT_EQ(db.storage.find_database("lms")->sample_count(), 2u);
  EXPECT_EQ(router.stats().points_out, 2u);
}

TEST(RouterSpoolTest, ConcurrentFlushSpoolSendsEachPointOnce) {
  GatedDb db;
  net::InprocHttpClient client(db.network);
  MetricsRouter::Options opts;
  opts.db_url = "inproc://tsdb";
  opts.spool_capacity = 100;
  MetricsRouter router(client, db.clock, opts);
  db.down = true;
  spool_writes(router, 0, 5);
  ASSERT_EQ(router.spool_size(), 5u);

  db.down = false;
  db.armed = true;
  std::thread first([&router] { (void)router.flush_spool(); });
  db.wait_parked();
  ASSERT_TRUE(db.parked);
  // A second flush starts while the first one's forward is in flight.
  (void)router.flush_spool();
  db.release = true;
  first.join();
  (void)router.flush_spool();

  EXPECT_EQ(router.spool_size(), 0u);
  EXPECT_EQ(db.storage.find_database("lms")->sample_count(), 5u);
  EXPECT_EQ(router.stats().points_out, 5u);
}

TEST(RouterSpoolTest, PointsSpooledDuringFlushAreKept) {
  GatedDb db;
  net::InprocHttpClient client(db.network);
  MetricsRouter::Options opts;
  opts.db_url = "inproc://tsdb";
  opts.spool_capacity = 5;
  MetricsRouter router(client, db.clock, opts);
  db.down = true;
  spool_writes(router, 0, 3);

  // The flush's forward parks; the writes below still find the DB down and
  // spool 4 more points. Only the 3 in flight may leave the spool.
  db.armed = true;
  std::thread first([&router] { (void)router.flush_spool(); });
  db.wait_parked();
  ASSERT_TRUE(db.parked);
  spool_writes(router, 3, 7);
  db.down = false;
  db.release = true;
  first.join();
  (void)router.flush_spool();

  EXPECT_EQ(router.spool_size(), 0u);
  EXPECT_EQ(router.stats().spool_dropped, 0u);
  EXPECT_EQ(db.storage.find_database("lms")->sample_count(), 7u);
}

// ---------------------------------------------------------------- shared errors

TEST_F(RouterTest, WriteErrorResponsesMatchTsdbFacade) {
  // The router and the TSDB façade share one parser: a hopeless batch and an
  // invalid precision produce byte-identical error responses on both.
  for (const auto& [body, precision] :
       std::vector<std::pair<std::string, std::string>>{{"completely broken", ""},
                                                        {"cpu,hostname=h1 v=1", "parsec"}}) {
    net::HttpRequest req = net::HttpRequest::post("/write", body, "text/plain");
    req.query.set("db", "lms");
    if (!precision.empty()) req.query.set("precision", precision);
    const auto from_router = router_->handler()(req);
    const auto from_tsdb = db_api_.handler()(req);
    EXPECT_EQ(from_router.status, 400);
    EXPECT_EQ(from_router.status, from_tsdb.status);
    EXPECT_EQ(from_router.body, from_tsdb.body);
  }
}

TEST_F(RouterTest, UnknownDatabasePassesThrough404) {
  // A back-end with auto-creation off rejects unknown databases; the router
  // relays that 404 body unchanged so producers see one error shape.
  tsdb::Storage strict_storage;
  strict_storage.database("lms");
  tsdb::HttpApi::Options api_opts;
  api_opts.auto_create_dbs = false;
  tsdb::HttpApi strict_api(strict_storage, clock_, api_opts);
  network_.bind("strict", strict_api.handler());
  MetricsRouter::Options opts;
  opts.db_url = "inproc://strict";
  opts.database = "lms";
  MetricsRouter router(client_, clock_, opts, &broker_);

  net::HttpRequest req =
      net::HttpRequest::post("/write", "cpu,hostname=h1 v=1 1000\n", "text/plain");
  req.query.set("db", "ghost");
  const auto from_router = router.handler()(req);
  const auto from_tsdb = strict_api.handler()(req);
  EXPECT_EQ(from_router.status, 404);
  EXPECT_EQ(from_tsdb.status, 404);
  EXPECT_EQ(from_router.body, from_tsdb.body);
  // Writes to the known database still pass.
  EXPECT_EQ(router.handler()(net::HttpRequest::post(
                "/write", "cpu,hostname=h1 v=1 1000\n", "text/plain")).status, 204);
}

// ---------------------------------------------------------------- pullproxy

constexpr std::string_view kGmondXml = R"(<?xml version="1.0" encoding="ISO-8859-1"?>
<GANGLIA_XML VERSION="3.7.2" SOURCE="gmond">
<CLUSTER NAME="lms-test" LOCALTIME="1500000000">
<HOST NAME="h1" IP="10.0.0.1">
<METRIC NAME="load_one" VAL="2.5" TYPE="double" UNITS=""/>
<METRIC NAME="mem_free" VAL="1048576" TYPE="uint32" UNITS="KB"/>
<METRIC NAME="os_name" VAL="Linux" TYPE="string" UNITS=""/>
</HOST>
<HOST NAME="h2" IP="10.0.0.2">
<METRIC NAME="load_one" VAL="0.1" TYPE="double" UNITS=""/>
</HOST>
</CLUSTER>
</GANGLIA_XML>)";

TEST(GangliaXml, ParsesHostsAndMetrics) {
  auto points = parse_ganglia_xml(kGmondXml, 123 * kSec);
  ASSERT_TRUE(points.ok()) << points.message();
  ASSERT_EQ(points->size(), 2u);
  const Point& h1 = (*points)[0];
  EXPECT_EQ(h1.measurement, "ganglia");
  EXPECT_EQ(h1.tag("hostname"), "h1");
  EXPECT_EQ(h1.tag("cluster"), "lms-test");
  EXPECT_DOUBLE_EQ(h1.field("load_one")->as_double(), 2.5);
  EXPECT_DOUBLE_EQ(h1.field("mem_free")->as_double(), 1048576.0);
  EXPECT_EQ(h1.field("os_name")->as_string(), "Linux");
  EXPECT_EQ(h1.timestamp, 123 * kSec);
  EXPECT_EQ((*points)[1].tag("hostname"), "h2");
}

TEST(GangliaXml, RejectsWrongRoot) {
  EXPECT_FALSE(parse_ganglia_xml("<OTHER/>", 0).ok());
  EXPECT_FALSE(parse_ganglia_xml("not xml at all <", 0).ok());
}

TEST_F(RouterTest, PullProxyPushesIntoRouter) {
  // A fake gmond endpoint.
  network_.bind("gmond", [](const net::HttpRequest&) {
    return net::HttpResponse::text(200, std::string(kGmondXml));
  });
  router_->job_start(signal("7", "dave", {"h1"}));

  PullProxy proxy(client_, "inproc://router");
  proxy.add_source(std::make_unique<GangliaXmlSource>(client_, "inproc://gmond/"), 30 * kSec);
  EXPECT_EQ(proxy.tick(clock_.now()), 2u);

  tsdb::Database* db = storage_.find_database("lms");
  // Pulled metrics went through enrichment like everything else (§III-B).
  EXPECT_EQ(db->series_matching("ganglia", {{"jobid", "7"}}).size(), 1u);
  EXPECT_EQ(db->series_matching("ganglia", {{"hostname", "h2"}}).size(), 1u);

  // Respect the polling interval: an immediate second tick does nothing.
  EXPECT_EQ(proxy.tick(clock_.now()), 0u);
  EXPECT_EQ(proxy.tick(clock_.now() + 31 * kSec), 2u);
}

TEST_F(RouterTest, PullProxyCountsFailures) {
  PullProxy proxy(client_, "inproc://router");
  proxy.add_source(std::make_unique<GangliaXmlSource>(client_, "inproc://nothere/"), kSec);
  EXPECT_EQ(proxy.tick(clock_.now()), 0u);
  EXPECT_EQ(proxy.pull_failures(), 1u);
}

TEST_F(RouterTest, DebugRuntimeEndpointRanksContention) {
  auto resp = client_.get("inproc://router/debug/runtime");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(resp->headers.get_or("Content-Type", ""), "application/json");
  auto body = json::parse(resp->body);
  ASSERT_TRUE(body.ok()) << resp->body;
  EXPECT_TRUE((*body)["build"].is_object());
  EXPECT_TRUE((*body)["lock_stats"].is_object());
  EXPECT_TRUE((*body)["lock_stats"]["sites"].is_array());
  EXPECT_TRUE((*body)["queues"].is_array());
  EXPECT_TRUE((*body)["loops"].is_array());
  // The contention table is only populated when the process was built with
  // -DLMS_LOCK_STATS=ON; the endpoint itself works either way.
  EXPECT_EQ((*body)["lock_stats"]["compiled"].as_bool(),
            core::sync::kLockStatsEnabled);
}

TEST_F(RouterTest, HealthReportsBuildInfo) {
  auto resp = client_.get("inproc://router/health");
  ASSERT_TRUE(resp.ok());
  auto body = json::parse(resp->body);
  ASSERT_TRUE(body.ok()) << resp->body;
  EXPECT_TRUE((*body)["build"].is_object());
  EXPECT_TRUE((*body)["build"]["type"].is_string());
  EXPECT_TRUE((*body)["build"]["compiler"].is_string());
}

}  // namespace
}  // namespace lms::core
