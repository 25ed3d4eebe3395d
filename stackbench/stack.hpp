#pragma once
// The stack under test, wired as examples/lms_daemon.cpp's default config
// wires it, plus the benchmark's measurement seams. The seams sit only at
// the stack's public boundaries: wrappers around the two HTTP handlers, a
// timing decorator on the router's DB client, and (traced runs) a sampler
// that acquires Storage::snapshot. None of the stack's code is changed.
#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "lms/alert/evaluator.hpp"
#include "lms/analysis/fetch.hpp"
#include "lms/analysis/report.hpp"
#include "lms/core/router.hpp"
#include "lms/core/taskscheduler.hpp"
#include "lms/dashboard/agent.hpp"
#include "lms/hpm/arch.hpp"
#include "lms/net/tcp_http.hpp"
#include "lms/obs/metrics.hpp"
#include "lms/obs/selfscrape.hpp"
#include "lms/obs/trace.hpp"
#include "lms/obs/traceexport.hpp"
#include "lms/tsdb/http_api.hpp"
#include "lms/util/clock.hpp"
#include "lms/util/logging.hpp"

namespace stackbench {

using namespace lms;
using util::TimeNs;

/// Header carrying the benchmark's span id from a client (or the router's
/// DB client decorator) to the handler wrappers, so both ends of a hop pair.
inline constexpr const char* kIdHeader = "X-Bench-Id";
/// Header naming the generator operation that sent a request.
inline constexpr const char* kOpHeader = "X-Bench-Op";

/// One recorded span. Kinds name the seam it was taken at.
enum SpanKind : std::uint8_t {
  kRouterWrite,   // inside router.handler() for POST /write
  kRouterJob,     // inside router.handler() for POST /job/*
  kDbWrite,       // inside db_api.handler() for POST /write
  kDbQuery,       // inside db_api.handler() for GET /query (panel queries)
  kForward,       // router -> TSDB POST, measured by the client decorator
  kClientWrite,   // generator /write round trip (one send)
  kClientQuery,   // generator panel /query round trip
  kClientJob,     // generator /job/* round trip
  kSnapshotWait,  // time to acquire Storage::snapshot("lms")
  kSpanKinds
};
inline const char* span_kind_name(int k) {
  static const char* const kNames[kSpanKinds] = {
      "router.write", "router.job", "tsdb.write", "tsdb.query", "router.forward",
      "client.write", "client.query", "client.job", "storage.snapshot_wait"};
  return kNames[k];
}

struct Span {
  std::uint64_t id = 0;  // 0 = unpaired
  TimeNs start = 0;      // monotonic ns
  TimeNs end = 0;
  std::uint32_t count = 0;  // points carried, or HTTP status for handler spans
  std::uint8_t kind = 0;
};

/// In-memory span store. Recording is off unless a traced phase runs; the
/// seams then cost one relaxed load per request.
class SpanLog {
 public:
  std::atomic<bool> on{false};
  void add(const Span& s) {
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(s);
  }
  std::vector<Span> take() {
    const std::lock_guard<std::mutex> lock(mu_);
    return std::move(spans_);
  }
  /// Sampled /write bodies as the router received them (replay input).
  void add_body(std::string body) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (body_bytes_ + body.size() > kBodyBudget) return;
    body_bytes_ += body.size();
    bodies_.push_back(std::move(body));
  }
  /// Panel query texts as the TSDB received them (replay input).
  void add_query(std::string q) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (queries_.size() < kQueryBudget) queries_.push_back(std::move(q));
  }
  std::vector<std::string> bodies() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return bodies_;
  }
  std::vector<std::string> queries() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return queries_;
  }

 private:
  static constexpr std::size_t kBodyBudget = 8u << 20;
  static constexpr std::size_t kQueryBudget = 4000;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<std::string> bodies_;
  std::size_t body_bytes_ = 0;
  std::vector<std::string> queries_;
};

inline std::uint64_t header_id(const net::HttpRequest& req) {
  const auto v = req.headers.get(kIdHeader);
  return v ? std::strtoull(v->c_str(), nullptr, 10) : 0;
}

/// Fault injection at the seams (self-test only): each one corrupts the
/// stack's output in a way exactly one correctness gate must catch.
enum class Fault { kNone, kDropPoint, kDupPoint, kWrongCell };

/// Timing decorator for the router's DB client: every forward POST gets an
/// id header (paired with the TSDB handler span) and is timed end to end.
class TimingClient final : public net::HttpClient {
 public:
  TimingClient(net::HttpClient& inner, SpanLog& log, Fault fault)
      : inner_(inner), log_(log), fault_(fault) {}
  util::Result<net::HttpResponse> send(const std::string& url, net::HttpRequest req) override {
    if (fault_ != Fault::kNone && req.method == "POST") inject(url, req);
    if (!log_.on.load(std::memory_order_relaxed)) return inner_.send(url, std::move(req));
    const std::uint64_t id = next_id_.fetch_add(1) | (1ULL << 62);
    req.headers.set(kIdHeader, std::to_string(id));
    const auto points = static_cast<std::uint32_t>(
        std::count(req.body.begin(), req.body.end(), '\n'));
    const TimeNs t0 = util::monotonic_now_ns();
    auto resp = inner_.send(url, std::move(req));
    log_.add({id, t0, util::monotonic_now_ns(), points, kForward});
    return resp;
  }

 private:
  /// Drop or duplicate one cpu line of the first forward to the primary
  /// database that carries live data.
  void inject(const std::string& url, net::HttpRequest& req) {
    if (fault_ == Fault::kWrongCell || injected_.load()) return;
    if (url.find("db=lms") == std::string::npos) return;
    const auto pos = req.body.find("cpu,hostname=");
    if (pos == std::string::npos || req.body.find("actor=writer_") == std::string::npos) return;
    if (injected_.exchange(true)) return;
    const auto eol = req.body.find('\n', pos);
    const std::string line = req.body.substr(pos, eol + 1 - pos);
    if (fault_ == Fault::kDropPoint) {
      req.body.erase(pos, line.size());
    } else {
      req.body.insert(pos, line);
    }
  }

  net::HttpClient& inner_;
  SpanLog& log_;
  Fault fault_;
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<bool> injected_{false};
};

/// The stack: TSDB + router behind two TCP servers, async ingest with
/// per-user duplication and spool, self-scrape / trace export / alerting /
/// retention on one TaskScheduler, and a dashboard agent with a job reporter
/// on the same storage.
class Stack {
 public:
  Stack(bool traced, Fault fault) : fault_(fault), traced_(traced) {}
  ~Stack() { stop(); }
  Stack(const Stack&) = delete;  // the servers' handlers hold `this`
  Stack& operator=(const Stack&) = delete;

  util::Status start();
  /// Stop the background tasks (the stack's own writes) and drain the
  /// router's ingest queue: afterwards every acknowledged batch has landed.
  void quiesce();
  void stop();

  // Stack-owned writes (self-scrape, trace export) that the router
  // acknowledged, and those whose outcome their sender never learned.
  std::atomic<std::uint64_t> own_points_acked{0};
  std::atomic<std::uint64_t> own_points_unknown{0};

  SpanLog spans;
  obs::Registry registry;
  util::LogRing log_ring{512};
  tsdb::Storage storage;
  std::unique_ptr<tsdb::HttpApi> db_api;
  std::unique_ptr<net::TcpHttpServer> db_server;
  std::unique_ptr<net::TcpHttpClient> db_client;
  std::unique_ptr<TimingClient> timed_db_client;
  net::PubSubBroker broker;
  std::unique_ptr<core::MetricsRouter> router;
  std::unique_ptr<net::TcpHttpServer> router_server;
  std::unique_ptr<net::TcpHttpClient> scrape_client;
  std::unique_ptr<obs::SelfScrape> self_scrape;
  std::unique_ptr<obs::TraceExporter> trace_exporter;
  std::unique_ptr<alert::Evaluator> alerts;
  std::unique_ptr<core::TaskScheduler> sched;
  std::unique_ptr<analysis::MetricFetcher> fetcher;
  std::unique_ptr<analysis::JobReporter> reporter;
  std::unique_ptr<dashboard::DashboardAgent> agent;
  std::string router_url;
  std::string db_url;

  static constexpr std::size_t kIngestQueuePoints = 8192;

 private:
  net::HttpHandler wrap_router(net::HttpHandler inner);
  net::HttpHandler wrap_db(net::HttpHandler inner);
  util::Status post_own(const std::string& body);
  void detach_background();

  Fault fault_;
  bool traced_;
  bool background_attached_ = false;
  std::atomic<std::uint64_t> body_sample_{0};
  std::atomic<bool> cell_injected_{false};
};

}  // namespace stackbench
