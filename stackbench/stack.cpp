#include "stack.hpp"

#include <algorithm>

#include "lms/util/strings.hpp"

namespace stackbench {

util::Status Stack::start() {
  // The daemon's [tracing] defaults; the benchmark's own spans are separate.
  obs::set_trace_sample_rate(1.0);
  obs::set_trace_slow_keep_ns(250 * util::kNanosPerMilli);
  util::Logger::instance().set_sink(log_ring.sink());
  util::WallClock& clock = util::WallClock::instance();

  tsdb::HttpApi::Options db_opts;
  db_opts.registry = &registry;
  db_opts.log_ring = &log_ring;
  db_opts.default_db = "lms";
  db_opts.retention = 24 * util::kNanosPerHour;
  db_api = std::make_unique<tsdb::HttpApi>(storage, clock, db_opts);
  net::TcpHttpServer::Options db_srv_opts;
  db_srv_opts.registry = &registry;
  net::HttpHandler db_handler = db_api->handler();
  if (traced_ || fault_ == Fault::kWrongCell) db_handler = wrap_db(std::move(db_handler));
  db_server = std::make_unique<net::TcpHttpServer>(std::move(db_handler), db_srv_opts);
  if (auto p = db_server->start(); !p.ok()) return util::Status::error("db server: " + p.message());
  db_url = db_server->url();

  net::TcpHttpClient::Options client_opts;
  client_opts.registry = &registry;
  db_client = std::make_unique<net::TcpHttpClient>(client_opts);
  timed_db_client = std::make_unique<TimingClient>(*db_client, spans, fault_);
  core::MetricsRouter::Options router_opts;
  router_opts.registry = &registry;
  router_opts.log_ring = &log_ring;
  router_opts.db_url = db_url;
  router_opts.database = "lms";
  router_opts.duplicate_per_user = true;
  router_opts.spool_capacity = 10000;
  router_opts.async_ingest = true;
  router_opts.ingest_queue_capacity = kIngestQueuePoints;
  net::HttpClient& forward_client =
      traced_ || fault_ != Fault::kNone ? static_cast<net::HttpClient&>(*timed_db_client)
                                        : static_cast<net::HttpClient&>(*db_client);
  router = std::make_unique<core::MetricsRouter>(forward_client, clock, router_opts, &broker);
  broker.set_registry(&registry);
  net::TcpHttpServer::Options router_srv_opts;
  router_srv_opts.registry = &registry;
  net::HttpHandler router_handler = router->handler();
  if (traced_) router_handler = wrap_router(std::move(router_handler));
  router_server =
      std::make_unique<net::TcpHttpServer>(std::move(router_handler), router_srv_opts);
  if (auto p = router_server->start(); !p.ok()) {
    return util::Status::error("router server: " + p.message());
  }
  router_url = router_server->url();

  // Background loops, as `lms_daemon --serve` attaches them.
  scrape_client = std::make_unique<net::TcpHttpClient>();
  obs::SelfScrape::Options ss_opts;
  ss_opts.tags = {{"hostname", "lms-daemon"}};
  ss_opts.interval = 5 * util::kNanosPerSecond;
  self_scrape = std::make_unique<obs::SelfScrape>(
      registry, clock, [this](const std::string& body) { return post_own(body); }, ss_opts);
  obs::TraceExporter::Options te_opts;
  te_opts.host = "lms-daemon";
  te_opts.interval = 5 * util::kNanosPerSecond;
  trace_exporter = std::make_unique<obs::TraceExporter>(
      [this](const std::string& body) { return post_own(body); }, te_opts);
  alert::Evaluator::Options alert_opts;
  alert_opts.database = "lms";
  alert_opts.deadman_window = 30 * util::kNanosPerSecond;
  alert_opts.registry = &registry;
  alert_opts.eval_interval = 5 * util::kNanosPerSecond;
  alert_opts.clock = &clock;
  alerts = std::make_unique<alert::Evaluator>(storage, alert_opts);
  alerts->add_sink(std::make_unique<alert::LogSink>());
  {
    alert::AlertRule rule;
    rule.name = "router_ingest_backpressure";
    rule.kind = alert::ConditionKind::kThreshold;
    rule.measurement = "lms_internal";
    rule.field = "value";
    rule.tag_filters = {{"metric", "router_ingest_queue_points"}};
    rule.cmp = alert::Comparison::kAbove;
    rule.threshold = 0.8 * static_cast<double>(kIngestQueuePoints);
    rule.window = util::kNanosPerMinute;
    rule.for_duration = 30 * util::kNanosPerSecond;
    alerts->add(rule);
  }
  core::TaskScheduler::Options sched_opts;
  sched_opts.name = "daemon.sched";
  sched = std::make_unique<core::TaskScheduler>(sched_opts);
  self_scrape->attach(*sched);
  trace_exporter->attach(*sched);
  alerts->attach(*sched);
  db_api->attach(*sched);  // retention
  background_attached_ = true;

  fetcher = std::make_unique<analysis::MetricFetcher>(storage, "lms");
  reporter = std::make_unique<analysis::JobReporter>(*fetcher, hpm::simx86());
  agent = std::make_unique<dashboard::DashboardAgent>(storage, *reporter, clock,
                                                      dashboard::DashboardAgent::Options{});
  return {};
}

util::Status Stack::post_own(const std::string& body) {
  const auto points = static_cast<std::uint64_t>(std::count(body.begin(), body.end(), '\n'));
  auto resp = scrape_client->post(router_url + "/write?db=lms", body, "text/plain");
  if (!resp.ok()) {
    own_points_unknown.fetch_add(points);
    return util::Status::error(resp.message());
  }
  if (!resp->ok()) return util::Status::error("HTTP " + std::to_string(resp->status));
  own_points_acked.fetch_add(points);
  return {};
}

void Stack::detach_background() {
  if (!background_attached_) return;
  alerts->detach();
  trace_exporter->detach();
  self_scrape->detach();
  db_api->detach();
  background_attached_ = false;
}

void Stack::quiesce() {
  detach_background();
  // Detaching the router cancels its flusher, waits for an in-flight
  // forward and drains the queues; nothing is left in flight afterwards.
  router->detach();
  while (router->flush_ingest() > 0) {
  }
  if (router->spool_size() > 0) router->flush_spool();
}

void Stack::stop() {
  if (router_server) router_server->stop();
  if (db_server) db_server->stop();
  detach_background();
  if (sched) sched->stop();
  util::Logger::instance().set_sink(nullptr);
}

net::HttpHandler Stack::wrap_router(net::HttpHandler inner) {
  return [this, inner = std::move(inner)](const net::HttpRequest& req) {
    if (!spans.on.load(std::memory_order_relaxed)) return inner(req);
    const bool write = req.path == "/write";
    const bool job = util::starts_with(req.path, "/job/");
    if (write && body_sample_.fetch_add(1) % 8 == 0) spans.add_body(req.body);
    const TimeNs t0 = util::monotonic_now_ns();
    net::HttpResponse resp = inner(req);
    if (write || job) {
      spans.add({header_id(req), t0, util::monotonic_now_ns(),
                 static_cast<std::uint32_t>(resp.status), write ? kRouterWrite : kRouterJob});
    }
    return resp;
  };
}

net::HttpHandler Stack::wrap_db(net::HttpHandler inner) {
  return [this, inner = std::move(inner)](const net::HttpRequest& req) {
    const bool panel = req.path == "/query" && req.headers.get_or(kOpHeader, "") == "panel";
    const bool reference =
        req.path == "/query" && req.headers.get_or(kOpHeader, "") == "reference";
    if (!spans.on.load(std::memory_order_relaxed)) {
      net::HttpResponse resp = inner(req);
      // Self-test fault: alter one cell of the first non-empty reference answer.
      if (reference && fault_ == Fault::kWrongCell && !cell_injected_.load()) {
        const auto pos = resp.body.find("\"values\":[[");
        const auto comma = pos == std::string::npos ? pos : resp.body.find(',', pos);
        if (comma != std::string::npos && !cell_injected_.exchange(true)) {
          resp.body.insert(comma + 1, "1");
        }
      }
      return resp;
    }
    const bool write = req.path == "/write";
    if (panel) spans.add_query(req.query.get_or("q", ""));
    const TimeNs t0 = util::monotonic_now_ns();
    net::HttpResponse resp = inner(req);
    if (write || panel) {
      spans.add({header_id(req), t0, util::monotonic_now_ns(),
                 static_cast<std::uint32_t>(resp.status), write ? kDbWrite : kDbQuery});
    }
    return resp;
  };
}

}  // namespace stackbench
