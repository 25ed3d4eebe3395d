// Deployment-shaped example: the stack's server components as real HTTP
// services on localhost, wired by an INI config — the "components can be
// used standalone or integrated into existing infrastructures" claim of the
// paper. Any InfluxDB-speaking collector (Diamond, curl cronjobs, a Ganglia
// pulling proxy) can be pointed at the router port.
//
// Usage:
//   lms_daemon                 run a short self-test against the live ports
//   lms_daemon --serve [secs]  keep serving for `secs` (default 30)

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>

#include "lms/alert/evaluator.hpp"
#include "lms/core/router.hpp"
#include "lms/core/taskscheduler.hpp"
#include "lms/net/tcp_http.hpp"
#include "lms/obs/cpuprofiler.hpp"
#include "lms/obs/metrics.hpp"
#include "lms/obs/selfscrape.hpp"
#include "lms/obs/trace.hpp"
#include "lms/obs/traceexport.hpp"
#include "lms/tsdb/http_api.hpp"
#include "lms/tsdb/persist.hpp"
#include "lms/util/config.hpp"
#include "lms/util/strings.hpp"

using namespace lms;

namespace {

constexpr std::string_view kDefaultConfig = R"(
[database]
port = 0           ; 0 = ephemeral
retention = 24h
default_db = lms

[router]
port = 0
duplicate_per_user = true
spool_capacity = 10000   ; store-and-forward when the DB is briefly down
async_ingest = true      ; batch writes through the ingest queue + flusher
ingest_queue_points = 8192  ; queued-point cap before writers get HTTP 429

[persistence]
snapshot =               ; path for save/load across restarts (empty = off)

[alerting]
interval_seconds = 5     ; evaluator cadence while serving
deadman_seconds = 30     ; fire when a host stops writing this long (0 = off)

[tracing]
sample_rate = 1.0        ; head-sampling probability for new root traces
slow_keep_ms = 250       ; always keep spans slower than this (0 = off)
export_seconds = 5       ; span-export cadence into the TSDB
log_ring = 512           ; /debug/logs retention (entries)

[profiling]
enable = true            ; continuous CPU sampling (GET /debug/pprof)
hz = 99                  ; SIGPROF ticks per second of on-CPU time
wall = false             ; true = wall-clock sampling (idle threads tick too)
export_seconds = 10      ; lms_profiles top-K export cadence into the TSDB
top_k = 20               ; stacks per lms_profiles export
)";

}  // namespace

int main(int argc, char** argv) {
  const bool serve = argc > 1 && std::strcmp(argv[1], "--serve") == 0;
  const int serve_seconds = argc > 2 ? std::atoi(argv[2]) : 30;

  auto config = util::Config::parse(kDefaultConfig);
  if (!config.ok()) {
    std::fprintf(stderr, "config: %s\n", config.message().c_str());
    return 1;
  }

  // One shared metrics registry: every component (DB engine, router, HTTP
  // servers/clients) reports into it, so GET /metrics shows the whole
  // process and one self-scrape covers the whole stack.
  obs::Registry registry;
  // Span-ring gauges next to everything else; RAII unregistration.
  obs::ScopedTraceMetrics trace_metrics(registry);

  // Tracing policy from [tracing]: head sampling plus the slow-span
  // always-keep rule, and a log ring so /debug/logs can answer "what did
  // this trace log" on both services.
  obs::set_trace_sample_rate(config->get_double_or("tracing", "sample_rate", 1.0));
  obs::set_trace_slow_keep_ns(config->get_int_or("tracing", "slow_keep_ms", 0) *
                              util::kNanosPerMilli);
  util::LogRing log_ring(
      static_cast<std::size_t>(config->get_int_or("tracing", "log_ring", 512)));
  util::Logger::instance().set_sink(log_ring.sink());

  // Database back-end with its InfluxDB-compatible HTTP API.
  tsdb::Storage storage;
  util::WallClock& clock = util::WallClock::instance();
  tsdb::HttpApi::Options db_opts;
  db_opts.registry = &registry;
  db_opts.log_ring = &log_ring;
  db_opts.default_db = config->get_or("database", "default_db", "lms");
  if (const auto r = config->get("database", "retention")) {
    if (auto d = tsdb::parse_duration(*r); d.ok()) db_opts.retention = *d;
  }
  tsdb::HttpApi db_api(storage, clock, db_opts);
  const std::string snapshot_path = config->get_or("persistence", "snapshot", "");
  if (!snapshot_path.empty()) {
    if (auto loaded = tsdb::load_snapshot(storage, snapshot_path); loaded.ok()) {
      std::printf("restored %zu points from %s\n", *loaded, snapshot_path.c_str());
    }
  }
  net::TcpHttpServer::Options db_srv_opts;
  db_srv_opts.port = static_cast<int>(config->get_int_or("database", "port", 0));
  db_srv_opts.registry = &registry;
  net::TcpHttpServer db_server(db_api.handler(), db_srv_opts);
  if (auto p = db_server.start(); !p.ok()) {
    std::fprintf(stderr, "db server: %s\n", p.message().c_str());
    return 1;
  }

  // Metrics router in front of it.
  net::TcpHttpClient::Options db_client_opts;
  db_client_opts.registry = &registry;
  net::TcpHttpClient db_client(db_client_opts);
  core::MetricsRouter::Options router_opts;
  router_opts.registry = &registry;
  router_opts.log_ring = &log_ring;
  router_opts.db_url = db_server.url();
  router_opts.database = db_opts.default_db;
  router_opts.duplicate_per_user = config->get_bool_or("router", "duplicate_per_user", false);
  router_opts.spool_capacity =
      static_cast<std::size_t>(config->get_int_or("router", "spool_capacity", 0));
  router_opts.async_ingest = config->get_bool_or("router", "async_ingest", false);
  router_opts.ingest_queue_capacity =
      static_cast<std::size_t>(config->get_int_or("router", "ingest_queue_points", 8192));
  net::PubSubBroker broker;
  broker.set_registry(&registry);
  core::MetricsRouter router(db_client, clock, router_opts, &broker);
  net::TcpHttpServer::Options router_srv_opts;
  router_srv_opts.port = static_cast<int>(config->get_int_or("router", "port", 0));
  router_srv_opts.registry = &registry;
  net::TcpHttpServer router_server(router.handler(), router_srv_opts);
  if (auto p = router_server.start(); !p.ok()) {
    std::fprintf(stderr, "router server: %s\n", p.message().c_str());
    return 1;
  }

  // Self-scrape: the daemon writes its own registry through the router, so
  // operators can chart the stack's health ("lms_internal") next to the
  // cluster data it stores.
  net::TcpHttpClient scrape_client;  // plain client: no trace/metrics feedback loop
  obs::SelfScrape::Options ss_opts;
  ss_opts.tags = {{"hostname", "lms-daemon"}};
  ss_opts.interval = static_cast<util::TimeNs>(
      config->get_int_or("observability", "self_scrape_seconds", 5)) *
      util::kNanosPerSecond;
  obs::SelfScrape self_scrape(
      registry, clock,
      [&](const std::string& body) -> util::Status {
        auto resp = scrape_client.post(
            router_server.url() + "/write?db=" + db_opts.default_db, body, "text/plain");
        if (!resp.ok()) return util::Status::error(resp.message());
        if (!resp->ok()) return util::Status::error("HTTP " + std::to_string(resp->status));
        return util::Status();
      },
      ss_opts);

  // Trace exporter: the daemon's own spans (HTTP server/client, router
  // write path, query execution) land in the TSDB it serves, so
  // GET <db>/trace/<id> works on a live deployment.
  obs::TraceExporter::Options te_opts;
  te_opts.host = "lms-daemon";
  te_opts.interval = static_cast<util::TimeNs>(
      config->get_int_or("tracing", "export_seconds", 5)) * util::kNanosPerSecond;
  obs::TraceExporter trace_exporter(
      [&](const std::string& body) -> util::Status {
        auto resp = scrape_client.post(
            router_server.url() + "/write?db=" + db_opts.default_db, body, "text/plain");
        if (!resp.ok()) return util::Status::error(resp.message());
        if (!resp->ok()) return util::Status::error("HTTP " + std::to_string(resp->status));
        return util::Status();
      },
      te_opts);

  // CPU profiler from [profiling]: continuous SIGPROF sampling of the
  // daemon itself. Collapsed stacks are served at GET /debug/pprof (and an
  // HTML flamegraph on the dashboard agent, when one runs); the top-K
  // stacks land in the TSDB as lms_profiles through the router, tagged
  // with the trace id of whatever request was in flight when sampled.
  const bool profiling_enabled = config->get_bool_or("profiling", "enable", true);
  std::unique_ptr<obs::ProfileExporter> profile_exporter;
  if (profiling_enabled) {
    obs::CpuProfiler::Options prof_opts;
    prof_opts.hz = static_cast<int>(config->get_int_or("profiling", "hz", 99));
    prof_opts.wall = config->get_bool_or("profiling", "wall", false);
    if (auto status = obs::CpuProfiler::instance().start(prof_opts); !status.ok()) {
      std::fprintf(stderr, "profiler: %s\n", status.message().c_str());
    } else {
      obs::ProfileExporter::Options pe_opts;
      pe_opts.host = "lms-daemon";
      pe_opts.interval = static_cast<util::TimeNs>(
          config->get_int_or("profiling", "export_seconds", 10)) * util::kNanosPerSecond;
      pe_opts.top_k =
          static_cast<std::size_t>(config->get_int_or("profiling", "top_k", 20));
      profile_exporter = std::make_unique<obs::ProfileExporter>(
          [&](const std::string& body) -> util::Status {
            auto resp = scrape_client.post(
                router_server.url() + "/write?db=" + db_opts.default_db, body, "text/plain");
            if (!resp.ok()) return util::Status::error(resp.message());
            if (!resp->ok()) {
              return util::Status::error("HTTP " + std::to_string(resp->status));
            }
            return util::Status();
          },
          pe_opts);
    }
  }

  // Alert evaluator against the same storage, run as a periodic scheduler
  // task while serving: deadman watch over every host that ever wrote, plus
  // a self-metrics rule; transitions land in lms_alerts and the log.
  alert::Evaluator::Options alert_opts;
  alert_opts.database = db_opts.default_db;
  alert_opts.deadman_window =
      config->get_int_or("alerting", "deadman_seconds", 30) * util::kNanosPerSecond;
  alert_opts.registry = &registry;
  alert_opts.eval_interval =
      config->get_int_or("alerting", "interval_seconds", 5) * util::kNanosPerSecond;
  alert_opts.clock = &clock;
  alert::Evaluator alerts(storage, alert_opts);
  alerts.add_sink(std::make_unique<alert::LogSink>());
  {
    // The daemon watches its own spool: sustained growth means the DB
    // back-end is not keeping up (see router spool store-and-forward).
    alert::AlertRule spool_rule;
    spool_rule.name = "router_spool_growing";
    spool_rule.kind = alert::ConditionKind::kRateOfChange;
    spool_rule.measurement = "lms_internal";
    spool_rule.field = "value";
    spool_rule.tag_filters = {{"metric", "router_spool_points"}};
    spool_rule.cmp = alert::Comparison::kAbove;
    spool_rule.threshold = 0;
    spool_rule.window = util::kNanosPerMinute;
    spool_rule.for_duration = util::kNanosPerMinute;
    alerts.add(spool_rule);
  }
  {
    // Ingest backpressure: the async ingest queue sitting near its capacity
    // means the flusher can't drain as fast as writers produce, and the next
    // burst will be bounced with HTTP 429. Page before that happens.
    alert::AlertRule ingest_rule;
    ingest_rule.name = "router_ingest_backpressure";
    ingest_rule.kind = alert::ConditionKind::kThreshold;
    ingest_rule.measurement = "lms_internal";
    ingest_rule.field = "value";
    ingest_rule.tag_filters = {{"metric", "router_ingest_queue_points"}};
    ingest_rule.cmp = alert::Comparison::kAbove;
    ingest_rule.threshold = 0.8 *
        static_cast<double>(config->get_int_or("router", "ingest_queue_points", 8192));
    ingest_rule.window = util::kNanosPerMinute;
    ingest_rule.for_duration = 30 * util::kNanosPerSecond;
    alerts.add(ingest_rule);
  }
  const util::TimeNs alert_interval = alert_opts.eval_interval;

  std::printf("== LMS daemon ==\n");
  std::printf("database (InfluxDB-compatible): %s\n", db_server.url().c_str());
  std::printf("metrics router:                 %s\n", router_server.url().c_str());
  std::printf("\ntry, from any shell:\n");
  std::printf("  curl -XPOST '%s/job/start' -d "
              "'{\"jobid\":\"1\",\"user\":\"me\",\"nodes\":[\"$(hostname)\"]}'\n",
              router_server.url().c_str());
  std::printf("  curl -XPOST '%s/write?db=lms' --data-binary "
              "'cpu,hostname='$(hostname)' user_percent=42'\n",
              router_server.url().c_str());
  std::printf("  curl '%s/query?db=lms&q=SELECT%%20user_percent%%20FROM%%20cpu'\n",
              db_server.url().c_str());
  std::printf("  curl '%s/metrics'          # router self-metrics (text)\n",
              router_server.url().c_str());
  std::printf("  curl '%s/metrics'          # DB engine self-metrics (text)\n",
              db_server.url().c_str());
  std::printf("  curl '%s/health'           # liveness (JSON component status)\n",
              router_server.url().c_str());
  std::printf("  curl '%s/ready'            # readiness (503 while degraded)\n\n",
              router_server.url().c_str());

  if (serve) {
    // One shared work-stealing runtime drives every background loop of the
    // daemon: self-scrape, trace export and alert evaluation all become
    // periodic tasks (visible under GET /debug/runtime on either port).
    core::TaskScheduler::Options sched_opts;
    sched_opts.name = "daemon.sched";
    core::TaskScheduler sched(sched_opts);
    self_scrape.attach(sched);
    trace_exporter.attach(sched);
    alerts.attach(sched);
    if (obs::CpuProfiler::instance().running()) obs::CpuProfiler::instance().attach(sched);
    if (profile_exporter != nullptr) profile_exporter->attach(sched);
    std::printf("serving for %d seconds (%zu scheduler workers, self-scrape every %lld s, "
                "alert eval every %lld s, deadman %lld s)...\n",
                serve_seconds, sched.worker_count(),
                static_cast<long long>(ss_opts.interval / util::kNanosPerSecond),
                static_cast<long long>(alert_interval / util::kNanosPerSecond),
                static_cast<long long>(alert_opts.deadman_window / util::kNanosPerSecond));
    std::this_thread::sleep_for(std::chrono::seconds(serve_seconds));
    if (profile_exporter != nullptr) profile_exporter->detach();
    obs::CpuProfiler::instance().detach();
    alerts.detach();
    trace_exporter.detach();
    self_scrape.detach();
    sched.stop();
    std::printf("alerting: %llu evaluations, %llu transitions, %zu firing at shutdown\n",
                static_cast<unsigned long long>(alerts.evaluations()),
                static_cast<unsigned long long>(alerts.transitions()),
                alerts.firing_count());
  } else {
    // Self-test: exactly the curl sequence above, over the live TCP ports.
    net::TcpHttpClient client;
    bool ok = true;
    auto check = [&](const char* what, bool cond) {
      std::printf("  %-34s %s\n", what, cond ? "ok" : "FAILED");
      ok = ok && cond;
    };
    auto resp = client.post(router_server.url() + "/job/start",
                            R"({"jobid":"1","user":"me","nodes":["selftest-host"]})",
                            "application/json");
    check("job start signal", resp.ok() && resp->status == 204);
    resp = client.post(router_server.url() + "/write?db=lms",
                       "cpu,hostname=selftest-host user_percent=42\n", "text/plain");
    check("metric write through router", resp.ok() && resp->status == 204);
    (void)router.flush_ingest();  // don't race the async flusher before querying
    resp = client.get(db_server.url() + "/query?db=lms&q=" +
                      util::url_encode("SELECT user_percent FROM cpu WHERE jobid='1'"));
    check("enriched query via DB API",
          resp.ok() && resp->status == 200 &&
              resp->body.find("42") != std::string::npos);
    resp = client.post(router_server.url() + "/job/end", R"({"jobid":"1"})",
                       "application/json");
    check("job end signal", resp.ok() && resp->status == 204);
    resp = client.get(router_server.url() + "/metrics");
    check("router /metrics shows ingest",
          resp.ok() && resp->status == 200 &&
              resp->body.find("router_points_in 1") != std::string::npos);
    check("self-scrape into own TSDB", self_scrape.scrape_once().ok());
    (void)router.flush_ingest();
    resp = client.get(db_server.url() + "/query?db=lms&q=" +
                      util::url_encode(
                          "SELECT last(value) FROM lms_internal WHERE metric='router_points_in'"));
    check("lms_internal queryable",
          resp.ok() && resp->status == 200 &&
              resp->body.find("lms_internal") != std::string::npos);
    resp = client.get(router_server.url() + "/health");
    check("router /health ok JSON",
          resp.ok() && resp->status == 200 &&
              resp->body.find("\"status\":\"ok\"") != std::string::npos);
    resp = client.get(router_server.url() + "/ready");
    check("router /ready (DB reachable)", resp.ok() && resp->status == 200);
    resp = client.get(db_server.url() + "/health");
    check("db /health ok JSON",
          resp.ok() && resp->status == 200 &&
              resp->body.find("\"status\":\"ok\"") != std::string::npos);
    // One evaluation pass: the selftest host just wrote, so the deadman
    // watch discovers it without firing.
    alerts.run(clock.now());
    check("alert evaluation (deadman clear)",
          alerts.evaluations() > 0 && alerts.firing_count() == 0);
    // Tracing round trip: a root span around a write, exported into the
    // TSDB, assembled back by the /trace endpoint.
    std::uint64_t trace_id = 0;
    {
      obs::Span span("selftest.write", "daemon");
      trace_id = span.context().trace_id;
      resp = client.post(router_server.url() + "/write?db=lms",
                         "cpu,hostname=selftest-host user_percent=43\n", "text/plain");
      check("traced write through router", resp.ok() && resp->status == 204);
    }
    check("span export into own TSDB", trace_exporter.export_once().ok());
    (void)router.flush_ingest();  // land the queued span points deterministically
    resp = client.get(db_server.url() + "/trace/" + obs::trace_id_hex(trace_id));
    check("trace assembly via /trace/<id>",
          resp.ok() && resp->status == 200 &&
              resp->body.find("selftest.write") != std::string::npos);
    resp = client.get(db_server.url() + "/debug/logs");
    check("/debug/logs serves the log ring", resp.ok() && resp->status == 200);
    // Profiler surface: burn a little CPU so SIGPROF has ticks to deliver,
    // then check the debug endpoints answer on both ports.
    if (profiling_enabled && obs::CpuProfiler::instance().running()) {
      volatile double sink = 0;
      for (int i = 0; i < 30'000'000; ++i) sink = sink + static_cast<double>(i) * 0.5;
      obs::CpuProfiler::instance().process_once();
      resp = client.get(router_server.url() + "/debug/pprof");
      check("/debug/pprof collapsed stacks", resp.ok() && resp->status == 200);
      resp = client.get(db_server.url() + "/debug/runtime");
      check("/debug/runtime profiler section",
            resp.ok() && resp->status == 200 &&
                resp->body.find("\"profiler\"") != std::string::npos &&
                resp->body.find("\"running\":true") != std::string::npos);
    }
    std::printf("self-test %s\n", ok ? "passed" : "failed");
    if (!ok) {
      util::Logger::instance().set_sink(nullptr);
      return 1;
    }
  }

  router_server.stop();
  db_server.stop();
  obs::CpuProfiler::instance().stop();  // disarm the timer before teardown
  util::Logger::instance().set_sink(nullptr);  // the ring dies with main()
  if (!snapshot_path.empty()) {
    if (auto status = tsdb::save_snapshot(storage, snapshot_path); status.ok()) {
      std::printf("snapshot saved to %s\n", snapshot_path.c_str());
    } else {
      std::fprintf(stderr, "snapshot failed: %s\n", status.message().c_str());
    }
  }
  return 0;
}
