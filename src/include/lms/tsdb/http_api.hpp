#pragma once

// InfluxDB-compatible HTTP façade over the storage engine. This is the
// interface every other component of the stack programs against, so existing
// collectors (Diamond, curl cronjobs, Ganglia proxies — paper §III-A) can be
// pointed at it unchanged:
//   POST /write?db=<name>[&precision=ns]   body: line protocol batch
//        (lenient: malformed lines and field values whose type conflicts
//        with their column are dropped and counted, the rest lands, 204)
//   GET/POST /query?db=<name>&q=<influxql> -> InfluxDB JSON
//        (q may be "EXPLAIN SELECT ..." -> scan statistics, no rows)
//   GET  /ping                             -> 204
//   GET  /stats                            -> JSON engine statistics
//   GET  /metrics                          -> tsdb_* registry, text format
//   GET  /health, /ready                   -> JSON component status
//   GET  /trace/<id16hex>[?db=&format=waterfall]
//                                          -> assembled span tree (tracing)
//   GET  /debug/slow_queries               -> bounded slow-query ring
//   GET  /debug/logs[?trace=<id16hex>]     -> recent log ring, trace-filterable
//
// Engine statistics live in an lms::obs registry ("tsdb_*" instruments):
// ingest/query counters, write/query latency histograms, and sampled gauges
// for stored series/sample counts. Every query additionally runs under a
// per-query span whose note records what the engine scanned (shards /
// series / points), and queries slower than Options::slow_query_threshold
// are retained in a bounded ring served at /debug/slow_queries.

#include <deque>
#include <memory>
#include <string>

#include "lms/core/runnable.hpp"
#include "lms/core/sync.hpp"
#include "lms/core/taskscheduler.hpp"
#include "lms/net/health.hpp"
#include "lms/net/transport.hpp"
#include "lms/obs/metrics.hpp"
#include "lms/obs/traceexport.hpp"
#include "lms/tsdb/query.hpp"
#include "lms/tsdb/storage.hpp"
#include "lms/util/clock.hpp"
#include "lms/util/logging.hpp"

namespace lms::tsdb {

class HttpApi : public core::Runnable {
 public:
  struct Options {
    /// Retention window; 0 = keep everything.
    TimeNs retention = 0;
    /// Cadence of the periodic "tsdb.retention" enforcement task once the
    /// API is attached to a TaskScheduler (no-op while retention == 0).
    TimeNs retention_interval = util::kNanosPerMinute;
    /// Database auto-created for writes without ?db=.
    std::string default_db = "lms";
    /// Create databases on first write (InfluxDB-style). When false, writes
    /// to a database that was not pre-created via Storage::database() get
    /// the uniform 404 unknown-database response (tsdb/ingest.hpp).
    bool auto_create_dbs = true;
    /// Metrics registry for the tsdb_* instruments. nullptr = private
    /// registry (exact per-instance counts); pass a shared registry to fold
    /// the engine into a stack-wide self-scrape.
    obs::Registry* registry = nullptr;
    /// Queries at least this slow are kept in the /debug/slow_queries ring
    /// (with their scan statistics); 0 disables the ring.
    TimeNs slow_query_threshold = 10 * util::kNanosPerMilli;
    /// Bound of the slow-query ring (oldest evicted first).
    std::size_t slow_query_capacity = 64;
    /// Measurement the trace exporters write; what /trace/<id> assembles.
    std::string trace_measurement = std::string(obs::kTraceMeasurement);
    /// Recent-log ring served at /debug/logs (nullptr = endpoint disabled).
    /// The ring must outlive this API.
    util::LogRing* log_ring = nullptr;
  };

  HttpApi(Storage& storage, const util::Clock& clock);
  HttpApi(Storage& storage, const util::Clock& clock, Options options);
  ~HttpApi();

  /// The HTTP entry point; bind to an InprocNetwork or a TcpHttpServer.
  net::HttpHandler handler();

  /// Apply the retention policy now (drops samples older than now-retention).
  std::size_t enforce_retention();

  /// Component health report (storage volume, write-path activity). The
  /// engine is embedded, so liveness and readiness share the same checks.
  net::ComponentHealth health() const;

  /// Counters (registry-backed).
  std::uint64_t points_written() const { return points_written_.value(); }
  std::uint64_t write_requests() const { return write_requests_.value(); }
  std::uint64_t query_requests() const { return query_requests_.value(); }
  std::uint64_t parse_errors() const { return parse_errors_.value(); }
  /// Field values rejected because their type differs from the column's.
  std::uint64_t field_type_conflicts() const { return type_conflicts_.value(); }
  std::uint64_t slow_queries() const { return slow_queries_.value(); }

  /// The registry holding the tsdb_* instruments.
  obs::Registry& registry() { return *registry_; }

  /// One retained slow query (see /debug/slow_queries).
  struct SlowQuery {
    std::string query;
    std::string db;
    TimeNs wall_ns = 0;          ///< when it ran (wall clock)
    std::int64_t duration_ns = 0;
    std::uint64_t trace_id = 0;  ///< active trace during the query, 0 = none
    QueryStats stats;
  };
  /// Snapshot of the ring, most recent first.
  std::vector<SlowQuery> slow_query_ring() const;

 protected:
  void on_attach(core::TaskScheduler& sched) override;
  void on_detach() override;

 private:
  net::HttpResponse handle_write(const net::HttpRequest& req);
  net::HttpResponse handle_query(const net::HttpRequest& req);
  net::HttpResponse handle_stats(const net::HttpRequest& req);
  net::HttpResponse handle_trace(const net::HttpRequest& req);
  net::HttpResponse handle_slow_queries(const net::HttpRequest& req);
  net::HttpResponse handle_debug_logs(const net::HttpRequest& req);

  void note_slow_query(std::string q, std::string db, std::int64_t duration_ns,
                       std::uint64_t trace_id, const QueryStats& stats);

  Storage& storage_;
  const util::Clock& clock_;
  Options options_;
  Engine engine_;
  std::unique_ptr<obs::Registry> own_registry_;  // when Options::registry == nullptr
  obs::Registry* registry_;
  obs::Counter& points_written_;
  obs::Counter& write_requests_;
  obs::Counter& query_requests_;
  obs::Counter& parse_errors_;
  obs::Counter& type_conflicts_;
  obs::Counter& slow_queries_;
  obs::Counter& series_scanned_;
  obs::Counter& points_examined_;
  obs::Histogram& write_ns_;
  obs::Histogram& query_ns_;
  /// Leaf within the tsdb layer: taken only to append/copy the ring, after
  /// the query (and its shard locks) completed.
  mutable core::sync::Mutex slow_mu_{core::sync::Rank::kTsdbAux, "tsdb.slowlog"};
  std::deque<SlowQuery> slow_ring_ LMS_GUARDED_BY(slow_mu_);
  /// Duty-cycle accounting lives on the periodic task's own LoopStats row
  /// ("tsdb.retention" in /debug/runtime) once attached.
  core::PeriodicTaskHandle retention_task_;
};

}  // namespace lms::tsdb
