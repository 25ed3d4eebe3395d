#include "lms/tsdb/http_api.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>

#include "lms/json/json.hpp"
#include "lms/lineproto/codec.hpp"
#include "lms/obs/runtime.hpp"
#include "lms/obs/trace.hpp"
#include "lms/tsdb/ingest.hpp"
#include "lms/tsdb/persist.hpp"
#include "lms/tsdb/trace_assembly.hpp"
#include "lms/util/logging.hpp"

namespace lms::tsdb {

namespace {

/// Did the (already parsed-and-executed) query ask for EXPLAIN? Cheap check
/// on the raw text so the HTTP layer knows to render statistics, not rows.
bool is_explain_query(std::string_view q) {
  std::size_t i = 0;
  while (i < q.size() && std::isspace(static_cast<unsigned char>(q[i])) != 0) ++i;
  static constexpr std::string_view kw = "explain";
  if (q.size() - i < kw.size()) return false;
  for (std::size_t k = 0; k < kw.size(); ++k) {
    if (std::tolower(static_cast<unsigned char>(q[i + k])) != kw[k]) return false;
  }
  i += kw.size();
  return i < q.size() && std::isspace(static_cast<unsigned char>(q[i])) != 0;
}

/// EXPLAIN output: one "explain" series carrying the scan statistics.
QueryResult explain_result(const QueryStats& stats) {
  ResultSeries s;
  s.name = "explain";
  s.columns = {"measurements_scanned", "series_scanned", "points_examined", "shards_touched"};
  s.values.push_back({FieldValue(static_cast<std::int64_t>(stats.measurements_scanned)),
                      FieldValue(static_cast<std::int64_t>(stats.series_scanned)),
                      FieldValue(static_cast<std::int64_t>(stats.points_examined)),
                      FieldValue(static_cast<std::int64_t>(stats.shards_touched))});
  QueryResult result;
  result.series.push_back(std::move(s));
  return result;
}

json::Object stats_to_json(const QueryStats& stats) {
  json::Object o;
  o["measurements_scanned"] = static_cast<std::int64_t>(stats.measurements_scanned);
  o["series_scanned"] = static_cast<std::int64_t>(stats.series_scanned);
  o["points_examined"] = static_cast<std::int64_t>(stats.points_examined);
  o["shards_touched"] = static_cast<std::int64_t>(stats.shards_touched);
  return o;
}

}  // namespace

HttpApi::HttpApi(Storage& storage, const util::Clock& clock)
    : HttpApi(storage, clock, Options()) {}

HttpApi::HttpApi(Storage& storage, const util::Clock& clock, Options options)
    : storage_(storage),
      clock_(clock),
      options_(std::move(options)),
      engine_(storage),
      own_registry_(options_.registry == nullptr ? new obs::Registry() : nullptr),
      registry_(options_.registry != nullptr ? options_.registry : own_registry_.get()),
      points_written_(registry_->counter("tsdb_points_written")),
      write_requests_(registry_->counter("tsdb_write_requests")),
      query_requests_(registry_->counter("tsdb_query_requests")),
      parse_errors_(registry_->counter("tsdb_parse_errors")),
      type_conflicts_(registry_->counter("tsdb_field_type_conflicts")),
      slow_queries_(registry_->counter("tsdb_slow_queries")),
      series_scanned_(registry_->counter("tsdb_query_series_scanned")),
      points_examined_(registry_->counter("tsdb_query_points_examined")),
      write_ns_(registry_->histogram("tsdb_write_ns")),
      query_ns_(registry_->histogram("tsdb_query_ns")) {
  // The latency histograms carry an exemplar: the trace id of the slowest
  // recent request, linking /metrics to /trace/<id>.
  write_ns_.enable_exemplar();
  query_ns_.enable_exemplar();
  // Sampled at collect time; totals() snapshots one database at a time.
  registry_->gauge_fn("tsdb_series", {}, [this] {
    return static_cast<double>(storage_.totals().series);
  });
  registry_->gauge_fn("tsdb_samples", {}, [this] {
    return static_cast<double>(storage_.totals().samples);
  });
}

HttpApi::~HttpApi() {
  detach();
  registry_->remove_gauge_fn("tsdb_series");
  registry_->remove_gauge_fn("tsdb_samples");
}

void HttpApi::on_attach(core::TaskScheduler& sched) {
  if (options_.retention <= 0) return;
  const TimeNs interval =
      options_.retention_interval > 0 ? options_.retention_interval : util::kNanosPerMinute;
  retention_task_ =
      sched.submit_periodic("tsdb.retention", interval, [this] { enforce_retention(); });
}

void HttpApi::on_detach() { retention_task_.cancel(); }

net::HttpHandler HttpApi::handler() {
  return [this](const net::HttpRequest& req) -> net::HttpResponse {
    if (req.path == "/ping") return net::HttpResponse::no_content();
    if (req.path == "/write" && req.method == "POST") return handle_write(req);
    if (req.path == "/query") return handle_query(req);
    if (req.path == "/stats") return handle_stats(req);
    if (req.path.rfind("/trace/", 0) == 0) return handle_trace(req);
    if (req.path == "/debug/slow_queries") return handle_slow_queries(req);
    if (req.path == "/debug/logs") return handle_debug_logs(req);
    if (req.path == "/debug/runtime") return net::runtime_debug_response();
    if (req.path == "/debug/pprof") return net::pprof_response(req);
    if (req.path == "/metrics") {
      obs::update_runtime_metrics(*registry_);
      auto resp = net::HttpResponse::text(200, obs::render_text(*registry_));
      resp.headers.set("Content-Type", obs::kTextExpositionContentType);
      return resp;
    }
    if (req.path == "/health") return net::health_response(health());
    if (req.path == "/ready") return net::ready_response(health());
    if (req.path == "/dump") {
      const std::string db_name = req.query.get_or("db", options_.default_db);
      const ReadSnapshot snap = storage_.snapshot(db_name);
      if (!snap) {
        return net::HttpResponse::json(404, influx_error_json("database not found"));
      }
      return net::HttpResponse::text(200, dump_database(*snap));
    }
    return net::HttpResponse::not_found();
  };
}

net::HttpResponse HttpApi::handle_write(const net::HttpRequest& req) {
  obs::Span span("tsdb.write", "tsdb");
  const util::TimeNs t0 = util::monotonic_now_ns();
  write_requests_.inc();
  const TimeNs default_time = clock_.now();
  const auto fail = [&](const std::string& message) {
    parse_errors_.inc();
    span.set_ok(false);
    return write_error_response(message);
  };
  auto target = parse_write_target(req, options_.default_db);
  if (!target.ok()) return fail(target.message());
  // Scan the body into line views and apply them: no Point is built.
  lineproto::ScannedBatch lines;
  std::vector<std::string> errors;
  lineproto::scan(req.body, lines, &errors);
  if (auto st = check_lenient_parse(lines.lines.size(), errors); !st.ok()) {
    return fail(st.message());
  }
  parse_errors_.inc(errors.size());
  Database* db = options_.auto_create_dbs ? &storage_.database(target->db)
                                          : storage_.find_database(target->db);
  if (db == nullptr) {
    span.set_ok(false);
    return unknown_db_response(target->db);
  }
  const std::size_t conflicts = db->write_lines(lines, default_time, target->timestamp_scale);
  points_written_.inc(lines.lines.size());
  if (!errors.empty()) {
    LMS_WARN("tsdb") << errors.size() << " malformed lines dropped in /write";
  }
  if (conflicts > 0) {
    // Lenient like malformed lines: the rest of the batch landed, so 204.
    type_conflicts_.inc(conflicts);
    LMS_WARN("tsdb") << conflicts << " field values dropped in /write: field type conflict";
  }
  write_ns_.record_since(t0);
  return net::HttpResponse::no_content();
}

net::HttpResponse HttpApi::handle_query(const net::HttpRequest& req) {
  obs::Span span("tsdb.query", "tsdb");
  const util::TimeNs t0 = util::monotonic_now_ns();
  query_requests_.inc();
  std::string q = req.query.get_or("q", "");
  if (q.empty() && !req.body.empty()) {
    // Accept form-encoded body: q=...
    q = net::QueryParams::parse(req.body).get_or("q", "");
  }
  if (q.empty()) {
    return net::HttpResponse::json(400, influx_error_json("missing query parameter 'q'"));
  }
  const std::string db = req.query.get_or("db", options_.default_db);
  QueryStats stats;
  auto result = engine_.query(db, q, clock_.now(), &stats);
  const std::int64_t elapsed = static_cast<std::int64_t>(util::monotonic_now_ns() - t0);
  query_ns_.record(static_cast<double>(elapsed));
  series_scanned_.inc(stats.series_scanned);
  points_examined_.inc(stats.points_examined);
  {
    char note[96];
    std::snprintf(note, sizeof(note), "shards=%llu series=%llu points=%llu",
                  static_cast<unsigned long long>(stats.shards_touched),
                  static_cast<unsigned long long>(stats.series_scanned),
                  static_cast<unsigned long long>(stats.points_examined));
    span.set_note(note);
  }
  if (options_.slow_query_threshold > 0 && elapsed >= options_.slow_query_threshold) {
    slow_queries_.inc();
    note_slow_query(q, db, elapsed, obs::current_trace().trace_id, stats);
  }
  if (!result.ok()) {
    span.set_ok(false);
    return net::HttpResponse::json(400, influx_error_json(result.message()));
  }
  if (is_explain_query(q)) {
    return net::HttpResponse::json(200, to_influx_json(explain_result(stats)));
  }
  return net::HttpResponse::json(200, to_influx_json(*result));
}

net::HttpResponse HttpApi::handle_trace(const net::HttpRequest& req) {
  if (req.method != "GET") {
    return net::HttpResponse::json(405, influx_error_json("method not allowed"));
  }
  const std::string_view hex = std::string_view(req.path).substr(7);  // after "/trace/"
  const auto id = obs::parse_trace_id_hex(hex);
  if (!id || *id == 0) {
    return net::HttpResponse::json(400,
                                   influx_error_json("bad trace id (want 16 hex characters)"));
  }
  const std::string db = req.query.get_or("db", options_.default_db);
  const ReadSnapshot snap = storage_.snapshot(db);
  if (!snap) {
    return net::HttpResponse::json(404, influx_error_json("database not found"));
  }
  const TraceTree tree = assemble_trace(snap, *id, options_.trace_measurement);
  if (req.query.get_or("format", "") == "waterfall") {
    return net::HttpResponse::text(200, trace_tree_to_waterfall(tree));
  }
  return net::HttpResponse::json(200, trace_tree_to_json(tree));
}

net::HttpResponse HttpApi::handle_slow_queries(const net::HttpRequest&) {
  json::Object top;
  top["threshold_ns"] = static_cast<std::int64_t>(options_.slow_query_threshold);
  json::Array arr;
  for (const SlowQuery& s : slow_query_ring()) {
    json::Object o;
    o["query"] = s.query;
    o["db"] = s.db;
    o["time_ns"] = static_cast<std::int64_t>(s.wall_ns);
    o["duration_ns"] = s.duration_ns;
    if (s.trace_id != 0) o["trace_id"] = obs::trace_id_hex(s.trace_id);
    o["stats"] = stats_to_json(s.stats);
    arr.emplace_back(std::move(o));
  }
  top["slow_queries"] = std::move(arr);
  return net::HttpResponse::json(200, json::Value(std::move(top)).dump());
}

net::HttpResponse HttpApi::handle_debug_logs(const net::HttpRequest& req) {
  if (options_.log_ring == nullptr) return net::HttpResponse::not_found();
  return net::debug_logs_response(*options_.log_ring, req);
}

void HttpApi::note_slow_query(std::string q, std::string db, std::int64_t duration_ns,
                              std::uint64_t trace_id, const QueryStats& stats) {
  SlowQuery s;
  s.query = std::move(q);
  s.db = std::move(db);
  s.wall_ns = clock_.now();
  s.duration_ns = duration_ns;
  s.trace_id = trace_id;
  s.stats = stats;
  const core::sync::LockGuard lock(slow_mu_);
  slow_ring_.push_back(std::move(s));
  while (slow_ring_.size() > options_.slow_query_capacity) slow_ring_.pop_front();
}

std::vector<HttpApi::SlowQuery> HttpApi::slow_query_ring() const {
  const core::sync::LockGuard lock(slow_mu_);
  return {slow_ring_.rbegin(), slow_ring_.rend()};
}

net::HttpResponse HttpApi::handle_stats(const net::HttpRequest&) {
  json::Object stats;
  stats["points_written"] = static_cast<std::int64_t>(points_written());
  stats["write_requests"] = static_cast<std::int64_t>(write_requests());
  stats["query_requests"] = static_cast<std::int64_t>(query_requests());
  stats["parse_errors"] = static_cast<std::int64_t>(parse_errors());
  stats["slow_queries"] = static_cast<std::int64_t>(slow_queries());
  json::Array dbs;
  for (const auto& name : storage_.databases()) {
    const ReadSnapshot snap = storage_.snapshot(name);
    if (!snap) continue;
    json::Object d;
    d["name"] = name;
    d["series"] = static_cast<std::int64_t>(snap->series_count());
    d["samples"] = static_cast<std::int64_t>(snap->sample_count());
    dbs.emplace_back(std::move(d));
  }
  stats["databases"] = std::move(dbs);
  return net::HttpResponse::json(200, json::Value(std::move(stats)).dump());
}

net::ComponentHealth HttpApi::health() const {
  net::ComponentHealth h;
  h.component = "tsdb";
  h.time = clock_.now();
  const Storage::Totals totals = storage_.totals();
  h.add("storage", net::HealthStatus::kOk,
        std::to_string(totals.databases) + " databases, " + std::to_string(totals.series) +
            " series",
        static_cast<double>(totals.samples));
  h.add("ingest", net::HealthStatus::kOk,
        std::to_string(points_written()) + " points written",
        static_cast<double>(points_written()));
  return h;
}

std::size_t HttpApi::enforce_retention() {
  if (options_.retention <= 0) return 0;
  return storage_.drop_before(clock_.now() - options_.retention);
}

}  // namespace lms::tsdb
