#include "lms/core/router.hpp"

#include <chrono>

#include "lms/json/json.hpp"
#include "lms/lineproto/codec.hpp"
#include "lms/obs/runtime.hpp"
#include "lms/obs/trace.hpp"
#include "lms/tsdb/query.hpp"
#include "lms/util/logging.hpp"
#include "lms/util/strings.hpp"

namespace lms::core {

namespace {
// Error-message prefixes are the contract between the programmatic write API
// and the HTTP layer: they select the status code without a parallel error
// type. See handle_write().
constexpr std::string_view kBackpressurePrefix = "backpressure";
constexpr std::string_view kUnknownDbPrefix = "unknown database:";
constexpr std::string_view kForwardFailedPrefix = "forward failed";

/// A job annotation event as the one-line body of a forward.
std::string event_line(const lineproto::Point& event) {
  std::string line;
  lineproto::append_line(line, event);
  return line;
}
}  // namespace

MetricsRouter::MetricsRouter(net::HttpClient& db_client, const util::Clock& clock,
                             Options options, net::PubSubBroker* broker)
    : db_client_(db_client),
      clock_(clock),
      options_(std::move(options)),
      broker_(broker),
      own_registry_(options_.registry == nullptr ? new obs::Registry() : nullptr),
      registry_(options_.registry != nullptr ? options_.registry : own_registry_.get()),
      points_in_(registry_->counter("router_points_in")),
      points_out_(registry_->counter("router_points_out")),
      points_duplicated_(registry_->counter("router_points_duplicated")),
      parse_errors_(registry_->counter("router_parse_errors")),
      forward_failures_(registry_->counter("router_forward_failures")),
      jobs_started_(registry_->counter("router_jobs_started")),
      jobs_ended_(registry_->counter("router_jobs_ended")),
      points_spooled_(registry_->counter("router_points_spooled")),
      spool_dropped_(registry_->counter("router_spool_dropped")),
      ingest_rejected_(registry_->counter("router_ingest_rejected")),
      ingest_flushed_(registry_->counter("router_ingest_flushed")),
      write_ns_(registry_->histogram("router_write_ns")),
      forward_ns_(registry_->histogram("router_forward_ns")),
      ingest_flush_ns_(registry_->histogram("router_ingest_flush_ns")) {
  registry_->gauge_fn("router_spool_points", {}, [this] { return double(spool_size()); });
  registry_->gauge_fn("router_jobs_running", {}, [this] {
    const core::sync::LockGuard lock(jobs_mu_);
    return double(jobs_.size());
  });
  registry_->gauge_fn("router_tagged_hosts", {}, [this] { return double(tags_.host_count()); });
  registry_->gauge_fn("router_ingest_queue_points", {},
                      [this] { return double(ingest_queue_points()); });
  if (options_.async_ingest) {
    ingest_queue_stats_.name = "core.router.ingest";
    ingest_queue_stats_.capacity = options_.ingest_queue_capacity;
    core::runtime::register_queue(&ingest_queue_stats_);
    if (options_.scheduler == nullptr) {
      TaskScheduler::Options sched_opts;
      sched_opts.workers = 1;
      sched_opts.name = "core.router.sched";
      own_sched_ = std::make_unique<TaskScheduler>(sched_opts);
    }
    attach(options_.scheduler != nullptr ? *options_.scheduler : *own_sched_);
  }
}

MetricsRouter::~MetricsRouter() {
  detach();
  if (options_.async_ingest) {
    core::runtime::unregister_queue(&ingest_queue_stats_);
  }
  // The registry may outlive this router (shared/global registries); drop
  // the callbacks that capture `this`.
  registry_->remove_gauge_fn("router_spool_points");
  registry_->remove_gauge_fn("router_jobs_running");
  registry_->remove_gauge_fn("router_tagged_hosts");
  registry_->remove_gauge_fn("router_ingest_queue_points");
}

void MetricsRouter::on_attach(TaskScheduler& sched) {
  if (!options_.async_ingest) return;
  flusher_task_ = sched.submit_periodic("router.flusher", options_.ingest_flush_interval,
                                        [this] { flush_ingest(); });
}

void MetricsRouter::on_detach() {
  flusher_task_.cancel();
  if (options_.async_ingest) flush_ingest();  // best-effort final drain
}

net::HttpHandler MetricsRouter::handler() {
  return [this](const net::HttpRequest& req) -> net::HttpResponse {
    if (req.path == "/ping") return net::HttpResponse::no_content();
    if (req.path == "/write" && req.method == "POST") return handle_write(req);
    if (req.path == "/job/start" && req.method == "POST") return handle_job_start(req);
    if (req.path == "/job/end" && req.method == "POST") return handle_job_end(req);
    if (req.path == "/jobs") return handle_jobs(req);
    if (req.path == "/stats") return handle_stats(req);
    if (req.path == "/metrics") {
      obs::update_runtime_metrics(*registry_);
      auto resp = net::HttpResponse::text(200, obs::render_text(*registry_));
      resp.headers.set("Content-Type", obs::kTextExpositionContentType);
      return resp;
    }
    if (req.path == "/health") return net::health_response(health(false));
    if (req.path == "/ready") return net::ready_response(health(true));
    if (req.path == "/debug/logs" && options_.log_ring != nullptr) {
      return net::debug_logs_response(*options_.log_ring, req);
    }
    if (req.path == "/debug/runtime") return net::runtime_debug_response();
    if (req.path == "/debug/pprof") return net::pprof_response(req);
    return net::HttpResponse::not_found();
  };
}

MetricsRouter::ForwardOutcome MetricsRouter::forward(const std::string& db,
                                                     const std::string& lines) {
  ForwardOutcome out;
  if (lines.empty()) {
    out.http_status = 204;
    return out;
  }
  obs::Span span("router.forward", "router");
  const util::TimeNs t0 = util::monotonic_now_ns();
  auto resp = db_client_.post(options_.db_url + "/write?db=" + util::url_encode(db), lines,
                              "text/plain");
  forward_ns_.record_since(t0);
  if (!resp.ok()) {
    span.set_ok(false);
    out.status = util::Status::error(resp.message());
    return out;
  }
  out.http_status = resp->status;
  out.body = resp->body;
  if (!resp->ok()) {
    span.set_ok(false);
    out.status = util::Status::error("db rejected write: HTTP " + std::to_string(resp->status));
  }
  return out;
}

util::Result<std::size_t> MetricsRouter::write_lines(std::string_view body,
                                                     const std::string& db_override) {
  std::vector<std::string> errors;
  std::vector<lineproto::Point> points = lineproto::parse_lenient(body, &errors);
  parse_errors_.inc(errors.size());
  if (points.empty() && !errors.empty()) {
    return util::Result<std::size_t>::error("all lines malformed: " + errors.front());
  }
  tsdb::WriteBatch batch;
  batch.db = db_override;  // empty → primary database
  batch.points = std::move(points);
  return write_points(std::move(batch));
}

util::Result<std::size_t> MetricsRouter::write_points(tsdb::WriteBatch batch) {
  obs::Span span("router.write", "router");
  const util::TimeNs t0 = util::monotonic_now_ns();
  points_in_.inc(batch.points.size());
  if (batch.db.empty()) batch.db = options_.database;

  // Normalize timestamps (apply the precision multiplier, stamp missing
  // ones), enrich from the tag store, then serialize every point once.
  const util::TimeNs now = batch.default_time != 0 ? batch.default_time : clock_.now();
  for (auto& p : batch.points) {
    p.timestamp = p.timestamp != 0 ? p.timestamp * batch.timestamp_scale : now;
  }
  batch.timestamp_scale = 1;
  tags_.enrich(batch.points);
  std::vector<IngestBatch> routed = route(batch);

  if (options_.async_ingest) {
    auto accepted = enqueue_ingest(routed);
    if (!accepted.ok()) {
      span.set_ok(false);
      if (util::starts_with(accepted.message(), kBackpressurePrefix)) {
        // Tag the span so a 429'd producer's trace shows *why* the write
        // failed without needing the response body.
        span.set_note("error=backpressure");
      }
      return accepted;
    }
    // Publish on accept: stream analyzers see the enriched batch as soon as
    // the router takes responsibility for it, not when the flusher lands it.
    if (broker_ != nullptr && options_.publish) {
      broker_->publish(kTopicMetrics, routed.front().lines);
    }
    write_ns_.record_since(t0);
    return accepted;
  }

  auto result = forward_sync(std::move(routed));
  if (!result.ok()) {
    span.set_ok(false);
    return result;
  }
  write_ns_.record_since(t0);
  return result;
}

std::vector<MetricsRouter::IngestBatch> MetricsRouter::route(
    const tsdb::WriteBatch& batch) const {
  std::vector<IngestBatch> out(1);
  out[0].db = batch.db;
  out[0].points = batch.points.size();
  // User name (a view into the batch's points) -> index into `out`.
  std::map<std::string_view, std::size_t> user_slot;
  for (const auto& p : batch.points) {
    const std::size_t begin = out[0].lines.size();
    lineproto::append_line(out[0].lines, p);
    if (!options_.duplicate_per_user) continue;
    const std::string_view user = p.tag("user");
    if (user.empty()) continue;
    const auto [slot, added] = user_slot.try_emplace(user, out.size());
    if (added) {
      IngestBatch& dup = out.emplace_back();
      dup.db = options_.user_db_prefix + std::string(user);
      dup.duplicate = true;
    }
    IngestBatch& dup = out[slot->second];
    dup.lines.append(out[0].lines, begin, std::string::npos);
    ++dup.points;
  }
  return out;
}

util::Result<std::size_t> MetricsRouter::forward_sync(std::vector<IngestBatch> routed) {
  // Drain any spooled backlog first so ordering is roughly preserved.
  if (options_.spool_capacity > 0) flush_spool();
  const IngestBatch& primary = routed.front();
  if (auto out = forward(primary.db, primary.lines); !out.status.ok()) {
    forward_failures_.inc();
    if (out.http_status == 404) {
      // The back-end does not know the database: a permanent producer-side
      // error. Pass its body through so both services answer identically.
      return util::Result<std::size_t>::error(std::string(kUnknownDbPrefix) + out.body);
    }
    // Only transport errors and 5xx are worth retrying; other 4xx means the
    // back-end rejected the batch for good.
    const bool retryable = out.http_status == 0 || out.http_status >= 500;
    if (!retryable || options_.spool_capacity == 0 || primary.db != options_.database) {
      // No spool (or a non-default target DB): the producer keeps the batch.
      // The "forward failed" prefix lets the HTTP layer answer 503 (retry)
      // instead of 400 (drop).
      return util::Result<std::size_t>::error(std::string(kForwardFailedPrefix) + ": " +
                                              out.status.message());
    }
    // Store-and-forward: take responsibility for the points.
    spool_lines(primary.lines, primary.points);
    return primary.points;
  }
  points_out_.inc(primary.points);

  // Optional duplication into per-user databases.
  for (std::size_t i = 1; i < routed.size(); ++i) {
    const IngestBatch& dup = routed[i];
    if (auto out = forward(dup.db, dup.lines); !out.status.ok()) {
      LMS_WARN("router") << "per-user duplication into '" << dup.db
                         << "' failed: " << out.status.message();
      forward_failures_.inc();
    } else {
      points_duplicated_.inc(dup.points);
    }
  }
  // Publish the enriched batch for attached stream analyzers (a batch that
  // went to the spool instead of the back-end is not published).
  if (broker_ != nullptr && options_.publish) {
    broker_->publish(kTopicMetrics, primary.lines);
  }
  return primary.points;
}

util::Result<std::size_t> MetricsRouter::enqueue_ingest(const std::vector<IngestBatch>& routed) {
  // Routed and serialized at accept time: the primary destination plus the
  // per-user duplicates; the flusher only moves bytes after this.
  const std::size_t accepted = routed.front().points;
  std::size_t incoming = 0;
  for (const auto& b : routed) incoming += b.points;

  bool wake = false;
  {
    const core::sync::LockGuard lock(ingest_mu_);
    if (ingest_points_ + incoming > options_.ingest_queue_capacity) {
      ingest_rejected_.inc(accepted);
      ingest_queue_stats_.rejected_pushes.fetch_add(1, std::memory_order_relaxed);
      return util::Result<std::size_t>::error(
          std::string(kBackpressurePrefix) + ": ingest queue full (" +
          std::to_string(ingest_points_) + " points queued, capacity " +
          std::to_string(options_.ingest_queue_capacity) + ")");
    }
    // Capture the producer's trace context with the queued points: the
    // batch that opens a queue carries its trace to the flusher (later
    // coalesced writes ride along — first writer wins).
    const obs::TraceContext trace = obs::current_trace();
    for (const auto& b : routed) {
      IngestBatch& q = ingest_q_[b.db];
      q.db = b.db;
      q.duplicate = b.duplicate;
      if (q.points == 0 && trace.valid()) q.trace = trace;
      q.lines.append(b.lines);
      q.points += b.points;
    }
    ingest_points_ += incoming;
    ingest_queue_stats_.on_push(ingest_points_);
    wake = ingest_points_ >= options_.ingest_max_batch;
  }
  if (wake) flusher_task_.trigger();
  return accepted;
}

namespace {
/// Bytes taken by the first `n` lines of `lines` (all of it when it holds
/// fewer).
std::size_t line_prefix_bytes(const std::string& lines, std::size_t n) {
  std::size_t end = 0;
  for (; n > 0; --n) {
    const std::size_t nl = lines.find('\n', end);
    if (nl == std::string::npos) return lines.size();
    end = nl + 1;
  }
  return end;
}
}  // namespace

std::vector<MetricsRouter::IngestBatch> MetricsRouter::take_ingest_locked(
    std::size_t max_points) {
  std::vector<IngestBatch> out;
  for (auto& [db, q] : ingest_q_) {
    if (q.points == 0) continue;
    IngestBatch taken;
    taken.db = q.db;
    taken.duplicate = q.duplicate;
    taken.trace = q.trace;
    if (q.points <= max_points) {
      taken.lines = std::move(q.lines);
      taken.points = q.points;
      q.lines.clear();
      q.points = 0;
      q.trace = obs::TraceContext{};  // next writer re-opens the batch
    } else {
      const std::size_t cut = line_prefix_bytes(q.lines, max_points);
      taken.lines.assign(q.lines, 0, cut);
      taken.points = max_points;
      q.lines.erase(0, cut);
      q.points -= max_points;
    }
    ingest_points_ -= taken.points;
    ingest_queue_stats_.on_pop(ingest_points_);
    out.push_back(std::move(taken));
  }
  return out;
}

void MetricsRouter::forward_ingest(IngestBatch batch) {
  // Adopt the enqueuing producer's context so the flush span (and the
  // forward span + injected header below it) join the originating trace.
  const obs::ScopedTraceContext adopt(batch.trace);
  obs::Span span("router.flush", "router");
  span.set_note("db=" + batch.db + " points=" + std::to_string(batch.points));
  auto out = forward(batch.db, batch.lines);
  if (!out.status.ok()) span.set_ok(false);
  if (out.status.ok()) {
    if (batch.duplicate) {
      points_duplicated_.inc(batch.points);
    } else {
      points_out_.inc(batch.points);
    }
    ingest_flushed_.inc(batch.points);
    return;
  }
  forward_failures_.inc();
  const bool retryable = out.http_status == 0 || out.http_status >= 500;
  if (retryable && !batch.duplicate && options_.spool_capacity > 0 &&
      batch.db == options_.database) {
    spool_lines(batch.lines, batch.points);
    return;
  }
  LMS_WARN("router") << "async forward to '" << batch.db << "' dropped " << batch.points
                     << " points: " << out.status.message();
}

std::size_t MetricsRouter::flush_ingest() {
  // The flusher is what runs while no writes arrive, so it retries the
  // spool too; forward_sync() retries it only when a new write comes in.
  if (options_.spool_capacity > 0) flush_spool();
  std::size_t total = 0;
  for (;;) {
    std::vector<IngestBatch> batches;
    {
      const core::sync::LockGuard lock(ingest_mu_);
      batches = take_ingest_locked(options_.ingest_max_batch);
    }
    if (batches.empty()) return total;
    const util::TimeNs t0 = util::monotonic_now_ns();
    for (auto& b : batches) {
      total += b.points;
      forward_ingest(std::move(b));
    }
    ingest_flush_ns_.record_since(t0);
  }
}

std::size_t MetricsRouter::ingest_queue_points() const {
  const core::sync::LockGuard lock(ingest_mu_);
  return ingest_points_;
}

void MetricsRouter::spool_lines(const std::string& lines, std::size_t points) {
  {
    const core::sync::LockGuard lock(spool_mu_);
    spool_.append(lines);
    spool_points_ += points;
    trim_spool_locked();
  }
  points_spooled_.inc(points);
}

void MetricsRouter::trim_spool_locked() {
  if (spool_points_ <= options_.spool_capacity) return;
  const std::size_t dropped = spool_points_ - options_.spool_capacity;
  spool_.erase(0, line_prefix_bytes(spool_, dropped));
  spool_points_ = options_.spool_capacity;
  spool_dropped_.inc(dropped);
}

util::Status MetricsRouter::job_start(const JobSignal& signal) {
  if (signal.job_id.empty()) return util::Status::error("job signal without jobid");
  const util::TimeNs now = clock_.now();
  RunningJob job{signal.job_id, signal.user, signal.nodes, signal.extra_tags, now};
  {
    const core::sync::LockGuard lock(jobs_mu_);
    jobs_[signal.job_id] = job;
  }
  jobs_started_.inc();
  // Tags piggy-backed onto all measurements from the participating hosts.
  std::vector<lineproto::Tag> tags;
  tags.emplace_back("jobid", signal.job_id);
  if (!signal.user.empty()) tags.emplace_back("user", signal.user);
  for (const auto& t : signal.extra_tags) tags.push_back(t);
  for (const auto& node : signal.nodes) {
    tags_.set_tags(node, tags);
  }

  // Forward the signal into the database as an annotation event.
  lineproto::Point event;
  event.measurement = options_.events_measurement;
  event.set_tag("jobid", signal.job_id);
  if (!signal.user.empty()) event.set_tag("user", signal.user);
  event.add_field("type", std::string("job_start"));
  event.add_field("nodes", util::join(signal.nodes, ","));
  event.timestamp = now;
  event.normalize();
  if (auto out = forward(options_.database, event_line(event)); !out.status.ok()) {
    LMS_WARN("router") << "job_start annotation failed: " << out.status.message();
  }
  if (broker_ != nullptr && options_.publish) {
    json::Object meta;
    meta["type"] = "job_start";
    meta["jobid"] = signal.job_id;
    meta["user"] = signal.user;
    json::Array nodes;
    for (const auto& n : signal.nodes) nodes.emplace_back(n);
    meta["nodes"] = std::move(nodes);
    meta["time"] = static_cast<std::int64_t>(now);
    broker_->publish(kTopicJobs, json::Value(std::move(meta)).dump());
  }
  return {};
}

util::Status MetricsRouter::job_end(const std::string& job_id) {
  RunningJob job;
  {
    const core::sync::LockGuard lock(jobs_mu_);
    const auto it = jobs_.find(job_id);
    if (it == jobs_.end()) return util::Status::error("unknown job '" + job_id + "'");
    job = it->second;
    jobs_.erase(it);
  }
  for (const auto& node : job.nodes) {
    tags_.clear_tags(node);
  }
  jobs_ended_.inc();
  const util::TimeNs now = clock_.now();
  lineproto::Point event;
  event.measurement = options_.events_measurement;
  event.set_tag("jobid", job_id);
  if (!job.user.empty()) event.set_tag("user", job.user);
  event.add_field("type", std::string("job_end"));
  event.add_field("nodes", util::join(job.nodes, ","));
  event.timestamp = now;
  event.normalize();
  if (auto out = forward(options_.database, event_line(event)); !out.status.ok()) {
    LMS_WARN("router") << "job_end annotation failed: " << out.status.message();
  }
  if (broker_ != nullptr && options_.publish) {
    json::Object meta;
    meta["type"] = "job_end";
    meta["jobid"] = job_id;
    meta["user"] = job.user;
    meta["time"] = static_cast<std::int64_t>(now);
    broker_->publish(kTopicJobs, json::Value(std::move(meta)).dump());
  }
  return {};
}

std::vector<RunningJob> MetricsRouter::running_jobs() const {
  const core::sync::LockGuard lock(jobs_mu_);
  std::vector<RunningJob> out;
  out.reserve(jobs_.size());
  for (const auto& [_, job] : jobs_) out.push_back(job);
  return out;
}

std::optional<RunningJob> MetricsRouter::find_job(const std::string& job_id) const {
  const core::sync::LockGuard lock(jobs_mu_);
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return std::nullopt;
  return it->second;
}

MetricsRouter::Stats MetricsRouter::stats() const {
  Stats s;
  s.points_in = points_in_.value();
  s.points_out = points_out_.value();
  s.points_duplicated = points_duplicated_.value();
  s.parse_errors = parse_errors_.value();
  s.forward_failures = forward_failures_.value();
  s.jobs_started = jobs_started_.value();
  s.jobs_ended = jobs_ended_.value();
  s.points_spooled = points_spooled_.value();
  s.spool_dropped = spool_dropped_.value();
  s.ingest_rejected = ingest_rejected_.value();
  s.ingest_flushed = ingest_flushed_.value();
  return s;
}

std::size_t MetricsRouter::flush_spool() {
  // Take the spool out, so a concurrent flush finds it empty instead of
  // sending the same points again, and evictions while the forward runs
  // only touch points spooled after it started.
  std::string lines;
  std::size_t points = 0;
  {
    const core::sync::LockGuard lock(spool_mu_);
    if (spool_points_ == 0) return 0;
    lines = std::move(spool_);
    points = spool_points_;
    spool_.clear();
    spool_points_ = 0;
  }
  if (auto out = forward(options_.database, lines); !out.status.ok()) {
    // Still down: put the points back ahead of anything spooled meanwhile,
    // then drop the oldest beyond capacity.
    const core::sync::LockGuard lock(spool_mu_);
    spool_.insert(0, lines);
    spool_points_ += points;
    trim_spool_locked();
    return 0;
  }
  points_out_.inc(points);
  return points;
}

std::size_t MetricsRouter::spool_size() const {
  const core::sync::LockGuard lock(spool_mu_);
  return spool_points_;
}

net::ComponentHealth MetricsRouter::health(bool readiness) {
  net::ComponentHealth h;
  h.component = "router";
  h.time = clock_.now();

  const std::size_t spooled = spool_size();
  net::HealthStatus spool_status = net::HealthStatus::kOk;
  std::string spool_detail = std::to_string(spooled) + " points spooled";
  if (options_.spool_capacity > 0 && spooled >= options_.spool_capacity) {
    spool_status = net::HealthStatus::kDegraded;
    spool_detail += " (spool full, oldest points being dropped)";
  }
  h.add("spool", spool_status, std::move(spool_detail), static_cast<double>(spooled));
  if (options_.async_ingest) {
    const std::size_t queued = ingest_queue_points();
    net::HealthStatus ingest_status = net::HealthStatus::kOk;
    std::string ingest_detail = std::to_string(queued) + " points queued for flush";
    if (queued >= options_.ingest_queue_capacity) {
      ingest_status = net::HealthStatus::kDegraded;
      ingest_detail += " (queue full, writes rejected with 429)";
    }
    h.add("ingest_queue", ingest_status, std::move(ingest_detail),
          static_cast<double>(queued));
  }
  {
    const core::sync::LockGuard lock(jobs_mu_);
    h.add("jobs", net::HealthStatus::kOk, std::to_string(jobs_.size()) + " jobs running",
          static_cast<double>(jobs_.size()));
  }

  if (readiness) {
    auto resp = db_client_.get(options_.db_url + "/ping");
    const bool reachable = resp.ok() && resp->ok();
    h.add("downstream_db",
          reachable ? net::HealthStatus::kOk : net::HealthStatus::kDegraded,
          reachable ? "db back-end reachable at " + options_.db_url
                    : "db back-end unreachable at " + options_.db_url + ": " +
                          (resp.ok() ? "HTTP " + std::to_string(resp->status)
                                     : resp.message()));
    // Attachment state feeds readiness: a router whose flusher task was
    // detached stopped forwarding; one that never attached (sync ingest)
    // reports no scheduler check at all.
    if (ever_attached()) {
      h.add("scheduler", attached() ? net::HealthStatus::kOk : net::HealthStatus::kDegraded,
            attached() ? "flusher task attached" : "detached: background flush stopped");
    }
  }
  return h;
}

net::HttpResponse MetricsRouter::handle_write(const net::HttpRequest& req) {
  // Shared parser with the TSDB façade: same db/precision handling, same
  // uniform 400 body for an unparseable batch.
  auto parsed = tsdb::parse_write_request(req, options_.database, clock_.now());
  if (!parsed.ok()) {
    parse_errors_.inc();
    return tsdb::write_error_response(parsed.message());
  }
  parse_errors_.inc(parsed->errors.size());
  auto result = write_points(std::move(parsed->batch));
  if (!result.ok()) {
    const std::string& msg = result.message();
    if (util::starts_with(msg, kBackpressurePrefix)) {
      // The ingest queue is full: explicit backpressure. Producers should
      // back off and retry instead of dropping the batch.
      auto resp = net::HttpResponse::json(429, tsdb::influx_error_json(msg));
      resp.headers.set("Retry-After", "1");
      return resp;
    }
    if (util::starts_with(msg, kUnknownDbPrefix)) {
      // Pass the back-end's 404 body through byte-identical.
      return net::HttpResponse::json(404, msg.substr(kUnknownDbPrefix.size()));
    }
    if (util::starts_with(msg, kForwardFailedPrefix)) {
      // A malformed batch is the producer's fault (400, do not retry); a
      // back-end outage is not (503, retry later).
      return net::HttpResponse::text(503, msg);
    }
    return net::HttpResponse::bad_request(msg);
  }
  return net::HttpResponse::no_content();
}

namespace {

util::Result<JobSignal> signal_from_json(std::string_view body) {
  auto parsed = json::parse(body);
  if (!parsed.ok()) return util::Result<JobSignal>::error(parsed.message());
  const json::Value& v = *parsed;
  JobSignal s;
  s.job_id = v["jobid"].as_string();
  s.user = v["user"].as_string();
  if (v["nodes"].is_array()) {
    for (const auto& n : v["nodes"].get_array()) {
      s.nodes.push_back(n.as_string());
    }
  }
  if (v["tags"].is_object()) {
    for (const auto& [k, tv] : v["tags"].get_object()) {
      s.extra_tags.emplace_back(k, tv.as_string());
    }
  }
  if (s.job_id.empty()) return util::Result<JobSignal>::error("missing 'jobid'");
  return s;
}

}  // namespace

net::HttpResponse MetricsRouter::handle_job_start(const net::HttpRequest& req) {
  auto signal = signal_from_json(req.body);
  if (!signal.ok()) return net::HttpResponse::bad_request(signal.message());
  if (auto status = job_start(*signal); !status.ok()) {
    return net::HttpResponse::bad_request(status.message());
  }
  return net::HttpResponse::no_content();
}

net::HttpResponse MetricsRouter::handle_job_end(const net::HttpRequest& req) {
  auto parsed = json::parse(req.body);
  if (!parsed.ok()) return net::HttpResponse::bad_request(parsed.message());
  const std::string job_id = (*parsed)["jobid"].as_string();
  if (auto status = job_end(job_id); !status.ok()) {
    return net::HttpResponse::bad_request(status.message());
  }
  return net::HttpResponse::no_content();
}

net::HttpResponse MetricsRouter::handle_jobs(const net::HttpRequest&) {
  json::Array jobs;
  for (const auto& job : running_jobs()) {
    json::Object j;
    j["jobid"] = job.job_id;
    j["user"] = job.user;
    json::Array nodes;
    for (const auto& n : job.nodes) nodes.emplace_back(n);
    j["nodes"] = std::move(nodes);
    j["start_time"] = static_cast<std::int64_t>(job.start_time);
    json::Object extra;
    for (const auto& [k, v] : job.extra_tags) extra[k] = v;
    j["tags"] = std::move(extra);
    jobs.emplace_back(std::move(j));
  }
  json::Object top;
  top["jobs"] = std::move(jobs);
  return net::HttpResponse::json(200, json::Value(std::move(top)).dump());
}

net::HttpResponse MetricsRouter::handle_stats(const net::HttpRequest&) {
  const Stats s = stats();
  json::Object o;
  o["points_in"] = static_cast<std::int64_t>(s.points_in);
  o["points_out"] = static_cast<std::int64_t>(s.points_out);
  o["points_duplicated"] = static_cast<std::int64_t>(s.points_duplicated);
  o["parse_errors"] = static_cast<std::int64_t>(s.parse_errors);
  o["forward_failures"] = static_cast<std::int64_t>(s.forward_failures);
  o["jobs_started"] = static_cast<std::int64_t>(s.jobs_started);
  o["jobs_ended"] = static_cast<std::int64_t>(s.jobs_ended);
  o["ingest_rejected"] = static_cast<std::int64_t>(s.ingest_rejected);
  o["ingest_queue_points"] = static_cast<std::int64_t>(ingest_queue_points());
  o["tagged_hosts"] = static_cast<std::int64_t>(tags_.host_count());
  return net::HttpResponse::json(200, json::Value(std::move(o)).dump());
}

}  // namespace lms::core
