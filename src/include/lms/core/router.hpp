#pragma once

// The metrics router (paper §III-B) — the heart of the LIKWID Monitoring
// Stack. It mimics the HTTP interface of an InfluxDB database so any
// existing collector can point at it unchanged, and adds:
//   - a job signal endpoint: (de)allocation signals from the scheduler carry
//     tags that are attached to all measurements from the job's hosts,
//   - enrichment: every incoming point is tagged from the tag store (keyed
//     by the mandatory hostname tag),
//   - forwarding to the database back-end plus optional duplication into
//     per-user databases,
//   - job signals forwarded into the DB as annotation events,
//   - publication of metrics and meta information over PUB/SUB for attached
//     stream analyzers (the ZeroMQ role).
//
// Endpoints:
//   POST /write?db=<name>       line protocol; enrich + forward
//   POST /job/start             JSON: {"jobid","user","nodes":[...],"tags":{}}
//   POST /job/end               JSON: {"jobid"}
//   GET  /jobs                  JSON list of running jobs
//   GET  /ping                  204
//   GET  /stats                 router counters (JSON)
//   GET  /metrics               full registry, Prometheus-style text
//   GET  /health                liveness (spool depth, jobs) as JSON
//   GET  /ready                 readiness: health + DB back-end reachability
//
// Ingest runs as one pass parse -> enrich -> serialize -> append. The body
// is parsed once into a tsdb::WriteBatch (the TSDB façade scans bodies with
// the same tokenizer and shares the db/precision handling, so the 400/404
// error responses are byte-identical on both services) and enriched from
// the tag store under one lock per batch. Then
// every point is serialized exactly once: its line goes to the primary
// database's buffer, again to its user's database buffer (per-user
// duplication) and, as the whole accepted batch, to the broker. After that
// the router moves bytes only. Inline mode (default) POSTs the buffers at
// once; Options::async_ingest appends them to bounded per-destination byte
// queues that a background flusher concatenates and POSTs. The queues
// count points, not bytes; when full the write is rejected with an
// explicit backpressure error that the HTTP layer turns into 429 +
// Retry-After, and the rejection is surfaced through the router_ingest_*
// instruments. The spool of the store-and-forward mode holds the same
// bytes. Every count stays in points; once the queues are drained,
// accepted = points_out + spool_size() + spool_dropped.
//
// All counters live in an lms::obs metrics registry ("router_*" instruments)
// so the self-scrape loop can feed them back into the stack's own TSDB; the
// legacy Stats struct and the /stats JSON shape are kept as a view over the
// registry.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "lms/core/runnable.hpp"
#include "lms/core/runtime.hpp"
#include "lms/core/sync.hpp"
#include "lms/core/tagstore.hpp"
#include "lms/net/health.hpp"
#include "lms/net/pubsub.hpp"
#include "lms/net/transport.hpp"
#include "lms/obs/metrics.hpp"
#include "lms/tsdb/ingest.hpp"
#include "lms/util/clock.hpp"
#include "lms/util/logging.hpp"

namespace lms::core {

/// A job (de)allocation signal, as delivered by the scheduler integration.
struct JobSignal {
  std::string job_id;
  std::string user;
  std::vector<std::string> nodes;
  std::vector<lineproto::Tag> extra_tags;  // e.g. queue, account, jobname
};

/// A running job as tracked by the router.
struct RunningJob {
  std::string job_id;
  std::string user;
  std::vector<std::string> nodes;
  std::vector<lineproto::Tag> extra_tags;
  util::TimeNs start_time = 0;
};

class MetricsRouter : public Runnable {
 public:
  struct Options {
    std::string db_url;              ///< back-end base URL, e.g. "inproc://tsdb"
    std::string database = "lms";    ///< primary database name
    bool duplicate_per_user = false; ///< also write into "user_<user>" databases
    std::string user_db_prefix = "user_";
    std::string events_measurement = "events";
    bool publish = true;  ///< publish to the broker when one is attached
    /// Store-and-forward: when > 0, points that cannot be forwarded (DB
    /// down) are spooled — bounded, oldest dropped first — and the write is
    /// acknowledged to the producer; the spool drains on later writes, on
    /// every async flush, or on an explicit flush_spool(). 0 disables
    /// spooling: forward failures are reported back to the producer, which
    /// keeps its own retry queue.
    std::size_t spool_capacity = 0;
    /// Batched async ingest: accepted writes are routed into bounded
    /// per-destination queues and forwarded by a periodic "router.flusher"
    /// task on a TaskScheduler, decoupling producer latency from back-end
    /// latency. Writes that would overflow the queues are rejected with a
    /// "backpressure" error (HTTP 429 + Retry-After on the wire) instead of
    /// blocking producers.
    bool async_ingest = false;
    /// Scheduler the flusher task runs on (async_ingest only). nullptr =
    /// the router owns a private single-worker TaskScheduler, so standalone
    /// construction keeps its old semantics; pass the stack-wide scheduler
    /// to fold the flusher into the shared runtime. Must outlive the
    /// router. The router attaches itself in the constructor; callers using
    /// a manual-mode scheduler drive the flusher with advance_to()/
    /// flush_ingest() instead of wall time.
    TaskScheduler* scheduler = nullptr;
    /// Total points buffered across all destination queues before new
    /// writes are rejected with backpressure.
    std::size_t ingest_queue_capacity = 8192;
    /// Points per destination per flush cycle; reaching this many queued
    /// points also wakes the flusher early.
    std::size_t ingest_max_batch = 2048;
    /// Flusher wake-up interval (real time, not SimClock).
    util::TimeNs ingest_flush_interval = 50 * util::kNanosPerMilli;
    /// Metrics registry for the router_* instruments. nullptr = the router
    /// owns a private registry, so per-instance counts stay exact; pass a
    /// shared registry to fold the router into a stack-wide self-scrape.
    obs::Registry* registry = nullptr;
    /// Recent-log ring served at /debug/logs (nullptr = endpoint disabled).
    /// The ring must outlive this router.
    util::LogRing* log_ring = nullptr;
  };

  MetricsRouter(net::HttpClient& db_client, const util::Clock& clock, Options options,
                net::PubSubBroker* broker = nullptr);
  ~MetricsRouter();

  /// HTTP entry point (bind to inproc or TCP).
  net::HttpHandler handler();

  // ---- programmatic API (each HTTP endpoint delegates here) ----

  /// Ingest a line-protocol batch. Returns the number of accepted points.
  util::Result<std::size_t> write_lines(std::string_view body,
                                        const std::string& db_override = {});

  /// Ingest an already-parsed batch (the core of the write path; both
  /// write_lines and the /write endpoint land here). Timestamps are
  /// normalized (precision scale applied, missing stamps filled with
  /// batch.default_time or now), points are enriched from the tag store,
  /// then forwarded inline or enqueued for the async flusher. An empty
  /// batch.db targets the primary database.
  util::Result<std::size_t> write_points(tsdb::WriteBatch batch);

  /// Register a job start: tag store update + DB annotation + publication.
  util::Status job_start(const JobSignal& signal);

  /// Register a job end.
  util::Status job_end(const std::string& job_id);

  std::vector<RunningJob> running_jobs() const;
  std::optional<RunningJob> find_job(const std::string& job_id) const;

  const TagStore& tag_store() const { return tags_; }

  /// Counter snapshot, read from the metrics registry (kept for the /stats
  /// JSON shape and programmatic callers).
  struct Stats {
    std::uint64_t points_in = 0;
    std::uint64_t points_out = 0;
    std::uint64_t points_duplicated = 0;
    std::uint64_t parse_errors = 0;
    std::uint64_t forward_failures = 0;
    std::uint64_t jobs_started = 0;
    std::uint64_t jobs_ended = 0;
    std::uint64_t points_spooled = 0;
    std::uint64_t spool_dropped = 0;
    std::uint64_t ingest_rejected = 0;
    std::uint64_t ingest_flushed = 0;
  };
  Stats stats() const;

  /// The registry holding the router_* instruments (also what /metrics and
  /// /stats serve).
  obs::Registry& registry() { return *registry_; }

  /// Attempt to forward everything spooled; returns points drained. Safe to
  /// call concurrently: each spooled point is sent by one call only.
  std::size_t flush_spool();
  /// Points in the spool, not counting those a flush_spool() is sending.
  std::size_t spool_size() const;

  /// Retry the spool (when spooling is on), then drain the async ingest
  /// queues (all destinations, until empty); returns the queued points
  /// forwarded or dropped, 0 when async ingest is off. The flusher calls
  /// this on its interval; tests and shutdown call it for determinism.
  std::size_t flush_ingest();

  /// Points currently buffered across all async ingest queues.
  std::size_t ingest_queue_points() const;

  /// Component health report. `readiness` adds the DB back-end probe
  /// (GET <db_url>/ping), so /ready degrades when the TSDB is unreachable.
  net::ComponentHealth health(bool readiness);

  /// PUB/SUB topics used.
  static constexpr std::string_view kTopicMetrics = "metrics";
  static constexpr std::string_view kTopicJobs = "jobs";

 protected:
  // Runnable contract: attaching declares the periodic flusher task (async
  // ingest only); detaching cancels it and drains the queues one last time.
  void on_attach(TaskScheduler& sched) override;
  void on_detach() override;

 private:
  /// Result of one POST to the back-end: ok iff 2xx; http_status is 0 on a
  /// transport error; body carries the back-end's error payload so unknown-
  /// database rejections pass through to the producer byte-identical.
  struct ForwardOutcome {
    util::Status status;
    int http_status = 0;
    std::string body;
  };
  /// Serialized points for one destination: routed at accept time, waiting
  /// in (or taken from) the async ingest queues, or forwarded inline.
  struct IngestBatch {
    std::string db;
    bool duplicate = false;  ///< per-user copy (counts as duplicated, never spooled)
    /// Trace context of the producer whose write opened this batch (first
    /// writer wins when batches coalesce). The flusher adopts it, so the
    /// background forward span joins the trace that enqueued the points
    /// instead of starting an anonymous root.
    obs::TraceContext trace;
    std::string lines;       ///< one '\n'-terminated line-protocol line per point
    std::size_t points = 0;  ///< lines in `lines`
  };

  ForwardOutcome forward(const std::string& db, const std::string& lines);
  /// Serialize each point of `batch` once. Element 0 is the primary
  /// destination (batch.db) holding every line, and so also the broker
  /// payload; one element per user follows when duplicate_per_user is set,
  /// holding copies of that user's lines.
  std::vector<IngestBatch> route(const tsdb::WriteBatch& batch) const;
  util::Result<std::size_t> forward_sync(std::vector<IngestBatch> routed);
  util::Result<std::size_t> enqueue_ingest(const std::vector<IngestBatch>& routed);
  /// Up to `max_points` lines from each destination queue, cut at a line
  /// boundary.
  std::vector<IngestBatch> take_ingest_locked(std::size_t max_points)
      LMS_REQUIRES(ingest_mu_);
  void forward_ingest(IngestBatch batch);
  void spool_lines(const std::string& lines, std::size_t points);
  /// Drop the oldest spooled lines beyond spool_capacity (counted in
  /// router_spool_dropped).
  void trim_spool_locked() LMS_REQUIRES(spool_mu_);
  net::HttpResponse handle_write(const net::HttpRequest& req);
  net::HttpResponse handle_job_start(const net::HttpRequest& req);
  net::HttpResponse handle_job_end(const net::HttpRequest& req);
  net::HttpResponse handle_jobs(const net::HttpRequest& req);
  net::HttpResponse handle_stats(const net::HttpRequest& req);

  net::HttpClient& db_client_;
  const util::Clock& clock_;
  Options options_;
  net::PubSubBroker* broker_;
  TagStore tags_;
  // The three router locks never nest with each other or with the tag store:
  // every critical section copies state in/out and forwards/publishes with
  // all of them released.
  mutable core::sync::Mutex jobs_mu_{core::sync::Rank::kRouterJobs, "core.router.jobs"};
  std::map<std::string, RunningJob> jobs_ LMS_GUARDED_BY(jobs_mu_);
  mutable core::sync::Mutex spool_mu_{core::sync::Rank::kRouterSpool, "core.router.spool"};
  /// Primary-db lines awaiting retry, oldest first, and their count.
  std::string spool_ LMS_GUARDED_BY(spool_mu_);
  std::size_t spool_points_ LMS_GUARDED_BY(spool_mu_) = 0;

  // Async ingest pipeline (Options::async_ingest).
  mutable core::sync::Mutex ingest_mu_{core::sync::Rank::kRouterIngest, "core.router.ingest"};
  /// Keyed by destination db.
  std::map<std::string, IngestBatch> ingest_q_ LMS_GUARDED_BY(ingest_mu_);
  /// Total points across ingest_q_.
  std::size_t ingest_points_ LMS_GUARDED_BY(ingest_mu_) = 0;
  /// Depth/watermark/rejection stats for the ingest queues (aggregated over
  /// all destinations, in points); registered with core::runtime only while
  /// async ingest is enabled. Counters are atomics, bumped under ingest_mu_.
  core::runtime::QueueStats ingest_queue_stats_;
  /// Private runtime when async_ingest is on but Options::scheduler is
  /// null (standalone routers, most router_test cases).
  std::unique_ptr<TaskScheduler> own_sched_;
  /// The periodic flusher. trigger() replaces the old CV notify when a
  /// batch-size worth of points is queued.
  PeriodicTaskHandle flusher_task_;

  std::unique_ptr<obs::Registry> own_registry_;  // when Options::registry == nullptr
  obs::Registry* registry_;
  // Cached instrument handles: the hot path touches only these atomics.
  obs::Counter& points_in_;
  obs::Counter& points_out_;
  obs::Counter& points_duplicated_;
  obs::Counter& parse_errors_;
  obs::Counter& forward_failures_;
  obs::Counter& jobs_started_;
  obs::Counter& jobs_ended_;
  obs::Counter& points_spooled_;
  obs::Counter& spool_dropped_;
  obs::Counter& ingest_rejected_;
  obs::Counter& ingest_flushed_;
  obs::Histogram& write_ns_;
  obs::Histogram& forward_ns_;
  obs::Histogram& ingest_flush_ns_;
};

}  // namespace lms::core
