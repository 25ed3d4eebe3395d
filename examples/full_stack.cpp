// The Fig. 1 architecture end to end on an 8-node cluster: a mixed batch of
// jobs (well-behaved and pathological) flows through scheduler -> router ->
// database; the dashboard agent maintains views; the stream analyzer flags
// pathological jobs online; afterwards every job gets its evaluation header
// and performance-pattern classification — the administrator's view of the
// system.

#include <cstdio>

#include "lms/cluster/harness.hpp"
#include "lms/tsdb/trace_assembly.hpp"

using namespace lms;

namespace {
constexpr util::TimeNs kMin = util::kNanosPerMinute;
}

int main() {
  cluster::ClusterHarness::Options opts;
  opts.nodes = 8;
  opts.duplicate_per_user = true;   // per-user databases (paper §III-B)
  opts.enable_aggregator = true;    // job-level aggregates via the PUB/SUB tap
  opts.enable_rollups = true;       // 5-minute downsampling rollups
  opts.record_findings = true;      // online findings stored as alert events
  opts.enable_self_scrape = true;   // the stack monitors itself (lms_internal)
  opts.enable_alerts = true;        // rule engine + per-host deadman watch
  opts.enable_tracing = true;       // spans exported into the shared TSDB
  cluster::ClusterHarness harness(opts);

  // Alert on the stack's own ingest: if the router forwards nothing for a
  // while the pipeline is broken, whatever the nodes are doing.
  alert::AlertRule ingest_rule;
  ingest_rule.name = "router_ingest_stalled";
  ingest_rule.kind = alert::ConditionKind::kRateOfChange;
  ingest_rule.measurement = "lms_internal";
  ingest_rule.field = "value";
  ingest_rule.tag_filters = {{"metric", "router_points_in"}};
  ingest_rule.cmp = alert::Comparison::kBelowEq;
  ingest_rule.threshold = 0;
  ingest_rule.window = 5 * kMin;
  ingest_rule.for_duration = 5 * kMin;
  harness.alerts()->add(ingest_rule);

  std::printf("== LMS full stack: 8 nodes, mixed job batch ==\n\n");

  struct Submission {
    const char* workload;
    const char* user;
    int nodes;
    int minutes;
  };
  const Submission batch[] = {
      {"minimd", "alice", 4, 25},       // healthy MD run
      {"stream", "bob", 2, 20},         // bandwidth bound
      {"idle", "carol", 2, 30},         // pathological: idle allocation
      {"compute_break", "dave", 4, 40}, // pathological: 12-min stall
      {"scalar", "erin", 2, 15},        // optimization potential
      {"dgemm", "frank", 2, 15},        // compute bound
  };
  std::vector<int> jobs;
  for (const auto& s : batch) {
    const int id = harness.submit(s.workload, s.user, s.nodes, s.minutes * kMin);
    jobs.push_back(id);
    std::printf("submitted job %d: %-14s %d nodes, %2d min (%s)\n", id, s.workload, s.nodes,
                s.minutes, s.user);
  }

  // Run 90 simulated minutes; refresh dashboards every 10 minutes. With
  // record_findings on, online alerts land in the DB as they fire. Half way
  // through, h5's collector agent "crashes" for 10 minutes — the deadman
  // watch fires and resolves when it comes back.
  for (int epoch = 1; epoch <= 9; ++epoch) {
    if (epoch == 5) harness.set_node_active("h5", false);
    if (epoch == 6) harness.set_node_active("h5", true);
    harness.run_for(10 * kMin);
    harness.dashboards().refresh(harness.router().running_jobs(), harness.now());
  }
  harness.dashboards().generate_internals_dashboard(harness.now());
  harness.dashboards().generate_alerts_dashboard(harness.now());

  // The alert history, straight from the database ("alerts" measurement).
  std::printf("\n-- alert history (online detection, recorded as events) --\n");
  tsdb::Database* lms_db = harness.storage().find_database("lms");
  for (const auto* s : lms_db->series_of("alerts")) {
    const auto it = s->columns.find("text");
    if (it == s->columns.end()) continue;
    for (std::size_t i = 0; i < it->second.size(); ++i) {
      std::printf("  %s\n", it->second.value_at(i).as_string().c_str());
    }
  }

  // Alert-engine transitions, same storage ("lms_alerts" measurement): the
  // h5 deadman episode plus anything the rules caught.
  std::printf("\n-- alert engine (lms_alerts: rule engine + deadman watch) --\n");
  for (const auto* s : lms_db->series_of("lms_alerts")) {
    const auto it = s->columns.find("text");
    if (it == s->columns.end()) continue;
    for (std::size_t i = 0; i < it->second.size(); ++i) {
      std::printf("  [%s] %-8s %s\n",
                  util::format_duration(it->second.times()[i] - opts.start_time).c_str(),
                  std::string(s->tag("state")).c_str(),
                  it->second.value_at(i).as_string().c_str());
    }
  }
  std::printf("evaluator: %llu evaluations, %llu transitions, %zu firing now\n",
              static_cast<unsigned long long>(harness.alerts()->evaluations()),
              static_cast<unsigned long long>(harness.alerts()->transitions()),
              harness.alerts()->firing_count());

  // Every component answers the standard probes.
  std::printf("\n-- health probes (/health, /ready on every component) --\n");
  for (const char* target : {"router", "tsdb", "grafana", "agent-h1"}) {
    auto health = harness.client().get(std::string("inproc://") + target + "/health");
    auto ready = harness.client().get(std::string("inproc://") + target + "/ready");
    std::printf("  %-9s health=%d ready=%d  %s\n", target,
                health.ok() ? health->status : -1, ready.ok() ? ready->status : -1,
                health.ok() ? health->body.c_str() : "unreachable");
  }

  std::printf("\n-- scheduler outcome --\n");
  for (const auto* job : harness.scheduler().finished()) {
    std::printf("job %d (%-14s): %s after %s on", job->id, job->spec.name.c_str(),
                std::string(sched::job_state_name(job->state)).c_str(),
                util::format_duration(job->end_time - job->start_time).c_str());
    for (const auto& n : job->assigned_nodes) std::printf(" %s", n.c_str());
    std::printf("\n");
  }

  std::printf("\n-- per-job evaluation (the admin view) --\n");
  for (const int id : jobs) {
    const auto* record = harness.job_record(id);
    if (record == nullptr || record->end_time == 0) continue;
    const auto eval = harness.reporter().evaluate(std::to_string(id), record->nodes,
                                                  record->start_time, record->end_time);
    std::printf("\njob %d (%s, %s): pattern=%s potential=%.1f, %zu finding(s)\n", id,
                record->workload.c_str(), record->user.c_str(),
                std::string(analysis::pattern_name(eval.classification.pattern)).c_str(),
                eval.classification.optimization_potential, eval.findings.size());
    for (const auto& f : eval.findings) {
      std::printf("   %s\n", f.to_string().c_str());
    }
  }

  std::printf("\n-- stack statistics --\n");
  const auto rstats = harness.router().stats();
  std::printf("router: %llu points in, %llu forwarded, %llu duplicated per-user, "
              "%llu jobs started, %llu parse errors\n",
              static_cast<unsigned long long>(rstats.points_in),
              static_cast<unsigned long long>(rstats.points_out),
              static_cast<unsigned long long>(rstats.points_duplicated),
              static_cast<unsigned long long>(rstats.jobs_started),
              static_cast<unsigned long long>(rstats.parse_errors));
  std::printf("databases:");
  for (const auto& name : harness.storage().databases()) {
    tsdb::Database* db = harness.storage().find_database(name);
    std::printf(" %s(%zu series, %zu samples)", name.c_str(), db->series_count(),
                db->sample_count());
  }
  std::printf("\ndashboards:");
  for (const auto& uid : harness.dashboards().dashboard_uids()) {
    std::printf(" %s", uid.c_str());
  }
  std::printf("\n");

  // The stack monitoring itself: the self-scrape wrote the shared registry
  // back through the router, so the pipeline's own health is a measurement
  // like any other — queryable, chartable, retained.
  std::printf("\n-- self-monitoring (lms_internal, via obs self-scrape) --\n");
  std::printf("self-scrape: %llu scrapes, %llu failures\n",
              static_cast<unsigned long long>(harness.self_scrape()->scrapes()),
              static_cast<unsigned long long>(harness.self_scrape()->failures()));
  const char* internal_metrics[] = {"router_points_in", "router_write_ns", "tsdb_samples",
                                    "http_server_requests"};
  for (const char* metric : internal_metrics) {
    const std::string q = std::string("SELECT last(") +
                          (std::string(metric).find("_ns") != std::string::npos ? "p99" : "value") +
                          ") FROM lms_internal WHERE metric='" + metric + "'";
    auto result = tsdb::Engine(harness.storage()).query("lms", q, harness.now());
    if (!result.ok() || result->series.empty() || result->series[0].values.empty()) continue;
    std::printf("  %-22s %.0f\n", metric,
                result->series[0].values[0][1].as_double());
  }

  // Distributed tracing: pick one collector delivery, export every span the
  // stack recorded for it and print the assembled waterfall — one write,
  // collector -> router -> TSDB, as a single story.
  std::printf("\n-- distributed tracing (lms_traces -> /trace/<id>) --\n");
  harness.run_for(opts.collect_interval);  // one more delivery cycle
  const std::size_t exported = harness.drain_traces();
  std::printf("exported %zu spans into the shared TSDB\n", exported);
  const tsdb::ReadSnapshot snap = harness.storage().snapshot("lms");
  std::uint64_t trace_id = 0;
  util::TimeNs best_start = 0;
  for (const tsdb::Series* s :
       snap->series_matching(std::string(obs::kTraceMeasurement), {{"component", "collector"}})) {
    const auto it = s->columns.find("span");
    if (it == s->columns.end() || it->second.times().empty()) continue;
    if (it->second.times().back() >= best_start) {
      best_start = it->second.times().back();
      trace_id = obs::parse_trace_id_hex(s->tag("trace_id")).value_or(0);
    }
  }
  if (trace_id != 0) {
    const tsdb::TraceTree tree = tsdb::assemble_trace(snap, trace_id);
    std::printf("%s", tsdb::trace_tree_to_waterfall(tree).c_str());
  } else {
    std::printf("no collector trace found\n");
  }
  return 0;
}
