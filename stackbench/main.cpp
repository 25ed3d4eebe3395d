// stackbench — the LMS stack benchmark program.
//
// Stands the stack up in this process (stack.hpp), drives one seeded
// workload (plan.hpp) against it over real TCP, checks the outputs after the
// stack is quiescent, and prints every metric by name and unit. The last
// stdout line is one JSON object: {"correct","attempted","failed","metrics"}.
//
//   stackbench --workload ingest|dashboard|fleet --seed N --seconds S --trace 0|1
//              [--setup-only] [--digest] [--inject drop|dup|cell] [--spans-out PATH]
//
// README.md defines every workload, metric and gate.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "lms/core/tagstore.hpp"
#include "lms/json/json.hpp"
#include "lms/lineproto/codec.hpp"
#include "lms/obs/runtime.hpp"
#include "lms/obs/selfscrape.hpp"
#include "lms/tsdb/query.hpp"
#include "lms/util/strings.hpp"
#include "plan.hpp"
#include "stack.hpp"

namespace stackbench {
namespace {

// ---- policy (README "Retry and failure deadline") ----
constexpr TimeNs kRetryPause = 15 * kNanosPerMilli;   // pause before re-sending a refused batch
constexpr TimeNs kDeadline = 5 * kNanosPerSecond;     // unacknowledged after this = failed
constexpr TimeNs kViewerThink = 50 * kNanosPerMilli;  // think time of secondary viewers
constexpr TimeNs kPrimaryThink = 20 * kNanosPerMilli; // dashboard workload's viewers
constexpr TimeNs kFreshProbeEvery = 20 * kNanosPerMilli;
constexpr TimeNs kFreshPollEvery = 5 * kNanosPerMilli;
constexpr TimeNs kSamplerEvery = 2 * kNanosPerMilli;
constexpr int kReferenceQueries = 12;

TimeNs now_ns() { return util::monotonic_now_ns(); }
void sleep_until_ns(TimeNs t) {
  const TimeNs d = t - now_ns();
  if (d > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(d));
}
double ms(TimeNs ns) { return static_cast<double>(ns) / 1e6; }
double us(TimeNs ns) { return static_cast<double>(ns) / 1e3; }

/// Nearest-rank percentile (p in [0, 100]); 0 for an empty set.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[rank == 0 ? 0 : rank - 1];
}
double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

/// Resident set size after returning freed heap pages to the kernel, so the
/// figure tracks live data rather than allocator caching.
std::size_t rss_bytes() {
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long pages = 0;
  long resident = 0;
  const int n = std::fscanf(f, "%ld %ld", &pages, &resident);
  std::fclose(f);
  return n == 2 ? static_cast<std::size_t>(resident) * static_cast<std::size_t>(sysconf(_SC_PAGESIZE))
                : 0;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

// ---------------------------------------------------------------------------
// Generator-side HTTP: one request per connection, as every stack client.

class Client {
 public:
  explicit Client(obs::Registry& registry, int io_timeout_ms = 5000) {
    net::TcpHttpClient::Options o;
    o.registry = &registry;  // the generator's own instruments, not the stack's
    o.io_timeout_ms = io_timeout_ms;
    http_ = std::make_unique<net::TcpHttpClient>(o);
  }
  util::Result<net::HttpResponse> post(const std::string& url, std::string body,
                                       const char* op, std::uint64_t id,
                                       const char* type = "text/plain") {
    net::HttpRequest req = net::HttpRequest::post("/", std::move(body), type);
    tag(req, op, id);
    return http_->send(url, std::move(req));
  }
  util::Result<net::HttpResponse> get(const std::string& url, const char* op, std::uint64_t id) {
    net::HttpRequest req = net::HttpRequest::get("/");
    tag(req, op, id);
    return http_->send(url, std::move(req));
  }

 private:
  static void tag(net::HttpRequest& req, const char* op, std::uint64_t id) {
    req.headers.set(kOpHeader, op);
    req.headers.set(kIdHeader, std::to_string(id));
  }
  std::unique_ptr<net::TcpHttpClient> http_;
};

std::atomic<std::uint64_t> g_next_id{1};

// ---------------------------------------------------------------------------
// Operation records.

struct BatchRecord {
  BatchSpec spec;
  TimeNs t_start = 0;  // due time (open loop) or first send (closed loop)
  TimeNs t_ack = 0;    // 0 = never acknowledged
  int refused = 0;     // non-2xx answers (not taken by the router)
  int unknown = 0;     // sends whose outcome the client never learned
  bool failed = false;
  int points() const { return spec.host_n * kMeasurementsPerTick + 1; }
};

struct FreshRecord {
  TimeNs sent = 0, acked = 0, visible = 0;
};

/// Everything one thread observed during a phase (merged afterwards).
struct Log {
  std::vector<BatchRecord> batches;  // every write batch, freshness probes included
  std::vector<FreshRecord> fresh;
  std::vector<double> query_ms;
  std::vector<double> open_ms;
  std::vector<TimeNs> open_done;  // completion times (dashboards_per_s)
  std::uint64_t panel_queries = 0;
  std::vector<double> late_ms;  // open-loop lateness (due -> actual start)
  std::vector<Span> client_spans;
  std::vector<std::string> dashboard_errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  TimeNs start = 0;  // the measured window
  TimeNs end = 0;

  void merge(Log&& o) {
    auto cat = [](auto& a, auto& b) { a.insert(a.end(), std::make_move_iterator(b.begin()),
                                               std::make_move_iterator(b.end())); };
    cat(batches, o.batches);
    cat(fresh, o.fresh);
    cat(query_ms, o.query_ms);
    cat(open_ms, o.open_ms);
    cat(open_done, o.open_done);
    cat(late_ms, o.late_ms);
    cat(client_spans, o.client_spans);
    cat(dashboard_errors, o.dashboard_errors);
    panel_queries += o.panel_queries;
    attempted += o.attempted;
    failed += o.failed;
    start = start == 0 ? o.start : std::min(start, o.start);
    end = std::max(end, o.end);
  }
};

// ---------------------------------------------------------------------------
// The run: stack + generator state shared by the phases.

struct Options {
  Workload workload = Workload::kIngest;
  std::string workload_name = "ingest";
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool setup_only = false;
  bool digest = false;
  Fault fault = Fault::kNone;
  std::string spans_out;
};

class Run {
 public:
  Run(const Options& opt) : opt_(opt), plan_(Plan::make(opt.workload, opt.seed)),
                            stack_(opt.trace, opt.fault) {}

  util::Status setup(double* setup_s, double* mem_per_sample);
  void run_phase(double seconds, bool traced, Log* log, double* cpu_cores);
  void quiesce() { stack_.quiesce(); }
  bool check(const Log& all, std::vector<std::string>* why);
  void per_layer(const Log& traced, const std::vector<const Log*>& untraced, double traced_s,
                 double cpu_cores,
                 std::map<std::string, std::pair<double, const char*>>* out);
  void write_spans(const std::string& path, const std::vector<Span>& spans) const;
  Stack& stack() { return stack_; }
  std::vector<double> queue_samples;
  std::vector<Span> sampled_spans;
  std::vector<Span> server_spans;

 private:
  // Actors.
  void writer_closed(int actor, TimeNs end, bool traced, Log& log);
  void fleet_open(int actor, TimeNs start, TimeNs end, bool traced, Log& log);
  void mixed(TimeNs start, TimeNs end, bool traced, Log& log);  // churn + trickle/viewer
  void viewer_closed(int viewer, TimeNs end, bool traced, Log& log);
  void fresh(TimeNs start, TimeNs end, bool traced, Log& log);
  void sampler(TimeNs end);

  BatchRecord write_batch(Client& c, const BatchSpec& spec, TimeNs t_start, bool traced, Log& log);
  void open_dashboard(Client& c, int viewer, bool traced, Log& log);
  bool job_signal(Client& c, const std::string& path, const std::string& json, bool traced,
                  Log& log);
  void churn_step(Client& c, bool traced, Log& log);
  bool register_job(Client& c, const std::string& id, const std::string& user,
                    const std::vector<int>& hosts, Log& log);
  util::Result<json::Value> query(Client& c, const std::string& db, const std::string& q,
                                  const char* op, bool traced, Log* log);

  const Options opt_;
  Plan plan_;
  Stack stack_;
  obs::Registry gen_registry_;

  // Generator state carried across phases.
  std::array<std::uint64_t, kActorCount> seq_{};
  std::uint64_t churn_next_ = 0;
  std::deque<std::pair<std::string, std::vector<int>>> churn_running_;
  std::set<int> churn_busy_;
  std::array<std::uint64_t, 3> view_n_{};  // per viewer
  TimeNs live_mono0_ = 0;
  Log setup_log_;
};

BatchRecord Run::write_batch(Client& c, const BatchSpec& spec, TimeNs t_start, bool traced,
                             Log& log) {
  BatchRecord r;
  r.spec = spec;
  r.t_start = t_start;
  const std::string body = plan_.body(spec);
  const std::string url = stack_.router_url + "/write?db=lms";
  ++log.attempted;
  for (;;) {
    const std::uint64_t id = g_next_id.fetch_add(1);
    const TimeNs t0 = now_ns();
    auto resp = c.post(url, body, "write", id);
    const TimeNs t1 = now_ns();
    if (traced) log.client_spans.push_back({id, t0, t1, static_cast<std::uint32_t>(r.points()),
                                            kClientWrite});
    if (resp.ok() && resp->ok()) {
      r.t_ack = t1;
      break;
    }
    if (resp.ok()) {
      ++r.refused;
    } else {
      ++r.unknown;
    }
    if (now_ns() + kRetryPause > t_start + kDeadline) {
      r.failed = true;
      ++log.failed;
      break;
    }
    std::this_thread::sleep_for(std::chrono::nanoseconds(kRetryPause));
  }
  return r;
}

util::Result<json::Value> Run::query(Client& c, const std::string& db, const std::string& q,
                                     const char* op, bool traced, Log* log) {
  const std::string url = stack_.db_url + "/query?db=" + util::url_encode(db) +
                          "&q=" + util::url_encode(q);
  const TimeNs start = now_ns();
  for (;;) {
    const std::uint64_t id = g_next_id.fetch_add(1);
    const TimeNs t0 = now_ns();
    auto resp = c.get(url, op, id);
    const TimeNs t1 = now_ns();
    if (traced && log != nullptr) log->client_spans.push_back({id, t0, t1, 0, kClientQuery});
    if (resp.ok() && resp->status == 200) return json::parse(resp->body);
    if (now_ns() + kRetryPause > start + kDeadline) {
      return util::Result<json::Value>::error(
          "query failed: " + (resp.ok() ? "HTTP " + std::to_string(resp->status) : resp.message()));
    }
    std::this_thread::sleep_for(std::chrono::nanoseconds(kRetryPause));
  }
}

/// Rows of the first series of the first statement ([] when none).
const json::Array& first_rows(const json::Value& v) {
  static const json::Array kEmpty;
  const json::Value& series = v["results"][std::size_t{0}]["series"];
  if (!series.is_array() || series.get_array().empty()) return kEmpty;
  const json::Value& values = series[std::size_t{0}]["values"];
  return values.is_array() ? values.get_array() : kEmpty;
}

bool has_rows(const json::Value& v) {
  const json::Value& series = v["results"][std::size_t{0}]["series"];
  if (!series.is_array()) return false;
  for (const auto& s : series.get_array()) {
    if (s["values"].is_array() && !s["values"].get_array().empty()) return true;
  }
  return false;
}

void collect_queries(const json::Value& v, std::vector<std::string>* out) {
  if (v.is_object()) {
    for (const auto& [k, child] : v.get_object()) {
      if (k == "targets" && child.is_array()) {
        for (const auto& t : child.get_array()) {
          if (t["query"].is_string()) out->push_back(t["query"].as_string());
        }
      } else {
        collect_queries(child, out);
      }
    }
  } else if (v.is_array()) {
    for (const auto& child : v.get_array()) collect_queries(child, out);
  }
}

void Run::open_dashboard(Client& c, int viewer, bool traced, Log& log) {
  const int choice = plan_.view_choice(viewer, view_n_[static_cast<std::size_t>(viewer)]++);
  ++log.attempted;
  const TimeNs t0 = now_ns();
  // The preload jobs' history starts at preload_t0; the viewers look at that
  // fixed range only, so their work does not grow with the write rate.
  auto as_running = [&](const JobSpec& spec) {
    core::RunningJob job;
    if (auto found = stack_.router->find_job(spec.id)) job = *found;
    job.start_time = plan_.preload_t0;
    return job;
  };
  json::Value dash;
  if (choice < 0) {
    std::vector<core::RunningJob> jobs;
    for (const auto& spec : plan_.preload_jobs) jobs.push_back(as_running(spec));
    dash = stack_.agent->generate_admin_dashboard(jobs, plan_.preload_end());
  } else {
    dash = stack_.agent->generate_job_dashboard(
        as_running(plan_.preload_jobs[static_cast<std::size_t>(choice)]), plan_.preload_end());
  }
  std::vector<std::string> queries;
  collect_queries(dash, &queries);
  bool ok = true;
  for (const auto& q : queries) {
    const TimeNs q0 = now_ns();
    auto res = query(c, "lms", q, "panel", traced, &log);
    if (!res.ok()) {
      ok = false;
      break;
    }
    log.query_ms.push_back(ms(now_ns() - q0));
    ++log.panel_queries;
    if (!has_rows(*res)) log.dashboard_errors.push_back("panel query returned no rows: " + q);
  }
  const TimeNs t1 = now_ns();
  if (!ok || t1 - t0 > kDeadline) {
    ++log.failed;
    return;
  }
  log.open_ms.push_back(ms(t1 - t0));
  log.open_done.push_back(t1);
}

bool Run::job_signal(Client& c, const std::string& path, const std::string& body, bool traced,
                     Log& log) {
  ++log.attempted;
  const TimeNs start = now_ns();
  for (;;) {
    const std::uint64_t id = g_next_id.fetch_add(1);
    const TimeNs t0 = now_ns();
    auto resp = c.post(stack_.router_url + path, body, "job", id, "application/json");
    const TimeNs t1 = now_ns();
    if (traced) log.client_spans.push_back({id, t0, t1, 0, kClientJob});
    if (resp.ok() && resp->ok()) return true;
    if (now_ns() + kRetryPause > start + kDeadline) {
      ++log.failed;
      return false;
    }
    std::this_thread::sleep_for(std::chrono::nanoseconds(kRetryPause));
  }
}

bool Run::register_job(Client& c, const std::string& id, const std::string& user,
                       const std::vector<int>& hosts, Log& log) {
  json::Array nodes;
  for (int h : hosts) nodes.emplace_back(host_name(h));
  json::Object o;
  o["jobid"] = id;
  o["user"] = user;
  o["nodes"] = std::move(nodes);
  return job_signal(c, "/job/start", json::Value(std::move(o)).dump(), false, log);
}

void Run::churn_step(Client& c, bool traced, Log& log) {
  if (churn_running_.size() >= static_cast<std::size_t>(Plan::kChurnJobs)) {
    const auto [id, hosts] = churn_running_.front();
    churn_running_.pop_front();
    for (int h : hosts) churn_busy_.erase(h);
    job_signal(c, "/job/end", "{\"jobid\":\"" + id + "\"}", traced, log);
  }
  const std::uint64_t k = churn_next_++;
  std::vector<int> hosts = plan_.churn_hosts(k, churn_busy_);
  const std::string id = "c" + std::to_string(k);
  json::Array nodes;
  for (int h : hosts) {
    nodes.emplace_back(host_name(h));
    churn_busy_.insert(h);
  }
  json::Object o;
  o["jobid"] = id;
  o["user"] = "u" + std::to_string(k % Plan::kUsers);
  o["nodes"] = std::move(nodes);
  job_signal(c, "/job/start", json::Value(std::move(o)).dump(), traced, log);
  churn_running_.emplace_back(id, std::move(hosts));
}

util::Status Run::setup(double* setup_s, double* mem_per_sample) {
  const TimeNs t0 = now_ns();
  if (auto st = stack_.start(); !st.ok()) return st;
  // History ends at the last whole minute before now (inside retention).
  const TimeNs wall = util::WallClock::instance().now();
  plan_.preload_t0 = (wall / Plan::kPreloadStep) * Plan::kPreloadStep -
                     Plan::kPreloadTicks * Plan::kPreloadStep;
  Client c(gen_registry_);
  Log& log = setup_log_;
  for (const auto& j : plan_.preload_jobs) {
    std::vector<int> hosts;
    for (int h = j.host_lo; h < j.host_lo + j.host_n; ++h) hosts.push_back(h);
    if (!register_job(c, j.id, j.user, hosts, log)) return util::Status::error("job start failed");
  }
  for (const auto& j : plan_.rack_jobs()) {
    std::vector<int> hosts;
    for (int h = j.host_lo; h < j.host_lo + j.host_n; ++h) hosts.push_back(h);
    if (!register_job(c, j.id, j.user, hosts, log)) return util::Status::error("job start failed");
  }
  for (int i = 0; i < Plan::kChurnJobs; ++i) churn_step(c, false, log);

  const std::size_t rss0 = rss_bytes();
  const std::size_t samples0 = stack_.storage.totals().samples;
  std::uint64_t acked = 0;
  for (std::uint64_t s = 0; s < plan_.preload_batches(); ++s) {
    BatchRecord r = write_batch(c, plan_.preload_batch(s), now_ns(), false, log);
    if (r.t_ack != 0) ++acked;
    log.batches.push_back(r);
  }
  seq_[kPreload] = plan_.preload_batches();
  // Queryable: every acknowledged preload probe answers a query.
  const std::string q = "SELECT count(seq) FROM bench_probe WHERE actor='preload'";
  for (;;) {
    auto res = query(c, "lms", q, "setup", false, nullptr);
    if (!res.ok()) return util::Status::error(res.message());
    const auto& rows = first_rows(*res);
    if (!rows.empty() && rows[0][1].as_int() >= static_cast<std::int64_t>(acked)) break;
    if (now_ns() - t0 > 60 * kNanosPerSecond) return util::Status::error("preload never landed");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  *setup_s = static_cast<double>(now_ns() - t0) / 1e9;
  const std::size_t samples1 = stack_.storage.totals().samples;
  *mem_per_sample = static_cast<double>(rss_bytes() - rss0) /
                    static_cast<double>(std::max<std::size_t>(1, samples1 - samples0));
  plan_.live_t0 = util::WallClock::instance().now();
  live_mono0_ = now_ns();
  return {};
}

void Run::writer_closed(int actor, TimeNs end, bool traced, Log& log) {
  Client c(gen_registry_);
  while (now_ns() < end) {
    const BatchSpec spec = plan_.rack_batch(actor, seq_[static_cast<std::size_t>(actor)]++);
    log.batches.push_back(write_batch(c, spec, now_ns(), traced, log));
  }
}

void Run::fleet_open(int actor, TimeNs start, TimeNs end, bool traced, Log& log) {
  Client c(gen_registry_);
  const TimeNs phase_offset = start - live_mono0_;
  for (const auto& [due, host] : plan_.fleet_schedule(actor, end - start)) {
    const TimeNs due_abs = start + due;
    sleep_until_ns(due_abs);
    log.late_ms.push_back(ms(std::max<TimeNs>(0, now_ns() - due_abs)));
    const BatchSpec spec{actor, seq_[static_cast<std::size_t>(actor)]++,
                         plan_.live_t0 + phase_offset + due, host, 1};
    log.batches.push_back(write_batch(c, spec, due_abs, traced, log));
  }
}

void Run::mixed(TimeNs start, TimeNs end, bool traced, Log& log) {
  Client c(gen_registry_);
  const bool trickle = opt_.workload == Workload::kDashboard;
  TimeNs churn_due = start;
  TimeNs other_due = start;
  for (;;) {
    const bool churn_next = churn_due <= other_due;
    const TimeNs due = churn_next ? churn_due : other_due;
    if (due >= end) break;
    sleep_until_ns(due);
    if (churn_next) {
      log.late_ms.push_back(ms(std::max<TimeNs>(0, now_ns() - due)));
      churn_step(c, traced, log);
      churn_due += Plan::kChurnPeriod;
    } else if (trickle) {
      log.late_ms.push_back(ms(std::max<TimeNs>(0, now_ns() - due)));
      const BatchSpec spec = plan_.rack_batch(kTrickle, seq_[kTrickle]++);
      log.batches.push_back(write_batch(c, spec, due, traced, log));
      other_due += Plan::kTricklePeriod;
    } else {
      open_dashboard(c, 2, traced, log);
      other_due = now_ns() + kViewerThink;
    }
  }
}

void Run::viewer_closed(int viewer, TimeNs end, bool traced, Log& log) {
  Client c(gen_registry_);
  // A short think time keeps the two viewers below the box's capacity, so
  // the trickle writer and the probe are not starved.
  while (now_ns() < end) {
    open_dashboard(c, viewer, traced, log);
    sleep_until_ns(now_ns() + kPrimaryThink);
  }
}

void Run::fresh(TimeNs start, TimeNs end, bool traced, Log& log) {
  Client c(gen_registry_);
  struct Pending {
    std::uint64_t seq;
    TimeNs ts;
    std::size_t record;
  };
  std::deque<Pending> pending;
  TimeNs next_probe = start;
  TimeNs next_poll = start;
  for (;;) {
    const TimeNs now = now_ns();
    const bool sending = next_probe < end;
    if (!sending && (pending.empty() || now > end + kDeadline)) break;
    if (sending && now >= next_probe) {
      log.late_ms.push_back(ms(now - next_probe));
      const std::uint64_t seq = seq_[kFresh]++;
      const BatchSpec spec{kFresh, seq, plan_.probe_time(kFresh, seq), 0, 0};
      BatchRecord r = write_batch(c, spec, now, traced, log);
      log.batches.push_back(r);
      if (r.t_ack != 0) {
        log.fresh.push_back({now, r.t_ack, 0});
        pending.push_back({spec.seq, spec.t, log.fresh.size() - 1});
      }
      next_probe += kFreshProbeEvery;
    }
    if (!pending.empty() && now_ns() >= next_poll) {
      auto res = query(c, "lms",
                       "SELECT last(seq) FROM bench_probe WHERE actor='fresh' AND time >= " +
                           std::to_string(pending.front().ts),
                       "fresh", false, nullptr);
      const TimeNs t = now_ns();
      if (res.ok()) {
        const auto& rows = first_rows(*res);
        const std::int64_t last = rows.empty() ? -1 : rows[0][1].as_int();
        while (!pending.empty() && static_cast<std::int64_t>(pending.front().seq) <= last) {
          log.fresh[pending.front().record].visible = t;
          pending.pop_front();
        }
      }
      next_poll = t + kFreshPollEvery;
    }
    TimeNs wake = next_poll;
    if (sending) wake = pending.empty() ? next_probe : std::min(next_probe, next_poll);
    sleep_until_ns(wake);
  }
  log.failed += pending.size();  // never became visible within the deadline
}

void Run::sampler(TimeNs end) {
  while (now_ns() < end) {
    const TimeNs t0 = now_ns();
    {
      const auto snap = stack_.storage.snapshot("lms");
      (void)snap;
    }
    const TimeNs t1 = now_ns();
    sampled_spans.push_back({0, t0, t1, 0, kSnapshotWait});
    queue_samples.push_back(static_cast<double>(stack_.router->ingest_queue_points()));
    sleep_until_ns(t0 + kSamplerEvery);
  }
}

void Run::run_phase(double seconds, bool traced, Log* out, double* cpu_cores) {
  const TimeNs start = now_ns() + 20 * kNanosPerMilli;
  const TimeNs end = start + static_cast<TimeNs>(seconds * 1e9);
  std::array<Log, 4> logs;
  std::vector<std::thread> threads;
  const double cpu0 = cpu_seconds();
  stack_.spans.on.store(traced);
  std::thread sampler_thread;
  if (traced) sampler_thread = std::thread([this, end] { sampler(end); });
  switch (opt_.workload) {
    case Workload::kIngest:
      threads.emplace_back([&] { sleep_until_ns(start); writer_closed(kWriterA, end, traced, logs[0]); });
      threads.emplace_back([&] { sleep_until_ns(start); writer_closed(kWriterB, end, traced, logs[1]); });
      break;
    case Workload::kDashboard:
      threads.emplace_back([&] { sleep_until_ns(start); viewer_closed(0, end, traced, logs[0]); });
      threads.emplace_back([&] { sleep_until_ns(start); viewer_closed(1, end, traced, logs[1]); });
      break;
    case Workload::kFleet:
      threads.emplace_back([&] { fleet_open(kFleetA, start, end, traced, logs[0]); });
      threads.emplace_back([&] { fleet_open(kFleetB, start, end, traced, logs[1]); });
      break;
  }
  threads.emplace_back([&] { mixed(start, end, traced, logs[2]); });
  threads.emplace_back([&] { fresh(start, end, traced, logs[3]); });
  for (auto& t : threads) t.join();
  if (sampler_thread.joinable()) sampler_thread.join();
  const double wall = static_cast<double>(now_ns() - start) / 1e9;
  *cpu_cores = (cpu_seconds() - cpu0) / wall;
  stack_.spans.on.store(false);
  for (auto& l : logs) out->merge(std::move(l));
  out->start = start;
  out->end = end;
}

// ---------------------------------------------------------------------------
// Correctness gates (README "Correctness gates"), run on the quiescent stack.

struct ReferenceQuery {
  int host = 0;
  int field = 0;  // global field index 0..10
  const char* agg = "mean";
  TimeNs lo = 0, hi = 0, window = 0;
  std::string text() const;
};

const char* field_name(int field, int* meas) {
  int i = 0;
  for (int m = 0; m < kMeasurementsPerTick; ++m) {
    for (const char* f : measurements()[static_cast<std::size_t>(m)].fields) {
      if (i++ == field) {
        *meas = m;
        return f;
      }
    }
  }
  return nullptr;
}

std::string ReferenceQuery::text() const {
  int m = 0;
  const char* f = field_name(field, &m);
  return std::string("SELECT ") + agg + "(" + f + ") FROM " +
         measurements()[static_cast<std::size_t>(m)].name + " WHERE hostname='" + host_name(host) +
         "' AND time >= " + std::to_string(lo) + " AND time < " + std::to_string(hi) +
         " GROUP BY time(" + tsdb::format_duration_literal(window) + ")";
}

std::vector<ReferenceQuery> reference_queries(const Plan& plan) {
  Rng rng(plan.seed ^ 0x726566ULL);
  std::vector<ReferenceQuery> out;
  static const char* const kAggs[3] = {"mean", "count", "max"};
  for (int i = 0; i < kReferenceQueries; ++i) {
    ReferenceQuery q;
    q.field = static_cast<int>(rng.below(kFieldsPerTick));
    q.agg = kAggs[rng.below(3)];
    if (i % 2 == 0) {  // preloaded history
      q.host = static_cast<int>(rng.below(static_cast<std::uint64_t>(plan.preload_hosts)));
      const auto a = static_cast<TimeNs>(rng.below(Plan::kPreloadTicks / 2));
      const auto b = static_cast<TimeNs>(10 + rng.below(Plan::kPreloadTicks / 2));
      q.lo = plan.preload_t0 + a * Plan::kPreloadStep;
      q.hi = q.lo + b * Plan::kPreloadStep;
      static const TimeNs kWindows[3] = {5 * util::kNanosPerMinute, 10 * util::kNanosPerMinute,
                                         30 * util::kNanosPerMinute};
      q.window = kWindows[rng.below(3)];
    } else {  // live range of the workload's primary writer
      switch (plan.workload) {
        case Workload::kIngest:
          q.host = plan.rack_lo[rng.below(2)] + static_cast<int>(rng.below(Plan::kRackHosts));
          break;
        case Workload::kDashboard:
          q.host = plan.rack_lo[2] + static_cast<int>(rng.below(Plan::kTrickleHosts));
          break;
        case Workload::kFleet:
          q.host = plan.fleet_lo + static_cast<int>(rng.below(Plan::kFleetHosts));
          break;
      }
      q.lo = plan.live_t0;
      q.hi = plan.live_t0 + 600 * kNanosPerSecond;
      q.window = kNanosPerSecond;
    }
    out.push_back(q);
  }
  return out;
}

bool Run::check(const Log& all, std::vector<std::string>* why) {
  Client c(gen_registry_, 120000);
  auto fail = [&](std::string s) { why->push_back(std::move(s)); };

  // Probe copies per (actor, seq), read back through the query API.
  std::map<std::pair<int, std::uint64_t>, int> copies;
  for (int a = 0; a < kActorCount; ++a) {
    const TimeNs base = plan_.probe_time(a, 0);
    auto res = query(c, "lms",
                     std::string("SELECT count(seq) FROM bench_probe WHERE actor='") +
                         actor_name(a) + "' AND time >= " + std::to_string(base) +
                         " AND time < " + std::to_string(base + Plan::kProbeSpan) +
                         " GROUP BY time(1ns)",
                     "check", false, nullptr);
    if (!res.ok()) {
      fail("probe query: " + res.message());
      return false;
    }
    for (const auto& row : first_rows(*res)) {
      copies[{a, static_cast<std::uint64_t>(row[0].as_int() - base)}] +=
          static_cast<int>(row[1].as_int());
    }
  }
  std::vector<const BatchRecord*> records;
  for (const auto& b : setup_log_.batches) records.push_back(&b);
  for (const auto& b : all.batches) records.push_back(&b);
  std::map<std::pair<int, std::uint64_t>, const BatchRecord*> by_key;
  std::uint64_t landed_points = 0;
  std::uint64_t landed_host_ticks = 0;
  int lost = 0, extra = 0;
  for (const BatchRecord* r : records) {
    by_key[{r->spec.actor, r->spec.seq}] = r;
    const auto it = copies.find({r->spec.actor, r->spec.seq});
    const int n = it == copies.end() ? 0 : it->second;
    if (r->t_ack != 0 && n == 0) ++lost;
    if (n > (r->t_ack != 0 ? 1 : 0) + r->unknown) ++extra;
    landed_points += static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(r->points());
    landed_host_ticks += static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(r->spec.host_n);
  }
  int never_sent = 0;
  for (const auto& [key, n] : copies) {
    if (by_key.count(key) == 0) never_sent += n;
  }
  if (lost > 0) fail("conservation: " + std::to_string(lost) + " acknowledged batches not stored");
  if (extra > 0) fail("conservation: " + std::to_string(extra) + " batches stored more often than sent");
  if (never_sent > 0) fail("conservation: " + std::to_string(never_sent) + " probes never sent");

  // Per-database, per-measurement, per-field sample counts.
  std::map<std::string, std::map<std::string, std::map<std::string, std::int64_t>>> counts;
  std::int64_t series_total = 0;
  auto names = [&](const std::string& db, const std::string& q) {
    std::vector<std::string> out;
    if (auto res = query(c, db, q, "check", false, nullptr); res.ok()) {
      for (const auto& row : first_rows(*res)) out.push_back(row[0].as_string());
    } else {
      fail(q + ": " + res.message());
    }
    return out;
  };
  for (const auto& db : names("lms", "SHOW DATABASES")) {
    series_total += static_cast<std::int64_t>(names(db, "SHOW SERIES").size());
    for (const auto& m : names(db, "SHOW MEASUREMENTS")) {
      const auto fields = names(db, "SHOW FIELD KEYS FROM " + m);
      std::string q = "SELECT ";
      for (std::size_t i = 0; i < fields.size(); ++i) {
        q += (i ? ", count(" : "count(") + fields[i] + ")";
      }
      q += " FROM " + m;
      auto res = query(c, db, q, "check", false, nullptr);
      if (!res.ok()) {
        fail(q + ": " + res.message());
        continue;
      }
      const auto& rows = first_rows(*res);
      for (std::size_t i = 0; i < fields.size(); ++i) {
        counts[db][m][fields[i]] = rows.empty() ? 0 : rows[0][i + 1].as_int();
      }
    }
  }

  // Conservation per measurement: stored samples == fields of every copy of
  // every batch whose probe is stored (preload included).
  for (const auto& meas : measurements()) {
    std::int64_t stored = 0;
    for (const auto& [f, n] : counts["lms"][meas.name]) stored += n;
    const auto expected = static_cast<std::int64_t>(landed_host_ticks * meas.fields.size());
    if (stored != expected) {
      fail(std::string("conservation: ") + meas.name + " stores " + std::to_string(stored) +
           " samples, expected " + std::to_string(expected));
    }
  }

  // Ledger: generator and stack counters must agree.
  const auto st = stack_.router->stats();
  const std::uint64_t accepted = st.points_in - st.ingest_rejected;
  const std::uint64_t own = stack_.own_points_acked.load();
  const std::uint64_t own_unknown = stack_.own_points_unknown.load();
  if (accepted < landed_points + own || accepted > landed_points + own + own_unknown) {
    fail("ledger: router accepted " + std::to_string(accepted) + " points, generator landed " +
         std::to_string(landed_points) + " + stack-owned " + std::to_string(own));
  }
  if (accepted != st.points_out + stack_.router->spool_size() + st.spool_dropped) {
    fail("ledger: router accepted " + std::to_string(accepted) + " but forwarded " +
         std::to_string(st.points_out));
  }
  const std::uint64_t db_expected =
      st.points_out + st.points_duplicated + st.jobs_started + st.jobs_ended;
  if (stack_.db_api->points_written() != db_expected) {
    fail("ledger: TSDB wrote " + std::to_string(stack_.db_api->points_written()) +
         " points, router sent " + std::to_string(db_expected));
  }
  std::int64_t user_points = 0;
  std::int64_t all_samples = 0;
  for (const auto& [db, ms_] : counts) {
    for (const auto& [m, fields] : ms_) {
      for (const auto& [f, n] : fields) all_samples += n;
      if (util::starts_with(db, "user_") && !fields.empty()) {
        std::int64_t points = 0;
        for (const auto& [f, n] : fields) points = std::max(points, n);
        user_points += points;
      }
    }
  }
  if (static_cast<std::uint64_t>(user_points) != st.points_duplicated) {
    fail("ledger: user databases hold " + std::to_string(user_points) +
         " points, router duplicated " + std::to_string(st.points_duplicated));
  }
  const auto totals = stack_.storage.totals();
  if (static_cast<std::int64_t>(totals.samples) != all_samples ||
      static_cast<std::int64_t>(totals.series) != series_total) {
    fail("ledger: Storage::totals() " + std::to_string(totals.samples) + " samples / " +
         std::to_string(totals.series) + " series, queries count " + std::to_string(all_samples) +
         " / " + std::to_string(series_total));
  }

  // Reference queries: windowed aggregates equal the generator's own values.
  for (const auto& rq : reference_queries(plan_)) {
    std::map<TimeNs, std::vector<double>> windows;
    for (const BatchRecord* r : records) {
      if (rq.host < r->spec.host_lo || rq.host >= r->spec.host_lo + r->spec.host_n) continue;
      if (r->spec.t < rq.lo || r->spec.t >= rq.hi) continue;
      const auto it = copies.find({r->spec.actor, r->spec.seq});
      const int n = it == copies.end() ? 0 : it->second;
      for (int k = 0; k < n; ++k) {
        windows[(r->spec.t / rq.window) * rq.window].push_back(plan_.value(rq.host, r->spec.t, rq.field));
      }
    }
    const std::string text = rq.text();
    auto res = query(c, "lms", text, "reference", false, nullptr);
    if (!res.ok()) {
      fail("reference query: " + res.message());
      continue;
    }
    const auto& rows = first_rows(*res);
    bool same = rows.size() == windows.size();
    std::size_t i = 0;
    for (const auto& [w, vals] : windows) {
      if (!same) break;
      double want = 0;
      if (std::strcmp(rq.agg, "count") == 0) {
        want = static_cast<double>(vals.size());
      } else if (std::strcmp(rq.agg, "max") == 0) {
        want = *std::max_element(vals.begin(), vals.end());
      } else {
        double sum = 0;
        for (double v : vals) sum += v;
        want = sum / static_cast<double>(vals.size());
      }
      const auto& row = rows[i++];
      same = row[0].as_int() == w && row[1].as_double() == want;
    }
    if (!same) fail("reference query mismatch: " + text);
  }

  // Dashboards: every panel query returned rows.
  for (const auto& e : all.dashboard_errors) fail("dashboard: " + e);
  return why->empty();
}

// ---------------------------------------------------------------------------
// Per-layer metrics from the traced phase (README "Per-layer metrics").

std::vector<double> durations_us(const std::vector<Span>& spans, int kind) {
  std::vector<double> out;
  for (const auto& s : spans) {
    if (s.kind == kind) out.push_back(us(s.end - s.start));
  }
  return out;
}

/// Median of (outer duration - inner duration) over spans paired by id.
double paired_overhead_us(const std::vector<Span>& spans, int outer, int inner) {
  std::unordered_map<std::uint64_t, TimeNs> inner_dur;
  for (const auto& s : spans) {
    if (s.kind == inner && s.id != 0) inner_dur[s.id] = s.end - s.start;
  }
  std::vector<double> diffs;
  for (const auto& s : spans) {
    if (s.kind != outer) continue;
    const auto it = inner_dur.find(s.id);
    if (it != inner_dur.end()) diffs.push_back(us(s.end - s.start - it->second));
  }
  return median(diffs);
}

template <typename F>
double time_ns(F&& f) {
  const TimeNs t0 = now_ns();
  f();
  return static_cast<double>(now_ns() - t0);
}

struct E2E {
  double pts_per_s = 0, write_p50 = 0, write_p90 = 0, fresh_p50 = 0, fresh_p90 = 0,
         a2v_p50 = 0, query_p50 = 0, query_p90 = 0, open_p50 = 0, open_p90 = 0,
         opens_per_s = 0;
  std::size_t n_write = 0, n_fresh = 0, n_query = 0, n_open = 0;
  std::size_t refused = 0;  // refused sends of the writers' batches
};

/// Rates divide by the measured span from the window's start to the last
/// completion inside it.
E2E end_to_end(const Log& log) {
  E2E e;
  std::vector<double> write_ms;
  std::uint64_t points = 0;
  TimeNs last_ack = log.start;
  for (const auto& b : log.batches) {
    if (b.spec.actor == kFresh || b.spec.actor == kPreload || b.t_ack == 0) continue;
    write_ms.push_back(ms(b.t_ack - b.t_start));
    e.refused += static_cast<std::size_t>(b.refused);
    if (b.t_ack <= log.end) {
      points += static_cast<std::uint64_t>(b.spec.host_n) * kMeasurementsPerTick;
      last_ack = std::max(last_ack, b.t_ack);
    }
  }
  e.n_write = write_ms.size();
  e.pts_per_s = last_ack > log.start ? static_cast<double>(points) / (static_cast<double>(last_ack - log.start) / 1e9) : 0.0;
  e.write_p50 = percentile(write_ms, 50);
  e.write_p90 = percentile(write_ms, 90);
  std::vector<double> fresh_ms, a2v_ms;
  for (const auto& f : log.fresh) {
    if (f.visible == 0) continue;
    fresh_ms.push_back(ms(f.visible - f.sent));
    a2v_ms.push_back(ms(f.visible - f.acked));
  }
  e.n_fresh = fresh_ms.size();
  e.fresh_p50 = percentile(fresh_ms, 50);
  e.fresh_p90 = percentile(fresh_ms, 90);
  e.a2v_p50 = percentile(a2v_ms, 50);
  e.n_query = log.query_ms.size();
  e.query_p50 = percentile(log.query_ms, 50);
  e.query_p90 = percentile(log.query_ms, 90);
  e.n_open = log.open_ms.size();
  e.open_p50 = percentile(log.open_ms, 50);
  e.open_p90 = percentile(log.open_ms, 90);
  std::size_t done = 0;
  TimeNs last_open = log.start;
  for (const TimeNs t : log.open_done) {
    if (t > log.end) continue;
    ++done;
    last_open = std::max(last_open, t);
  }
  e.opens_per_s = last_open > log.start ? static_cast<double>(done) / (static_cast<double>(last_open - log.start) / 1e9) : 0.0;
  return e;
}

void Run::per_layer(const Log& traced, const std::vector<const Log*>& untraced, double traced_s,
                    double cpu_cores,
                    std::map<std::string, std::pair<double, const char*>>* out) {
  auto put = [&](const std::string& name, double v, const char* unit) { (*out)[name] = {v, unit}; };
  std::vector<Span> spans = server_spans;
  spans.insert(spans.end(), traced.client_spans.begin(), traced.client_spans.end());
  spans.insert(spans.end(), sampled_spans.begin(), sampled_spans.end());

  // net: round trip minus the handler it reached.
  put("net.write_overhead_us", paired_overhead_us(spans, kClientWrite, kRouterWrite), "us");
  put("net.forward_overhead_us", paired_overhead_us(spans, kForward, kDbWrite), "us");
  put("net.query_overhead_us", paired_overhead_us(spans, kClientQuery, kDbQuery), "us");

  // core.router, from the handler wrapper and the forward decorator.
  const auto router_writes = durations_us(spans, kRouterWrite);
  put("core.router.write_us_p50", percentile(router_writes, 50), "us");
  put("core.router.write_us_p90", percentile(router_writes, 90), "us");
  std::size_t refused = 0;
  for (const auto& s : spans) {
    if (s.kind == kRouterWrite && s.count == 429) ++refused;
  }
  put("core.router.refused_share",
      router_writes.empty() ? 0.0 : static_cast<double>(refused) / static_cast<double>(router_writes.size()),
      "ratio");
  put("core.router.queue_peak_points",
      queue_samples.empty() ? 0.0 : *std::max_element(queue_samples.begin(), queue_samples.end()),
      "points");
  double forward_busy = 0, forward_points = 0, forwards = 0;
  for (const auto& s : spans) {
    if (s.kind != kForward) continue;
    forward_busy += static_cast<double>(s.end - s.start);
    forward_points += s.count;
    forwards += 1;
  }
  put("core.router.forward_busy_share", forward_busy / (traced_s * 1e9), "ratio");
  put("core.router.points_per_forward", forwards > 0 ? forward_points / forwards : 0.0, "points");
  const E2E e = end_to_end(traced);
  put("core.router.ack_to_visible_ms_p50", e.a2v_p50, "ms");
  put("core.router.job_signal_us_p50", percentile(durations_us(spans, kRouterJob), 50), "us");

  // tsdb, from the handler wrapper and the snapshot sampler.
  put("tsdb.http_api.write_us_p50", percentile(durations_us(spans, kDbWrite), 50), "us");
  const auto db_queries = durations_us(spans, kDbQuery);
  put("tsdb.http_api.query_us_p50", percentile(db_queries, 50), "us");
  put("tsdb.http_api.query_us_p90", percentile(db_queries, 90), "us");
  put("tsdb.storage.snapshot_wait_us_p90", percentile(durations_us(spans, kSnapshotWait), 90), "us");
  const auto totals = stack_.storage.totals();
  put("tsdb.storage.samples", static_cast<double>(totals.samples), "count");
  put("tsdb.storage.series", static_cast<double>(totals.series), "count");

  // Single-threaded replays of the recorded inputs through public functions.
  const auto bodies = stack_.spans.bodies();
  std::vector<std::vector<lineproto::Point>> parsed;
  double parse_ns = 0, points = 0;
  for (const auto& b : bodies) {
    std::vector<std::string> errors;
    std::vector<lineproto::Point> pts;
    parse_ns += time_ns([&] { pts = lineproto::parse_lenient(b, &errors); });
    points += static_cast<double>(pts.size());
    parsed.push_back(std::move(pts));
  }
  const double pts_div = std::max(1.0, points);
  put("lineproto.parse_ns_per_point", parse_ns / pts_div, "ns");
  double ser_ns = 0;
  for (const auto& pts : parsed) {
    ser_ns += time_ns([&] { (void)lineproto::serialize_batch(pts); });
  }
  put("lineproto.serialize_ns_per_point", ser_ns / pts_div, "ns");
  core::TagStore tags;
  for (const auto& pts : parsed) {
    for (const auto& p : pts) {
      const std::string host(p.hostname());
      if (!host.empty() && tags.tags_for(host).empty()) {
        auto t = stack_.router->tag_store().tags_for(host);
        if (!t.empty()) tags.set_tags(host, std::move(t));
      }
    }
  }
  double enrich_ns = 0;
  for (auto& pts : parsed) {
    enrich_ns += time_ns([&] {
      for (auto& p : pts) tags.enrich(p);
    });
  }
  put("core.tagstore.enrich_ns_per_point", enrich_ns / pts_div, "ns");
  {
    tsdb::Storage fresh_storage;
    double apply_ns = 0;
    for (auto& pts : parsed) {
      tsdb::WriteBatch batch;
      batch.db = "lms";
      batch.points = std::move(pts);
      apply_ns += time_ns([&] { fresh_storage.write(batch); });
    }
    put("tsdb.storage.apply_ns_per_point", apply_ns / pts_div, "ns");
  }

  const auto queries = stack_.spans.queries();
  std::vector<double> parse_us, exec_us, encode_us;
  double exec_total_ns = 0, examined = 0, rows = 0;
  const TimeNs wall = util::WallClock::instance().now();
  {
    const auto snap = stack_.storage.snapshot("lms");
    for (const auto& q : queries) {
      util::Result<tsdb::Statement> stmt = util::Result<tsdb::Statement>::error("");
      parse_us.push_back(time_ns([&] { stmt = tsdb::parse_query(q, wall); }) / 1e3);
      if (!stmt.ok()) continue;
      tsdb::QueryStats stats;
      util::Result<tsdb::QueryResult> res = util::Result<tsdb::QueryResult>::error("");
      const double ns = time_ns([&] { res = tsdb::execute(snap, *stmt, &stats); });
      exec_us.push_back(ns / 1e3);
      exec_total_ns += ns;
      examined += static_cast<double>(stats.points_examined);
      if (!res.ok()) continue;
      for (const auto& s : res->series) rows += static_cast<double>(s.values.size());
      encode_us.push_back(time_ns([&] { (void)tsdb::to_influx_json(*res); }) / 1e3);
    }
  }
  put("tsdb.query.parse_us", median(parse_us), "us");
  put("tsdb.query.execute_us_p50", percentile(exec_us, 50), "us");
  put("tsdb.query.ns_per_point_examined", examined > 0 ? exec_total_ns / examined : 0.0, "ns");
  put("tsdb.query.points_examined_per_row", rows > 0 ? examined / rows : 0.0, "points");
  put("json.encode_us_p50", percentile(encode_us, 50), "us");

  std::vector<double> eval_ms, self_ms;
  for (const auto& spec : plan_.preload_jobs) {
    core::RunningJob job;
    if (auto found = stack_.router->find_job(spec.id)) job = *found;
    job.start_time = plan_.preload_t0;
    // Best of three of each, so the small self time is not lost in noise.
    double ev = 1e18, gen = 1e18;
    for (int i = 0; i < 3; ++i) {
      ev = std::min(ev, time_ns([&] {
        (void)stack_.reporter->evaluate(job.job_id, job.nodes, job.start_time, plan_.preload_end());
      }));
      gen = std::min(gen, time_ns([&] {
        (void)stack_.agent->generate_job_dashboard(job, plan_.preload_end());
      }));
    }
    eval_ms.push_back(ev / 1e6);
    self_ms.push_back((gen - ev) / 1e6);
  }
  put("analysis.evaluate_ms_p50", percentile(eval_ms, 50), "ms");
  put("dashboard.generate_self_ms_p50", percentile(self_ms, 50), "ms");
  put("dashboard.panel_queries_per_open",
      e.n_open > 0 ? static_cast<double>(traced.panel_queries) / static_cast<double>(e.n_open) : 0.0,
      "count");

  std::vector<double> scrape_ms;
  // 21 replays: a median with ten samples beyond it. The router is detached
  // by now, so drain its queue after each one; otherwise later replays would
  // be refused with 429 and read faster than a real scrape.
  for (int i = 0; i < 21; ++i) {
    scrape_ms.push_back(time_ns([&] { (void)stack_.self_scrape->scrape_once(); }) / 1e6);
    stack_.router->flush_ingest();
  }
  put("obs.selfscrape_ms", median(scrape_ms), "ms");

  put("bench.generator_late_ms_p90", percentile(traced.late_ms, 90), "ms");
  put("bench.process_cpu_cores", cpu_cores, "cores");
  // Traced-minus-untraced difference of the workload's primary metric, as a
  // share of the mean of the untraced windows before and after the traced
  // one (positive = tracing made it worse).
  auto primary = [&](const E2E& x) {
    switch (opt_.workload) {
      case Workload::kIngest: return -x.pts_per_s;
      case Workload::kDashboard: return -x.opens_per_s;
      case Workload::kFleet: return x.write_p50;
    }
    return 0.0;
  };
  double u = 0;
  for (const Log* l : untraced) u += primary(end_to_end(*l)) / static_cast<double>(untraced.size());
  put("bench.tracing_overhead_pct", u != 0 ? 100.0 * (primary(e) - u) / std::abs(u) : 0.0, "%");
}

void Run::write_spans(const std::string& path, const std::vector<Span>& spans) const {
  std::ofstream f(path);
  f << "kind\tid\tstart_ns\tend_ns\tcount\n";
  for (const auto& s : spans) {
    f << span_kind_name(s.kind) << '\t' << s.id << '\t' << s.start << '\t' << s.end << '\t'
      << s.count << '\n';
  }
}

// ---------------------------------------------------------------------------

std::string digest(const Plan& base) {
  Plan plan = base;
  plan.preload_t0 = 0;
  plan.live_t0 = plan.preload_end();
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto feed = [&](std::string_view s) {
    for (unsigned char ch : s) h = (h ^ ch) * 0x100000001b3ULL;
  };
  for (const auto& j : plan.preload_jobs) {
    feed(j.id + "/" + j.user + "/" + std::to_string(j.host_lo) + "+" + std::to_string(j.host_n));
  }
  for (std::uint64_t s = 0; s < plan.preload_batches(); ++s) feed(plan.body(plan.preload_batch(s)));
  for (int a : {kWriterA, kWriterB, kTrickle}) {
    for (std::uint64_t s = 0; s < 2000; ++s) feed(plan.body(plan.rack_batch(a, s)));
  }
  for (int a : {kFleetA, kFleetB}) {
    for (const auto& [due, host] : plan.fleet_schedule(a, 60 * kNanosPerSecond)) {
      feed(plan.body({a, 0, plan.live_t0 + due, host, 1}));
    }
  }
  std::set<int> busy;
  std::deque<std::vector<int>> running;
  for (std::uint64_t k = 0; k < 400; ++k) {
    if (running.size() >= static_cast<std::size_t>(Plan::kChurnJobs)) {
      for (int x : running.front()) busy.erase(x);
      running.pop_front();
    }
    auto hosts = plan.churn_hosts(k, busy);
    for (int x : hosts) {
      busy.insert(x);
      feed(std::to_string(x) + ",");
    }
    running.push_back(hosts);
  }
  for (int v = 0; v < 3; ++v) {
    for (std::uint64_t n = 0; n < 1000; ++n) feed(std::to_string(plan.view_choice(v, n)) + ",");
  }
  for (const auto& q : reference_queries(plan)) feed(q.text());
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

void print_metric(std::string& out, const std::string& name, double v, const char* unit) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  if (out.size() > 1) out += ", ";
  out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit + "\"}";
}

int usage() {
  std::fprintf(stderr,
               "usage: stackbench --workload ingest|dashboard|fleet --seed N --seconds S "
               "--trace 0|1 [--setup-only] [--digest] [--inject drop|dup|cell] "
               "[--spans-out PATH]\n");
  return 2;
}

int main_impl(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string { return i + 1 < argc ? argv[++i] : ""; };
    if (a == "--workload") {
      opt.workload_name = next();
    } else if (a == "--seed") {
      opt.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::atof(next().c_str());
    } else if (a == "--trace") {
      opt.trace = next() == "1";
    } else if (a == "--setup-only") {
      opt.setup_only = true;
    } else if (a == "--digest") {
      opt.digest = true;
    } else if (a == "--inject") {
      const std::string f = next();
      opt.fault = f == "drop" ? Fault::kDropPoint : f == "dup" ? Fault::kDupPoint
                : f == "cell" ? Fault::kWrongCell : Fault::kNone;
      if (opt.fault == Fault::kNone) return usage();
    } else if (a == "--spans-out") {
      opt.spans_out = next();
    } else {
      return usage();
    }
  }
  if (opt.workload_name == "ingest") {
    opt.workload = Workload::kIngest;
  } else if (opt.workload_name == "dashboard") {
    opt.workload = Workload::kDashboard;
  } else if (opt.workload_name == "fleet") {
    opt.workload = Workload::kFleet;
  } else {
    return usage();
  }
  if (opt.seconds <= 0) return usage();

  if (opt.digest) {
    std::printf("digest %s seed %" PRIu64 " %s\n", opt.workload_name.c_str(), opt.seed,
                digest(Plan::make(opt.workload, opt.seed)).c_str());
    return 0;
  }

  // Environment stamp.
  const obs::BuildInfo bi = obs::build_info();
  const bool optimized = bi.build_type == "Release" || bi.build_type == "RelWithDebInfo";
  std::printf("env {\"hardware_threads\": %u, \"build_type\": \"%s\", \"sanitizer\": \"%s\", "
              "\"rank_checks\": %s, \"lock_stats\": %s, \"comparable\": %s}\n",
              std::thread::hardware_concurrency(), bi.build_type.c_str(), bi.sanitizer.c_str(),
              bi.rank_checks ? "true" : "false", bi.lock_stats ? "true" : "false",
              optimized && bi.sanitizer == "none" ? "true" : "false");

  Run run(opt);
  double setup_s = 0, mem = 0;
  if (auto st = run.setup(&setup_s, &mem); !st.ok()) {
    std::fprintf(stderr, "stackbench: set-up failed: %s\n", st.message().c_str());
    return 1;
  }
  std::string metrics = "{";
  if (opt.setup_only) {
    print_metric(metrics, "setup_s", setup_s, "s");
    print_metric(metrics, "mem_bytes_per_sample", mem, "B");
    std::printf("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": %s}}\n",
                metrics.c_str());
    std::fflush(stdout);
    run.stack().stop();
    _exit(0);
  }

  // Traced runs bracket the traced window with two untraced half windows.
  Log untraced, traced, after, all;
  double cpu_u = 0, cpu_t = 0;
  run.run_phase(opt.trace ? opt.seconds / 2 : opt.seconds, false, &untraced, &cpu_u);
  if (opt.trace) {
    run.run_phase(opt.seconds, true, &traced, &cpu_t);
    run.server_spans = run.stack().spans.take();
    run.run_phase(opt.seconds / 2, false, &after, &cpu_u);
  }
  run.quiesce();
  all.merge(Log(untraced));
  all.merge(Log(traced));
  all.merge(Log(after));
  std::vector<std::string> why;
  const bool correct = run.check(all, &why);
  for (const auto& w : why) std::fprintf(stderr, "stackbench: gate failed: %s\n", w.c_str());

  if (opt.trace) {
    std::map<std::string, std::pair<double, const char*>> layer;
    run.per_layer(traced, {&untraced, &after}, opt.seconds, cpu_t, &layer);
    for (const auto& [name, v] : layer) print_metric(metrics, name, v.first, v.second);
    if (!opt.spans_out.empty()) {
      std::vector<Span> spans = run.server_spans;
      spans.insert(spans.end(), traced.client_spans.begin(), traced.client_spans.end());
      spans.insert(spans.end(), run.sampled_spans.begin(), run.sampled_spans.end());
      run.write_spans(opt.spans_out, spans);
    }
    std::printf("samples router.write=%zu queue=%zu capacity=%zu\n",
                durations_us(run.server_spans, kRouterWrite).size(), run.queue_samples.size(),
                Stack::kIngestQueuePoints);
  } else {
    const E2E e = end_to_end(untraced);
    std::printf("samples write=%zu (refused sends %zu) fresh=%zu query=%zu dashboard=%zu\n",
                e.n_write, e.refused, e.n_fresh, e.n_query, e.n_open);
    print_metric(metrics, "setup_s", setup_s, "s");
    print_metric(metrics, "ingest_pts_per_s", e.pts_per_s, "1/s");
    print_metric(metrics, "write_p50_ms", e.write_p50, "ms");
    print_metric(metrics, "write_p90_ms", e.write_p90, "ms");
    print_metric(metrics, "fresh_p50_ms", e.fresh_p50, "ms");
    print_metric(metrics, "fresh_p90_ms", e.fresh_p90, "ms");
    print_metric(metrics, "query_p50_ms", e.query_p50, "ms");
    print_metric(metrics, "query_p90_ms", e.query_p90, "ms");
    print_metric(metrics, "dashboard_p50_ms", e.open_p50, "ms");
    print_metric(metrics, "dashboard_p90_ms", e.open_p90, "ms");
    print_metric(metrics, "dashboards_per_s", e.opens_per_s, "1/s");
    print_metric(metrics, "mem_bytes_per_sample", mem, "B");
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": %s}}\n",
              correct ? "true" : "false", all.attempted, all.failed, metrics.c_str());
  std::fflush(stdout);
  run.stack().stop();
  _exit(0);  // skip freeing the stored samples; every thread is stopped
}

}  // namespace
}  // namespace stackbench

int main(int argc, char** argv) { return stackbench::main_impl(argc, argv); }
