// Prices the alert evaluator: one threshold rule fanned out over 1k host
// series (one state machine per host), and a deadman sweep watching 1k
// hosts. Prints ns/series resp. ns/host and writes the numbers as a
// machine-readable baseline to BENCH_alert.json so regressions show up in
// review diffs.

#include <cstdio>
#include <string>
#include <thread>

#include "bench_util.hpp"
#include "lms/alert/evaluator.hpp"
#include "lms/json/json.hpp"
#include "lms/tsdb/storage.hpp"
#include "lms/util/clock.hpp"

namespace {

using namespace lms;

constexpr util::TimeNs kSec = util::kNanosPerSecond;
constexpr util::TimeNs kT0 = 1'500'000'000LL * kSec;
const int kHosts = bench::scaled(1000, 50);
constexpr int kSamplesPerHost = 6;  // one 10s-cadence minute of data

void fill_storage(tsdb::Storage& storage) {
  std::vector<lineproto::Point> points;
  points.reserve(kHosts);
  for (int s = 0; s < kSamplesPerHost; ++s) {
    points.clear();
    for (int h = 0; h < kHosts; ++h) {
      lineproto::Point p;
      p.measurement = "cpu";
      p.set_tag("hostname", "h" + std::to_string(h));
      p.add_field("user_percent", 40.0 + (h % 50));
      p.timestamp = kT0 + s * 10 * kSec;
      p.normalize();
      points.push_back(std::move(p));
    }
    storage.write("lms", points, kT0);
  }
}

/// Wall time of `rounds` evaluator runs, in ns per run.
template <typename Fn>
double time_runs(int rounds, Fn&& run) {
  const util::TimeNs start = util::monotonic_now_ns();
  for (int i = 0; i < rounds; ++i) run(i);
  return static_cast<double>(util::monotonic_now_ns() - start) / rounds;
}

}  // namespace

int main() {
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("=== bench_alert: rule evaluation + deadman sweep over %d hosts, "
              "%u hardware threads ===\n\n",
              kHosts, hw);

  // --- threshold rule, grouped by hostname: 1k state machines per run ---
  tsdb::Storage storage;
  fill_storage(storage);
  alert::Evaluator eval(storage, alert::Evaluator::Options{});
  alert::AlertRule rule;
  rule.name = "cpu_hot";
  rule.measurement = "cpu";
  rule.field = "user_percent";
  rule.cmp = alert::Comparison::kAbove;
  rule.threshold = 200;  // never fires: prices evaluation, not notification
  rule.window = 2 * util::kNanosPerMinute;
  rule.group_by_tags = {"hostname"};
  eval.add(rule);

  const int kRounds = bench::scaled(50, 3);
  const double rule_ns_per_run =
      time_runs(kRounds, [&](int i) { eval.run(kT0 + 60 * kSec + i * kSec); });
  const double rule_ns_per_series = rule_ns_per_run / kHosts;
  std::printf("threshold rule:  %10.0f ns/run   %8.1f ns/series  (%d series)\n",
              rule_ns_per_run, rule_ns_per_series, kHosts);

  // --- deadman sweep: newest-sample scan per watched host ---
  tsdb::Storage dm_storage;
  fill_storage(dm_storage);
  alert::Evaluator::Options dm_opts;
  dm_opts.deadman_window = 10 * util::kNanosPerMinute;  // nobody fires
  alert::Evaluator deadman(dm_storage, dm_opts);
  for (int h = 0; h < kHosts; ++h) deadman.register_host("h" + std::to_string(h));

  const double deadman_ns_per_run =
      time_runs(kRounds, [&](int i) { deadman.run(kT0 + 60 * kSec + i * kSec); });
  const double deadman_ns_per_host = deadman_ns_per_run / kHosts;
  std::printf("deadman sweep:   %10.0f ns/run   %8.1f ns/host    (%d hosts)\n",
              deadman_ns_per_run, deadman_ns_per_host, kHosts);

  json::Object o;
  o["bench"] = "bench_alert";
  o["hardware_threads"] = static_cast<std::int64_t>(hw);
  o["hosts"] = kHosts;
  o["rounds"] = kRounds;
  o["threshold_rule_ns_per_run"] = rule_ns_per_run;
  o["threshold_rule_ns_per_series"] = rule_ns_per_series;
  o["deadman_ns_per_run"] = deadman_ns_per_run;
  o["deadman_ns_per_host"] = deadman_ns_per_host;
  return bench::write_baseline("BENCH_alert.json", json::Value(std::move(o)).dump_pretty())
             ? 0
             : 1;
}
