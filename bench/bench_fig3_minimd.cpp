// Fig. 3 regeneration: "Runtime of 100 iterations and the pressure of the
// molecules in Mantevo's miniMD proxy application. Right: Energy and
// temperature. The events at the beginning and end of the application run
// are sent with the libusermetric command line tool."
//
// Runs the miniMD proxy under full monitoring and prints the four
// application-level series versus job runtime (downsampled), plus the
// start/end events — the data behind both panels of the figure.

#include <cstdio>

#include "lms/cluster/harness.hpp"
#include "lms/tsdb/storage.hpp"
#include "lms/util/ascii_chart.hpp"

namespace {

using namespace lms;

constexpr util::TimeNs kMin = util::kNanosPerMinute;

void print_series(const cluster::ClusterHarness& harness, const std::string& field,
                  const std::string& job, util::TimeNs t0, util::TimeNs t1) {
  const auto series = harness.fetcher().fetch({"usermetric", field}, {{"jobid", job}}, t0, t1,
                                              /*window=*/30 * util::kNanosPerSecond);
  if (!series.ok() || series->empty()) {
    std::printf("\n# %s: no data\n", field.c_str());
    return;
  }
  util::AsciiChartOptions chart;
  chart.title = "\n" + field + " vs runtime (30 s means, " + std::to_string(series->size()) +
                " windows)";
  chart.height = 10;
  std::printf("%s", util::ascii_chart(series->values, chart).c_str());
}

}  // namespace

int main() {
  cluster::ClusterHarness::Options opts;
  opts.nodes = 4;
  cluster::ClusterHarness harness(opts);

  const int job_id = harness.submit("minimd", "alice", 4, 10 * kMin);
  if (!harness.run_until_done(job_id, 30 * kMin)) {
    std::printf("job did not finish\n");
    return 1;
  }
  const auto* record = harness.job_record(job_id);
  const std::string job = std::to_string(job_id);

  std::printf("=== Fig. 3: miniMD application-level monitoring ===\n");
  std::printf("job %s on", job.c_str());
  for (const auto& n : record->nodes) std::printf(" %s", n.c_str());
  std::printf(", %s long\n", util::format_duration(record->end_time - record->start_time).c_str());

  // Left panel: runtime per 100 iterations + pressure.
  print_series(harness, "runtime_100iters", job, record->start_time, record->end_time + kMin);
  print_series(harness, "pressure", job, record->start_time, record->end_time + kMin);
  // Right panel: energy + temperature.
  print_series(harness, "energy", job, record->start_time, record->end_time + kMin);
  print_series(harness, "temperature", job, record->start_time, record->end_time + kMin);

  // The begin/end events (dark dashed lines in the figure).
  std::printf("\n# events\n");
  tsdb::Database* db = harness.storage().find_database("lms");
  int events = 0;
  for (const auto* s : db->series_matching("userevents", {{"jobid", job}})) {
    const auto it = s->columns.find("text");
    if (it == s->columns.end()) continue;
    for (std::size_t i = 0; i < it->second.size(); ++i) {
      std::printf("%7.0f  event: %s\n",
                  util::ns_to_seconds(it->second.times()[i] - record->start_time),
                  it->second.value_at(i).as_string().c_str());
      ++events;
    }
  }

  // Reproduction check: all four series present with an equilibration
  // transient (temperature drops from its initial value), plus both events.
  const auto temp = harness.fetcher().fetch({"usermetric", "temperature"}, {{"jobid", job}},
                                            record->start_time, record->end_time + kMin);
  bool ok = events >= 2 && temp.ok() && temp->size() > 100;
  if (ok) {
    const double early = temp->values.front();
    const double late = temp->values.back();
    std::printf("\nReproduction check: temperature %f (start) -> %f (end), %d events\n", early,
                late, events);
    ok = late < early;  // equilibration: kinetic energy flows into potential
  }
  std::printf("  -> %s\n", ok ? "OK: physical transient + events reproduced"
                              : "MISMATCH: series shape unexpected");
  return ok ? 0 : 1;
}
