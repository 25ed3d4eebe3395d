// Application-level monitoring with libusermetric (paper §IV, Fig. 3).
//
// Shows the three ways application data enters the stack:
//   1. the library API (values + events, default tags, batching),
//   2. the command-line form used from batch scripts,
//   3. the transparent preload-style hooks (allocation tracking, affinity).
// The example runs the miniMD proxy for real and reports its observables,
// then queries the resulting series back from the database.

#include <cstdio>

#include "lms/cluster/harness.hpp"
#include "lms/cluster/minimd.hpp"
#include "lms/usermetric/hooks.hpp"
#include "lms/usermetric/usermetric.hpp"

using namespace lms;

namespace {
constexpr util::TimeNs kSec = util::kNanosPerSecond;
}

int main() {
  // A 1-node cluster provides router + DB; the "application" below is our
  // own code using libusermetric directly.
  cluster::ClusterHarness::Options opts;
  opts.nodes = 1;
  cluster::ClusterHarness harness(opts);

  std::printf("== libusermetric walkthrough ==\n\n");

  // Configure a client the way a job prolog would: default tags identify
  // the job so the router/views can slice by it.
  usermetric::UserMetricClient::Options um_opts;
  um_opts.router_url = std::string("inproc://") + cluster::ClusterHarness::kRouterEndpoint;
  um_opts.default_tags = {{"jobid", "demo"}, {"user", "alice"}, {"hostname", "h1"}};
  um_opts.buffer_capacity = 200;
  usermetric::UserMetricClient um(harness.client(), harness.clock(), um_opts);

  // (2) CLI form: batch scripts bracket the run with events,
  //     `lms-usermetric --event job "start"`.
  {
    auto point = usermetric::parse_cli_metric({"--event", "job", "starting miniMD run"},
                                              harness.now());
    um.event("job", point->field("text")->as_string());
  }

  // (3) Preload-style hooks: the app "allocates" its arrays.
  usermetric::AllocTracker alloc(um, 10 * kSec);
  usermetric::AffinityReporter affinity(um);
  alloc.on_allocate(256u << 20, harness.now());  // 256 MB of particle data
  for (int t = 0; t < 4; ++t) affinity.on_set_affinity(t, t, harness.now());

  // (1) The instrumented application: real MD, reporting every 100 iters.
  cluster::MiniMd md(cluster::MiniMd::Params{}, /*seed=*/42);
  std::printf("miniMD: %d atoms, box %.3f, initial T=%.3f E=%.4f\n", md.natoms(),
              md.box_length(), md.temperature(), md.total_energy());
  for (int iter = 100; iter <= 2000; iter += 100) {
    md.step(4);  // a few real steps stand in for the 100-iteration block
    harness.clock().advance(2 * kSec);  // the block "took" 2 s
    const std::vector<lineproto::Tag> tags{{"iter", std::to_string(iter)}};
    um.value("runtime_100iters", 2.0, tags);
    um.value("pressure", md.pressure(), tags);
    um.value("temperature", md.temperature(), tags);
    um.value("energy", md.total_energy(), tags);
  }
  um.event("job", "miniMD run finished");
  um.flush();

  const auto stats = um.stats();
  std::printf("\nreported %llu values + %llu events in %llu batched sends\n",
              static_cast<unsigned long long>(stats.values_reported),
              static_cast<unsigned long long>(stats.events_reported),
              static_cast<unsigned long long>(stats.batches_sent));

  // Query the series back through the stack (what the dashboard plots).
  for (const char* field : {"temperature", "energy", "pressure", "allocated_bytes"}) {
    auto series = harness.fetcher().fetch({"usermetric", field}, {{"jobid", "demo"}}, 0,
                                          harness.now() + kSec);
    if (!series.ok() || series->empty()) {
      std::printf("%-18s (no data)\n", field);
      continue;
    }
    std::printf("%-18s %3zu samples   first=%10.4f  last=%10.4f  mean=%10.4f\n", field,
                series->size(), series->values.front(), series->values.back(),
                series->mean());
  }

  // Events are string points in their own measurement.
  auto events = harness.storage().find_database("lms")->series_matching(
      "userevents", {{"jobid", "demo"}});
  std::printf("\nevents stored:\n");
  for (const auto* s : events) {
    const auto it = s->columns.find("text");
    if (it == s->columns.end()) continue;
    for (std::size_t i = 0; i < it->second.size(); ++i) {
      std::printf("  [%s] %s\n", std::string(s->tag("event")).c_str(),
                  it->second.value_at(i).as_string().c_str());
    }
  }
  return 0;
}
