// Prices the profiling SDK, in two tiers:
//
//   1. Per-marker cost: a start/stop pair on an open profiler, with no
//      collector (pure marker bookkeeping) and with the MEM_DP
//      HpmRegionCollector attached (two counter snapshots + delta
//      attribution per region instance).
//   2. Whole-run overhead on the MiniMD proxy: the cluster harness runs the
//      same simulation with profiling off and with profiling on at MiniMD's
//      default region granularity (4 regions per node per step), and the
//      wall-clock delta is the price of the whole marker pipeline —
//      region brackets, counter attribution, flushes through the router.
//      The acceptance bar is <5% runtime overhead.
//
// Writes the numbers as a machine-readable baseline to BENCH_profiling.json.

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "lms/cluster/harness.hpp"
#include "lms/hpm/monitor.hpp"
#include "lms/json/json.hpp"
#include "lms/profiling/profiler.hpp"
#include "lms/util/clock.hpp"

namespace {

using namespace lms;

constexpr util::TimeNs kSec = util::kNanosPerSecond;
constexpr util::TimeNs kMin = util::kNanosPerMinute;

/// ns per start/stop pair on a profiler, one value per repetition.
std::vector<double> marker_pair_ns(profiling::Profiler& profiler, int pairs, int reps) {
  std::vector<double> per_rep;
  for (int r = 0; r < reps; ++r) {
    util::TimeNs t = kSec;
    const util::TimeNs start = util::monotonic_now_ns();
    for (int i = 0; i < pairs; ++i) {
      (void)profiler.start("bench", t);
      t += 1000;
      (void)profiler.stop("bench", t);
      t += 1000;
    }
    per_rep.push_back(static_cast<double>(util::monotonic_now_ns() - start) / pairs);
    profiler.reset();
  }
  return per_rep;
}

/// Wall ms for a MiniMD run on the harness, profiling on or off.
double minimd_wall_ms(bool profiling, util::TimeNs sim_duration) {
  cluster::ClusterHarness::Options opts;
  opts.nodes = 4;
  opts.enable_profiling = profiling;
  const util::TimeNs start = util::monotonic_now_ns();
  cluster::ClusterHarness harness(opts);
  const int job = harness.submit("minimd", "bench", 4, sim_duration);
  if (!harness.run_until_done(job, sim_duration * 3)) {
    std::fprintf(stderr, "minimd job did not finish\n");
    std::exit(1);
  }
  return static_cast<double>(util::monotonic_now_ns() - start) / 1e6;
}

}  // namespace

int main() {
  const int pairs = bench::scaled(200'000, 2'000);
  const int reps = bench::scaled(7, 1);
  const int harness_reps = bench::scaled(5, 1);
  const util::TimeNs sim_duration = bench::smoke() ? 2 * kMin : 20 * kMin;

  std::printf("=== bench_profiling: %d marker pairs (median of %d), MiniMD %lld sim-min "
              "(median of %d off/on pairs), %u hardware threads ===\n\n",
              pairs, reps, static_cast<long long>(sim_duration / kMin), harness_reps,
              std::thread::hardware_concurrency());

  // ---- tier 1: per-marker cost ----
  profiling::Profiler bare;
  const bench::Spread bare_ns = bench::spread(marker_pair_ns(bare, pairs, reps));

  const hpm::CounterArchitecture& arch = hpm::simx86();
  hpm::GroupRegistry groups(arch);
  hpm::CounterSimulator sim(arch, 42, 0.0);
  profiling::Profiler with_hpm;
  auto collector = profiling::HpmRegionCollector::create(groups, sim, "MEM_DP");
  if (!collector.ok()) {
    std::fprintf(stderr, "%s\n", collector.message().c_str());
    return 1;
  }
  with_hpm.add_collector(collector.take());
  const bench::Spread hpm_ns = bench::spread(marker_pair_ns(with_hpm, pairs, reps));

  std::printf("%-34s %12.0f ns/pair  [%.0f, %.0f]\n", "marker only", bare_ns.median,
              bare_ns.min, bare_ns.max);
  std::printf("%-34s %12.0f ns/pair  [%.0f, %.0f]  (counter snapshot x2 + attribution)\n",
              "marker + MEM_DP collector", hpm_ns.median, hpm_ns.min, hpm_ns.max);

  // ---- tier 2: MiniMD proxy, profiling off vs on ----
  // Each repetition is an off/on pair; the overhead is taken per pair, so
  // drift between pairs cancels.
  std::vector<double> off_ms, on_ms, overhead_pct;
  for (int r = 0; r < harness_reps; ++r) {
    off_ms.push_back(minimd_wall_ms(false, sim_duration));
    on_ms.push_back(minimd_wall_ms(true, sim_duration));
    overhead_pct.push_back((on_ms.back() - off_ms.back()) / off_ms.back() * 100.0);
  }
  const bench::Spread off = bench::spread(off_ms);
  const bench::Spread on = bench::spread(on_ms);
  const bench::Spread overhead = bench::spread(overhead_pct);
  std::printf("\n%-34s %12.1f wall ms  [%.1f, %.1f]\n", "minimd, profiling off", off.median,
              off.min, off.max);
  std::printf("%-34s %12.1f wall ms  [%.1f, %.1f]\n", "minimd, profiling on", on.median,
              on.min, on.max);
  std::printf("%-34s %11.1f%%  [%.1f, %.1f]  (bar: <5%%)\n", "overhead", overhead.median,
              overhead.min, overhead.max);

  json::Object top;
  top["bench"] = "bench_profiling";
  top["hardware_threads"] =
      static_cast<std::int64_t>(std::thread::hardware_concurrency());
  top["marker_pairs"] = pairs;
  top["marker_reps"] = reps;
  bench::put_spread(top, "marker_ns_per_pair", bare_ns);
  bench::put_spread(top, "marker_hpm_ns_per_pair", hpm_ns);
  top["minimd_sim_minutes"] = static_cast<std::int64_t>(sim_duration / kMin);
  top["minimd_pairs"] = harness_reps;
  bench::put_spread(top, "minimd_wall_ms_profiling_off", off);
  bench::put_spread(top, "minimd_wall_ms_profiling_on", on);
  bench::put_spread(top, "minimd_overhead_pct", overhead);
  if (!bench::write_baseline("BENCH_profiling.json",
                             json::Value(std::move(top)).dump_pretty())) {
    return 1;
  }
  return 0;
}
