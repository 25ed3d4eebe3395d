#pragma once
// Seeded workload generator. Everything the stack receives — host and job
// layout, the preloaded history, every batch body, the fleet schedule, the
// job churn and the viewers' choices — is a pure function of the seed and a
// per-actor sequence number. Timestamps are offsets from base times fixed
// when the run starts (the daemon keeps 24 h, so absolute times must follow
// the wall clock); the digest covers the offsets.
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdint>
#include <deque>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "lms/util/clock.hpp"

namespace stackbench {

using lms::util::TimeNs;
using lms::util::kNanosPerMilli;
using lms::util::kNanosPerSecond;

inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// splitmix64 stream: small, fast and identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(mix64(seed)) {}
  std::uint64_t next() { return mix64(state_ += 0x9e3779b97f4a7c15ULL); }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// Fisher-Yates shuffle driven by `rng`.
template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.below(i)]);
}

enum class Workload { kIngest, kDashboard, kFleet };

/// The collector plugins' measurements and the fields the dashboards and the
/// job report read (cpu/memory/network/disk from sysmon, likwid_mem_dp from
/// hpm). Every host tick carries all five.
struct Measurement {
  const char* name;
  std::vector<const char*> fields;
};
inline const std::array<Measurement, 5>& measurements() {
  static const std::array<Measurement, 5> kAll = {{
      {"cpu", {"user_percent", "system_percent", "iowait_percent"}},
      {"memory", {"used_percent"}},
      {"network", {"rx_bytes_per_sec", "tx_bytes_per_sec"}},
      {"disk", {"read_bytes_per_sec", "write_bytes_per_sec"}},
      {"likwid_mem_dp", {"dp_mflop_per_s", "memory_bandwidth_mbytes_per_s", "ipc"}},
  }};
  return kAll;
}
inline constexpr int kMeasurementsPerTick = 5;
inline constexpr int kFieldsPerTick = 11;

/// Writers of batches. Each has its own bench_probe series (tag actor=<name>).
enum Actor : int {
  kPreload = 0,
  kWriterA,   // ingest: closed-loop rack writer
  kWriterB,   // ingest: closed-loop rack writer
  kTrickle,   // dashboard: open-loop rack writer at a fixed low rate
  kFleetA,    // fleet: open-loop per-host writer (even hosts)
  kFleetB,    // fleet: open-loop per-host writer (odd hosts)
  kFresh,     // every workload: freshness probe (probe only, no data)
  kActorCount
};
inline const char* actor_name(int a) {
  static const char* const kNames[kActorCount] = {"preload", "writer_a", "writer_b", "trickle",
                                                  "fleet_a", "fleet_b", "fresh"};
  return kNames[a];
}

struct JobSpec {
  std::string id;
  std::string user;
  int host_lo = 0;  ///< hosts [host_lo, host_lo + host_n)
  int host_n = 0;
};

/// One batch: one tick of a contiguous host range plus its probe point.
struct BatchSpec {
  int actor = 0;
  std::uint64_t seq = 0;
  TimeNs t = 0;  ///< data timestamp (absolute ns)
  int host_lo = 0;
  int host_n = 0;
};

inline std::string host_name(int h) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "n%05d", h);
  return buf;
}

struct Plan {
  // Shape constants (README "Workloads").
  static constexpr int kPreloadJobs = 32;
  static constexpr int kPreloadTicks = 180;               // 3 h of history ...
  static constexpr TimeNs kPreloadStep = 60 * kNanosPerSecond;  // ... at 60 s
  static constexpr int kPreloadHostsPerBatch = 24;
  static constexpr int kRackHosts = 40;
  static constexpr int kFleetHosts = 400;
  static constexpr TimeNs kFleetPeriod = kNanosPerSecond;
  // 100 batches/s x 20 points = 2000 points/s: many small batches, so the
  // dashboard workload's write tail rests on enough samples.
  static constexpr TimeNs kTricklePeriod = 10 * kNanosPerMilli;
  static constexpr int kTrickleHosts = 4;
  static constexpr TimeNs kIngestTickStep = kNanosPerMilli;
  static constexpr TimeNs kChurnPeriod = 250 * kNanosPerMilli;
  static constexpr int kChurnJobs = 8;
  static constexpr int kChurnJobHosts = 4;
  static constexpr int kUsers = 8;

  Workload workload = Workload::kIngest;
  std::uint64_t seed = 0;
  std::vector<JobSpec> preload_jobs;
  int preload_hosts = 0;
  std::array<int, 3> rack_lo{};  // writer A, writer B, trickle
  int fleet_lo = 0;
  std::vector<TimeNs> fleet_phase;  // per fleet host, in [0, kFleetPeriod)
  std::vector<int> view_order;      // seeded permutation of the preload jobs

  // Absolute time bases, set when the run starts.
  TimeNs preload_t0 = 0;
  TimeNs live_t0 = 0;
  TimeNs preload_end() const { return preload_t0 + kPreloadTicks * kPreloadStep; }

  static Plan make(Workload w, std::uint64_t seed) {
    Plan p;
    p.workload = w;
    p.seed = seed;
    Rng rng(seed ^ 0x706c616eULL);
    // Job sizes are the fixed multiset {2, 3, 4, 2, 3, 4, ...} in a seeded
    // order and users are assigned round robin, so every seed has the same
    // shape (95 preload hosts, 8 user databases) and seeds differ only in
    // placement and values.
    std::vector<int> sizes;
    for (int j = 0; j < kPreloadJobs; ++j) sizes.push_back(2 + j % 3);
    shuffle(sizes, rng);
    int h = 0;
    for (int j = 0; j < kPreloadJobs; ++j) {
      JobSpec job;
      job.id = "p" + std::to_string(j);
      job.user = "u" + std::to_string(j % kUsers);
      job.host_lo = h;
      job.host_n = sizes[static_cast<std::size_t>(j)];
      h += job.host_n;
      p.preload_jobs.push_back(job);
    }
    for (int j = 0; j < kPreloadJobs; ++j) p.view_order.push_back(j);
    shuffle(p.view_order, rng);
    p.preload_hosts = h;
    for (int r = 0; r < 3; ++r) {
      p.rack_lo[static_cast<std::size_t>(r)] = h;
      h += kRackHosts;
    }
    p.fleet_lo = h;
    for (int i = 0; i < kFleetHosts; ++i) {
      p.fleet_phase.push_back(static_cast<TimeNs>(rng.below(kFleetPeriod / kNanosPerMilli)) *
                              kNanosPerMilli);
    }
    return p;
  }

  /// Jobs registered in set-up besides the preload jobs: one per rack.
  std::vector<JobSpec> rack_jobs() const {
    std::vector<JobSpec> jobs;
    for (int r = 0; r < 3; ++r) {
      jobs.push_back({"r" + std::to_string(r), "u" + std::to_string(r),
                      rack_lo[static_cast<std::size_t>(r)], kRackHosts});
    }
    return jobs;
  }

  /// Deterministic value of one field of one host tick: a multiple of 1/16
  /// in [0, 100), so sums of any subset are exact and the reference answers
  /// of mean/count/max can be compared bit for bit.
  /// Keyed by the tick's offset from its base time, so a seed generates the
  /// same values on every run.
  double value(int host, TimeNs t, int field) const {
    const TimeNs rel = t - (host < preload_hosts ? preload_t0 : live_t0);
    const std::uint64_t x =
        mix64(seed ^ mix64(static_cast<std::uint64_t>(host) * 0x100000001b3ULL ^
                           mix64(static_cast<std::uint64_t>(rel) + static_cast<std::uint64_t>(field))));
    return static_cast<double>(x % 1600) / 16.0;
  }

  /// Preload batch `seq`: tick (seq / chunks), hosts chunk (seq % chunks).
  int preload_chunks() const {
    return (preload_hosts + kPreloadHostsPerBatch - 1) / kPreloadHostsPerBatch;
  }
  std::uint64_t preload_batches() const {
    return static_cast<std::uint64_t>(kPreloadTicks) *
           static_cast<std::uint64_t>(preload_chunks());
  }
  BatchSpec preload_batch(std::uint64_t seq) const {
    const int tick = static_cast<int>(seq / static_cast<std::uint64_t>(preload_chunks()));
    const int chunk = static_cast<int>(seq % static_cast<std::uint64_t>(preload_chunks()));
    const int lo = chunk * kPreloadHostsPerBatch;
    const int n = std::min(kPreloadHostsPerBatch, preload_hosts - lo);
    return {kPreload, seq, preload_t0 + tick * kPreloadStep, lo, n};
  }
  BatchSpec rack_batch(int actor, std::uint64_t seq) const {
    const int rack = actor == kWriterA ? 0 : actor == kWriterB ? 1 : 2;
    const TimeNs step = actor == kTrickle ? kTricklePeriod : kIngestTickStep;
    return {actor, seq, live_t0 + static_cast<TimeNs>(seq) * step,
            rack_lo[static_cast<std::size_t>(rack)], actor == kTrickle ? kTrickleHosts : kRackHosts};
  }
  /// Fleet schedule of one half (even or odd hosts): (due offset, host),
  /// sorted by due offset, covering [0, horizon).
  std::vector<std::pair<TimeNs, int>> fleet_schedule(int actor, TimeNs horizon) const {
    std::vector<std::pair<TimeNs, int>> out;
    for (int i = actor == kFleetA ? 0 : 1; i < kFleetHosts; i += 2) {
      for (TimeNs t = fleet_phase[static_cast<std::size_t>(i)]; t < horizon; t += kFleetPeriod) {
        out.emplace_back(t, fleet_lo + i);
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Timestamp of a batch's probe point: unique per (actor, seq), so the
  /// query engine (which merges raw rows of equal time) can count how many
  /// copies of each probe the storage holds with GROUP BY time(1ns).
  static constexpr TimeNs kProbeSpan = 10 * 60 * kNanosPerSecond;
  TimeNs probe_time(int actor, std::uint64_t seq) const {
    return preload_t0 + actor * kProbeSpan + static_cast<TimeNs>(seq);
  }

  /// Line-protocol body of one batch: host_n hosts x 5 measurements, then the
  /// batch's probe point.
  std::string body(const BatchSpec& b) const {
    std::string out;
    out.reserve(static_cast<std::size_t>(b.host_n) * 420 + 64);
    char num[64];
    const std::string ts = " " + std::to_string(b.t) + "\n";
    for (int h = b.host_lo; h < b.host_lo + b.host_n; ++h) {
      const std::string host = host_name(h);
      int field = 0;
      for (const auto& m : measurements()) {
        out += m.name;
        out += ",hostname=";
        out += host;
        char sep = ' ';
        for (const char* f : m.fields) {
          out += sep;
          out += f;
          out += '=';
          const int len = std::snprintf(num, sizeof(num), "%.17g", value(h, b.t, field++));
          out.append(num, static_cast<std::size_t>(len));
          sep = ',';
        }
        out += ts;
      }
    }
    out += "bench_probe,actor=";
    out += actor_name(b.actor);
    out += " seq=" + std::to_string(b.seq) + "i,hosts=" + std::to_string(b.host_n) + "i ";
    out += std::to_string(probe_time(b.actor, b.seq));
    out += '\n';
    return out;
  }

  /// Job churn over the fleet hosts: job k's hosts, given the hosts held by
  /// the jobs still running. Deterministic because churn order is fixed.
  std::vector<int> churn_hosts(std::uint64_t k, const std::set<int>& busy) const {
    Rng rng(seed ^ mix64(0x636875726eULL + k));
    std::vector<int> hosts;
    while (hosts.size() < static_cast<std::size_t>(kChurnJobHosts)) {
      const int h = fleet_lo + static_cast<int>(rng.below(kFleetHosts));
      if (busy.count(h) == 0 &&
          std::find(hosts.begin(), hosts.end(), h) == hosts.end()) {
        hosts.push_back(h);
      }
    }
    return hosts;
  }

  /// Which dashboard viewer `viewer` opens on its `n`-th open: a preload job
  /// index, or -1 for the admin overview (every 8th open). Each viewer walks
  /// the seeded job order from its own offset, so every job is opened
  /// equally often.
  int view_choice(int viewer, std::uint64_t n) const {
    if (n % 8 == 7) return -1;
    const std::uint64_t k = n - n / 8 + static_cast<std::uint64_t>(viewer) * 11;
    return view_order[k % kPreloadJobs];
  }
};

}  // namespace stackbench
