#pragma once

// Shared knobs for the plain (non-google-benchmark) bench binaries.
//
// Smoke mode: LMS_BENCH_SMOKE=1 shrinks every iteration budget to
// "does-it-still-run" size and suppresses the BENCH_*.json baseline write,
// so ci/bench_smoke.sh can execute all bench binaries in seconds without
// dirtying the committed baselines. Numbers from a smoke run are
// meaningless; only the exit status is.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "lms/json/json.hpp"

namespace lms::bench {

inline bool smoke() { return std::getenv("LMS_BENCH_SMOKE") != nullptr; }

/// Iteration budget: the real one, or the tiny one in smoke mode.
inline int scaled(int full, int tiny) { return smoke() ? tiny : full; }

/// Write a baseline file unless in smoke mode. Returns false on I/O error.
inline bool write_baseline(const std::string& path, const std::string& content) {
  if (smoke()) {
    std::printf("smoke mode: skipping %s\n", path.c_str());
    return true;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::printf("cannot write %s\n", path.c_str());
    return false;
  }
  std::fputs(content.c_str(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

/// Median and range of repeated measurements of one quantity.
struct Spread {
  double median = 0;
  double min = 0;
  double max = 0;
};

inline Spread spread(std::vector<double> values) {
  if (values.empty()) return {};
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  const double median = n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
  return {median, values.front(), values.back()};
}

/// Record a repeated measurement in a baseline: `<name>` is the median,
/// `<name>_min` and `<name>_max` its range over the repetitions.
inline void put_spread(json::Object& o, const std::string& name, const Spread& s) {
  o[name] = s.median;
  o[name + "_min"] = s.min;
  o[name + "_max"] = s.max;
}

}  // namespace lms::bench
