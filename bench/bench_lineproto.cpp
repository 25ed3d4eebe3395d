// Perf-1 (paper §I, §III-A): the line protocol was chosen because batched,
// human-readable transmission is cheap. Measures serialize/parse throughput
// and the batch-size sweep that justifies "multiple lines can be
// concatenated for batched transmission".

#include <benchmark/benchmark.h>

#include "lms/lineproto/codec.hpp"
#include "lms/util/rng.hpp"

namespace {

using namespace lms;

lineproto::Point typical_point(util::Rng& rng, int tags) {
  lineproto::Point p;
  p.measurement = "likwid_mem_dp";
  p.set_tag("hostname", "node" + std::to_string(rng.uniform_int(1, 64)));
  for (int i = 1; i < tags; ++i) {
    p.set_tag("tag" + std::to_string(i), "value" + std::to_string(i));
  }
  p.add_field("dp_mflop_per_s", rng.uniform(0, 2e5));
  p.add_field("memory_bandwidth_mbytes_per_s", rng.uniform(0, 1e5));
  p.add_field("cpi", rng.uniform(0.2, 5.0));
  p.timestamp = 1'500'000'000'000'000'000LL + rng.uniform_int(0, 1'000'000'000);
  p.normalize();
  return p;
}

void BM_Serialize(benchmark::State& state) {
  util::Rng rng(1);
  const auto p = typical_point(rng, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(lineproto::serialize(p));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::to_string(state.range(0)) + " tags");
}
BENCHMARK(BM_Serialize)->Arg(1)->Arg(4)->Arg(8);

void BM_ParseLine(benchmark::State& state) {
  util::Rng rng(1);
  const std::string line = lineproto::serialize(typical_point(rng, 4));
  for (auto _ : state) {
    auto p = lineproto::parse_line(line);
    benchmark::DoNotOptimize(p);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(line.size()));
}
BENCHMARK(BM_ParseLine);

/// The batching claim: cost per point of serializing+parsing a batch of N.
void BM_BatchRoundTrip(benchmark::State& state) {
  util::Rng rng(1);
  const int batch_size = static_cast<int>(state.range(0));
  std::vector<lineproto::Point> batch;
  for (int i = 0; i < batch_size; ++i) batch.push_back(typical_point(rng, 4));
  for (auto _ : state) {
    const std::string wire = lineproto::serialize_batch(batch);
    auto points = lineproto::parse(wire);
    benchmark::DoNotOptimize(points);
  }
  state.SetItemsProcessed(state.iterations() * batch_size);
}
BENCHMARK(BM_BatchRoundTrip)->Arg(1)->Arg(10)->Arg(100)->Arg(1000);

void BM_ParseLenientWithErrors(benchmark::State& state) {
  util::Rng rng(1);
  std::string wire;
  for (int i = 0; i < 100; ++i) {
    wire += lineproto::serialize(typical_point(rng, 4)) + "\n";
    if (i % 10 == 0) wire += "malformed line without fields\n";
  }
  for (auto _ : state) {
    std::vector<std::string> errors;
    auto points = lineproto::parse_lenient(wire, &errors);
    benchmark::DoNotOptimize(points);
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_ParseLenientWithErrors);

/// The body the TSDB receives per forward on the stack benchmark's ingest
/// workload: 1500 enriched points, each with hostname/jobid/user tags,
/// 3 float fields and a timestamp.
constexpr int kEnrichedBatch = 1500;

std::vector<lineproto::Point> enriched_batch() {
  util::Rng rng(7);
  std::vector<lineproto::Point> batch;
  batch.reserve(kEnrichedBatch);
  for (int i = 0; i < kEnrichedBatch; ++i) {
    lineproto::Point p;
    p.measurement = "likwid_mem_dp";
    p.set_tag("hostname", "node" + std::to_string(i % 64));
    p.set_tag("jobid", std::to_string(4000 + i % 8));
    p.set_tag("user", "user" + std::to_string(i % 8));
    p.add_field("dp_mflop_per_s", rng.uniform(0, 2e5));
    p.add_field("memory_bandwidth_mbytes_per_s", rng.uniform(0, 1e5));
    p.add_field("cpi", rng.uniform(0.2, 5.0));
    p.timestamp = 1'500'000'000'000'000'000LL + rng.uniform_int(0, 1'000'000'000);
    p.normalize();
    batch.push_back(std::move(p));
  }
  return batch;
}

void BM_ParseBatch(benchmark::State& state) {
  const std::string wire = lineproto::serialize_batch(enriched_batch());
  for (auto _ : state) {
    std::vector<std::string> errors;
    auto points = lineproto::parse_lenient(wire, &errors);
    benchmark::DoNotOptimize(points);
  }
  state.SetItemsProcessed(state.iterations() * kEnrichedBatch);
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(wire.size()));
}
BENCHMARK(BM_ParseBatch);

void BM_SerializeBatch(benchmark::State& state) {
  const auto batch = enriched_batch();
  for (auto _ : state) {
    benchmark::DoNotOptimize(lineproto::serialize_batch(batch));
  }
  state.SetItemsProcessed(state.iterations() * kEnrichedBatch);
}
BENCHMARK(BM_SerializeBatch);

void BM_EscapedContent(benchmark::State& state) {
  lineproto::Point p;
  p.measurement = "my measurement,with specials";
  p.set_tag("tag key", "va=l,ue with spaces");
  p.add_field("field", std::string("a \"quoted\" string \\ with backslashes"));
  p.timestamp = 42;
  const std::string line = lineproto::serialize(p);
  for (auto _ : state) {
    auto parsed = lineproto::parse_line(line);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EscapedContent);

}  // namespace
