// Cross-cutting property tests:
//   - formula evaluator vs. an independent reference interpreter on random
//     expressions,
//   - query engine invariants on random data (aggregator algebra, ordering,
//     limit/desc semantics),
//   - the streaming query executor vs. a naive sort-then-bucket reference
//     evaluator, bit for bit, over every aggregator and fill mode,
//   - HTTP and line-protocol parser robustness against mutated input
//     (never crash; either parse or reject),
//   - the TSDB's /write scan path vs. writing parse_lenient()'s Points:
//     identical storage, conflict counts and errors on random bodies,
//   - tag-store enrichment idempotence.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <set>

#include "lms/core/tagstore.hpp"
#include "lms/hpm/formula.hpp"
#include "lms/lineproto/codec.hpp"
#include "lms/net/http.hpp"
#include "lms/tsdb/http_api.hpp"
#include "lms/tsdb/ingest.hpp"
#include "lms/tsdb/query.hpp"
#include "lms/util/rng.hpp"
#include "lms/util/strings.hpp"

namespace lms {
namespace {

using util::Rng;
using util::TimeNs;

// --------------------------------------------------- formula differential

/// Independent reference: build a random expression tree, render it to text
/// for the production compiler, and evaluate the tree directly.
struct ExprNode {
  enum Kind { kConst, kVar, kAdd, kSub, kMul, kDiv, kNeg } kind;
  double value = 0;
  std::string var;
  std::unique_ptr<ExprNode> lhs, rhs;

  double eval(const hpm::VarMap& vars) const {
    switch (kind) {
      case kConst:
        return value;
      case kVar:
        return vars.at(var);
      case kAdd:
        return lhs->eval(vars) + rhs->eval(vars);
      case kSub:
        return lhs->eval(vars) - rhs->eval(vars);
      case kMul:
        return lhs->eval(vars) * rhs->eval(vars);
      case kDiv: {
        const double d = rhs->eval(vars);
        return d == 0.0 ? 0.0 : lhs->eval(vars) / d;  // production semantics
      }
      case kNeg:
        return -lhs->eval(vars);
    }
    return 0;
  }

  std::string render() const {
    switch (kind) {
      case kConst:
        return util::format_double(value);
      case kVar:
        return var;
      case kAdd:
        return "(" + lhs->render() + "+" + rhs->render() + ")";
      case kSub:
        return "(" + lhs->render() + "-" + rhs->render() + ")";
      case kMul:
        return "(" + lhs->render() + "*" + rhs->render() + ")";
      case kDiv:
        return "(" + lhs->render() + "/" + rhs->render() + ")";
      case kNeg:
        return "(-" + lhs->render() + ")";
    }
    return "0";
  }
};

std::unique_ptr<ExprNode> random_expr(Rng& rng, int depth) {
  auto node = std::make_unique<ExprNode>();
  const int kind = depth <= 0 ? static_cast<int>(rng.uniform_int(0, 1))
                              : static_cast<int>(rng.uniform_int(0, 6));
  switch (kind) {
    case 0:
      node->kind = ExprNode::kConst;
      node->value = std::round(rng.uniform(-100, 100) * 4.0) / 4.0;
      break;
    case 1:
      node->kind = ExprNode::kVar;
      node->var = "V" + std::to_string(rng.uniform_int(0, 3));
      break;
    case 2:
    case 3:
    case 4:
    case 5: {
      node->kind = static_cast<ExprNode::Kind>(ExprNode::kAdd + (kind - 2));
      node->lhs = random_expr(rng, depth - 1);
      node->rhs = random_expr(rng, depth - 1);
      break;
    }
    default:
      node->kind = ExprNode::kNeg;
      node->lhs = random_expr(rng, depth - 1);
      break;
  }
  return node;
}

class FormulaDifferential : public ::testing::TestWithParam<int> {};

TEST_P(FormulaDifferential, MatchesReferenceInterpreter) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  const hpm::VarMap vars{{"V0", 2.5}, {"V1", -3.0}, {"V2", 0.0}, {"V3", 1e6}};
  for (int i = 0; i < 200; ++i) {
    const auto tree = random_expr(rng, 4);
    const std::string text = tree->render();
    auto compiled = hpm::Formula::compile(text);
    ASSERT_TRUE(compiled.ok()) << text << ": " << compiled.message();
    auto got = compiled->evaluate(vars);
    ASSERT_TRUE(got.ok()) << text;
    const double want = tree->eval(vars);
    if (std::isfinite(want) && std::fabs(want) < 1e300) {
      EXPECT_NEAR(*got, want, std::max(1e-9, std::fabs(want) * 1e-12)) << text;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FormulaDifferential, ::testing::Range(1, 7));

// ------------------------------------------------------- query invariants

class QueryInvariants : public ::testing::TestWithParam<int> {
 protected:
  QueryInvariants() : db_("prop") {
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729);
    n_ = 200 + static_cast<int>(rng.uniform_int(0, 300));
    for (int i = 0; i < n_; ++i) {
      const std::string host = "h" + std::to_string(rng.uniform_int(1, 4));
      db_.write(lineproto::make_point("m", "v", rng.normal(50, 20),
                                      rng.uniform_int(1, 1000) * util::kNanosPerSecond,
                                      {{"hostname", host}}),
                0);
    }
  }

  tsdb::QueryResult run(const std::string& q) {
    auto stmt = tsdb::parse_query(q, 0);
    EXPECT_TRUE(stmt.ok()) << q << ": " << stmt.message();
    auto r = tsdb::execute(db_, *stmt);
    EXPECT_TRUE(r.ok()) << q;
    return r.take();
  }

  tsdb::Database db_;
  int n_ = 0;
};

TEST_P(QueryInvariants, AggregatorAlgebra) {
  // sum == mean * count; min <= mean <= max; count equals written points.
  const auto r = run("SELECT sum(v), mean(v), count(v), min(v), max(v) FROM m");
  ASSERT_EQ(r.series.size(), 1u);
  const auto& row = r.series[0].values[0];
  const double sum = row[1].as_double();
  const double mean = row[2].as_double();
  const auto count = row[3].as_int();
  const double mn = row[4].as_double();
  const double mx = row[5].as_double();
  EXPECT_EQ(count, n_);
  EXPECT_NEAR(sum, mean * static_cast<double>(count), std::fabs(sum) * 1e-9 + 1e-9);
  EXPECT_LE(mn, mean);
  EXPECT_LE(mean, mx);
}

TEST_P(QueryInvariants, GroupByTagPartitionsCount) {
  const auto total = run("SELECT count(v) FROM m");
  const auto grouped = run("SELECT count(v) FROM m GROUP BY hostname");
  std::int64_t sum = 0;
  for (const auto& s : grouped.series) sum += s.values[0][1].as_int();
  EXPECT_EQ(sum, total.series[0].values[0][1].as_int());
}

TEST_P(QueryInvariants, RawRowsSortedAndLimited) {
  const auto r = run("SELECT v FROM m WHERE hostname='h1'");
  for (const auto& series : r.series) {
    for (std::size_t i = 1; i < series.values.size(); ++i) {
      EXPECT_LE(series.values[i - 1][0].as_int(), series.values[i][0].as_int());
    }
  }
  const auto desc = run("SELECT v FROM m WHERE hostname='h1' ORDER BY time DESC LIMIT 7");
  for (const auto& series : desc.series) {
    EXPECT_LE(series.values.size(), 7u);
    for (std::size_t i = 1; i < series.values.size(); ++i) {
      EXPECT_GE(series.values[i - 1][0].as_int(), series.values[i][0].as_int());
    }
  }
}

TEST_P(QueryInvariants, PercentileBounds) {
  const auto r = run("SELECT percentile(v, 1), median(v), percentile(v, 99), min(v), max(v) "
                     "FROM m");
  const auto& row = r.series[0].values[0];
  const double p1 = row[1].as_double();
  const double med = row[2].as_double();
  const double p99 = row[3].as_double();
  const double mn = row[4].as_double();
  const double mx = row[5].as_double();
  EXPECT_LE(mn, p1);
  EXPECT_LE(p1, med);
  EXPECT_LE(med, p99);
  EXPECT_LE(p99, mx);
}

TEST_P(QueryInvariants, WindowMeansBoundedByGlobalExtrema) {
  const auto bounds = run("SELECT min(v), max(v) FROM m");
  const double mn = bounds.series[0].values[0][1].as_double();
  const double mx = bounds.series[0].values[0][2].as_double();
  const auto windows = run("SELECT mean(v) FROM m GROUP BY time(100s)");
  for (const auto& series : windows.series) {
    for (const auto& row : series.values) {
      EXPECT_GE(row[1].as_double(), mn - 1e-9);
      EXPECT_LE(row[1].as_double(), mx + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryInvariants, ::testing::Range(1, 6));

// ---------------------------------------------------------- query oracle

/// Naive reference evaluator for SELECT: copy every sample of a group into a
/// vector, sort by time, bucket into windows with a map, reduce each bucket
/// from scratch. The engine streams over the stored columns instead; with
/// values on a 1/16 grid (exact sums) and distinct timestamps per group both
/// must agree bit for bit.
struct RefSample {
  TimeNs t;
  lineproto::FieldValue v;
};

std::optional<lineproto::FieldValue> ref_aggregate(tsdb::Aggregator agg, double param,
                                                   const std::vector<RefSample>& w) {
  using tsdb::Aggregator;
  using lineproto::FieldValue;
  if (w.empty()) return std::nullopt;
  if (agg == Aggregator::kCount) return FieldValue(static_cast<std::int64_t>(w.size()));
  if (agg == Aggregator::kFirst) return w.front().v;
  if (agg == Aggregator::kLast) return w.back().v;
  std::vector<double> x;
  for (const auto& s : w) {
    if (s.v.is_numeric()) x.push_back(s.v.as_double());
  }
  if (x.empty()) return std::nullopt;
  double sum = 0;
  for (const double v : x) sum += v;
  const auto n = static_cast<double>(x.size());
  const double mn = *std::min_element(x.begin(), x.end());
  const double mx = *std::max_element(x.begin(), x.end());
  std::vector<double> sorted = x;
  std::sort(sorted.begin(), sorted.end());
  switch (agg) {
    case Aggregator::kMean:
      return FieldValue(sum / n);
    case Aggregator::kSum:
      return FieldValue(sum);
    case Aggregator::kMin:
      return FieldValue(mn);
    case Aggregator::kMax:
      return FieldValue(mx);
    case Aggregator::kSpread:
      return FieldValue(mx - mn);
    case Aggregator::kStddev: {
      if (x.size() < 2) return FieldValue(0.0);
      double ss = 0;
      for (const double v : x) ss += (v - sum / n) * (v - sum / n);
      return FieldValue(std::sqrt(ss / (n - 1)));
    }
    case Aggregator::kMedian: {
      const std::size_t m = sorted.size();
      return FieldValue(m % 2 == 1 ? sorted[m / 2] : 0.5 * (sorted[m / 2 - 1] + sorted[m / 2]));
    }
    case Aggregator::kPercentile: {
      const auto rank = static_cast<std::size_t>(
          std::ceil(std::clamp(param, 0.0, 100.0) / 100.0 * n));
      return FieldValue(sorted[rank == 0 ? 0 : rank - 1]);
    }
    default:
      return std::nullopt;
  }
}

std::map<TimeNs, lineproto::FieldValue> ref_expr(const tsdb::FieldExpr& fe,
                                                 const std::vector<RefSample>& samples,
                                                 const tsdb::SelectStatement& sel) {
  using tsdb::Aggregator;
  std::map<TimeNs, lineproto::FieldValue> out;
  std::map<TimeNs, std::vector<RefSample>> windows;
  for (const auto& s : samples) {
    const TimeNs key = sel.group_by_time ? s.t / *sel.group_by_time * *sel.group_by_time : 0;
    windows[key].push_back(s);
  }
  if (fe.agg == Aggregator::kNone) {
    for (const auto& s : samples) out[s.t] = s.v;
  } else if (fe.agg == Aggregator::kDerivative || fe.agg == Aggregator::kRate) {
    std::vector<std::pair<TimeNs, double>> base;
    if (sel.group_by_time) {
      for (const auto& [start, w] : windows) {
        if (auto m = ref_aggregate(Aggregator::kMean, 0, w)) base.emplace_back(start, m->as_double());
      }
    } else {
      for (const auto& s : samples) {
        if (s.v.is_numeric()) base.emplace_back(s.t, s.v.as_double());
      }
    }
    const double unit = static_cast<double>(fe.unit > 0 ? fe.unit : util::kNanosPerSecond);
    for (std::size_t i = 1; i < base.size(); ++i) {
      const double dt = static_cast<double>(base[i].first - base[i - 1].first) / unit;
      if (dt <= 0) continue;
      double d = (base[i].second - base[i - 1].second) / dt;
      if (fe.agg == Aggregator::kRate && d < 0) d = 0;
      out[base[i].first] = lineproto::FieldValue(d);
    }
  } else if (sel.group_by_time) {
    for (const auto& [start, w] : windows) {
      if (auto v = ref_aggregate(fe.agg, fe.param, w)) out[start] = *v;
    }
  } else if (auto v = ref_aggregate(fe.agg, fe.param, samples)) {
    out[sel.time_min.value_or(samples.front().t)] = *v;
  }
  return out;
}

std::vector<tsdb::ResultSeries> ref_select(const tsdb::Database& db,
                                           const tsdb::SelectStatement& sel) {
  std::map<std::vector<tsdb::Tag>, std::vector<const tsdb::Series*>> groups;
  for (const tsdb::Series* s : db.series_of(sel.measurement)) {
    std::vector<tsdb::Tag> key;
    for (const auto& tk : sel.group_by_tags) key.emplace_back(tk, std::string(s->tag(tk)));
    groups[key].push_back(s);
  }
  std::vector<tsdb::ResultSeries> out;
  for (const auto& [key, series] : groups) {
    std::vector<std::map<TimeNs, lineproto::FieldValue>> cols;
    for (const auto& fe : sel.fields) {
      std::vector<RefSample> samples;
      for (const tsdb::Series* s : series) {
        const auto it = s->columns.find(fe.field);
        if (it == s->columns.end()) continue;
        for (std::size_t i = 0; i < it->second.size(); ++i) {
          const TimeNs t = it->second.times()[i];
          if (sel.time_min && t < *sel.time_min) continue;
          if (sel.time_max && t >= *sel.time_max) continue;
          samples.push_back({t, it->second.value_at(i)});
        }
      }
      std::sort(samples.begin(), samples.end(),
                [](const RefSample& a, const RefSample& b) { return a.t < b.t; });
      cols.push_back(ref_expr(fe, samples, sel));
    }
    std::set<TimeNs> rows;
    if (sel.group_by_time && sel.fill != tsdb::FillMode::kNone && sel.time_min &&
        sel.time_max) {
      const TimeNs dur = *sel.group_by_time;
      for (TimeNs t = *sel.time_min / dur * dur; t < *sel.time_max; t += dur) rows.insert(t);
    } else {
      for (const auto& c : cols) {
        for (const auto& [t, _] : c) rows.insert(t);
      }
    }
    tsdb::ResultSeries rs;
    rs.name = sel.measurement;
    rs.tags = key;
    rs.columns.push_back("time");
    for (const auto& fe : sel.fields) rs.columns.push_back(fe.alias);
    std::vector<lineproto::FieldValue> prev(cols.size(), lineproto::FieldValue(0.0));
    for (const TimeNs t : rows) {
      std::vector<lineproto::FieldValue> row{lineproto::FieldValue(static_cast<std::int64_t>(t))};
      bool any = false;
      for (std::size_t c = 0; c < cols.size(); ++c) {
        const auto it = cols[c].find(t);
        if (it != cols[c].end()) {
          row.push_back(prev[c] = it->second);
          any = true;
        } else if (sel.fill == tsdb::FillMode::kZero) {
          row.emplace_back(0.0);
        } else if (sel.fill == tsdb::FillMode::kPrevious) {
          row.push_back(prev[c]);
        } else {
          row.push_back(tsdb::null_cell());
        }
      }
      if (any || sel.fill != tsdb::FillMode::kNone) rs.values.push_back(std::move(row));
    }
    if (!rs.values.empty()) out.push_back(std::move(rs));
  }
  return out;
}

/// Equality that tells -0.0 from 0.0 and matches NaN payloads.
bool same_bits(const lineproto::FieldValue& a, const lineproto::FieldValue& b) {
  if (a.is_double() && b.is_double()) {
    return std::bit_cast<std::uint64_t>(a.as_double()) ==
           std::bit_cast<std::uint64_t>(b.as_double());
  }
  return a == b;
}

class QueryOracle : public ::testing::TestWithParam<int> {};

TEST_P(QueryOracle, StreamingAggregatorsMatchSortThenBucketReference) {
  using tsdb::Aggregator;
  using tsdb::FillMode;
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  tsdb::Database db("oracle");
  // Distinct timestamps (a shuffled slot grid), written out of order. Field
  // v is a float everywhere; n is an int on even hosts and a float on odd
  // ones, so merged groups mix numeric column types; b is a bool.
  std::vector<TimeNs> slots(2000);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    slots[i] = static_cast<TimeNs>(i) * 250 * util::kNanosPerMilli;
  }
  for (std::size_t i = slots.size() - 1; i > 0; --i) {
    std::swap(slots[i], slots[static_cast<std::size_t>(
                            rng.uniform_int(0, static_cast<std::int64_t>(i)))]);
  }
  const auto hosts = rng.uniform_int(1, 5);
  const auto points = static_cast<std::size_t>(rng.uniform_int(40, 400));
  const auto grid = [&rng] { return static_cast<double>(rng.uniform_int(-1024, 1024)) / 16; };
  for (std::size_t i = 0; i < points; ++i) {
    const auto h = rng.uniform_int(0, hosts - 1);
    lineproto::Point p = lineproto::make_point(
        "m", "v", grid(), slots[i],
        {{"hostname", "h" + std::to_string(h)}, {"rack", "r" + std::to_string(h % 2)}});
    if (rng.uniform() < 0.6) {
      if (h % 2 == 0) {
        p.add_field("n", rng.uniform_int(-100, 100));
      } else {
        p.add_field("n", grid());
      }
    }
    if (rng.uniform() < 0.3) p.add_field("b", rng.uniform() < 0.5);
    ASSERT_EQ(db.write(p, 0), 0u);
  }

  const std::vector<std::vector<std::string>> group_tags = {{}, {"hostname"}, {"rack"}};
  const std::vector<std::string> fields = {"v", "n", "b"};
  const std::vector<double> percentiles = {0, 1, 50, 90, 99.5, 100};
  int compared = 0;
  for (int a = 0; a <= static_cast<int>(Aggregator::kRate); ++a) {
    for (const bool windowed : {false, true}) {
      for (const FillMode fill :
           {FillMode::kNone, FillMode::kNull, FillMode::kZero, FillMode::kPrevious}) {
        tsdb::Statement stmt;
        tsdb::SelectStatement& sel = stmt.select;
        sel.measurement = "m";
        sel.fill = fill;
        sel.group_by_tags = group_tags[static_cast<std::size_t>(rng.uniform_int(0, 2))];
        if (windowed) sel.group_by_time = rng.uniform_int(1, 120) * util::kNanosPerSecond;
        if (rng.uniform() < 0.7) {
          sel.time_min = rng.uniform_int(0, 300) * util::kNanosPerSecond;
          sel.time_max = *sel.time_min + rng.uniform_int(1, 300) * util::kNanosPerSecond;
        }
        // The aggregator under test on v, plus a random second expression.
        const auto expr = [&](Aggregator agg, const std::string& field, const char* alias) {
          tsdb::FieldExpr fe{agg, field, alias, 0, 0};
          if (agg == Aggregator::kPercentile) {
            fe.param = percentiles[static_cast<std::size_t>(rng.uniform_int(0, 5))];
          }
          if (agg == Aggregator::kDerivative || agg == Aggregator::kRate) {
            fe.unit = rng.uniform_int(0, 2) * 30 * util::kNanosPerSecond;
          }
          return fe;
        };
        sel.fields.push_back(expr(static_cast<Aggregator>(a), "v", "c0"));
        sel.fields.push_back(
            expr(static_cast<Aggregator>(rng.uniform_int(0, static_cast<int>(Aggregator::kRate))),
                 fields[static_cast<std::size_t>(rng.uniform_int(0, 2))], "c1"));

        auto got = tsdb::execute(db, stmt);
        ASSERT_TRUE(got.ok()) << got.message();
        const auto want = ref_select(db, sel);
        const std::string ctx = "agg " + std::to_string(a) + " field2 " + sel.fields[1].field +
                                " agg2 " + std::to_string(static_cast<int>(sel.fields[1].agg)) +
                                " windowed " + std::to_string(windowed) + " fill " +
                                std::to_string(static_cast<int>(fill));
        ASSERT_EQ(got->series.size(), want.size()) << ctx;
        for (std::size_t s = 0; s < want.size(); ++s) {
          const auto& g = got->series[s];
          const auto& w = want[s];
          EXPECT_EQ(g.name, w.name) << ctx;
          EXPECT_EQ(g.tags, w.tags) << ctx;
          EXPECT_EQ(g.columns, w.columns) << ctx;
          ASSERT_EQ(g.values.size(), w.values.size()) << ctx;
          for (std::size_t r = 0; r < w.values.size(); ++r) {
            ASSERT_EQ(g.values[r].size(), w.values[r].size()) << ctx;
            for (std::size_t c = 0; c < w.values[r].size(); ++c) {
              EXPECT_TRUE(same_bits(g.values[r][c], w.values[r][c]))
                  << ctx << " row " << r << " col " << c << ": got "
                  << g.values[r][c].as_string() << " want " << w.values[r][c].as_string();
              ++compared;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(compared, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryOracle, ::testing::Range(1, 9));

// ------------------------------------------------------ parser robustness

class ParserRobustness : public ::testing::TestWithParam<int> {};

TEST_P(ParserRobustness, MutatedHttpNeverCrashes) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337);
  const std::string base =
      net::HttpRequest::post("/write?db=lms", "cpu,hostname=h1 v=1 100\n", "text/plain")
          .serialize();
  for (int i = 0; i < 300; ++i) {
    std::string mutated = base;
    const int mutations = 1 + static_cast<int>(rng.uniform_int(0, 4));
    for (int m = 0; m < mutations; ++m) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(mutated.size()) - 1));
      switch (rng.uniform_int(0, 2)) {
        case 0:
          mutated[pos] = static_cast<char>(rng.uniform_int(0, 255));
          break;
        case 1:
          mutated.erase(pos, 1);
          break;
        default:
          mutated.insert(pos, 1, static_cast<char>(rng.uniform_int(32, 126)));
          break;
      }
    }
    std::size_t consumed = 0;
    auto req = net::parse_request(mutated, &consumed);  // must not crash
    if (req.ok()) {
      EXPECT_LE(consumed, mutated.size());
    }
    auto resp = net::parse_response(mutated, &consumed);
    (void)resp;
  }
}

TEST_P(ParserRobustness, MutatedLineProtocolNeverCrashes) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 65537);
  const std::string base =
      R"(cpu,hostname=h1,jobid=7 user=42.5,s="text \" here",n=3i,b=true 1500000000)";
  for (int i = 0; i < 500; ++i) {
    std::string mutated = base;
    for (int m = 0; m < 3; ++m) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(mutated.size()) - 1));
      mutated[pos] = static_cast<char>(rng.uniform_int(1, 255));
    }
    auto p = lineproto::parse_line(mutated);  // must not crash
    if (p.ok()) {
      // Whatever parsed must re-serialize and re-parse to the same point.
      auto again = lineproto::parse_line(lineproto::serialize(*p));
      ASSERT_TRUE(again.ok()) << mutated;
      EXPECT_EQ(*again, *p);
    }
  }
}

TEST_P(ParserRobustness, MutatedQueriesNeverCrash) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 49921);
  tsdb::Database db("fuzz");
  db.write(lineproto::make_point("m", "v", 1.0, 100, {{"hostname", "h1"}}), 0);
  const std::string base =
      "SELECT mean(v) FROM m WHERE hostname='h1' AND time >= 0 GROUP BY time(10s) "
      "fill(previous) ORDER BY time DESC LIMIT 3";
  for (int i = 0; i < 300; ++i) {
    std::string mutated = base;
    for (int m = 0; m < 2; ++m) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(mutated.size()) - 1));
      mutated[pos] = static_cast<char>(rng.uniform_int(32, 126));
    }
    auto stmt = tsdb::parse_query(mutated, 0);
    if (stmt.ok()) {
      auto r = tsdb::execute(db, *stmt);  // must not crash either way
      (void)r;
    }
  }
}

TEST_P(ParserRobustness, MalformedLinesKeepLineNumbersAndMessages) {
  // Malformed lines and the message each one must produce.
  static const std::pair<const char*, const char*> kMalformed[] = {
      {"measurement_only", "missing field set"},
      {"m,badtag value=1", "tag 'badtag' missing '='"},
      {"m,k= value=1", "empty tag key or value"},
      {"m,=v f=1", "empty tag key or value"},
      {"m field=", "missing field value"},
      {"m f=\"unterminated", "unterminated string field"},
      {"m f=1 notanumber", "bad timestamp 'notanumber'"},
      {"m f=12xy34", "bad field value '12xy34'"},
      {"m f=tru", "bad field value 'tru'"},
      {"m f=1,g=\\,x 5", "bad field value ',x'"},
      {"m f=12ai", "bad integer field '12ai'"},
      {"m f=1 123 trailing", "trailing content after timestamp"},
      {",t=v f=1", "empty measurement"},
      {"m,t=v  =1", "empty field key"},
      {"m f=1,", "empty field key"},
      {"m f", "field 'f' missing '='"},
      {"my\\ m,k\\=1 f=1", "tag 'k=1' missing '='"},
  };
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729);
  for (int round = 0; round < 50; ++round) {
    const bool crlf = rng.bernoulli(0.5);
    std::string text;
    std::vector<lineproto::Point> good;
    std::vector<std::string> expected;
    int line_no = 0;
    for (int i = 0; i < 30; ++i) {
      ++line_no;
      const double pick = rng.uniform(0, 1);
      if (pick < 0.1) {
        text += "# comment";
      } else if (pick < 0.2) {
        // blank line
      } else if (pick < 0.5) {
        const auto& [line, why] =
            kMalformed[rng.uniform_int(0, std::ssize(kMalformed) - 1)];
        text += line;
        expected.push_back("line " + std::to_string(line_no) + ": " + why);
      } else {
        good.push_back(lineproto::make_point(
            "cpu", "v", rng.uniform(0, 100), rng.uniform_int(1, 1'000'000'000),
            {{"hostname", "h" + std::to_string(rng.uniform_int(1, 9))}}));
        text += lineproto::serialize(good.back());
      }
      text += crlf ? "\r\n" : "\n";
    }
    std::vector<std::string> errors;
    EXPECT_EQ(lineproto::parse_lenient(text, &errors), good);
    EXPECT_EQ(errors, expected);
    const auto strict = lineproto::parse(text);
    if (expected.empty()) {
      ASSERT_TRUE(strict.ok()) << strict.message();
      EXPECT_EQ(*strict, good);
    } else {
      EXPECT_FALSE(strict.ok());
      EXPECT_EQ(strict.message(), expected.front());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserRobustness, ::testing::Range(1, 5));

// ------------------------------------------------------------- tag store

// ------------------------------------- /write scan path vs. the Point path

/// One series identity as written: wire measurement and tags in written
/// order (duplicate keys allowed).
struct WireSeries {
  std::string measurement;
  std::vector<std::string> tags;  // ",key=value" each, wire-escaped
};

template <typename T, std::size_t N>
const T& pick(Rng& rng, const T (&items)[N]) {
  return items[static_cast<std::size_t>(rng.uniform_int(0, N - 1))];
}

/// Wire spellings chosen so every token kind carries an escape somewhere:
/// escaped ',', ' ', '=', '\' and '"', a literal backslash (before a
/// character that is not escapable) and a raw '=' in a measurement and in a
/// tag value (the serializer escapes the latter).
std::vector<WireSeries> random_series(Rng& rng, int n) {
  static const char* const kMeasurements[] = {"cpu", "mem", R"(m\,x)", R"(m\ y)",
                                              "m=eq", R"(bs\\)", R"(lit\q)"};
  static const char* const kTagKeys[] = {"hostname", "jobid", "user", "a",
                                         R"(k\ ey)", R"(k\=q)", R"(k\,c)"};
  static const char* const kTagValues[] = {"h1",     "h2",     "4001",    R"(v\ 1)",
                                           "v=1",    R"(v\=2)", R"(x\,y)", R"(n\\)"};
  std::vector<WireSeries> out(static_cast<std::size_t>(n));
  for (WireSeries& ws : out) {
    ws.measurement = pick(rng, kMeasurements);
    const auto tags = rng.uniform_int(0, 4);
    for (std::int64_t t = 0; t < tags; ++t) {
      ws.tags.push_back(std::string(",") + pick(rng, kTagKeys) + "=" + pick(rng, kTagValues));
    }
  }
  return out;
}

/// A random body over `series`: each line writes one series with its tags
/// in written or shuffled order (so one identity arrives sorted, unsorted
/// and with duplicate keys), 1-3 fields of mixed types (so later values
/// conflict with their column), an optional small timestamp (duplicates and
/// out-of-order), plus malformed lines, randomly damaged lines, comments,
/// blank lines and CRLF endings.
std::string random_write_body(Rng& rng, const std::vector<WireSeries>& series, int lines) {
  static const char* const kFieldKeys[] = {"v", "u", R"(f\ k)", R"(f\=e)", R"(f\,c)", "s"};
  static const char* const kValues[] = {"1.5",      "-2e3",         "7i",
                                        "-3i",      "t",            "false",
                                        "nan",      R"("str")",     R"("q\"uote")",
                                        R"("b\\s")", R"("a,b c=d")", R"("lit\n")"};
  static const char* const kMalformed[] = {"cpu",          "cpu v=",       "cpu,host v=1",
                                           "cpu v=1 abc",  R"(cpu v="open)", ",x=1 v=1",
                                           "cpu v=1i2",    "cpu,=x v=1",   "cpu v=1 1 2",
                                           "cpu =1",       "cpu,a=1,b v=1"};
  std::string body;
  for (int i = 0; i < lines; ++i) {
    const auto kind = rng.uniform_int(0, 19);
    if (kind == 0) {
      body += "# comment v=1";
    } else if (kind == 1) {
      // blank line
    } else if (kind == 2) {
      body += pick(rng, kMalformed);
    } else {
      const auto at = rng.uniform_int(0, static_cast<std::int64_t>(series.size()) - 1);
      const WireSeries& ws = series[static_cast<std::size_t>(at)];
      std::vector<std::string> tags = ws.tags;
      if (rng.uniform_int(0, 1) == 0) {
        for (std::size_t k = tags.size(); k > 1; --k) {
          std::swap(tags[k - 1], tags[static_cast<std::size_t>(rng.uniform_int(0, k - 1))]);
        }
      }
      std::string line = ws.measurement;
      for (const auto& t : tags) line += t;
      const auto fields = rng.uniform_int(1, 3);
      for (std::int64_t f = 0; f < fields; ++f) {
        line += f == 0 ? ' ' : ',';
        line += std::string(pick(rng, kFieldKeys)) + "=" + pick(rng, kValues);
      }
      if (rng.uniform_int(0, 9) < 7) line += " " + std::to_string(rng.uniform_int(1, 50));
      if (rng.uniform_int(0, 19) == 0) {
        const auto pos = rng.uniform_int(0, static_cast<std::int64_t>(line.size()) - 1);
        line[static_cast<std::size_t>(pos)] = static_cast<char>(rng.uniform_int(32, 126));
      }
      body += line;
    }
    body += rng.uniform_int(0, 4) == 0 ? "\r\n" : "\n";
  }
  return body;
}

/// A stored value for comparison: doubles as bit patterns, so NaN compares.
std::string render_value(const lineproto::FieldValue& v) {
  return v.is_double() ? std::to_string(std::bit_cast<std::uint64_t>(v.as_double()))
                       : v.as_string();
}

/// Everything a database holds, keyed by series identity: each column's
/// type, times and values (doubles as bit patterns, so NaN compares).
std::map<std::string, std::string> dump_series(const tsdb::Database& db) {
  std::map<std::string, std::string> out;
  for (const auto& m : db.measurements()) {
    for (const tsdb::Series* s : db.series_of(m)) {
      std::string id = s->measurement;
      for (const auto& [k, v] : s->tags) id += "\x1f" + k + "=" + v;
      std::string cols;
      for (const auto& [field, col] : s->columns) {
        cols += field + ":" + std::to_string(static_cast<int>(col.type())) + "[";
        for (std::size_t i = 0; i < col.size(); ++i) {
          cols += std::to_string(col.times()[i]) + "=" + render_value(col.value_at(i)) + ";";
        }
        cols += ']';
      }
      EXPECT_TRUE(out.emplace(id, cols).second) << "two series of identity " << id;
    }
  }
  return out;
}

/// An independent model of the storage contract, for what both write paths
/// share: a series per identity (measurement + normalized tags), a column
/// per field whose first value fixes its type (later values of another type
/// are rejected and counted), samples in time order with equal times in
/// write order, and retention that drops old samples, then emptied columns,
/// then emptied series. Rendered like dump_series().
class StorageModel {
 public:
  /// Returns the number of rejected (type-conflicting) values.
  std::size_t write(const std::vector<lineproto::Point>& points, TimeNs default_time,
                    TimeNs scale) {
    std::size_t rejected = 0;
    for (const auto& p : points) {
      std::string id = p.measurement;
      for (const auto& [k, v] : p.tags) id += "\x1f" + k + "=" + v;
      const TimeNs t = p.timestamp != 0 ? p.timestamp * scale : default_time;
      for (const auto& [field, value] : p.fields) {
        const auto type = static_cast<int>(value.view().index());
        auto [it, fresh] = series_[id].try_emplace(field, Column{type, {}});
        if (!fresh && it->second.type != type) {
          ++rejected;
          continue;
        }
        auto& samples = it->second.samples;
        const auto at = std::upper_bound(
            samples.begin(), samples.end(), t,
            [](TimeNs x, const std::pair<TimeNs, std::string>& s) { return x < s.first; });
        samples.insert(at, {t, render_value(value)});
      }
    }
    return rejected;
  }

  void drop_before(TimeNs cutoff) {
    for (auto sit = series_.begin(); sit != series_.end();) {
      for (auto cit = sit->second.begin(); cit != sit->second.end();) {
        auto& samples = cit->second.samples;
        std::erase_if(samples, [cutoff](const auto& s) { return s.first < cutoff; });
        cit = samples.empty() ? sit->second.erase(cit) : std::next(cit);
      }
      sit = sit->second.empty() ? series_.erase(sit) : std::next(sit);
    }
  }

  std::map<std::string, std::string> dump() const {
    std::map<std::string, std::string> out;
    for (const auto& [id, columns] : series_) {
      std::string cols;
      for (const auto& [field, col] : columns) {
        cols += field + ":" + std::to_string(col.type) + "[";
        for (const auto& [t, v] : col.samples) cols += std::to_string(t) + "=" + v + ";";
        cols += ']';
      }
      out[id] = cols;
    }
    return out;
  }

 private:
  struct Column {
    int type;
    std::vector<std::pair<TimeNs, std::string>> samples;
  };
  std::map<std::string, std::map<std::string, Column>> series_;
};

/// Every series is found in the stripe shard_of_key() names.
void expect_series_in_their_stripes(const tsdb::Database& db) {
  for (const auto& m : db.measurements()) {
    for (const tsdb::Series* s : db.series_of(m)) {
      EXPECT_EQ(db.find_series(s->measurement, s->tags), s)
          << s->measurement << " not in stripe " << db.shard_of_key(s->measurement, s->tags);
    }
  }
}

class WriteOracle : public ::testing::TestWithParam<int> {};

TEST_P(WriteOracle, ScanPathLeavesStorageAsPointPath) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  const auto series = random_series(rng, 10);
  tsdb::Storage scanned;  // written through the /write handler: scan and apply lines
  util::SimClock clock(25);
  tsdb::HttpApi api(scanned, clock);
  const net::HttpHandler handler = api.handler();
  tsdb::Database points("oracle");  // written as parse_lenient()'s Points
  StorageModel model;               // what both must hold
  std::size_t conflicts = 0;
  std::size_t parse_errors = 0;
  std::size_t written = 0;
  for (int b = 0; b < 40; ++b) {
    const std::string body =
        random_write_body(rng, series, static_cast<int>(rng.uniform_int(1, 30)));
    const bool seconds = rng.uniform_int(0, 3) == 0;
    const std::string ctx = "batch " + std::to_string(b) + ":\n" + body;
    std::vector<std::string> errors;
    const auto parsed = lineproto::parse_lenient(body, &errors);
    lineproto::ScannedBatch lines;
    std::vector<std::string> scan_errors;
    lineproto::scan(body, lines, &scan_errors);
    ASSERT_EQ(scan_errors, errors) << ctx;
    ASSERT_EQ(lines.lines.size(), parsed.size()) << ctx;

    const net::HttpResponse resp = handler(net::HttpRequest::post(
        seconds ? "/write?db=lms&precision=s" : "/write?db=lms", body, "text/plain"));
    if (parsed.empty() && !errors.empty()) {
      EXPECT_EQ(resp.status, 400) << ctx;
      EXPECT_EQ(resp.body,
                tsdb::write_error_response("unable to parse batch: " + errors.front()).body);
      ++parse_errors;
    } else {
      EXPECT_EQ(resp.status, 204) << ctx;
      const TimeNs scale = seconds ? util::kNanosPerSecond : 1;
      const std::size_t rejected = points.write_batch(parsed, clock.now(), scale);
      EXPECT_EQ(rejected, model.write(parsed, clock.now(), scale)) << ctx;
      conflicts += rejected;
      parse_errors += errors.size();
      written += parsed.size();
    }
    EXPECT_EQ(api.field_type_conflicts(), conflicts) << ctx;
    EXPECT_EQ(api.parse_errors(), parse_errors) << ctx;
    EXPECT_EQ(api.points_written(), written) << ctx;
    const tsdb::Database* db = scanned.find_database("lms");
    if (db == nullptr) {
      EXPECT_EQ(points.series_count(), 0u) << ctx;
      continue;
    }
    ASSERT_EQ(dump_series(points), model.dump()) << ctx;
    ASSERT_EQ(dump_series(*db), dump_series(points)) << ctx;

    if (b % 10 == 9) {
      // Retention mid-stream: the same samples and series go on both sides.
      const TimeNs cutoff =
          rng.uniform_int(0, 3) == 0 ? 20 * util::kNanosPerSecond : rng.uniform_int(5, 40);
      EXPECT_EQ(scanned.drop_before(cutoff), points.drop_before(cutoff)) << ctx;
      model.drop_before(cutoff);
      ASSERT_EQ(dump_series(points), model.dump()) << ctx;
      ASSERT_EQ(dump_series(*db), dump_series(points)) << ctx;
    }
    clock.advance(1);
  }
  EXPECT_GT(conflicts, 0u);
  EXPECT_GT(parse_errors, 0u);
  EXPECT_GT(points.series_count(), 5u);
  expect_series_in_their_stripes(*scanned.find_database("lms"));
  expect_series_in_their_stripes(points);
}

TEST_P(WriteOracle, RetentionDropThenRewrite) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729);
  const auto series = random_series(rng, 8);
  const std::string body = random_write_body(rng, series, 60);
  const auto parsed = lineproto::parse_lenient(body, nullptr);
  tsdb::Database scanned("scanned");
  tsdb::Database points("points");
  const auto write_both = [&] {
    StorageModel model;
    const std::size_t expected = model.write(parsed, 25, 1);
    lineproto::ScannedBatch lines;
    lineproto::scan(body, lines, nullptr);
    EXPECT_EQ(scanned.write_lines(lines, 25), expected);
    EXPECT_EQ(points.write_batch(parsed, 25), expected);
    return model.dump();
  };
  const auto before = write_both();
  ASSERT_FALSE(before.empty());
  ASSERT_EQ(dump_series(points), before);
  ASSERT_EQ(dump_series(scanned), before);

  // Drop everything: every series leaves the index, not just the tag maps.
  scanned.drop_before(std::numeric_limits<TimeNs>::max());
  points.drop_before(std::numeric_limits<TimeNs>::max());
  EXPECT_EQ(scanned.series_count(), 0u);
  EXPECT_EQ(scanned.sample_count(), 0u);
  EXPECT_TRUE(dump_series(scanned).empty());

  // Rewriting recreates each series, visible to readers and in its stripe.
  write_both();
  EXPECT_EQ(dump_series(scanned), before);
  EXPECT_EQ(dump_series(points), before);
  EXPECT_EQ(scanned.series_count(), points.series_count());
  expect_series_in_their_stripes(scanned);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WriteOracle, ::testing::Range(1, 9));

TEST(TagStoreProperty, EnrichmentIsIdempotent) {
  Rng rng(11);
  core::TagStore store;
  store.set_tags("h1", {{"jobid", "7"}, {"user", "alice"}, {"queue", "batch"}});
  for (int i = 0; i < 100; ++i) {
    lineproto::Point p = lineproto::make_point(
        "m", "v", rng.uniform(0, 1), 1, {{"hostname", "h1"}, {"extra", "x"}});
    store.enrich(p);
    lineproto::Point once = p;
    store.enrich(p);
    EXPECT_EQ(p, once);  // enriching twice changes nothing
  }
}

}  // namespace
}  // namespace lms
