// Cross-cutting property tests:
//   - formula evaluator vs. an independent reference interpreter on random
//     expressions,
//   - query engine invariants on random data (aggregator algebra, ordering,
//     limit/desc semantics),
//   - the streaming query executor vs. a naive sort-then-bucket reference
//     evaluator, bit for bit, over every aggregator and fill mode,
//   - HTTP and line-protocol parser robustness against mutated input
//     (never crash; either parse or reject),
//   - tag-store enrichment idempotence.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <optional>
#include <set>

#include "lms/core/tagstore.hpp"
#include "lms/hpm/formula.hpp"
#include "lms/lineproto/codec.hpp"
#include "lms/net/http.hpp"
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

INSTANTIATE_TEST_SUITE_P(Seeds, ParserRobustness, ::testing::Range(1, 5));

// ------------------------------------------------------------- tag store

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
