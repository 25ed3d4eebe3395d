// Tests for the time-series database: storage engine, query language,
// aggregators, fill modes, retention, and the InfluxDB-compatible HTTP API.

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <thread>

#include "lms/json/json.hpp"
#include "lms/lineproto/codec.hpp"
#include "lms/net/transport.hpp"
#include "lms/obs/trace.hpp"
#include "lms/obs/traceexport.hpp"
#include "lms/tsdb/http_api.hpp"
#include "lms/tsdb/ingest.hpp"
#include "lms/tsdb/persist.hpp"
#include "lms/tsdb/query.hpp"
#include "lms/tsdb/storage.hpp"
#include "lms/tsdb/trace_assembly.hpp"
#include "lms/util/logging.hpp"
#include "lms/util/rng.hpp"
#include "lms/util/strings.hpp"

namespace lms::tsdb {
namespace {

using lineproto::Point;
using lineproto::make_point;
using util::kNanosPerSecond;

constexpr TimeNs kSec = kNanosPerSecond;

Point pt(std::string_view meas, std::string_view host, std::string_view field, double v,
         TimeNs t) {
  return make_point(meas, field, v, t, {{"hostname", std::string(host)}});
}

// ---------------------------------------------------------------- duration

TEST(Duration, ParseFormats) {
  EXPECT_EQ(*parse_duration("10s"), 10 * kSec);
  EXPECT_EQ(*parse_duration("5m"), 5 * util::kNanosPerMinute);
  EXPECT_EQ(*parse_duration("2h"), 2 * util::kNanosPerHour);
  EXPECT_EQ(*parse_duration("500ms"), 500 * util::kNanosPerMilli);
  EXPECT_EQ(*parse_duration("250us"), 250 * util::kNanosPerMicro);
  EXPECT_EQ(*parse_duration("7ns"), 7);
  EXPECT_EQ(*parse_duration("1d"), 24 * util::kNanosPerHour);
  EXPECT_EQ(*parse_duration("1h30m"), 90 * util::kNanosPerMinute);
  EXPECT_FALSE(parse_duration("").ok());
  EXPECT_FALSE(parse_duration("10x").ok());
  EXPECT_FALSE(parse_duration("s").ok());
}

TEST(Duration, FormatLiteral) {
  EXPECT_EQ(format_duration_literal(10 * kSec), "10s");
  EXPECT_EQ(format_duration_literal(600 * kSec), "10m");
  EXPECT_EQ(format_duration_literal(90 * kSec), "90s");
  EXPECT_EQ(format_duration_literal(1500), "1500ns");
}

// ---------------------------------------------------------------- storage

TEST(Storage, SeriesIdentityByTagSet) {
  Database db("test");
  db.write(pt("cpu", "h1", "v", 1, 10), 0);
  db.write(pt("cpu", "h1", "v", 2, 20), 0);
  db.write(pt("cpu", "h2", "v", 3, 10), 0);
  EXPECT_EQ(db.series_count(), 2u);
  EXPECT_EQ(db.sample_count(), 3u);
  EXPECT_EQ(db.measurements(), std::vector<std::string>{"cpu"});
  EXPECT_EQ(db.field_keys("cpu"), std::vector<std::string>{"v"});
  EXPECT_EQ(db.tag_keys("cpu"), std::vector<std::string>{"hostname"});
  EXPECT_EQ(db.tag_values("cpu", "hostname"), (std::vector<std::string>{"h1", "h2"}));
}

TEST(Storage, TagIndexIntersection) {
  Database db("test");
  Point p = make_point("m", "v", 1.0, 10,
                       {{"hostname", "h1"}, {"jobid", "7"}, {"user", "alice"}});
  db.write(p, 0);
  Point q = make_point("m", "v", 2.0, 20, {{"hostname", "h1"}, {"jobid", "8"}});
  db.write(q, 0);
  EXPECT_EQ(db.series_matching("m", {{"hostname", "h1"}}).size(), 2u);
  EXPECT_EQ(db.series_matching("m", {{"hostname", "h1"}, {"jobid", "7"}}).size(), 1u);
  EXPECT_EQ(db.series_matching("m", {{"jobid", "9"}}).size(), 0u);
  EXPECT_EQ(db.series_matching("m", {{"nokey", "x"}}).size(), 0u);
}

TEST(Storage, OutOfOrderWritesSorted) {
  Database db("test");
  db.write(pt("m", "h1", "v", 2, 200), 0);
  db.write(pt("m", "h1", "v", 1, 100), 0);
  db.write(pt("m", "h1", "v", 3, 300), 0);
  const auto series = db.series_of("m");
  ASSERT_EQ(series.size(), 1u);
  const Column& col = series[0]->columns.at("v");
  EXPECT_EQ(col.times(), (std::vector<TimeNs>{100, 200, 300}));
}

TEST(Storage, UnstampedPointsGetDefaultTime) {
  Database db("test");
  Point p = make_point("m", "v", 1.0, 0);
  db.write(p, 555);
  EXPECT_EQ(db.series_of("m")[0]->columns.at("v").times()[0], 555);
}

TEST(Storage, RetentionDropsOldAndEmptySeries) {
  Database db("test");
  db.write(pt("m", "h1", "v", 1, 100), 0);
  db.write(pt("m", "h1", "v", 2, 200), 0);
  db.write(pt("old", "h2", "v", 3, 50), 0);
  EXPECT_EQ(db.drop_before(150), 2u);
  EXPECT_EQ(db.sample_count(), 1u);
  EXPECT_EQ(db.series_count(), 1u);  // "old" series removed entirely
  EXPECT_TRUE(db.series_of("old").empty());
  EXPECT_TRUE(db.tag_values("old", "hostname").empty());
}

TEST(Storage, MultiDatabase) {
  Storage storage;
  storage.write("a", {pt("m", "h1", "v", 1, 10)}, 0);
  storage.write("b", {pt("m", "h1", "v", 2, 10)}, 0);
  EXPECT_EQ(storage.databases(), (std::vector<std::string>{"a", "b"}));
  EXPECT_NE(storage.find_database("a"), nullptr);
  EXPECT_EQ(storage.find_database("c"), nullptr);
}

// ---------------------------------------------------------- typed columns

/// One point carrying a field of every type.
Point typed_point(TimeNs t, double f, std::int64_t i, bool b, std::string text) {
  Point p = make_point("typed", "f", f, t, {{"hostname", "h1"}});
  p.add_field("i", i);
  p.add_field("b", b);
  p.add_field("s", std::move(text));
  p.normalize();
  return p;
}

TEST(TypedColumns, EachFieldKeepsItsTypeThroughWriteQueryAndSnapshot) {
  Storage storage;
  EXPECT_EQ(storage.write("lms",
                          {typed_point(10, 1.5, 7, true, "start"),
                           typed_point(20, -2.25, -3, false, "end")},
                          0),
            0u);
  const auto check_columns = [](const Database& db) {
    const auto series = db.series_of("typed");
    ASSERT_EQ(series.size(), 1u);
    const auto& cols = series[0]->columns;
    EXPECT_EQ(cols.at("f").type(), Column::Type::kFloat);
    EXPECT_EQ(cols.at("i").type(), Column::Type::kInt);
    EXPECT_EQ(cols.at("b").type(), Column::Type::kBool);
    EXPECT_EQ(cols.at("s").type(), Column::Type::kString);
    EXPECT_EQ(std::vector<double>(cols.at("f").floats().begin(), cols.at("f").floats().end()),
              (std::vector<double>{1.5, -2.25}));
    EXPECT_EQ(cols.at("i").ints()[1], -3);
    EXPECT_EQ(cols.at("b").bools()[0], 1);
    EXPECT_EQ(cols.at("s").strings()[1], "end");
    EXPECT_TRUE(cols.at("f").ints().empty());  // views of other types are empty
    EXPECT_EQ(cols.at("f").value_at(0), FieldValue(1.5));
    EXPECT_EQ(cols.at("i").value_at(0), FieldValue(std::int64_t{7}));
    EXPECT_EQ(cols.at("b").value_at(1), FieldValue(false));
    EXPECT_EQ(cols.at("s").value_at(0), FieldValue("start"));
  };
  check_columns(*storage.find_database("lms"));

  // /query renders each type as its JSON type.
  util::SimClock clock(0);
  HttpApi api(storage, clock);
  net::InprocNetwork net;
  net.bind("db", api.handler());
  net::InprocHttpClient client(net);
  auto resp = client.get("inproc://db/query?db=lms&q=" +
                         util::url_encode("SELECT f, i, b, s FROM typed"));
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->status, 200);
  const auto body = json::parse(resp->body);
  ASSERT_TRUE(body.ok()) << resp->body;
  const json::Value& row = (*body)["results"][0]["series"][0]["values"][0];
  EXPECT_TRUE(row[1].is_double());
  EXPECT_DOUBLE_EQ(row[1].as_double(), 1.5);
  EXPECT_TRUE(row[2].is_int());
  EXPECT_EQ(row[2].as_int(), 7);
  EXPECT_TRUE(row[3].is_bool());
  EXPECT_TRUE(row[3].as_bool());
  EXPECT_TRUE(row[4].is_string());
  EXPECT_EQ(row[4].as_string(), "start");

  // A snapshot save/load restores the same typed columns.
  const std::string path = ::testing::TempDir() + "/lms_typed_columns.lp";
  ASSERT_TRUE(save_snapshot(storage, path).ok());
  Storage restored;
  const auto loaded = load_snapshot(restored, path);
  ASSERT_TRUE(loaded.ok()) << loaded.message();
  EXPECT_EQ(*loaded, 2u);
  check_columns(*restored.find_database("lms"));
  std::remove(path.c_str());
}

TEST(TypedColumns, OutOfOrderInsertAndRetentionKeepValuesAligned) {
  Database db("test");
  for (const TimeNs t : {TimeNs{30}, TimeNs{10}, TimeNs{40}, TimeNs{20}}) {
    db.write(typed_point(t, static_cast<double>(t) / 4, t, t % 20 == 0, "e" + std::to_string(t)),
             0);
  }
  const auto& cols = db.series_of("typed")[0]->columns;
  for (const auto& [field, col] : cols) {
    EXPECT_EQ(col.times(), (std::vector<TimeNs>{10, 20, 30, 40})) << field;
  }
  EXPECT_DOUBLE_EQ(cols.at("f").floats()[0], 2.5);
  EXPECT_EQ(cols.at("i").ints()[1], 20);
  EXPECT_EQ(cols.at("b").bools()[2], 0);
  EXPECT_EQ(cols.at("s").strings()[3], "e40");

  EXPECT_EQ(db.drop_before(25), 8u);  // two samples from each of four columns
  for (const auto& [field, col] : cols) {
    EXPECT_EQ(col.times(), (std::vector<TimeNs>{30, 40})) << field;
  }
  EXPECT_DOUBLE_EQ(cols.at("f").floats()[0], 7.5);
  EXPECT_EQ(cols.at("i").ints()[1], 40);
  EXPECT_EQ(cols.at("b").bools()[1], 1);
  EXPECT_EQ(cols.at("s").strings()[0], "e30");
  EXPECT_EQ(cols.at("s").size(), 2u);
}

TEST(TypedColumns, FirstTypeWinsAndOnlyTheConflictingFieldIsRejected) {
  Storage storage;
  util::SimClock clock(0);
  HttpApi api(storage, clock);
  net::InprocNetwork net;
  net.bind("db", api.handler());
  net::InprocHttpClient client(net);
  auto resp = client.post("inproc://db/write?db=lms", "cpu,hostname=h1 v=1.5,n=2i 10\n",
                          "text/plain");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 204);
  EXPECT_EQ(api.field_type_conflicts(), 0u);

  // v is a float column: the string value is rejected, n and the second
  // point still land.
  resp = client.post("inproc://db/write?db=lms",
                     "cpu,hostname=h1 v=\"oops\",n=3i 20\ncpu,hostname=h1 v=2.5,n=4i 30\n",
                     "text/plain");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 204);
  EXPECT_EQ(api.field_type_conflicts(), 1u);
  EXPECT_EQ(api.points_written(), 3u);
  const auto& cols = storage.find_database("lms")->series_of("cpu")[0]->columns;
  EXPECT_EQ(cols.at("v").times(), (std::vector<TimeNs>{10, 30}));
  EXPECT_EQ(cols.at("n").times(), (std::vector<TimeNs>{10, 20, 30}));
  EXPECT_EQ(cols.at("v").type(), Column::Type::kFloat);

  // An int into the float column conflicts too (no silent widening).
  resp = client.post("inproc://db/write?db=lms", "cpu,hostname=h1 v=5i 40\n", "text/plain");
  EXPECT_EQ(resp->status, 204);
  EXPECT_EQ(api.field_type_conflicts(), 2u);
  EXPECT_NE(obs::render_text(api.registry()).find("tsdb_field_type_conflicts 2"),
            std::string::npos);

  // Storage::write reports the same count to direct callers.
  EXPECT_EQ(storage.write("lms", {make_point("cpu", "n", true, 50, {{"hostname", "h1"}})}, 0),
            1u);
  // Another series is another set of columns: its own first type wins.
  EXPECT_EQ(storage.write("lms", {make_point("cpu", "v", 7, 50, {{"hostname", "h2"}})}, 0),
            0u);
}

// ---------------------------------------------------------------- parsing

TEST(QueryParse, SelectFull) {
  const auto stmt = parse_query(
      "SELECT mean(\"user\") AS u, max(idle) FROM cpu WHERE hostname='h1' AND jobid != 'x' "
      "AND time >= 100 AND time < 200 GROUP BY time(10s), hostname fill(0) "
      "ORDER BY time DESC LIMIT 5",
      0);
  ASSERT_TRUE(stmt.ok()) << stmt.message();
  const SelectStatement& s = stmt->select;
  ASSERT_EQ(s.fields.size(), 2u);
  EXPECT_EQ(s.fields[0].agg, Aggregator::kMean);
  EXPECT_EQ(s.fields[0].field, "user");
  EXPECT_EQ(s.fields[0].alias, "u");
  EXPECT_EQ(s.fields[1].alias, "max");
  EXPECT_EQ(s.measurement, "cpu");
  ASSERT_EQ(s.tag_conditions.size(), 2u);
  EXPECT_FALSE(s.tag_conditions[0].negated);
  EXPECT_TRUE(s.tag_conditions[1].negated);
  EXPECT_EQ(s.time_min, 100);
  EXPECT_EQ(s.time_max, 200);
  EXPECT_EQ(s.group_by_time, 10 * kSec);
  EXPECT_EQ(s.group_by_tags, std::vector<std::string>{"hostname"});
  EXPECT_EQ(s.fill, FillMode::kZero);
  EXPECT_TRUE(s.order_desc);
  EXPECT_EQ(s.limit, 5u);
}

TEST(QueryParse, NowArithmetic) {
  const TimeNs now = 1000 * kSec;
  const auto stmt = parse_query("SELECT v FROM m WHERE time >= now() - 10m", now);
  ASSERT_TRUE(stmt.ok()) << stmt.message();
  EXPECT_EQ(stmt->select.time_min, now - 10 * util::kNanosPerMinute);
}

TEST(QueryParse, PercentileAndDerivative) {
  auto stmt = parse_query("SELECT percentile(v, 99) FROM m", 0);
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->select.fields[0].agg, Aggregator::kPercentile);
  EXPECT_DOUBLE_EQ(stmt->select.fields[0].param, 99.0);
  stmt = parse_query("SELECT derivative(v, 1s) FROM m", 0);
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->select.fields[0].unit, kSec);
}

TEST(QueryParse, ShowStatements) {
  EXPECT_EQ(parse_query("SHOW DATABASES", 0)->kind, StatementKind::kShowDatabases);
  EXPECT_EQ(parse_query("SHOW MEASUREMENTS", 0)->kind, StatementKind::kShowMeasurements);
  auto stmt = parse_query("SHOW FIELD KEYS FROM cpu", 0);
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->kind, StatementKind::kShowFieldKeys);
  EXPECT_EQ(stmt->measurement, "cpu");
  stmt = parse_query("SHOW TAG VALUES FROM cpu WITH KEY = \"hostname\"", 0);
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->kind, StatementKind::kShowTagValues);
  EXPECT_EQ(stmt->with_key, "hostname");
}

TEST(QueryParse, Rejections) {
  EXPECT_FALSE(parse_query("", 0).ok());
  EXPECT_FALSE(parse_query("DELETE FROM m", 0).ok());
  EXPECT_FALSE(parse_query("SELECT FROM m", 0).ok());
  EXPECT_FALSE(parse_query("SELECT v", 0).ok());
  EXPECT_FALSE(parse_query("SELECT v FROM m WHERE tag = noquotes", 0).ok());
  EXPECT_FALSE(parse_query("SELECT bogus(v) FROM m", 0).ok());
  EXPECT_FALSE(parse_query("SELECT v FROM m GROUP BY time(0s)", 0).ok());
  EXPECT_FALSE(parse_query("SELECT v FROM m trailing", 0).ok());
  EXPECT_FALSE(parse_query("SELECT percentile(v) FROM m", 0).ok());
}

// ---------------------------------------------------------------- executor

class QueryExec : public ::testing::Test {
 protected:
  QueryExec() : db_("test") {
    // h1: v = 1,2,3,4 at t = 10s,20s,30s,40s; h2: v = 10 at 10s.
    for (int i = 1; i <= 4; ++i) {
      db_.write(pt("m", "h1", "v", i, i * 10 * kSec), 0);
    }
    db_.write(pt("m", "h2", "v", 10, 10 * kSec), 0);
  }

  QueryResult run(const std::string& q) {
    auto stmt = parse_query(q, 0);
    EXPECT_TRUE(stmt.ok()) << stmt.message();
    auto r = execute(db_, *stmt);
    EXPECT_TRUE(r.ok()) << r.message();
    return r.take();
  }

  Database db_;
};

TEST_F(QueryExec, RawSelect) {
  const auto r = run("SELECT v FROM m WHERE hostname='h1'");
  ASSERT_EQ(r.series.size(), 1u);
  EXPECT_EQ(r.series[0].name, "m");
  EXPECT_EQ(r.series[0].columns, (std::vector<std::string>{"time", "v"}));
  ASSERT_EQ(r.series[0].values.size(), 4u);
  EXPECT_EQ(r.series[0].values[0][0].as_int(), 10 * kSec);
  EXPECT_DOUBLE_EQ(r.series[0].values[3][1].as_double(), 4.0);
}

TEST_F(QueryExec, WholeRangeAggregates) {
  const auto r = run("SELECT mean(v), sum(v), min(v), max(v), count(v) FROM m WHERE "
                     "hostname='h1'");
  ASSERT_EQ(r.series.size(), 1u);
  ASSERT_EQ(r.series[0].values.size(), 1u);
  const auto& row = r.series[0].values[0];
  EXPECT_DOUBLE_EQ(row[1].as_double(), 2.5);
  EXPECT_DOUBLE_EQ(row[2].as_double(), 10.0);
  EXPECT_DOUBLE_EQ(row[3].as_double(), 1.0);
  EXPECT_DOUBLE_EQ(row[4].as_double(), 4.0);
  EXPECT_EQ(row[5].as_int(), 4);
}

TEST_F(QueryExec, StatsAggregates) {
  const auto r =
      run("SELECT stddev(v), median(v), spread(v), first(v), last(v) FROM m WHERE hostname='h1'");
  const auto& row = r.series[0].values[0];
  EXPECT_NEAR(row[1].as_double(), 1.29099, 1e-4);  // stddev of 1,2,3,4
  EXPECT_DOUBLE_EQ(row[2].as_double(), 2.5);
  EXPECT_DOUBLE_EQ(row[3].as_double(), 3.0);
  EXPECT_DOUBLE_EQ(row[4].as_double(), 1.0);
  EXPECT_DOUBLE_EQ(row[5].as_double(), 4.0);
}

TEST_F(QueryExec, Percentile) {
  const auto r = run("SELECT percentile(v, 50), percentile(v, 100) FROM m WHERE hostname='h1'");
  const auto& row = r.series[0].values[0];
  EXPECT_DOUBLE_EQ(row[1].as_double(), 2.0);  // nearest-rank 50% of {1,2,3,4}
  EXPECT_DOUBLE_EQ(row[2].as_double(), 4.0);
}

TEST_F(QueryExec, GroupByTimeWindows) {
  const auto r = run("SELECT mean(v) FROM m WHERE hostname='h1' AND time >= 0 AND time < 50s "
                     "GROUP BY time(20s)");
  ASSERT_EQ(r.series.size(), 1u);
  // Windows: [0,20)={1}, [20,40)={2,3}, [40,60)={4}.
  ASSERT_EQ(r.series[0].values.size(), 3u);
  EXPECT_EQ(r.series[0].values[0][0].as_int(), 0);
  EXPECT_DOUBLE_EQ(r.series[0].values[0][1].as_double(), 1.0);
  EXPECT_EQ(r.series[0].values[1][0].as_int(), 20 * kSec);
  EXPECT_DOUBLE_EQ(r.series[0].values[1][1].as_double(), 2.5);
  EXPECT_DOUBLE_EQ(r.series[0].values[2][1].as_double(), 4.0);
}

TEST_F(QueryExec, GroupByTag) {
  const auto r = run("SELECT mean(v) FROM m GROUP BY hostname");
  ASSERT_EQ(r.series.size(), 2u);
  // Ordered by tag value: h1 then h2.
  EXPECT_EQ(r.series[0].tags, (std::vector<lineproto::Tag>{{"hostname", "h1"}}));
  EXPECT_DOUBLE_EQ(r.series[0].values[0][1].as_double(), 2.5);
  EXPECT_EQ(r.series[1].tags, (std::vector<lineproto::Tag>{{"hostname", "h2"}}));
  EXPECT_DOUBLE_EQ(r.series[1].values[0][1].as_double(), 10.0);
}

TEST_F(QueryExec, NegatedTagCondition) {
  const auto r = run("SELECT count(v) FROM m WHERE hostname != 'h2'");
  ASSERT_EQ(r.series.size(), 1u);
  EXPECT_EQ(r.series[0].values[0][1].as_int(), 4);
}

TEST_F(QueryExec, FillModes) {
  // h1 has no sample in [50,60) window; with bounds + fill the grid is full.
  auto r = run("SELECT mean(v) FROM m WHERE hostname='h1' AND time >= 0 AND time < 60s "
               "GROUP BY time(10s) fill(0)");
  ASSERT_EQ(r.series[0].values.size(), 6u);
  EXPECT_DOUBLE_EQ(r.series[0].values[0][1].as_double(), 0.0);  // [0,10) empty
  EXPECT_DOUBLE_EQ(r.series[0].values[5][1].as_double(), 0.0);  // [50,60) empty

  r = run("SELECT mean(v) FROM m WHERE hostname='h1' AND time >= 0 AND time < 60s "
          "GROUP BY time(10s) fill(previous)");
  EXPECT_DOUBLE_EQ(r.series[0].values[5][1].as_double(), 4.0);

  r = run("SELECT mean(v) FROM m WHERE hostname='h1' AND time >= 0 AND time < 60s "
          "GROUP BY time(10s) fill(null)");
  EXPECT_TRUE(is_null_cell(r.series[0].values[0][1]));

  // fill(none): empty windows dropped.
  r = run("SELECT mean(v) FROM m WHERE hostname='h1' AND time >= 0 AND time < 60s "
          "GROUP BY time(10s)");
  EXPECT_EQ(r.series[0].values.size(), 4u);
}

TEST_F(QueryExec, OrderDescAndLimit) {
  const auto r = run("SELECT v FROM m WHERE hostname='h1' ORDER BY time DESC LIMIT 2");
  ASSERT_EQ(r.series[0].values.size(), 2u);
  EXPECT_DOUBLE_EQ(r.series[0].values[0][1].as_double(), 4.0);
  EXPECT_DOUBLE_EQ(r.series[0].values[1][1].as_double(), 3.0);
}

TEST_F(QueryExec, Derivative) {
  // v goes 1,2,3,4 at 10s spacing -> derivative 0.1/s.
  const auto r = run("SELECT derivative(v, 1s) FROM m WHERE hostname='h1'");
  ASSERT_EQ(r.series[0].values.size(), 3u);
  for (const auto& row : r.series[0].values) {
    EXPECT_NEAR(row[1].as_double(), 0.1, 1e-12);
  }
}

TEST_F(QueryExec, RateClampsNegative) {
  Database db("t2");
  db.write(pt("c", "h", "v", 100, 10 * kSec), 0);
  db.write(pt("c", "h", "v", 50, 20 * kSec), 0);  // counter reset
  db.write(pt("c", "h", "v", 80, 30 * kSec), 0);
  auto stmt = parse_query("SELECT rate(v, 1s) FROM c", 0);
  auto r = execute(db, *stmt);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->series[0].values.size(), 2u);
  EXPECT_DOUBLE_EQ(r->series[0].values[0][1].as_double(), 0.0);  // clamped
  EXPECT_DOUBLE_EQ(r->series[0].values[1][1].as_double(), 3.0);
}

TEST_F(QueryExec, EmptyResultForUnknownMeasurement) {
  const auto r = run("SELECT v FROM nothere");
  EXPECT_TRUE(r.series.empty());
}

TEST_F(QueryExec, TimeEquality) {
  const auto r = run("SELECT v FROM m WHERE hostname='h1' AND time = 20s");
  ASSERT_EQ(r.series.size(), 1u);
  ASSERT_EQ(r.series[0].values.size(), 1u);
  EXPECT_DOUBLE_EQ(r.series[0].values[0][1].as_double(), 2.0);
}

TEST_F(QueryExec, TagGlobMatching) {
  db_.write(pt("m", "node17", "v", 7, 10 * kSec), 0);
  auto r = run("SELECT count(v) FROM m WHERE hostname =~ 'h*'");
  ASSERT_EQ(r.series.size(), 1u);
  EXPECT_EQ(r.series[0].values[0][1].as_int(), 5);  // h1 (4 samples) + h2 (1)
  r = run("SELECT count(v) FROM m WHERE hostname !~ 'h?'");
  EXPECT_EQ(r.series[0].values[0][1].as_int(), 1);  // only node17
  // Glob combined with an indexed equality.
  r = run("SELECT count(v) FROM m WHERE hostname =~ '*' AND hostname = 'h1'");
  EXPECT_EQ(r.series[0].values[0][1].as_int(), 4);
}

TEST_F(QueryExec, ShowSeries) {
  auto stmt = parse_query("SHOW SERIES FROM m", 0);
  ASSERT_TRUE(stmt.ok());
  auto r = execute(db_, *stmt);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->series.size(), 1u);
  ASSERT_EQ(r->series[0].values.size(), 2u);
  EXPECT_EQ(r->series[0].values[0][0].as_string(), "m,hostname=h1");
  EXPECT_EQ(r->series[0].values[1][0].as_string(), "m,hostname=h2");
  // Without FROM: all measurements.
  stmt = parse_query("SHOW SERIES", 0);
  ASSERT_TRUE(stmt.ok());
  r = execute(db_, *stmt);
  EXPECT_EQ(r->series[0].values.size(), 2u);
}

TEST_F(QueryExec, MeasurementGlob) {
  db_.write(pt("likwid_mem", "h1", "v", 7, 10 * kSec), 0);
  db_.write(pt("likwid_l2", "h1", "v", 8, 10 * kSec), 0);
  // Bare trailing star form.
  auto r = run("SELECT mean(v) FROM likwid_* ");
  ASSERT_EQ(r.series.size(), 2u);
  EXPECT_EQ(r.series[0].name, "likwid_l2");
  EXPECT_EQ(r.series[1].name, "likwid_mem");
  // Quoted arbitrary glob.
  r = run("SELECT mean(v) FROM \"likwid_m*\"");
  ASSERT_EQ(r.series.size(), 1u);
  EXPECT_EQ(r.series[0].name, "likwid_mem");
  // Glob with no match: empty result.
  r = run("SELECT v FROM zz_*");
  EXPECT_TRUE(r.series.empty());
}

TEST_F(QueryExec, StringFieldsSelectable) {
  db_.write(make_point("events", "text", std::string("job start"), 5 * kSec,
                       {{"jobid", "7"}}),
            0);
  const auto r = run("SELECT text FROM events WHERE jobid='7'");
  ASSERT_EQ(r.series.size(), 1u);
  EXPECT_EQ(r.series[0].values[0][1].as_string(), "job start");
}

// Property: windowed counts partition the total count.
class WindowPartition : public ::testing::TestWithParam<int> {};

TEST_P(WindowPartition, CountsSumToTotal) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  Database db("prop");
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    db.write(pt("m", "h1", "v", rng.normal(0, 1),
                rng.uniform_int(0, 1000) * kSec),
             0);
  }
  for (const TimeNs window : {7 * kSec, 10 * kSec, 33 * kSec, 100 * kSec}) {
    Statement stmt;
    stmt.select.fields.push_back(FieldExpr{Aggregator::kCount, "v", "count", 0, 0});
    stmt.select.measurement = "m";
    stmt.select.time_min = 0;
    stmt.select.time_max = 1001 * kSec;
    stmt.select.group_by_time = window;
    auto r = execute(db, stmt);
    ASSERT_TRUE(r.ok());
    std::int64_t total = 0;
    for (const auto& row : r->series[0].values) total += row[1].as_int();
    EXPECT_EQ(total, n) << "window " << window;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WindowPartition, ::testing::Range(1, 6));

// ---------------------------------------------------------------- engine+api

TEST(HttpApiTest, WriteQueryPingStats) {
  Storage storage;
  util::SimClock clock(1000 * kSec);
  HttpApi api(storage, clock);
  net::InprocNetwork net;
  net.bind("db", api.handler());
  net::InprocHttpClient client(net);

  // Write a batch.
  auto resp = client.post("inproc://db/write?db=lms",
                          "cpu,hostname=h1 user=42 " + std::to_string(990 * kSec) +
                              "\ncpu,hostname=h1 user=44 " + std::to_string(995 * kSec) + "\n",
                          "text/plain");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 204);
  EXPECT_EQ(api.points_written(), 2u);

  // Ping.
  EXPECT_EQ(client.get("inproc://db/ping")->status, 204);

  // Query through the API.
  resp = client.get("inproc://db/query?db=lms&q=" +
                    util::url_encode("SELECT mean(user) FROM cpu"));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 200);
  auto body = json::parse(resp->body);
  ASSERT_TRUE(body.ok()) << resp->body;
  EXPECT_DOUBLE_EQ(
      (*body)["results"][0]["series"][0]["values"][0][1].as_double(), 43.0);

  // Unstamped write gets the clock's now.
  client.post("inproc://db/write?db=lms", "mem,hostname=h1 used=1", "text/plain");
  resp = client.get("inproc://db/query?db=lms&q=" + util::url_encode("SELECT used FROM mem"));
  body = json::parse(resp->body);
  EXPECT_EQ((*body)["results"][0]["series"][0]["values"][0][0].as_int(), 1000 * kSec);

  // Stats endpoint.
  resp = client.get("inproc://db/stats");
  body = json::parse(resp->body);
  EXPECT_EQ((*body)["points_written"].as_int(), 3);
}

TEST(HttpApiTest, ErrorsAreInfluxJson) {
  Storage storage;
  util::SimClock clock(0);
  HttpApi api(storage, clock);
  net::InprocNetwork net;
  net.bind("db", api.handler());
  net::InprocHttpClient client(net);

  auto resp = client.get("inproc://db/query?db=lms&q=" + util::url_encode("BOGUS"));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 400);
  EXPECT_TRUE((*json::parse(resp->body))["error"].is_string());

  resp = client.get("inproc://db/query?db=lms");
  EXPECT_EQ(resp->status, 400);

  resp = client.post("inproc://db/write?db=lms", "totally broken", "text/plain");
  EXPECT_EQ(resp->status, 400);
  EXPECT_EQ(api.parse_errors(), 1u);
}

TEST(HttpApiTest, LenientWriteKeepsGoodLines) {
  Storage storage;
  util::SimClock clock(0);
  HttpApi api(storage, clock);
  net::InprocNetwork net;
  net.bind("db", api.handler());
  net::InprocHttpClient client(net);
  auto resp = client.post("inproc://db/write?db=lms", "cpu u=1\nbroken\ncpu u=2", "text/plain");
  EXPECT_EQ(resp->status, 204);  // good lines stored
  EXPECT_EQ(api.points_written(), 2u);
  EXPECT_EQ(api.parse_errors(), 1u);
}

TEST(HttpApiTest, RetentionEnforcement) {
  Storage storage;
  util::SimClock clock(1000 * kSec);
  HttpApi::Options opts;
  opts.retention = 100 * kSec;
  HttpApi api(storage, clock, opts);
  storage.write("lms", {pt("m", "h1", "v", 1, 800 * kSec), pt("m", "h1", "v", 2, 950 * kSec)},
                0);
  EXPECT_EQ(api.enforce_retention(), 1u);  // 800s is older than 1000-100
  EXPECT_EQ(storage.find_database("lms")->sample_count(), 1u);
}

TEST(HttpApiTest, DumpEndpointReturnsLineProtocol) {
  Storage storage;
  util::SimClock clock(0);
  HttpApi api(storage, clock);
  net::InprocNetwork net;
  net.bind("db", api.handler());
  net::InprocHttpClient client(net);
  client.post("inproc://db/write?db=lms", "cpu,hostname=h1 user=42 1000\n", "text/plain");
  auto resp = client.get("inproc://db/dump?db=lms");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(resp->body, "cpu,hostname=h1 user=42 1000\n");
  // The dump re-imports cleanly.
  EXPECT_TRUE(lineproto::parse(resp->body).ok());
  EXPECT_EQ(client.get("inproc://db/dump?db=missing")->status, 404);
}

TEST(EngineTest, ShowDatabasesAndMissingDb) {
  Storage storage;
  storage.write("alpha", {pt("m", "h", "v", 1, 10)}, 0);
  Engine engine(storage);
  auto r = engine.query("ignored", "SHOW DATABASES", 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->series[0].values[0][0].as_string(), "alpha");
  EXPECT_FALSE(engine.query("missing", "SELECT v FROM m", 0).ok());
}

TEST(InfluxJson, SerializesTagsAndNulls) {
  QueryResult qr;
  ResultSeries rs;
  rs.name = "m";
  rs.tags = {{"hostname", "h1"}};
  rs.columns = {"time", "mean"};
  rs.values.push_back({FieldValue(std::int64_t{10}), null_cell()});
  qr.series.push_back(rs);
  const auto parsed = json::parse(to_influx_json(qr));
  ASSERT_TRUE(parsed.ok());
  const auto& series = (*parsed)["results"][0]["series"][0];
  EXPECT_EQ(series["tags"]["hostname"].as_string(), "h1");
  EXPECT_TRUE(series["values"][0][1].is_null());
}

// ------------------------------------------------- sharding & snapshots

TEST(Storage, SnapshotProvidesStableView) {
  Storage storage;
  EXPECT_FALSE(storage.snapshot("nope"));
  storage.write("lms", {pt("cpu", "h1", "v", 1, 10), pt("cpu", "h2", "v", 2, 20)}, 0);
  ReadSnapshot snap = storage.snapshot("lms");
  ASSERT_TRUE(snap);
  EXPECT_EQ(snap->sample_count(), 2u);
  EXPECT_EQ(snap->series_count(), 2u);
  const auto series = snap->series_matching("cpu", {{"hostname", "h1"}});
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0]->columns.at("v").size(), 1u);
  snap.release();
  EXPECT_FALSE(snap);
}

TEST(Storage, ShardedDatabaseKeepsGlobalViewsSorted) {
  Database db("t", 8);
  EXPECT_EQ(db.shard_count(), 8u);
  for (int i = 0; i < 64; ++i) {
    db.write(pt("cpu", "h" + std::to_string(i), "v", 1, 10 + i), 0);
    db.write(pt("mem", "h" + std::to_string(i), "used", 1, 10 + i), 0);
  }
  EXPECT_EQ(db.series_count(), 128u);
  EXPECT_EQ(db.sample_count(), 128u);
  // Cross-shard merges stay sorted and duplicate-free.
  EXPECT_EQ(db.measurements(), (std::vector<std::string>{"cpu", "mem"}));
  EXPECT_EQ(db.tag_values("cpu", "hostname").size(), 64u);
  const auto hosts = db.tag_values("cpu", "hostname");
  EXPECT_TRUE(std::is_sorted(hosts.begin(), hosts.end()));
  EXPECT_EQ(db.field_keys("mem"), (std::vector<std::string>{"used"}));
  // Retention sweeps every stripe.
  EXPECT_EQ(db.drop_before(10 + 32), 64u);
  EXPECT_EQ(db.series_count(), 64u);
}

TEST(Storage, WriteBatchAppliesPrecisionScaleAndDefaultTime) {
  Storage storage;
  WriteBatch batch;
  batch.db = "lms";
  batch.default_time = 777;
  batch.timestamp_scale = kSec;  // precision=s
  batch.points = {pt("cpu", "h1", "v", 1, 5), pt("cpu", "h1", "v", 2, 0)};
  storage.write(batch);
  const ReadSnapshot snap = storage.snapshot("lms");
  ASSERT_TRUE(snap);
  const auto series = snap->series_of("cpu");
  ASSERT_EQ(series.size(), 1u);
  const auto& times = series[0]->columns.at("v").times();
  // 5s scaled to ns; the unstamped point gets default_time unscaled.
  EXPECT_EQ(times, (std::vector<TimeNs>{777, 5 * kSec}));
}

TEST(Storage, SingleStripeConfigStillWorks) {
  Storage storage(1);  // the pre-sharding global-lock layout
  storage.write("lms", {pt("cpu", "h1", "v", 1, 10), pt("cpu", "h2", "v", 2, 20)}, 0);
  EXPECT_EQ(storage.find_database("lms")->shard_count(), 1u);
  EXPECT_EQ(storage.totals().series, 2u);
  Engine engine(storage);
  auto r = engine.query("lms", "SELECT count(v) FROM cpu", 0);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->series.size(), 1u);
  EXPECT_EQ(r->series[0].values[0][1].as_int(), 2);
}

// Concurrent writers + queries + retention on one sharded database. Sized to
// finish quickly under tsan (which also runs this suite via ci/sanitize.sh);
// the point is the interleaving, not the volume.
TEST(Storage, ConcurrentWritersQueriesRetention) {
  Storage storage;
  storage.database("lms");  // pre-create so readers never miss the db
  Engine engine(storage);
  constexpr int kWriters = 4;
  constexpr int kPointsPerWriter = 400;
  std::atomic<bool> stop{false};
  std::atomic<int> queries_ok{0};

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&storage, w] {
      for (int i = 0; i < kPointsPerWriter; ++i) {
        const TimeNs t = TimeNs(i + 1) * kSec;
        storage.write("lms",
                      {pt("cpu", "h" + std::to_string(w * 7 + i % 13), "v", i, t)}, 0);
      }
    });
  }
  std::thread reader([&] {
    while (!stop.load()) {
      const ReadSnapshot snap = storage.snapshot("lms");
      ASSERT_TRUE(snap);
      // Sum over whatever is visible; must never crash or race.
      auto r = execute(snap, *parse_query("SELECT count(v) FROM cpu", 0));
      if (r.ok()) queries_ok.fetch_add(1);
      (void)snap->sample_count();
    }
  });
  std::thread sweeper([&] {
    while (!stop.load()) {
      storage.drop_before(50 * kSec);
      std::this_thread::yield();
    }
  });

  for (auto& t : writers) t.join();
  // Under load (parallel ctest, 1-core CI) the reader may not have won a
  // snapshot while writers ran; let it finish at least one uncontended query
  // before stopping so the queries_ok assertion is deterministic.
  while (queries_ok.load() == 0) std::this_thread::yield();
  stop.store(true);
  reader.join();
  sweeper.join();

  // Retention may have swept anything older than 50s; everything newer must
  // have survived all interleavings.
  storage.drop_before(50 * kSec);
  const ReadSnapshot snap = storage.snapshot("lms");
  ASSERT_TRUE(snap);
  std::size_t expect = 0;
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kPointsPerWriter; ++i) {
      if (TimeNs(i + 1) * kSec >= 50 * kSec) ++expect;
    }
  }
  EXPECT_EQ(snap->sample_count(), expect);
  EXPECT_GT(queries_ok.load(), 0);
}

// ------------------------------------------------- shared write parsing

TEST(IngestParse, PrecisionTable) {
  EXPECT_EQ(*parse_precision(""), 1);
  EXPECT_EQ(*parse_precision("ns"), 1);
  EXPECT_EQ(*parse_precision("u"), util::kNanosPerMicro);
  EXPECT_EQ(*parse_precision("us"), util::kNanosPerMicro);
  EXPECT_EQ(*parse_precision("ms"), util::kNanosPerMilli);
  EXPECT_EQ(*parse_precision("s"), kSec);
  EXPECT_EQ(*parse_precision("m"), util::kNanosPerMinute);
  EXPECT_EQ(*parse_precision("h"), util::kNanosPerHour);
  EXPECT_FALSE(parse_precision("fortnight").ok());
}

TEST(IngestParse, WriteRequestCarriesDbPrecisionAndErrors) {
  net::HttpRequest req =
      net::HttpRequest::post("/write", "cpu,hostname=h1 v=1 5\nbroken\n", "text/plain");
  req.query.set("db", "mydb");
  req.query.set("precision", "s");
  auto parsed = parse_write_request(req, "lms", 123);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->batch.db, "mydb");
  EXPECT_EQ(parsed->batch.timestamp_scale, kSec);
  EXPECT_EQ(parsed->batch.default_time, 123);
  EXPECT_EQ(parsed->batch.points.size(), 1u);
  EXPECT_EQ(parsed->errors.size(), 1u);

  net::HttpRequest bad = net::HttpRequest::post("/write", "nothing parses", "text/plain");
  EXPECT_FALSE(parse_write_request(bad, "lms", 0).ok());
  net::HttpRequest badp = net::HttpRequest::post("/write", "cpu v=1", "text/plain");
  badp.query.set("precision", "parsec");
  EXPECT_FALSE(parse_write_request(badp, "lms", 0).ok());
}

TEST(HttpApiTest, UnknownDatabase404WhenAutoCreateOff) {
  Storage storage;
  storage.database("lms");  // the one pre-created database
  util::SimClock clock(0);
  HttpApi::Options opts;
  opts.auto_create_dbs = false;
  HttpApi api(storage, clock, opts);
  net::InprocNetwork net;
  net.bind("db", api.handler());
  net::InprocHttpClient client(net);

  auto resp = client.post("inproc://db/write?db=ghost", "cpu v=1 10", "text/plain");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 404);
  EXPECT_EQ(resp->body, influx_error_json("database not found: \"ghost\""));
  EXPECT_EQ(storage.databases(), (std::vector<std::string>{"lms"}));

  EXPECT_EQ(client.post("inproc://db/write?db=lms", "cpu v=1 10", "text/plain")->status, 204);
  EXPECT_EQ(api.points_written(), 1u);
}

// ----------------------------------------------- query-engine introspection

TEST(QueryStatsTest, GroundTruthCountsAndExplainParity) {
  Storage storage;
  // Known shape: cpu has 3 series x 10 points, mem has 1 series x 5 points.
  std::vector<Point> points;
  for (const char* host : {"h1", "h2", "h3"}) {
    for (int i = 1; i <= 10; ++i) points.push_back(pt("cpu", host, "v", i, i * kSec));
  }
  for (int i = 1; i <= 5; ++i) points.push_back(pt("mem", "h1", "v", i, i * kSec));
  storage.write("lms", points, 0);
  Engine engine(storage);

  QueryStats stats;
  auto r = engine.query("lms", "SELECT mean(v) FROM cpu", 1000 * kSec, &stats);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->series.empty());
  EXPECT_EQ(stats.measurements_scanned, 1u);
  EXPECT_EQ(stats.series_scanned, 3u);
  EXPECT_EQ(stats.points_examined, 30u);
  EXPECT_GE(stats.shards_touched, 1u);
  EXPECT_LE(stats.shards_touched, 3u);

  // Tag filtering prunes via the index before any points are gathered.
  QueryStats filtered;
  r = engine.query("lms", "SELECT mean(v) FROM cpu WHERE hostname='h1'", 1000 * kSec,
                   &filtered);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(filtered.series_scanned, 1u);
  EXPECT_EQ(filtered.points_examined, 10u);
  EXPECT_EQ(filtered.shards_touched, 1u);

  // A measurement glob scans both measurements.
  QueryStats globbed;
  r = engine.query("lms", "SELECT mean(v) FROM \"*\"", 1000 * kSec, &globbed);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(globbed.measurements_scanned, 2u);
  EXPECT_EQ(globbed.series_scanned, 4u);
  EXPECT_EQ(globbed.points_examined, 35u);

  // EXPLAIN walks exactly the same series and counts exactly the same
  // points, but materializes nothing.
  QueryStats explained;
  r = engine.query("lms", "EXPLAIN SELECT mean(v) FROM cpu", 1000 * kSec, &explained);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->series.empty());
  EXPECT_EQ(explained.measurements_scanned, stats.measurements_scanned);
  EXPECT_EQ(explained.series_scanned, stats.series_scanned);
  EXPECT_EQ(explained.points_examined, stats.points_examined);
  EXPECT_EQ(explained.shards_touched, stats.shards_touched);
}

TEST(HttpApiTest, ExplainEndpointReturnsStatsNotRows) {
  Storage storage;
  util::SimClock clock(1000 * kSec);
  HttpApi api(storage, clock);
  net::InprocNetwork net;
  net.bind("db", api.handler());
  net::InprocHttpClient client(net);
  client.post("inproc://db/write?db=lms",
              "cpu,hostname=h1 v=1 " + std::to_string(990 * kSec) + "\ncpu,hostname=h2 v=2 " +
                  std::to_string(995 * kSec) + "\n",
              "text/plain");

  auto resp = client.get("inproc://db/query?db=lms&q=" +
                         util::url_encode("EXPLAIN SELECT mean(v) FROM cpu"));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 200);
  auto body = json::parse(resp->body);
  ASSERT_TRUE(body.ok()) << resp->body;
  const json::Value& series = (*body)["results"][0]["series"][0];
  EXPECT_EQ(series["name"].as_string(), "explain");
  ASSERT_EQ(series["values"].get_array().size(), 1u);
  // columns: measurements_scanned, series_scanned, points_examined, shards.
  EXPECT_EQ(series["columns"][0].as_string(), "measurements_scanned");
  EXPECT_EQ(series["values"][0][0].as_int(), 1);
  EXPECT_EQ(series["values"][0][1].as_int(), 2);  // two cpu series
  EXPECT_EQ(series["values"][0][2].as_int(), 2);  // two points examined
  EXPECT_GE(series["values"][0][3].as_int(), 1);

  // Case-insensitive keyword; "explainx" is not EXPLAIN.
  resp = client.get("inproc://db/query?db=lms&q=" +
                    util::url_encode("explain SELECT mean(v) FROM cpu"));
  EXPECT_EQ(resp->status, 200);
  EXPECT_NE(resp->body.find("\"explain\""), std::string::npos);
  resp = client.get("inproc://db/query?db=lms&q=" +
                    util::url_encode("explainx SELECT mean(v) FROM cpu"));
  EXPECT_EQ(resp->status, 400);
}

TEST(HttpApiTest, SlowQueryRingCapturesStatsAndEvicts) {
  Storage storage;
  util::SimClock clock(1000 * kSec);
  HttpApi::Options opts;
  opts.slow_query_threshold = 1;  // every real query is slower than 1ns
  opts.slow_query_capacity = 2;
  HttpApi api(storage, clock, opts);
  net::InprocNetwork net;
  net.bind("db", api.handler());
  net::InprocHttpClient client(net);
  client.post("inproc://db/write?db=lms", "cpu,hostname=h1 v=1 " + std::to_string(990 * kSec),
              "text/plain");

  for (const char* q : {"SELECT mean(v) FROM cpu", "SELECT max(v) FROM cpu",
                        "SELECT min(v) FROM cpu"}) {
    ASSERT_EQ(client.get("inproc://db/query?db=lms&q=" + util::url_encode(q))->status, 200);
  }

  // Capacity 2: the oldest entry was evicted; newest first.
  const auto ring = api.slow_query_ring();
  ASSERT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring[0].query, "SELECT min(v) FROM cpu");
  EXPECT_EQ(ring[1].query, "SELECT max(v) FROM cpu");
  EXPECT_EQ(ring[0].db, "lms");
  EXPECT_GE(ring[0].duration_ns, 1);
  EXPECT_EQ(ring[0].stats.series_scanned, 1u);
  EXPECT_EQ(ring[0].stats.points_examined, 1u);
  EXPECT_EQ(ring[0].wall_ns, 1000 * kSec);
  EXPECT_EQ(api.slow_queries(), 3u);

  auto resp = client.get("inproc://db/debug/slow_queries");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 200);
  auto body = json::parse(resp->body);
  ASSERT_TRUE(body.ok()) << resp->body;
  EXPECT_EQ((*body)["threshold_ns"].as_int(), 1);
  ASSERT_EQ((*body)["slow_queries"].get_array().size(), 2u);
  EXPECT_EQ((*body)["slow_queries"][0]["query"].as_string(), "SELECT min(v) FROM cpu");
  EXPECT_EQ((*body)["slow_queries"][0]["stats"]["points_examined"].as_int(), 1);
}

TEST(HttpApiTest, SlowQueryRingDisabledByZeroThreshold) {
  Storage storage;
  util::SimClock clock(0);
  HttpApi::Options opts;
  opts.slow_query_threshold = 0;
  HttpApi api(storage, clock, opts);
  net::InprocNetwork net;
  net.bind("db", api.handler());
  net::InprocHttpClient client(net);
  client.post("inproc://db/write?db=lms", "cpu v=1 10", "text/plain");
  ASSERT_EQ(client.get("inproc://db/query?db=lms&q=" +
                       util::url_encode("SELECT mean(v) FROM cpu"))
                ->status,
            200);
  EXPECT_TRUE(api.slow_query_ring().empty());
  EXPECT_EQ(api.slow_queries(), 0u);
}

TEST(HttpApiTest, DebugLogsServedWhenRingWired) {
  Storage storage;
  util::SimClock clock(0);
  util::LogRing ring(8);
  HttpApi::Options opts;
  opts.log_ring = &ring;
  HttpApi api(storage, clock, opts);
  net::InprocNetwork net;
  net.bind("db", api.handler());
  net::InprocHttpClient client(net);

  ring.sink()(util::LogLevel::kWarn, "tsdb", "compaction behind", 0xabcULL);
  auto resp = client.get("inproc://db/debug/logs");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 200);
  auto body = json::parse(resp->body);
  ASSERT_TRUE(body.ok()) << resp->body;
  ASSERT_EQ((*body)["entries"].get_array().size(), 1u);
  EXPECT_EQ((*body)["entries"][0]["message"].as_string(), "compaction behind");
  EXPECT_EQ((*body)["entries"][0]["trace_id"].as_string(), "0000000000000abc");

  // Filter by trace: a match, a non-match, and a malformed id.
  EXPECT_NE(client.get("inproc://db/debug/logs?trace=0000000000000abc")
                ->body.find("compaction behind"),
            std::string::npos);
  auto miss = client.get("inproc://db/debug/logs?trace=0000000000000fff");
  EXPECT_EQ((*json::parse(miss->body))["entries"].get_array().size(), 0u);
  EXPECT_EQ(client.get("inproc://db/debug/logs?trace=xyz")->status, 400);

  // No ring wired: the endpoint does not exist.
  HttpApi bare(storage, clock);
  net::InprocNetwork net2;
  net2.bind("db", bare.handler());
  net::InprocHttpClient client2(net2);
  EXPECT_EQ(client2.get("inproc://db/debug/logs")->status, 404);
}

// ------------------------------------------------------------ trace assembly

/// Store one exported span (as the TraceExporter would write it) directly.
void store_span(Storage& storage, std::uint64_t trace_id, std::uint64_t span_id,
                std::uint64_t parent, const char* name, TimeNs start, std::int64_t duration,
                bool ok = true, const char* note = "", const char* component = "test",
                const char* host = "h1") {
  obs::SpanRecord rec;
  rec.trace_id = trace_id;
  rec.span_id = span_id;
  rec.parent_span_id = parent;
  rec.name = name;
  rec.component = component;
  rec.start_wall_ns = start;
  rec.duration_ns = duration;
  rec.ok = ok;
  rec.note = note;
  storage.write("lms", {obs::span_to_point(rec, obs::kTraceMeasurement, host)}, 0);
}

TEST(TraceAssembly, BuildsOrderedTreeWithGapAnalysis) {
  Storage storage;
  constexpr std::uint64_t kTrace = 0xfeedULL;
  // root [1000, 1100); children c1 [1010, 1060) and c2 [1040, 1080) overlap:
  // merged coverage 70ns -> self 30ns; gaps 10ns (before c1) and 20ns (after
  // c2) -> largest 20ns.
  store_span(storage, kTrace, 1, 0, "root", 1000, 100);
  store_span(storage, kTrace, 3, 1, "late_child", 1040, 40);
  store_span(storage, kTrace, 2, 1, "early_child", 1010, 50, false, "deadline exceeded");
  store_span(storage, 0xbeefULL, 9, 0, "unrelated", 500, 10);

  const TraceTree tree = assemble_trace(storage.snapshot("lms"), kTrace);
  EXPECT_EQ(tree.trace_id, kTrace);
  EXPECT_EQ(tree.span_count, 3u);
  EXPECT_EQ(tree.malformed_spans, 0u);
  ASSERT_EQ(tree.roots.size(), 1u);
  const TraceNode& root = tree.roots[0];
  EXPECT_EQ(root.name, "root");
  EXPECT_FALSE(root.orphan);
  ASSERT_EQ(root.children.size(), 2u);
  EXPECT_EQ(root.children[0].name, "early_child");  // sorted by start_ns
  EXPECT_EQ(root.children[1].name, "late_child");
  EXPECT_FALSE(root.children[0].ok);
  EXPECT_EQ(root.children[0].note, "deadline exceeded");
  EXPECT_EQ(root.self_ns, 30);
  EXPECT_EQ(root.largest_gap_ns, 20);
  // Leaves: self time is the whole span, no gaps.
  EXPECT_EQ(root.children[0].self_ns, 50);
  EXPECT_EQ(root.children[0].largest_gap_ns, 0);

  const std::string json_text = trace_tree_to_json(tree);
  EXPECT_NE(json_text.find("\"span_count\":3"), std::string::npos);
  EXPECT_NE(json_text.find("\"self_ns\":30"), std::string::npos);

  const std::string waterfall = trace_tree_to_waterfall(tree);
  EXPECT_NE(waterfall.find("3 spans"), std::string::npos);
  EXPECT_NE(waterfall.find("root (test@h1) 100ns self=30ns"), std::string::npos);
  EXPECT_NE(waterfall.find("ERROR [deadline exceeded]"), std::string::npos);
  EXPECT_NE(waterfall.find('#'), std::string::npos);
  // Children are indented one level below the root.
  EXPECT_NE(waterfall.find("|   early_child"), std::string::npos);
}

TEST(TraceAssembly, OrphansCyclesDuplicatesAndMalformedRecords) {
  Storage storage;
  constexpr std::uint64_t kTrace = 0xc0ffeeULL;
  // A span whose parent never got exported: shown as an orphan root.
  store_span(storage, kTrace, 5, 99, "orphaned", 2000, 10);
  // A parent cycle (malformed export): assembly must terminate and keep both.
  store_span(storage, kTrace, 6, 7, "cycle_a", 2100, 10);
  store_span(storage, kTrace, 7, 6, "cycle_b", 2200, 10);
  // A record that is not valid JSON, and one whose span field is not a string.
  Point bad = make_point(std::string(obs::kTraceMeasurement), "span", 123.0, 2300,
                         {{"trace_id", obs::trace_id_hex(kTrace)}, {"component", "test"}});
  storage.write("lms", {bad}, 0);
  Point garbled;
  garbled.measurement = std::string(obs::kTraceMeasurement);
  garbled.set_tag("trace_id", obs::trace_id_hex(kTrace));
  garbled.add_field("span", "this is not json");
  garbled.timestamp = 2400;
  garbled.normalize();
  storage.write("lms", {garbled}, 0);

  const TraceTree tree = assemble_trace(storage.snapshot("lms"), kTrace);
  EXPECT_EQ(tree.span_count, 3u);
  EXPECT_EQ(tree.malformed_spans, 2u);
  ASSERT_GE(tree.roots.size(), 2u);
  EXPECT_EQ(tree.roots[0].name, "orphaned");
  EXPECT_TRUE(tree.roots[0].orphan);
  // The cycle pair surfaced exactly once each (visited-set break).
  std::size_t total = 0;
  std::function<void(const TraceNode&)> count = [&](const TraceNode& n) {
    ++total;
    for (const auto& c : n.children) count(c);
  };
  for (const auto& r : tree.roots) count(r);
  EXPECT_EQ(total, 3u);
  EXPECT_NE(trace_tree_to_json(tree).find("\"malformed_spans\":2"), std::string::npos);
}

TEST(TraceAssembly, EmptyTraceAndMissingSnapshot) {
  Storage storage;
  storage.database("lms");
  const TraceTree empty = assemble_trace(storage.snapshot("lms"), 0x123ULL);
  EXPECT_EQ(empty.span_count, 0u);
  EXPECT_TRUE(empty.roots.empty());
  const TraceTree no_db = assemble_trace(storage.snapshot("ghost"), 0x123ULL);
  EXPECT_EQ(no_db.span_count, 0u);
  EXPECT_NE(trace_tree_to_waterfall(empty).find("0 spans"), std::string::npos);
}

TEST(HttpApiTest, DebugRuntimeEndpointServesContentionReport) {
  Storage storage;
  util::SimClock clock(1000 * kSec);
  HttpApi api(storage, clock);
  net::InprocNetwork net;
  net.bind("db", api.handler());
  net::InprocHttpClient client(net);

  auto resp = client.get("inproc://db/debug/runtime");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(resp->headers.get_or("Content-Type", ""), "application/json");
  auto body = json::parse(resp->body);
  ASSERT_TRUE(body.ok()) << resp->body;
  EXPECT_TRUE((*body)["lock_stats"].is_object());
  EXPECT_TRUE((*body)["lock_stats"]["sites"].is_array());
  EXPECT_TRUE((*body)["queues"].is_array());
  EXPECT_TRUE((*body)["loops"].is_array());
  EXPECT_EQ((*body)["lock_stats"]["compiled"].as_bool(), core::sync::kLockStatsEnabled);
}

}  // namespace
}  // namespace lms::tsdb
