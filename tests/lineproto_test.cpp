// Unit and property tests for the InfluxDB line protocol codec — the wire
// format every hop of the stack depends on.

#include <gtest/gtest.h>

#include <limits>

#include "lms/lineproto/codec.hpp"
#include "lms/util/rng.hpp"

namespace lms::lineproto {
namespace {

TEST(FieldValue, Accessors) {
  EXPECT_DOUBLE_EQ(FieldValue(2.5).as_double(), 2.5);
  EXPECT_EQ(FieldValue(std::int64_t{7}).as_int(), 7);
  EXPECT_EQ(FieldValue(true).as_bool(), true);
  EXPECT_EQ(FieldValue("ev").as_string(), "ev");
  // Cross-type conversions.
  EXPECT_DOUBLE_EQ(FieldValue(std::int64_t{3}).as_double(), 3.0);
  EXPECT_EQ(FieldValue(2.9).as_int(), 2);
  EXPECT_TRUE(FieldValue(1.0).as_bool());
  EXPECT_EQ(FieldValue(2.5).as_string(), "2.5");
  EXPECT_EQ(FieldValue(false).as_string(), "false");
}

TEST(Point, TagOperations) {
  Point p;
  p.measurement = "cpu";
  p.set_tag("hostname", "h1");
  p.set_tag("b", "2");
  p.set_tag("a", "1");
  EXPECT_EQ(p.tag("hostname"), "h1");
  EXPECT_EQ(p.hostname(), "h1");
  EXPECT_TRUE(p.has_tag("a"));
  EXPECT_FALSE(p.has_tag("zz"));
  p.set_tag("a", "9");  // overwrite
  EXPECT_EQ(p.tag("a"), "9");
  p.normalize();
  EXPECT_EQ(p.tags[0].first, "a");
  EXPECT_EQ(p.tags[2].first, "hostname");
}

TEST(Serialize, Basic) {
  Point p = make_point("cpu", "user", 42.5, 1234567890, {{"hostname", "h1"}});
  EXPECT_EQ(serialize(p), "cpu,hostname=h1 user=42.5 1234567890");
}

TEST(Serialize, FieldTypes) {
  Point p;
  p.measurement = "m";
  p.add_field("f", 1.5);
  p.add_field("i", std::int64_t{42});
  p.add_field("b", true);
  p.add_field("s", "text value");
  EXPECT_EQ(serialize(p), R"(m f=1.5,i=42i,b=true,s="text value")");
}

TEST(Serialize, Escaping) {
  Point p;
  p.measurement = "my measurement,x";
  p.set_tag("tag key", "va=l,ue");
  p.add_field("fi eld", "quote\" and \\ backslash");
  EXPECT_EQ(serialize(p),
            "my\\ measurement\\,x,tag\\ key=va\\=l\\,ue "
            "fi\\ eld=\"quote\\\" and \\\\ backslash\"");
}

TEST(Parse, Basic) {
  const auto p = parse_line("cpu,hostname=h1 user=42.5,idle=10 1234567890");
  ASSERT_TRUE(p.ok()) << p.message();
  EXPECT_EQ(p->measurement, "cpu");
  EXPECT_EQ(p->tag("hostname"), "h1");
  ASSERT_EQ(p->fields.size(), 2u);
  EXPECT_DOUBLE_EQ(p->field("user")->as_double(), 42.5);
  EXPECT_DOUBLE_EQ(p->field("idle")->as_double(), 10.0);
  EXPECT_EQ(p->timestamp, 1234567890);
}

TEST(Parse, NoTagsNoTimestamp) {
  const auto p = parse_line("mem used=1");
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->tags.empty());
  EXPECT_EQ(p->timestamp, 0);
}

TEST(Parse, ValueTypes) {
  const auto p = parse_line(R"(m f=1.5,i=42i,bt=true,bf=F,s="hello world")");
  ASSERT_TRUE(p.ok()) << p.message();
  EXPECT_TRUE(p->field("f")->is_double());
  EXPECT_TRUE(p->field("i")->is_int());
  EXPECT_EQ(p->field("i")->as_int(), 42);
  EXPECT_EQ(p->field("bt")->as_bool(), true);
  EXPECT_EQ(p->field("bf")->as_bool(), false);
  EXPECT_EQ(p->field("s")->as_string(), "hello world");
}

TEST(Parse, EscapedContent) {
  const auto p =
      parse_line("my\\ meas,k\\=ey=v\\,alue fi\\ eld=\"a \\\" b \\\\ c\" 77");
  ASSERT_TRUE(p.ok()) << p.message();
  EXPECT_EQ(p->measurement, "my meas");
  EXPECT_EQ(p->tag("k=ey"), "v,alue");
  EXPECT_EQ(p->field("fi eld")->as_string(), "a \" b \\ c");
  EXPECT_EQ(p->timestamp, 77);
}

TEST(Parse, Rejections) {
  EXPECT_FALSE(parse_line("").ok());
  EXPECT_FALSE(parse_line("measurement_only").ok());
  EXPECT_FALSE(parse_line("m,badtag value=1").ok());
  EXPECT_FALSE(parse_line("m,k= value=1").ok());
  EXPECT_FALSE(parse_line("m field=").ok());
  EXPECT_FALSE(parse_line("m f=\"unterminated").ok());
  EXPECT_FALSE(parse_line("m f=1 notanumber").ok());
  EXPECT_FALSE(parse_line("m f=12xy34").ok());
  EXPECT_FALSE(parse_line("m f=1 123 trailing").ok());
}

TEST(ParseBatch, MultiLineWithCommentsAndBlanks) {
  const auto points = parse("# comment\ncpu,hostname=h1 u=1\n\nmem,hostname=h1 m=2\n");
  ASSERT_TRUE(points.ok()) << points.message();
  EXPECT_EQ(points->size(), 2u);
}

TEST(ParseBatch, StrictFailsOnBadLine) {
  const auto points = parse("cpu u=1\nbadline\nmem m=2");
  EXPECT_FALSE(points.ok());
  EXPECT_NE(points.message().find("line 2"), std::string::npos);
}

TEST(ParseBatch, LenientSkipsBadLines) {
  std::vector<std::string> errors;
  const auto points = parse_lenient("cpu u=1\nbadline\nmem m=2", &errors);
  EXPECT_EQ(points.size(), 2u);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("line 2"), std::string::npos);
}

TEST(SerializeBatch, ConcatenatesWithNewlines) {
  std::vector<Point> pts;
  pts.push_back(make_point("a", "v", 1.0, 10));
  pts.push_back(make_point("b", "v", 2.0, 20));
  EXPECT_EQ(serialize_batch(pts), "a v=1 10\nb v=2 20\n");
  const auto re = parse(serialize_batch(pts));
  ASSERT_TRUE(re.ok());
  EXPECT_EQ(*re, pts);
}

// ------------------------------------------------- property: roundtrip

std::string random_identifier(util::Rng& rng, bool nasty) {
  static const char kPlain[] = "abcdefghij_0123456789";
  static const char kNasty[] = "abc ,=\"\\xyz";
  const char* alphabet = nasty ? kNasty : kPlain;
  const std::size_t alpha_len = (nasty ? sizeof(kNasty) : sizeof(kPlain)) - 1;
  std::string s;
  const int len = static_cast<int>(rng.uniform_int(1, 10));
  for (int i = 0; i < len; ++i) {
    s.push_back(alphabet[rng.uniform_int(0, static_cast<std::int64_t>(alpha_len) - 1)]);
  }
  return s;
}

Point random_point(util::Rng& rng, bool nasty) {
  Point p;
  p.measurement = random_identifier(rng, nasty);
  const int ntags = static_cast<int>(rng.uniform_int(0, 4));
  for (int i = 0; i < ntags; ++i) {
    // Unique tag keys (duplicate keys are not round-trip stable by design).
    p.set_tag("t" + std::to_string(i) + random_identifier(rng, nasty),
              random_identifier(rng, nasty));
  }
  const int nfields = static_cast<int>(rng.uniform_int(1, 4));
  for (int i = 0; i < nfields; ++i) {
    const std::string key = "f" + std::to_string(i) + random_identifier(rng, nasty);
    switch (rng.uniform_int(0, 3)) {
      case 0:
        p.add_field(key, rng.normal(0, 1e9));
        break;
      case 1:
        p.add_field(key, rng.uniform_int(-1'000'000'000, 1'000'000'000));
        break;
      case 2:
        p.add_field(key, rng.bernoulli(0.5));
        break;
      default:
        p.add_field(key, random_identifier(rng, nasty));
        break;
    }
  }
  p.timestamp = rng.uniform_int(1, 2'000'000'000'000'000'000LL);
  p.normalize();
  return p;
}

class LineProtoRoundTrip : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(LineProtoRoundTrip, SerializeParseIdentity) {
  const auto [seed, nasty] = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(seed));
  for (int i = 0; i < 100; ++i) {
    const Point p = random_point(rng, nasty);
    const std::string line = serialize(p);
    const auto reparsed = parse_line(line);
    ASSERT_TRUE(reparsed.ok()) << line << " -> " << reparsed.message();
    EXPECT_EQ(*reparsed, p) << line;
  }
}

/// A token for the stressed round trip: every character the protocol
/// escapes (backslash, comma, equals sign, space, double quote) is likely,
/// and about a third of the tokens are 16-17 characters long, just over the
/// 15-character small-string limit, so both string representations parse.
std::string stressed_token(util::Rng& rng) {
  static const char kAlphabet[] = "\\,= \"abcXYZ09_.";
  const std::size_t alpha_len = sizeof(kAlphabet) - 1;
  const int len = rng.bernoulli(0.35) ? static_cast<int>(rng.uniform_int(16, 17))
                                      : static_cast<int>(rng.uniform_int(1, 6));
  std::string s;
  for (int i = 0; i < len; ++i) {
    s.push_back(kAlphabet[rng.uniform_int(0, static_cast<std::int64_t>(alpha_len) - 1)]);
  }
  return s;
}

Point stressed_point(util::Rng& rng) {
  Point p;
  p.measurement = stressed_token(rng);
  const int ntags = static_cast<int>(rng.uniform_int(0, 4));
  for (int i = 0; i < ntags; ++i) {
    p.set_tag("t" + std::to_string(i) + stressed_token(rng), stressed_token(rng));
  }
  const int nfields = static_cast<int>(rng.uniform_int(1, 4));
  for (int i = 0; i < nfields; ++i) {
    const std::string key = "f" + std::to_string(i) + stressed_token(rng);
    switch (rng.uniform_int(0, 3)) {
      case 0:
        p.add_field(key, rng.normal(0, 1e12));
        break;
      case 1:
        p.add_field(key, rng.bernoulli(0.1) ? std::numeric_limits<std::int64_t>::min()
                                            : rng.uniform_int(-(1LL << 61), 1LL << 61));
        break;
      case 2:
        p.add_field(key, rng.bernoulli(0.5));
        break;
      default:  // string fields with escaped quotes and backslashes
        p.add_field(key, "\"" + stressed_token(rng) + "\\\"");
        break;
    }
  }
  p.timestamp = rng.bernoulli(0.1) ? 0 : rng.uniform_int(-1'000'000, 2'000'000'000'000'000'000LL);
  p.normalize();
  return p;
}

TEST_P(LineProtoRoundTrip, StressedBatchWithCrlfCommentsAndBlanks) {
  const auto [seed, crlf] = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(seed) * 7919);
  const std::string eol = crlf ? "\r\n" : "\n";
  for (int round = 0; round < 20; ++round) {
    std::vector<Point> points;
    std::string text;
    for (int i = 0; i < 50; ++i) {
      if (rng.bernoulli(0.1)) text += "# comment, with = specials \\ \"" + eol;
      if (rng.bernoulli(0.1)) text += (rng.bernoulli(0.5) ? "  " : "") + eol;
      points.push_back(stressed_point(rng));
      text += serialize(points.back()) + eol;
    }
    const auto parsed = parse(text);
    ASSERT_TRUE(parsed.ok()) << parsed.message();
    ASSERT_EQ(*parsed, points);
    std::vector<std::string> errors;
    EXPECT_EQ(parse_lenient(text, &errors), points);
    EXPECT_TRUE(errors.empty());
    // One point per line back out: the batch serializer agrees too.
    std::string batch;
    for (const auto& p : points) batch += serialize(p) + "\n";
    EXPECT_EQ(serialize_batch(points), batch);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LineProtoRoundTrip,
                         ::testing::Combine(::testing::Range(1, 7), ::testing::Bool()));

}  // namespace
}  // namespace lms::lineproto
