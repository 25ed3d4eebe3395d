#include "lms/lineproto/codec.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdint>

#include "lms/util/strings.hpp"

namespace lms::lineproto {

namespace {

// One bit per character the codec treats specially. A 256-entry table maps
// every byte to its bits, so the serializer's escape sets and the parser's
// token stop sets are each a mask tested with one load.
enum : std::uint8_t {
  kComma = 1,
  kEquals = 2,
  kSpace = 4,
  kBackslash = 8,
  kQuote = 16,
};

constexpr std::array<std::uint8_t, 256> make_classes() {
  std::array<std::uint8_t, 256> t{};
  t[static_cast<unsigned char>(',')] = kComma;
  t[static_cast<unsigned char>('=')] = kEquals;
  t[static_cast<unsigned char>(' ')] = kSpace;
  t[static_cast<unsigned char>('\\')] = kBackslash;
  t[static_cast<unsigned char>('"')] = kQuote;
  return t;
}
constexpr std::array<std::uint8_t, 256> kClasses = make_classes();

inline std::uint8_t char_class(char c) { return kClasses[static_cast<unsigned char>(c)]; }

// Escape sets of the serializer.
constexpr std::uint8_t kMeasurementEscapes = kComma | kSpace | kBackslash;
constexpr std::uint8_t kKeyEscapes = kComma | kEquals | kSpace | kBackslash;
constexpr std::uint8_t kStringEscapes = kQuote | kBackslash;
// Characters a backslash escapes when parsing; before anything else a
// backslash is literal.
constexpr std::uint8_t kEscapable = kComma | kEquals | kSpace | kBackslash | kQuote;

/// Append `s`, with a backslash before each character in `escapes`. Runs
/// without special characters are appended whole.
void append_escaped(std::string& out, std::string_view s, std::uint8_t escapes) {
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if ((char_class(s[i]) & escapes) == 0) continue;
    out.append(s.data() + run, i - run);
    out.push_back('\\');
    run = i;  // the special character itself starts the next run
  }
  out.append(s.data() + run, s.size() - run);
}

/// Append a number with to_chars, straight into `out`.
template <typename T>
void append_number(std::string& out, T v) {
  constexpr std::size_t kMaxChars = 32;  // shortest double is at most 24
  const std::size_t at = out.size();
  out.resize(at + kMaxChars);
  const auto r = std::to_chars(out.data() + at, out.data() + at + kMaxChars, v);
  out.resize(static_cast<std::size_t>(r.ptr - out.data()));
}

void append_field_value(std::string& out, const FieldValue& v) {
  if (v.is_double()) {
    // Same spelling as util::format_double: "nan"/"inf"/"-inf", otherwise
    // the shortest round-trip representation.
    const double d = v.as_double();
    if (std::isnan(d)) {
      out += "nan";
    } else if (std::isinf(d)) {
      out += d > 0 ? "inf" : "-inf";
    } else {
      append_number(out, d);
    }
  } else if (v.is_int()) {
    append_number(out, v.as_int());
    out.push_back('i');
  } else if (v.is_bool()) {
    out += v.as_bool() ? "true" : "false";
  } else {
    out.push_back('"');
    append_escaped(out, v.as_string(), kStringEscapes);
    out.push_back('"');
  }
}

void append_point(std::string& out, const Point& point) {
  append_escaped(out, point.measurement, kMeasurementEscapes);
  for (const auto& [k, v] : point.tags) {
    out.push_back(',');
    append_escaped(out, k, kKeyEscapes);
    out.push_back('=');
    append_escaped(out, v, kKeyEscapes);
  }
  out.push_back(' ');
  bool first = true;
  for (const auto& [k, v] : point.fields) {
    if (!first) out.push_back(',');
    first = false;
    append_escaped(out, k, kKeyEscapes);
    out.push_back('=');
    append_field_value(out, v);
  }
  if (point.timestamp != 0) {
    out.push_back(' ');
    append_number(out, point.timestamp);
  }
}

}  // namespace

std::string serialize(const Point& point) {
  std::string out;
  out.reserve(64 + point.measurement.size());
  append_point(out, point);
  return out;
}

void append_line(std::string& out, const Point& point) {
  append_point(out, point);
  out.push_back('\n');
}

std::string serialize_batch(const std::vector<Point>& points) {
  std::string out;
  for (const auto& p : points) append_line(out, p);
  return out;
}

namespace {

/// Tokenizer over one line honoring backslash escapes. Tokens are views:
/// into the line when they hold no backslash, otherwise into a caller's
/// buffer that receives the unescaped copy.
class LineScanner {
 public:
  explicit LineScanner(std::string_view line) : line_(line) {}

  bool eof() const { return pos_ >= line_.size(); }
  char peek() const { return line_[pos_]; }
  void advance() { ++pos_; }
  void skip_spaces() {
    while (!eof() && peek() == ' ') ++pos_;
  }
  std::string_view rest() const { return line_.substr(pos_); }

  /// Read up to an unescaped character in `stops` (not consumed).
  std::string_view read_until(std::uint8_t stops, std::string& buf) {
    const std::size_t start = pos_;
    for (; pos_ < line_.size(); ++pos_) {
      const std::uint8_t c = char_class(line_[pos_]);
      if ((c & stops) != 0) break;
      if ((c & kBackslash) != 0) return read_escaped(start, stops, buf);
    }
    return line_.substr(start, pos_ - start);
  }

  /// Read a string field's body after its opening quote, consuming the
  /// closing quote. Returns false when the quote is never closed.
  bool read_quoted(std::string_view& out, std::string& buf) {
    const std::size_t start = pos_;
    for (; pos_ < line_.size(); ++pos_) {
      const std::uint8_t c = char_class(line_[pos_]);
      if ((c & kQuote) != 0) {
        out = line_.substr(start, pos_ - start);
        ++pos_;
        return true;
      }
      if ((c & kBackslash) != 0) return read_quoted_escaped(start, out, buf);
    }
    return false;
  }

 private:
  /// Slow path of read_until: the token holds a backslash at pos_.
  std::string_view read_escaped(std::size_t start, std::uint8_t stops, std::string& buf) {
    buf.assign(line_.data() + start, pos_ - start);
    while (!eof()) {
      const char c = line_[pos_];
      if (c == '\\' && pos_ + 1 < line_.size() &&
          (char_class(line_[pos_ + 1]) & kEscapable) != 0) {
        buf.push_back(line_[pos_ + 1]);
        pos_ += 2;
        continue;
      }
      if ((char_class(c) & stops) != 0) break;
      buf.push_back(c);
      ++pos_;
    }
    return buf;
  }

  /// Slow path of read_quoted: the body holds a backslash at pos_; only
  /// '"' and '\' are escapable inside a string.
  bool read_quoted_escaped(std::size_t start, std::string_view& out, std::string& buf) {
    buf.assign(line_.data() + start, pos_ - start);
    while (!eof()) {
      const char c = line_[pos_++];
      if (c == '\\' && !eof() && (peek() == '"' || peek() == '\\')) {
        buf.push_back(line_[pos_++]);
        continue;
      }
      if (c == '"') {
        out = buf;
        return true;
      }
      buf.push_back(c);
    }
    return false;
  }

  std::string_view line_;
  std::size_t pos_ = 0;
};

std::string quoted(std::string_view s) {
  std::string out = "'";
  out.append(s);
  out.push_back('\'');
  return out;
}

util::Result<FieldValue> parse_field_value(LineScanner& sc, std::string& buf) {
  using R = util::Result<FieldValue>;
  if (sc.eof()) return R::error("missing field value");
  if (sc.peek() == '"') {
    sc.advance();
    std::string_view body;
    if (!sc.read_quoted(body, buf)) return R::error("unterminated string field");
    return FieldValue(std::string(body));
  }
  const std::string_view token = sc.read_until(kComma | kSpace, buf);
  if (token.empty()) return R::error("empty field value");
  if (token == "t" || token == "T" || token == "true" || token == "True" || token == "TRUE") {
    return FieldValue(true);
  }
  if (token == "f" || token == "F" || token == "false" || token == "False" ||
      token == "FALSE") {
    return FieldValue(false);
  }
  if (token.back() == 'i') {
    const auto i = util::parse_int64(token.substr(0, token.size() - 1));
    if (!i) return R::error("bad integer field " + quoted(token));
    return FieldValue(*i);
  }
  const auto d = util::parse_double(token);
  if (!d) return R::error("bad field value " + quoted(token));
  return FieldValue(*d);
}

/// Parse one line into `p` (empty on entry).
util::Status parse_into(std::string_view line, Point& p) {
  using util::Status;
  LineScanner sc(line);
  std::string key_buf;
  std::string value_buf;
  p.measurement = sc.read_until(kComma | kSpace, value_buf);
  if (p.measurement.empty()) return Status::error("empty measurement");

  // Tag set. Every tag is introduced by a comma before the field set, so
  // their count bounds the tags (escaped commas only over-reserve).
  if (!sc.eof() && sc.peek() == ',') {
    const std::string_view rest = sc.rest();
    const auto tag_set = rest.substr(0, rest.find(' '));
    p.tags.reserve(static_cast<std::size_t>(std::count(tag_set.begin(), tag_set.end(), ',')));
  }
  while (!sc.eof() && sc.peek() == ',') {
    sc.advance();
    const std::string_view key = sc.read_until(kEquals | kComma | kSpace, key_buf);
    if (sc.eof() || sc.peek() != '=') return Status::error("tag " + quoted(key) + " missing '='");
    sc.advance();
    const std::string_view value = sc.read_until(kComma | kSpace, value_buf);
    if (key.empty() || value.empty()) return Status::error("empty tag key or value");
    p.tags.emplace_back(std::string(key), std::string(value));
  }
  if (sc.eof() || sc.peek() != ' ') return Status::error("missing field set");
  sc.skip_spaces();

  // Field set: at most one more field than commas in the rest of the line.
  {
    const std::string_view rest = sc.rest();
    p.fields.reserve(1 + static_cast<std::size_t>(std::count(rest.begin(), rest.end(), ',')));
  }
  while (true) {
    const std::string_view key = sc.read_until(kEquals | kComma | kSpace, key_buf);
    if (key.empty()) return Status::error("empty field key");
    if (sc.eof() || sc.peek() != '=') {
      return Status::error("field " + quoted(key) + " missing '='");
    }
    sc.advance();
    auto value = parse_field_value(sc, value_buf);
    if (!value.ok()) return Status::error(value.message());
    p.fields.emplace_back(std::string(key), value.take());
    if (!sc.eof() && sc.peek() == ',') {
      sc.advance();
      continue;
    }
    break;
  }

  // Optional timestamp.
  if (!sc.eof() && sc.peek() == ' ') {
    sc.skip_spaces();
    if (!sc.eof()) {
      const std::string_view ts = sc.read_until(kSpace, value_buf);
      const auto t = util::parse_int64(ts);
      if (!t) return Status::error("bad timestamp " + quoted(ts));
      p.timestamp = *t;
      sc.skip_spaces();
      if (!sc.eof()) return Status::error("trailing content after timestamp");
    }
  }
  p.normalize();
  return {};
}

/// The one line loop of parse() and parse_lenient(): parses every line of
/// `text` that is neither blank nor a '#' comment (lines are trimmed, so
/// CRLF endings parse). A malformed line's "line <n>: <why>" message (n is
/// 1-based) goes to `on_error`; parsing stops there when it returns false.
template <typename OnError>
std::vector<Point> parse_lines(std::string_view text, OnError&& on_error) {
  std::vector<Point> points;
  points.reserve(1 + static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')));
  std::size_t line_no = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    ++line_no;
    const std::string_view line = util::trim(text.substr(start, end - start));
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    Point& p = points.emplace_back();
    if (auto st = parse_into(line, p); !st.ok()) {
      points.pop_back();
      if (!on_error("line " + std::to_string(line_no) + ": " + st.message())) break;
    }
  }
  return points;
}

}  // namespace

util::Result<Point> parse_line(std::string_view line) {
  Point p;
  if (auto st = parse_into(line, p); !st.ok()) return util::Result<Point>::error(st.message());
  return p;
}

util::Result<std::vector<Point>> parse(std::string_view text) {
  std::string error;
  auto points = parse_lines(text, [&error](std::string message) {
    error = std::move(message);
    return false;
  });
  if (!error.empty()) return util::Result<std::vector<Point>>::error(std::move(error));
  return points;
}

std::vector<Point> parse_lenient(std::string_view text, std::vector<std::string>* errors) {
  return parse_lines(text, [errors](std::string message) {
    if (errors != nullptr) errors->push_back(std::move(message));
    return true;
  });
}

}  // namespace lms::lineproto
