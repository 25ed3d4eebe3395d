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

const std::string& tag_key(const Tag& t) { return t.first; }
const std::string& tag_value(const Tag& t) { return t.second; }
std::string_view tag_key(const TagView& t) { return t.key; }
std::string_view tag_value(const TagView& t) { return t.value; }

/// The series-key prefix: measurement and tag set, escaped, in the order
/// given (callers pass key-sorted tags).
template <typename Tags>
void append_key(std::string& out, std::string_view measurement, const Tags& tags) {
  append_escaped(out, measurement, kMeasurementEscapes);
  for (const auto& t : tags) {
    out.push_back(',');
    append_escaped(out, tag_key(t), kKeyEscapes);
    out.push_back('=');
    append_escaped(out, tag_value(t), kKeyEscapes);
  }
}

void append_point(std::string& out, const Point& point) {
  append_key(out, point.measurement, point.tags);
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

void append_series_key(std::string& out, std::string_view measurement,
                       std::span<const TagView> tags) {
  append_key(out, measurement, tags);
}

void append_series_key(std::string& out, std::string_view measurement,
                       const std::vector<Tag>& tags) {
  append_key(out, measurement, tags);
}

void sort_tags(std::span<TagView> tags) {
  // The comparator and algorithm of Point::normalize().
  const auto by_key = [](const TagView& a, const TagView& b) { return a.key < b.key; };
  if (!std::is_sorted(tags.begin(), tags.end(), by_key)) {
    std::stable_sort(tags.begin(), tags.end(), by_key);
  }
}

void ScannedBatch::clear() {
  lines.clear();
  tags.clear();
  fields.clear();
  unescaped.clear();
}

namespace {

/// Tokenizer over one line honoring backslash escapes. Tokens are views:
/// into the line when they hold no backslash, otherwise into a fresh string
/// of `unescaped` that receives the unescaped copy.
class LineScanner {
 public:
  LineScanner(std::string_view line, std::forward_list<std::string>& unescaped)
      : line_(line), unescaped_(unescaped) {}

  bool eof() const { return pos_ >= line_.size(); }
  char peek() const { return line_[pos_]; }
  void advance() { ++pos_; }
  void skip_spaces() {
    while (!eof() && peek() == ' ') ++pos_;
  }
  std::size_t pos() const { return pos_; }
  /// Whether any token read so far held a backslash.
  bool saw_backslash() const { return saw_backslash_; }

  /// Read up to an unescaped character in `stops` (not consumed).
  std::string_view read_until(std::uint8_t stops) {
    const std::size_t start = pos_;
    for (; pos_ < line_.size(); ++pos_) {
      const std::uint8_t c = char_class(line_[pos_]);
      if ((c & stops) != 0) break;
      if ((c & kBackslash) != 0) return read_escaped(start, stops);
    }
    return line_.substr(start, pos_ - start);
  }

  /// Read a string field's body after its opening quote, consuming the
  /// closing quote. Returns false when the quote is never closed.
  bool read_quoted(std::string_view& out) {
    const std::size_t start = pos_;
    for (; pos_ < line_.size(); ++pos_) {
      const std::uint8_t c = char_class(line_[pos_]);
      if ((c & kQuote) != 0) {
        out = line_.substr(start, pos_ - start);
        ++pos_;
        return true;
      }
      if ((c & kBackslash) != 0) return read_quoted_escaped(start, out);
    }
    return false;
  }

 private:
  std::string& fresh_buffer(std::size_t start) {
    saw_backslash_ = true;
    std::string& buf = unescaped_.emplace_front();
    buf.assign(line_.data() + start, pos_ - start);
    return buf;
  }

  /// Slow path of read_until: the token holds a backslash at pos_.
  std::string_view read_escaped(std::size_t start, std::uint8_t stops) {
    std::string& buf = fresh_buffer(start);
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
  bool read_quoted_escaped(std::size_t start, std::string_view& out) {
    std::string& buf = fresh_buffer(start);
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
  std::forward_list<std::string>& unescaped_;
  std::size_t pos_ = 0;
  bool saw_backslash_ = false;
};

std::string quoted(std::string_view s) {
  std::string out = "'";
  out.append(s);
  out.push_back('\'');
  return out;
}

util::Result<ValueView> scan_field_value(LineScanner& sc) {
  using R = util::Result<ValueView>;
  if (sc.eof()) return R::error("missing field value");
  if (sc.peek() == '"') {
    sc.advance();
    std::string_view body;
    if (!sc.read_quoted(body)) return R::error("unterminated string field");
    return ValueView(std::in_place_index<3>, body);
  }
  const std::string_view token = sc.read_until(kComma | kSpace);
  if (token.empty()) return R::error("empty field value");
  if (token == "t" || token == "T" || token == "true" || token == "True" || token == "TRUE") {
    return ValueView(std::in_place_index<2>, true);
  }
  if (token == "f" || token == "F" || token == "false" || token == "False" ||
      token == "FALSE") {
    return ValueView(std::in_place_index<2>, false);
  }
  if (token.back() == 'i') {
    const auto i = util::parse_int64(token.substr(0, token.size() - 1));
    if (!i) return R::error("bad integer field " + quoted(token));
    return ValueView(std::in_place_index<1>, *i);
  }
  const auto d = util::parse_double(token);
  if (!d) return R::error("bad field value " + quoted(token));
  return ValueView(std::in_place_index<0>, *d);
}

/// Scan one line, appending its LineView, tags and fields to `out`. On error
/// nothing of the line is kept.
util::Status scan_line(std::string_view line, ScannedBatch& out) {
  using util::Status;
  const std::size_t tags_begin = out.tags.size();
  const std::size_t fields_begin = out.fields.size();
  const auto fail = [&](std::string message) {
    out.tags.resize(tags_begin);
    out.fields.resize(fields_begin);
    return Status::error(std::move(message));
  };
  LineScanner sc(line, out.unescaped);
  LineView lv;
  lv.measurement = sc.read_until(kComma | kSpace);
  if (lv.measurement.empty()) return fail("empty measurement");

  // Tag set. The prefix stays canonical while tag keys strictly ascend and
  // no value holds an '=' (append_series_key escapes it).
  bool canonical = true;
  while (!sc.eof() && sc.peek() == ',') {
    sc.advance();
    const std::string_view key = sc.read_until(kEquals | kComma | kSpace);
    if (sc.eof() || sc.peek() != '=') return fail("tag " + quoted(key) + " missing '='");
    sc.advance();
    const std::string_view value = sc.read_until(kComma | kSpace);
    if (key.empty() || value.empty()) return fail("empty tag key or value");
    if (canonical && ((out.tags.size() > tags_begin && !(out.tags.back().key < key)) ||
                      value.find('=') != std::string_view::npos)) {
      canonical = false;
    }
    out.tags.push_back({key, value});
  }
  if (sc.eof() || sc.peek() != ' ') return fail("missing field set");
  lv.prefix = line.substr(0, sc.pos());
  lv.canonical = canonical && !sc.saw_backslash();
  sc.skip_spaces();

  while (true) {
    const std::string_view key = sc.read_until(kEquals | kComma | kSpace);
    if (key.empty()) return fail("empty field key");
    if (sc.eof() || sc.peek() != '=') return fail("field " + quoted(key) + " missing '='");
    sc.advance();
    auto value = scan_field_value(sc);
    if (!value.ok()) return fail(value.message());
    out.fields.push_back({key, *value});
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
      const std::string_view ts = sc.read_until(kSpace);
      const auto t = util::parse_int64(ts);
      if (!t) return fail("bad timestamp " + quoted(ts));
      lv.timestamp = *t;
      sc.skip_spaces();
      if (!sc.eof()) return fail("trailing content after timestamp");
    }
  }
  lv.tags_begin = static_cast<std::uint32_t>(tags_begin);
  lv.tags_end = static_cast<std::uint32_t>(out.tags.size());
  lv.fields_begin = static_cast<std::uint32_t>(fields_begin);
  lv.fields_end = static_cast<std::uint32_t>(out.fields.size());
  out.lines.push_back(lv);
  return {};
}

FieldValue to_field_value(const ValueView& v) {
  switch (v.index()) {
    case 0:
      return std::get<0>(v);
    case 1:
      return std::get<1>(v);
    case 2:
      return std::get<2>(v);
    default:
      return std::string(std::get<3>(v));
  }
}

/// Build the normalized Point of a scanned line.
Point to_point(const ScannedBatch& batch, const LineView& line) {
  Point p;
  p.measurement = line.measurement;
  const auto tags = batch.tags_of(line);
  p.tags.reserve(tags.size());
  for (const TagView& t : tags) p.tags.emplace_back(std::string(t.key), std::string(t.value));
  const auto fields = batch.fields_of(line);
  p.fields.reserve(fields.size());
  for (const FieldView& f : fields) {
    p.fields.emplace_back(std::string(f.key), to_field_value(f.value));
  }
  p.timestamp = line.timestamp;
  if (!line.canonical) p.normalize();  // canonical tags already strictly ascend
  return p;
}

/// The one line loop of scan(), parse() and parse_lenient(): scans every
/// line of `text` that is neither blank nor a '#' comment (lines are
/// trimmed, so CRLF endings parse) into `batch` and calls `on_line` after
/// each. A malformed line's "line <n>: <why>" message (n is 1-based) goes to
/// `on_error`; scanning stops there when it returns false.
template <typename OnLine, typename OnError>
void scan_lines(std::string_view text, ScannedBatch& batch, OnLine&& on_line,
                OnError&& on_error) {
  std::size_t line_no = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    ++line_no;
    const std::string_view line = util::trim(text.substr(start, end - start));
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    if (auto st = scan_line(line, batch); !st.ok()) {
      if (!on_error("line " + std::to_string(line_no) + ": " + st.message())) break;
      continue;
    }
    on_line(batch);
  }
}

std::size_t line_count(std::string_view text) {
  return 1 + static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
}

template <typename OnError>
std::vector<Point> parse_lines(std::string_view text, OnError&& on_error) {
  std::vector<Point> points;
  points.reserve(line_count(text));
  ScannedBatch batch;
  scan_lines(
      text, batch,
      [&points](ScannedBatch& b) {
        points.push_back(to_point(b, b.lines.back()));
        b.clear();
      },
      on_error);
  return points;
}

}  // namespace

void scan(std::string_view text, ScannedBatch& out, std::vector<std::string>* errors) {
  out.lines.reserve(out.lines.size() + line_count(text));
  scan_lines(
      text, out, [](ScannedBatch&) {},
      [errors](std::string message) {
        if (errors != nullptr) errors->push_back(std::move(message));
        return true;
      });
}

util::Result<Point> parse_line(std::string_view line) {
  ScannedBatch batch;
  if (auto st = scan_line(line, batch); !st.ok()) {
    return util::Result<Point>::error(st.message());
  }
  return to_point(batch, batch.lines.back());
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
