#include "lms/tsdb/query.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <map>
#include <set>
#include <utility>

#include "lms/json/json.hpp"
#include "lms/util/strings.hpp"

namespace lms::tsdb {

namespace {

struct DurationUnit {
  TimeNs mult;
  std::string_view name;
};
/// Largest first: format_duration_literal picks the first exact divisor.
constexpr DurationUnit kDurationUnits[] = {{7 * 24 * util::kNanosPerHour, "w"},
                                           {24 * util::kNanosPerHour, "d"},
                                           {util::kNanosPerHour, "h"},
                                           {util::kNanosPerMinute, "m"},
                                           {util::kNanosPerSecond, "s"},
                                           {util::kNanosPerMilli, "ms"},
                                           {util::kNanosPerMicro, "us"},
                                           {1, "ns"}};

}  // namespace

util::Result<TimeNs> parse_duration(std::string_view text) {
  if (text.empty()) return util::Result<TimeNs>::error("empty duration");
  TimeNs total = 0;
  std::size_t i = 0;
  while (i < text.size()) {
    std::size_t j = i;
    while (j < text.size() && (std::isdigit(static_cast<unsigned char>(text[j])) != 0)) ++j;
    if (j == i) return util::Result<TimeNs>::error("bad duration '" + std::string(text) + "'");
    const auto num = util::parse_int64(text.substr(i, j - i));
    if (!num) return util::Result<TimeNs>::error("bad duration '" + std::string(text) + "'");
    std::size_t k = j;
    while (k < text.size() && std::isalpha(static_cast<unsigned char>(text[k])) != 0) ++k;
    const std::string_view unit = text.substr(j, k - j) == "u" ? "us" : text.substr(j, k - j);
    TimeNs mult = 0;
    for (const auto& u : kDurationUnits) {
      if (u.name == unit) mult = u.mult;
    }
    if (mult == 0) {
      return util::Result<TimeNs>::error("bad duration unit '" + std::string(unit) + "'");
    }
    total += *num * mult;
    i = k;
  }
  return total;
}

std::string format_duration_literal(TimeNs ns) {
  for (const auto& u : kDurationUnits) {
    if (ns >= u.mult && ns % u.mult == 0) {
      return std::to_string(ns / u.mult) + std::string(u.name);
    }
  }
  return std::to_string(ns) + "ns";
}

namespace {

// ---------------------------------------------------------------- tokenizer

enum class TokKind { kIdent, kString, kNumber, kPunct, kEnd };

struct Token {
  TokKind kind = TokKind::kEnd;
  std::string text;   // ident (unquoted), string content, number text, punct
  bool quoted = false;  // identifier was "quoted"
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) { advance(); }

  const Token& peek() const { return current_; }

  Token next() {
    Token t = current_;
    advance();
    return t;
  }

  bool accept_keyword(std::string_view kw) {
    if (current_.kind == TokKind::kIdent && !current_.quoted &&
        util::iequals(current_.text, kw)) {
      advance();
      return true;
    }
    return false;
  }

  bool accept_punct(std::string_view p) {
    if (current_.kind == TokKind::kPunct && current_.text == p) {
      advance();
      return true;
    }
    return false;
  }

 private:
  void advance() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
    if (pos_ >= text_.size()) {
      current_ = Token{TokKind::kEnd, "", false};
      return;
    }
    const char c = text_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_') {
      std::size_t j = pos_;
      while (j < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[j])) != 0 || text_[j] == '_' ||
              text_[j] == '.' || text_[j] == '-')) {
        ++j;
      }
      current_ = Token{TokKind::kIdent, std::string(text_.substr(pos_, j - pos_)), false};
      pos_ = j;
      return;
    }
    if (c == '"' || c == '\'') {
      const char quote = c;
      std::size_t j = pos_ + 1;
      std::string out;
      while (j < text_.size() && text_[j] != quote) {
        if (text_[j] == '\\' && j + 1 < text_.size()) ++j;
        out.push_back(text_[j]);
        ++j;
      }
      pos_ = j < text_.size() ? j + 1 : j;
      current_ = Token{quote == '"' ? TokKind::kIdent : TokKind::kString, std::move(out),
                       quote == '"'};
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0 ||
        (c == '-' && pos_ + 1 < text_.size() &&
         std::isdigit(static_cast<unsigned char>(text_[pos_ + 1])) != 0)) {
      std::size_t j = pos_ + 1;
      while (j < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[j])) != 0 || text_[j] == '.')) {
        ++j;
      }
      current_ = Token{TokKind::kNumber, std::string(text_.substr(pos_, j - pos_)), false};
      pos_ = j;
      return;
    }
    // Multi-char punct: >=, <=, !=, =~, !~
    if (pos_ + 1 < text_.size()) {
      const std::string_view two = text_.substr(pos_, 2);
      if (two == ">=" || two == "<=" || two == "!=" || two == "=~" || two == "!~") {
        current_ = Token{TokKind::kPunct, std::string(two), false};
        pos_ += 2;
        return;
      }
    }
    current_ = Token{TokKind::kPunct, std::string(1, c), false};
    ++pos_;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  Token current_;
};

// ------------------------------------------------------------------ parser

using util::Result;

Result<Statement> parse_error(std::string why) {
  return Result<Statement>::error("query: " + std::move(why));
}

struct AggregatorName {
  Aggregator agg;
  std::string_view name;
};
constexpr AggregatorName kAggregatorNames[] = {
    {Aggregator::kMean, "mean"},              {Aggregator::kSum, "sum"},
    {Aggregator::kMin, "min"},                {Aggregator::kMax, "max"},
    {Aggregator::kCount, "count"},            {Aggregator::kFirst, "first"},
    {Aggregator::kLast, "last"},              {Aggregator::kStddev, "stddev"},
    {Aggregator::kMedian, "median"},          {Aggregator::kSpread, "spread"},
    {Aggregator::kPercentile, "percentile"},  {Aggregator::kDerivative, "derivative"},
    {Aggregator::kRate, "rate"}};

std::optional<Aggregator> aggregator_from_name(std::string_view name) {
  for (const auto& [agg, n] : kAggregatorNames) {
    if (util::iequals(name, n)) return agg;
  }
  return std::nullopt;
}

std::string aggregator_name(Aggregator a) {
  for (const auto& [agg, n] : kAggregatorNames) {
    if (agg == a) return std::string(n);
  }
  return "value";  // kNone
}

/// Parse a time operand: integer ns, or now() [- duration].
Result<TimeNs> parse_time_operand(Lexer& lex, TimeNs now) {
  if (lex.peek().kind == TokKind::kNumber) {
    Token t = lex.next();
    // Either plain ns or a duration literal like 10m.
    if (t.text.find_first_not_of("-0123456789") == std::string::npos) {
      const auto v = util::parse_int64(t.text);
      if (!v) return Result<TimeNs>::error("bad time literal '" + t.text + "'");
      return *v;
    }
    return parse_duration(t.text);
  }
  if (lex.peek().kind == TokKind::kIdent && util::iequals(lex.peek().text, "now")) {
    lex.next();
    if (!lex.accept_punct("(") || !lex.accept_punct(")")) {
      return Result<TimeNs>::error("expected now()");
    }
    TimeNs t = now;
    for (;;) {
      const bool minus = lex.accept_punct("-");
      if (!minus && !lex.accept_punct("+")) break;
      if (lex.peek().kind != TokKind::kNumber) {
        return Result<TimeNs>::error(std::string("expected duration after now() ") +
                                     (minus ? "-" : "+"));
      }
      auto d = parse_duration(lex.next().text);
      if (!d.ok()) return d;
      t += minus ? -*d : *d;
    }
    return t;
  }
  return Result<TimeNs>::error("bad time operand near '" + lex.peek().text + "'");
}

Result<Statement> parse_select(Lexer& lex, TimeNs now) {
  Statement stmt;
  stmt.kind = StatementKind::kSelect;
  SelectStatement& sel = stmt.select;

  // Field expressions.
  while (true) {
    FieldExpr fe;
    if (lex.peek().kind != TokKind::kIdent) {
      return parse_error("expected field expression near '" + lex.peek().text + "'");
    }
    Token first = lex.next();
    if (!first.quoted && lex.accept_punct("(")) {
      const auto agg = aggregator_from_name(first.text);
      if (!agg) return parse_error("unknown function '" + first.text + "'");
      fe.agg = *agg;
      if (lex.peek().kind != TokKind::kIdent) {
        return parse_error("expected field name in " + first.text + "()");
      }
      fe.field = lex.next().text;
      if (fe.agg == Aggregator::kPercentile) {
        if (!lex.accept_punct(",") || lex.peek().kind != TokKind::kNumber) {
          return parse_error("percentile(field, p) requires a number");
        }
        const auto p = util::parse_double(lex.next().text);
        if (!p) return parse_error("bad percentile value");
        fe.param = *p;
      } else if ((fe.agg == Aggregator::kDerivative || fe.agg == Aggregator::kRate) &&
                 lex.accept_punct(",")) {
        if (lex.peek().kind != TokKind::kNumber) {
          return parse_error("derivative unit must be a duration");
        }
        auto d = parse_duration(lex.next().text);
        if (!d.ok()) return parse_error(d.message());
        fe.unit = *d;
      }
      if (!lex.accept_punct(")")) return parse_error("missing ')' in function call");
      fe.alias = aggregator_name(fe.agg);
    } else {
      fe.field = first.text;
      fe.alias = first.text;
    }
    if (lex.accept_keyword("as")) {
      if (lex.peek().kind != TokKind::kIdent) return parse_error("expected alias after AS");
      fe.alias = lex.next().text;
    }
    sel.fields.push_back(std::move(fe));
    if (!lex.accept_punct(",")) break;
  }

  if (!lex.accept_keyword("from")) return parse_error("expected FROM");
  if (lex.peek().kind != TokKind::kIdent) return parse_error("expected measurement after FROM");
  sel.measurement = lex.next().text;
  // Convenience: a bare trailing '*' extends the measurement into a glob
  // ("FROM likwid_*"); arbitrary glob patterns can be double-quoted.
  while (lex.accept_punct("*")) sel.measurement += '*';

  if (lex.accept_keyword("where")) {
    while (true) {
      if (lex.peek().kind != TokKind::kIdent) {
        return parse_error("expected condition near '" + lex.peek().text + "'");
      }
      Token key = lex.next();
      if (!key.quoted && util::iequals(key.text, "time")) {
        std::string op;
        for (const char* candidate : {">=", "<=", ">", "<", "="}) {
          if (lex.accept_punct(candidate)) {
            op = candidate;
            break;
          }
        }
        if (op.empty()) return parse_error("bad time comparison");
        auto t = parse_time_operand(lex, now);
        if (!t.ok()) return parse_error(t.message());
        if (op == ">=") {
          sel.time_min = *t;
        } else if (op == ">") {
          sel.time_min = *t + 1;
        } else if (op == "<=") {
          sel.time_max = *t + 1;
        } else if (op == "<") {
          sel.time_max = *t;
        } else {  // '=': exact instant
          sel.time_min = *t;
          sel.time_max = *t + 1;
        }
      } else {
        TagCondition tc;
        tc.key = key.text;
        if (lex.accept_punct("=")) {
          tc.negated = false;
        } else if (lex.accept_punct("!=")) {
          tc.negated = true;
        } else if (lex.accept_punct("=~")) {
          tc.glob = true;
        } else if (lex.accept_punct("!~")) {
          tc.glob = true;
          tc.negated = true;
        } else {
          return parse_error("expected =, !=, =~ or !~ after tag '" + tc.key + "'");
        }
        if (lex.peek().kind != TokKind::kString) {
          return parse_error("tag value must be a 'string' for tag '" + tc.key + "'");
        }
        tc.value = lex.next().text;
        sel.tag_conditions.push_back(std::move(tc));
      }
      if (!lex.accept_keyword("and")) break;
    }
  }

  if (lex.accept_keyword("group")) {
    if (!lex.accept_keyword("by")) return parse_error("expected BY after GROUP");
    while (true) {
      if (lex.peek().kind == TokKind::kIdent && util::iequals(lex.peek().text, "time") &&
          !lex.peek().quoted) {
        lex.next();
        if (!lex.accept_punct("(")) return parse_error("expected ( after time");
        if (lex.peek().kind != TokKind::kNumber) return parse_error("expected duration");
        auto d = parse_duration(lex.next().text);
        if (!d.ok()) return parse_error(d.message());
        if (*d <= 0) return parse_error("group-by interval must be positive");
        sel.group_by_time = *d;
        if (!lex.accept_punct(")")) return parse_error("expected ) after duration");
      } else if (lex.peek().kind == TokKind::kIdent) {
        sel.group_by_tags.push_back(lex.next().text);
      } else if (lex.accept_punct("*")) {
        sel.group_by_tags.push_back("*");
      } else {
        return parse_error("bad GROUP BY term near '" + lex.peek().text + "'");
      }
      if (!lex.accept_punct(",")) break;
    }
  }

  if (lex.peek().kind == TokKind::kIdent && util::iequals(lex.peek().text, "fill")) {
    lex.next();
    if (!lex.accept_punct("(")) return parse_error("expected ( after fill");
    Token mode = lex.next();
    if (util::iequals(mode.text, "null")) {
      sel.fill = FillMode::kNull;
    } else if (util::iequals(mode.text, "none")) {
      sel.fill = FillMode::kNone;
    } else if (mode.text == "0") {
      sel.fill = FillMode::kZero;
    } else if (util::iequals(mode.text, "previous")) {
      sel.fill = FillMode::kPrevious;
    } else {
      return parse_error("bad fill mode '" + mode.text + "'");
    }
    if (!lex.accept_punct(")")) return parse_error("expected ) after fill mode");
  }

  if (lex.accept_keyword("order")) {
    if (!lex.accept_keyword("by")) return parse_error("expected BY after ORDER");
    if (lex.peek().kind != TokKind::kIdent || !util::iequals(lex.peek().text, "time")) {
      return parse_error("only ORDER BY time is supported");
    }
    lex.next();
    if (lex.accept_keyword("desc")) {
      sel.order_desc = true;
    } else {
      lex.accept_keyword("asc");
    }
  }

  if (lex.accept_keyword("limit")) {
    if (lex.peek().kind != TokKind::kNumber) return parse_error("expected LIMIT count");
    const auto n = util::parse_int64(lex.next().text);
    if (!n || *n < 0) return parse_error("bad LIMIT");
    sel.limit = static_cast<std::size_t>(*n);
  }

  if (lex.peek().kind != TokKind::kEnd) {
    return parse_error("unexpected trailing token '" + lex.peek().text + "'");
  }
  return stmt;
}

Result<Statement> parse_show(Lexer& lex) {
  Statement stmt;
  if (lex.accept_keyword("databases")) {
    stmt.kind = StatementKind::kShowDatabases;
    return stmt;
  }
  if (lex.accept_keyword("measurements")) {
    stmt.kind = StatementKind::kShowMeasurements;
    return stmt;
  }
  if (lex.accept_keyword("series")) {
    stmt.kind = StatementKind::kShowSeries;
    if (lex.accept_keyword("from")) {
      if (lex.peek().kind != TokKind::kIdent) return parse_error("expected measurement");
      stmt.measurement = lex.next().text;
    }
    return stmt;
  }
  const bool field_keys = lex.accept_keyword("field");
  const bool tag = !field_keys && lex.accept_keyword("tag");
  if (field_keys || tag) {
    bool values = false;
    if (field_keys) {
      if (!lex.accept_keyword("keys")) return parse_error("expected SHOW FIELD KEYS");
      stmt.kind = StatementKind::kShowFieldKeys;
    } else {
      if (lex.accept_keyword("keys")) {
        stmt.kind = StatementKind::kShowTagKeys;
      } else if (lex.accept_keyword("values")) {
        stmt.kind = StatementKind::kShowTagValues;
        values = true;
      } else {
        return parse_error("expected KEYS or VALUES after SHOW TAG");
      }
    }
    if (lex.accept_keyword("from")) {
      if (lex.peek().kind != TokKind::kIdent) return parse_error("expected measurement");
      stmt.measurement = lex.next().text;
    }
    if (values) {
      if (!lex.accept_keyword("with")) return parse_error("expected WITH KEY =");
      if (!lex.accept_keyword("key")) return parse_error("expected WITH KEY =");
      if (!lex.accept_punct("=")) return parse_error("expected WITH KEY =");
      if (lex.peek().kind != TokKind::kIdent && lex.peek().kind != TokKind::kString) {
        return parse_error("expected tag key");
      }
      stmt.with_key = lex.next().text;
    }
    return stmt;
  }
  return parse_error("unsupported SHOW statement");
}

}  // namespace

util::Result<Statement> parse_query(std::string_view text, TimeNs now) {
  Lexer lex(text);
  if (lex.accept_keyword("explain")) {
    if (!lex.accept_keyword("select")) return parse_error("expected SELECT after EXPLAIN");
    auto stmt = parse_select(lex, now);
    if (stmt.ok()) stmt->explain = true;
    return stmt;
  }
  if (lex.accept_keyword("select")) return parse_select(lex, now);
  if (lex.accept_keyword("show")) return parse_show(lex);
  return parse_error("expected SELECT, EXPLAIN SELECT or SHOW");
}

// ---------------------------------------------------------------- executor

namespace {
// A distinctive string no producer would write; identity via is_null_cell.
const char kNullMarker[] = "\x01__lms_null__";
}  // namespace

const FieldValue& null_cell() {
  static const FieldValue v{std::string(kNullMarker)};
  return v;
}

bool is_null_cell(const FieldValue& v) { return v.is_string() && v.as_string() == kNullMarker; }

namespace {

/// Accumulates scan statistics across the (possibly glob-expanded) selects
/// of one statement; the shard set dedups stripes across measurements.
struct StatsCollector {
  QueryStats stats;
  std::set<std::size_t> shards;
};

/// The [lower_bound(tmin), lower_bound(tmax)) range of one series' column.
struct Slice {
  const Column* col;
  std::size_t begin;
  std::size_t end;
};

/// Slices of `field` across the series of `group`; `points_examined` counts
/// the samples inside them (also on the EXPLAIN path, which stops here).
std::vector<Slice> gather(const std::vector<const Series*>& group, const std::string& field,
                          std::optional<TimeNs> tmin, std::optional<TimeNs> tmax,
                          std::uint64_t* points_examined) {
  std::vector<Slice> out;
  for (const Series* s : group) {
    const auto cit = s->columns.find(field);
    if (cit == s->columns.end()) continue;
    const Column& col = cit->second;
    const std::size_t begin = tmin ? col.lower_bound(*tmin) : 0;
    const std::size_t end = tmax ? col.lower_bound(*tmax) : col.size();
    if (points_examined != nullptr) *points_examined += end - begin;
    if (begin < end) out.push_back(Slice{&col, begin, end});
  }
  return out;
}

/// Visit every sample of `slices` in time order as fn(t, column, index). A
/// single slice is walked directly; several are k-way merged by time, equal
/// times in group order.
template <typename Fn>
void walk(const std::vector<Slice>& slices, Fn&& fn) {
  if (slices.size() == 1) {
    const Slice& s = slices.front();
    const std::vector<TimeNs>& times = s.col->times();
    for (std::size_t i = s.begin; i < s.end; ++i) fn(times[i], *s.col, i);
    return;
  }
  std::vector<Slice> cursors = slices;  // begin advances as the cursor
  using Head = std::pair<TimeNs, std::size_t>;  // (next time, slice index)
  std::vector<Head> heap;
  heap.reserve(cursors.size());
  for (std::size_t k = 0; k < cursors.size(); ++k) {
    heap.emplace_back(cursors[k].col->times()[cursors[k].begin], k);
  }
  const auto later = [](const Head& a, const Head& b) { return a > b; };
  std::make_heap(heap.begin(), heap.end(), later);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    auto& [t, k] = heap.back();
    Slice& s = cursors[k];
    fn(t, *s.col, s.begin);
    if (++s.begin < s.end) {
      t = s.col->times()[s.begin];
      std::push_heap(heap.begin(), heap.end(), later);
    } else {
      heap.pop_back();
    }
  }
}

/// One window's running aggregate, fed in time order. Sums accumulate in
/// that order, so results equal a sort-then-reduce evaluation bit for bit.
/// Only median, percentile and stddev buffer values, in a vector reused
/// across windows.
class Accumulator {
 public:
  Accumulator(Aggregator agg, double param)
      : agg_(agg),
        param_(param),
        buffered_(agg == Aggregator::kMedian || agg == Aggregator::kPercentile ||
                  agg == Aggregator::kStddev) {}

  bool empty() const { return count_ == 0; }

  void add(const Column& col, std::size_t i) {
    if (count_++ == 0) {  // a new window
      first_ = {&col, i};
      numeric_ = 0;
      sum_ = 0;
      vals_.clear();
    }
    last_ = {&col, i};
    if (!col.is_numeric()) return;
    const double v = col.number_at(i);
    if (numeric_++ == 0) {
      min_ = max_ = v;
    } else {
      if (v < min_) min_ = v;
      if (max_ < v) max_ = v;
    }
    sum_ += v;
    if (buffered_) vals_.push_back(v);
  }

  /// Close the window: its value, or nullopt when no sample qualifies.
  std::optional<FieldValue> take() {
    const std::size_t count = std::exchange(count_, 0);
    if (count == 0) return std::nullopt;
    switch (agg_) {
      case Aggregator::kCount:
        return FieldValue(static_cast<std::int64_t>(count));
      case Aggregator::kFirst:
        return first_.first->value_at(first_.second);
      case Aggregator::kLast:
        return last_.first->value_at(last_.second);
      default:
        break;
    }
    if (numeric_ == 0) return std::nullopt;
    const auto n = static_cast<double>(numeric_);
    switch (agg_) {
      case Aggregator::kMean:
        return FieldValue(sum_ / n);
      case Aggregator::kSum:
        return FieldValue(sum_);
      case Aggregator::kMin:
        return FieldValue(min_);
      case Aggregator::kMax:
        return FieldValue(max_);
      case Aggregator::kSpread:
        return FieldValue(max_ - min_);
      case Aggregator::kStddev: {
        if (numeric_ < 2) return FieldValue(0.0);
        const double mean = sum_ / n;
        double ss = 0;
        for (const double v : vals_) ss += (v - mean) * (v - mean);
        return FieldValue(std::sqrt(ss / (n - 1)));
      }
      case Aggregator::kMedian: {
        std::sort(vals_.begin(), vals_.end());
        const std::size_t m = vals_.size();
        return FieldValue(m % 2 == 1 ? vals_[m / 2] : 0.5 * (vals_[m / 2 - 1] + vals_[m / 2]));
      }
      case Aggregator::kPercentile: {
        std::sort(vals_.begin(), vals_.end());
        const double p = std::clamp(param_, 0.0, 100.0);
        // Nearest-rank.
        const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
        return FieldValue(vals_[rank == 0 ? 0 : rank - 1]);
      }
      default:
        return std::nullopt;
    }
  }

 private:
  Aggregator agg_;
  double param_;
  bool buffered_;
  std::size_t count_ = 0;
  std::size_t numeric_ = 0;
  std::pair<const Column*, std::size_t> first_{nullptr, 0};
  std::pair<const Column*, std::size_t> last_{nullptr, 0};
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
  std::vector<double> vals_;
};

/// Reduce the slices with `acc` in one pass: one value per GROUP BY time()
/// window, or one for the whole range (stamped at its first sample) when
/// `dur` is unset. Calls emit(window_start, value) in time order.
template <typename Emit>
void reduce(const std::vector<Slice>& slices, std::optional<TimeNs> dur, Accumulator& acc,
            Emit&& emit) {
  TimeNs start = 0;
  const auto flush = [&] {
    if (auto v = acc.take()) emit(start, std::move(*v));
  };
  walk(slices, [&](TimeNs t, const Column& col, std::size_t i) {
    const TimeNs key = dur ? (t / *dur) * *dur : (acc.empty() ? t : start);
    if (!acc.empty() && key != start) flush();
    start = key;
    acc.add(col, i);
  });
  if (!acc.empty()) flush();
}

/// One selected expression's (time, value) rows: ascending, unique times.
using ColumnSeries = std::vector<std::pair<TimeNs, FieldValue>>;

ColumnSeries evaluate_expr(const FieldExpr& fe, const std::vector<Slice>& slices,
                           const SelectStatement& sel) {
  ColumnSeries out;
  if (fe.agg == Aggregator::kNone) {
    walk(slices, [&](TimeNs t, const Column& col, std::size_t i) {
      if (!out.empty() && out.back().first == t) {
        out.back().second = col.value_at(i);  // duplicate time: last wins
      } else {
        out.emplace_back(t, col.value_at(i));
      }
    });
    return out;
  }
  if (fe.agg == Aggregator::kDerivative || fe.agg == Aggregator::kRate) {
    // Differences of consecutive base values: the numeric samples, or the
    // window means when grouped by time.
    const TimeNs unit = fe.unit > 0 ? fe.unit : util::kNanosPerSecond;
    std::optional<std::pair<TimeNs, double>> prev;
    const auto base = [&](TimeNs t, double v) {
      if (prev) {
        const double dt_units =
            static_cast<double>(t - prev->first) / static_cast<double>(unit);
        if (dt_units > 0) {
          double d = (v - prev->second) / dt_units;
          if (fe.agg == Aggregator::kRate && d < 0) d = 0;
          out.emplace_back(t, FieldValue(d));
        }
      }
      prev.emplace(t, v);
    };
    if (sel.group_by_time) {
      Accumulator mean(Aggregator::kMean, 0);
      reduce(slices, sel.group_by_time, mean,
             [&](TimeNs t, const FieldValue& v) { base(t, v.as_double()); });
    } else {
      walk(slices, [&](TimeNs t, const Column& col, std::size_t i) {
        if (col.is_numeric()) base(t, col.number_at(i));
      });
    }
    return out;
  }
  Accumulator acc(fe.agg, fe.param);
  reduce(slices, sel.group_by_time, acc, [&](TimeNs t, FieldValue v) {
    // A whole-range aggregate is stamped at the range start when bounded.
    out.emplace_back(sel.group_by_time ? t : sel.time_min.value_or(t), std::move(v));
  });
  return out;
}

ResultSeries build_result_series(const SelectStatement& sel, const std::string& name,
                                 std::vector<Tag> group_tags,
                                 const std::vector<ColumnSeries>& columns) {
  ResultSeries rs;
  rs.name = name;
  rs.tags = std::move(group_tags);
  rs.columns.push_back("time");
  for (const auto& fe : sel.fields) rs.columns.push_back(fe.alias);

  // Row key set: union of all column timestamps; with fill + bounded range +
  // group_by_time, generate the full window grid instead.
  std::vector<TimeNs> row_times;
  if (sel.group_by_time && sel.fill != FillMode::kNone && sel.time_min && sel.time_max) {
    const TimeNs dur = *sel.group_by_time;
    for (TimeNs t = (*sel.time_min / dur) * dur; t < *sel.time_max; t += dur) {
      row_times.push_back(t);
    }
  } else {
    for (const auto& col : columns) {
      for (const auto& [t, _] : col) row_times.push_back(t);
    }
    std::sort(row_times.begin(), row_times.end());
    row_times.erase(std::unique(row_times.begin(), row_times.end()), row_times.end());
  }

  // Rows and columns are both time-ascending: one cursor per column.
  std::vector<std::size_t> cursor(columns.size(), 0);
  std::vector<FieldValue> previous(columns.size(), FieldValue(0.0));
  for (const TimeNs t : row_times) {
    std::vector<FieldValue> row;
    row.reserve(columns.size() + 1);
    row.emplace_back(static_cast<std::int64_t>(t));
    bool any = false;
    for (std::size_t c = 0; c < columns.size(); ++c) {
      const ColumnSeries& col = columns[c];
      std::size_t& k = cursor[c];
      while (k < col.size() && col[k].first < t) ++k;
      if (k < col.size() && col[k].first == t) {
        row.push_back(col[k].second);
        previous[c] = col[k].second;
        any = true;
      } else if (sel.fill == FillMode::kZero) {
        row.emplace_back(0.0);
      } else if (sel.fill == FillMode::kPrevious) {
        row.push_back(previous[c]);
      } else {
        row.push_back(null_cell());
      }
    }
    if (!any && sel.fill == FillMode::kNone) continue;
    rs.values.push_back(std::move(row));
  }
  if (sel.order_desc) std::reverse(rs.values.begin(), rs.values.end());
  if (sel.limit && rs.values.size() > *sel.limit) rs.values.resize(*sel.limit);
  return rs;
}

util::Result<QueryResult> execute_select(const Database& db, const SelectStatement& sel,
                                         StatsCollector* sc, bool explain_only) {
  QueryResult result;
  // Tag equality conditions narrow the series set through the index;
  // negations and glob matches filter the candidates afterwards.
  std::vector<Tag> required;
  for (const auto& tc : sel.tag_conditions) {
    if (!tc.negated && !tc.glob) required.emplace_back(tc.key, tc.value);
  }
  std::vector<const Series*> candidates = db.series_matching(sel.measurement, required);
  candidates.erase(
      std::remove_if(candidates.begin(), candidates.end(),
                     [&](const Series* s) {
                       for (const auto& tc : sel.tag_conditions) {
                         const std::string_view v = s->tag(tc.key);
                         if (tc.glob) {
                           const bool matched = util::glob_match(tc.value, v);
                           if (matched == tc.negated) return true;
                         } else if (tc.negated && v == tc.value) {
                           return true;
                         }
                       }
                       return false;
                     }),
      candidates.end());
  if (sc != nullptr) {
    sc->stats.measurements_scanned += 1;
    sc->stats.series_scanned += candidates.size();
    for (const Series* s : candidates) {
      sc->shards.insert(db.shard_of_key(s->measurement, s->tags));
    }
  }
  if (candidates.empty()) return result;

  // Group series by the group-by tag values ("*" = every tag distinct).
  const bool group_all =
      std::find(sel.group_by_tags.begin(), sel.group_by_tags.end(), "*") !=
      sel.group_by_tags.end();
  std::map<std::vector<Tag>, std::vector<const Series*>> groups;
  for (const Series* s : candidates) {
    std::vector<Tag> key;
    if (group_all) {
      key = s->tags;
    } else {
      for (const auto& tk : sel.group_by_tags) {
        key.emplace_back(tk, std::string(s->tag(tk)));
      }
    }
    groups[key].push_back(s);
  }

  std::uint64_t* points_counter = sc != nullptr ? &sc->stats.points_examined : nullptr;
  for (const auto& [group_tags, group_series] : groups) {
    std::vector<ColumnSeries> columns;
    columns.reserve(sel.fields.size());
    for (const auto& fe : sel.fields) {
      const std::vector<Slice> slices =
          gather(group_series, fe.field, sel.time_min, sel.time_max, points_counter);
      if (explain_only) continue;
      columns.push_back(evaluate_expr(fe, slices, sel));
    }
    if (explain_only) continue;
    ResultSeries rs = build_result_series(sel, sel.measurement, group_tags, columns);
    if (!rs.values.empty()) result.series.push_back(std::move(rs));
  }
  return result;
}

QueryResult single_column_result(std::string name, std::string column,
                                 const std::vector<std::string>& values) {
  QueryResult r;
  ResultSeries& rs = r.series.emplace_back();
  rs.name = std::move(name);
  rs.columns.push_back(std::move(column));
  for (const auto& v : values) rs.values.push_back({FieldValue(v)});
  return r;
}

}  // namespace

util::Result<QueryResult> execute(const Database& db, const Statement& stmt,
                                  QueryStats* stats) {
  StatsCollector collector;
  StatsCollector* sc = stats != nullptr ? &collector : nullptr;
  const auto finish = [&](util::Result<QueryResult> r) {
    if (stats != nullptr) {
      collector.stats.shards_touched = collector.shards.size();
      *stats = collector.stats;
    }
    return r;
  };
  switch (stmt.kind) {
    case StatementKind::kSelect: {
      // Measurement globs ("likwid_*"): run the select once per matching
      // measurement and concatenate, with each result series keeping its
      // concrete measurement name.
      if (stmt.select.measurement.find('*') != std::string::npos ||
          stmt.select.measurement.find('?') != std::string::npos) {
        QueryResult combined;
        for (const auto& m : db.measurements()) {
          if (!util::glob_match(stmt.select.measurement, m)) continue;
          SelectStatement per = stmt.select;
          per.measurement = m;
          auto r = execute_select(db, per, sc, stmt.explain);
          if (!r.ok()) return finish(std::move(r));
          for (auto& rs : r->series) combined.series.push_back(std::move(rs));
        }
        return finish(std::move(combined));
      }
      return finish(execute_select(db, stmt.select, sc, stmt.explain));
    }
    case StatementKind::kShowMeasurements:
      return single_column_result("measurements", "name", db.measurements());
    case StatementKind::kShowSeries: {
      std::vector<std::string> keys;
      const std::vector<std::string> measurements =
          stmt.measurement.empty() ? db.measurements()
                                   : std::vector<std::string>{stmt.measurement};
      for (const auto& m : measurements) {
        for (const Series* s : db.series_of(m)) {
          std::string key = s->measurement;
          for (const auto& [k, v] : s->tags) key += "," + k + "=" + v;
          keys.push_back(std::move(key));
        }
      }
      std::sort(keys.begin(), keys.end());
      return single_column_result("series", "key", keys);
    }
    case StatementKind::kShowFieldKeys:
      return single_column_result(stmt.measurement, "fieldKey", db.field_keys(stmt.measurement));
    case StatementKind::kShowTagKeys:
      return single_column_result(stmt.measurement, "tagKey", db.tag_keys(stmt.measurement));
    case StatementKind::kShowTagValues:
      return single_column_result(stmt.measurement, "value",
                                  db.tag_values(stmt.measurement, stmt.with_key));
    case StatementKind::kShowDatabases:
      return util::Result<QueryResult>::error("SHOW DATABASES must be run via the Engine");
  }
  return util::Result<QueryResult>::error("unhandled statement kind");
}

util::Result<QueryResult> execute(const ReadSnapshot& snapshot, const Statement& stmt,
                                  QueryStats* stats) {
  if (!snapshot) {
    return util::Result<QueryResult>::error("query against empty snapshot");
  }
  return execute(*snapshot, stmt, stats);
}

util::Result<QueryResult> Engine::query(const std::string& db, std::string_view query_text,
                                        TimeNs now, QueryStats* stats) {
  auto stmt = parse_query(query_text, now);
  if (!stmt.ok()) return util::Result<QueryResult>::error(stmt.message());
  if (stmt->kind == StatementKind::kShowDatabases) {
    return single_column_result("databases", "name", storage_.databases());
  }
  const ReadSnapshot snap = storage_.snapshot(db);
  if (!snap) {
    return util::Result<QueryResult>::error("database '" + db + "' not found");
  }
  return execute(*snap, *stmt, stats);
}

namespace {

json::Value field_to_json(const FieldValue& v) {
  if (is_null_cell(v)) return json::Value(nullptr);
  if (v.is_double()) return json::Value(v.as_double());
  if (v.is_int()) return json::Value(v.as_int());
  if (v.is_bool()) return json::Value(v.as_bool());
  return json::Value(v.as_string());
}

}  // namespace

std::string to_influx_json(const QueryResult& result) {
  json::Array series_arr;
  for (const auto& rs : result.series) {
    json::Object s;
    s["name"] = rs.name;
    if (!rs.tags.empty()) {
      json::Object tags;
      for (const auto& [k, v] : rs.tags) tags[k] = v;
      s["tags"] = std::move(tags);
    }
    json::Array cols;
    for (const auto& c : rs.columns) cols.emplace_back(c);
    s["columns"] = std::move(cols);
    json::Array rows;
    for (const auto& row : rs.values) {
      json::Array r;
      for (const auto& v : row) r.push_back(field_to_json(v));
      rows.emplace_back(std::move(r));
    }
    s["values"] = std::move(rows);
    series_arr.emplace_back(std::move(s));
  }
  json::Object stmt;
  stmt["statement_id"] = 0;
  stmt["series"] = std::move(series_arr);
  json::Object top;
  top["results"] = json::Array{json::Value(std::move(stmt))};
  return json::Value(std::move(top)).dump();
}

std::string influx_error_json(std::string_view message) {
  json::Object top;
  top["error"] = std::string(message);
  return json::Value(std::move(top)).dump();
}

}  // namespace lms::tsdb
