#pragma once

// Serializer/parser for the InfluxDB line protocol.
//
// Grammar (one point per line):
//   measurement[,tagkey=tagval ...] fieldkey=fieldval[,...] [timestamp_ns]
//
// Escaping rules follow the InfluxDB 1.x reference:
//   - measurement: escape ','  ' '
//   - tag keys/values and field keys: escape ','  '='  ' '
//   - string field values are double-quoted; escape '"' and '\'
//   - integers carry an 'i' suffix; booleans are t/T/true/True/f/...
// Lines are separated by '\n' (a trailing '\r' is trimmed with the other
// surrounding whitespace); empty lines and '#' comments are skipped.
//
// One scanner tokenizes every body: scan() walks lines and tokens as
// string_views, finds token ends with a character-class table, and copies a
// token through an unescaping loop only when it holds a backslash. It yields
// one LineView per line — the series-key prefix as written, tag and field
// views, typed values, the timestamp — without building a Point; the TSDB
// applies those views directly. parse()/parse_lenient() build Points from
// the same scan. The serializer appends escape-free runs whole and writes
// numbers with to_chars straight into the output buffer.

#include <cstdint>
#include <forward_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "lms/lineproto/point.hpp"
#include "lms/util/status.hpp"

namespace lms::lineproto {

/// Serialize one point to a single line (no trailing newline).
std::string serialize(const Point& point);

/// Append one point as a line plus its trailing newline to `out` — the
/// building block of serialize_batch() and of the router's byte queues.
void append_line(std::string& out, const Point& point);

/// Serialize a batch, newline-separated with trailing newline — the batched
/// transmission format the paper highlights.
std::string serialize_batch(const std::vector<Point>& points);

/// A scanned tag: views into the scanned text, or into the batch's
/// unescape buffer for a token that held a backslash.
struct TagView {
  std::string_view key;
  std::string_view value;
};

/// A scanned field: key view plus typed value (string bodies as views).
struct FieldView {
  std::string_view key;
  ValueView value;
};

/// One scanned line. Its tags and fields are index ranges into the
/// ScannedBatch that holds it.
struct LineView {
  /// The series-key prefix exactly as written: measurement and tag set, up
  /// to the space before the field set.
  std::string_view prefix;
  std::string_view measurement;  ///< unescaped
  std::uint32_t tags_begin = 0;
  std::uint32_t tags_end = 0;
  std::uint32_t fields_begin = 0;
  std::uint32_t fields_end = 0;
  util::TimeNs timestamp = 0;  ///< 0 = unset, receiver assigns
  /// `prefix` is byte for byte the canonical series key (append_series_key):
  /// it holds no backslash, no tag value holds '=', and the tag keys are
  /// strictly ascending. Every line append_line() writes from a normalized
  /// point without escapes has this shape.
  bool canonical = false;
};

/// The lines of one scanned body, their tags and fields in flat arrays.
/// Views point into the scanned text and into `unescaped`, so both must
/// outlive the batch's use.
struct ScannedBatch {
  std::vector<LineView> lines;
  std::vector<TagView> tags;
  std::vector<FieldView> fields;
  /// Unescaped copies of tokens that held a backslash (stable addresses).
  std::forward_list<std::string> unescaped;

  std::span<TagView> tags_of(const LineView& line) {
    return {tags.data() + line.tags_begin, line.tags_end - line.tags_begin};
  }
  std::span<const TagView> tags_of(const LineView& line) const {
    return {tags.data() + line.tags_begin, line.tags_end - line.tags_begin};
  }
  std::span<const FieldView> fields_of(const LineView& line) const {
    return {fields.data() + line.fields_begin, line.fields_end - line.fields_begin};
  }
  void clear();
};

/// Scan a newline-separated body, appending its lines to `out`. Lenient like
/// parse_lenient(), with the same lines skipped and the same messages.
void scan(std::string_view text, ScannedBatch& out, std::vector<std::string>* errors);

/// Append the canonical series key of a measurement and its key-sorted tags:
/// exactly what append_line() writes before the first space.
void append_series_key(std::string& out, std::string_view measurement,
                       std::span<const TagView> tags);
void append_series_key(std::string& out, std::string_view measurement,
                       const std::vector<Tag>& tags);

/// Sort tags by key with Point::normalize()'s comparator and algorithm
/// (stable), so duplicate keys end in the same order as on a normalized
/// Point.
void sort_tags(std::span<TagView> tags);

/// Parse a single line into a point.
util::Result<Point> parse_line(std::string_view line);

/// Parse a newline-separated batch. Fails on the first malformed line,
/// reporting its 1-based index.
util::Result<std::vector<Point>> parse(std::string_view text);

/// Lenient batch parse: malformed lines are collected into `errors` and
/// skipped, valid points are returned. This is the router's ingest mode —
/// one bad producer must not invalidate a whole batch.
std::vector<Point> parse_lenient(std::string_view text, std::vector<std::string>* errors);

}  // namespace lms::lineproto
