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
// The parser is zero-copy up to the Point: it walks lines and tokens as
// string_views, finds token ends with a character-class table, and copies a
// token through an unescaping loop only when it holds a backslash. The
// serializer appends escape-free runs whole and writes numbers with
// to_chars straight into the output buffer.

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
