#pragma once

// The metric data model of the stack: an InfluxDB line-protocol point.
//
// The paper (§III-A) standardizes on this protocol for every hop between
// components because (a) it separates values from tags, (b) lines can be
// concatenated for batched transmission, and (c) it is human-readable. Every
// producer (collector, libusermetric, HPM monitor, pulling proxy) emits
// Points, the router enriches them, the TSDB ingests them.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "lms/util/clock.hpp"

namespace lms::lineproto {

/// A field value that does not own its string: what the line scanner yields
/// and what the storage appends. The variant index is the value type, in the
/// order of FieldValue's (float, integer, boolean, string).
using ValueView = std::variant<double, std::int64_t, bool, std::string_view>;

/// A field value: float, integer, boolean or string. Events (paper §III-C)
/// are points whose value is a string.
class FieldValue {
 public:
  FieldValue() : v_(0.0) {}
  FieldValue(double d) : v_(d) {}                          // NOLINT
  FieldValue(std::int64_t i) : v_(i) {}                    // NOLINT
  FieldValue(int i) : v_(static_cast<std::int64_t>(i)) {}  // NOLINT
  FieldValue(bool b) : v_(b) {}                            // NOLINT
  FieldValue(std::string s) : v_(std::move(s)) {}          // NOLINT
  FieldValue(const char* s) : v_(std::string(s)) {}        // NOLINT

  bool is_double() const { return std::holds_alternative<double>(v_); }
  bool is_int() const { return std::holds_alternative<std::int64_t>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }
  bool is_numeric() const { return is_double() || is_int(); }

  double as_double() const;            ///< numeric value (bool -> 0/1, string -> 0)
  std::int64_t as_int() const;         ///< truncating for doubles
  bool as_bool() const;                ///< nonzero / true
  std::string as_string() const;       ///< rendered value (no quoting)
  ValueView view() const;              ///< the same value, string body as a view

  bool operator==(const FieldValue& other) const { return v_ == other.v_; }

 private:
  std::variant<double, std::int64_t, bool, std::string> v_;
};

using Tag = std::pair<std::string, std::string>;
using Field = std::pair<std::string, FieldValue>;

/// One line-protocol point.
struct Point {
  std::string measurement;
  std::vector<Tag> tags;      // kept sorted by key on normalized points
  std::vector<Field> fields;  // at least one field required by the protocol
  util::TimeNs timestamp = 0;  // 0 = "unset, receiver assigns"

  /// Value of a tag, or empty string.
  std::string_view tag(std::string_view key) const;
  bool has_tag(std::string_view key) const;

  /// Set or overwrite a tag.
  void set_tag(std::string_view key, std::string_view value);

  /// Pointer to a field value, or nullptr.
  const FieldValue* field(std::string_view key) const;

  /// Add a field (no duplicate check).
  void add_field(std::string_view key, FieldValue value);

  /// Sort tags by key, stably (the canonical form used for series identity).
  void normalize();

  /// The hostname tag, the mandatory routing key of the stack (§III-A).
  std::string_view hostname() const { return tag("hostname"); }

  bool operator==(const Point& other) const;
};

/// Convenience constructor for a single-field numeric point.
Point make_point(std::string_view measurement, std::string_view field_key, FieldValue value,
                 util::TimeNs timestamp, std::vector<Tag> tags = {});

}  // namespace lms::lineproto
