#include "lms/lineproto/point.hpp"

#include <algorithm>
#include <cmath>

#include "lms/util/strings.hpp"

namespace lms::lineproto {

double FieldValue::as_double() const {
  if (const auto* d = std::get_if<double>(&v_)) return *d;
  if (const auto* i = std::get_if<std::int64_t>(&v_)) return static_cast<double>(*i);
  if (const auto* b = std::get_if<bool>(&v_)) return *b ? 1.0 : 0.0;
  return 0.0;
}

std::int64_t FieldValue::as_int() const {
  if (const auto* i = std::get_if<std::int64_t>(&v_)) return *i;
  if (const auto* d = std::get_if<double>(&v_)) return static_cast<std::int64_t>(*d);
  if (const auto* b = std::get_if<bool>(&v_)) return *b ? 1 : 0;
  return 0;
}

ValueView FieldValue::view() const {
  switch (v_.index()) {
    case 0:
      return ValueView(std::in_place_index<0>, std::get<0>(v_));
    case 1:
      return ValueView(std::in_place_index<1>, std::get<1>(v_));
    case 2:
      return ValueView(std::in_place_index<2>, std::get<2>(v_));
    default:
      return ValueView(std::in_place_index<3>, std::get<3>(v_));
  }
}

bool FieldValue::as_bool() const {
  if (const auto* b = std::get_if<bool>(&v_)) return *b;
  if (const auto* i = std::get_if<std::int64_t>(&v_)) return *i != 0;
  if (const auto* d = std::get_if<double>(&v_)) return *d != 0.0;
  return false;
}

std::string FieldValue::as_string() const {
  if (const auto* s = std::get_if<std::string>(&v_)) return *s;
  if (const auto* d = std::get_if<double>(&v_)) return util::format_double(*d);
  if (const auto* i = std::get_if<std::int64_t>(&v_)) return std::to_string(*i);
  if (const auto* b = std::get_if<bool>(&v_)) return *b ? "true" : "false";
  return {};
}

std::string_view Point::tag(std::string_view key) const {
  for (const auto& [k, v] : tags) {
    if (k == key) return v;
  }
  return {};
}

bool Point::has_tag(std::string_view key) const {
  for (const auto& [k, v] : tags) {
    if (k == key) return true;
  }
  return false;
}

void Point::set_tag(std::string_view key, std::string_view value) {
  for (auto& [k, v] : tags) {
    if (k == key) {
      v = std::string(value);
      return;
    }
  }
  tags.emplace_back(std::string(key), std::string(value));
}

const FieldValue* Point::field(std::string_view key) const {
  for (const auto& [k, v] : fields) {
    if (k == key) return &v;
  }
  return nullptr;
}

void Point::add_field(std::string_view key, FieldValue value) {
  fields.emplace_back(std::string(key), std::move(value));
}

void Point::normalize() {
  // Stable, so duplicate keys keep their written order — the order
  // lineproto::sort_tags gives a scanned line's tags.
  const auto by_key = [](const Tag& a, const Tag& b) { return a.first < b.first; };
  if (!std::is_sorted(tags.begin(), tags.end(), by_key)) {
    std::stable_sort(tags.begin(), tags.end(), by_key);
  }
}

bool Point::operator==(const Point& other) const {
  return measurement == other.measurement && tags == other.tags && fields == other.fields &&
         timestamp == other.timestamp;
}

Point make_point(std::string_view measurement, std::string_view field_key, FieldValue value,
                 util::TimeNs timestamp, std::vector<Tag> tags) {
  Point p;
  p.measurement = std::string(measurement);
  p.tags = std::move(tags);
  p.add_field(field_key, std::move(value));
  p.timestamp = timestamp;
  p.normalize();
  return p;
}

}  // namespace lms::lineproto
