#include "lms/tsdb/ingest.hpp"

#include "lms/lineproto/codec.hpp"
#include "lms/tsdb/query.hpp"

namespace lms::tsdb {

util::Result<TimeNs> parse_precision(std::string_view precision) {
  if (precision.empty() || precision == "ns") return TimeNs{1};
  if (precision == "u" || precision == "us") return util::kNanosPerMicro;
  if (precision == "ms") return util::kNanosPerMilli;
  if (precision == "s") return util::kNanosPerSecond;
  if (precision == "m") return util::kNanosPerMinute;
  if (precision == "h") return util::kNanosPerHour;
  return util::Result<TimeNs>::error("invalid precision '" + std::string(precision) + "'");
}

util::Result<WriteTarget> parse_write_target(const net::HttpRequest& req,
                                             const std::string& default_db) {
  const auto scale = parse_precision(req.query.get_or("precision", ""));
  if (!scale.ok()) return util::Result<WriteTarget>::error(scale.message());
  return WriteTarget{req.query.get_or("db", default_db), *scale};
}

util::Status check_lenient_parse(std::size_t accepted, const std::vector<std::string>& errors) {
  if (accepted == 0 && !errors.empty()) {
    return util::Status::error("unable to parse batch: " + errors.front());
  }
  return {};
}

util::Result<WriteRequest> parse_write_request(const net::HttpRequest& req,
                                               const std::string& default_db,
                                               TimeNs default_time) {
  auto target = parse_write_target(req, default_db);
  if (!target.ok()) return util::Result<WriteRequest>::error(target.message());
  WriteRequest out;
  out.batch.db = std::move(target->db);
  out.batch.timestamp_scale = target->timestamp_scale;
  out.batch.default_time = default_time;
  out.batch.points = lineproto::parse_lenient(req.body, &out.errors);
  if (auto st = check_lenient_parse(out.batch.points.size(), out.errors); !st.ok()) {
    return util::Result<WriteRequest>::error(st.message());
  }
  return out;
}

net::HttpResponse write_error_response(std::string_view message) {
  return net::HttpResponse::json(400, influx_error_json(message));
}

net::HttpResponse unknown_db_response(const std::string& db) {
  return net::HttpResponse::json(404, influx_error_json("database not found: \"" + db + "\""));
}

}  // namespace lms::tsdb
