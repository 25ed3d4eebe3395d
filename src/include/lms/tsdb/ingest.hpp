#pragma once

// Shared /write request handling for the TSDB HTTP façade and the metrics
// router. Both components accept the same InfluxDB-compatible endpoint
//   POST /write?db=<name>[&precision=ns|u|ms|s]   body: line protocol
// so the db/precision handling and the error responses (400 for a batch with
// no parseable line, 404 for an unknown database) are defined once here and
// are byte-identical on both services. The router parses bodies into Points
// (parse_write_request), because it enriches them; the TSDB scans them into
// line views (lineproto::scan) and applies those directly.

#include <string>
#include <vector>

#include "lms/net/http.hpp"
#include "lms/tsdb/storage.hpp"
#include "lms/util/status.hpp"

namespace lms::tsdb {

/// A parsed and validated write request: the WriteBatch to apply plus the
/// malformed lines the lenient parser skipped (dropped with a warning as
/// long as at least one point parsed, matching InfluxDB).
struct WriteRequest {
  WriteBatch batch;                  ///< db + timestamp_scale + points
  std::vector<std::string> errors;   ///< per-line parse errors (skipped lines)
};

/// Where a /write request lands: the database (?db=, or the service's
/// default) and the timestamp multiplier of its ?precision=.
struct WriteTarget {
  std::string db;
  TimeNs timestamp_scale = 1;
};

/// Timestamp multiplier for an InfluxDB precision literal ("ns", "u"/"us",
/// "ms", "s", "m", "h"). Errors on anything else.
util::Result<TimeNs> parse_precision(std::string_view precision);

/// The db and precision of a /write request. Fails on an invalid precision
/// with the message write_error_response() turns into the 400 body.
util::Result<WriteTarget> parse_write_target(const net::HttpRequest& req,
                                             const std::string& default_db);

/// The lenient-parse verdict of a /write body that yielded `accepted` lines
/// and `errors`: a body with errors and no accepted line fails with the
/// message write_error_response() turns into the 400 body.
util::Status check_lenient_parse(std::size_t accepted, const std::vector<std::string>& errors);

/// Parse a /write request into Points: db from ?db= (falling back to `default_db`),
/// precision from ?precision=, body as lenient line protocol. Fails when the
/// precision is invalid or when the body yields no points despite parse
/// errors — in both cases the message is what write_error_response() turns
/// into the uniform 400 body. `default_time` stamps points without their own
/// timestamp (it is not scaled; it is already in ns).
util::Result<WriteRequest> parse_write_request(const net::HttpRequest& req,
                                               const std::string& default_db,
                                               TimeNs default_time);

/// The uniform 400 response for an unparseable write request (the message of
/// a failed parse_write_request()).
net::HttpResponse write_error_response(std::string_view message);

/// The uniform 404 response for a write addressed to a database that does
/// not exist (only reachable where database auto-creation is disabled).
net::HttpResponse unknown_db_response(const std::string& db);

}  // namespace lms::tsdb
