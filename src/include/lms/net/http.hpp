#pragma once

// HTTP/1.1 message model and codec. The paper's design rationale is that
// every hop of the stack speaks plain HTTP ("commonly available on all
// machines"), so this is a first-class substrate: a request/response model,
// a strict-enough parser, and serializers used by both the TCP transport and
// the in-process loopback.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "lms/util/status.hpp"

namespace lms::net {

/// Case-insensitive header map (HTTP header names are case-insensitive).
class HeaderMap {
 public:
  void set(std::string_view name, std::string_view value);
  std::optional<std::string> get(std::string_view name) const;
  std::string get_or(std::string_view name, std::string_view fallback) const;
  bool contains(std::string_view name) const;
  const std::vector<std::pair<std::string, std::string>>& items() const { return items_; }

 private:
  std::vector<std::pair<std::string, std::string>> items_;
};

/// Parsed query string (decoded keys/values, insertion order preserved).
class QueryParams {
 public:
  static QueryParams parse(std::string_view query);
  void set(std::string_view key, std::string_view value);
  std::optional<std::string> get(std::string_view key) const;
  std::string get_or(std::string_view key, std::string_view fallback) const;
  bool contains(std::string_view key) const;
  std::string encode() const;
  const std::vector<std::pair<std::string, std::string>>& items() const { return items_; }

 private:
  std::vector<std::pair<std::string, std::string>> items_;
};

struct HttpRequest {
  std::string method = "GET";
  std::string path = "/";   // decoded path without query string
  QueryParams query;        // decoded query parameters
  HeaderMap headers;
  std::string body;

  /// Build a POST with a body and content type.
  static HttpRequest post(std::string_view path, std::string body, std::string_view content_type);
  static HttpRequest get(std::string_view path);

  /// Serialize to wire format ("target" = path + encoded query).
  std::string serialize() const;
};

struct HttpResponse {
  int status = 200;
  HeaderMap headers;
  std::string body;

  bool ok() const { return status >= 200 && status < 300; }

  static HttpResponse text(int status, std::string body);
  static HttpResponse json(int status, std::string body);
  static HttpResponse no_content() { return text(204, ""); }
  static HttpResponse not_found() { return text(404, "not found"); }
  static HttpResponse bad_request(std::string why) { return text(400, std::move(why)); }

  std::string serialize() const;
};

/// Reason phrase for a status code.
std::string_view status_reason(int status);

/// A request head parsed on its own: the request without its body, and the
/// length of the body that follows it (Content-Length, 0 when absent).
struct RequestHead {
  HttpRequest request;
  std::size_t content_length = 0;
};

/// Parse a request head: the start line and headers, up to and including
/// the blank line that ends them. A server parses each head once, then
/// receives the body straight into `request.body`.
util::Result<RequestHead> parse_request_head(std::string_view head);

/// Parse one full request/response from a buffer (headers + body present).
/// Returns the consumed byte count via `consumed` to support pipelining.
util::Result<HttpRequest> parse_request(std::string_view data, std::size_t* consumed);
util::Result<HttpResponse> parse_response(std::string_view data, std::size_t* consumed);

/// Split a URL of the form "scheme://host:port/path?query" into parts.
struct Url {
  std::string scheme = "http";
  std::string host;
  int port = 80;
  std::string path = "/";
  std::string query;

  static util::Result<Url> parse(std::string_view url);
  std::string target() const;  ///< path + "?" + query (if any)
};

}  // namespace lms::net
