#include "lms/net/http.hpp"

#include <optional>

#include "lms/util/strings.hpp"

namespace lms::net {

void HeaderMap::set(std::string_view name, std::string_view value) {
  for (auto& [k, v] : items_) {
    if (util::iequals(k, name)) {
      v = std::string(value);
      return;
    }
  }
  items_.emplace_back(std::string(name), std::string(value));
}

std::optional<std::string> HeaderMap::get(std::string_view name) const {
  for (const auto& [k, v] : items_) {
    if (util::iequals(k, name)) return v;
  }
  return std::nullopt;
}

std::string HeaderMap::get_or(std::string_view name, std::string_view fallback) const {
  const auto v = get(name);
  return v ? *v : std::string(fallback);
}

bool HeaderMap::contains(std::string_view name) const { return get(name).has_value(); }

QueryParams QueryParams::parse(std::string_view query) {
  QueryParams out;
  if (query.empty()) return out;
  for (const auto& pair : util::split(query, '&')) {
    if (pair.empty()) continue;
    const auto [k, v] = util::split_once(pair, '=');
    out.items_.emplace_back(util::url_decode(k), util::url_decode(v));
  }
  return out;
}

void QueryParams::set(std::string_view key, std::string_view value) {
  for (auto& [k, v] : items_) {
    if (k == key) {
      v = std::string(value);
      return;
    }
  }
  items_.emplace_back(std::string(key), std::string(value));
}

std::optional<std::string> QueryParams::get(std::string_view key) const {
  for (const auto& [k, v] : items_) {
    if (k == key) return v;
  }
  return std::nullopt;
}

std::string QueryParams::get_or(std::string_view key, std::string_view fallback) const {
  const auto v = get(key);
  return v ? *v : std::string(fallback);
}

bool QueryParams::contains(std::string_view key) const { return get(key).has_value(); }

std::string QueryParams::encode() const {
  std::string out;
  for (const auto& [k, v] : items_) {
    if (!out.empty()) out.push_back('&');
    out += util::url_encode(k);
    out.push_back('=');
    out += util::url_encode(v);
  }
  return out;
}

HttpRequest HttpRequest::post(std::string_view path, std::string body,
                              std::string_view content_type) {
  HttpRequest req;
  req.method = "POST";
  const auto [p, q] = util::split_once(path, '?');
  req.path = std::string(p);
  req.query = QueryParams::parse(q);
  req.body = std::move(body);
  req.headers.set("Content-Type", content_type);
  return req;
}

HttpRequest HttpRequest::get(std::string_view path) {
  HttpRequest req;
  req.method = "GET";
  const auto [p, q] = util::split_once(path, '?');
  req.path = std::string(p);
  req.query = QueryParams::parse(q);
  return req;
}

std::string HttpRequest::serialize() const {
  std::string target = path.empty() ? "/" : path;
  const std::string qs = query.encode();
  if (!qs.empty()) target += "?" + qs;
  std::string out = method + " " + target + " HTTP/1.1\r\n";
  bool has_length = false;
  for (const auto& [k, v] : headers.items()) {
    if (util::iequals(k, "Content-Length")) has_length = true;
    out += k + ": " + v + "\r\n";
  }
  if (!has_length) out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  out += "\r\n";
  out += body;
  return out;
}

HttpResponse HttpResponse::text(int status, std::string body) {
  HttpResponse r;
  r.status = status;
  r.body = std::move(body);
  r.headers.set("Content-Type", "text/plain; charset=utf-8");
  return r;
}

HttpResponse HttpResponse::json(int status, std::string body) {
  HttpResponse r;
  r.status = status;
  r.body = std::move(body);
  r.headers.set("Content-Type", "application/json");
  return r;
}

std::string HttpResponse::serialize() const {
  std::string out =
      "HTTP/1.1 " + std::to_string(status) + " " + std::string(status_reason(status)) + "\r\n";
  bool has_length = false;
  for (const auto& [k, v] : headers.items()) {
    if (util::iequals(k, "Content-Length")) has_length = true;
    out += k + ": " + v + "\r\n";
  }
  if (!has_length) out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  out += "\r\n";
  out += body;
  return out;
}

std::string_view status_reason(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 201:
      return "Created";
    case 204:
      return "No Content";
    case 301:
      return "Moved Permanently";
    case 400:
      return "Bad Request";
    case 401:
      return "Unauthorized";
    case 403:
      return "Forbidden";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 413:
      return "Payload Too Large";
    case 500:
      return "Internal Server Error";
    case 503:
      return "Service Unavailable";
    default:
      return "Unknown";
  }
}

namespace {

struct HeadBlock {
  std::string start_line;
  HeaderMap headers;
  std::size_t body_length = 0;
};

/// Parse a head: start line and headers (`head` may include the blank line).
util::Result<HeadBlock> parse_head_block(std::string_view head) {
  HeadBlock out;
  bool first = true;
  for (const auto& line : util::split(head, '\n')) {
    std::string_view l = line;
    if (!l.empty() && l.back() == '\r') l.remove_suffix(1);
    if (first) {
      out.start_line = std::string(l);
      first = false;
      continue;
    }
    if (l.empty()) continue;
    const auto [name, value] = util::split_once(l, ':');
    out.headers.set(util::trim(name), util::trim(value));
  }
  const auto len = out.headers.get("Content-Length");
  if (len) {
    const auto n = util::parse_int64(*len);
    if (!n || *n < 0) return util::Result<HeadBlock>::error("bad Content-Length");
    out.body_length = static_cast<std::size_t>(*n);
  }
  return out;
}

/// Length of the head at the start of `data` (through its blank line), or
/// nullopt while the blank line has not arrived.
std::optional<std::size_t> head_length(std::string_view data) {
  const std::size_t head_end = data.find("\r\n\r\n");
  if (head_end == std::string_view::npos) return std::nullopt;
  return head_end + 4;
}

}  // namespace

util::Result<RequestHead> parse_request_head(std::string_view head) {
  auto block = parse_head_block(head);
  if (!block.ok()) return util::Result<RequestHead>::error(block.message());
  const auto parts = util::split(block->start_line, ' ');
  if (parts.size() < 3) {
    return util::Result<RequestHead>::error("malformed request line '" + block->start_line +
                                            "'");
  }
  RequestHead out;
  HttpRequest& req = out.request;
  req.method = parts[0];
  const auto [p, q] = util::split_once(parts[1], '?');
  req.path = util::url_decode(p);
  req.query = QueryParams::parse(q);
  req.headers = std::move(block->headers);
  out.content_length = block->body_length;
  return out;
}

util::Result<HttpRequest> parse_request(std::string_view data, std::size_t* consumed) {
  const auto head_len = head_length(data);
  if (!head_len) return util::Result<HttpRequest>::error("incomplete headers");
  auto head = parse_request_head(data.substr(0, *head_len));
  if (!head.ok()) return util::Result<HttpRequest>::error(head.message());
  if (data.size() - *head_len < head->content_length) {
    return util::Result<HttpRequest>::error("incomplete body");
  }
  head->request.body = std::string(data.substr(*head_len, head->content_length));
  if (consumed != nullptr) *consumed = *head_len + head->content_length;
  return std::move(head->request);
}

util::Result<HttpResponse> parse_response(std::string_view data, std::size_t* consumed) {
  const auto head_len = head_length(data);
  if (!head_len) return util::Result<HttpResponse>::error("incomplete headers");
  auto head = parse_head_block(data.substr(0, *head_len));
  if (!head.ok()) return util::Result<HttpResponse>::error(head.message());
  if (data.size() - *head_len < head->body_length) {
    return util::Result<HttpResponse>::error("incomplete body");
  }
  const auto parts = util::split(head->start_line, ' ');
  if (parts.size() < 2 || !util::starts_with(parts[0], "HTTP/")) {
    return util::Result<HttpResponse>::error("malformed status line '" + head->start_line + "'");
  }
  const auto status = util::parse_int64(parts[1]);
  if (!status) return util::Result<HttpResponse>::error("bad status code");
  HttpResponse resp;
  resp.status = static_cast<int>(*status);
  resp.headers = std::move(head->headers);
  resp.body = std::string(data.substr(*head_len, head->body_length));
  if (consumed != nullptr) *consumed = *head_len + head->body_length;
  return resp;
}

util::Result<Url> Url::parse(std::string_view url) {
  Url out;
  std::string_view rest = url;
  const std::size_t scheme_end = rest.find("://");
  if (scheme_end != std::string_view::npos) {
    out.scheme = std::string(rest.substr(0, scheme_end));
    rest = rest.substr(scheme_end + 3);
  }
  const std::size_t path_start = rest.find('/');
  std::string_view authority =
      path_start == std::string_view::npos ? rest : rest.substr(0, path_start);
  std::string_view path_query =
      path_start == std::string_view::npos ? std::string_view("/") : rest.substr(path_start);
  const auto [host, port_sv] = util::split_once(authority, ':');
  if (host.empty()) return util::Result<Url>::error("url '" + std::string(url) + "': no host");
  out.host = std::string(host);
  if (!port_sv.empty()) {
    const auto port = util::parse_int64(port_sv);
    if (!port || *port <= 0 || *port > 65535) {
      return util::Result<Url>::error("url '" + std::string(url) + "': bad port");
    }
    out.port = static_cast<int>(*port);
  } else if (out.scheme == "https") {
    out.port = 443;
  }
  const auto [p, q] = util::split_once(path_query, '?');
  out.path = std::string(p);
  out.query = std::string(q);
  return out;
}

std::string Url::target() const {
  std::string t = path.empty() ? "/" : path;
  if (!query.empty()) t += "?" + query;
  return t;
}

}  // namespace lms::net
