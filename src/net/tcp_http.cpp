#include "lms/net/tcp_http.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "lms/obs/metrics.hpp"
#include "lms/obs/trace.hpp"
#include "lms/util/logging.hpp"
#include "lms/util/strings.hpp"

namespace lms::net {

namespace {

obs::Registry& resolve_registry(obs::Registry* registry) {
  return registry != nullptr ? *registry : obs::Registry::global();
}

std::string status_class(int status) {
  if (status <= 0) return "error";
  return std::to_string(status / 100) + "xx";
}

void set_timeout(int fd, int ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

bool send_all(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && (errno == EINTR)) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

TcpHttpServer::TcpHttpServer(HttpHandler handler) : TcpHttpServer(std::move(handler), Options()) {}

TcpHttpServer::TcpHttpServer(HttpHandler handler, Options options)
    : handler_(std::move(handler)), options_(std::move(options)) {}

TcpHttpServer::~TcpHttpServer() { stop(); }

util::Result<int> TcpHttpServer::start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return util::Result<int>::error(std::string("socket(): ") + std::strerror(errno));
  }
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return util::Result<int>::error("bad bind address '" + options_.bind_address + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return util::Result<int>::error("bind(): " + err);
  }
  if (::listen(listen_fd_, 64) != 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return util::Result<int>::error("listen(): " + err);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  running_.store(true);
  accept_thread_ = std::thread([this] { accept_loop(); });
  return port_;
}

void TcpHttpServer::stop() {
  if (!running_.exchange(false)) {
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  const int fd = listen_fd_.exchange(-1);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  std::list<Worker> workers;
  {
    const core::sync::LockGuard lock(workers_mu_);
    workers.swap(workers_);
  }
  for (auto& w : workers) {
    if (w.thread.joinable()) w.thread.join();
  }
}

std::string TcpHttpServer::url() const {
  return "http://" + options_.bind_address + ":" + std::to_string(port_);
}

void TcpHttpServer::accept_loop() {
  while (running_.load()) {
    const int listen_fd = listen_fd_.load();
    if (listen_fd < 0) return;
    pollfd pfd{listen_fd, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, 100);
    if (pr <= 0) continue;
    // Busy = accept + dispatch; the poll wait above counts as idle.
    const core::runtime::BusyScope busy_scope(accept_loop_stats_);
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (!running_.load()) return;
      continue;
    }
    if (active_connections_.load() >= options_.max_connections) {
      const HttpResponse busy = HttpResponse::text(503, "too many connections");
      send_all(fd, busy.serialize());
      ::close(fd);
      continue;
    }
    active_connections_.fetch_add(1);
    const core::sync::LockGuard lock(workers_mu_);
    // Reap finished workers only: joining a live keep-alive connection here
    // would stall every accept behind that connection's socket timeout.
    for (auto it = workers_.begin(); it != workers_.end();) {
      if (it->done.load(std::memory_order_acquire)) {
        it->thread.join();
        it = workers_.erase(it);
      } else {
        ++it;
      }
    }
    Worker& w = workers_.emplace_back();
    w.thread = std::thread([this, fd, &w] {
      serve_connection(fd);
      active_connections_.fetch_sub(1);
      w.done.store(true, std::memory_order_release);
    });
  }
}

void TcpHttpServer::serve_connection(int fd) {
  set_timeout(fd, 5000);
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  std::string buffer;
  char chunk[16384];
  while (running_.load()) {
    // Try to parse a complete request from what we have.
    std::size_t consumed = 0;
    auto req = parse_request(buffer, &consumed);
    if (req.ok()) {
      buffer.erase(0, consumed);
      HttpResponse resp;
      const util::TimeNs t0 = util::monotonic_now_ns();
      {
        // Join the caller's trace (X-LMS-Trace) for the handler's duration
        // and time the request into the registry, labeled by route.
        obs::TraceContext remote_ctx;
        if (const auto header = req->headers.get(obs::kTraceHeader)) {
          if (const auto parsed = obs::parse_trace_header(*header)) remote_ctx = *parsed;
        }
        const obs::ScopedTraceContext adopt(remote_ctx);
        obs::Span span("http.server " + req->method + " " + req->path, "net");
        try {
          resp = handler_(*req);
        } catch (const std::exception& e) {
          resp = HttpResponse::text(500, std::string("handler error: ") + e.what());
        }
        span.set_ok(resp.status < 500);
      }
      obs::Registry& reg = resolve_registry(options_.registry);
      const obs::Labels route{{"route", req->path}, {"transport", "tcp"}};
      reg.counter("http_server_requests",
                  {{"route", req->path}, {"transport", "tcp"}, {"status", status_class(resp.status)}})
          .inc();
      reg.histogram("http_server_request_ns", route).record_since(t0);
      reg.counter("http_server_request_bytes", route).inc(req->body.size());
      reg.counter("http_server_response_bytes", route).inc(resp.body.size());
      const bool close_conn =
          util::iequals(req->headers.get_or("Connection", "keep-alive"), "close");
      resp.headers.set("Connection", close_conn ? "close" : "keep-alive");
      if (!send_all(fd, resp.serialize())) break;
      if (close_conn) break;
      continue;
    }
    if (buffer.size() > options_.max_request_bytes) {
      send_all(fd, HttpResponse::text(413, "request too large").serialize());
      break;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;  // timeout, close or error
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
}

namespace {

/// The socket part of a client request: connect, send, read one response.
util::Result<HttpResponse> tcp_round_trip(const TcpHttpClient::Options& options, const Url& parsed,
                                          const std::string& url, HttpRequest req) {
  req.headers.set("Host", parsed.host + ":" + std::to_string(parsed.port));
  req.headers.set("Connection", "close");

  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string port_str = std::to_string(parsed.port);
  if (getaddrinfo(parsed.host.c_str(), port_str.c_str(), &hints, &res) != 0 || res == nullptr) {
    return util::Result<HttpResponse>::error("resolve failed for '" + parsed.host + "'");
  }
  const int fd = ::socket(res->ai_family, res->ai_socktype, res->ai_protocol);
  if (fd < 0) {
    freeaddrinfo(res);
    return util::Result<HttpResponse>::error(std::string("socket(): ") + std::strerror(errno));
  }
  set_timeout(fd, options.io_timeout_ms);
  const int rc = ::connect(fd, res->ai_addr, res->ai_addrlen);
  freeaddrinfo(res);
  if (rc != 0) {
    ::close(fd);
    return util::Result<HttpResponse>::error("connect to " + url + ": " + std::strerror(errno));
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (!send_all(fd, req.serialize())) {
    ::close(fd);
    return util::Result<HttpResponse>::error("send failed to " + url);
  }
  std::string buffer;
  char chunk[16384];
  while (buffer.size() < options.max_response_bytes) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      ::close(fd);
      return util::Result<HttpResponse>::error("recv failed from " + url + ": " +
                                               std::strerror(errno));
    }
    if (n == 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t consumed = 0;
    auto resp = parse_response(buffer, &consumed);
    if (resp.ok()) {
      ::close(fd);
      return resp;
    }
  }
  ::close(fd);
  std::size_t consumed = 0;
  auto resp = parse_response(buffer, &consumed);
  if (resp.ok()) return resp;
  return util::Result<HttpResponse>::error("malformed response from " + url + ": " +
                                           resp.message());
}

}  // namespace

util::Result<HttpResponse> TcpHttpClient::send(const std::string& url, HttpRequest req) {
  auto parsed = Url::parse(url);
  if (!parsed.ok()) return util::Result<HttpResponse>::error(parsed.message());
  if (parsed->scheme != "http") {
    return util::Result<HttpResponse>::error("TcpHttpClient: unsupported scheme '" +
                                             parsed->scheme + "'");
  }
  apply_url_target(*parsed, req);

  // Client span: the receiving server adopts the propagated context from the
  // X-LMS-Trace header, so both ends of the hop share one trace.
  obs::Span span("http.client " + req.method + " " + req.path, "net");
  if (span.active() && !req.headers.contains(obs::kTraceHeader)) {
    req.headers.set(obs::kTraceHeader, obs::format_trace_header(span.context()));
  }
  const std::string route = req.path;
  const std::size_t request_bytes = req.body.size();
  const util::TimeNs t0 = util::monotonic_now_ns();

  auto result = tcp_round_trip(options_, *parsed, url, std::move(req));

  obs::Registry& reg = resolve_registry(options_.registry);
  const obs::Labels labels{{"route", route}, {"transport", "tcp"}};
  reg.counter("http_client_requests",
              {{"route", route},
               {"transport", "tcp"},
               {"status", result.ok() ? status_class(result->status) : "error"}})
      .inc();
  reg.histogram("http_client_request_ns", labels).record_since(t0);
  reg.counter("http_client_request_bytes", labels).inc(request_bytes);
  if (result.ok()) {
    reg.counter("http_client_response_bytes", labels).inc(result->body.size());
    span.set_ok(result->status < 500);
  } else {
    span.set_ok(false);
    span.set_note(result.message());
  }
  return result;
}

}  // namespace lms::net
