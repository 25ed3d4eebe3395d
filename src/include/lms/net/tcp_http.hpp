#pragma once

// Real-socket HTTP transport: a small threaded HTTP/1.1 server and a
// blocking client. Used for the deployable binaries and the socket
// integration tests; the simulator uses the in-process transport instead.

#include <atomic>
#include <list>
#include <memory>
#include <string>
#include <thread>

#include "lms/core/runtime.hpp"
#include "lms/core/sync.hpp"
#include "lms/net/transport.hpp"

namespace lms::obs {
class Registry;
}

namespace lms::net {

/// Threaded TCP HTTP server. Accepts on a listener thread, serves each
/// connection on a worker thread (bounded), supports keep-alive.
///
/// Observability: every request is timed into the configured metrics
/// registry ("http_server_*" instruments, labeled by route) and served under
/// a trace span adopted from the X-LMS-Trace request header when present.
class TcpHttpServer {
 public:
  struct Options {
    std::string bind_address = "127.0.0.1";
    int port = 0;  ///< 0 = pick an ephemeral port
    std::size_t max_connections = 64;
    std::size_t max_request_bytes = 64 * 1024 * 1024;
    /// Metrics registry for http_server_* instruments (nullptr = global).
    obs::Registry* registry = nullptr;
  };

  explicit TcpHttpServer(HttpHandler handler);
  TcpHttpServer(HttpHandler handler, Options options);
  ~TcpHttpServer();
  TcpHttpServer(const TcpHttpServer&) = delete;
  TcpHttpServer& operator=(const TcpHttpServer&) = delete;

  /// Bind + listen + start the accept thread. Returns the bound port.
  util::Result<int> start();

  /// Stop accepting, wake every worker (idle keep-alive connections
  /// included, by shutting down their sockets' read side) and join all
  /// threads.
  void stop();

  int port() const { return port_; }
  std::string url() const;  ///< "http://127.0.0.1:<port>"

 private:
  /// A connection's thread; `done` is set as its last action, so joining a
  /// done worker never blocks on a live connection. `fd` is the connection's
  /// socket while it is open, -1 once the worker is about to close it; it is
  /// read and written under workers_mu_ only, so stop() never shuts down a
  /// closed (and possibly reused) descriptor.
  struct Worker {
    std::thread thread;
    std::atomic<bool> done{false};
    int fd = -1;
  };

  void accept_loop();
  void serve_connection(int fd);

  HttpHandler handler_;
  Options options_;
  std::atomic<int> listen_fd_{-1};  ///< written by stop(), read by the accept thread
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::thread accept_thread_;
  core::runtime::LoopStats accept_loop_stats_{"net.tcp.accept"};
  core::sync::Mutex workers_mu_{core::sync::Rank::kNet, "net.tcp.workers"};
  std::list<Worker> workers_ LMS_GUARDED_BY(workers_mu_);  ///< stable addresses
  std::atomic<std::size_t> active_connections_{0};
};

/// Blocking HTTP client over TCP ("http://" scheme). One connection per
/// request (Connection: close) — simple and adequate for agent batching.
///
/// Observability: requests run under a client span whose context is injected
/// as the X-LMS-Trace header (so the receiving server joins the same trace),
/// and are timed into "http_client_*" instruments.
class TcpHttpClient final : public HttpClient {
 public:
  struct Options {
    int connect_timeout_ms = 2000;
    int io_timeout_ms = 5000;
    std::size_t max_response_bytes = 64 * 1024 * 1024;
    /// Metrics registry for http_client_* instruments (nullptr = global).
    obs::Registry* registry = nullptr;
  };

  TcpHttpClient() = default;
  explicit TcpHttpClient(Options options) : options_(options) {}

  util::Result<HttpResponse> send(const std::string& url, HttpRequest req) override;

 private:
  Options options_ = Options();
};

}  // namespace lms::net
