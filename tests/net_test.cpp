// Tests for the networking substrate: HTTP message model and codec, URL
// parsing, dispatcher, in-process transport, PUB/SUB semantics, and a real
// TCP server/client integration test.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <thread>

#include "lms/net/http.hpp"
#include "lms/net/pubsub.hpp"
#include "lms/net/tcp_http.hpp"
#include "lms/net/transport.hpp"

namespace lms::net {
namespace {

// ---------------------------------------------------------------- headers

TEST(HeaderMap, CaseInsensitive) {
  HeaderMap h;
  h.set("Content-Type", "text/plain");
  EXPECT_EQ(h.get("content-type"), "text/plain");
  h.set("CONTENT-TYPE", "application/json");
  EXPECT_EQ(h.get("Content-Type"), "application/json");
  EXPECT_EQ(h.items().size(), 1u);
  EXPECT_EQ(h.get_or("Missing", "fb"), "fb");
}

TEST(QueryParams, ParseAndEncode) {
  const auto q = QueryParams::parse("db=lms&q=SELECT%20mean%28x%29&empty=");
  EXPECT_EQ(q.get("db"), "lms");
  EXPECT_EQ(q.get("q"), "SELECT mean(x)");
  EXPECT_EQ(q.get("empty"), "");
  EXPECT_FALSE(q.get("nope").has_value());
  const auto re = QueryParams::parse(q.encode());
  EXPECT_EQ(re.get("q"), "SELECT mean(x)");
}

// ---------------------------------------------------------------- codec

TEST(HttpCodec, RequestRoundTrip) {
  HttpRequest req = HttpRequest::post("/write?db=lms", "cpu u=1\n", "text/plain");
  req.headers.set("X-Custom", "v");
  const std::string wire = req.serialize();
  std::size_t consumed = 0;
  const auto parsed = parse_request(wire, &consumed);
  ASSERT_TRUE(parsed.ok()) << parsed.message();
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(parsed->method, "POST");
  EXPECT_EQ(parsed->path, "/write");
  EXPECT_EQ(parsed->query.get("db"), "lms");
  EXPECT_EQ(parsed->body, "cpu u=1\n");
  EXPECT_EQ(parsed->headers.get("x-custom"), "v");
}

TEST(HttpCodec, ResponseRoundTrip) {
  const HttpResponse resp = HttpResponse::json(200, R"({"ok":true})");
  std::size_t consumed = 0;
  const auto parsed = parse_response(resp.serialize(), &consumed);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->status, 200);
  EXPECT_TRUE(parsed->ok());
  EXPECT_EQ(parsed->body, R"({"ok":true})");
  EXPECT_EQ(parsed->headers.get("Content-Type"), "application/json");
}

TEST(HttpCodec, IncompleteInputReported) {
  std::size_t consumed = 0;
  EXPECT_FALSE(parse_request("POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort", &consumed)
                   .ok());
  EXPECT_FALSE(parse_request("POST /x HT", &consumed).ok());
}

TEST(HttpCodec, PipelinedRequestsConsumeExactly) {
  const std::string two = HttpRequest::get("/a").serialize() + HttpRequest::get("/b").serialize();
  std::size_t consumed = 0;
  const auto first = parse_request(two, &consumed);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->path, "/a");
  const auto second = parse_request(two.substr(consumed), &consumed);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->path, "/b");
}

TEST(HttpCodec, BadContentLengthRejected) {
  std::size_t consumed = 0;
  EXPECT_FALSE(
      parse_request("GET / HTTP/1.1\r\nContent-Length: huh\r\n\r\n", &consumed).ok());
}

// ---------------------------------------------------------------- url

TEST(Url, ParseVariants) {
  auto u = Url::parse("http://host:8086/write?db=x");
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u->host, "host");
  EXPECT_EQ(u->port, 8086);
  EXPECT_EQ(u->path, "/write");
  EXPECT_EQ(u->query, "db=x");
  EXPECT_EQ(u->target(), "/write?db=x");

  u = Url::parse("inproc://router");
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u->scheme, "inproc");
  EXPECT_EQ(u->host, "router");
  EXPECT_EQ(u->path, "/");

  u = Url::parse("host:99/p");
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u->scheme, "http");
  EXPECT_EQ(u->port, 99);

  EXPECT_FALSE(Url::parse("http://:80/x").ok());
  EXPECT_FALSE(Url::parse("http://h:70000/").ok());
}

// ---------------------------------------------------------------- dispatcher

TEST(Dispatcher, RoutesByMethodAndPath) {
  HttpDispatcher d;
  d.handle("GET", "/ping", [](const HttpRequest&) { return HttpResponse::no_content(); });
  d.handle("POST", "/write", [](const HttpRequest& r) {
    return HttpResponse::text(200, r.body);
  });
  d.handle("GET", "/api/*", [](const HttpRequest& r) {
    return HttpResponse::text(200, r.path);
  });

  EXPECT_EQ(d.dispatch(HttpRequest::get("/ping")).status, 204);
  EXPECT_EQ(d.dispatch(HttpRequest::post("/write", "x", "text/plain")).body, "x");
  EXPECT_EQ(d.dispatch(HttpRequest::get("/api/deep/path")).body, "/api/deep/path");
  EXPECT_EQ(d.dispatch(HttpRequest::get("/nope")).status, 404);
  // Path exists but wrong method -> 405.
  EXPECT_EQ(d.dispatch(HttpRequest::post("/ping", "", "text/plain")).status, 405);
}

// ---------------------------------------------------------------- inproc

TEST(Inproc, RequestReachesBoundHandler) {
  InprocNetwork net;
  net.bind("svc", [](const HttpRequest& r) {
    return HttpResponse::text(200, r.query.get_or("k", "?") + "|" + r.body);
  });
  InprocHttpClient client(net);
  auto resp = client.post("inproc://svc/path?k=v", "body", "text/plain");
  ASSERT_TRUE(resp.ok()) << resp.message();
  EXPECT_EQ(resp->body, "v|body");
}

TEST(Inproc, UnboundEndpointFails) {
  InprocNetwork net;
  InprocHttpClient client(net);
  EXPECT_FALSE(client.get("inproc://missing/").ok());
  net.bind("x", [](const HttpRequest&) { return HttpResponse::no_content(); });
  EXPECT_TRUE(net.has("x"));
  net.unbind("x");
  EXPECT_FALSE(net.has("x"));
}

TEST(Inproc, RejectsWrongScheme) {
  InprocNetwork net;
  InprocHttpClient client(net);
  EXPECT_FALSE(client.get("http://localhost:1/").ok());
}

// ---------------------------------------------------------------- pubsub

TEST(PubSub, TopicPrefixFiltering) {
  PubSubBroker broker;
  auto all = broker.subscribe("");
  auto jobs = broker.subscribe("jobs");
  EXPECT_EQ(broker.subscriber_count(), 2u);

  EXPECT_EQ(broker.publish("metrics", "m1"), 1u);  // only `all`
  EXPECT_EQ(broker.publish("jobs", "j1"), 2u);

  EXPECT_EQ(all->try_receive()->payload, "m1");
  EXPECT_EQ(all->try_receive()->payload, "j1");
  const auto m = jobs->try_receive();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->topic, "jobs");
  EXPECT_EQ(m->payload, "j1");
  EXPECT_FALSE(jobs->try_receive().has_value());
}

TEST(PubSub, SlowSubscriberDropsAtHwm) {
  PubSubBroker broker;
  auto sub = broker.subscribe("", /*hwm=*/3);
  for (int i = 0; i < 10; ++i) broker.publish("t", std::to_string(i));
  EXPECT_EQ(sub->dropped(), 7u);
  // The first 3 messages survived (drop-new semantics at the HWM).
  EXPECT_EQ(sub->try_receive()->payload, "0");
  EXPECT_EQ(sub->try_receive()->payload, "1");
  EXPECT_EQ(sub->try_receive()->payload, "2");
  EXPECT_EQ(broker.published(), 10u);
}

TEST(PubSub, UnsubscribeOnDestruction) {
  PubSubBroker broker;
  {
    auto sub = broker.subscribe("");
    EXPECT_EQ(broker.subscriber_count(), 1u);
  }
  EXPECT_EQ(broker.subscriber_count(), 0u);
  EXPECT_EQ(broker.publish("t", "x"), 0u);
}

TEST(PubSub, CrossThreadDelivery) {
  PubSubBroker broker;
  auto sub = broker.subscribe("");
  std::thread producer([&broker] {
    for (int i = 0; i < 100; ++i) broker.publish("t", std::to_string(i));
  });
  int received = 0;
  while (received < 100) {
    if (auto m = sub->receive_for(util::kNanosPerSecond)) {
      ++received;
    } else {
      break;
    }
  }
  producer.join();
  EXPECT_EQ(received, 100);
}

// ---------------------------------------------------------------- tcp

TEST(TcpHttp, EndToEndOverRealSockets) {
  TcpHttpServer server([](const HttpRequest& req) {
    if (req.path == "/echo") return HttpResponse::text(200, req.body);
    if (req.path == "/ping") return HttpResponse::no_content();
    return HttpResponse::not_found();
  });
  auto port = server.start();
  ASSERT_TRUE(port.ok()) << port.message();
  ASSERT_GT(*port, 0);

  TcpHttpClient client;
  auto resp = client.post(server.url() + "/echo", "hello over tcp", "text/plain");
  ASSERT_TRUE(resp.ok()) << resp.message();
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(resp->body, "hello over tcp");

  resp = client.get(server.url() + "/ping");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 204);

  resp = client.get(server.url() + "/missing");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 404);
  server.stop();
}

TEST(TcpHttp, LargeBodyTransfer) {
  TcpHttpServer server([](const HttpRequest& req) {
    return HttpResponse::text(200, std::to_string(req.body.size()));
  });
  ASSERT_TRUE(server.start().ok());
  TcpHttpClient client;
  const std::string big(1 << 20, 'x');  // 1 MiB batch
  auto resp = client.post(server.url() + "/write", big, "text/plain");
  ASSERT_TRUE(resp.ok()) << resp.message();
  EXPECT_EQ(resp->body, std::to_string(big.size()));
  server.stop();
}

TEST(TcpHttp, ConcurrentClients) {
  std::atomic<int> handled{0};
  TcpHttpServer server([&handled](const HttpRequest&) {
    ++handled;
    return HttpResponse::text(200, "ok");
  });
  ASSERT_TRUE(server.start().ok());
  std::vector<std::thread> clients;
  std::atomic<int> successes{0};
  for (int i = 0; i < 8; ++i) {
    clients.emplace_back([&] {
      TcpHttpClient client;
      for (int j = 0; j < 5; ++j) {
        auto resp = client.get(server.url() + "/x");
        if (resp.ok() && resp->ok()) ++successes;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(successes.load(), 40);
  EXPECT_EQ(handled.load(), 40);
  server.stop();
}

TEST(TcpHttp, HandlerExceptionBecomes500) {
  TcpHttpServer server(
      [](const HttpRequest&) -> HttpResponse { throw std::runtime_error("boom"); });
  ASSERT_TRUE(server.start().ok());
  TcpHttpClient client;
  auto resp = client.get(server.url() + "/x");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 500);
  EXPECT_NE(resp->body.find("boom"), std::string::npos);
  server.stop();
}

TEST(TcpHttp, IdleKeepAliveConnectionDoesNotStallAccepts) {
  TcpHttpServer::Options opts;
  opts.max_connections = 4;
  TcpHttpServer server([](const HttpRequest&) { return HttpResponse::text(200, "ok"); },
                       opts);
  auto port = server.start();
  ASSERT_TRUE(port.ok()) << port.message();

  // One keep-alive connection that is served once and then left open: its
  // worker sits in recv() until the 5 s socket timeout.
  const int held = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(held, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(*port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(held, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const std::string req = "GET /held HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  ASSERT_EQ(::send(held, req.data(), req.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(req.size()));
  char buf[512];
  ASSERT_GT(::recv(held, buf, sizeof(buf), 0), 0);

  // More short connections than the worker list holds before reaping: each
  // must be answered promptly, not after the held connection times out.
  TcpHttpClient client;
  for (std::size_t i = 0; i < 2 * opts.max_connections + 4; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    auto resp = client.get(server.url() + "/short");
    const auto waited = std::chrono::steady_clock::now() - t0;
    ASSERT_TRUE(resp.ok()) << resp.message();
    EXPECT_EQ(resp->status, 200);
    EXPECT_LT(waited, std::chrono::seconds(2)) << "request " << i << " stalled";
  }
  ::close(held);
  server.stop();
}

TEST(TcpHttp, ConnectToClosedPortFails) {
  TcpHttpClient client;
  // Port 1 is essentially never listening.
  EXPECT_FALSE(client.get("http://127.0.0.1:1/").ok());
}

}  // namespace
}  // namespace lms::net
