// epnet tests: LEB128 varints, the EPB1/line-JSON FrameDecoder state
// machine, the epoll event-loop Server over real loopback sockets —
// pipelined response ordering, slow-reader eviction, protocol-error
// reply-then-close — the blocking net::Client that talks to it, and
// the Broker and FleetRouter NetService stacks end to end in both wire
// modes.
//
// Each Server owns a private metrics registry unless ServerOptions
// points it elsewhere, so the ep_net_* counters here start at zero per
// test and the socket tests assert absolute values.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "fleet/router.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "obs/events.hpp"
#include "obs/profiler.hpp"
#include "obs/slo.hpp"
#include "obs/tsdb.hpp"
#include "serve/broker.hpp"
#include "serve/engine.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"
#include "serve/wire_binary.hpp"

namespace ep::net {
namespace {

// --- varints ---

TEST(Varint, RoundTripsRepresentativeValues) {
  const std::uint64_t values[] = {0,
                                  1,
                                  127,
                                  128,
                                  300,
                                  16383,
                                  16384,
                                  std::uint64_t{1} << 20,
                                  std::uint64_t{0xFFFFFFFF},
                                  std::uint64_t{1} << 62,
                                  ~std::uint64_t{0}};
  for (const std::uint64_t v : values) {
    std::string buf;
    putVarint(buf, v);
    std::uint64_t out = 0;
    const int used = readVarint(buf.data(), buf.size(), &out);
    EXPECT_EQ(used, static_cast<int>(buf.size())) << "value " << v;
    EXPECT_EQ(out, v);
  }
}

TEST(Varint, NeedsMoreInputOnPartialEncoding) {
  std::string buf;
  putVarint(buf, 300);  // two bytes
  std::uint64_t out = 0;
  EXPECT_EQ(readVarint(buf.data(), 1, &out), 0);
  EXPECT_EQ(readVarint(buf.data(), 0, &out), 0);
  EXPECT_EQ(readVarint(buf.data(), 2, &out), 2);
  EXPECT_EQ(out, 300u);
}

TEST(Varint, RejectsOverlongAndOverflowingEncodings) {
  std::uint64_t out = 0;
  // Ten continuation bytes: no uint64 needs more.
  const std::string overlong(10, '\x80');
  EXPECT_EQ(readVarint(overlong.data(), overlong.size(), &out), -1);
  // Tenth byte carrying more than the one remaining bit overflows.
  std::string overflow(9, '\xFF');
  overflow += '\x7F';
  EXPECT_EQ(readVarint(overflow.data(), overflow.size(), &out), -1);
}

// --- FrameDecoder ---

TEST(FrameDecoder, SniffsJsonAndSplitsLines) {
  FrameDecoder dec(1 << 20);
  std::vector<Frame> frames;
  EXPECT_TRUE(dec.feed("{\"a\":1}\n{\"b\":2}\r\n", &frames));
  EXPECT_EQ(dec.mode(), FrameDecoder::Mode::Json);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_FALSE(frames[0].binary);
  EXPECT_EQ(frames[0].opcode, kOpJson);
  EXPECT_EQ(frames[0].payload, "{\"a\":1}");
  EXPECT_EQ(frames[1].payload, "{\"b\":2}");
}

TEST(FrameDecoder, SkipsLeadingWhitespaceWhileSniffing) {
  FrameDecoder dec(1 << 20);
  std::vector<Frame> frames;
  EXPECT_TRUE(dec.feed("  \r\n\t", &frames));
  EXPECT_EQ(dec.mode(), FrameDecoder::Mode::Sniffing);
  EXPECT_TRUE(dec.feed("{\"a\":1}\n", &frames));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].payload, "{\"a\":1}");
}

TEST(FrameDecoder, SniffsMagicAndDecodesBinaryFramesIncrementally) {
  FrameDecoder dec(1 << 20);
  std::vector<Frame> frames;
  std::string wire(kMagic, sizeof kMagic);
  appendFrame(wire, kOpTune, "tune-bytes");
  appendFrame(wire, kOpJson, "{\"op\":\"metrics\"}");
  // Dribble one byte at a time: every prefix must be accepted quietly.
  for (char c : wire) {
    EXPECT_TRUE(dec.feed(std::string_view(&c, 1), &frames));
  }
  EXPECT_EQ(dec.mode(), FrameDecoder::Mode::Binary);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_TRUE(frames[0].binary);
  EXPECT_EQ(frames[0].opcode, kOpTune);
  EXPECT_EQ(frames[0].payload, "tune-bytes");
  EXPECT_EQ(frames[1].opcode, kOpJson);
  EXPECT_EQ(frames[1].payload, "{\"op\":\"metrics\"}");
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(FrameDecoder, BadMagicAndUnknownFirstByteAreFatal) {
  {
    FrameDecoder dec(1 << 20);
    std::vector<Frame> frames;
    EXPECT_FALSE(dec.feed("EPB2....", &frames));
    EXPECT_EQ(dec.mode(), FrameDecoder::Mode::Broken);
    EXPECT_EQ(dec.error(), "bad negotiation magic");
  }
  {
    FrameDecoder dec(1 << 20);
    std::vector<Frame> frames;
    EXPECT_FALSE(dec.feed("\x02hello", &frames));
    EXPECT_EQ(dec.error(),
              "unrecognized protocol (expected '{' or EPB1 magic)");
  }
}

TEST(FrameDecoder, EmptyFrameAndUnknownOpcodeAreFatal) {
  {
    FrameDecoder dec(1 << 20);
    std::vector<Frame> frames;
    std::string wire(kMagic, sizeof kMagic);
    putVarint(wire, 0);
    EXPECT_FALSE(dec.feed(wire, &frames));
    EXPECT_EQ(dec.error(), "empty frame");
  }
  {
    FrameDecoder dec(1 << 20);
    std::vector<Frame> frames;
    std::string wire(kMagic, sizeof kMagic);
    appendFrame(wire, 0x7F, "body");
    EXPECT_FALSE(dec.feed(wire, &frames));
    EXPECT_EQ(dec.error(), "unknown frame opcode");
  }
}

TEST(FrameDecoder, OversizeJsonLineIsFatalEvenWithoutNewline) {
  FrameDecoder dec(64);
  std::vector<Frame> frames;
  const std::string longLine = "{" + std::string(128, 'x');
  EXPECT_FALSE(dec.feed(longLine, &frames));
  EXPECT_EQ(dec.error(), "frame too large");
}

// --- loopback clients ---

// Every test client gets a receive timeout, so a server that never
// answers fails the test instead of hanging it.
constexpr ClientOptions kJson{.binary = false, .recvTimeoutMs = 10000.0};
constexpr ClientOptions kBinary{.binary = true, .recvTimeoutMs = 10000.0};

bool waitFor(const std::function<bool()>& cond, int timeoutMs = 5000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeoutMs);
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return cond();
}

// --- Server over loopback ---

TEST(Server, RestoresPipelinedResponseOrder) {
  // The handler answers each trio of requests in REVERSE arrival
  // order; the client must still read responses in request order.
  struct State {
    std::mutex mu;
    std::vector<InboundFrame> pending;
  };
  auto state = std::make_shared<State>();
  ServerOptions opts;
  Server server(opts, [state](Server& s, std::vector<InboundFrame>&& batch) {
    std::lock_guard lk(state->mu);
    for (auto& f : batch) state->pending.push_back(std::move(f));
    if (state->pending.size() < 3) return;
    for (auto it = state->pending.rbegin(); it != state->pending.rend();
         ++it) {
      s.respond(it->conn, it->seq,
                makeBuffer("{\"r\":" + std::to_string(it->seq) + "}\n"));
    }
    state->pending.clear();
  });
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Client c;
  ASSERT_TRUE(c.open("127.0.0.1", server.port(), kJson, &error)) << error;
  ASSERT_TRUE(c.send("{\"a\":0}\n{\"a\":1}\n{\"a\":2}\n"));
  std::string line;
  for (const char* want : {"{\"r\":0}", "{\"r\":1}", "{\"r\":2}"}) {
    ASSERT_TRUE(c.readLine(&line));
    EXPECT_EQ(line, want);
  }
  server.stop();
}

TEST(Server, EvictsSlowReadersPastTheHighWaterMark) {
  // Every request earns a 256 KiB response against a 64 KiB write
  // ceiling; a client that never reads must be evicted, not buffered.
  ServerOptions opts;
  opts.writeHighWaterBytes = std::size_t{64} << 10;
  const auto big = makeBuffer(std::string((std::size_t{256} << 10), 'x'));
  Server server(opts, [big](Server& s, std::vector<InboundFrame>&& batch) {
    for (const auto& f : batch) s.respond(f.conn, f.seq, big);
  });
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Client c;
  ASSERT_TRUE(c.open("127.0.0.1", server.port(), kJson, &error)) << error;
  std::string requests;
  for (int i = 0; i < 64; ++i) requests += "{\"a\":1}\n";
  ASSERT_TRUE(c.send(requests));
  EXPECT_TRUE(waitFor([&] { return server.evicted() > 0; }))
      << "slow reader was never evicted";
  server.stop();
}

TEST(Server, AnswersProtocolErrorsThenCloses) {
  ServerOptions opts;
  Server server(opts, [](Server&, std::vector<InboundFrame>&&) {});
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  // A raw socket, because the close itself is under test: net::Client
  // folds EOF, reset and timeout into one failed read.
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  const timeval timeout{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr),
            0);
  const std::string_view garbage = "garbage\n";
  ASSERT_EQ(::send(fd, garbage.data(), garbage.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(garbage.size()));
  // Read to the end of the stream: exactly one error line, then the
  // server closes its end cleanly — recv() == 0 (FIN), not -1 (reset
  // or timeout), and no byte after the line.
  std::string received;
  char chunk[4096];
  ssize_t got = 0;
  while ((got = ::recv(fd, chunk, sizeof chunk, 0)) > 0) {
    received.append(chunk, static_cast<std::size_t>(got));
  }
  const int recvErrno = errno;
  ::close(fd);
  EXPECT_EQ(got, 0) << std::strerror(recvErrno);
  ASSERT_FALSE(received.empty());
  EXPECT_EQ(received.find('\n'), received.size() - 1) << received;
  EXPECT_NE(received.find("\"status\":\"bad_request\""), std::string::npos)
      << received;
  EXPECT_NE(received.find("unrecognized protocol"), std::string::npos);
  EXPECT_EQ(server.protocolErrors(), 1u);
  server.stop();
}

TEST(Server, SurvivesMidFrameCloseAndKeepsServing) {
  ServerOptions opts;
  Server server(opts, [](Server& s, std::vector<InboundFrame>&& batch) {
    for (const auto& f : batch) {
      s.respond(f.conn, f.seq, makeBuffer("{\"ok\":true}\n"));
    }
  });
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  // A binary connection that declares a 100-byte frame, sends 10 bytes,
  // and vanishes: the partial frame is dropped with the connection.
  Client c;
  ASSERT_TRUE(c.open("127.0.0.1", server.port(), kBinary, &error)) << error;
  std::string wire;
  putVarint(wire, 100);
  wire += std::string(10, 'z');
  ASSERT_TRUE(c.send(wire));
  EXPECT_TRUE(waitFor([&] { return server.openConnections() == 1; }));
  c.close();
  EXPECT_TRUE(waitFor([&] { return server.openConnections() == 0; }));

  // The loop is still healthy: a fresh connection gets served.
  Client c2;
  ASSERT_TRUE(c2.open("127.0.0.1", server.port(), kJson, &error)) << error;
  std::string reply;
  ASSERT_TRUE(c2.roundTrip("{\"a\":1}", &reply));
  EXPECT_EQ(reply, "{\"ok\":true}");
  server.stop();
}

TEST(Server, PrivateRegistryScopesCountersPerServer) {
  const auto echo = [](Server& s, std::vector<InboundFrame>&& batch) {
    for (const auto& f : batch) {
      s.respond(f.conn, f.seq, makeBuffer("{\"ok\":true}\n"));
    }
  };
  Server a{ServerOptions{}, echo};
  Server b{ServerOptions{}, echo};
  std::string error;
  ASSERT_TRUE(a.start(&error)) << error;
  ASSERT_TRUE(b.start(&error)) << error;

  Client c;
  ASSERT_TRUE(c.open("127.0.0.1", a.port(), kJson, &error)) << error;
  std::string reply;
  ASSERT_TRUE(c.roundTrip("{\"a\":1}", &reply));
  EXPECT_EQ(reply, "{\"ok\":true}");
  c.close();

  // The served frame lands only in a's private registry; b's ep_net_*
  // family, same names, stays at zero.
  const std::string aProm = a.registry().renderPrometheus();
  EXPECT_NE(aProm.find("ep_net_frames_total 1"), std::string::npos) << aProm;
  EXPECT_NE(aProm.find("ep_net_connections_total 1"), std::string::npos);
  const std::string bProm = b.registry().renderPrometheus();
  EXPECT_NE(bProm.find("ep_net_frames_total 0"), std::string::npos) << bProm;
  EXPECT_NE(bProm.find("ep_net_connections_total 0"), std::string::npos);
  a.stop();
  b.stop();
}

// --- net::Client ---

// Answers every frame in kind: a line with its sequence number, or an
// EPB1 frame echoing the opcode and payload.
void echoHandler(Server& s, std::vector<InboundFrame>&& batch) {
  for (const auto& f : batch) {
    if (f.binary) {
      std::string out;
      appendFrame(out, f.opcode, f.payload);
      s.respond(f.conn, f.seq, makeBuffer(std::move(out)));
    } else {
      s.respond(f.conn, f.seq,
                makeBuffer("{\"r\":" + std::to_string(f.seq) + "}\n"));
    }
  }
}

TEST(Client, RoundTripsLineJsonAndEpb1Frames) {
  Server server(ServerOptions{}, echoHandler);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Client json;
  ASSERT_TRUE(json.open("127.0.0.1", server.port(), kJson, &error)) << error;
  std::string reply;
  ASSERT_TRUE(json.roundTrip("{\"a\":1}", &reply));
  EXPECT_EQ(reply, "{\"r\":0}");
  ASSERT_TRUE(json.roundTrip("{\"a\":2}", &reply));
  EXPECT_EQ(reply, "{\"r\":1}");
  // read() follows the framing chosen at open: a line here.
  ASSERT_TRUE(json.send("{\"a\":3}\n"));
  std::uint8_t untouched = 0xEE;
  ASSERT_TRUE(json.read(&reply, /*wait=*/true, &untouched));
  EXPECT_EQ(reply, "{\"r\":2}");
  EXPECT_EQ(untouched, 0xEE);

  // Binary mode sends the magic on open; frames then go both ways.
  Client binary;
  ASSERT_TRUE(binary.open("127.0.0.1", server.port(), kBinary, &error))
      << error;
  std::string wire;
  appendFrame(wire, kOpTune, "tune-bytes");
  appendFrame(wire, kOpJson, "{\"op\":\"metrics\"}");
  ASSERT_TRUE(binary.send(wire));
  std::uint8_t opcode = 0xFF;
  std::string body;
  ASSERT_TRUE(binary.readFrame(&opcode, &body));
  EXPECT_EQ(opcode, kOpTune);
  EXPECT_EQ(body, "tune-bytes");
  // ... and a frame here.
  ASSERT_TRUE(binary.read(&body, /*wait=*/true, &opcode));
  EXPECT_EQ(opcode, kOpJson);
  EXPECT_EQ(body, "{\"op\":\"metrics\"}");
  // Nothing else was sent: a non-waiting read returns at once, empty.
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(binary.readFrame(&opcode, &body, /*wait=*/false));
  EXPECT_FALSE(binary.read(&body, /*wait=*/false));
  EXPECT_FALSE(json.readLine(&reply, /*wait=*/false));
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1));
  server.stop();
}

TEST(Client, PipelinedWindowIsAnsweredInRequestOrder) {
  // One send() carries 64 requests; the handler answers each batch in
  // reverse.  The client reads the first response blocking and drains
  // the rest as they are buffered, in request order.
  constexpr int kWindow = 64;
  Server server(ServerOptions{},
                [](Server& s, std::vector<InboundFrame>&& batch) {
                  for (auto it = batch.rbegin(); it != batch.rend(); ++it) {
                    s.respond(it->conn, it->seq,
                              makeBuffer("{\"r\":" + std::to_string(it->seq) +
                                         "}\n"));
                  }
                });
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  Client c;
  ASSERT_TRUE(c.open("127.0.0.1", server.port(), kJson, &error)) << error;
  std::string window;
  for (int i = 0; i < kWindow; ++i) window += "{\"a\":1}\n";
  ASSERT_TRUE(c.send(window));
  std::string line;
  int received = 0;
  while (received < kWindow) {
    ASSERT_TRUE(c.readLine(&line));
    do {
      EXPECT_EQ(line, "{\"r\":" + std::to_string(received) + "}");
      ++received;
    } while (received < kWindow && c.readLine(&line, /*wait=*/false));
  }
  EXPECT_FALSE(c.readLine(&line, /*wait=*/false));
  server.stop();
}

TEST(Client, ConnectToAClosedPortFailsWithAnError) {
  // A port the kernel just released: nothing listens on it any more.
  Server server(ServerOptions{}, echoHandler);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  const std::uint16_t port = server.port();
  server.stop();

  Client c;
  error.clear();
  EXPECT_FALSE(c.open("127.0.0.1", port, kJson, &error));
  EXPECT_FALSE(c.connected());
  EXPECT_NE(error.find("connect"), std::string::npos) << error;
  EXPECT_FALSE(c.open("not-an-address", port, kJson, &error));
  EXPECT_NE(error.find("not-an-address"), std::string::npos) << error;
}

TEST(Client, RejectsAZeroLengthFrame) {
  Server server(ServerOptions{},
                [](Server& s, std::vector<InboundFrame>&& batch) {
                  for (const auto& f : batch) {
                    s.respond(f.conn, f.seq, makeBuffer(std::string(1, '\0')));
                  }
                });
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  Client c;
  ASSERT_TRUE(c.open("127.0.0.1", server.port(), kBinary, &error)) << error;
  std::string wire;
  appendFrame(wire, kOpJson, "{}");
  ASSERT_TRUE(c.send(wire));
  std::uint8_t opcode = 0;
  std::string body;
  EXPECT_FALSE(c.readFrame(&opcode, &body));
  server.stop();
}

// The server answers the first request with the first half of a
// response, then goes away: the read must fail rather than hang, and
// sending on the dead connection must fail rather than raise SIGPIPE
// (whose default action would kill this test process).
void expectPeerCloseMidResponse(bool binary) {
  std::string partial;
  if (binary) {
    putVarint(partial, 100);  // a 100-byte frame cut off after 10
    partial += std::string(10, 'z');
  } else {
    partial = "{\"status\":\"o";
  }
  Server server(ServerOptions{},
                [partial](Server& s, std::vector<InboundFrame>&& batch) {
                  for (const auto& f : batch) {
                    s.respond(f.conn, f.seq, makeBuffer(partial));
                  }
                });
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  Client c;
  ASSERT_TRUE(c.open("127.0.0.1", server.port(), binary ? kBinary : kJson,
                     &error))
      << error;
  std::string request;
  if (binary) {
    appendFrame(request, kOpJson, "{}");
  } else {
    request = "{}\n";
  }
  ASSERT_TRUE(c.send(request));
  obs::Counter& written =
      server.registry().counter("ep_net_bytes_written_total", "");
  ASSERT_TRUE(waitFor([&] { return written.value() >= partial.size(); }));
  server.stop();

  const auto t0 = std::chrono::steady_clock::now();
  std::string body;
  std::uint8_t opcode = 0;
  EXPECT_FALSE(binary ? c.readFrame(&opcode, &body) : c.readLine(&body));
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
  bool sendFailed = false;
  for (int i = 0; i < 100 && !sendFailed; ++i) {
    sendFailed = !c.send(request);
    if (!sendFailed) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(sendFailed);
}

TEST(Client, PeerClosingMidLineFailsTheReadAndLaterSends) {
  std::signal(SIGPIPE, SIG_DFL);
  expectPeerCloseMidResponse(/*binary=*/false);
}

TEST(Client, PeerClosingMidFrameFailsTheReadAndLaterSends) {
  std::signal(SIGPIPE, SIG_DFL);
  expectPeerCloseMidResponse(/*binary=*/true);
}

// --- Broker + NetService end to end ---

class NetServiceEndToEnd : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_shared<serve::EpStudyEngine>();
    serve::BrokerOptions bopts;
    bopts.threads = 2;
    bopts.queueCapacity = 256;
    broker_ = std::make_unique<serve::Broker>(engine_, bopts);

    serve::NetServiceHooks hooks = serve::brokerHooks(*broker_);
    // The control plane mirrors epserved's op switch so reachability
    // of the observability ops over both framings stays regression-
    // tested here: tsdb reads a fixture-ingested store, slo a no-burn
    // engine, profile the process profiler's status.
    tsdbRegistry_.counter("tun_total", "Tunneled scrapes").inc(5);
    tsdb_.ingest(tsdbRegistry_.snapshot(), 9 * 1000000000LL);
    tsdbRegistry_.counter("tun_total", "Tunneled scrapes").inc(5);
    tsdb_.ingest(tsdbRegistry_.snapshot(), 10 * 1000000000LL);
    std::string sloError;
    const auto spec = ep::obs::parseSloSpec("api=latency:0.5:0.99", &sloError);
    ASSERT_TRUE(spec.has_value()) << sloError;
    slo_ = std::make_unique<ep::obs::SloEngine>(
        &tsdb_, std::vector<ep::obs::SloSpec>{*spec});
    slo_->evaluate(10 * 1000000000LL);
    hooks.control = [this](const serve::wire::WireRequest& req) {
      using Op = serve::wire::WireRequest::Op;
      switch (req.op) {
        case Op::Events: {
          std::string body;
          for (const ep::obs::FlightEvent& e : slo_->events(req.eventsSince)) {
            body += ep::obs::encodeFlightEventLine(e);
            body += '\n';
          }
          return serve::wire::encodeEvents(slo_->activeAlerts(),
                                           slo_->recorder().recorded(),
                                           slo_->recorder().dropped(), body);
        }
        case Op::Tsdb:
          return serve::wire::encodeTsdbResponse(tsdb_, req,
                                                 10 * 1000000000LL);
        case Op::Slo:
          return serve::wire::encodeSloStatus(slo_->status());
        case Op::Profile:
          return serve::wire::encodeProfileStatus(
              ep::obs::Profiler::global().running(),
              ep::obs::Profiler::global().registeredThreads(), "status");
        default:
          return serve::wire::encodeMetrics(broker_->metrics());
      }
    };
    service_ = std::make_unique<serve::NetService>(std::move(hooks));
    server_ = std::make_unique<Server>(ServerOptions{}, service_->handler());
    std::string error;
    ASSERT_TRUE(server_->start(&error)) << error;
  }

  void TearDown() override {
    server_->stop();
    service_->stop();
    broker_->shutdown();
  }

  std::shared_ptr<serve::EpStudyEngine> engine_;
  std::unique_ptr<serve::Broker> broker_;
  std::unique_ptr<serve::NetService> service_;
  std::unique_ptr<Server> server_;
  ep::obs::Registry tsdbRegistry_;
  ep::obs::TimeSeriesStore tsdb_;
  std::unique_ptr<ep::obs::SloEngine> slo_;
};

TEST_F(NetServiceEndToEnd, ServesJsonTunesAndControlOps) {
  Client c;
  std::string error;
  ASSERT_TRUE(c.open("127.0.0.1", server_->port(), kJson, &error)) << error;
  std::string reply;
  ASSERT_TRUE(c.roundTrip(
      "{\"op\":\"tune\",\"device\":\"p100\",\"n\":1024,"
      "\"maxDegradation\":0.11}",
      &reply));
  EXPECT_NE(reply.find("\"status\":\"ok\""), std::string::npos) << reply;
  EXPECT_NE(reply.find("\"recommended\""), std::string::npos);

  ASSERT_TRUE(c.roundTrip("{\"op\":\"metrics\"}", &reply));
  EXPECT_NE(reply.find("\"status\":\"ok\""), std::string::npos) << reply;

  // device:auto is a fleet-only feature here — inline error, same conn.
  ASSERT_TRUE(c.roundTrip(
      "{\"op\":\"tune\",\"device\":\"auto\",\"n\":1024}", &reply));
  EXPECT_NE(reply.find("\"status\":\"error\""), std::string::npos) << reply;
}

TEST_F(NetServiceEndToEnd, ServesBinaryTunesAndTunneledJson) {
  Client c;
  std::string error;
  ASSERT_TRUE(c.open("127.0.0.1", server_->port(), kBinary, &error)) << error;
  std::string wire;
  serve::wire_binary::BinaryTuneRequest breq;
  breq.tune.n = 2048;
  breq.tune.maxDegradation = 0.11;
  breq.traceId = "deadbeef";
  appendFrame(wire, kOpTune, serve::wire_binary::encodeTuneRequest(breq));
  appendFrame(wire, kOpJson, "{\"op\":\"metrics\"}");
  ASSERT_TRUE(c.send(wire));

  std::uint8_t opcode = 0;
  std::string payload;
  ASSERT_TRUE(c.readFrame(&opcode, &payload));
  EXPECT_EQ(opcode, kOpTune);
  std::string derr;
  const auto resp = serve::wire_binary::decodeTuneResponse(payload, &derr);
  ASSERT_TRUE(resp.has_value()) << derr;
  EXPECT_EQ(resp->status, serve::Status::Ok);
  EXPECT_EQ(resp->traceId, "deadbeef");
  EXPECT_FALSE(resp->recommended.empty());

  // Tunneled JSON comes back as a kOpJson frame, not a bare line.
  ASSERT_TRUE(c.readFrame(&opcode, &payload));
  EXPECT_EQ(opcode, kOpJson);
  EXPECT_NE(payload.find("\"status\":\"ok\""), std::string::npos) << payload;
}

// Regression for the observability control plane over EPB1: every op
// the line-JSON frontend answers must also be reachable through
// kOpJson tunneling on a binary connection, in pipelined order.
TEST_F(NetServiceEndToEnd, ObservabilityOpsTunnelOverBinaryFraming) {
  Client c;
  std::string error;
  ASSERT_TRUE(c.open("127.0.0.1", server_->port(), kBinary, &error)) << error;
  std::string wire;
  appendFrame(wire, kOpJson, "{\"op\":\"events\",\"since\":0}");
  appendFrame(wire, kOpJson,
              "{\"op\":\"tsdb\",\"series\":\"tun_total\",\"agg\":\"all\","
              "\"windowMs\":60000}");
  appendFrame(wire, kOpJson, "{\"op\":\"slo\"}");
  appendFrame(wire, kOpJson, "{\"op\":\"profile\"}");
  ASSERT_TRUE(c.send(wire));

  std::uint8_t opcode = 0;
  std::string payload;
  std::string perr;

  // events: totals present, no alerts from the quiet SLO engine.
  ASSERT_TRUE(c.readFrame(&opcode, &payload));
  EXPECT_EQ(opcode, kOpJson);
  auto obj = serve::wire::parseObject(payload, &perr);
  ASSERT_TRUE(obj.has_value()) << payload << ": " << perr;
  EXPECT_EQ(obj->at("status").string, "ok");
  EXPECT_EQ(obj->at("alerts").number, 0.0);
  ASSERT_NE(obj->find("recorded"), obj->end());
  ASSERT_NE(obj->find("body"), obj->end());

  // tsdb: the fixture ingested two scrapes of tun_total (5 then 10).
  ASSERT_TRUE(c.readFrame(&opcode, &payload));
  EXPECT_EQ(opcode, kOpJson);
  obj = serve::wire::parseObject(payload, &perr);
  ASSERT_TRUE(obj.has_value()) << payload << ": " << perr;
  EXPECT_EQ(obj->at("status").string, "ok");
  EXPECT_EQ(obj->at("series").string, "tun_total");
  EXPECT_EQ(obj->at("samples").number, 2.0);
  EXPECT_EQ(obj->at("min").number, 5.0);
  EXPECT_EQ(obj->at("max").number, 10.0);

  // slo: one declared SLO, not burning without error history.
  ASSERT_TRUE(c.readFrame(&opcode, &payload));
  EXPECT_EQ(opcode, kOpJson);
  obj = serve::wire::parseObject(payload, &perr);
  ASSERT_TRUE(obj.has_value()) << payload << ": " << perr;
  EXPECT_EQ(obj->at("status").string, "ok");
  EXPECT_EQ(obj->at("slos").number, 1.0);
  EXPECT_EQ(obj->at("burning").number, 0.0);
  EXPECT_FALSE(obj->at("slo.api.burning").boolean);

  // profile: the status op answers even with the profiler disarmed.
  ASSERT_TRUE(c.readFrame(&opcode, &payload));
  EXPECT_EQ(opcode, kOpJson);
  obj = serve::wire::parseObject(payload, &perr);
  ASSERT_TRUE(obj.has_value()) << payload << ": " << perr;
  EXPECT_EQ(obj->at("status").string, "ok");
  EXPECT_EQ(obj->at("action").string, "status");
  ASSERT_NE(obj->find("running"), obj->end());
}

TEST_F(NetServiceEndToEnd, MalformedBinaryTuneGetsABinaryError) {
  Client c;
  std::string error;
  ASSERT_TRUE(c.open("127.0.0.1", server_->port(), kBinary, &error)) << error;
  std::string wire;
  appendFrame(wire, kOpTune, "\x01");  // truncated codec payload
  ASSERT_TRUE(c.send(wire));
  std::uint8_t opcode = 0;
  std::string payload;
  ASSERT_TRUE(c.readFrame(&opcode, &payload));
  EXPECT_EQ(opcode, kOpTune);
  std::string derr;
  const auto resp = serve::wire_binary::decodeTuneResponse(payload, &derr);
  ASSERT_TRUE(resp.has_value()) << derr;
  EXPECT_EQ(resp->status, serve::Status::Error);
  EXPECT_NE(resp->error.find("truncated"), std::string::npos);
}

// The fleet backend behind the same transport (epserved --shards N):
// fleet::routerHooks accepts the "device":"auto" tunes the broker
// hooks reject, in both framings, and routes study sweeps.
TEST(NetServiceFleet, RouterHooksServeAutoTunesAndStudies) {
  std::vector<fleet::FleetShardConfig> shards(2);
  const auto engine = std::make_shared<serve::EpStudyEngine>();
  for (std::size_t i = 0; i < shards.size(); ++i) {
    shards[i].id = i == 0 ? "s0" : "s1";
    shards[i].engine = engine;
    shards[i].broker.threads = 2;
  }
  fleet::FleetRouter router(std::move(shards));
  serve::NetServiceHooks hooks = fleet::routerHooks(router);
  hooks.control = [&router](const serve::wire::WireRequest&) {
    return router.renderWireSnapshot();
  };
  serve::NetService service(std::move(hooks));
  Server server(ServerOptions{}, service.handler());
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Client json;
  ASSERT_TRUE(json.open("127.0.0.1", server.port(), kJson, &error)) << error;
  std::string reply;
  ASSERT_TRUE(json.roundTrip(
      "{\"op\":\"tune\",\"device\":\"auto\",\"n\":1024,"
      "\"maxDegradation\":0.11}",
      &reply));
  EXPECT_NE(reply.find("\"status\":\"ok\""), std::string::npos) << reply;
  ASSERT_TRUE(json.roundTrip(
      "{\"op\":\"study\",\"device\":\"k40c\",\"nBegin\":1024,"
      "\"nEnd\":2048,\"nStep\":512}",
      &reply));
  EXPECT_NE(reply.find("\"status\":\"ok\""), std::string::npos) << reply;

  Client binary;
  ASSERT_TRUE(binary.open("127.0.0.1", server.port(), kBinary, &error))
      << error;
  serve::wire_binary::BinaryTuneRequest breq;
  breq.tune.n = 2048;
  breq.tune.maxDegradation = 0.11;
  breq.deviceAuto = true;
  std::string wire;
  appendFrame(wire, kOpTune, serve::wire_binary::encodeTuneRequest(breq));
  ASSERT_TRUE(binary.send(wire));
  std::uint8_t opcode = 0;
  std::string payload;
  ASSERT_TRUE(binary.readFrame(&opcode, &payload));
  const auto resp = serve::wire_binary::decodeTuneResponse(payload, &error);
  ASSERT_TRUE(resp.has_value()) << error;
  EXPECT_EQ(resp->status, serve::Status::Ok) << resp->error;

  // Both tunes and the sweep went through the router.
  ASSERT_TRUE(json.roundTrip("{\"op\":\"fleet\"}", &reply));
  const auto snap = serve::wire::parseObject(reply, &error);
  ASSERT_TRUE(snap.has_value()) << error;
  EXPECT_EQ(serve::wire::getNumber(*snap, "requests"), 3.0) << reply;
  server.stop();
  service.stop();
  router.shutdown();
}

}  // namespace
}  // namespace ep::net
