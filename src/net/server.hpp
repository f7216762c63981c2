// epnet: an edge-triggered epoll event-loop TCP server with
// cross-connection request batching and zero-copy response fan-out.
//
// Why it exists: the PR 1 frontend spent a thread per connection and a
// wakeup per request, which capped epserved at ~45k req/s while the
// in-process broker does hundreds of thousands — exactly the serving
// overhead the energy-nonproportionality papers indict (cycles burned
// per request that do no useful work still draw near-peak power).
//
// Architecture
//   * N event threads (ServerOptions::eventThreads), each owning its
//     own epoll instance, an eventfd for cross-thread wakeups, and the
//     connections dealt to it.  Loop 0 also owns the one listener: it
//     accepts, and deals the k-th accepted connection to loop
//     (k - 1) mod N, so the split is a pure function of accept order
//     (four connections over two loops are always 2:2).  Another loop
//     adopts its connection through its inbox and eventfd, the same
//     path cross-thread responses take.  No connection state is ever
//     touched by two event threads.
//   * Edge-triggered reads: one EPOLLIN wakeup drains a socket to
//     EAGAIN, the FrameDecoder splits the bytes into frames, and all
//     frames from all ready sockets of one epoll_wait round are
//     accumulated into a single batch handed to the BatchHandler — the
//     cross-connection batching that lets the broker amortize one lock
//     acquisition over the whole round, and run the round's cold
//     model-direct studies right here, on the event thread.
//   * Responses: the handler answers each frame via respond() exactly
//     once, from any thread.  Buffers are refcounted
//     (shared_ptr<const string>): rendered once, enqueued per
//     connection without copying, written with writev().  Per-frame
//     sequence numbers restore pipelined response order — a fast
//     cache hit answered inline never overtakes a slow cold study
//     answered later from another thread on the same connection.
//   * Slow readers: each connection's pending write queue is bounded
//     by writeHighWaterBytes; a peer that stalls past it is evicted
//     (connection closed, ep_net_evicted_total incremented) instead of
//     buffering unboundedly.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/frame.hpp"
#include "obs/metrics.hpp"

namespace ep::net {

// Refcounted response bytes: render once, enqueue anywhere.
using ResponseBuffer = std::shared_ptr<const std::string>;

inline ResponseBuffer makeBuffer(std::string s) {
  return std::make_shared<const std::string>(std::move(s));
}

// Fault-injection test seam (bound by chaos::NetChaos; see
// src/chaos/net_chaos.hpp).  All callbacks run on event threads with
// the connection's state consistent; unset std::functions are skipped.
// A null hook pointer costs one pointer compare per accept/read — the
// chaos-off hot path is byte-for-byte the PR 8 behaviour.
struct ServerChaosHooks {
  // Consulted once per accepted connection, on loop 0 before it is
  // dealt; true = close it immediately (the peer sees a reset on its
  // next I/O).
  std::function<bool(std::uint64_t conn)> dropOnAccept;
  // Consulted with every inbound chunk before it reaches the frame
  // decoder; may mutate the bytes (corruption).  Returning true
  // additionally hard-closes the connection after the chunk is decoded.
  std::function<bool(std::uint64_t conn, std::string& bytes)> onInbound;
};

struct ServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ephemeral; port() reports the choice
  std::size_t eventThreads = 1;
  // Slow-reader eviction threshold: pending unsent response bytes.
  std::size_t writeHighWaterBytes = std::size_t{8} << 20;
  // Metrics registry for the ep_net_* family.  nullptr = the server
  // owns a private registry, so concurrent servers in one process never
  // alias each other's counters; daemons that want the ep_net_* family
  // on their process-wide {"op":"metrics"} surface pass
  // &obs::Registry::global() explicitly.
  obs::Registry* registry = nullptr;
  // Deterministic fault injection (tests/drills only); nullptr = off.
  // Must outlive the server.
  const ServerChaosHooks* chaos = nullptr;
};

// One decoded inbound frame, tagged with enough identity to answer it.
struct InboundFrame {
  std::uint64_t conn = 0;  // opaque connection id
  std::uint64_t seq = 0;   // per-connection arrival order
  bool binary = false;     // reply must use EPB1 framing
  std::uint8_t opcode = kOpJson;
  std::string payload;     // JSON text (kOpJson) or codec bytes
};

class Server;

// Called on an event thread with every frame drained in one loop
// iteration (possibly spanning many connections).  For each frame the
// handler must eventually call Server::respond exactly once — inline
// for cheap requests, from a worker thread for expensive ones.  The
// buffer passed to respond() must already be fully framed bytes
// (JSON line + '\n', or an EPB1 frame).
using BatchHandler =
    std::function<void(Server& server, std::vector<InboundFrame>&& batch)>;

class Server {
 public:
  Server(ServerOptions options, BatchHandler handler);
  ~Server();  // stop()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Bind + listen + spawn the event threads.  False (with *error set)
  // on socket failure.
  bool start(std::string* error);

  // Join the event threads, then close the listener and every
  // connection, including those dealt but not yet adopted.  Pending
  // unanswered frames are dropped (their late respond() calls are
  // ignored).  Idempotent.
  void stop();

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_acquire);
  }

  // Deliver the response for frame (conn, seq).  Thread-safe; callable
  // from the handler inline or from any worker thread.  Responses are
  // written to the socket in seq order regardless of completion order.
  // Silently dropped when the connection is already gone.
  void respond(std::uint64_t conn, std::uint64_t seq, ResponseBuffer buf);

  // Test/ops introspection.
  [[nodiscard]] std::uint64_t evicted() const { return cEvicted_.value(); }
  [[nodiscard]] std::uint64_t protocolErrors() const {
    return cProtocolErrors_.value();
  }
  [[nodiscard]] std::int64_t openConnections() const {
    return gOpen_.value();
  }
  // The registry holding this server's ep_net_* family: the one passed
  // in ServerOptions, or the server-owned private registry.
  [[nodiscard]] obs::Registry& registry();

 private:
  struct EventLoop;
  friend struct EventLoop;

  ServerOptions options_;
  BatchHandler handler_;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::vector<std::unique_ptr<EventLoop>> loops_;

  // Owned when options_.registry == nullptr; declared before the
  // counter references so it outlives their initialization.
  std::unique_ptr<obs::Registry> ownedRegistry_;
  obs::Counter& cConnections_;
  obs::Counter& cFrames_;
  obs::Counter& cBatches_;
  obs::Counter& cEvicted_;
  obs::Counter& cProtocolErrors_;
  obs::Counter& cBytesRead_;
  obs::Counter& cBytesWritten_;
  obs::Gauge& gOpen_;
};

}  // namespace ep::net
