// serve::NetService — the glue between net::Server's frame batches and
// the tuning backends (Broker for epserved, FleetRouter for
// epserved --shards N).
//
// Responsibilities, per epoll round:
//   * Decode every inbound frame once: EPB1 kOpTune via the binary
//     codec, everything else through wire::decodeRequest.
//   * Partition by cost.  Tune requests across all connections are
//     collected and handed to the backend as ONE batch (the hook calls
//     Broker::submitTuneBatch / FleetRouter::submitTuneBatch, so one
//     admission lock amortizes over the whole round; a model-direct
//     engine then runs the round's cold studies right here, on the
//     event thread, and a metered one takes one pool hop).
//     Control ops (metrics, trace, events, tsdb, slo, fleet) render
//     inline on the event thread — they are string renders, microseconds.
//     Study sweeps run on a one-worker slow-op pool so a multi-second
//     sweep never stalls the event loop.
//   * Render each response exactly once into a refcounted buffer, in
//     the framing the request arrived under (JSON line, EPB1/kOpJson,
//     or EPB1/kOpTune), and respond() with the frame's (conn, seq) —
//     net::Server restores pipelined order.
//
// Both modes of the daemon mount the same class; the backend
// differences live in the three hooks.  brokerHooks() below and
// fleet::routerHooks() fill in the tune and study hooks of each
// backend; the control hook is the daemon's op switch.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "net/server.hpp"
#include "obs/trace.hpp"
#include "serve/broker.hpp"
#include "serve/wire.hpp"

namespace ep::serve {

// One tune request extracted from a batch, backend-agnostic: the fleet
// hook honors deviceAuto, the single-broker hook rejects it.  `done`
// renders and delivers the response; it must be called exactly once
// and is safe from any thread.
struct ServiceTuneItem {
  TuneRequest req;
  bool deviceAuto = false;
  obs::TraceContext ctx;
  std::function<void(TuneResponse&&)> done;
};

struct NetServiceHooks {
  // Submit the round's tune requests as one batch.  Required.
  std::function<void(std::vector<ServiceTuneItem>&&)> tuneBatch;
  // Blocking study sweep; runs on the slow-op pool.  Required.
  std::function<StudyResponse(const StudyRequest&)> study;
  // Every non-tune, non-study op, rendered to one JSON object (no
  // trailing newline).  Runs inline on the event thread.  Required.
  std::function<std::string(const wire::WireRequest&)> control;
};

// The Broker backend's tune and study hooks (control stays unset):
// every tune of one round goes to ONE Broker::submitTuneBatch call,
// and "device":"auto" is answered with an error — placing it needs a
// fleet's price table.
[[nodiscard]] NetServiceHooks brokerHooks(Broker& broker);

class NetService {
 public:
  explicit NetService(NetServiceHooks hooks);

  // The callback to construct net::Server with.  The NetService must
  // outlive the server (the daemon owns both; destroy the server
  // first).
  [[nodiscard]] net::BatchHandler handler();

  // Join the slow-op worker (blocks until running sweeps finish).
  // Call AFTER net::Server::stop() — no more batches arrive then — and
  // before the server object is destroyed, so in-flight study
  // responses never touch a dead server.  Idempotent.
  void stop() { slowPool_.reset(); }

  // Frame one already-rendered JSON body for a connection mode.
  [[nodiscard]] static net::ResponseBuffer frameJson(std::string body,
                                                     bool binary);

 private:
  void handleBatch(net::Server& server, std::vector<net::InboundFrame>&& batch);

  NetServiceHooks hooks_;
  // One worker for blocking study sweeps.
  std::unique_ptr<ThreadPool> slowPool_;
};

}  // namespace ep::serve
