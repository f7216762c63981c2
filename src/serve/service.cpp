#include "serve/service.hpp"

#include <utility>

#include "common/error.hpp"
#include "serve/wire_binary.hpp"

namespace ep::serve {

namespace {

obs::TraceContext rootContext(const std::string& traceId) {
  obs::TraceContext ctx;
  ctx.traceId = obs::traceIdFromString(traceId);
  return ctx;
}

}  // namespace

NetServiceHooks brokerHooks(Broker& broker) {
  NetServiceHooks hooks;
  hooks.tuneBatch = [&broker](std::vector<ServiceTuneItem>&& items) {
    std::vector<Broker::TuneBatchItem> batch;
    batch.reserve(items.size());
    for (auto& item : items) {
      if (item.deviceAuto) {
        TuneResponse resp;
        resp.status = Status::Error;
        resp.error =
            "\"auto\" device needs a fleet (epserved --shards N, N > 1)";
        item.done(std::move(resp));
        continue;
      }
      Broker::TuneBatchItem member;
      member.req = item.req;
      member.ctx = item.ctx;
      member.done = std::move(item.done);
      batch.push_back(std::move(member));
    }
    broker.submitTuneBatch(std::move(batch));
  };
  hooks.study = [&broker](const StudyRequest& req) {
    return broker.study(req);
  };
  return hooks;
}

NetService::NetService(NetServiceHooks hooks) : hooks_(std::move(hooks)) {
  EP_REQUIRE(hooks_.tuneBatch && hooks_.study && hooks_.control,
             "NetService needs all three hooks");
  slowPool_ = std::make_unique<ThreadPool>(1);
}

net::BatchHandler NetService::handler() {
  return [this](net::Server& server, std::vector<net::InboundFrame>&& batch) {
    handleBatch(server, std::move(batch));
  };
}

net::ResponseBuffer NetService::frameJson(std::string body, bool binary) {
  if (binary) {
    std::string out;
    net::appendFrame(out, net::kOpJson, body);
    return net::makeBuffer(std::move(out));
  }
  body += '\n';
  return net::makeBuffer(std::move(body));
}

void NetService::handleBatch(net::Server& server,
                             std::vector<net::InboundFrame>&& batch) {
  // Tune items from every connection in this round accumulate here and
  // go to the backend as one submitTuneBatch call.
  std::vector<ServiceTuneItem> tunes;
  tunes.reserve(batch.size());

  for (net::InboundFrame& frame : batch) {
    const std::uint64_t conn = frame.conn;
    const std::uint64_t seq = frame.seq;
    const bool binary = frame.binary;

    if (frame.opcode == net::kOpTune) {
      // Compact binary tune: decode with the codec, answer in kind.
      std::string error;
      auto decoded = wire_binary::decodeTuneRequest(frame.payload, &error);
      if (!decoded) {
        TuneResponse resp;
        resp.status = Status::Error;
        resp.error = error;
        std::string out;
        net::appendFrame(out, net::kOpTune,
                    wire_binary::encodeTuneResponse(resp, "", false));
        server.respond(conn, seq, net::makeBuffer(std::move(out)));
        continue;
      }
      ServiceTuneItem item;
      item.req = decoded->tune;
      item.deviceAuto = decoded->deviceAuto;
      item.ctx = rootContext(decoded->traceId);
      item.done = [&server, conn, seq, traceId = decoded->traceId,
                   report = decoded->report](TuneResponse&& resp) {
        std::string out;
        net::appendFrame(out, net::kOpTune,
                    wire_binary::encodeTuneResponse(resp, traceId, report));
        server.respond(conn, seq, net::makeBuffer(std::move(out)));
      };
      tunes.push_back(std::move(item));
      continue;
    }

    // JSON vocabulary — either a bare line or tunneled in kOpJson.
    std::string error;
    const auto req = wire::decodeRequest(frame.payload, &error);
    if (!req) {
      server.respond(conn, seq, frameJson(wire::encodeError(error), binary));
      continue;
    }
    switch (req->op) {
      case wire::WireRequest::Op::Tune: {
        ServiceTuneItem item;
        item.req = req->tune;
        item.deviceAuto = req->deviceAuto;
        item.ctx = rootContext(req->traceId);
        item.done = [&server, conn, seq, binary, traceId = req->traceId,
                     report = req->report](TuneResponse&& resp) {
          server.respond(
              conn, seq,
              frameJson(wire::encodeTuneResponse(resp, traceId, report),
                        binary));
        };
        tunes.push_back(std::move(item));
        break;
      }
      case wire::WireRequest::Op::Study: {
        // Multi-second sweeps must not stall the event loop: run the
        // blocking hook on the slow-op pool and respond from there.
        slowPool_->submit([this, &server, conn, seq, binary, r = *req] {
          obs::ScopedTraceContext tctx(rootContext(r.traceId));
          obs::Span span("serve/request");
          StudyResponse resp = hooks_.study(r.study);
          server.respond(
              conn, seq,
              frameJson(wire::encodeStudyResponse(resp, r.traceId, r.report),
                        binary));
        });
        break;
      }
      default:
        // Control-plane renders are cheap: answer inline.
        server.respond(conn, seq, frameJson(hooks_.control(*req), binary));
        break;
    }
  }

  if (!tunes.empty()) hooks_.tuneBatch(std::move(tunes));
}

}  // namespace ep::serve
