#include "chaos/faulty_transport.hpp"

#include <array>
#include <chrono>
#include <string_view>
#include <thread>

#include "common/rng.hpp"

namespace ep::chaos {

namespace {

constexpr std::uint64_t kTransportSalt = 0x7A4590ULL;

// The transport's faults in the order decide() passes their rates, the
// remainder last, and the tally kind of each.
enum Fault : std::size_t { kReset, kTorn, kCorrupt, kStall, kNone };
constexpr fault::FaultKind kKinds[] = {
    fault::FaultKind::ConnectReset, fault::FaultKind::TornFrame,
    fault::FaultKind::CorruptFrame, fault::FaultKind::Stall};

// The fault of one attempt of a client stream's request.
Fault decide(const ChaosOptions& c, std::uint64_t stream,
             std::uint64_t requestIndex, int attempt) {
  if (!c.enabled()) return kNone;
  return static_cast<Fault>(fault::pickKind(
      fault::forkDecision(Rng(c.seed),
                          {kChaosSalt, kTransportSalt, stream, requestIndex,
                           static_cast<std::uint64_t>(attempt)})
          .uniform(0.0, 1.0),
      std::array{c.connectResetRate, c.tornFrameRate, c.corruptFrameRate,
                 c.stallRate}));
}

}  // namespace

FaultyTransport::FaultyTransport(FaultyTransportOptions options,
                                 std::uint64_t stream)
    : options_(std::move(options)), stream_(stream) {}

bool FaultyTransport::ensureConnected() {
  return conn_.connected() ||
         conn_.open(options_.host, static_cast<std::uint16_t>(options_.port),
                    {.binary = options_.binary,
                     .recvTimeoutMs = options_.recvTimeoutMs});
}

FaultyTransport::Outcome FaultyTransport::roundTrip(
    const std::string& framed, std::uint64_t requestIndex) {
  Outcome out;
  for (int attempt = 0; attempt < options_.maxAttempts; ++attempt) {
    ++out.attempts;
    Fault fault = decide(options_.chaos, stream_, requestIndex, attempt);
    if (!ensureConnected()) {
      // Connect refused/failed: nothing to replay against; brief pause
      // so a restarting server gets a chance.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    // An empty frame has no byte to corrupt.
    if (fault == kCorrupt && framed.empty()) fault = kNone;
    if (fault != kNone) {
      counts_.add(kKinds[fault]);
      ++out.faultsInjected;
    }
    if (fault == kReset) {
      conn_.close();
      continue;
    }
    if (fault == kStall) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(options_.chaos.stallMs));
    }
    if (fault == kTorn) {
      (void)conn_.send(std::string_view(framed).substr(0, framed.size() / 2));
      conn_.close();  // the server discards the partial frame on EOF
      continue;
    }
    std::string wire = framed;
    const bool corrupted = fault == kCorrupt;
    if (corrupted) {
      if (options_.binary) {
        // A length varint that never terminates: eleven continuation
        // bytes exceed the ten-byte varint ceiling, so the decoder
        // rejects it immediately (no ambiguity, no buffering a bogus
        // declared length) and the server answers bad_request + close.
        wire.assign(11, static_cast<char>(0x80));
        wire += framed;
      } else {
        // Break the line's first byte so the JSON parser rejects it.
        wire[0] = static_cast<char>(wire[0] ^ 0x80);
      }
    }
    std::string body;
    const bool answered =
        conn_.send(wire) && conn_.read(&body, /*wait=*/true, &out.opcode);
    // A dead connection is replayed; so is the answer to our own
    // injected corruption (the server also closes a broken-framing
    // connection).
    if (!answered || corrupted) {
      conn_.close();
      continue;
    }
    out.ok = true;
    out.body = std::move(body);
    return out;
  }
  return out;
}

}  // namespace ep::chaos
