#include "chaos/faulty_transport.hpp"

#include <chrono>
#include <string_view>
#include <thread>

#include "common/rng.hpp"

namespace ep::chaos {

namespace {
constexpr std::uint64_t kTransportSalt = 0x7A4590ULL;
}  // namespace

FaultyTransport::FaultyTransport(FaultyTransportOptions options,
                                 std::uint64_t stream)
    : options_(std::move(options)), stream_(stream) {}

FaultyTransport::Fault FaultyTransport::decide(std::uint64_t requestIndex,
                                               int attempt) {
  const ChaosOptions& c = options_.chaos;
  if (!c.enabled) return Fault::None;
  Rng stream = Rng(c.seed).fork(
      mix64(mix64(mix64(mix64(c.streamSalt, kTransportSalt), stream_),
                  requestIndex),
            static_cast<std::uint64_t>(attempt)));
  double u = stream.uniform(0.0, 1.0);
  if (u < c.connectResetRate) return Fault::Reset;
  u -= c.connectResetRate;
  if (u < c.tornFrameRate) return Fault::Torn;
  u -= c.tornFrameRate;
  if (u < c.corruptFrameRate) return Fault::Corrupt;
  u -= c.corruptFrameRate;
  if (u < c.stallRate) return Fault::Stall;
  return Fault::None;
}

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
    const Fault fault = decide(requestIndex, attempt);
    if (!ensureConnected()) {
      // Connect refused/failed: nothing to replay against; brief pause
      // so a restarting server gets a chance.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    if (fault == Fault::Reset) {
      ++counts_.connectResets;
      ++out.faultsInjected;
      conn_.close();
      continue;
    }
    if (fault == Fault::Stall) {
      ++counts_.stalls;
      ++out.faultsInjected;
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(options_.chaos.stallMs));
    }
    if (fault == Fault::Torn) {
      ++counts_.tornFrames;
      ++out.faultsInjected;
      (void)conn_.send(std::string_view(framed).substr(0, framed.size() / 2));
      conn_.close();  // the server discards the partial frame on EOF
      continue;
    }
    std::string wire = framed;
    bool corrupted = false;
    if (fault == Fault::Corrupt && !wire.empty()) {
      ++counts_.corruptedFrames;
      ++out.faultsInjected;
      corrupted = true;
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
