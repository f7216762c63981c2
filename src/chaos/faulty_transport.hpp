// Client-side transport chaos: a blocking request/response socket that
// injects connection resets, torn frames, corrupted EPB1 varints and
// send stalls between a real client and a real net::Server — then
// transparently reconnects and replays, so a campaign exercises the
// server's disconnect/protocol-error paths without ever wedging the
// client.
//
// Fault decisions are drawn per (stream, request, attempt) from forked
// Rng streams: N workers each owning one FaultyTransport produce the
// same fault schedule whether they run serially or concurrently, which
// is what makes a chaoscheck campaign bitwise-reproducible.
//
// Injected faults are replayed internally (they are *transport* faults;
// the request was never served).  Served error responses — including
// the server's bad_request answer to a corrupted frame — are returned
// to the caller, whose RetryPolicy/RetryBudget decides what to do next.
// The socket itself is a net::Client; this class owns only the fault
// decisions and what each fault does to the bytes.
#pragma once

#include <cstdint>
#include <string>

#include "chaos/chaos.hpp"
#include "net/client.hpp"

namespace ep::chaos {

struct FaultyTransportOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  // EPB1 framing: the transport sends the magic on every (re)connect
  // and parses varint-framed responses; otherwise line JSON.
  bool binary = false;
  // Replay ceiling for injected/consequential transport faults; hitting
  // it returns ok=false (never hangs, never loops forever).
  int maxAttempts = 16;
  // Socket receive timeout; a server that never answers is a transport
  // fault, not a hang.
  double recvTimeoutMs = 5000.0;
  ChaosOptions chaos{};
};

class FaultyTransport {
 public:
  // `stream` decorrelates fault schedules of concurrent clients.
  FaultyTransport(FaultyTransportOptions options, std::uint64_t stream);

  FaultyTransport(const FaultyTransport&) = delete;
  FaultyTransport& operator=(const FaultyTransport&) = delete;

  struct Outcome {
    bool ok = false;          // a complete response arrived
    std::string body;         // JSON text (no '\n') / frame body sans opcode
    std::uint8_t opcode = 0;  // binary mode: response opcode
    int attempts = 0;         // transport attempts consumed
    int faultsInjected = 0;   // faults injected across those attempts
  };

  // One framed request (JSON line incl. '\n', or one EPB1 frame without
  // the connection magic) -> one response.
  [[nodiscard]] Outcome roundTrip(const std::string& framed,
                                  std::uint64_t requestIndex);

  [[nodiscard]] const ChaosCounts& counts() const { return counts_; }

 private:
  enum class Fault { None, Reset, Torn, Corrupt, Stall };

  Fault decide(std::uint64_t requestIndex, int attempt);
  bool ensureConnected();

  FaultyTransportOptions options_;
  std::uint64_t stream_;
  net::Client conn_;
  ChaosCounts counts_;
};

}  // namespace ep::chaos
