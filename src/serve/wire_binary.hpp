// Compact binary codec for tune requests/responses — the payload of
// net::kOpTune frames under EPB1 framing.
//
// The line-JSON protocol spends most of a cache-hit request's cycles
// on text: parsing the request object and rendering ~300 bytes of
// response JSON.  This codec replaces both with fixed-width fields and
// LEB128 varints (~30-byte requests, ~100-byte responses) so a tune
// round trip is dominated by the broker, not the serializer.
//
// Layout (all varints LEB128, all f64 little-endian IEEE 754):
//
//   TuneRequest body:
//     u8      device            (deviceIndex: 0 = P100, 1 = K40c)
//     u8      flags             (bit0 report, bit1 device=auto)
//     varint  n
//     f64     maxDegradation
//     f64     deadlineMs
//     varint  len || bytes      traceId ("" = none)
//
//   TuneResponse body:
//     u8      status            (serve::Status enumerator)
//     u8      flags             (bit0 cacheHit, bit1 coalesced,
//                                bit2 stale, bit3 hasReport)
//     varint  len || bytes      error
//     varint  len || bytes      traceId echo
//     f64     latencyMs
//     if status == Ok:
//       varint len || bytes     recommended label
//       f64     recommendedTimeS
//       f64     recommendedEnergyJ
//       f64     energySavings
//       f64     performanceDegradation
//       varint  len || bytes    performanceOptimal label
//       varint  len || bytes    energyOptimal label
//       varint  len || bytes    knee label
//       varint  frontSize
//     if hasReport:
//       f64     attributedJoules
//       varint  measurementWindows, remeasures, studiesExecuted,
//               cacheHits, coalesced, staleServed, skippedConfigs
//
// Both sides tolerate trailing bytes (forward compatibility) but never
// read past the frame: every decoder returns false on truncation.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "serve/request.hpp"

namespace ep::serve::wire_binary {

struct BinaryTuneRequest {
  TuneRequest tune;
  bool report = false;
  bool deviceAuto = false;
  std::string traceId;
};

// Encode a tune request as a kOpTune frame body (no framing).
[[nodiscard]] std::string encodeTuneRequest(const BinaryTuneRequest& req);

// Decode a kOpTune request body; nullopt (with *error set) on
// truncated or out-of-range input.
[[nodiscard]] std::optional<BinaryTuneRequest> decodeTuneRequest(
    std::string_view body, std::string* error);

// Encode a tune response as a kOpTune frame body.
[[nodiscard]] std::string encodeTuneResponse(const TuneResponse& resp,
                                             const std::string& traceId,
                                             bool withReport);

// Decoded response mirror for clients (labels only, like the JSON).
struct BinaryTuneResponse {
  Status status = Status::Ok;
  std::string error;
  std::string traceId;
  double latencyMs = 0.0;
  std::string recommended;
  double recommendedTimeS = 0.0;
  double recommendedEnergyJ = 0.0;
  double energySavings = 0.0;
  double performanceDegradation = 0.0;
  std::string performanceOptimal;
  std::string energyOptimal;
  std::string knee;
  std::uint64_t frontSize = 0;
  bool cacheHit = false;
  bool coalesced = false;
  bool stale = false;
  bool hasReport = false;
  RequestReport report;
};

[[nodiscard]] std::optional<BinaryTuneResponse> decodeTuneResponse(
    std::string_view body, std::string* error);

}  // namespace ep::serve::wire_binary
