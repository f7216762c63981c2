#include "serve/wire_binary.hpp"

#include <cstring>

#include "net/frame.hpp"

namespace ep::serve::wire_binary {

namespace {

// Cursor over one frame body; every read checks bounds so a hostile
// frame can truncate anywhere without reading past the payload.
struct Reader {
  const char* p;
  std::size_t len;
  std::size_t pos = 0;

  bool u8(std::uint8_t* out) {
    if (pos >= len) return false;
    *out = static_cast<std::uint8_t>(p[pos++]);
    return true;
  }
  bool varint(std::uint64_t* out) {
    const int used = net::readVarint(p + pos, len - pos, out);
    if (used <= 0) return false;
    pos += static_cast<std::size_t>(used);
    return true;
  }
  bool f64(double* out) {
    if (len - pos < sizeof(double)) return false;
    std::memcpy(out, p + pos, sizeof(double));
    pos += sizeof(double);
    return true;
  }
  bool str(std::string* out) {
    std::uint64_t n = 0;
    if (!varint(&n)) return false;
    if (n > len - pos) return false;
    out->assign(p + pos, static_cast<std::size_t>(n));
    pos += static_cast<std::size_t>(n);
    return true;
  }
};

void putF64(std::string& out, double v) {
  char bytes[sizeof(double)];
  std::memcpy(bytes, &v, sizeof(double));
  out.append(bytes, sizeof(double));
}

void putString(std::string& out, std::string_view s) {
  net::putVarint(out, s.size());
  out.append(s.data(), s.size());
}

constexpr std::uint8_t kReqReport = 1u << 0;
constexpr std::uint8_t kReqDeviceAuto = 1u << 1;
constexpr std::uint8_t kRespCacheHit = 1u << 0;
constexpr std::uint8_t kRespCoalesced = 1u << 1;
constexpr std::uint8_t kRespStale = 1u << 2;
constexpr std::uint8_t kRespHasReport = 1u << 3;

}  // namespace

std::string encodeTuneRequest(const BinaryTuneRequest& req) {
  std::string out;
  out.reserve(32 + req.traceId.size());
  out += static_cast<char>(deviceIndex(req.tune.device));
  std::uint8_t flags = 0;
  if (req.report) flags |= kReqReport;
  if (req.deviceAuto) flags |= kReqDeviceAuto;
  out += static_cast<char>(flags);
  net::putVarint(out, static_cast<std::uint64_t>(
                          req.tune.n < 0 ? 0 : req.tune.n));
  putF64(out, req.tune.maxDegradation);
  putF64(out, req.tune.deadlineMs);
  putString(out, req.traceId);
  return out;
}

std::optional<BinaryTuneRequest> decodeTuneRequest(std::string_view body,
                                                   std::string* error) {
  Reader r{body.data(), body.size()};
  BinaryTuneRequest req;
  std::uint8_t device = 0;
  std::uint8_t flags = 0;
  std::uint64_t n = 0;
  if (!r.u8(&device) || !r.u8(&flags) || !r.varint(&n) ||
      !r.f64(&req.tune.maxDegradation) || !r.f64(&req.tune.deadlineMs) ||
      !r.str(&req.traceId)) {
    if (error != nullptr) *error = "truncated tune request";
    return std::nullopt;
  }
  if (device >= kDeviceCount) {
    if (error != nullptr) *error = "unknown device";
    return std::nullopt;
  }
  if (n > static_cast<std::uint64_t>(1) << 30) {
    if (error != nullptr) *error = "workload out of range";
    return std::nullopt;
  }
  req.tune.device = kDevices[device].device;
  req.tune.n = static_cast<int>(n);
  req.report = (flags & kReqReport) != 0;
  req.deviceAuto = (flags & kReqDeviceAuto) != 0;
  return req;
}

std::string encodeTuneResponse(const TuneResponse& resp,
                               const std::string& traceId, bool withReport) {
  std::string out;
  out.reserve(128);
  out += static_cast<char>(static_cast<std::uint8_t>(resp.status));
  std::uint8_t flags = 0;
  if (resp.cacheHit) flags |= kRespCacheHit;
  if (resp.coalesced) flags |= kRespCoalesced;
  if (resp.stale) flags |= kRespStale;
  if (withReport) flags |= kRespHasReport;
  out += static_cast<char>(flags);
  putString(out, resp.error);
  putString(out, traceId);
  putF64(out, resp.latency.value() * 1e3);
  if (resp.status == Status::Ok) {
    const auto& rec = resp.recommendation;
    putString(out, rec.recommended.label);
    putF64(out, rec.recommended.time.value());
    putF64(out, rec.recommended.energy.value());
    putF64(out, rec.energySavings);
    putF64(out, rec.performanceDegradation);
    putString(out, rec.performanceOptimal.label);
    putString(out, rec.energyOptimal.label);
    putString(out, rec.knee.label);
    net::putVarint(out, rec.globalFront.size());
  }
  if (withReport) {
    const auto& rep = resp.report;
    putF64(out, rep.attributedJoules);
    net::putVarint(out, rep.measurementWindows);
    net::putVarint(out, rep.remeasures);
    net::putVarint(out, rep.studiesExecuted);
    net::putVarint(out, rep.cacheHits);
    net::putVarint(out, rep.coalesced);
    net::putVarint(out, rep.staleServed);
    net::putVarint(out, rep.skippedConfigs);
  }
  return out;
}

std::optional<BinaryTuneResponse> decodeTuneResponse(std::string_view body,
                                                     std::string* error) {
  Reader r{body.data(), body.size()};
  BinaryTuneResponse resp;
  std::uint8_t status = 0;
  std::uint8_t flags = 0;
  if (!r.u8(&status) || !r.u8(&flags) || !r.str(&resp.error) ||
      !r.str(&resp.traceId) || !r.f64(&resp.latencyMs)) {
    if (error != nullptr) *error = "truncated tune response";
    return std::nullopt;
  }
  if (status > static_cast<std::uint8_t>(Status::Overloaded)) {
    if (error != nullptr) *error = "unknown status";
    return std::nullopt;
  }
  resp.status = static_cast<Status>(status);
  resp.cacheHit = (flags & kRespCacheHit) != 0;
  resp.coalesced = (flags & kRespCoalesced) != 0;
  resp.stale = (flags & kRespStale) != 0;
  resp.hasReport = (flags & kRespHasReport) != 0;
  if (resp.status == Status::Ok) {
    if (!r.str(&resp.recommended) || !r.f64(&resp.recommendedTimeS) ||
        !r.f64(&resp.recommendedEnergyJ) || !r.f64(&resp.energySavings) ||
        !r.f64(&resp.performanceDegradation) ||
        !r.str(&resp.performanceOptimal) || !r.str(&resp.energyOptimal) ||
        !r.str(&resp.knee) || !r.varint(&resp.frontSize)) {
      if (error != nullptr) *error = "truncated tune response";
      return std::nullopt;
    }
  }
  if (resp.hasReport) {
    auto& rep = resp.report;
    if (!r.f64(&rep.attributedJoules) || !r.varint(&rep.measurementWindows) ||
        !r.varint(&rep.remeasures) || !r.varint(&rep.studiesExecuted) ||
        !r.varint(&rep.cacheHits) || !r.varint(&rep.coalesced) ||
        !r.varint(&rep.staleServed) || !r.varint(&rep.skippedConfigs)) {
      if (error != nullptr) *error = "truncated tune response";
      return std::nullopt;
    }
  }
  return resp;
}

}  // namespace ep::serve::wire_binary
