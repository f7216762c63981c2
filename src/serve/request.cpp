#include "serve/request.hpp"

#include <algorithm>
#include <cctype>

#include "common/rng.hpp"

namespace ep::serve {

const char* deviceName(Device d) { return kDevices[deviceIndex(d)].name; }

std::optional<Device> parseDevice(std::string_view name) {
  const auto upperOf = [](char a, char b) {
    return a == std::toupper(static_cast<unsigned char>(b));
  };
  for (const DeviceInfo& row : kDevices) {
    const std::string_view wireName = row.name;
    if (name == wireName || name == row.label ||
        std::equal(name.begin(), name.end(), wireName.begin(),
                   wireName.end(), upperOf)) {
      return row.device;
    }
  }
  return std::nullopt;
}

std::vector<int> StudyRequest::sizes() const {
  std::vector<int> out;
  if (nBegin <= 0 || nEnd < nBegin || nStep <= 0) return out;
  for (int n = nBegin; n <= nEnd; n += nStep) out.push_back(n);
  return out;
}

const char* statusName(Status s) {
  switch (s) {
    case Status::Ok:
      return "ok";
    case Status::QueueFull:
      return "queue_full";
    case Status::DeadlineExceeded:
      return "deadline_exceeded";
    case Status::ShuttingDown:
      return "shutting_down";
    case Status::Error:
      return "error";
    case Status::CircuitOpen:
      return "circuit_open";
    case Status::Overloaded:
      return "overloaded";
  }
  return "unknown";
}

std::size_t StudyKeyHash::operator()(const StudyKey& k) const noexcept {
  std::uint64_t h = splitmix64(static_cast<std::uint64_t>(k.device) + 1);
  h = splitmix64(h ^ static_cast<std::uint64_t>(k.n));
  h = splitmix64(h ^ k.tuningHash);
  return static_cast<std::size_t>(h);
}

}  // namespace ep::serve
