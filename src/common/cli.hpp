// Checked numeric flag values for the command-line tools: the whole
// text must parse as a number inside [lo, hi].  "--port abc" and
// "--port 70000" are then usage errors, not an uncaught exception or a
// port silently wrapped to 16 bits.
#pragma once

#include <charconv>
#include <cstring>
#include <system_error>

namespace ep::cli {

template <typename T>
[[nodiscard]] bool parseNumber(const char* text, T lo, T hi, T* out) {
  if (text == nullptr) return false;
  const char* end = text + std::strlen(text);
  T value{};
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end || !(value >= lo && value <= hi)) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace ep::cli
