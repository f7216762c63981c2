// The benchmark's own reading and writing of the wire protocols: flat
// line-JSON, the Prometheus text exposition, and the EPB1 varint (for
// the tune request bodies the traced run replays).  Written against the
// protocol documentation rather than linked from the program, so a
// faster codec in the daemon never makes the client faster too.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

void putVarint(std::string& out, std::uint64_t v);

// One field of a flat JSON object.  `raw` is the number/literal text,
// or the string contents without quotes and still escaped.
struct JsonField {
  std::string_view key;
  std::string_view raw;
};

// Parse one flat JSON object (no nesting).  False when malformed.
bool parseFlatJson(std::string_view text, std::vector<JsonField>* fields);
[[nodiscard]] const JsonField* findField(const std::vector<JsonField>& fields,
                                         std::string_view key);
[[nodiscard]] std::string unescapeJson(std::string_view raw);

// Sum of every sample of each metric family in a Prometheus text
// exposition, over all label sets ("ep_request_windows_total" adds up
// its per-device children).  Histogram series keep their suffixes.
[[nodiscard]] std::map<std::string, double> parsePrometheus(
    std::string_view text);

// A double exactly as the line-JSON encoder prints it (%.12g).
[[nodiscard]] std::string jsonNumber(double v);

}  // namespace e2e
