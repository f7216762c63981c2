#include "codec.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace e2e {

void putVarint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out += static_cast<char>((v & 0x7F) | 0x80);
    v >>= 7;
  }
  out += static_cast<char>(v);
}

namespace {

void skipWs(std::string_view t, std::size_t* i) {
  while (*i < t.size() && std::isspace(static_cast<unsigned char>(t[*i]))) {
    ++*i;
  }
}

// String starting at t[*i] == '"'; returns the contents, still escaped.
bool readString(std::string_view t, std::size_t* i, std::string_view* out) {
  const std::size_t start = ++*i;
  while (*i < t.size() && t[*i] != '"') {
    if (t[*i] == '\\') ++*i;
    ++*i;
  }
  if (*i >= t.size()) return false;
  *out = t.substr(start, *i - start);
  ++*i;
  return true;
}

}  // namespace

bool parseFlatJson(std::string_view t, std::vector<JsonField>* fields) {
  fields->clear();
  std::size_t i = 0;
  skipWs(t, &i);
  if (i >= t.size() || t[i] != '{') return false;
  ++i;
  skipWs(t, &i);
  if (i < t.size() && t[i] == '}') return true;
  while (i < t.size()) {
    JsonField f;
    skipWs(t, &i);
    if (i >= t.size() || t[i] != '"' || !readString(t, &i, &f.key)) {
      return false;
    }
    skipWs(t, &i);
    if (i >= t.size() || t[i] != ':') return false;
    ++i;
    skipWs(t, &i);
    if (i >= t.size()) return false;
    if (t[i] == '"') {
      if (!readString(t, &i, &f.raw)) return false;
    } else {
      const std::size_t start = i;
      while (i < t.size() && t[i] != ',' && t[i] != '}' &&
             !std::isspace(static_cast<unsigned char>(t[i]))) {
        if (t[i] == '{' || t[i] == '[') return false;
        ++i;
      }
      f.raw = t.substr(start, i - start);
      if (f.raw.empty()) return false;
    }
    fields->push_back(f);
    skipWs(t, &i);
    if (i >= t.size()) return false;
    if (t[i] == '}') return true;
    if (t[i] != ',') return false;
    ++i;
  }
  return false;
}

const JsonField* findField(const std::vector<JsonField>& fields,
                           std::string_view key) {
  for (const JsonField& f : fields) {
    if (f.key == key) return &f;
  }
  return nullptr;
}

std::string unescapeJson(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (raw[i] != '\\' || i + 1 >= raw.size()) {
      out += raw[i];
      continue;
    }
    const char e = raw[++i];
    switch (e) {
      case 'n':
        out += '\n';
        break;
      case 't':
        out += '\t';
        break;
      case 'r':
        out += '\r';
        break;
      case 'u':
        if (i + 4 < raw.size()) {
          out += static_cast<char>(
              std::strtol(std::string(raw.substr(i + 1, 4)).c_str(), nullptr,
                          16));
          i += 4;
        }
        break;
      default:
        out += e;
        break;
    }
  }
  return out;
}

std::map<std::string, double> parsePrometheus(std::string_view text) {
  std::map<std::string, double> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t nameEnd = line.find_first_of("{ ");
    if (nameEnd == std::string_view::npos) continue;
    std::size_t valueAt = line.find(' ', nameEnd);
    if (line[nameEnd] == '{') {
      const std::size_t close = line.find('}', nameEnd);
      if (close == std::string_view::npos) continue;
      valueAt = line.find(' ', close);
    }
    if (valueAt == std::string_view::npos) continue;
    const std::string value(line.substr(valueAt + 1));
    out[std::string(line.substr(0, nameEnd))] +=
        std::strtod(value.c_str(), nullptr);
  }
  return out;
}

std::string jsonNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

}  // namespace e2e
