#include "serve/wire.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace ep::serve::wire {

namespace {

// For each byte a JSON string must escape, the character that follows
// the backslash ('u' for the \u00XX form); 0 for a byte copied as is.
constexpr std::array<char, 256> kEscapes = [] {
  std::array<char, 256> t{};
  for (int c = 0; c < 0x20; ++c) t[c] = 'u';
  t['"'] = '"';
  t['\\'] = '\\';
  t['\n'] = 'n';
  t['\r'] = 'r';
  t['\t'] = 't';
  return t;
}();

void appendEscaped(std::string& out, std::string_view s) {
  out += '"';
  // Plain characters are copied in runs; only escapes are written one
  // at a time.
  std::size_t run = 0;
  for (std::size_t i = 0;; ++i) {
    while (i < s.size() && kEscapes[static_cast<unsigned char>(s[i])] == 0) {
      ++i;
    }
    out.append(s.data() + run, i - run);
    if (i == s.size()) break;
    const auto c = static_cast<unsigned char>(s[i]);
    const char e = kEscapes[c];
    constexpr const char* kHex = "0123456789abcdef";
    const char escape[6] = {'\\', e, '0', '0', kHex[c >> 4], kHex[c & 15]};
    out.append(escape, e == 'u' ? 6 : 2);
    run = i + 1;
  }
  out += '"';
}

void appendNumber(std::string& out, double v) {
  // to_chars' general format with a precision is specified as printf's
  // %g in the C locale, so this is byte-identical to "%.12g" (±inf,
  // nan and the sign of zero included) without printf's cost.
  char buf[32];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v,
                                std::chars_format::general, 12)
                      .ptr);
}

template <typename Int>
void appendInt(std::string& out, Int v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

class Parser {
 public:
  explicit Parser(const std::string& s) : s_(s) {}

  std::optional<Object> parse(std::string* error) {
    if (s_.size() > kMaxFrameBytes) return fail(error, "frame too large");
    skipWs();
    if (!consume('{')) return fail(error, "expected '{'");
    Object obj;
    skipWs();
    if (consume('}')) return obj;
    for (;;) {
      skipWs();
      std::string key;
      if (!parseString(&key)) {
        return fail(error, strError_ ? strError_ : "expected string key");
      }
      skipWs();
      if (!consume(':')) return fail(error, "expected ':'");
      skipWs();
      Value v;
      if (!parseValue(&v)) {
        return fail(error, strError_ ? strError_ : "bad value");
      }
      // A key that appears twice is always a client bug (or an attempt
      // to smuggle conflicting parameters past a logging layer that
      // records only one of them) — reject rather than pick a winner.
      if (!obj.try_emplace(std::move(key), std::move(v)).second) {
        return fail(error, "duplicate key");
      }
      skipWs();
      if (consume(',')) continue;
      if (consume('}')) break;
      return fail(error, "expected ',' or '}'");
    }
    skipWs();
    if (pos_ != s_.size()) return fail(error, "trailing characters");
    return obj;
  }

 private:
  std::optional<Object> fail(std::string* error, const char* msg) {
    if (error) *error = msg;
    return std::nullopt;
  }

  // isspace in the C locale, inlined.
  void skipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || (s_[pos_] >= '\t' && s_[pos_] <= '\r'))) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool parseString(std::string* out) {
    if (!consume('"')) return false;
    out->clear();
    for (;;) {
      // The run up to the next quote or backslash goes in one append.
      std::size_t stop = pos_;
      while (stop < s_.size() && s_[stop] != '"' && s_[stop] != '\\') ++stop;
      if (stop == s_.size()) return failString("unterminated string");
      out->append(s_, pos_, stop - pos_);
      pos_ = stop + 1;
      if (s_[stop] == '"') return true;
      if (pos_ >= s_.size()) return failString("unterminated string");
      const char e = s_[pos_++];
      switch (e) {
        case '"':
          *out += '"';
          break;
        case '\\':
          *out += '\\';
          break;
        case '/':
          *out += '/';
          break;
        case 'n':
          *out += '\n';
          break;
        case 'r':
          *out += '\r';
          break;
        case 't':
          *out += '\t';
          break;
        case 'b':
          *out += '\b';
          break;
        case 'f':
          *out += '\f';
          break;
        case 'u': {
          // Exactly four hex digits.  Only BMP escapes of ASCII are
          // reproduced; others are replaced with '?' (the protocol
          // never emits them).
          if (pos_ + 4 > s_.size()) return failString("bad string escape");
          int code = 0;
          for (std::size_t k = 0; k < 4; ++k) {
            const int digit = hexDigit(s_[pos_ + k]);
            if (digit < 0) return failString("bad string escape");
            code = code * 16 + digit;
          }
          pos_ += 4;
          *out += (code >= 0x20 && code < 0x7F) ? static_cast<char>(code)
                                                : '?';
          break;
        }
        default:
          return failString("bad string escape");
      }
    }
  }

  static int hexDigit(char c) {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  }

  bool parseValue(Value* v) {
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '"') {
      v->kind = Value::Kind::String;
      return parseString(&v->string);
    }
    if (c == '{' || c == '[') return false;  // flat objects only
    if (s_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      v->kind = Value::Kind::Bool;
      v->boolean = true;
      return true;
    }
    if (s_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      v->kind = Value::Kind::Bool;
      v->boolean = false;
      return true;
    }
    if (s_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      v->kind = Value::Kind::Null;
      return true;
    }
    // Only the JSON number grammar: strtod alone would also take nan,
    // inf, hex floats and a leading '+'.
    const std::size_t len = numberLength();
    if (len == 0) return false;
    const char* begin = s_.c_str() + pos_;
    double num = 0.0;
    if (!exactDecimal(begin, len, &num)) {
      char* end = nullptr;
      num = std::strtod(begin, &end);
      if (end != begin + len) return false;  // e.g. "0x10", "01"
    }
    pos_ += len;
    v->kind = Value::Kind::Number;
    v->number = num;
    return true;
  }

  // Clinger's fast path.  A number of at most 15 significant digits is
  // an exact double once its decimal point is dropped, and so is 10^k
  // for k <= 22: one correctly rounded multiply or divide of the two is
  // the correctly rounded value strtod returns, without the call.  The
  // text is JSON grammar (numberLength).  False for anything else, and
  // for a bare 0 or -0, after which strtod reads on ("01", "0x10") and
  // the line is rejected as a bad value.
  static bool exactDecimal(const char* p, std::size_t len, double* out) {
    static constexpr double kPow10[] = {
        1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
        1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};
    const char* const end = p + len;
    const bool negative = *p == '-';
    if (negative) ++p;
    if (p + 1 == end && *p == '0') return false;
    std::uint64_t digits = 0;  // wraps past 19 digits; rejected below
    int significant = 0;
    int exp10 = 0;
    const auto take = [&](char c) {
      if (digits != 0 || c != '0') ++significant;
      digits = digits * 10 + static_cast<std::uint64_t>(c - '0');
    };
    for (; p != end && *p >= '0' && *p <= '9'; ++p) take(*p);
    if (p != end && *p == '.') {
      for (++p; p != end && *p >= '0' && *p <= '9'; ++p, --exp10) take(*p);
    }
    if (p != end) {  // the exponent
      ++p;
      const bool down = *p == '-';
      if (*p == '+' || *p == '-') ++p;
      int e = 0;
      for (; p != end; ++p) e = std::min(e * 10 + (*p - '0'), 1000);
      exp10 += down ? -e : e;
    }
    if (significant > 15) return false;
    double v = static_cast<double>(digits);
    if (digits != 0) {
      if (exp10 < -22 || exp10 > 22) return false;
      v = exp10 < 0 ? v / kPow10[-exp10] : v * kPow10[exp10];
    }
    *out = negative ? -v : v;
    return true;
  }

  // Length of the JSON number -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
  // at pos_, or 0 if there is none.  The scan needs no bounds checks:
  // c_str() ends in '\0', which no test below accepts.
  [[nodiscard]] std::size_t numberLength() const {
    const char* const begin = s_.c_str() + pos_;
    const char* p = begin;
    const auto digits = [&p] {
      const char* const from = p;
      while (*p >= '0' && *p <= '9') ++p;
      return p != from;
    };
    if (*p == '-') ++p;
    if (*p == '0') {
      ++p;  // no leading zeros: "01" is "0" followed by junk
    } else if (!digits()) {
      return 0;
    }
    if (*p == '.') {
      ++p;
      if (!digits()) return 0;
    }
    if (*p == 'e' || *p == 'E') {
      ++p;
      if (*p == '+' || *p == '-') ++p;
      if (!digits()) return 0;
    }
    return static_cast<std::size_t>(p - begin);
  }

  bool failString(const char* msg) {
    strError_ = msg;
    return false;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  // Set by parseString on a malformed string so parse() can report the
  // specific defect instead of a generic "bad value".
  const char* strError_ = nullptr;
};

void appendReport(ObjectWriter& w, const RequestReport& r) {
  w.add("attributedJoules", r.attributedJoules)
      .add("measurementWindows", r.measurementWindows)
      .add("remeasures", r.remeasures)
      .add("studiesExecuted", r.studiesExecuted)
      .add("reportCacheHits", r.cacheHits)
      .add("reportCoalesced", r.coalesced)
      .add("reportStaleServed", r.staleServed)
      .add("skippedConfigs", r.skippedConfigs);
}

// A decoded number as an int, truncated toward zero like a cast, or
// nullopt when that is out of int's range (NaN and +-inf included),
// where the cast would be undefined.
std::optional<int> toInt(double v) {
  if (!(v > -2147483649.0 && v < 2147483648.0)) return std::nullopt;
  return static_cast<int>(v);
}

// The same for a non-negative count: nullopt below 0 or from 2^64 up.
std::optional<std::uint64_t> toCount(double v) {
  if (!(v >= 0.0 && v < 18446744073709551616.0)) return std::nullopt;
  return static_cast<std::uint64_t>(v);
}

// A field by reference: null when `key` is absent or holds another kind.
const Value* field(const Object& obj, std::string_view key, Value::Kind kind) {
  const auto it = obj.find(key);
  return it == obj.end() || it->second.kind != kind ? nullptr : &it->second;
}

// A string field as a view of the parsed object, or `fallback`.
std::string_view stringOr(const Object& obj, std::string_view key,
                          std::string_view fallback) {
  const Value* v = field(obj, key, Value::Kind::String);
  return v ? std::string_view(v->string) : fallback;
}

}  // namespace

std::optional<double> getNumber(const Object& obj, std::string_view key) {
  const Value* v = field(obj, key, Value::Kind::Number);
  return v ? std::optional<double>(v->number) : std::nullopt;
}

std::optional<std::string> getString(const Object& obj, std::string_view key) {
  const Value* v = field(obj, key, Value::Kind::String);
  return v ? std::optional<std::string>(v->string) : std::nullopt;
}

std::optional<bool> getBool(const Object& obj, std::string_view key) {
  const Value* v = field(obj, key, Value::Kind::Bool);
  return v ? std::optional<bool>(v->boolean) : std::nullopt;
}

std::optional<Object> parseObject(const std::string& line,
                                  std::string* error) {
  return Parser(line).parse(error);
}

ObjectWriter::ObjectWriter() {
  // A tune or study response is 0.3-0.9 KiB; reserving for it up front
  // renders it, and frameJson's newline, without a reallocation.
  out_.reserve(1024);
  out_ += '{';
}

void ObjectWriter::beginField(std::string_view key) {
  if (!first_) out_ += ',';
  first_ = false;
  appendEscaped(out_, key);
  out_ += ':';
}

ObjectWriter& ObjectWriter::add(std::string_view key, std::string_view value) {
  beginField(key);
  appendEscaped(out_, value);
  return *this;
}

ObjectWriter& ObjectWriter::add(std::string_view key, const char* value) {
  return add(key, std::string_view(value));
}

ObjectWriter& ObjectWriter::add(std::string_view key, double value) {
  beginField(key);
  appendNumber(out_, value);
  return *this;
}

ObjectWriter& ObjectWriter::add(std::string_view key, std::uint64_t value) {
  beginField(key);
  appendInt(out_, value);
  return *this;
}

ObjectWriter& ObjectWriter::add(std::string_view key, int value) {
  beginField(key);
  appendInt(out_, value);
  return *this;
}

ObjectWriter& ObjectWriter::add(std::string_view key, bool value) {
  beginField(key);
  out_ += value ? "true" : "false";
  return *this;
}

std::string ObjectWriter::str() {
  out_ += '}';
  return std::move(out_);
}

std::optional<WireRequest> decodeRequest(const std::string& line,
                                         std::string* error) {
  auto fail = [&](const char* msg) -> std::optional<WireRequest> {
    if (error) *error = msg;
    return std::nullopt;
  };
  const auto obj = parseObject(line, error);
  if (!obj) return std::nullopt;
  // Fields are read in place; only what WireRequest keeps is copied.
  const Value* opField = field(*obj, "op", Value::Kind::String);
  if (opField == nullptr) return fail("missing \"op\"");
  const std::string_view op = opField->string;

  WireRequest req;
  if (op == "metrics") {
    req.op = WireRequest::Op::Metrics;
    if (const Value* format = field(*obj, "format", Value::Kind::String)) {
      if (format->string == "prometheus") {
        req.metricsFormat = MetricsFormat::Prometheus;
      } else if (format->string == "openmetrics") {
        req.metricsFormat = MetricsFormat::OpenMetrics;
      } else if (format->string == "json") {
        req.metricsFormat = MetricsFormat::Json;
      } else {
        return fail("unknown metrics \"format\"");
      }
    }
    if (const Value* scope = field(*obj, "scope", Value::Kind::String)) {
      if (scope->string != "cluster" && scope->string != "process") {
        return fail("unknown metrics \"scope\"");
      }
      req.clusterScope = (scope->string == "cluster");
      // The cluster scope is an exposition of the federated registry;
      // the flat-JSON snapshot stays the plain {"op":"fleet"} answer.
      if (req.clusterScope && req.metricsFormat == MetricsFormat::Json) {
        req.metricsFormat = MetricsFormat::Prometheus;
      }
    }
    return req;
  }
  if (op == "tsdb") {
    req.op = WireRequest::Op::Tsdb;
    const std::string_view series = stringOr(*obj, "series", "");
    if (series.empty()) return fail("tsdb needs \"series\"");
    req.tsdbSeries = series;
    req.tsdbAgg = stringOr(*obj, "agg", "all");
    if (req.tsdbAgg != "all" && req.tsdbAgg != "min" && req.tsdbAgg != "max" &&
        req.tsdbAgg != "avg" && req.tsdbAgg != "rate" &&
        req.tsdbAgg != "last" && req.tsdbAgg != "quantile" &&
        req.tsdbAgg != "raw") {
      return fail("unknown tsdb \"agg\"");
    }
    req.tsdbQ = getNumber(*obj, "q").value_or(0.99);
    if (!(req.tsdbQ >= 0.0) || !(req.tsdbQ <= 1.0)) {
      return fail("tsdb \"q\" must be in [0,1]");
    }
    req.tsdbWindowMs = getNumber(*obj, "windowMs").value_or(60000.0);
    if (!(req.tsdbWindowMs > 0.0)) {
      return fail("tsdb \"windowMs\" must be > 0");
    }
    return req;
  }
  if (op == "slo") {
    req.op = WireRequest::Op::Slo;
    return req;
  }
  if (op == "trace") {
    req.op = WireRequest::Op::Trace;
    return req;
  }
  if (op == "events") {
    req.op = WireRequest::Op::Events;
    const double since = getNumber(*obj, "since").value_or(0.0);
    if (since < 0.0) return fail("\"since\" must be >= 0");
    const auto sinceCount = toCount(since);
    if (!sinceCount) return fail("\"since\" out of range");
    req.eventsSince = *sinceCount;
    return req;
  }

  if (op == "profile") {
    req.op = WireRequest::Op::Profile;
    req.profileAction = stringOr(*obj, "action", "status");
    if (req.profileAction != "status" && req.profileAction != "start" &&
        req.profileAction != "stop" && req.profileAction != "clear" &&
        req.profileAction != "snapshot") {
      return fail("unknown profile \"action\"");
    }
    req.profileKind = stringOr(*obj, "kind", "cpu");
    if (req.profileKind != "cpu" && req.profileKind != "energy") {
      return fail("unknown profile \"kind\"");
    }
    req.profileFormat = stringOr(*obj, "format", "collapsed");
    if (req.profileFormat != "collapsed" && req.profileFormat != "speedscope") {
      return fail("unknown profile \"format\"");
    }
    const double topN = getNumber(*obj, "topN").value_or(10.0);
    if (topN < 0.0) return fail("profile \"topN\" must be >= 0");
    const auto topCount = toCount(topN);
    if (!topCount) return fail("profile \"topN\" out of range");
    req.profileTopN = static_cast<std::size_t>(*topCount);
    const double periodUs = getNumber(*obj, "periodUs").value_or(10000.0);
    if (!(periodUs >= 100.0)) {
      return fail("profile \"periodUs\" must be >= 100");
    }
    const auto period = toCount(periodUs);
    if (!period) return fail("profile \"periodUs\" out of range");
    req.profilePeriodUs = *period;
    req.profileCpuSampling = getBool(*obj, "cpuSampling").value_or(true);
    if (const Value* scope = field(*obj, "scope", Value::Kind::String)) {
      if (scope->string != "cluster" && scope->string != "process") {
        return fail("unknown profile \"scope\"");
      }
      req.clusterScope = (scope->string == "cluster");
    }
    return req;
  }

  if (op == "fleet") {
    req.op = WireRequest::Op::Fleet;
    req.fleetAction = stringOr(*obj, "action", "snapshot");
    req.fleetShard = stringOr(*obj, "shard", "");
    if (req.fleetAction != "snapshot" && req.fleetAction != "kill" &&
        req.fleetAction != "revive" && req.fleetAction != "remove" &&
        req.fleetAction != "add") {
      return fail("unknown fleet \"action\"");
    }
    if (req.fleetAction != "snapshot" && req.fleetShard.empty()) {
      return fail("fleet action needs \"shard\"");
    }
    return req;
  }

  const Value* deviceField = field(*obj, "device", Value::Kind::String);
  if (deviceField != nullptr && deviceField->string == "auto") {
    // Placement left to the fleet router's policy; only meaningful for
    // tune (a study names one device's engine).
    if (op != "tune") return fail("\"auto\" device is tune-only");
    req.deviceAuto = true;
  }
  // No device (or "auto", a placeholder until the fleet router places
  // the request) means the request structs' default device.
  const auto device = req.deviceAuto || deviceField == nullptr
                          ? std::optional<Device>{TuneRequest{}.device}
                          : parseDevice(deviceField->string);
  if (!device) return fail("unknown device");
  req.traceId = stringOr(*obj, "trace_id", "");
  req.report = getBool(*obj, "report").value_or(false);

  if (op == "tune") {
    req.op = WireRequest::Op::Tune;
    req.tune.device = *device;
    const auto n = toInt(getNumber(*obj, "n").value_or(0.0));
    if (!n) return fail("\"n\" out of range");
    req.tune.n = *n;
    req.tune.maxDegradation =
        getNumber(*obj, "maxDegradation").value_or(0.0);
    req.tune.deadlineMs = getNumber(*obj, "deadlineMs").value_or(0.0);
    return req;
  }
  if (op == "study") {
    req.op = WireRequest::Op::Study;
    req.study.device = *device;
    const auto nBegin = toInt(getNumber(*obj, "nBegin").value_or(0.0));
    if (!nBegin) return fail("\"nBegin\" out of range");
    const auto nEnd = toInt(getNumber(*obj, "nEnd").value_or(0.0));
    if (!nEnd) return fail("\"nEnd\" out of range");
    const auto nStep = toInt(getNumber(*obj, "nStep").value_or(1.0));
    if (!nStep) return fail("\"nStep\" out of range");
    req.study.nBegin = *nBegin;
    req.study.nEnd = *nEnd;
    req.study.nStep = *nStep;
    req.study.deadlineMs = getNumber(*obj, "deadlineMs").value_or(0.0);
    return req;
  }
  return fail("unknown \"op\"");
}

std::string encodeTuneResponse(const TuneResponse& resp,
                               const std::string& traceId, bool withReport) {
  ObjectWriter w;
  w.add("status", statusName(resp.status));
  if (!traceId.empty()) w.add("trace_id", traceId);
  if (!resp.error.empty()) w.add("error", resp.error);
  if (resp.status == Status::Ok) {
    const auto& rec = resp.recommendation;
    w.add("recommended", rec.recommended.label)
        .add("recommendedTimeS", rec.recommended.time.value())
        .add("recommendedEnergyJ", rec.recommended.energy.value())
        .add("energySavings", rec.energySavings)
        .add("performanceDegradation", rec.performanceDegradation)
        .add("performanceOptimal", rec.performanceOptimal.label)
        .add("energyOptimal", rec.energyOptimal.label)
        .add("knee", rec.knee.label)
        .add("frontSize", static_cast<std::uint64_t>(rec.globalFront.size()));
  }
  w.add("cacheHit", resp.cacheHit)
      .add("coalesced", resp.coalesced)
      .add("stale", resp.stale);
  if (withReport) appendReport(w, resp.report);
  w.add("latencyMs", resp.latency.value() * 1e3);
  return w.str();
}

std::string encodeStudyResponse(const StudyResponse& resp,
                                const std::string& traceId, bool withReport) {
  ObjectWriter w;
  w.add("status", statusName(resp.status));
  if (!traceId.empty()) w.add("trace_id", traceId);
  if (!resp.error.empty()) w.add("error", resp.error);
  if (resp.status == Status::Ok) {
    const auto& s = resp.statistics;
    w.add("workloads", static_cast<std::uint64_t>(s.workloads))
        .add("avgGlobalFrontSize", s.avgGlobalFrontSize)
        .add("maxGlobalFrontSize",
             static_cast<std::uint64_t>(s.maxGlobalFrontSize))
        .add("avgLocalFrontSize", s.avgLocalFrontSize)
        .add("maxLocalFrontSize",
             static_cast<std::uint64_t>(s.maxLocalFrontSize))
        .add("maxGlobalSavings", s.maxGlobalSavings)
        .add("degradationAtMaxGlobalSavings",
             s.degradationAtMaxGlobalSavings)
        .add("maxLocalSavings", s.maxLocalSavings)
        .add("degradationAtMaxLocalSavings", s.degradationAtMaxLocalSavings);
  }
  w.add("workloadCacheHits",
        static_cast<std::uint64_t>(resp.workloadCacheHits))
      .add("staleWorkloads", static_cast<std::uint64_t>(resp.staleWorkloads));
  if (withReport) appendReport(w, resp.report);
  w.add("latencyMs", resp.latency.value() * 1e3);
  return w.str();
}

std::string encodeMetrics(const ServeMetrics& m) {
  ObjectWriter w;
  w.add("status", "ok")
      .add("accepted", m.accepted)
      .add("completed", m.completed)
      .add("failed", m.failed)
      .add("rejectedQueueFull", m.rejectedQueueFull)
      .add("rejectedDeadline", m.rejectedDeadline)
      .add("rejectedShutdown", m.rejectedShutdown)
      .add("rejectedCircuitOpen", m.rejectedCircuitOpen)
      .add("rejectedOverload", m.rejectedOverload)
      .add("shedDeadline", m.shedDeadline)
      .add("coalesced", m.coalesced)
      .add("studiesExecuted", m.studiesExecuted)
      .add("breakerOpens", m.breakerOpens)
      .add("staleServed", m.staleServed);
  for (const DeviceInfo& d : kDevices) {
    w.add(std::string("breakerState") + d.label,
          m.breakerState[deviceIndex(d.device)]);
  }
  w.add("cacheHits", m.cacheHits)
      .add("cacheMisses", m.cacheMisses)
      .add("cacheEvictions", m.cacheEvictions)
      .add("cacheSize", static_cast<std::uint64_t>(m.cacheSize))
      .add("cacheCapacity", static_cast<std::uint64_t>(m.cacheCapacity))
      .add("queueDepth", static_cast<std::uint64_t>(m.queueDepth))
      .add("inFlightStudies", static_cast<std::uint64_t>(m.inFlightStudies))
      .add("admissionLimit", static_cast<std::uint64_t>(m.admissionLimit))
      .add("latencyCount", m.latency.total())
      .add("latencyP50UpperMs", m.latency.quantileUpperBoundMs(0.50))
      .add("latencyP99UpperMs", m.latency.quantileUpperBoundMs(0.99));
  return w.str();
}

std::string encodeTextBody(const std::string& body) {
  return ObjectWriter().add("status", "ok").add("body", body).str();
}

std::string encodeEvents(std::uint64_t activeAlerts, std::uint64_t recorded,
                         std::uint64_t dropped, const std::string& body) {
  return ObjectWriter()
      .add("status", "ok")
      .add("alerts", activeAlerts)
      .add("recorded", recorded)
      .add("dropped", dropped)
      .add("body", body)
      .str();
}

std::string encodeTsdbResponse(const obs::TimeSeriesStore& store,
                               const WireRequest& req, std::int64_t nowNs) {
  const std::int64_t fromNs =
      nowNs - static_cast<std::int64_t>(req.tsdbWindowMs * 1e6);
  ObjectWriter w;
  w.add("status", "ok")
      .add("series", req.tsdbSeries)
      .add("agg", req.tsdbAgg)
      .add("windowMs", req.tsdbWindowMs);
  if (req.tsdbAgg == "quantile") {
    const double v =
        store.histogramQuantile(req.tsdbSeries, req.tsdbQ, fromNs, nowNs);
    // NaN (no data) and +Inf (quantile beyond the last bound) are not
    // JSON numbers; flag them instead.
    w.add("q", req.tsdbQ)
        .add("defined", v == v)
        .add("unbounded", v > 0.0 && v / 2.0 == v)
        .add("value", std::isfinite(v) ? v : -1.0);
    return w.str();
  }
  if (req.tsdbAgg == "raw") {
    std::string body;
    for (const auto& s : store.range(req.tsdbSeries, fromNs, nowNs)) {
      body += std::to_string(s.timeNs);
      body += ' ';
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.10g", s.value);
      body += buf;
      body += '\n';
    }
    w.add("body", body);
    return w.str();
  }
  const obs::SeriesAggregate agg =
      store.aggregate(req.tsdbSeries, fromNs, nowNs);
  w.add("samples", static_cast<std::uint64_t>(agg.samples));
  if (req.tsdbAgg == "all") {
    w.add("min", agg.min)
        .add("max", agg.max)
        .add("avg", agg.avg)
        .add("first", agg.first)
        .add("last", agg.last)
        .add("rate", agg.rate);
  } else if (req.tsdbAgg == "min") {
    w.add("value", agg.min);
  } else if (req.tsdbAgg == "max") {
    w.add("value", agg.max);
  } else if (req.tsdbAgg == "avg") {
    w.add("value", agg.avg);
  } else if (req.tsdbAgg == "rate") {
    w.add("value", agg.rate);
  } else {  // last
    w.add("value", agg.last);
  }
  return w.str();
}

std::string encodeSloStatus(
    const std::vector<obs::SloEngine::SloStatus>& status) {
  ObjectWriter w;
  std::uint64_t burning = 0;
  for (const auto& s : status) burning += s.burning ? 1 : 0;
  w.add("status", "ok")
      .add("slos", static_cast<std::uint64_t>(status.size()))
      .add("burning", burning);
  for (const auto& s : status) {
    const std::string prefix = "slo." + s.name;
    w.add(prefix + ".kind",
          s.kind == obs::SloSpec::Kind::LatencyQuantile ? "latency"
                                                        : "energy")
        .add(prefix + ".burning", s.burning)
        .add(prefix + ".worstBurn", s.worstBurn)
        .add(prefix + ".raised", s.raisedCount);
    for (std::size_t i = 0; i < s.windows.size(); ++i) {
      const auto& wb = s.windows[i];
      const std::string wp = prefix + ".w" + std::to_string(i);
      w.add(wp + ".longMs", static_cast<double>(wb.longMs))
          .add(wp + ".shortMs", static_cast<double>(wb.shortMs))
          .add(wp + ".threshold", wb.threshold)
          .add(wp + ".longBurn", wb.longBurn)
          .add(wp + ".shortBurn", wb.shortBurn);
    }
  }
  return w.str();
}

std::string encodeProfileStatus(bool running, std::size_t threads,
                                const char* action) {
  return ObjectWriter()
      .add("status", "ok")
      .add("action", action)
      .add("running", running)
      .add("threads", static_cast<std::uint64_t>(threads))
      .str();
}

std::string encodeProfileSnapshot(const obs::ProfileSnapshot& snap,
                                  const WireRequest& req) {
  ObjectWriter w;
  w.add("status", "ok")
      .add("kind", obs::profileKindName(snap.kind))
      .add("samples", snap.samples)
      .add("totalWeight", snap.totalWeight)
      .add("dropped", snap.dropped)
      .add("truncated", snap.truncated)
      .add("periodUs", snap.samplePeriodUs)
      .add("stacks", static_cast<std::uint64_t>(snap.entries.size()))
      .add("traces", static_cast<std::uint64_t>(snap.traces.size()));
  const auto top = obs::topFrames(snap, req.profileTopN);
  w.add("top", static_cast<std::uint64_t>(top.size()));
  for (std::size_t i = 0; i < top.size(); ++i) {
    const std::string p = "top." + std::to_string(i);
    w.add(p + ".frame", top[i].frame)
        .add(p + ".samples", top[i].samples)
        .add(p + ".weight", top[i].weight)
        .add(p + ".share", top[i].share);
  }
  w.add("body", req.profileFormat == "speedscope"
                    ? obs::renderSpeedscope(
                          snap, std::string("epprof-") +
                                    obs::profileKindName(snap.kind))
                    : obs::renderCollapsed(snap));
  return w.str();
}

std::string encodeError(const std::string& message) {
  return ObjectWriter().add("status", "bad_request").add("error", message).str();
}

}  // namespace ep::serve::wire
