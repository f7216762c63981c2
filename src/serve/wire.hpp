// Line-delimited JSON wire format for the epserve TCP frontend.
//
// One request per line, one response line per request.  The vocabulary
// is deliberately flat (string/number/bool fields only) so a dependency
// -free parser suffices; nested JSON is rejected.
//
//   {"op":"tune","device":"p100","n":10240,"maxDegradation":0.11}
//   {"op":"study","device":"k40c","nBegin":8192,"nEnd":10240,"nStep":1024}
//   {"op":"metrics"}
//   {"op":"metrics","format":"prometheus"}
//   {"op":"trace"}
//   {"op":"events","since":0}
//
// The metrics/trace ops answer with {"status":"ok","body":"..."} where
// body is the full Prometheus text exposition / Chrome trace-event JSON
// as one escaped string (multi-line payloads stay one response line).
// The events op drains the watchdog flight recorder: body is one flat
// JSON event per line, plus "alerts"/"recorded"/"dropped" totals.
//
// Tune and study requests may carry two observability fields:
//   * "trace_id" — opaque string naming the caller's trace; the server
//     runs the request under it (spans in {"op":"trace"} carry the id)
//     and echoes it back in the response.
//   * "report":true — the response gains the request's energy-
//     attribution ledger (attributedJoules, measurementWindows, ...).
//
// Responses always carry "status"; tune responses add the recommended
// configuration and trade-off, study responses the front statistics.
//
// One vocabulary serves both modes of epserved: a single broker, and
// with --shards N > 1 a fleet, which adds "device":"auto" tunes,
// {"op":"fleet"} and the "scope":"cluster" forms of metrics and
// profile (a single broker answers those with an error).  Clients
// parse a response with parseObject() and read its fields with
// getNumber/getString/getBool(...).value_or(default).
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "obs/profile_export.hpp"
#include "obs/slo.hpp"
#include "obs/tsdb.hpp"
#include "serve/metrics.hpp"
#include "serve/request.hpp"

namespace ep::serve::wire {

// Hard ceiling on one request frame (a single line).  Every legitimate
// request fits in a few hundred bytes; anything larger is a confused —
// or hostile — client, and the server must neither buffer it without
// bound nor hand it to the parser.
inline constexpr std::size_t kMaxFrameBytes = std::size_t{1} << 20;

struct Value {
  enum class Kind { Null, Bool, Number, String };
  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
};

using Object = std::map<std::string, Value>;

// Parse one flat JSON object; returns nullopt and sets *error on
// malformed input (including nested arrays/objects).
[[nodiscard]] std::optional<Object> parseObject(const std::string& line,
                                                std::string* error);

// One field of a parsed object; nullopt when `key` is absent or holds
// another kind.  Callers pick their default with .value_or(...).
[[nodiscard]] std::optional<double> getNumber(const Object& obj,
                                              const std::string& key);
[[nodiscard]] std::optional<std::string> getString(const Object& obj,
                                                   const std::string& key);
[[nodiscard]] std::optional<bool> getBool(const Object& obj,
                                          const std::string& key);

// Incremental writer for one flat JSON object (escapes strings).  Keys
// and values go straight into one buffer; doubles are written as
// printf("%.12g") text.
class ObjectWriter {
 public:
  ObjectWriter& add(std::string_view key, std::string_view value);
  ObjectWriter& add(std::string_view key, const char* value);
  ObjectWriter& add(std::string_view key, double value);
  ObjectWriter& add(std::string_view key, std::uint64_t value);
  ObjectWriter& add(std::string_view key, int value);
  ObjectWriter& add(std::string_view key, bool value);
  // Closes the object and hands its text over without copying; call it
  // once, last.
  [[nodiscard]] std::string str();

 private:
  void beginField(std::string_view key);  // separator, quoted key, colon
  std::string out_ = "{";
  bool first_ = true;
};


// {"op":"metrics"} body format.
enum class MetricsFormat { Json, Prometheus, OpenMetrics };

struct WireRequest {
  enum class Op {
    Tune,
    Study,
    Metrics,
    Trace,
    Events,
    Fleet,
    Tsdb,
    Slo,
    Profile
  };
  Op op = Op::Tune;
  // For Op::Metrics: flat JSON snapshot (default), Prometheus 0.0.4
  // text, or OpenMetrics 1.0 text.
  MetricsFormat metricsFormat = MetricsFormat::Json;
  // For Op::Metrics on a fleet (epserved --shards N, N > 1):
  // "scope":"cluster" answers with the federated cluster registry
  // (per-shard registries merged) instead of the process registry.
  bool clusterScope = false;
  // For Op::Tsdb: the series key (exposition identity) or histogram
  // family, the aggregation, quantile and window.
  std::string tsdbSeries;
  std::string tsdbAgg = "all";  // all|min|max|avg|rate|last|quantile|raw
  double tsdbQ = 0.99;
  double tsdbWindowMs = 60000.0;
  // For Op::Events: drain only events with seq > since.
  std::uint64_t eventsSince = 0;
  // Caller-supplied trace id ("" = none) and whether the response
  // should carry the energy-attribution report.
  std::string traceId;
  bool report = false;
  // For Op::Tune: the request said "device":"auto" — the fleet router
  // picks the device by policy (single-broker servers reject it).
  bool deviceAuto = false;
  // For Op::Fleet: "snapshot" (default), or an admin action
  // ("kill"/"revive"/"remove"/"add") naming a shard.
  std::string fleetAction = "snapshot";
  std::string fleetShard;
  // For Op::Profile: control + read the continuous profiler.
  //   {"op":"profile","action":"start","periodUs":10000}
  //   {"op":"profile","action":"snapshot","kind":"energy","topN":5}
  //   {"op":"profile","action":"snapshot","format":"speedscope"}
  // action: status (default) | start | stop | clear | snapshot.
  // kind cpu|energy and topN/format shape the snapshot; "scope":
  // "cluster" on a fleet federates shard profiles (clusterScope
  // above).  cpuSampling=false gives an energy-only start.
  std::string profileAction = "status";
  std::string profileKind = "cpu";
  std::string profileFormat = "collapsed";  // collapsed | speedscope
  std::size_t profileTopN = 10;
  std::uint64_t profilePeriodUs = 10000;
  bool profileCpuSampling = true;
  TuneRequest tune;
  StudyRequest study;
};

// Decode a request line; returns nullopt and sets *error on bad input.
[[nodiscard]] std::optional<WireRequest> decodeRequest(
    const std::string& line, std::string* error);

// `traceId` (when non-empty) is echoed back; `withReport` appends the
// RequestReport ledger fields.
[[nodiscard]] std::string encodeTuneResponse(const TuneResponse& resp,
                                             const std::string& traceId = "",
                                             bool withReport = false);
[[nodiscard]] std::string encodeStudyResponse(const StudyResponse& resp,
                                              const std::string& traceId = "",
                                              bool withReport = false);
[[nodiscard]] std::string encodeMetrics(const ServeMetrics& m);
// Wrap a multi-line text payload (Prometheus exposition, Chrome trace
// JSON) as {"status":"ok","body":"..."} — one response line.
[[nodiscard]] std::string encodeTextBody(const std::string& body);
// {"op":"events"} response: totals plus one flat JSON event per body
// line (empty body when nothing new).
[[nodiscard]] std::string encodeEvents(std::uint64_t activeAlerts,
                                       std::uint64_t recorded,
                                       std::uint64_t dropped,
                                       const std::string& body);
// {"op":"tsdb"} response over the store: the requested aggregation of
// req.tsdbSeries across the trailing req.tsdbWindowMs (ending at
// nowNs).  agg "raw" answers with the in-window samples as body lines
// "timeNs value"; "quantile" treats the series as a histogram family.
[[nodiscard]] std::string encodeTsdbResponse(const obs::TimeSeriesStore& store,
                                             const WireRequest& req,
                                             std::int64_t nowNs);
// {"op":"slo"} response: per-SLO burn state under flat keys
// ("slo.<name>.burning", ".worstBurn", ".raised", per-window burns)
// plus the active-alert total.
[[nodiscard]] std::string encodeSloStatus(
    const std::vector<obs::SloEngine::SloStatus>& status);
// {"op":"profile"} responses.  Status/start/stop/clear answer with the
// run state; snapshot answers with totals, the top-N frames by
// INCLUSIVE weight under flat keys ("top.<i>.frame" / ".weight" /
// ".share" / ".samples") and the full profile as "body" (collapsed
// stacks, or a speedscope JSON document when req.profileFormat says
// so).  Weight units: seconds (cpu) / joules (energy).
[[nodiscard]] std::string encodeProfileStatus(bool running,
                                              std::size_t threads,
                                              const char* action);
[[nodiscard]] std::string encodeProfileSnapshot(
    const obs::ProfileSnapshot& snap, const WireRequest& req);
[[nodiscard]] std::string encodeError(const std::string& message);

}  // namespace ep::serve::wire
