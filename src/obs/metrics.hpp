// epobs metrics: a thread-safe registry of named counters, gauges and
// fixed-bucket histograms with Prometheus text exposition.
//
// Design constraints, in order:
//   1. The increment path must be cheap enough for hot loops (broker
//      admission, thread-pool dispatch, per-config measurement): every
//      mutation is a single relaxed atomic RMW — no locks, no map
//      lookups.  Call sites obtain a Metric& once (registration takes
//      the registry mutex) and keep the reference; references stay
//      valid for the registry's lifetime.
//   2. Snapshots may be taken from any thread at any time.  Individual
//      values are exact; cross-metric consistency is NOT guaranteed
//      (standard Prometheus semantics) — readers that need an
//      invariant between two counters must order their reads.
//   3. This library sits below epcommon (the thread pool itself is
//      instrumented), so it depends on nothing but the standard
//      library and reports misuse with std::invalid_argument instead
//      of EP_REQUIRE.
//
// Labels: a metric family (one name, one HELP/TYPE) may carry several
// child series distinguished by label sets, e.g.
// ep_request_energy_joules{device="p100"}.  Label names follow the
// Prometheus grammar; label values are escaped (\\, \", \n) in the
// 0.0.4 text exposition.  All children of a family must share one
// metric kind.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace ep::obs {

// Ordered label set of one child series (insertion order is rendered
// verbatim; keep it stable per family).
using Labels = std::vector<std::pair<std::string, std::string>>;

// Public metric kind, shared by the registry internals and the
// snapshot/federation layer below.
enum class MetricKind { Counter, DoubleCounter, Gauge, Histogram };

// A per-bucket exemplar: the most recent (trace id, observed value)
// pair that landed in a histogram bucket.  Captured by a per-bucket
// seqlock so observe() stays lock-free and readers never see a torn
// pair; concurrent writers may skip (best-effort recency).
struct Exemplar {
  std::uint64_t traceId = 0;
  double value = 0.0;
  std::uint64_t seq = 0;  // process-wide recency order; 0 = never set
};

// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

// Monotonically increasing real-valued total (joules, seconds).  add()
// is a CAS loop on a double, like Histogram's sum.
class DoubleCounter {
 public:
  void add(double d) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d,
                                     std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> v_{0.0};
};

// Instantaneous signed level (queue depths, in-flight work).  add/sub
// deltas compose correctly when several owners share one gauge.
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  void sub(std::int64_t d) { v_.fetch_sub(d, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
};

// Fixed-bucket histogram: `upperBounds.size() + 1` buckets, the last
// one catching everything above the final bound (the +Inf bucket).
// Bounds must be strictly increasing.  observe() is lock-free: one
// relaxed RMW on the bucket plus a CAS loop on the sum.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upperBounds);

  void observe(double v);
  // Observe and, when exemplarTraceId != 0, record the pair as the
  // bucket's exemplar (lock-free best-effort: a writer that loses the
  // seqlock claim simply skips — the bucket keeps a recent exemplar).
  void observe(double v, std::uint64_t exemplarTraceId);

  [[nodiscard]] const std::vector<double>& upperBounds() const {
    return bounds_;
  }
  [[nodiscard]] std::size_t bucketCount() const { return bounds_.size() + 1; }
  // Non-cumulative count of bucket i (i == bounds().size() is +Inf).
  [[nodiscard]] std::uint64_t bucketValue(std::size_t i) const;
  // The bucket's exemplar; seq == 0 when none was ever recorded (or a
  // writer was mid-update on every read attempt).
  [[nodiscard]] Exemplar exemplar(std::size_t i) const;
  [[nodiscard]] std::uint64_t count() const;
  [[nodiscard]] double sum() const {
    return sum_.load(std::memory_order_relaxed);
  }

 private:
  // Seqlock slot: version odd while a writer owns it.  All fields are
  // atomics, so torn reads are logically rejected via the version and
  // never a data race.
  struct ExemplarSlot {
    std::atomic<std::uint32_t> version{0};
    std::atomic<std::uint64_t> traceId{0};
    std::atomic<std::uint64_t> valueBits{0};
    std::atomic<std::uint64_t> seq{0};
  };

  [[nodiscard]] std::size_t bucketIndexFor(double v) const;
  void recordExemplar(std::size_t bucket, double v, std::uint64_t traceId);

  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;
  std::unique_ptr<ExemplarSlot[]> exemplarSlots_;
  std::atomic<double> sum_{0.0};
};

// ---------------------------------------------------------------------------
// Point-in-time registry snapshots: the substrate for exposition
// rendering, the eptsdb scraper, and cluster federation.  Values are
// plain data — no atomics — so snapshots can be merged, shipped and
// rendered off the hot path.

struct SnapshotExemplar {
  std::string traceId;  // lower-hex; empty = absent
  double value = 0.0;
  std::uint64_t seq = 0;  // recency order across the process; 0 = absent
};

struct SeriesSnapshot {
  Labels labels;
  std::uint64_t counterValue = 0;  // MetricKind::Counter
  double doubleValue = 0.0;        // MetricKind::DoubleCounter
  std::int64_t gaugeValue = 0;     // MetricKind::Gauge
  // MetricKind::Histogram: per-series bounds plus non-cumulative bucket
  // counts (+Inf last, so buckets.size() == bounds.size() + 1).
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;
  double sum = 0.0;
  // Parallel to buckets when any bucket holds an exemplar; else empty.
  std::vector<SnapshotExemplar> exemplars;
};

struct FamilySnapshot {
  MetricKind kind = MetricKind::Counter;
  std::string name;
  std::string help;
  std::vector<SeriesSnapshot> series;  // insertion order
};

struct RegistrySnapshot {
  std::vector<FamilySnapshot> families;  // insertion order
  // Concatenate another snapshot.  Same-name families merge their
  // series lists (first HELP/kind wins; a kind conflict throws) so the
  // combined exposition keeps exactly one header per family.
  void append(RegistrySnapshot other);
};

enum class ExpositionFormat {
  Prometheus004,   // text/plain; version=0.0.4
  OpenMetrics100,  // application/openmetrics-text; version=1.0.0
};

// Render a snapshot in either exposition format.  The Prometheus 0.0.4
// output is byte-identical to the pre-snapshot renderer; OpenMetrics
// adds `_total` counter sample naming, per-bucket exemplars
// (`# {trace_id="..."} value`) and the mandatory `# EOF` terminator.
[[nodiscard]] std::string renderExposition(const RegistrySnapshot& snap,
                                           ExpositionFormat format);

// Pairwise histogram-series merge: element-wise bucket addition plus
// sum (bounds must match exactly, else std::invalid_argument); each
// bucket keeps the exemplar with the larger seq (the newer one), which
// makes the merge associative and commutative.
[[nodiscard]] SeriesSnapshot mergeHistogramSeries(const SeriesSnapshot& a,
                                                  const SeriesSnapshot& b);

class Registry;

// Register the ep_build_info info-style gauge (value pinned to 1;
// identity in git_hash / build_type / compiler labels) on `registry`.
// Idempotent.  Registry::global() and per-component registries that
// expose over the wire (serve broker) call this so every exposition —
// including federated cluster views, where gauges gain shard labels —
// carries build identity.
void registerBuildInfo(Registry& registry);

// Federate per-shard registry snapshots into one cluster snapshot:
// counters and double counters are summed across shards by label set,
// histograms bucket-merged, and gauges kept per shard with an appended
// shard="<id>" label (summing instantaneous levels would lie).
[[nodiscard]] RegistrySnapshot mergeShardSnapshots(
    const std::vector<std::pair<std::string, RegistrySnapshot>>& shards);

// Named metric directory.  Registration is idempotent: asking for an
// existing name+labels with a matching kind (and, for histograms,
// matching bounds) returns the same object; a kind/bounds conflict —
// including between labelled children of one family — throws.  Metric
// names must match [a-zA-Z_:][a-zA-Z0-9_:]* and label names
// [a-zA-Z_][a-zA-Z0-9_]* (the Prometheus grammar).  Returned
// references live as long as the registry.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(const std::string& name, const std::string& help,
                   const Labels& labels = {});
  DoubleCounter& doubleCounter(const std::string& name,
                               const std::string& help,
                               const Labels& labels = {});
  Gauge& gauge(const std::string& name, const std::string& help,
               const Labels& labels = {});
  Histogram& histogram(const std::string& name, const std::string& help,
                       std::vector<double> upperBounds,
                       const Labels& labels = {});

  // Point-in-time copy of every family and series (values loaded
  // relaxed; cross-metric consistency follows the usual Prometheus
  // caveat).  The snapshot is plain data: merge, ship or render it off
  // the hot path.
  [[nodiscard]] RegistrySnapshot snapshot() const;

  // Prometheus text exposition (version 0.0.4): # HELP / # TYPE
  // comments once per family followed by every child series with its
  // escaped label block; histograms expand into cumulative
  // _bucket{le="..."} series plus _sum and _count.
  [[nodiscard]] std::string renderPrometheus() const;

  // The process-wide registry used by library-internal instrumentation
  // (thread pool, cusim executor, study runner).  Components that need
  // isolated counters (the serve broker, unit tests) own their own
  // Registry instead.
  static Registry& global();

 private:
  using Kind = MetricKind;
  struct Entry {
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<DoubleCounter> doubleCounter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    Kind kind;
    std::string name;
    std::string help;
    std::vector<std::unique_ptr<Entry>> entries;  // insertion order
  };

  Entry& find(const std::string& name, Kind kind, const std::string& help,
              const Labels& labels);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Family>> families_;  // insertion order
  std::unordered_map<std::string, Family*> byName_;
};

}  // namespace ep::obs
