// eptsdb: a lock-light in-process time-series store for the fleet
// observability plane.
//
// A TimeSeriesStore holds one fixed-capacity ring of (time, value)
// samples per series.  Series are keyed by their exposition identity —
// `name` or `name{k="v",...}` with 0.0.4-escaped label values — so a
// tsdb key is exactly the sample line a Prometheus scrape would show.
// Histograms are decomposed at ingest into the same series a remote
// TSDB would store: `<name>_count`, `<name>_sum`, and one cumulative
// `<name>_bucket{...,le="..."}` per bound, plus a HistogramMeta record
// so windowed quantiles can be recovered from cumulative bucket deltas
// (last-in-window minus first-in-window).
//
// Feeding the store is the Scraper: a background thread that snapshots
// a registry source every intervalMs and ingests it at the clock's
// current time.  The clock is injectable, and scrapeOnce() runs one
// synchronous scrape, so tests drive synthetic time deterministically
// with no thread and no sleeps.
//
// Concurrency: ingest takes the store's writer lock (scrape cadence,
// not request cadence — hundreds of ms); queries take a shared lock.
// The hot serving path never touches the store.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"

namespace ep::obs {

struct TsdbSample {
  std::int64_t timeNs = 0;
  double value = 0.0;
};

// Windowed aggregate over one series.  rate is per second, computed
// from the first and last in-window samples (0 when fewer than two).
struct SeriesAggregate {
  std::size_t samples = 0;
  double min = 0.0;
  double max = 0.0;
  double avg = 0.0;
  double first = 0.0;
  double last = 0.0;
  double rate = 0.0;
  std::int64_t firstTimeNs = 0;
  std::int64_t lastTimeNs = 0;
};

// How a histogram family decomposed into tsdb series at ingest.
struct HistogramMeta {
  std::string prefix;  // name + label block, without le
  std::vector<double> bounds;
  std::vector<std::string> bucketKeys;  // cumulative; +Inf last
  std::string countKey;
  std::string sumKey;
};

class TimeSeriesStore {
 public:
  explicit TimeSeriesStore(std::size_t ringCapacity = 512);

  // Append one sample per series in the snapshot at timeNs.  New
  // series are created on first sight; rings overwrite their oldest
  // sample when full.
  void ingest(const RegistrySnapshot& snap, std::int64_t timeNs);

  // All samples with fromNs <= timeNs <= toNs, oldest first.  Unknown
  // keys return empty.
  [[nodiscard]] std::vector<TsdbSample> range(const std::string& key,
                                              std::int64_t fromNs,
                                              std::int64_t toNs) const;

  [[nodiscard]] SeriesAggregate aggregate(const std::string& key,
                                          std::int64_t fromNs,
                                          std::int64_t toNs) const;

  // Windowed quantile over a histogram family (all label children
  // summed): cumulative bucket deltas across the window select the
  // smallest bound covering fraction q.  Falls back to the lifetime
  // (latest-sample) distribution when the window holds fewer than two
  // scrapes, and +infinity when q lands in the +Inf bucket.  Returns
  // NaN when the family is unknown or empty.
  [[nodiscard]] double histogramQuantile(const std::string& family, double q,
                                         std::int64_t fromNs,
                                         std::int64_t toNs) const;

  // Histogram decompositions whose prefix starts with `family` (the
  // family name, optionally followed by a label block).
  [[nodiscard]] std::vector<HistogramMeta> histogramsForFamily(
      const std::string& family) const;

  // Value-series keys (not histogram buckets) whose metric name is
  // exactly `family`.
  [[nodiscard]] std::vector<std::string> keysForFamily(
      const std::string& family) const;

  [[nodiscard]] std::vector<std::string> seriesKeys() const;
  [[nodiscard]] std::size_t seriesCount() const;
  [[nodiscard]] std::size_t ringCapacity() const { return capacity_; }

 private:
  struct Series {
    std::vector<TsdbSample> ring;  // capacity_ slots once saturated
    std::size_t head = 0;          // next write position
    std::size_t size = 0;
    void push(TsdbSample s, std::size_t capacity);
  };

  void append(const std::string& key, std::int64_t timeNs, double value);
  [[nodiscard]] const Series* seriesFor(const std::string& key) const;

  const std::size_t capacity_;
  mutable std::shared_mutex mu_;
  std::unordered_map<std::string, Series> series_;
  std::vector<std::string> keyOrder_;  // insertion order, for listings
  std::unordered_map<std::string, HistogramMeta> histograms_;  // by prefix
  std::vector<std::string> histogramOrder_;
};

// Background scraper: snapshot a source registry every intervalMs and
// ingest it into the store.  start()/stop() manage the thread;
// scrapeOnce() is the synchronous, synthetic-time-testable core.
class Scraper {
 public:
  using SnapshotFn = std::function<RegistrySnapshot()>;
  using ClockFn = std::function<std::int64_t()>;  // ns, monotonic

  struct Options {
    std::int64_t intervalMs = 250;
    // Defaults to steady_clock; tests inject synthetic time.
    ClockFn clock;
    // Runs after every scrape with the scrape's timestamp — the SLO
    // engine evaluates here so alerts ride the scrape cadence.
    std::function<void(std::int64_t nowNs)> afterScrape;
  };

  Scraper(TimeSeriesStore* store, SnapshotFn source);  // default options
  Scraper(TimeSeriesStore* store, SnapshotFn source, Options options);
  ~Scraper();  // stop()

  Scraper(const Scraper&) = delete;
  Scraper& operator=(const Scraper&) = delete;

  void start();
  void stop();

  // One synchronous scrape at the clock's current time.
  void scrapeOnce();

  [[nodiscard]] std::uint64_t scrapes() const {
    return scrapes_.load(std::memory_order_relaxed);
  }

 private:
  void run();

  TimeSeriesStore* store_;
  SnapshotFn source_;
  Options options_;
  std::atomic<std::uint64_t> scrapes_{0};

  std::mutex mu_;
  std::condition_variable cv_;
  bool running_ = false;
  std::thread thread_;
};

}  // namespace ep::obs
