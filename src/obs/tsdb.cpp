#include "obs/tsdb.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>

namespace ep::obs {

namespace {

void appendEscaped(std::string& out, const std::string& v) {
  for (char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
}

// The exposition identity of a series: name{k="v",...} with escaped
// values, optionally with a trailing le="..." — identical to the
// sample-line prefix renderExposition would emit.
std::string seriesKey(const std::string& name, const Labels& labels,
                      const char* leBound = nullptr) {
  std::string key = name;
  if (labels.empty() && leBound == nullptr) return key;
  key += '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) key += ',';
    first = false;
    key += k;
    key += "=\"";
    appendEscaped(key, v);
    key += '"';
  }
  if (leBound != nullptr) {
    if (!first) key += ',';
    key += "le=\"";
    key += leBound;
    key += '"';
  }
  key += '}';
  return key;
}

std::string metricNameOf(const std::string& key) {
  const std::size_t brace = key.find('{');
  return brace == std::string::npos ? key : key.substr(0, brace);
}

std::int64_t steadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

// ---------------------------------------------------------------------------
// TimeSeriesStore

TimeSeriesStore::TimeSeriesStore(std::size_t ringCapacity)
    : capacity_(ringCapacity == 0 ? 1 : ringCapacity) {}

void TimeSeriesStore::Series::push(TsdbSample s, std::size_t capacity) {
  if (ring.size() < capacity) {
    ring.push_back(s);
  } else {
    ring[head] = s;
    head = (head + 1) % capacity;
  }
}

void TimeSeriesStore::append(const std::string& key, std::int64_t timeNs,
                             double value) {
  auto [it, inserted] = series_.try_emplace(key);
  if (inserted) {
    it->second.ring.reserve(std::min<std::size_t>(capacity_, 16));
    keyOrder_.push_back(key);
  }
  it->second.push({timeNs, value}, capacity_);
}

void TimeSeriesStore::ingest(const RegistrySnapshot& snap,
                             std::int64_t timeNs) {
  std::unique_lock lk(mu_);
  for (const auto& fam : snap.families) {
    for (const auto& s : fam.series) {
      switch (fam.kind) {
        case MetricKind::Counter:
          append(seriesKey(fam.name, s.labels), timeNs,
                 static_cast<double>(s.counterValue));
          break;
        case MetricKind::DoubleCounter:
          append(seriesKey(fam.name, s.labels), timeNs, s.doubleValue);
          break;
        case MetricKind::Gauge:
          append(seriesKey(fam.name, s.labels), timeNs,
                 static_cast<double>(s.gaugeValue));
          break;
        case MetricKind::Histogram: {
          const std::string prefix = seriesKey(fam.name, s.labels);
          auto [mit, minserted] = histograms_.try_emplace(prefix);
          HistogramMeta& meta = mit->second;
          if (minserted) {
            meta.prefix = prefix;
            meta.bounds = s.bounds;
            meta.countKey = seriesKey(fam.name + "_count", s.labels);
            meta.sumKey = seriesKey(fam.name + "_sum", s.labels);
            char bound[40];
            for (double b : s.bounds) {
              std::snprintf(bound, sizeof bound, "%.10g", b);
              meta.bucketKeys.push_back(
                  seriesKey(fam.name + "_bucket", s.labels, bound));
            }
            meta.bucketKeys.push_back(
                seriesKey(fam.name + "_bucket", s.labels, "+Inf"));
            histogramOrder_.push_back(prefix);
          }
          std::uint64_t cum = 0;
          for (std::size_t i = 0; i < s.buckets.size(); ++i) {
            cum += s.buckets[i];
            if (i < meta.bucketKeys.size()) {
              append(meta.bucketKeys[i], timeNs, static_cast<double>(cum));
            }
          }
          append(meta.countKey, timeNs, static_cast<double>(cum));
          append(meta.sumKey, timeNs, s.sum);
          break;
        }
      }
    }
  }
}

const TimeSeriesStore::Series* TimeSeriesStore::seriesFor(
    const std::string& key) const {
  const auto it = series_.find(key);
  return it == series_.end() ? nullptr : &it->second;
}

namespace {

// Chronological in-window samples of one ring (callers hold the lock).
template <typename Fn>
void forEachInWindow(const std::vector<TsdbSample>& ring, std::size_t head,
                     std::size_t capacity, std::int64_t fromNs,
                     std::int64_t toNs, Fn&& fn) {
  const std::size_t n = ring.size();
  const bool saturated = n == capacity;
  for (std::size_t i = 0; i < n; ++i) {
    const TsdbSample& s = ring[saturated ? (head + i) % n : i];
    if (s.timeNs < fromNs || s.timeNs > toNs) continue;
    fn(s);
  }
}

}  // namespace

std::vector<TsdbSample> TimeSeriesStore::range(const std::string& key,
                                               std::int64_t fromNs,
                                               std::int64_t toNs) const {
  std::shared_lock lk(mu_);
  std::vector<TsdbSample> out;
  if (const Series* s = seriesFor(key)) {
    forEachInWindow(s->ring, s->head, capacity_, fromNs, toNs,
                    [&](const TsdbSample& x) { out.push_back(x); });
  }
  return out;
}

SeriesAggregate TimeSeriesStore::aggregate(const std::string& key,
                                           std::int64_t fromNs,
                                           std::int64_t toNs) const {
  std::shared_lock lk(mu_);
  SeriesAggregate agg;
  const Series* s = seriesFor(key);
  if (s == nullptr) return agg;
  forEachInWindow(s->ring, s->head, capacity_, fromNs, toNs,
                  [&](const TsdbSample& x) {
                    if (agg.samples == 0) {
                      agg.min = agg.max = agg.first = x.value;
                      agg.firstTimeNs = x.timeNs;
                      agg.avg = 0.0;
                    }
                    agg.min = std::min(agg.min, x.value);
                    agg.max = std::max(agg.max, x.value);
                    agg.avg += x.value;
                    agg.last = x.value;
                    agg.lastTimeNs = x.timeNs;
                    ++agg.samples;
                  });
  if (agg.samples > 0) {
    agg.avg /= static_cast<double>(agg.samples);
    const double dtSec =
        static_cast<double>(agg.lastTimeNs - agg.firstTimeNs) * 1e-9;
    if (dtSec > 0.0) agg.rate = (agg.last - agg.first) / dtSec;
  }
  return agg;
}

std::vector<HistogramMeta> TimeSeriesStore::histogramsForFamily(
    const std::string& family) const {
  std::shared_lock lk(mu_);
  std::vector<HistogramMeta> out;
  for (const std::string& prefix : histogramOrder_) {
    const bool exact = prefix == family;
    const bool labeled = prefix.size() > family.size() &&
                         prefix.compare(0, family.size(), family) == 0 &&
                         prefix[family.size()] == '{';
    if (exact || labeled) out.push_back(histograms_.at(prefix));
  }
  return out;
}

std::vector<std::string> TimeSeriesStore::keysForFamily(
    const std::string& family) const {
  std::shared_lock lk(mu_);
  std::vector<std::string> out;
  for (const std::string& key : keyOrder_) {
    if (metricNameOf(key) == family) out.push_back(key);
  }
  return out;
}

double TimeSeriesStore::histogramQuantile(const std::string& family, double q,
                                          std::int64_t fromNs,
                                          std::int64_t toNs) const {
  const std::vector<HistogramMeta> metas = histogramsForFamily(family);
  if (metas.empty()) return std::numeric_limits<double>::quiet_NaN();
  const std::vector<double>& bounds = metas.front().bounds;
  const std::size_t nBuckets = bounds.size() + 1;
  std::vector<double> windowed(nBuckets, 0.0);  // cumulative deltas
  std::vector<double> lifetime(nBuckets, 0.0);  // latest cumulative
  for (const HistogramMeta& meta : metas) {
    if (meta.bounds != bounds) continue;  // incompatible child; skip
    for (std::size_t i = 0; i < nBuckets; ++i) {
      const auto samples = range(meta.bucketKeys[i], fromNs, toNs);
      if (samples.empty()) continue;
      lifetime[i] += samples.back().value;
      if (samples.size() >= 2) {
        windowed[i] += samples.back().value - samples.front().value;
      }
    }
  }
  // Fewer than two in-window scrapes leave no delta; fall back to the
  // lifetime distribution rather than answering NaN.
  const std::vector<double>& cum =
      windowed[nBuckets - 1] > 0.0 ? windowed : lifetime;
  const double total = cum[nBuckets - 1];
  if (!(total > 0.0)) return std::numeric_limits<double>::quiet_NaN();
  const double target = std::max(0.0, std::min(1.0, q)) * total;
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    if (cum[i] >= target) return bounds[i];
  }
  return std::numeric_limits<double>::infinity();
}

std::vector<std::string> TimeSeriesStore::seriesKeys() const {
  std::shared_lock lk(mu_);
  return keyOrder_;
}

std::size_t TimeSeriesStore::seriesCount() const {
  std::shared_lock lk(mu_);
  return series_.size();
}

// ---------------------------------------------------------------------------
// Scraper

Scraper::Scraper(TimeSeriesStore* store, SnapshotFn source)
    : Scraper(store, std::move(source), Options{}) {}

Scraper::Scraper(TimeSeriesStore* store, SnapshotFn source, Options options)
    : store_(store), source_(std::move(source)), options_(std::move(options)) {
  if (!options_.clock) options_.clock = steadyNowNs;
  if (options_.intervalMs <= 0) options_.intervalMs = 1;
}

Scraper::~Scraper() { stop(); }

void Scraper::scrapeOnce() {
  const std::int64_t now = options_.clock();
  store_->ingest(source_(), now);
  scrapes_.fetch_add(1, std::memory_order_relaxed);
  if (options_.afterScrape) options_.afterScrape(now);
}

void Scraper::start() {
  std::lock_guard lk(mu_);
  if (running_) return;
  running_ = true;
  thread_ = std::thread([this] { run(); });
}

void Scraper::stop() {
  {
    std::lock_guard lk(mu_);
    if (!running_) return;
    running_ = false;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void Scraper::run() {
  std::unique_lock lk(mu_);
  while (running_) {
    lk.unlock();
    scrapeOnce();
    lk.lock();
    if (!running_) break;
    cv_.wait_for(lk, std::chrono::milliseconds(options_.intervalMs),
                 [this] { return !running_; });
  }
}

}  // namespace ep::obs
