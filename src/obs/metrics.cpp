#include "obs/metrics.hpp"

#include <bit>
#include <cstdio>
#include <stdexcept>
#include <unordered_map>

namespace ep::obs {

namespace {

// Recency order for exemplars across every histogram in the process:
// federation keeps the exemplar with the larger seq, so "newer wins"
// holds across shards living in one address space.
std::atomic<std::uint64_t> gExemplarSeq{0};

std::string formatHexId(std::uint64_t id) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llx", static_cast<unsigned long long>(id));
  return buf;
}

bool validMetricName(const std::string& name) {
  if (name.empty()) return false;
  auto headOk = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  if (!headOk(name[0])) return false;
  for (char c : name) {
    if (!headOk(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

// Label names: like metric names but without ':' (Prometheus reserves
// "__"-prefixed names for internal use).
bool validLabelName(const std::string& name) {
  if (name.empty()) return false;
  auto headOk = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
  };
  if (!headOk(name[0])) return false;
  for (char c : name) {
    if (!headOk(c) && !(c >= '0' && c <= '9')) return false;
  }
  return name.size() < 2 || name[0] != '_' || name[1] != '_';
}

void appendDouble(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  out += buf;
}

// 0.0.4 exposition: inside a label value, backslash, double-quote and
// line-feed must be escaped.
void appendEscapedLabelValue(std::string& out, const std::string& v) {
  for (char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
}

// HELP text escapes backslash and line-feed only.
void appendEscapedHelp(std::string& out, const std::string& help) {
  for (char c : help) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
}

// `{k1="v1",k2="v2"}` with escaped values, plus an optional trailing
// le="..." for histogram buckets; empty for an unlabelled series with
// no extra label.
void appendLabelBlock(std::string& out, const Labels& labels,
                      const char* leBound = nullptr) {
  if (labels.empty() && leBound == nullptr) return;
  out += '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    appendEscapedLabelValue(out, v);
    out += '"';
  }
  if (leBound != nullptr) {
    if (!first) out += ',';
    out += "le=\"";
    out += leBound;
    out += '"';
  }
  out += '}';
}

// Canonical key of a child series within its family.
std::string labelsKey(const Labels& labels) {
  std::string key;
  for (const auto& [k, v] : labels) {
    key += k;
    key += '\x1f';
    key += v;
    key += '\x1e';
  }
  return key;
}

}  // namespace

Histogram::Histogram(std::vector<double> upperBounds)
    : bounds_(std::move(upperBounds)),
      counts_(new std::atomic<std::uint64_t>[bounds_.size() + 1]),
      exemplarSlots_(new ExemplarSlot[bounds_.size() + 1]) {
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    if (!(bounds_[i - 1] < bounds_[i])) {
      throw std::invalid_argument(
          "histogram bounds must be strictly increasing");
    }
  }
  for (std::size_t i = 0; i <= bounds_.size(); ++i) counts_[i].store(0);
}

std::size_t Histogram::bucketIndexFor(double v) const {
  std::size_t i = 0;
  while (i < bounds_.size() && v > bounds_[i]) ++i;
  return i;
}

void Histogram::observe(double v) {
  const std::size_t i = bucketIndexFor(v);
  counts_[i].fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
}

void Histogram::observe(double v, std::uint64_t exemplarTraceId) {
  observe(v);
  if (exemplarTraceId != 0) {
    recordExemplar(bucketIndexFor(v), v, exemplarTraceId);
  }
}

void Histogram::recordExemplar(std::size_t bucket, double v,
                               std::uint64_t traceId) {
  ExemplarSlot& s = exemplarSlots_[bucket];
  std::uint32_t ver = s.version.load(std::memory_order_relaxed);
  if (ver & 1u) return;  // another writer owns the slot; skip
  if (!s.version.compare_exchange_strong(ver, ver + 1,
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed)) {
    return;  // lost the claim; the winner's exemplar is as good
  }
  s.traceId.store(traceId, std::memory_order_relaxed);
  s.valueBits.store(std::bit_cast<std::uint64_t>(v),
                    std::memory_order_relaxed);
  s.seq.store(gExemplarSeq.fetch_add(1, std::memory_order_relaxed) + 1,
              std::memory_order_relaxed);
  s.version.store(ver + 2, std::memory_order_release);
}

Exemplar Histogram::exemplar(std::size_t i) const {
  if (i > bounds_.size()) {
    throw std::invalid_argument("histogram bucket index out of range");
  }
  const ExemplarSlot& s = exemplarSlots_[i];
  for (int attempt = 0; attempt < 16; ++attempt) {
    const std::uint32_t v0 = s.version.load(std::memory_order_acquire);
    if (v0 & 1u) continue;  // writer mid-update
    Exemplar e;
    e.traceId = s.traceId.load(std::memory_order_relaxed);
    const std::uint64_t bits = s.valueBits.load(std::memory_order_relaxed);
    e.seq = s.seq.load(std::memory_order_relaxed);
    if (s.version.load(std::memory_order_acquire) == v0) {
      e.value = std::bit_cast<double>(bits);
      return e;
    }
  }
  return {};  // writers kept winning; report absent rather than torn
}

std::uint64_t Histogram::bucketValue(std::size_t i) const {
  if (i > bounds_.size()) {
    throw std::invalid_argument("histogram bucket index out of range");
  }
  return counts_[i].load(std::memory_order_relaxed);
}

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    total += counts_[i].load(std::memory_order_relaxed);
  }
  return total;
}

Registry::Entry& Registry::find(const std::string& name, Kind kind,
                                const std::string& help,
                                const Labels& labels) {
  if (!validMetricName(name)) {
    throw std::invalid_argument("invalid metric name: \"" + name + "\"");
  }
  for (const auto& [k, v] : labels) {
    (void)v;
    if (!validLabelName(k)) {
      throw std::invalid_argument("invalid label name: \"" + k + "\"");
    }
  }
  Family* family = nullptr;
  if (auto it = byName_.find(name); it != byName_.end()) {
    family = it->second;
    if (family->kind != kind) {
      throw std::invalid_argument("metric \"" + name +
                                  "\" already registered with another kind");
    }
  } else {
    auto fam = std::make_unique<Family>();
    fam->kind = kind;
    fam->name = name;
    fam->help = help;
    family = fam.get();
    byName_[name] = family;
    families_.push_back(std::move(fam));
  }
  const std::string key = labelsKey(labels);
  for (const auto& e : family->entries) {
    if (labelsKey(e->labels) == key) return *e;
  }
  auto entry = std::make_unique<Entry>();
  entry->labels = labels;
  Entry& ref = *entry;
  family->entries.push_back(std::move(entry));
  return ref;
}

Counter& Registry::counter(const std::string& name, const std::string& help,
                           const Labels& labels) {
  std::lock_guard lk(mu_);
  Entry& e = find(name, Kind::Counter, help, labels);
  if (!e.counter) e.counter = std::make_unique<Counter>();
  return *e.counter;
}

DoubleCounter& Registry::doubleCounter(const std::string& name,
                                       const std::string& help,
                                       const Labels& labels) {
  std::lock_guard lk(mu_);
  Entry& e = find(name, Kind::DoubleCounter, help, labels);
  if (!e.doubleCounter) e.doubleCounter = std::make_unique<DoubleCounter>();
  return *e.doubleCounter;
}

Gauge& Registry::gauge(const std::string& name, const std::string& help,
                       const Labels& labels) {
  std::lock_guard lk(mu_);
  Entry& e = find(name, Kind::Gauge, help, labels);
  if (!e.gauge) e.gauge = std::make_unique<Gauge>();
  return *e.gauge;
}

Histogram& Registry::histogram(const std::string& name,
                               const std::string& help,
                               std::vector<double> upperBounds,
                               const Labels& labels) {
  std::lock_guard lk(mu_);
  Entry& e = find(name, Kind::Histogram, help, labels);
  if (!e.histogram) {
    e.histogram = std::make_unique<Histogram>(std::move(upperBounds));
  } else if (e.histogram->upperBounds() != upperBounds) {
    throw std::invalid_argument("histogram \"" + name +
                                "\" already registered with other bounds");
  }
  return *e.histogram;
}

RegistrySnapshot Registry::snapshot() const {
  std::lock_guard lk(mu_);
  RegistrySnapshot snap;
  snap.families.reserve(families_.size());
  for (const auto& f : families_) {
    FamilySnapshot fam;
    fam.kind = f->kind;
    fam.name = f->name;
    fam.help = f->help;
    fam.series.reserve(f->entries.size());
    for (const auto& e : f->entries) {
      SeriesSnapshot s;
      s.labels = e->labels;
      switch (f->kind) {
        case Kind::Counter:
          if (!e->counter) continue;
          s.counterValue = e->counter->value();
          break;
        case Kind::DoubleCounter:
          if (!e->doubleCounter) continue;
          s.doubleValue = e->doubleCounter->value();
          break;
        case Kind::Gauge:
          if (!e->gauge) continue;
          s.gaugeValue = e->gauge->value();
          break;
        case Kind::Histogram: {
          if (!e->histogram) continue;
          const Histogram& h = *e->histogram;
          s.bounds = h.upperBounds();
          s.buckets.resize(h.bucketCount());
          s.exemplars.resize(h.bucketCount());
          bool anyExemplar = false;
          for (std::size_t i = 0; i < h.bucketCount(); ++i) {
            s.buckets[i] = h.bucketValue(i);
            const Exemplar ex = h.exemplar(i);
            if (ex.seq != 0) {
              anyExemplar = true;
              s.exemplars[i] = {formatHexId(ex.traceId), ex.value, ex.seq};
            }
          }
          if (!anyExemplar) s.exemplars.clear();
          s.sum = h.sum();
          break;
        }
      }
      fam.series.push_back(std::move(s));
    }
    snap.families.push_back(std::move(fam));
  }
  return snap;
}

void RegistrySnapshot::append(RegistrySnapshot other) {
  for (auto& fam : other.families) {
    FamilySnapshot* dst = nullptr;
    for (auto& f : families) {
      if (f.name == fam.name) {
        dst = &f;
        break;
      }
    }
    if (dst == nullptr) {
      families.push_back(std::move(fam));
      continue;
    }
    if (dst->kind != fam.kind) {
      throw std::invalid_argument("snapshot append: family \"" + fam.name +
                                  "\" has conflicting kinds");
    }
    for (auto& s : fam.series) dst->series.push_back(std::move(s));
  }
}

SeriesSnapshot mergeHistogramSeries(const SeriesSnapshot& a,
                                    const SeriesSnapshot& b) {
  if (a.bounds != b.bounds || a.buckets.size() != b.buckets.size()) {
    throw std::invalid_argument(
        "histogram merge: mismatched bucket bounds");
  }
  SeriesSnapshot out = a;
  for (std::size_t i = 0; i < out.buckets.size(); ++i) {
    out.buckets[i] += b.buckets[i];
  }
  out.sum += b.sum;
  if (!a.exemplars.empty() || !b.exemplars.empty()) {
    out.exemplars.assign(out.buckets.size(), {});
    auto at = [](const std::vector<SnapshotExemplar>& v, std::size_t i) {
      return i < v.size() ? v[i] : SnapshotExemplar{};
    };
    for (std::size_t i = 0; i < out.buckets.size(); ++i) {
      const SnapshotExemplar ea = at(a.exemplars, i);
      const SnapshotExemplar eb = at(b.exemplars, i);
      out.exemplars[i] = eb.seq > ea.seq ? eb : ea;  // newer wins
    }
  }
  return out;
}

RegistrySnapshot mergeShardSnapshots(
    const std::vector<std::pair<std::string, RegistrySnapshot>>& shards) {
  RegistrySnapshot out;
  std::unordered_map<std::string, std::size_t> famIndex;
  for (const auto& [shardId, snap] : shards) {
    for (const auto& fam : snap.families) {
      FamilySnapshot* dst = nullptr;
      if (auto it = famIndex.find(fam.name); it != famIndex.end()) {
        dst = &out.families[it->second];
        if (dst->kind != fam.kind) {
          throw std::invalid_argument("federation: family \"" + fam.name +
                                      "\" has conflicting kinds");
        }
      } else {
        famIndex.emplace(fam.name, out.families.size());
        out.families.push_back({fam.kind, fam.name, fam.help, {}});
        dst = &out.families.back();
      }
      for (const auto& s : fam.series) {
        if (fam.kind == MetricKind::Gauge) {
          // Instantaneous levels stay per shard, distinguished by an
          // appended shard label.
          SeriesSnapshot g = s;
          g.labels.emplace_back("shard", shardId);
          dst->series.push_back(std::move(g));
          continue;
        }
        SeriesSnapshot* match = nullptr;
        const std::string key = labelsKey(s.labels);
        for (auto& d : dst->series) {
          if (labelsKey(d.labels) == key) {
            match = &d;
            break;
          }
        }
        if (match == nullptr) {
          dst->series.push_back(s);
          continue;
        }
        switch (fam.kind) {
          case MetricKind::Counter: match->counterValue += s.counterValue; break;
          case MetricKind::DoubleCounter: match->doubleValue += s.doubleValue; break;
          case MetricKind::Histogram:
            *match = mergeHistogramSeries(*match, s);
            break;
          case MetricKind::Gauge: break;  // handled above
        }
      }
    }
  }
  return out;
}

namespace {

// OpenMetrics counter families drop a `_total` suffix in the metadata
// and re-attach it to every sample.
std::string openMetricsBaseName(const FamilySnapshot& f) {
  constexpr const char* kSuffix = "_total";
  constexpr std::size_t kSuffixLen = 6;
  if ((f.kind == MetricKind::Counter || f.kind == MetricKind::DoubleCounter) &&
      f.name.size() > kSuffixLen &&
      f.name.compare(f.name.size() - kSuffixLen, kSuffixLen, kSuffix) == 0) {
    return f.name.substr(0, f.name.size() - kSuffixLen);
  }
  return f.name;
}

void appendExemplar(std::string& out, const SnapshotExemplar& ex) {
  out += " # {trace_id=\"";
  appendEscapedLabelValue(out, ex.traceId);
  out += "\"} ";
  appendDouble(out, ex.value);
}

}  // namespace

std::string renderExposition(const RegistrySnapshot& snap,
                             ExpositionFormat format) {
  const bool om = format == ExpositionFormat::OpenMetrics100;
  std::string out;
  for (const auto& f : snap.families) {
    const bool isCounter = f.kind == MetricKind::Counter ||
                           f.kind == MetricKind::DoubleCounter;
    const std::string metaName = om ? openMetricsBaseName(f) : f.name;
    const std::string sampleName =
        om && isCounter ? metaName + "_total" : f.name;
    out += "# HELP ";
    out += metaName;
    out += ' ';
    appendEscapedHelp(out, f.help);
    out += "\n# TYPE ";
    out += metaName;
    out += ' ';
    switch (f.kind) {
      case MetricKind::Counter:
      case MetricKind::DoubleCounter: out += "counter\n"; break;
      case MetricKind::Gauge: out += "gauge\n"; break;
      case MetricKind::Histogram: out += "histogram\n"; break;
    }
    for (const auto& s : f.series) {
      switch (f.kind) {
        case MetricKind::Counter:
          out += sampleName;
          appendLabelBlock(out, s.labels);
          out += ' ';
          out += std::to_string(s.counterValue);
          out += '\n';
          break;
        case MetricKind::DoubleCounter:
          out += sampleName;
          appendLabelBlock(out, s.labels);
          out += " ";
          appendDouble(out, s.doubleValue);
          out += "\n";
          break;
        case MetricKind::Gauge:
          out += sampleName;
          appendLabelBlock(out, s.labels);
          out += ' ';
          out += std::to_string(s.gaugeValue);
          out += '\n';
          break;
        case MetricKind::Histogram: {
          std::uint64_t cum = 0;
          char bound[40];
          auto exemplarAt = [&](std::size_t i) {
            return i < s.exemplars.size() ? s.exemplars[i]
                                          : SnapshotExemplar{};
          };
          for (std::size_t i = 0; i < s.bounds.size(); ++i) {
            cum += i < s.buckets.size() ? s.buckets[i] : 0;
            std::snprintf(bound, sizeof bound, "%.10g", s.bounds[i]);
            out += sampleName + "_bucket";
            appendLabelBlock(out, s.labels, bound);
            out += ' ';
            out += std::to_string(cum);
            if (om) {
              const SnapshotExemplar ex = exemplarAt(i);
              if (ex.seq != 0) appendExemplar(out, ex);
            }
            out += "\n";
          }
          if (s.buckets.size() > s.bounds.size()) {
            cum += s.buckets[s.bounds.size()];
          }
          out += sampleName + "_bucket";
          appendLabelBlock(out, s.labels, "+Inf");
          out += ' ';
          out += std::to_string(cum);
          if (om) {
            const SnapshotExemplar ex = exemplarAt(s.bounds.size());
            if (ex.seq != 0) appendExemplar(out, ex);
          }
          out += "\n";
          out += sampleName + "_sum";
          appendLabelBlock(out, s.labels);
          out += " ";
          appendDouble(out, s.sum);
          out += "\n";
          out += sampleName + "_count";
          appendLabelBlock(out, s.labels);
          out += ' ';
          out += std::to_string(cum);
          out += '\n';
          break;
        }
      }
    }
  }
  if (om) out += "# EOF\n";
  return out;
}

std::string Registry::renderPrometheus() const {
  return renderExposition(snapshot(), ExpositionFormat::Prometheus004);
}

Registry& Registry::global() {
  static Registry* r = new Registry();  // never destroyed: metric
                                        // references outlive main()
  static bool stamped = (registerBuildInfo(*r), true);
  (void)stamped;
  return *r;
}

// Build identity baked in by src/obs/CMakeLists.txt at configure time.
#ifndef EP_BUILD_GIT_HASH
#define EP_BUILD_GIT_HASH "unknown"
#endif
#ifndef EP_BUILD_TYPE
#define EP_BUILD_TYPE "unspecified"
#endif
#ifndef EP_BUILD_COMPILER
#define EP_BUILD_COMPILER "unknown"
#endif

void registerBuildInfo(Registry& registry) {
  registry
      .gauge("ep_build_info", "Build identity (info-style: value always 1)",
             {{"git_hash", EP_BUILD_GIT_HASH},
              {"build_type", EP_BUILD_TYPE},
              {"compiler", EP_BUILD_COMPILER}})
      .set(1);
}

}  // namespace ep::obs
