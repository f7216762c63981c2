// epobs: metrics registry semantics, Prometheus exposition, span
// tracing and Chrome trace-event export.
//
// The trace-export schema test deliberately reuses the serve wire
// parser: epobs emits flat event objects precisely so the in-tree
// dependency-free JSON parser can validate them.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/gpu_matmul_app.hpp"
#include "common/thread_pool.hpp"
#include "core/study.hpp"
#include "hw/gpu_model.hpp"
#include "hw/spec.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/profile_export.hpp"
#include "obs/profiler.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "obs/tsdb.hpp"
#include "serve/wire.hpp"

namespace {

using ep::obs::Counter;
using ep::obs::DoubleCounter;
using ep::obs::ExpositionFormat;
using ep::obs::FamilySnapshot;
using ep::obs::FlightEvent;
using ep::obs::FlightRecorder;
using ep::obs::Gauge;
using ep::obs::Histogram;
using ep::obs::Labels;
using ep::obs::MetricKind;
using ep::obs::Registry;
using ep::obs::RegistrySnapshot;
using ep::obs::ScopedTraceContext;
using ep::obs::Scraper;
using ep::obs::SeriesSnapshot;
using ep::obs::SloEngine;
using ep::obs::SloSpec;
using ep::obs::Span;
using ep::obs::TimeSeriesStore;
using ep::obs::TraceContext;
using ep::obs::TraceEvent;
using ep::obs::Tracer;

using ep::obs::ProfileEntry;
using ep::obs::ProfileFrame;
using ep::obs::ProfileKind;
using ep::obs::Profiler;
using ep::obs::ProfilerOptions;
using ep::obs::ProfileSnapshot;
using ep::obs::ProfileThreadLabel;
using ep::obs::TraceSlice;

// ---------------------------------------------------------------------------
// Registry

TEST(Metrics, CounterStartsAtZeroAndAccumulates) {
  Registry r;
  Counter& c = r.counter("test_total", "help");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Metrics, GaugeSetAddSub) {
  Registry r;
  Gauge& g = r.gauge("test_gauge", "help");
  g.set(10);
  g.add(5);
  g.sub(20);
  EXPECT_EQ(g.value(), -5);
}

TEST(Metrics, RegistrationIsIdempotent) {
  Registry r;
  Counter& a = r.counter("same_total", "help");
  Counter& b = r.counter("same_total", "help");
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(b.value(), 1u);

  Histogram& h1 = r.histogram("same_hist", "help", {1.0, 2.0});
  Histogram& h2 = r.histogram("same_hist", "help", {1.0, 2.0});
  EXPECT_EQ(&h1, &h2);
}

TEST(Metrics, KindConflictThrows) {
  Registry r;
  r.counter("name_total", "help");
  EXPECT_THROW(r.gauge("name_total", "help"), std::invalid_argument);
  EXPECT_THROW(r.histogram("name_total", "help", {1.0}),
               std::invalid_argument);
}

TEST(Metrics, HistogramBoundsConflictThrows) {
  Registry r;
  r.histogram("h", "help", {1.0, 2.0});
  EXPECT_THROW(r.histogram("h", "help", {1.0, 3.0}), std::invalid_argument);
}

TEST(Metrics, InvalidNamesThrow) {
  Registry r;
  EXPECT_THROW(r.counter("", "help"), std::invalid_argument);
  EXPECT_THROW(r.counter("9starts_with_digit", "help"),
               std::invalid_argument);
  EXPECT_THROW(r.counter("has space", "help"), std::invalid_argument);
  EXPECT_THROW(r.counter("has-dash", "help"), std::invalid_argument);
  // The full Prometheus grammar, including colons, is accepted.
  EXPECT_NO_THROW(r.counter("ns:sub_system_total", "help"));
}

TEST(Metrics, HistogramBucketsAndSum) {
  Registry r;
  Histogram& h = r.histogram("lat_ms", "help", {1.0, 10.0});
  EXPECT_THROW(r.histogram("bad", "help", {2.0, 2.0}),
               std::invalid_argument);

  h.observe(0.5);   // bucket 0 (le 1.0)
  h.observe(1.0);   // bucket 0: le is inclusive
  h.observe(5.0);   // bucket 1 (le 10.0)
  h.observe(100.0); // +Inf bucket
  EXPECT_EQ(h.bucketValue(0), 2u);
  EXPECT_EQ(h.bucketValue(1), 1u);
  EXPECT_EQ(h.bucketValue(2), 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_NEAR(h.sum(), 106.5, 1e-9);
  EXPECT_THROW((void)h.bucketValue(3), std::invalid_argument);
}

TEST(Metrics, ConcurrentIncrementsAreExact) {
  Registry r;
  Counter& c = r.counter("conc_total", "help");
  Histogram& h = r.histogram("conc_hist", "help", {10.0});
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        c.inc();
        h.observe(1.0);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_NEAR(h.sum(), static_cast<double>(kThreads) * kIters, 1e-6);
}

// Line-level validation of the Prometheus text exposition: every line
// is a comment or `name[{le="bound"}] value`, histograms cumulative.
TEST(Metrics, RenderPrometheusIsWellFormed) {
  Registry r;
  Counter& c = r.counter("req_total", "Requests seen");
  Gauge& g = r.gauge("depth", "Queue depth");
  Histogram& h = r.histogram("lat_ms", "Latency", {1.0, 10.0});
  c.inc(3);
  g.set(-2);
  h.observe(0.5);
  h.observe(5.0);
  h.observe(100.0);

  const std::string text = r.renderPrometheus();
  EXPECT_NE(text.find("# HELP req_total Requests seen\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE req_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("req_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("depth -2\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lat_ms histogram\n"), std::string::npos);
  // Buckets are cumulative and end at +Inf == _count.
  EXPECT_NE(text.find("lat_ms_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("lat_ms_bucket{le=\"10\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("lat_ms_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("lat_ms_sum 105.5\n"), std::string::npos);
  EXPECT_NE(text.find("lat_ms_count 3\n"), std::string::npos);

  // Structural pass over every line.
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    ASSERT_NE(nl, std::string::npos) << "exposition must end with newline";
    const std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string value = line.substr(space + 1);
    ASSERT_FALSE(value.empty()) << line;
    // Value parses as a number.
    std::size_t parsed = 0;
    EXPECT_NO_THROW({ (void)std::stod(value, &parsed); }) << line;
    EXPECT_EQ(parsed, value.size()) << line;
  }
}

// ---------------------------------------------------------------------------
// Labels, DoubleCounter, and exposition-format conformance

TEST(Metrics, LabeledChildrenShareOneFamilyHeader) {
  Registry r;
  Counter& p100 = r.counter("dev_total", "Per-device ops",
                            {{"device", "P100"}});
  Counter& k40c = r.counter("dev_total", "Per-device ops",
                            {{"device", "K40c"}});
  EXPECT_NE(&p100, &k40c);
  // Same name + same labels is the same child.
  EXPECT_EQ(&p100, &r.counter("dev_total", "Per-device ops",
                              {{"device", "P100"}}));
  p100.inc(2);
  k40c.inc(5);

  const std::string text = r.renderPrometheus();
  // HELP/TYPE once, then both children.
  EXPECT_EQ(text.find("# HELP dev_total"), text.rfind("# HELP dev_total"));
  EXPECT_NE(text.find("dev_total{device=\"P100\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("dev_total{device=\"K40c\"} 5\n"), std::string::npos);
}

TEST(Metrics, LabelValuesAreEscapedPerExpositionFormat) {
  Registry r;
  // Backslash, quote and newline are exactly the three characters the
  // 0.0.4 text format requires escaping in label values.
  r.counter("esc_total", "Escapes", {{"path", "a\\b\"c\nd"}}).inc();
  const std::string text = r.renderPrometheus();
  EXPECT_NE(text.find("esc_total{path=\"a\\\\b\\\"c\\nd\"} 1\n"),
            std::string::npos);
}

TEST(Metrics, HelpTextEscapesBackslashAndNewline) {
  Registry r;
  r.counter("h_total", "line one\nline \\ two").inc();
  const std::string text = r.renderPrometheus();
  EXPECT_NE(text.find("# HELP h_total line one\\nline \\\\ two\n"),
            std::string::npos);
}

TEST(Metrics, InvalidLabelNamesThrow) {
  Registry r;
  EXPECT_THROW(r.counter("ok_total", "h", {{"0bad", "v"}}),
               std::invalid_argument);
  EXPECT_THROW(r.counter("ok_total", "h", {{"has-dash", "v"}}),
               std::invalid_argument);
  EXPECT_THROW(r.counter("ok_total", "h", {{"__reserved", "v"}}),
               std::invalid_argument);
  EXPECT_THROW(r.counter("ok_total", "h", {{"", "v"}}),
               std::invalid_argument);
  // A leading single underscore is legal.
  EXPECT_NO_THROW(r.counter("ok_total", "h", {{"_fine", "v"}}));
}

TEST(Metrics, FamilyKindConflictAcrossLabelsThrows) {
  Registry r;
  r.counter("mixed_total", "h", {{"a", "1"}}).inc();
  EXPECT_THROW(r.gauge("mixed_total", "h", {{"a", "2"}}),
               std::invalid_argument);
}

TEST(Metrics, DoubleCounterAccumulatesAndRendersAsCounter) {
  Registry r;
  DoubleCounter& j = r.doubleCounter("energy_joules", "Joules",
                                     {{"device", "P100"}});
  j.add(1.5);
  j.add(2.25);
  EXPECT_DOUBLE_EQ(j.value(), 3.75);
  const std::string text = r.renderPrometheus();
  EXPECT_NE(text.find("# TYPE energy_joules counter\n"), std::string::npos);
  EXPECT_NE(text.find("energy_joules{device=\"P100\"} 3.75\n"),
            std::string::npos);
}

// Conformance lint over the full exposition grammar: family names and
// label names against the Prometheus regexes, label values legally
// escaped, every sample attributable to exactly one HELP/TYPE pair.
// This is the test the 0.0.4 spec asks scrapers to rely on.
bool validMetricName(const std::string& s) {
  if (s.empty()) return false;
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  if (!head(s[0])) return false;
  for (char c : s) {
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

bool validLabelNameForLint(const std::string& s) {
  if (s.empty() || s.size() >= 2 * 1024) return false;
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
  };
  if (!head(s[0])) return false;
  for (char c : s) {
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  }
  return !(s.size() >= 2 && s[0] == '_' && s[1] == '_');
}

// Strip histogram sample suffixes to the family that owns the header.
std::string familyOf(const std::string& sample) {
  for (const char* suffix : {"_bucket", "_sum", "_count"}) {
    const std::string sfx(suffix);
    if (sample.size() > sfx.size() &&
        sample.compare(sample.size() - sfx.size(), sfx.size(), sfx) == 0) {
      return sample.substr(0, sample.size() - sfx.size());
    }
  }
  return sample;
}

void lintExposition(const std::string& text) {
  std::map<std::string, std::string> typeOf;  // family -> TYPE
  std::set<std::string> helped;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    ASSERT_NE(nl, std::string::npos) << "unterminated final line";
    const std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    ASSERT_FALSE(line.empty());

    if (line.rfind("# HELP ", 0) == 0) {
      const std::size_t sp = line.find(' ', 7);
      ASSERT_NE(sp, std::string::npos) << line;
      const std::string name = line.substr(7, sp - 7);
      EXPECT_TRUE(validMetricName(name)) << line;
      EXPECT_TRUE(helped.insert(name).second)
          << "duplicate HELP for " << name;
      // Escaped help: a raw newline cannot appear (we split on it), a
      // backslash must be followed by 'n' or '\\'.
      const std::string help = line.substr(sp + 1);
      for (std::size_t i = 0; i < help.size(); ++i) {
        if (help[i] == '\\') {
          ASSERT_LT(i + 1, help.size()) << line;
          EXPECT_TRUE(help[i + 1] == 'n' || help[i + 1] == '\\') << line;
          ++i;
        }
      }
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::size_t sp = line.find(' ', 7);
      ASSERT_NE(sp, std::string::npos) << line;
      const std::string name = line.substr(7, sp - 7);
      const std::string type = line.substr(sp + 1);
      EXPECT_TRUE(validMetricName(name)) << line;
      EXPECT_TRUE(type == "counter" || type == "gauge" ||
                  type == "histogram" || type == "summary" ||
                  type == "untyped")
          << line;
      EXPECT_TRUE(typeOf.emplace(name, type).second)
          << "duplicate TYPE for " << name;
      continue;
    }
    ASSERT_NE(line[0], '#') << "unknown comment form: " << line;

    // Sample line: name[{labels}] value
    std::size_t nameEnd = 0;
    while (nameEnd < line.size() && line[nameEnd] != '{' &&
           line[nameEnd] != ' ') {
      ++nameEnd;
    }
    const std::string sample = line.substr(0, nameEnd);
    EXPECT_TRUE(validMetricName(sample)) << line;
    const std::string family = familyOf(sample);
    EXPECT_TRUE(typeOf.count(family))
        << "sample " << sample << " has no TYPE header";
    EXPECT_TRUE(helped.count(family))
        << "sample " << sample << " has no HELP header";

    std::size_t i = nameEnd;
    if (i < line.size() && line[i] == '{') {
      ++i;
      while (i < line.size() && line[i] != '}') {
        std::size_t eq = line.find('=', i);
        ASSERT_NE(eq, std::string::npos) << line;
        EXPECT_TRUE(validLabelNameForLint(line.substr(i, eq - i))) << line;
        ASSERT_EQ(line[eq + 1], '"') << line;
        i = eq + 2;
        while (i < line.size() && line[i] != '"') {
          if (line[i] == '\\') {
            ASSERT_LT(i + 1, line.size()) << line;
            EXPECT_TRUE(line[i + 1] == '\\' || line[i + 1] == '"' ||
                        line[i + 1] == 'n')
                << "illegal label-value escape in: " << line;
            ++i;
          }
          ++i;
        }
        ASSERT_LT(i, line.size()) << line;
        ++i;  // closing quote
        if (i < line.size() && line[i] == ',') ++i;
      }
      ASSERT_LT(i, line.size()) << line;
      ++i;  // closing brace
    }
    ASSERT_LT(i, line.size()) << line;
    ASSERT_EQ(line[i], ' ') << line;
    const std::string value = line.substr(i + 1);
    if (value != "+Inf" && value != "-Inf" && value != "NaN") {
      std::size_t parsed = 0;
      EXPECT_NO_THROW({ (void)std::stod(value, &parsed); }) << line;
      EXPECT_EQ(parsed, value.size()) << line;
    }
  }
}

TEST(Metrics, ExpositionPassesConformanceLint) {
  Registry r;
  r.counter("ep_requests_total", "Requests").inc(7);
  r.counter("ep_by_dev_total", "By device", {{"device", "P100"}}).inc(1);
  r.counter("ep_by_dev_total", "By device", {{"device", "K40c"}}).inc(2);
  r.doubleCounter("ep_joules", "Energy\nledger", {{"device", "P\\100\""}})
      .add(12.5);
  r.gauge("ep_depth", "Depth").set(-3);
  r.histogram("ep_lat_ms", "Latency", {1.0, 8.0}, {{"op", "tune"}})
      .observe(3.0);
  lintExposition(r.renderPrometheus());
}

// The broker's and the process-global registry's expositions must both
// pass the same lint (they are concatenated by epserved).
TEST(Metrics, GlobalRegistryPassesConformanceLint) {
  lintExposition(Registry::global().renderPrometheus());
}

// ---------------------------------------------------------------------------
// Snapshots, exemplars, OpenMetrics 1.0, and federation

const FamilySnapshot* familyNamed(const RegistrySnapshot& snap,
                                  const std::string& name) {
  for (const auto& f : snap.families) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

TEST(Snapshot, CapturesEveryKindWithNonCumulativeBuckets) {
  Registry r;
  r.counter("sn_req_total", "Requests").inc(3);
  r.doubleCounter("sn_joules_total", "Energy").add(2.5);
  r.gauge("sn_depth", "Depth").set(-4);
  Histogram& h = r.histogram("sn_lat_ms", "Latency", {1.0, 10.0});
  h.observe(0.5);
  h.observe(5.0);
  h.observe(6.0);
  h.observe(100.0);

  const RegistrySnapshot snap = r.snapshot();
  ASSERT_EQ(snap.families.size(), 4u);

  const FamilySnapshot* c = familyNamed(snap, "sn_req_total");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->kind, MetricKind::Counter);
  ASSERT_EQ(c->series.size(), 1u);
  EXPECT_EQ(c->series[0].counterValue, 3u);

  const FamilySnapshot* j = familyNamed(snap, "sn_joules_total");
  ASSERT_NE(j, nullptr);
  EXPECT_EQ(j->kind, MetricKind::DoubleCounter);
  EXPECT_DOUBLE_EQ(j->series[0].doubleValue, 2.5);

  const FamilySnapshot* g = familyNamed(snap, "sn_depth");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->kind, MetricKind::Gauge);
  EXPECT_EQ(g->series[0].gaugeValue, -4);

  const FamilySnapshot* hs = familyNamed(snap, "sn_lat_ms");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->kind, MetricKind::Histogram);
  ASSERT_EQ(hs->series.size(), 1u);
  const SeriesSnapshot& s = hs->series[0];
  EXPECT_EQ(s.bounds, (std::vector<double>{1.0, 10.0}));
  // Per-bucket (non-cumulative) counts; +Inf last.
  EXPECT_EQ(s.buckets, (std::vector<std::uint64_t>{1, 2, 1}));
  EXPECT_NEAR(s.sum, 111.5, 1e-9);
}

// renderExposition(snapshot, 0.0.4) is the render path behind
// renderPrometheus(); the two must agree byte for byte so nothing the
// old tests pin ever changes.
TEST(Snapshot, PrometheusRenderIsByteIdenticalToLegacyPath) {
  Registry r;
  r.counter("bi_total", "Requests", {{"device", "P100"}}).inc(7);
  r.gauge("bi_depth", "Depth").set(5);
  r.histogram("bi_ms", "Latency", {1.0}).observe(0.25);
  EXPECT_EQ(ep::obs::renderExposition(r.snapshot(),
                                      ExpositionFormat::Prometheus004),
            r.renderPrometheus());
}

TEST(Exemplars, HistogramKeepsLastTracePerBucket) {
  Registry r;
  Histogram& h = r.histogram("ex_ms", "Latency", {1.0, 10.0});
  h.observe(0.5, 0xAAu);
  h.observe(0.7, 0xBBu);   // same bucket: newer wins
  h.observe(5.0, 0xCCu);
  h.observe(50.0, 0xDDu);  // +Inf bucket

  const ep::obs::Exemplar b0 = h.exemplar(0);
  EXPECT_EQ(b0.traceId, 0xBBu);
  EXPECT_DOUBLE_EQ(b0.value, 0.7);
  EXPECT_NE(b0.seq, 0u);
  EXPECT_EQ(h.exemplar(1).traceId, 0xCCu);
  EXPECT_EQ(h.exemplar(2).traceId, 0xDDu);

  // A trace-less observe must not disturb the recorded exemplar.
  h.observe(0.9);
  EXPECT_EQ(h.exemplar(0).traceId, 0xBBu);
}

TEST(Exemplars, OpenMetricsRenderCarriesTraceIdOnBuckets) {
  Registry r;
  Histogram& h = r.histogram("om_ms", "Latency", {1.0});
  h.observe(0.5, 0xCAFE01u);

  const std::string om =
      ep::obs::renderExposition(r.snapshot(), ExpositionFormat::OpenMetrics100);
  EXPECT_NE(om.find("om_ms_bucket{le=\"1\"} 1 # {trace_id=\"cafe01\"} 0.5\n"),
            std::string::npos);
  // The 0.0.4 exposition of the same snapshot must NOT carry exemplars.
  const std::string prom =
      ep::obs::renderExposition(r.snapshot(), ExpositionFormat::Prometheus004);
  EXPECT_EQ(prom.find("# {"), std::string::npos);
}

TEST(Exemplars, LabelValuesInExemplarsAreEscaped) {
  // Build the snapshot by hand: wire trace ids are hex in practice, but
  // the renderer must escape whatever the exemplar carries.
  RegistrySnapshot snap;
  FamilySnapshot fam;
  fam.kind = MetricKind::Histogram;
  fam.name = "esc_ms";
  fam.help = "h";
  SeriesSnapshot s;
  s.bounds = {1.0};
  s.buckets = {1, 0};
  s.sum = 0.5;
  s.exemplars = {{"a\"b\\c\nd", 0.5, 1}, {}};
  fam.series.push_back(s);
  snap.families.push_back(fam);

  const std::string om =
      ep::obs::renderExposition(snap, ExpositionFormat::OpenMetrics100);
  EXPECT_NE(om.find("# {trace_id=\"a\\\"b\\\\c\\nd\"} 0.5"),
            std::string::npos);
}

TEST(OpenMetrics, CounterFamiliesDropTotalInMetadataAndEndWithEof) {
  Registry r;
  r.counter("omc_total", "Requests").inc(4);
  r.doubleCounter("omj_total", "Joules").add(1.5);
  r.gauge("om_gauge_total", "A gauge whose name just ends that way").set(2);

  const std::string om =
      ep::obs::renderExposition(r.snapshot(), ExpositionFormat::OpenMetrics100);
  // Counter metadata names the base; samples re-attach _total.
  EXPECT_NE(om.find("# HELP omc Requests\n"), std::string::npos);
  EXPECT_NE(om.find("# TYPE omc counter\n"), std::string::npos);
  EXPECT_NE(om.find("omc_total 4\n"), std::string::npos);
  EXPECT_NE(om.find("# TYPE omj counter\n"), std::string::npos);
  EXPECT_NE(om.find("omj_total 1.5\n"), std::string::npos);
  // Gauges never strip the suffix.
  EXPECT_NE(om.find("# TYPE om_gauge_total gauge\n"), std::string::npos);
  EXPECT_NE(om.find("om_gauge_total 2\n"), std::string::npos);
  // Exactly one # EOF, as the final line.
  EXPECT_EQ(om.rfind("# EOF\n"), om.size() - 6);
  EXPECT_EQ(om.find("# EOF"), om.rfind("# EOF"));
}

// OpenMetrics lint: reuse the 0.0.4 structural lint after normalizing
// the two OM-only constructs (exemplar clauses and the # EOF trailer)
// and re-basing counter sample names onto their metadata names.
void lintOpenMetrics(const std::string& om) {
  ASSERT_GE(om.size(), 6u);
  ASSERT_EQ(om.substr(om.size() - 6), "# EOF\n") << "missing # EOF";
  std::string normalized;
  std::size_t pos = 0;
  std::set<std::string> counterBases;
  // First pass: collect counter metadata names.
  while (pos < om.size()) {
    const std::size_t nl = om.find('\n', pos);
    ASSERT_NE(nl, std::string::npos);
    const std::string line = om.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.rfind("# TYPE ", 0) == 0 &&
        line.substr(line.rfind(' ') + 1) == "counter") {
      const std::size_t sp = line.find(' ', 7);
      counterBases.insert(line.substr(7, sp - 7));
    }
  }
  pos = 0;
  while (pos < om.size()) {
    const std::size_t nl = om.find('\n', pos);
    const std::string line = om.substr(pos, nl - pos);
    pos = nl + 1;
    if (line == "# EOF") continue;
    std::string out = line;
    if (!out.empty() && out[0] != '#') {
      // Strip an exemplar clause (" # {...} value") if present.
      const std::size_t ex = out.find(" # {");
      if (ex != std::string::npos) {
        // Validate the clause shape before dropping it.
        const std::size_t close = out.find("} ", ex + 3);
        ASSERT_NE(close, std::string::npos) << line;
        EXPECT_NE(out.find("trace_id=\"", ex), std::string::npos) << line;
        out = out.substr(0, ex);
      }
      // Re-base "name_total" samples whose family metadata is "name".
      const std::size_t nameEnd = out.find_first_of("{ ");
      ASSERT_NE(nameEnd, std::string::npos) << line;
      const std::string sample = out.substr(0, nameEnd);
      constexpr const char* kTotal = "_total";
      if (sample.size() > 6 &&
          sample.compare(sample.size() - 6, 6, kTotal) == 0 &&
          counterBases.count(sample.substr(0, sample.size() - 6))) {
        out = sample.substr(0, sample.size() - 6) + out.substr(nameEnd);
      }
    }
    normalized += out;
    normalized += '\n';
  }
  lintExposition(normalized);
}

TEST(OpenMetrics, ExpositionPassesLintWithExemplars) {
  Registry r;
  r.counter("oml_req_total", "Requests").inc(7);
  r.counter("oml_dev_total", "By device", {{"device", "P100"}}).inc(1);
  r.doubleCounter("oml_joules_total", "Energy", {{"device", "K40c"}})
      .add(12.5);
  r.gauge("oml_depth", "Depth").set(-3);
  Histogram& h =
      r.histogram("oml_ms", "Latency", {1.0, 8.0}, {{"op", "tune"}});
  h.observe(3.0, 0xBEEFu);
  h.observe(0.5, 0xF00Du);
  lintOpenMetrics(
      ep::obs::renderExposition(r.snapshot(), ExpositionFormat::OpenMetrics100));
}

TEST(Federation, BucketMergeIsAssociativeAndExact) {
  auto mkSeries = [](std::vector<std::uint64_t> buckets, double sum,
                     std::vector<ep::obs::SnapshotExemplar> ex) {
    SeriesSnapshot s;
    s.bounds = {1.0, 10.0};
    s.buckets = std::move(buckets);
    s.sum = sum;
    s.exemplars = std::move(ex);
    return s;
  };
  const SeriesSnapshot a =
      mkSeries({1, 2, 3}, 40.0, {{"aa", 0.5, 3}, {}, {}});
  const SeriesSnapshot b =
      mkSeries({5, 0, 2}, 12.5, {{"bb", 0.9, 7}, {"b1", 4.0, 2}, {}});
  const SeriesSnapshot c =
      mkSeries({0, 4, 1}, 9.25, {{"cc", 0.1, 5}, {}, {"c2", 99.0, 9}});

  const SeriesSnapshot ab_c = ep::obs::mergeHistogramSeries(
      ep::obs::mergeHistogramSeries(a, b), c);
  const SeriesSnapshot a_bc = ep::obs::mergeHistogramSeries(
      a, ep::obs::mergeHistogramSeries(b, c));

  EXPECT_EQ(ab_c.buckets, (std::vector<std::uint64_t>{6, 6, 6}));
  EXPECT_EQ(a_bc.buckets, ab_c.buckets);
  EXPECT_DOUBLE_EQ(ab_c.sum, 61.75);
  EXPECT_DOUBLE_EQ(a_bc.sum, ab_c.sum);
  // Exemplars resolve newest-by-seq regardless of merge order.
  ASSERT_EQ(ab_c.exemplars.size(), 3u);
  EXPECT_EQ(ab_c.exemplars[0].traceId, "bb");  // seq 7 beats 3 and 5
  EXPECT_EQ(ab_c.exemplars[1].traceId, "b1");
  EXPECT_EQ(ab_c.exemplars[2].traceId, "c2");
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(a_bc.exemplars[i].traceId, ab_c.exemplars[i].traceId);
    EXPECT_EQ(a_bc.exemplars[i].seq, ab_c.exemplars[i].seq);
  }

  SeriesSnapshot mismatched = a;
  mismatched.bounds = {1.0, 20.0};
  EXPECT_THROW(ep::obs::mergeHistogramSeries(a, mismatched),
               std::invalid_argument);
}

TEST(Federation, MergeShardSnapshotsSumsCountersAndLabelsGauges) {
  Registry s0;
  s0.counter("fed_req_total", "Requests").inc(3);
  s0.gauge("fed_depth", "Depth").set(2);
  s0.histogram("fed_ms", "Latency", {1.0}).observe(0.5);
  Registry s1;
  s1.counter("fed_req_total", "Requests").inc(4);
  s1.gauge("fed_depth", "Depth").set(9);
  Histogram& h1 = s1.histogram("fed_ms", "Latency", {1.0});
  h1.observe(0.6);
  h1.observe(50.0);

  const RegistrySnapshot merged = ep::obs::mergeShardSnapshots(
      {{"s0", s0.snapshot()}, {"s1", s1.snapshot()}});

  const FamilySnapshot* c = familyNamed(merged, "fed_req_total");
  ASSERT_NE(c, nullptr);
  ASSERT_EQ(c->series.size(), 1u);
  EXPECT_EQ(c->series[0].counterValue, 7u);

  const FamilySnapshot* g = familyNamed(merged, "fed_depth");
  ASSERT_NE(g, nullptr);
  ASSERT_EQ(g->series.size(), 2u);
  // Gauges stay per shard, tagged with an appended shard label.
  const std::string text =
      ep::obs::renderExposition(merged, ExpositionFormat::Prometheus004);
  EXPECT_NE(text.find("fed_depth{shard=\"s0\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("fed_depth{shard=\"s1\"} 9\n"), std::string::npos);

  const FamilySnapshot* h = familyNamed(merged, "fed_ms");
  ASSERT_NE(h, nullptr);
  ASSERT_EQ(h->series.size(), 1u);
  EXPECT_EQ(h->series[0].buckets, (std::vector<std::uint64_t>{2, 1}));
  // Cumulative render: le="1" holds 2, +Inf holds all 3.
  EXPECT_NE(text.find("fed_ms_bucket{le=\"1\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("fed_ms_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
  lintExposition(text);
}

// ---------------------------------------------------------------------------
// eptsdb: ring wraparound, windowed aggregation, histogram quantiles

TEST(Tsdb, RingWraparoundKeepsNewestSamplesInOrder) {
  TimeSeriesStore store(4);
  Registry r;
  Counter& c = r.counter("wrap_total", "h");
  for (int t = 1; t <= 10; ++t) {
    c.inc();
    store.ingest(r.snapshot(), t * 1000);
  }
  const auto samples =
      store.range("wrap_total", 0, std::numeric_limits<std::int64_t>::max());
  ASSERT_EQ(samples.size(), 4u);  // ring capacity, oldest overwritten
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].timeNs, static_cast<std::int64_t>(7 + i) * 1000);
    EXPECT_DOUBLE_EQ(samples[i].value, 7.0 + static_cast<double>(i));
  }
  EXPECT_EQ(store.ringCapacity(), 4u);
}

TEST(Tsdb, WindowedAggregateAndRate) {
  TimeSeriesStore store;
  Registry r;
  Counter& c = r.counter("agg_total", "h");
  // One scrape per synthetic second; counter grows by 2 per scrape.
  for (int t = 1; t <= 10; ++t) {
    c.inc(2);
    store.ingest(r.snapshot(), static_cast<std::int64_t>(t) * 1000000000);
  }
  const auto agg = store.aggregate("agg_total", 4 * 1000000000LL,
                                   8 * 1000000000LL);
  EXPECT_EQ(agg.samples, 5u);  // t = 4..8 inclusive
  EXPECT_DOUBLE_EQ(agg.first, 8.0);
  EXPECT_DOUBLE_EQ(agg.last, 16.0);
  EXPECT_DOUBLE_EQ(agg.min, 8.0);
  EXPECT_DOUBLE_EQ(agg.max, 16.0);
  EXPECT_DOUBLE_EQ(agg.avg, 12.0);
  EXPECT_NEAR(agg.rate, 2.0, 1e-9);  // 8 over 4 seconds

  // Unknown keys are empty, not an error.
  EXPECT_EQ(store.range("nope_total", 0, 1).size(), 0u);
  EXPECT_EQ(store.aggregate("nope_total", 0, 1).samples, 0u);
}

TEST(Tsdb, HistogramDecomposesIntoExpositionKeyedSeries) {
  TimeSeriesStore store;
  Registry r;
  Histogram& h =
      r.histogram("ts_ms", "Latency", {1.0, 10.0}, {{"op", "tune"}});
  h.observe(0.5);
  store.ingest(r.snapshot(), 1000);

  const auto keys = store.seriesKeys();
  const auto has = [&](const std::string& k) {
    return std::find(keys.begin(), keys.end(), k) != keys.end();
  };
  EXPECT_TRUE(has("ts_ms_count{op=\"tune\"}"));
  EXPECT_TRUE(has("ts_ms_sum{op=\"tune\"}"));
  EXPECT_TRUE(has("ts_ms_bucket{op=\"tune\",le=\"1\"}"));
  EXPECT_TRUE(has("ts_ms_bucket{op=\"tune\",le=\"10\"}"));
  EXPECT_TRUE(has("ts_ms_bucket{op=\"tune\",le=\"+Inf\"}"));

  const auto metas = store.histogramsForFamily("ts_ms");
  ASSERT_EQ(metas.size(), 1u);
  EXPECT_EQ(metas[0].bounds, (std::vector<double>{1.0, 10.0}));
  // Buckets are stored cumulatively, like a scrape would see them.
  const auto inf =
      store.range("ts_ms_bucket{op=\"tune\",le=\"+Inf\"}", 0, 2000);
  ASSERT_EQ(inf.size(), 1u);
  EXPECT_DOUBLE_EQ(inf[0].value, 1.0);
}

TEST(Tsdb, WindowedQuantileFromCumulativeDeltas) {
  TimeSeriesStore store;
  Registry r;
  Histogram& h = r.histogram("q_ms", "Latency", {1.0, 10.0});
  // Scrape 1: one fast request (this is "before the window's story").
  h.observe(0.5);
  store.ingest(r.snapshot(), 1 * 1000000000LL);
  // Scrape 2: 8 requests in (1,10], 2 beyond every bound.
  for (int i = 0; i < 8; ++i) h.observe(5.0);
  h.observe(100.0);
  h.observe(200.0);
  store.ingest(r.snapshot(), 2 * 1000000000LL);

  // Window covering both scrapes: deltas are 0/8/2 (total 10).
  const double p50 =
      store.histogramQuantile("q_ms", 0.5, 0, 3 * 1000000000LL);
  EXPECT_DOUBLE_EQ(p50, 10.0);
  // q into the +Inf bucket: +infinity.
  const double p99 =
      store.histogramQuantile("q_ms", 0.99, 0, 3 * 1000000000LL);
  EXPECT_TRUE(std::isinf(p99));
  // A window with fewer than two scrapes falls back to the lifetime
  // distribution (1+8 in-bound, 2 beyond; p50 lands in (1,10]).
  const double lifetime = store.histogramQuantile(
      "q_ms", 0.5, 2 * 1000000000LL - 1, 2 * 1000000000LL);
  EXPECT_DOUBLE_EQ(lifetime, 10.0);
  // Unknown family: NaN.
  EXPECT_TRUE(std::isnan(store.histogramQuantile("nope_ms", 0.5, 0, 1)));
}

TEST(Tsdb, ScraperRunsOnInjectedClockAndFiresHook) {
  TimeSeriesStore store;
  Registry r;
  Counter& c = r.counter("scr_total", "h");
  std::int64_t now = 1000;
  std::vector<std::int64_t> hookTimes;
  Scraper::Options opts;
  opts.clock = [&now] { return now; };
  opts.afterScrape = [&hookTimes](std::int64_t t) { hookTimes.push_back(t); };
  Scraper scraper(&store, [&r] { return r.snapshot(); }, opts);

  c.inc(5);
  scraper.scrapeOnce();
  now = 2000;
  c.inc(5);
  scraper.scrapeOnce();

  EXPECT_EQ(scraper.scrapes(), 2u);
  ASSERT_EQ(hookTimes.size(), 2u);
  EXPECT_EQ(hookTimes[0], 1000);
  EXPECT_EQ(hookTimes[1], 2000);
  const auto samples = store.range("scr_total", 0, 5000);
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_DOUBLE_EQ(samples[0].value, 5.0);
  EXPECT_DOUBLE_EQ(samples[1].value, 10.0);
}

TEST(Tsdb, BackgroundScraperStartStopIsClean) {
  TimeSeriesStore store;
  Registry r;
  r.counter("bg_total", "h").inc();
  Scraper::Options opts;
  opts.intervalMs = 1;
  Scraper scraper(&store, [&r] { return r.snapshot(); }, opts);
  scraper.start();
  while (scraper.scrapes() < 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  scraper.stop();
  const std::uint64_t after = scraper.scrapes();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(scraper.scrapes(), after);  // no scrapes past stop()
  EXPECT_GE(store
                .range("bg_total", 0,
                       std::numeric_limits<std::int64_t>::max())
                .size(),
            3u);
}

// ---------------------------------------------------------------------------
// SLO burn-rate engine

TEST(Slo, ParseSpecGrammar) {
  std::string err;
  auto lat = ep::obs::parseSloSpec("latency:0.5:0.99", &err);
  ASSERT_TRUE(lat.has_value());
  EXPECT_EQ(lat->kind, SloSpec::Kind::LatencyQuantile);
  EXPECT_EQ(lat->name, "latency");
  EXPECT_DOUBLE_EQ(lat->latencyThresholdMs, 0.5);
  EXPECT_DOUBLE_EQ(lat->objective, 0.99);

  auto en = ep::obs::parseSloSpec("energy:2.5", &err);
  ASSERT_TRUE(en.has_value());
  EXPECT_EQ(en->kind, SloSpec::Kind::EnergyPerRequest);
  EXPECT_EQ(en->name, "energy");
  EXPECT_DOUBLE_EQ(en->joulesPerRequestBudget, 2.5);

  auto named = ep::obs::parseSloSpec("p99=latency:1.5:0.999", &err);
  ASSERT_TRUE(named.has_value());
  EXPECT_EQ(named->name, "p99");

  for (const char* bad :
       {"", "latency", "latency:0.5", "latency:-1:0.9", "latency:1:1.5",
        "energy:0", "energy:-2", "watts:5", "=latency:1:0.9",
        "latency:abc:0.9"}) {
    EXPECT_FALSE(ep::obs::parseSloSpec(bad, &err).has_value()) << bad;
  }
}

// Drive synthetic scrapes through a tsdb and watch a latency SLO raise
// on sustained badness and clear — with hysteresis — on recovery.
TEST(Slo, LatencyBurnRaisesAndClearsWithHysteresis) {
  TimeSeriesStore store;
  Registry r;
  Histogram& h = r.histogram("slo_ms", "Latency", {1.0, 10.0});
  constexpr std::int64_t kSec = 1000000000;

  SloSpec spec;
  spec.kind = SloSpec::Kind::LatencyQuantile;
  spec.name = "lat";
  spec.family = "slo_ms";
  spec.latencyThresholdMs = 1.0;
  spec.objective = 0.9;  // budget: 10% slow
  spec.windows = {{10000, 2000, 5.0}};  // 10s long, 2s short, 5x burn
  SloEngine engine(&store, {spec});

  auto scrape = [&](int sec) { store.ingest(r.snapshot(), sec * kSec); };

  scrape(0);
  // 5 seconds of fully-bad traffic: every request slower than 1ms.
  for (int sec = 1; sec <= 5; ++sec) {
    for (int i = 0; i < 10; ++i) h.observe(5.0);
    scrape(sec);
    engine.evaluate(sec * kSec);
  }
  auto status = engine.status();
  ASSERT_EQ(status.size(), 1u);
  EXPECT_TRUE(status[0].burning);
  // All-bad traffic at a 10% budget burns at 10x.
  EXPECT_NEAR(status[0].worstBurn, 10.0, 1e-6);
  EXPECT_EQ(status[0].raisedCount, 1u);
  EXPECT_EQ(engine.activeAlerts(), 1u);
  const auto raised = engine.events();
  ASSERT_FALSE(raised.empty());
  EXPECT_STREQ(raised.back().kind, "slo_burn");
  EXPECT_STREQ(raised.back().scope, "lat");

  // Recovery: all-good traffic.  The alert must persist while the long
  // window still carries the damage (hysteresis), then clear.
  bool sawBurningDuringRecovery = false;
  for (int sec = 6; sec <= 20; ++sec) {
    for (int i = 0; i < 10; ++i) h.observe(0.5);
    scrape(sec);
    engine.evaluate(sec * kSec);
    if (sec <= 7) {
      sawBurningDuringRecovery =
          sawBurningDuringRecovery || engine.status()[0].burning;
    }
  }
  EXPECT_TRUE(sawBurningDuringRecovery);
  status = engine.status();
  EXPECT_FALSE(status[0].burning);
  EXPECT_EQ(engine.activeAlerts(), 0u);
  const auto events = engine.events();
  ASSERT_EQ(events.size(), 2u);  // one burn, then one clear
  EXPECT_STREQ(events.front().kind, "slo_burn");
  EXPECT_STREQ(events.back().kind, "slo_cleared");
  EXPECT_GT(events.back().timeNs, events.front().timeNs);
  // Re-evaluating in the clear state raises nothing new.
  engine.evaluate(21 * kSec);
  EXPECT_EQ(engine.status()[0].raisedCount, 1u);
}

TEST(Slo, EnergyBudgetBurnFromLedgerCounters) {
  TimeSeriesStore store;
  Registry r;
  DoubleCounter& joules = r.doubleCounter("slo_j", "Joules");
  Counter& reqs = r.counter("slo_req_total", "Requests");
  constexpr std::int64_t kSec = 1000000000;

  SloSpec spec;
  spec.kind = SloSpec::Kind::EnergyPerRequest;
  spec.name = "energy";
  spec.energyFamily = "slo_j";
  spec.requestsFamily = "slo_req_total";
  spec.joulesPerRequestBudget = 1.0;
  spec.windows = {{10000, 2000, 3.0}};
  SloEngine engine(&store, {spec});

  store.ingest(r.snapshot(), 0);
  // 5 J per request against a 1 J budget: burn 5x over every window.
  for (int sec = 1; sec <= 5; ++sec) {
    joules.add(50.0);
    reqs.inc(10);
    store.ingest(r.snapshot(), sec * kSec);
    engine.evaluate(sec * kSec);
  }
  const auto status = engine.status();
  ASSERT_EQ(status.size(), 1u);
  EXPECT_TRUE(status[0].burning);
  EXPECT_NEAR(status[0].worstBurn, 5.0, 1e-6);
  EXPECT_EQ(status[0].kind, SloSpec::Kind::EnergyPerRequest);
  ASSERT_FALSE(engine.events().empty());
  EXPECT_STREQ(engine.events().back().kind, "slo_burn");
}

TEST(Slo, NoHistoryMeansNoBurn) {
  TimeSeriesStore store;
  SloSpec spec;  // defaults target the broker's families; store is empty
  SloEngine engine(&store, {spec});
  engine.evaluate(1000000000);
  const auto status = engine.status();
  ASSERT_EQ(status.size(), 1u);
  EXPECT_FALSE(status[0].burning);
  EXPECT_DOUBLE_EQ(status[0].worstBurn, 0.0);
  EXPECT_EQ(engine.activeAlerts(), 0u);
  EXPECT_TRUE(engine.events().empty());
}

// ---------------------------------------------------------------------------
// Tracer

// Restores the global tracer to its quiet default on scope exit so
// span tests cannot leak state into each other.
struct GlobalTracerGuard {
  GlobalTracerGuard() {
    Tracer::global().setEnabled(false);
    Tracer::global().clear();
  }
  ~GlobalTracerGuard() {
    Tracer::global().setEnabled(false);
    Tracer::global().clear();
  }
};

TEST(Trace, DisabledSpansRecordNothing) {
  GlobalTracerGuard guard;
  {
    Span a("test/a");
    Span b("test/b");
  }
  EXPECT_EQ(Tracer::global().recordedCount(), 0u);
  EXPECT_EQ(Tracer::global().droppedCount(), 0u);
}

TEST(Trace, NestedSpansCarryDepthAndContainment) {
  GlobalTracerGuard guard;
  Tracer::global().setEnabled(true);
  {
    Span outer("test/outer");
    { Span inner("test/inner"); }
  }
  Tracer::global().setEnabled(false);

  const std::vector<TraceEvent> events = Tracer::global().snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Inner closes first, so it is recorded first.
  const TraceEvent& inner = events[0];
  const TraceEvent& outer = events[1];
  EXPECT_STREQ(inner.name, "test/inner");
  EXPECT_STREQ(outer.name, "test/outer");
  EXPECT_EQ(outer.depth, 0u);
  EXPECT_EQ(inner.depth, 1u);
  EXPECT_EQ(outer.tid, inner.tid);
  // The inner interval nests inside the outer one.
  EXPECT_GE(inner.startNs, outer.startNs);
  EXPECT_LE(inner.startNs + inner.durNs, outer.startNs + outer.durNs);
}

TEST(Trace, ThreadsGetDistinctTids) {
  GlobalTracerGuard guard;
  Tracer::global().setEnabled(true);
  std::thread t1([] { Span s("test/t1"); });
  std::thread t2([] { Span s("test/t2"); });
  t1.join();
  t2.join();
  Tracer::global().setEnabled(false);

  const auto events = Tracer::global().snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].tid, events[1].tid);
}

TEST(Trace, RingOverflowKeepsNewestAndCountsDropped) {
  Tracer t(4);
  auto& buf = t.threadBuffer();
  for (std::uint64_t i = 1; i <= 6; ++i) {
    buf.push(TraceEvent{"test/ring", i * 100, 10, buf.tid, 0});
  }
  EXPECT_EQ(t.recordedCount(), 4u);
  EXPECT_EQ(t.droppedCount(), 2u);
  std::set<std::uint64_t> starts;
  for (const auto& e : t.snapshot()) starts.insert(e.startNs);
  EXPECT_EQ(starts, (std::set<std::uint64_t>{300, 400, 500, 600}));

  t.clear();
  EXPECT_EQ(t.recordedCount(), 0u);
  EXPECT_EQ(t.droppedCount(), 0u);
}

// Validate the exported JSON against the Chrome trace-event schema
// using the in-tree flat-JSON wire parser (events are emitted flat for
// exactly this reason — no external JSON dependency needed).
TEST(Trace, ChromeExportMatchesTraceEventSchema) {
  Tracer t(16);
  auto& buf = t.threadBuffer();
  buf.push(TraceEvent{"phase/alpha", 1000, 500, buf.tid, 0});
  buf.push(TraceEvent{"with\"quote\\slash", 2000, 250, buf.tid, 1});

  const std::string json = t.exportChromeTrace();
  ASSERT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0),
            0u);

  // Split into lines; every line after the header that starts with '{'
  // is one flat event object (strip the trailing comma).
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < json.size()) {
    const std::size_t nl = json.find('\n', pos);
    if (nl == std::string::npos) break;
    lines.push_back(json.substr(pos, nl - pos));
    pos = nl + 1;
  }
  ASSERT_GE(lines.size(), 3u);
  EXPECT_EQ(lines.back(), "]}");

  std::size_t parsed = 0;
  for (std::size_t i = 1; i + 1 < lines.size(); ++i) {
    std::string line = lines[i];
    if (!line.empty() && line.back() == ',') line.pop_back();
    std::string error;
    const auto obj = ep::serve::wire::parseObject(line, &error);
    ASSERT_TRUE(obj) << "line " << i << ": " << error << " in " << line;
    ++parsed;

    using Kind = ep::serve::wire::Value::Kind;
    ASSERT_TRUE(obj->count("name"));
    EXPECT_EQ(obj->at("name").kind, Kind::String);
    ASSERT_TRUE(obj->count("ph"));
    EXPECT_EQ(obj->at("ph").string, "X");
    ASSERT_TRUE(obj->count("cat"));
    ASSERT_TRUE(obj->count("ts"));
    EXPECT_EQ(obj->at("ts").kind, Kind::Number);
    EXPECT_GE(obj->at("ts").number, 0.0);
    ASSERT_TRUE(obj->count("dur"));
    EXPECT_EQ(obj->at("dur").kind, Kind::Number);
    EXPECT_GE(obj->at("dur").number, 0.0);
    ASSERT_TRUE(obj->count("pid"));
    EXPECT_EQ(obj->at("pid").number, 1.0);
    ASSERT_TRUE(obj->count("tid"));
    EXPECT_GE(obj->at("tid").number, 1.0);
  }
  EXPECT_EQ(parsed, 2u);

  // ts/dur are microseconds.
  EXPECT_NE(json.find("\"ts\":1.000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":0.500"), std::string::npos);
}

TEST(Trace, ConcurrentRecordingAndExportIsSafe) {
  GlobalTracerGuard guard;
  Tracer& t = Tracer::global();
  t.setEnabled(true);
  constexpr int kRecorders = 4;
  constexpr int kSpansEach = 2000;
  std::atomic<int> done{0};
  std::vector<std::thread> recorders;
  for (int i = 0; i < kRecorders; ++i) {
    recorders.emplace_back([&] {
      for (int n = 0; n < kSpansEach; ++n) {
        Span outer("test/conc_outer");
        Span inner("test/conc_inner");
      }
      done.fetch_add(1);
    });
  }
  // Export concurrently with the recording threads until they finish.
  while (done.load() < kRecorders) {
    const std::string json = t.exportChromeTrace();
    EXPECT_FALSE(json.empty());
    (void)t.recordedCount();
    (void)t.droppedCount();
  }
  for (auto& r : recorders) r.join();
  t.setEnabled(false);
  EXPECT_EQ(t.recordedCount() + t.droppedCount(),
            2ull * kRecorders * kSpansEach);
}

// ---------------------------------------------------------------------------
// TraceContext: request identity across spans, scopes, and pool threads

TEST(TraceContext, TraceIdFromStringParsesHexAndHashesTheRest) {
  EXPECT_EQ(ep::obs::traceIdFromString(""), 0u);
  EXPECT_EQ(ep::obs::traceIdFromString("deadbeef"), 0xdeadbeefull);
  EXPECT_EQ(ep::obs::traceIdFromString("DEADBEEF"), 0xdeadbeefull);
  EXPECT_EQ(ep::obs::traceIdFromString("ffffffffffffffff"), ~0ull);
  // Non-hex strings hash to a stable nonzero id.
  const std::uint64_t h = ep::obs::traceIdFromString("request-42");
  EXPECT_NE(h, 0u);
  EXPECT_EQ(h, ep::obs::traceIdFromString("request-42"));
  EXPECT_NE(h, ep::obs::traceIdFromString("request-43"));
  // Hex ids round-trip through the export form.
  EXPECT_EQ(ep::obs::formatTraceId(0xdeadbeefull), "deadbeef");
}

TEST(TraceContext, ScopedContextInstallsAndRestores) {
  EXPECT_EQ(ep::obs::currentContext().traceId, 0u);
  {
    ScopedTraceContext outer(TraceContext{0xAAu, 1u});
    EXPECT_EQ(ep::obs::currentContext().traceId, 0xAAu);
    {
      ScopedTraceContext inner(TraceContext{0xBBu, 2u});
      EXPECT_EQ(ep::obs::currentContext().traceId, 0xBBu);
      EXPECT_EQ(ep::obs::currentContext().spanId, 2u);
    }
    EXPECT_EQ(ep::obs::currentContext().traceId, 0xAAu);
    EXPECT_EQ(ep::obs::currentContext().spanId, 1u);
  }
  EXPECT_EQ(ep::obs::currentContext().traceId, 0u);
}

TEST(TraceContext, SpansRecordTraceIdAndParentChain) {
  GlobalTracerGuard guard;
  Tracer::global().setEnabled(true);
  {
    ScopedTraceContext scope(TraceContext{0xFACEu, 0u});
    Span outer("ctx/outer");
    { Span inner("ctx/inner"); }
  }
  Tracer::global().setEnabled(false);

  const auto events = Tracer::global().snapshot();
  ASSERT_EQ(events.size(), 2u);
  const TraceEvent& inner = events[0];
  const TraceEvent& outer = events[1];
  EXPECT_EQ(outer.traceId, 0xFACEu);
  EXPECT_EQ(inner.traceId, 0xFACEu);
  EXPECT_NE(outer.spanId, 0u);
  EXPECT_EQ(outer.parentSpanId, 0u);
  EXPECT_EQ(inner.parentSpanId, outer.spanId);
  EXPECT_NE(inner.spanId, outer.spanId);
}

TEST(TraceContext, DisabledTracingLeavesContextUntouched) {
  GlobalTracerGuard guard;
  ScopedTraceContext scope(TraceContext{0x11u, 0u});
  {
    Span s("ctx/disabled");
    EXPECT_EQ(ep::obs::currentContext().spanId, 0u);
    EXPECT_EQ(s.spanId(), 0u);
  }
  EXPECT_EQ(Tracer::global().recordedCount(), 0u);
}

TEST(TraceContext, ThreadPoolPropagatesSubmitterContext) {
  GlobalTracerGuard guard;
  Tracer::global().setEnabled(true);
  ep::ThreadPool pool(2);
  std::uint64_t rootSpanId = 0;
  {
    ScopedTraceContext scope(TraceContext{0xC0FFEEu, 0u});
    Span root("ctx/root");
    rootSpanId = root.spanId();
    for (int i = 0; i < 8; ++i) {
      pool.submit([] { Span child("ctx/pool_child"); });
    }
    pool.wait();
  }
  Tracer::global().setEnabled(false);

  std::size_t children = 0;
  std::set<std::uint32_t> childTids;
  std::uint32_t rootTid = 0;
  for (const auto& e : Tracer::global().snapshot()) {
    if (std::string(e.name) == "ctx/pool_child") {
      ++children;
      childTids.insert(e.tid);
      // Every pool child links to the submitting root span and carries
      // the request trace id across the thread hop.
      EXPECT_EQ(e.traceId, 0xC0FFEEu);
      EXPECT_EQ(e.parentSpanId, rootSpanId);
    } else if (std::string(e.name) == "ctx/root") {
      rootTid = e.tid;
    }
  }
  EXPECT_EQ(children, 8u);
  // With 2 workers and 8 tasks at least one child ran off the
  // submitter's thread — the propagation is genuinely cross-thread.
  EXPECT_TRUE(childTids.size() > 1 || childTids.count(rootTid) == 0);
}

TEST(TraceContext, ParallelForTasksInheritContext) {
  GlobalTracerGuard guard;
  Tracer::global().setEnabled(true);
  ep::ThreadPool pool(3);
  {
    ScopedTraceContext scope(TraceContext{0xABCu, 0u});
    Span root("ctx/pfroot");
    pool.parallelFor(0, 32, [](int) { Span s("ctx/pf_child"); });
  }
  Tracer::global().setEnabled(false);
  std::size_t withTrace = 0;
  std::size_t children = 0;
  for (const auto& e : Tracer::global().snapshot()) {
    if (std::string(e.name) == "ctx/pf_child") {
      ++children;
      if (e.traceId == 0xABCu) ++withTrace;
    }
  }
  EXPECT_EQ(children, 32u);
  EXPECT_EQ(withTrace, children);
}

// Cross-thread edges surface as "s"/"f" flow pairs in the export.
TEST(TraceContext, ExportEmitsFlowPairsForCrossThreadParents) {
  GlobalTracerGuard guard;
  Tracer::global().setEnabled(true);
  ep::ThreadPool pool(2);
  {
    ScopedTraceContext scope(TraceContext{0xF10u, 0u});
    Span root("ctx/flow_root");
    for (int i = 0; i < 4; ++i) {
      pool.submit([] { Span child("ctx/flow_child"); });
    }
    pool.wait();
  }
  Tracer::global().setEnabled(false);

  const std::string json = Tracer::global().exportChromeTrace();
  std::size_t flowStarts = 0;
  std::size_t flowEnds = 0;
  std::size_t pos = 0;
  while ((pos = json.find("\"ph\":\"s\"", pos)) != std::string::npos) {
    ++flowStarts;
    pos += 8;
  }
  pos = 0;
  while ((pos = json.find("\"ph\":\"f\"", pos)) != std::string::npos) {
    ++flowEnds;
    pos += 8;
  }
  EXPECT_EQ(flowStarts, flowEnds);
  EXPECT_GE(flowStarts, 1u);
}

// Satellite: fill a small ring past capacity, export, and require the
// output to still be schema-valid with the oldest events dropped and
// no torn records.
TEST(Trace, WraparoundExportStaysSchemaValid) {
  Tracer t(8);
  auto& buf = t.threadBuffer();
  // 20 events through an 8-slot ring: 12 dropped, newest 8 retained.
  for (std::uint64_t i = 1; i <= 20; ++i) {
    buf.push(TraceEvent{"ring/evt", 1000 * i, 100, buf.tid,
                        static_cast<std::uint32_t>(i % 3), 0xAB, i, i - 1});
  }
  EXPECT_EQ(t.recordedCount(), 8u);
  EXPECT_EQ(t.droppedCount(), 12u);

  const std::string json = t.exportChromeTrace();
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < json.size()) {
    const std::size_t nl = json.find('\n', pos);
    if (nl == std::string::npos) break;
    lines.push_back(json.substr(pos, nl - pos));
    pos = nl + 1;
  }
  std::set<std::uint64_t> spans;
  for (std::size_t i = 1; i + 1 < lines.size(); ++i) {
    std::string line = lines[i];
    if (!line.empty() && line.back() == ',') line.pop_back();
    std::string error;
    const auto obj = ep::serve::wire::parseObject(line, &error);
    ASSERT_TRUE(obj) << error << " in " << line;
    if (obj->at("ph").string != "X") continue;
    // Untorn: every surviving record keeps its own coherent identity
    // (span i was pushed with start i*1000 and parent i-1).
    const auto span = static_cast<std::uint64_t>(obj->at("span").number);
    // startNs was pushed as span*1000, so ts (microseconds) == span.
    EXPECT_EQ(obj->at("ts").number, static_cast<double>(span));
    EXPECT_EQ(obj->at("parent").number, static_cast<double>(span - 1));
    EXPECT_EQ(obj->at("trace").string, "ab");
    spans.insert(span);
  }
  // Exactly the newest 8, oldest dropped.
  EXPECT_EQ(spans, (std::set<std::uint64_t>{13, 14, 15, 16, 17, 18, 19, 20}));
}

// ---------------------------------------------------------------------------
// FlightRecorder: the watchdog's lock-free event ring

FlightEvent makeFlight(double value, const char* kind, const char* scope,
                       const char* msg) {
  FlightEvent e;
  e.timeNs = 42;
  e.traceId = 0xFEEDu;
  e.value = value;
  e.threshold = 25.0;
  ep::obs::setFlightField(e.kind, kind);
  ep::obs::setFlightField(e.scope, scope);
  ep::obs::setFlightField(e.message, msg);
  return e;
}

TEST(FlightRecorder, RecordsAndSnapshotsInOrder) {
  FlightRecorder rec(8);
  EXPECT_EQ(rec.capacity(), 8u);
  rec.record(makeFlight(58.0, "constant_component", "P100", "58 W step"));
  rec.record(makeFlight(0.2, "error_budget", "K40c", "burning"));
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].seq, 1u);
  EXPECT_EQ(events[1].seq, 2u);
  EXPECT_STREQ(events[0].kind, "constant_component");
  EXPECT_STREQ(events[0].scope, "P100");
  EXPECT_DOUBLE_EQ(events[0].value, 58.0);
  EXPECT_EQ(events[0].traceId, 0xFEEDu);
  EXPECT_STREQ(events[1].kind, "error_budget");
  // sinceSeq drains incrementally.
  const auto tail = rec.snapshot(1);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].seq, 2u);
  EXPECT_TRUE(rec.snapshot(2).empty());
}

TEST(FlightRecorder, CapacityRoundsUpAndWrapKeepsNewest) {
  FlightRecorder rec(5);  // rounds to 8
  EXPECT_EQ(rec.capacity(), 8u);
  for (int i = 1; i <= 20; ++i) {
    rec.record(makeFlight(i, "kind", "scope", "m"));
  }
  EXPECT_EQ(rec.recorded(), 20u);
  EXPECT_EQ(rec.dropped(), 0u);  // lapping is overwrite, not drop
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 13 + i);
    EXPECT_DOUBLE_EQ(events[i].value, static_cast<double>(13 + i));
  }
}

TEST(FlightRecorder, FieldSettingTruncatesSafely) {
  FlightEvent e;
  const std::string longMsg(300, 'x');
  ep::obs::setFlightField(e.message, longMsg.c_str());
  EXPECT_EQ(std::string(e.message).size(), sizeof e.message - 1);
  ep::obs::setFlightField(e.kind, "");
  EXPECT_STREQ(e.kind, "");
  ep::obs::setFlightField(e.kind, nullptr);
  EXPECT_STREQ(e.kind, "");
}

TEST(FlightRecorder, ConcurrentRecordAndSnapshotNeverTears) {
  FlightRecorder rec(16);
  constexpr int kWriters = 4;
  constexpr int kEach = 3000;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};
  std::thread reader([&] {
    while (!stop.load()) {
      std::uint64_t lastSeq = 0;
      for (const auto& e : rec.snapshot()) {
        // Every writer stamps a payload whose message is derived from
        // its value; a mismatch means a torn read escaped the
        // claim/publish validation.
        char expect[32];
        std::snprintf(expect, sizeof expect, "msg-%llu",
                      static_cast<unsigned long long>(e.value));
        if (std::string(e.message) != expect) torn.fetch_add(1);
        if (e.seq <= lastSeq) torn.fetch_add(1);  // snapshot seq order
        lastSeq = e.seq;
      }
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&rec, w] {
      for (int i = 0; i < kEach; ++i) {
        const std::uint64_t payload =
            static_cast<std::uint64_t>(w) * 100000u + static_cast<unsigned>(i);
        FlightEvent e;
        e.value = static_cast<double>(payload);
        char msg[32];
        std::snprintf(msg, sizeof msg, "msg-%llu",
                      static_cast<unsigned long long>(payload));
        ep::obs::setFlightField(e.message, msg);
        rec.record(e);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(torn.load(), 0u);
  // Every record attempt is counted exactly once, as recorded or dropped.
  EXPECT_EQ(rec.recorded(),
            static_cast<std::uint64_t>(kWriters) * kEach);
  EXPECT_LE(rec.snapshot().size() + rec.dropped(),
            16u + rec.dropped());
}

TEST(FlightRecorder, EncodedLinesParseWithWireParser) {
  FlightRecorder rec(8);
  rec.record(makeFlight(58.5, "constant_component", "Nvidia P100",
                        "a \"quoted\" message\nwith ctrl chars"));
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 1u);
  const std::string line = ep::obs::encodeFlightEventLine(events[0]);
  std::string error;
  const auto obj = ep::serve::wire::parseObject(line, &error);
  ASSERT_TRUE(obj) << error << " in " << line;
  EXPECT_EQ(obj->at("seq").number, 1.0);
  EXPECT_EQ(obj->at("kind").string, "constant_component");
  EXPECT_EQ(obj->at("scope").string, "Nvidia P100");
  EXPECT_DOUBLE_EQ(obj->at("value").number, 58.5);
  EXPECT_DOUBLE_EQ(obj->at("threshold").number, 25.0);
  EXPECT_EQ(obj->at("trace").string, "feed");
  // Quotes escape; control characters are stripped so the body stays a
  // single line-delimited record.
  EXPECT_EQ(obj->at("message").string, "a \"quoted\" messagewith ctrl chars");
}

// ---------------------------------------------------------------------------
// Study-pipeline integration: a traced (meter-free) workload produces
// the expected phase spans and bumps the global workload counter.

TEST(Instrumentation, StudyRunEmitsPhaseSpansAndCounters) {
  GlobalTracerGuard guard;
  Counter& workloads = ep::obs::Registry::global().counter(
      "ep_study_workloads_total", "GPU study workloads evaluated");
  const std::uint64_t before = workloads.value();

  Tracer::global().setEnabled(true);
  ep::apps::GpuMatMulOptions fast;
  fast.useMeter = false;
  ep::apps::GpuMatMulApp app(ep::hw::GpuModel(ep::hw::nvidiaP100Pcie()),
                             fast);
  ep::core::GpuEpStudy study(app);
  ep::Rng rng(7);
  const auto result = study.runWorkload(10240, rng);
  Tracer::global().setEnabled(false);
  EXPECT_FALSE(result.data.empty());
  EXPECT_EQ(workloads.value(), before + 1);

  std::set<std::string> names;
  std::uint64_t workloadStart = 0;
  std::uint64_t workloadEnd = 0;
  std::uint64_t insideNs = 0;
  for (const auto& e : Tracer::global().snapshot()) {
    names.insert(e.name);
    if (std::string(e.name) == "study/workload") {
      workloadStart = e.startNs;
      workloadEnd = e.startNs + e.durNs;
    }
    if (std::string(e.name) == "study/app_eval" ||
        std::string(e.name) == "study/front_construction") {
      insideNs += e.durNs;
    }
  }
  EXPECT_TRUE(names.count("study/workload"));
  EXPECT_TRUE(names.count("study/app_eval"));
  EXPECT_TRUE(names.count("study/front_construction"));
  // The phase spans live inside the workload span and cover most of it:
  // phase attribution, not just a top-level total.
  ASSERT_GT(workloadEnd, workloadStart);
  EXPECT_LE(insideNs, workloadEnd - workloadStart);
  EXPECT_GE(static_cast<double>(insideNs),
            0.5 * static_cast<double>(workloadEnd - workloadStart));
}

// ---------------------------------------------------------------------------
// epprof: continuous profiler
//
// Profiler::global() is process state (signal dispositions, timers),
// so every test here arms, clears, and disarms around its own window.

TEST(Profiler, EnergyRecordsFoldOntoStacksAndTraceSlices) {
  Profiler& prof = Profiler::global();
  ProfilerOptions opts;
  opts.cpuSampling = false;  // deterministic: no signals, no timers
  ASSERT_TRUE(prof.start(opts));
  prof.clear();
  {
    ProfileThreadLabel root("test/main");
    {
      ProfileFrame kernel("test/kernel_a");
      ScopedTraceContext scope(TraceContext{0xABu, 0u});
      prof.recordEnergySample(2.0, ep::obs::currentContext().traceId);
      prof.recordEnergySample(1.5, ep::obs::currentContext().traceId);
    }
    {
      ProfileFrame kernel("test/kernel_b");
      prof.recordEnergySample(0.5, 0);  // untraced window
    }
    // Faulted windows (negative / NaN) must not poison the profile.
    prof.recordEnergySample(-1.0, 0);
    prof.recordEnergySample(std::numeric_limits<double>::quiet_NaN(), 0);
  }
  prof.stop();

  const ProfileSnapshot snap = prof.snapshot(ProfileKind::Energy);
  EXPECT_EQ(snap.samples, 3u);
  EXPECT_DOUBLE_EQ(snap.totalWeight, 4.0);
  EXPECT_EQ(snap.samplePeriodUs, 0u);  // energy profiles carry no period
  ASSERT_EQ(snap.entries.size(), 2u);
  // Weight-descending, root-first stacks.
  EXPECT_EQ(snap.entries[0].stack,
            (std::vector<std::string>{"test/main", "test/kernel_a"}));
  EXPECT_EQ(snap.entries[0].samples, 2u);
  EXPECT_DOUBLE_EQ(snap.entries[0].weight, 3.5);
  EXPECT_EQ(snap.entries[1].stack,
            (std::vector<std::string>{"test/main", "test/kernel_b"}));
  EXPECT_DOUBLE_EQ(snap.entries[1].weight, 0.5);
  // Per-trace slices: the traced request owns 3.5 J, slice 0 the rest.
  ASSERT_EQ(snap.traces.size(), 2u);
  EXPECT_EQ(snap.traces[0].traceId, 0xABu);
  EXPECT_DOUBLE_EQ(snap.traces[0].weight, 3.5);
  EXPECT_EQ(snap.traces[0].samples, 2u);
  EXPECT_EQ(snap.traces[1].traceId, 0u);
  EXPECT_DOUBLE_EQ(snap.traces[1].weight, 0.5);
  prof.clear();
}

TEST(Profiler, DisarmedRecordingIsANoOpAndSpansPushNoFrames) {
  Profiler& prof = Profiler::global();
  ASSERT_FALSE(prof.running());
  prof.clear();
  {
    ProfileFrame kernel("test/never");  // disarmed: not pushed
    prof.recordEnergySample(7.0, 0);    // disarmed: dropped
  }
  const ProfileSnapshot snap = prof.snapshot(ProfileKind::Energy);
  EXPECT_EQ(snap.samples, 0u);
  EXPECT_DOUBLE_EQ(snap.totalWeight, 0.0);
  EXPECT_TRUE(snap.entries.empty());
}

// The TSan signal-safety smoke the issue pins: arm real SIGPROF
// sampling, hammer Span push/pop from several busy threads, and
// require samples to aggregate without a crash, race report, or
// unbounded drop count.
TEST(Profiler, CpuSamplingSmokeAcrossBusyThreads) {
  Profiler& prof = Profiler::global();
  ProfilerOptions opts;
  opts.samplePeriodUs = 1000;  // 1 kHz of per-thread CPU time: fast smoke
  opts.aggregateIntervalMs = 5;
  ASSERT_TRUE(prof.start(opts));
  EXPECT_FALSE(prof.start(opts));  // second start is a rejected no-op
  prof.clear();

  std::atomic<bool> stopFlag{false};
  std::atomic<std::uint64_t> spins{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&stopFlag, &spins] {
      ProfileThreadLabel root("test/worker");
      Profiler::global().registerCurrentThread();
      double acc = 1.0;
      while (!stopFlag.load(std::memory_order_relaxed)) {
        Span burn("test/burn");
        for (int i = 0; i < 4096; ++i) {
          acc += std::sqrt(acc + static_cast<double>(i));
        }
        spins.fetch_add(acc > 0.0 ? 1 : 0, std::memory_order_relaxed);
      }
    });
  }

  // CPU-time timers only fire while threads burn cycles, so a busy
  // quartet at 1 kHz reaches 64 samples almost immediately; the
  // deadline is generous for sanitizer builds.
  ProfileSnapshot snap;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  do {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    snap = prof.snapshot(ProfileKind::Cpu);
  } while (snap.samples < 64 &&
           std::chrono::steady_clock::now() < deadline);
  stopFlag.store(true);
  for (std::thread& w : workers) w.join();
  prof.stop();
  EXPECT_FALSE(prof.running());

  snap = prof.snapshot(ProfileKind::Cpu);
  EXPECT_GE(snap.samples, 64u) << "no SIGPROF samples after 30 s of burn";
  EXPECT_EQ(snap.samplePeriodUs, 1000u);
  // Every CPU sample weighs exactly one period.
  EXPECT_NEAR(snap.totalWeight, static_cast<double>(snap.samples) * 1e-3,
              1e-9);
  ASSERT_FALSE(snap.entries.empty());
  // The worker root label must anchor sampled stacks.
  std::uint64_t rooted = 0;
  for (const ProfileEntry& e : snap.entries) {
    ASSERT_FALSE(e.stack.empty());
    if (e.stack.front() == "test/worker") rooted += e.samples;
  }
  EXPECT_GT(rooted, 0u);
  prof.clear();

  // Stop/start cycling: a fresh window arms cleanly after a full stop.
  ASSERT_TRUE(prof.start(opts));
  prof.stop();
}

// The pinned reconciliation criterion: an energy-weighted profile of a
// fault-free metered study sweep must sum to the request ledger's
// attributed joules within 5 %, with the DGEMM kernel frame owning the
// profile (what the ci.sh drill asserts over the wire).
TEST(Profiler, EnergyProfileReconcilesWithStudyLedger) {
  Profiler& prof = Profiler::global();
  ProfilerOptions opts;
  opts.cpuSampling = false;  // energy-only: bit-deterministic study
  ASSERT_TRUE(prof.start(opts));
  prof.clear();

  ep::apps::GpuMatMulOptions mopts;
  mopts.totalProducts = 4;
  mopts.bsMax = 8;
  mopts.useMeter = true;
  mopts.meter.sampleInterval = ep::Seconds{0.02};
  mopts.meter.randomPhase = false;
  mopts.measurement.minRepetitions = 3;
  mopts.measurement.maxRepetitions = 12;
  ep::apps::GpuMatMulApp app(ep::hw::GpuModel(ep::hw::nvidiaK40c()), mopts);
  ep::core::GpuEpStudy study(app);
  ep::Rng rng(17);
  const auto result = study.runWorkload(2048, rng);
  prof.stop();

  ASSERT_FALSE(result.data.empty());
  const auto ledger = ep::core::attributeEnergy(result);
  ASSERT_GT(ledger.joules, 0.0);

  const ProfileSnapshot snap = prof.snapshot(ProfileKind::Energy);
  // One energy sample per finished measurement protocol = per config.
  EXPECT_EQ(snap.samples, result.data.size());
  EXPECT_NEAR(snap.totalWeight, ledger.joules, 0.05 * ledger.joules);
  // The kernel marker frame carries (inclusively) the whole profile.
  const auto top = ep::obs::topFrames(snap, 0);
  ASSERT_FALSE(top.empty());
  bool sawKernel = false;
  for (const auto& f : top) {
    if (f.frame == "kernel/dgemm") {
      sawKernel = true;
      EXPECT_GT(f.share, 0.95) << "kernel frame no longer dominates";
    }
  }
  EXPECT_TRUE(sawKernel) << "kernel/dgemm missing from the energy profile";
  prof.clear();
}

// --- export schemas ---

ProfileSnapshot syntheticEnergySnapshot() {
  ProfileSnapshot snap;
  snap.kind = ProfileKind::Energy;
  snap.samples = 4;
  ProfileEntry a;
  a.stack = {"serve/main", "kernel/dgemm"};
  a.samples = 3;
  a.weight = 2.5;
  ProfileEntry b;
  b.stack = {"serve/main", "\"quoted\\frame\""};
  b.samples = 1;
  b.weight = 0.5;
  snap.entries = {a, b};
  snap.totalWeight = 3.0;
  TraceSlice t;
  t.traceId = 0xFEEDu;
  t.samples = 3;
  t.weight = 2.5;
  snap.traces = {t};
  return snap;
}

TEST(ProfileExport, CollapsedStacksRoundTripCountsAndSkipZeroes) {
  ProfileSnapshot snap = syntheticEnergySnapshot();
  snap.entries[1].weight = 0.0;  // zero µJ: line must be skipped
  const std::string text = ep::obs::renderCollapsed(snap);
  // Energy counts are rounded microjoules; 2.5 J = 2.5e6 µJ.
  EXPECT_EQ(text, "serve/main;kernel/dgemm 2500000\n");

  ProfileSnapshot cpu = syntheticEnergySnapshot();
  cpu.kind = ProfileKind::Cpu;
  const std::string cpuText = ep::obs::renderCollapsed(cpu);
  // CPU counts are raw sample counts, every frame ';'-joined.
  EXPECT_NE(cpuText.find("serve/main;kernel/dgemm 3\n"), std::string::npos);
  EXPECT_NE(cpuText.find(" 1\n"), std::string::npos);
  // Each line is "stack count": one space, integer tail.
  std::size_t start = 0;
  while (start < cpuText.size()) {
    const std::size_t nl = cpuText.find('\n', start);
    ASSERT_NE(nl, std::string::npos);
    const std::string line = cpuText.substr(start, nl - start);
    const std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    EXPECT_GT(std::stoull(line.substr(sp + 1)), 0u);
    start = nl + 1;
  }
}

TEST(ProfileExport, SpeedscopeDocumentIsSchemaValidViaWireParser) {
  const ProfileSnapshot snap = syntheticEnergySnapshot();
  const std::string doc = ep::obs::renderSpeedscope(snap, "unit-test");
  EXPECT_NE(
      doc.find("\"$schema\":\"https://www.speedscope.app/"
               "file-format-schema.json\""),
      std::string::npos);
  EXPECT_NE(doc.find("\"type\":\"sampled\""), std::string::npos);
  EXPECT_NE(doc.find("\"activeProfileIndex\":0"), std::string::npos);
  EXPECT_NE(doc.find("\"exporter\":\"epprof\""), std::string::npos);
  // Energy profiles are unit-less weights; CPU would say "seconds".
  EXPECT_NE(doc.find("\"unit\":\"none\""), std::string::npos);

  // Frame objects are emitted one per line precisely so the in-tree
  // flat parser can validate them, mirroring the Chrome trace test.
  const std::size_t open = doc.find("\"frames\":[\n");
  ASSERT_NE(open, std::string::npos);
  std::size_t cursor = open + std::string("\"frames\":[\n").size();
  std::size_t frameCount = 0;
  while (doc.compare(cursor, 1, "]") != 0) {
    const std::size_t nl = doc.find('\n', cursor);
    ASSERT_NE(nl, std::string::npos);
    std::string line = doc.substr(cursor, nl - cursor);
    if (!line.empty() && line.back() == ',') line.pop_back();
    std::string perr;
    const auto obj = ep::serve::wire::parseObject(line, &perr);
    ASSERT_TRUE(obj.has_value()) << line << ": " << perr;
    const auto it = obj->find("name");
    ASSERT_NE(it, obj->end());
    EXPECT_EQ(it->second.kind, ep::serve::wire::Value::Kind::String);
    EXPECT_FALSE(it->second.string.empty());
    ++frameCount;
    cursor = nl + 1;
  }
  // 3 distinct frames interned once each ("serve/main" shared).
  EXPECT_EQ(frameCount, 3u);
  // One sample row and one weight per entry.
  const std::size_t samplesPos = doc.find("\"samples\":[[");
  ASSERT_NE(samplesPos, std::string::npos);
  const std::size_t weightsPos = doc.find("\"weights\":[");
  ASSERT_NE(weightsPos, std::string::npos);
  EXPECT_NE(doc.find("\"endValue\":3"), std::string::npos);
}

TEST(ProfileExport, TopFramesAreInclusiveWithRecursionDedup) {
  ProfileSnapshot snap;
  snap.kind = ProfileKind::Cpu;
  ProfileEntry ab;
  ab.stack = {"a", "b"};
  ab.samples = 3;
  ab.weight = 3.0;
  ProfileEntry aba;  // recursive: 'a' appears twice, counts once
  aba.stack = {"a", "b", "a"};
  aba.samples = 1;
  aba.weight = 1.0;
  ProfileEntry c;
  c.stack = {"c"};
  c.samples = 6;
  c.weight = 6.0;
  snap.entries = {ab, aba, c};
  snap.samples = 10;
  snap.totalWeight = 10.0;

  const auto top = ep::obs::topFrames(snap, 0);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].frame, "c");
  EXPECT_DOUBLE_EQ(top[0].weight, 6.0);
  EXPECT_DOUBLE_EQ(top[0].share, 0.6);
  // a and b both cover the two a;b stacks: inclusive weight 4 each.
  EXPECT_EQ(top[1].frame, "a");
  EXPECT_DOUBLE_EQ(top[1].weight, 4.0);
  EXPECT_EQ(top[1].samples, 4u);
  EXPECT_EQ(top[2].frame, "b");
  EXPECT_DOUBLE_EQ(top[2].weight, 4.0);

  // topN truncates after ranking.
  EXPECT_EQ(ep::obs::topFrames(snap, 1).size(), 1u);
  EXPECT_EQ(ep::obs::topFrames(snap, 1)[0].frame, "c");
}

TEST(ProfileExport, MergeProfileSnapshotsPrefixesShardRootsAndSumsTraces) {
  ProfileSnapshot s0;
  s0.kind = ProfileKind::Energy;
  ProfileEntry e0;
  e0.stack = {"kernel/dgemm"};
  e0.samples = 2;
  e0.weight = 2.0;
  s0.entries = {e0};
  s0.samples = 2;
  s0.totalWeight = 2.0;
  TraceSlice t0;
  t0.traceId = 0x42u;
  t0.samples = 2;
  t0.weight = 2.0;
  s0.traces = {t0};

  ProfileSnapshot s1;
  s1.kind = ProfileKind::Energy;
  ProfileEntry e1;
  e1.stack = {"kernel/fft2d"};
  e1.samples = 1;
  e1.weight = 5.0;
  s1.entries = {e1};
  s1.samples = 1;
  s1.totalWeight = 5.0;
  TraceSlice t1;  // same request fanned out across both shards
  t1.traceId = 0x42u;
  t1.samples = 1;
  t1.weight = 5.0;
  s1.traces = {t1};

  const ProfileSnapshot merged =
      ep::obs::mergeProfileSnapshots({{"s0", s0}, {"s1", s1}});
  EXPECT_EQ(merged.kind, ProfileKind::Energy);
  EXPECT_EQ(merged.samples, 3u);
  EXPECT_DOUBLE_EQ(merged.totalWeight, 7.0);
  ASSERT_EQ(merged.entries.size(), 2u);
  // Weight-descending; every stack gains its shard root.
  EXPECT_EQ(merged.entries[0].stack,
            (std::vector<std::string>{"shard/s1", "kernel/fft2d"}));
  EXPECT_EQ(merged.entries[1].stack,
            (std::vector<std::string>{"shard/s0", "kernel/dgemm"}));
  // The cross-shard trace slice sums instead of duplicating.
  ASSERT_EQ(merged.traces.size(), 1u);
  EXPECT_EQ(merged.traces[0].traceId, 0x42u);
  EXPECT_EQ(merged.traces[0].samples, 3u);
  EXPECT_DOUBLE_EQ(merged.traces[0].weight, 7.0);
}

// ---------------------------------------------------------------------------
// eptsdb satellites: scraper lifecycle cycling and quantile reads that
// straddle a series-ring wraparound (exercised under TSan in ci.sh).

TEST(Tsdb, ScraperStartStopStartCyclesCleanly) {
  TimeSeriesStore store;
  Registry r;
  Histogram& h = r.histogram("cyc_ms", "Latency", {1.0, 10.0});
  h.observe(0.5);
  Scraper::Options opts;
  opts.intervalMs = 1;
  Scraper scraper(&store, [&r] { return r.snapshot(); }, opts);

  // Concurrent quantile reads while the background scraper ingests:
  // the satellite's TSan surface.
  std::atomic<bool> stopReader{false};
  std::thread reader([&store, &stopReader] {
    while (!stopReader.load(std::memory_order_relaxed)) {
      (void)store.histogramQuantile(
          "cyc_ms", 0.5, 0, std::numeric_limits<std::int64_t>::max());
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  scraper.start();
  while (scraper.scrapes() < 3) {
    h.observe(5.0);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  scraper.stop();
  const std::uint64_t firstRun = scraper.scrapes();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(scraper.scrapes(), firstRun);  // fully stopped

  // Restart resumes into the same store with a fresh thread.
  scraper.start();
  while (scraper.scrapes() < firstRun + 3) {
    h.observe(5.0);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  scraper.stop();
  stopReader.store(true);
  reader.join();
  const std::uint64_t total = scraper.scrapes();
  EXPECT_GE(total, firstRun + 3);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(scraper.scrapes(), total);  // second stop is clean too
  EXPECT_GE(store
                .range("cyc_ms_count", 0,
                       std::numeric_limits<std::int64_t>::max())
                .size(),
            3u);
}

TEST(Tsdb, QuantileReadsStraddleSeriesRingWraparound) {
  // A 4-slot ring receiving 10 scrapes: the retained window is scrapes
  // 7..10, so the quantile must be computed from post-wrap deltas.
  TimeSeriesStore store(4);
  Registry r;
  Histogram& h = r.histogram("wrapq_ms", "Latency", {1.0, 10.0});
  for (int t = 1; t <= 10; ++t) {
    // Scrapes 1..8 add in-bound observations, 9..10 add outliers.
    h.observe(t <= 8 ? 5.0 : 100.0);
    store.ingest(r.snapshot(), static_cast<std::int64_t>(t) * 1000000000);
  }
  const auto retained = store.range(
      "wrapq_ms_count", 0, std::numeric_limits<std::int64_t>::max());
  ASSERT_EQ(retained.size(), 4u);  // the ring wrapped: only 7..10 live
  EXPECT_DOUBLE_EQ(retained.front().value, 7.0);
  EXPECT_DOUBLE_EQ(retained.back().value, 10.0);

  // Window deltas across the wrap: scrape 7 -> 10 adds one 5.0 (t=8)
  // and two 100.0s, so low quantiles resolve in (1,10] and high ones
  // escape to +Inf.
  const std::int64_t lo = 0;
  const std::int64_t hi = std::numeric_limits<std::int64_t>::max();
  EXPECT_DOUBLE_EQ(store.histogramQuantile("wrapq_ms", 0.25, lo, hi), 10.0);
  EXPECT_TRUE(std::isinf(store.histogramQuantile("wrapq_ms", 0.9, lo, hi)));
}

// ---------------------------------------------------------------------------
// ep_build_info satellite: the info gauge is stamped on the global
// registry and on explicit registries, idempotently, and its labels
// survive federation shard-labeling.

TEST(BuildInfo, StampedOnGlobalRegistryWithLabels) {
  const std::string text = Registry::global().renderPrometheus();
  const std::size_t pos = text.find("ep_build_info{");
  ASSERT_NE(pos, std::string::npos) << "global registry lacks ep_build_info";
  const std::size_t eol = text.find('\n', pos);
  const std::string line = text.substr(pos, eol - pos);
  EXPECT_NE(line.find("git_hash=\""), std::string::npos) << line;
  EXPECT_NE(line.find("build_type=\""), std::string::npos) << line;
  EXPECT_NE(line.find("compiler=\""), std::string::npos) << line;
  EXPECT_EQ(line.substr(line.size() - 2), " 1") << line;
}

TEST(BuildInfo, RegistrationIsIdempotentAndSurvivesShardMerge) {
  Registry s0;
  ep::obs::registerBuildInfo(s0);
  ep::obs::registerBuildInfo(s0);  // second stamp: same gauge, still 1
  Registry s1;
  ep::obs::registerBuildInfo(s1);

  const RegistrySnapshot merged = ep::obs::mergeShardSnapshots(
      {{"s0", s0.snapshot()}, {"s1", s1.snapshot()}});
  const std::string text =
      ep::obs::renderExposition(merged, ExpositionFormat::Prometheus004);
  // Info gauges stay per shard: one labeled series each, value 1, with
  // the build labels intact next to the appended shard label.
  for (const char* shard : {"s0", "s1"}) {
    const std::string needle = std::string("shard=\"") + shard + "\"";
    std::size_t pos = text.find("ep_build_info{");
    bool found = false;
    while (pos != std::string::npos) {
      const std::size_t eol = text.find('\n', pos);
      const std::string line = text.substr(pos, eol - pos);
      if (line.find(needle) != std::string::npos) {
        found = true;
        EXPECT_NE(line.find("git_hash=\""), std::string::npos) << line;
        EXPECT_EQ(line.substr(line.size() - 2), " 1") << line;
      }
      pos = text.find("ep_build_info{", eol);
    }
    EXPECT_TRUE(found) << "no ep_build_info for shard " << shard;
  }
  lintExposition(text);
}

}  // namespace
