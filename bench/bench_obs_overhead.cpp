// Microbenchmarks for the epobs hot paths.
//
// The acceptance bar (EXPERIMENTS.md): a disabled Span and a Counter
// increment must each cost < 20 ns, so instrumentation can stay
// compiled into the study pipeline and thread pool unconditionally.
// These are nanosecond costs of single operations; what instrumentation
// costs a served request is an end-to-end question for e2ebench.
#include <benchmark/benchmark.h>

#include <string>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "obs/tsdb.hpp"

namespace {

using ep::obs::Counter;
using ep::obs::Gauge;
using ep::obs::Histogram;
using ep::obs::Registry;
using ep::obs::ScopedTraceContext;
using ep::obs::Span;
using ep::obs::TraceContext;
using ep::obs::Tracer;

// The compiled-in-but-disabled fast path: one relaxed atomic load.
void BM_SpanDisabled(benchmark::State& state) {
  Tracer& t = Tracer::global();
  t.setEnabled(false);
  for (auto _ : state) {
    Span span("bench/disabled");
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_SpanDisabled);

// Enabled span: two clock reads plus a ring-buffer push.
void BM_SpanEnabled(benchmark::State& state) {
  Tracer& t = Tracer::global();
  t.setEnabled(true);
  t.clear();
  for (auto _ : state) {
    Span span("bench/enabled");
    benchmark::DoNotOptimize(&span);
  }
  t.setEnabled(false);
  t.clear();
}
BENCHMARK(BM_SpanEnabled);

void BM_CounterInc(benchmark::State& state) {
  Registry registry;
  Counter& c = registry.counter("bench_counter_total", "bench");
  for (auto _ : state) {
    c.inc();
  }
  benchmark::DoNotOptimize(c.value());
}
BENCHMARK(BM_CounterInc);

void BM_GaugeSet(benchmark::State& state) {
  Registry registry;
  Gauge& g = registry.gauge("bench_gauge", "bench");
  std::int64_t v = 0;
  for (auto _ : state) {
    g.set(++v);
  }
  benchmark::DoNotOptimize(g.value());
}
BENCHMARK(BM_GaugeSet);

void BM_HistogramObserve(benchmark::State& state) {
  Registry registry;
  Histogram& h = registry.histogram("bench_latency_ms", "bench",
                                    {0.1, 1.0, 10.0, 100.0, 1000.0});
  double v = 0.0;
  for (auto _ : state) {
    v += 0.7;
    if (v > 2000.0) v = 0.0;
    h.observe(v);
  }
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_HistogramObserve);

// The cold path we avoid at instrumentation sites (they hold a
// function-local static reference instead): name lookup under the
// registry mutex.
void BM_RegistryLookup(benchmark::State& state) {
  Registry registry;
  registry.counter("bench_lookup_total", "bench");
  for (auto _ : state) {
    Counter& c = registry.counter("bench_lookup_total", "bench");
    benchmark::DoNotOptimize(&c);
  }
}
BENCHMARK(BM_RegistryLookup);

// What ThreadPool::submit adds per task when a request context rides
// along: one TLS save, one install, one restore.
void BM_ScopedContextInstall(benchmark::State& state) {
  const TraceContext ctx{0xBEEFu, 42u};
  for (auto _ : state) {
    ScopedTraceContext scope(ctx);
    benchmark::DoNotOptimize(&scope);
  }
}
BENCHMARK(BM_ScopedContextInstall);

// Exemplar-linked observe: the seqlock claim/publish on top of the
// plain bucket RMW + sum CAS.
void BM_HistogramObserveWithExemplar(benchmark::State& state) {
  Registry registry;
  Histogram& h = registry.histogram("bench_exemplar_ms", "bench",
                                    {0.1, 1.0, 10.0, 100.0, 1000.0});
  double v = 0.0;
  std::uint64_t trace = 1;
  for (auto _ : state) {
    v += 0.7;
    if (v > 2000.0) v = 0.0;
    h.observe(v, ++trace);
  }
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_HistogramObserveWithExemplar);

// A registry with `series` counters plus a few histograms — roughly
// what a whole broker federates at fleet scale.
void populateRegistry(Registry& registry, int series) {
  for (int i = 0; i < series; ++i) {
    registry
        .counter("bench_scrape_total", "bench",
                 {{"worker", std::to_string(i)}})
        .inc(static_cast<std::uint64_t>(i));
  }
  for (int i = 0; i < 8; ++i) {
    Histogram& h = registry.histogram(
        "bench_scrape_ms", "bench", {0.1, 1.0, 10.0, 100.0, 1000.0},
        {{"worker", std::to_string(i)}});
    for (int j = 0; j < 32; ++j) h.observe(0.3 * j);
  }
}

// One full scrape — snapshot + tsdb ingest — at 1k series.  This is
// the background cost the plane pays per interval, NOT a hot-path tax.
void BM_ScrapeAt1kSeries(benchmark::State& state) {
  Registry registry;
  populateRegistry(registry, 1000);
  ep::obs::TimeSeriesStore store;
  std::int64_t now = 0;
  ep::obs::Scraper::Options opts;
  opts.clock = [&now] { return now += 1'000'000; };
  ep::obs::Scraper scraper(
      &store, [&registry] { return registry.snapshot(); }, opts);
  for (auto _ : state) {
    scraper.scrapeOnce();
  }
  benchmark::DoNotOptimize(store.seriesCount());
}
BENCHMARK(BM_ScrapeAt1kSeries);

// Mutation cost while the background scraper is live on the same
// registry: the hot path must not feel the scrape cadence.
void BM_CounterIncScraperOn(benchmark::State& state) {
  Registry registry;
  populateRegistry(registry, 1000);
  Counter& c = registry.counter("bench_hot_total", "bench");
  ep::obs::TimeSeriesStore store;
  ep::obs::Scraper::Options opts;
  opts.intervalMs = 1;
  ep::obs::Scraper scraper(
      &store, [&registry] { return registry.snapshot(); }, opts);
  scraper.start();
  for (auto _ : state) {
    c.inc();
  }
  scraper.stop();
  benchmark::DoNotOptimize(c.value());
}
BENCHMARK(BM_CounterIncScraperOn);

// Profiler frame push/pop.  Disarmed, a ProfileFrame is one relaxed
// load and a branch (the "profiler-off is free" claim); armed, it adds
// two relaxed stores.
void BM_ProfileFrameDisarmed(benchmark::State& state) {
  for (auto _ : state) {
    ep::obs::ProfileFrame frame("bench/frame_disarmed");
    benchmark::DoNotOptimize(&frame);
  }
}
BENCHMARK(BM_ProfileFrameDisarmed);

void BM_ProfileFrameArmed(benchmark::State& state) {
  ep::obs::Profiler& prof = ep::obs::Profiler::global();
  ep::obs::ProfilerOptions opts;
  opts.cpuSampling = false;  // arm the gate without SIGPROF noise
  prof.start(opts);
  for (auto _ : state) {
    ep::obs::ProfileFrame frame("bench/frame_armed");
    benchmark::DoNotOptimize(&frame);
  }
  prof.stop();
  prof.clear();
}
BENCHMARK(BM_ProfileFrameArmed);

}  // namespace
