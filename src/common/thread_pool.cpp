#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"

namespace ep {

namespace {

// Process-wide pool instrumentation (epobs global registry).  Gauges
// are moved by deltas so several pools aggregate correctly; the
// references are resolved once and shared by every pool.
struct PoolMetrics {
  obs::Counter& tasks;
  obs::Counter& busyNs;
  obs::Gauge& queueDepth;
  obs::Gauge& inFlight;
  obs::Counter& parallelFors;
  obs::Counter& parallelChunks;
  obs::Gauge& parallelActive;

  static PoolMetrics& get() {
    static PoolMetrics m{
        obs::Registry::global().counter(
            "ep_threadpool_tasks_total",
            "Tasks executed by ep::ThreadPool workers (all pools)"),
        obs::Registry::global().counter(
            "ep_threadpool_busy_ns_total",
            "Cumulative nanoseconds workers spent running tasks"),
        obs::Registry::global().gauge(
            "ep_threadpool_queue_depth",
            "Tasks enqueued and not yet picked up by a worker"),
        obs::Registry::global().gauge(
            "ep_threadpool_in_flight",
            "Tasks submitted and not yet finished (queued + running)"),
        obs::Registry::global().counter(
            "ep_threadpool_parallel_for_total",
            "parallelFor invocations (all pools)"),
        obs::Registry::global().counter(
            "ep_threadpool_parallel_chunks_total",
            "Chunks executed across all parallelFor invocations"),
        obs::Registry::global().gauge(
            "ep_threadpool_parallel_active",
            "parallelFor calls currently executing (incl. nested)")};
    return m;
  }
};

}  // namespace

// Per-call completion latch.  Held in a shared_ptr: a helper task that
// wakes up after the caller already returned (every chunk claimed by
// faster participants) must only touch memory it co-owns.
struct ThreadPool::ParallelForState {
  std::size_t begin = 0;
  std::size_t grain = 1;
  std::size_t n = 0;
  std::size_t chunks = 0;
  const std::function<void(std::size_t)>* fn = nullptr;

  std::atomic<std::size_t> next{0};  // next chunk index to claim
  std::atomic<std::size_t> done{0};  // chunks finished (run or skipped)
  std::atomic<bool> failed{false};

  std::mutex mutex;
  std::condition_variable cvDone;
  std::exception_ptr firstError;
};

void ThreadPool::runChunks(ParallelForState& st) {
  PoolMetrics& metrics = PoolMetrics::get();
  for (;;) {
    const std::size_t c = st.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= st.chunks) return;
    // A claimed chunk always counts toward `done`, even when skipped
    // after a failure — completion means "no chunk will run anymore",
    // not "every index ran".
    if (!st.failed.load(std::memory_order_relaxed)) {
      const std::size_t lo = st.begin + c * st.grain;
      const std::size_t hi = std::min(lo + st.grain, st.begin + st.n);
      try {
        for (std::size_t i = lo; i < hi; ++i) {
          if (st.failed.load(std::memory_order_relaxed)) break;
          (*st.fn)(i);
        }
        metrics.parallelChunks.inc();
      } catch (...) {
        std::scoped_lock lock(st.mutex);
        if (!st.failed.exchange(true, std::memory_order_relaxed)) {
          st.firstError = std::current_exception();
        }
      }
    }
    // release pairs with the caller's acquire load of `done`, making
    // fn's writes (and firstError) visible before the caller returns.
    if (st.done.fetch_add(1, std::memory_order_acq_rel) + 1 == st.chunks) {
      // Lock so the notify cannot slip between the waiter's predicate
      // check and its wait — a lost wakeup would hang the caller.
      std::scoped_lock lock(st.mutex);
      st.cvDone.notify_all();
    }
  }
}

ThreadPool::ThreadPool(std::size_t threads, std::string profileLabel)
    : profileLabel_(profileLabel.empty() ? std::string("pool/worker")
                                         : std::move(profileLabel)) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  PoolMetrics::get();  // resolve registry entries before workers start
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock lock(mutex_);
    stop_ = true;
  }
  cvTask_.notify_all();
  for (auto& w : workers_) w.join();
}

std::size_t ThreadPool::queueDepth() const {
  std::unique_lock lock(mutex_);
  return tasks_.size();
}

std::size_t ThreadPool::inFlight() const {
  std::unique_lock lock(mutex_);
  return inFlight_;
}

void ThreadPool::submit(std::function<void()> task) {
  // Carry the submitter's request context across the pool boundary so
  // spans opened inside the task link into the same trace tree.  Only
  // when tracing is live: the disabled path stays allocation-identical.
  if (obs::Tracer::global().enabled()) {
    if (const obs::TraceContext ctx = obs::currentContext(); ctx.spanId != 0) {
      task = [ctx, inner = std::move(task)] {
        obs::ScopedTraceContext scope(ctx);
        inner();
      };
    }
  }
  {
    std::unique_lock lock(mutex_);
    tasks_.push(std::move(task));
    ++inFlight_;
  }
  PoolMetrics::get().queueDepth.add(1);
  PoolMetrics::get().inFlight.add(1);
  cvTask_.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock lock(mutex_);
  cvDone_.wait(lock, [this] { return inFlight_ == 0; });
}

void ThreadPool::workerLoop() {
  // Root frame + registration for the continuous profiler: pushed
  // unconditionally (thread-lifetime) so arming epprof mid-run still
  // sees every worker labeled; profileLabel_ outlives the worker.
  obs::ProfileThreadLabel profileRoot(profileLabel_.c_str());
  obs::Profiler::global().registerCurrentThread();
  PoolMetrics& metrics = PoolMetrics::get();
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cvTask_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    metrics.queueDepth.sub(1);
    const auto t0 = std::chrono::steady_clock::now();
    {
      obs::Span span("pool/task");
      task();
    }
    metrics.busyNs.inc(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
    metrics.tasks.inc();
    {
      std::unique_lock lock(mutex_);
      --inFlight_;
      if (inFlight_ == 0) cvDone_.notify_all();
    }
    metrics.inFlight.sub(1);
  }
}

void ThreadPool::parallelFor(std::size_t begin, std::size_t end,
                             const std::function<void(std::size_t)>& fn,
                             std::size_t grain) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  if (grain == 0) {
    // ~4 chunks per worker: enough slack for dynamic load balancing
    // without drowning small ranges in scheduling overhead.
    grain = std::max<std::size_t>(1, n / (4 * size()));
  }
  const std::size_t chunks = (n + grain - 1) / grain;

  PoolMetrics& metrics = PoolMetrics::get();
  metrics.parallelFors.inc();

  if (chunks == 1) {
    // Serial fall-back: run inline.  Same contract as the parallel
    // path — a throw at index i skips all remaining indices and the
    // (first and only) error propagates to the caller.
    metrics.parallelActive.add(1);
    try {
      for (std::size_t i = begin; i < end; ++i) fn(i);
      metrics.parallelChunks.inc();
    } catch (...) {
      metrics.parallelActive.sub(1);
      throw;
    }
    metrics.parallelActive.sub(1);
    return;
  }

  auto st = std::make_shared<ParallelForState>();
  st->begin = begin;
  st->grain = grain;
  st->n = n;
  st->chunks = chunks;
  st->fn = &fn;

  metrics.parallelActive.add(1);
  // The caller claims chunks too, so at most chunks-1 helpers can ever
  // find work; capping at size() keeps the queue shallow.  If no worker
  // is free (all parked in nested calls of their own) the caller simply
  // drains the whole range itself — that is what makes nesting safe.
  const std::size_t helpers = std::min(chunks - 1, size());
  for (std::size_t h = 0; h < helpers; ++h) {
    submit([st] { runChunks(*st); });
  }
  runChunks(*st);
  {
    std::unique_lock lock(st->mutex);
    st->cvDone.wait(lock, [&] {
      return st->done.load(std::memory_order_acquire) == st->chunks;
    });
  }
  metrics.parallelActive.sub(1);
  if (st->firstError) std::rethrow_exception(st->firstError);
}

}  // namespace ep
