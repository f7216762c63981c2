// A small fixed-size thread pool with nested-safe parallel-for helpers.
//
// Used by the real compute substrates (epfft, epblas), the functional
// CUDA-block executor, and the parallel study engine (epapps/epcore via
// the epserve broker).  Work items are plain std::function tasks.
//
// parallelFor is built on a per-call completion latch plus caller
// work-participation: the calling thread claims and runs chunks itself
// while pool workers help.  Because the caller never waits on *other*
// callers' tasks (the old global-wait() hazard) and always makes
// progress on its own chunks, parallelFor is safe to invoke from inside
// a pool task — including on a pool whose every worker is itself inside
// a parallelFor — and two concurrent parallelFor calls never observe
// each other.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace ep {

class ThreadPool {
 public:
  // threads == 0 means hardware_concurrency (at least 1).
  // profileLabel, when non-empty, is pushed as each worker's root frame
  // on the epprof shadow stack ("pool/worker" by default; the fleet
  // router labels each shard's pool "shard/<id>" so cluster profiles
  // partition by shard).
  explicit ThreadPool(std::size_t threads = 0, std::string profileLabel = {});
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  // Introspection for gauges and tests: tasks enqueued but not yet
  // picked up by a worker, and tasks submitted but not yet finished
  // (queued + running).  Both are instantaneous snapshots.
  [[nodiscard]] std::size_t queueDepth() const;
  [[nodiscard]] std::size_t inFlight() const;

  // Enqueue a task; tasks may not themselves block on the pool's
  // wait(), but they MAY call parallelFor (nested-safe).
  void submit(std::function<void()> task);

  // Block until all submitted tasks have completed.  Global: waits on
  // every caller's tasks, so never call it from inside a pool task.
  void wait();

  // Run fn(i) for i in [begin, end) and wait for completion.  The range
  // is split into chunks of `grain` consecutive indices (grain == 0
  // picks a default that yields ~4 chunks per worker); chunks are
  // claimed dynamically by pool workers AND by the calling thread.
  //
  // Error contract (identical on the parallel and the serial fall-back
  // path, where "serial" means a single chunk run inline):
  //   * the FIRST error recorded wins and is rethrown to the caller;
  //   * once any chunk has failed, remaining chunks are short-circuited:
  //     unclaimed chunks are skipped entirely and in-progress chunks
  //     stop before their next index.
  // Results must not depend on chunk execution order: fn(i) may only
  // write state owned exclusively by index i (this is what makes
  // parallel study evaluation bitwise-identical to serial).
  void parallelFor(std::size_t begin, std::size_t end,
                   const std::function<void(std::size_t)>& fn,
                   std::size_t grain = 0);

 private:
  struct ParallelForState;

  void workerLoop();
  // Claim-and-run loop shared by the caller and the helper tasks.
  static void runChunks(ParallelForState& st);

  const std::string profileLabel_;  // stable: workers hold its c_str()
  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  mutable std::mutex mutex_;
  std::condition_variable cvTask_;
  std::condition_variable cvDone_;
  std::size_t inFlight_ = 0;
  bool stop_ = false;
};

}  // namespace ep
