// epprof: an always-on continuous sampling profiler with CPU and
// energy-weighted profiles, sliced by the request trace context.
//
// Architecture
//   * Threads register themselves (ThreadPool workers, net event
//     loops, daemon mains).  While the profiler runs, each registered
//     thread owns a POSIX per-thread CPU-time timer
//     (pthread_getcpuclockid + SIGEV_THREAD_ID) that delivers SIGPROF
//     when — and only when — the thread burns CPU, so idle threads
//     cost nothing and sample counts are proportional to CPU time.
//   * The SIGPROF handler is async-signal-safe: it copies the thread's
//     shadow frame stack (obs/profile_frames.hpp) and its TraceContext
//     into a per-thread lock-free SPSC ring — no locks, no allocation,
//     errno preserved.
//   * A background aggregator drains the rings off the hot path into a
//     stack-trie profile store keyed by frame labels, plus per-trace
//     slices (samples and joules by request trace id).
//   * Energy-weighted profile: eppower calls recordEnergySample() at
//     the MeasureObserver seam in EnergyMeasurer::measure with the
//     protocol's attributed dynamic joules — exactly the quantity the
//     PR 5 request ledger sums — folded onto the measuring thread's
//     current stack.  Flamegraph width is therefore joules, and a
//     trace's energy slice reconciles against its RequestReport.
//
// The profiler is a process singleton (signal dispositions and timers
// are process state).  All control calls are thread-safe; start/stop
// may be cycled freely.  When stopped the process pays one relaxed
// load per Span and nothing else.
#pragma once

#include <atomic>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <sys/types.h>
#include <thread>
#include <time.h>
#include <unordered_map>
#include <vector>

#include "obs/profile_frames.hpp"
#include "obs/trace.hpp"

namespace ep::obs {

enum class ProfileKind { Cpu, Energy };

[[nodiscard]] const char* profileKindName(ProfileKind k);

struct ProfilerOptions {
  // Per-thread CPU time between samples.  The default (10 ms = 100 Hz
  // per busy thread) is the always-on rate the overhead bench gates.
  std::uint64_t samplePeriodUs = 10000;
  // Samples buffered per thread between aggregator drains; the handler
  // drops (and counts) when full rather than blocking.
  std::size_t ringCapacity = 512;
  // Aggregator wakeup cadence.
  std::uint64_t aggregateIntervalMs = 50;
  // Arm the SIGPROF sampling machinery.  Off gives a deterministic
  // energy-only profiler (no signals, no timers) — what the ledger
  // reconciliation test and pure energy accounting need.
  bool cpuSampling = true;
};

// One aggregated stack: root-first frame labels, self sample count and
// self weight (seconds for Cpu, joules for Energy).
struct ProfileEntry {
  std::vector<std::string> stack;
  std::uint64_t samples = 0;
  double weight = 0.0;
};

// Per-request slice: how many samples / joules landed while this trace
// id was installed.  traceId 0 collects untraced work (and overflow
// past Profiler::kMaxTraceSlices).
struct TraceSlice {
  std::uint64_t traceId = 0;
  std::uint64_t samples = 0;
  double weight = 0.0;
};

struct ProfileSnapshot {
  ProfileKind kind = ProfileKind::Cpu;
  std::uint64_t samplePeriodUs = 0;  // 0 when cpu sampling was off
  std::uint64_t samples = 0;         // Cpu: signal samples; Energy: windows
  double totalWeight = 0.0;          // Cpu: seconds; Energy: joules
  std::uint64_t dropped = 0;         // ring-full losses
  std::uint64_t truncated = 0;       // stacks clipped at kMaxProfileFrames
  std::vector<ProfileEntry> entries;  // weight-descending
  std::vector<TraceSlice> traces;     // weight-descending
};

class Profiler {
 public:
  // Per-trace slice cap: beyond this, new trace ids fold into slice 0
  // so a long-running daemon cannot grow without bound.
  static constexpr std::size_t kMaxTraceSlices = 4096;

  // The process-wide profiler.  Deliberately leaked: signal handlers
  // and late-exiting threads may touch it during teardown.
  static Profiler& global();

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  // Register the calling thread for sampling.  Idempotent; cheap when
  // the profiler never runs (no ring is allocated until start()).  The
  // thread auto-unregisters at exit.
  void registerCurrentThread();
  // Early explicit unregistration (normally the thread-exit hook does
  // this).  Safe to call on an unregistered thread.
  void unregisterCurrentThread();

  // Arm the profiler: install the SIGPROF handler, start per-thread
  // timers and the aggregator.  Returns false (and changes nothing) if
  // already running.  Does NOT clear previously aggregated profiles —
  // call clear() for a fresh window.
  bool start(const ProfilerOptions& options = {});
  // Disarm: stop timers, drain every ring, join the aggregator.  The
  // aggregated store stays readable (and start() resumes into it).
  void stop();
  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_acquire);
  }
  // Drop all aggregated state (both kinds, trace slices, counters).
  void clear();

  // Fold `joules` onto the calling thread's current shadow stack in
  // the energy profile, sliced by `traceId`.  Called by eppower once
  // per finished measurement protocol; a no-op unless running.
  void recordEnergySample(double joules, std::uint64_t traceId);

  // Drain all rings and return the aggregated profile of one kind.
  [[nodiscard]] ProfileSnapshot snapshot(ProfileKind kind);

  // Threads currently registered (observability / tests).
  [[nodiscard]] std::size_t registeredThreads() const;

 private:
  Profiler() = default;

  struct RawSample {
    std::uint64_t traceId = 0;
    std::int32_t depth = 0;
    std::int32_t clipped = 0;
    const char* frames[prof_detail::kMaxProfileFrames];
  };

  // SPSC ring: the signal handler produces, the aggregator consumes.
  struct SampleRing {
    std::vector<RawSample> slots;  // sized at arm time, stable while armed
    std::atomic<std::uint64_t> head{0};
    std::atomic<std::uint64_t> tail{0};
    std::atomic<std::uint64_t> dropped{0};
  };

  struct ThreadState {
    prof_detail::FrameStack* stack = nullptr;  // thread's TLS, owner-thread lifetime
    TraceContext* ctx = nullptr;               // thread's TLS trace context
    pthread_t pthread{};
    pid_t tid = 0;  // kernel tid: SIGEV_THREAD_ID signal target
    SampleRing ring;
    timer_t timer{};
    bool timerArmed = false;                 // guarded by mu_
    std::atomic<bool> retired{false};        // owner thread exited
  };

  // Self-weight trie node keyed by frame label.
  struct TrieNode {
    std::uint64_t samples = 0;
    double weight = 0.0;
    std::map<std::string, std::unique_ptr<TrieNode>> children;
  };

  struct Store {
    TrieNode root;
    std::uint64_t samples = 0;
    double totalWeight = 0.0;
    std::unordered_map<std::uint64_t, TraceSlice> traces;
  };

  static void sigprofHandler(int signo, siginfo_t* info, void* uctx);

  void armThreadLocked(ThreadState& st);
  void disarmThreadLocked(ThreadState& st);
  void aggregatorLoop();
  // Drain every ring into the CPU store; prunes retired threads whose
  // rings are empty.  Caller holds storeMu_, NOT mu_.
  void drainRings();
  void foldSample(Store& store, const char* const* frames, int depth,
                  std::uint64_t traceId, double weight, bool clipped);
  [[nodiscard]] ProfileSnapshot snapshotLocked(const Store& store,
                                               ProfileKind kind) const;

  mutable std::mutex mu_;  // thread registry + arm/disarm state
  std::vector<std::shared_ptr<ThreadState>> threads_;
  ProfilerOptions options_{};
  std::atomic<bool> running_{false};

  std::thread aggregator_;
  std::mutex aggMu_;
  std::condition_variable aggCv_;
  bool stopAggregator_ = false;

  // Aggregated profile stores; storeMu_ is ordered AFTER mu_ (the
  // aggregator takes storeMu_ then briefly mu_ inside drainRings to
  // copy the thread list — never the reverse).
  mutable std::mutex storeMu_;
  Store cpu_;
  Store energy_;
  std::uint64_t truncated_ = 0;
  std::uint64_t dropped_ = 0;
  // Mirrors of the arm-time options the aggregation path needs,
  // guarded by storeMu_ (options_ itself is guarded by mu_).
  double cpuSampleWeight_ = 0.0;     // seconds per CPU sample
  std::uint64_t periodUs_ = 0;       // 0 until CPU sampling first armed
};

}  // namespace ep::obs
