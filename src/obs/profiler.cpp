#include "obs/profiler.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <pthread.h>
#include <signal.h>
#include <sys/syscall.h>
#include <unistd.h>
#include <utility>

// Older glibc spells the SIGEV_THREAD_ID target field only through the
// union member; the kernel ABI is the same either way.
#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif

namespace ep::obs {

namespace {

// The calling thread's registration, read by the SIGPROF handler.
// void* because ThreadState is private to Profiler; only
// registerCurrentThread / unregisterCurrentThread write it.
thread_local void* tlsThreadState = nullptr;

// Unregisters at thread exit so a dead thread's timer can never fire
// into freed TLS.  Function-local thread_local: constructed on first
// registration, destroyed during thread teardown (the shadow stack and
// trace context TLS are trivially destructible, so they outlive it).
struct ThreadUnregistrar {
  ~ThreadUnregistrar();
};

pid_t currentTid() {
  return static_cast<pid_t>(::syscall(SYS_gettid));
}

}  // namespace

const char* profileKindName(ProfileKind k) {
  return k == ProfileKind::Energy ? "energy" : "cpu";
}

Profiler& Profiler::global() {
  // Leaked on purpose: the SIGPROF disposition and late-exiting
  // threads may reach it after static destruction would have run.
  static Profiler* p = new Profiler();
  return *p;
}

ThreadUnregistrar::~ThreadUnregistrar() {
  Profiler::global().unregisterCurrentThread();
}

void Profiler::sigprofHandler(int /*signo*/, siginfo_t* /*info*/,
                              void* /*uctx*/) {
  // Async-signal-safe by construction: TLS reads, relaxed atomics and
  // plain stores into a preallocated ring.  No locks, no allocation,
  // no library calls; errno preserved for the interrupted code.
  const int savedErrno = errno;
  auto* st = static_cast<ThreadState*>(tlsThreadState);
  if (st != nullptr && !st->ring.slots.empty() &&
      prof_detail::gProfilerArmed.load(std::memory_order_relaxed)) {
    SampleRing& ring = st->ring;
    const std::uint64_t h = ring.head.load(std::memory_order_relaxed);
    const std::uint64_t t = ring.tail.load(std::memory_order_acquire);
    if (h - t >= ring.slots.size()) {
      ring.dropped.fetch_add(1, std::memory_order_relaxed);
    } else {
      RawSample& s = ring.slots[h % ring.slots.size()];
      int depth = st->stack->depth.load(std::memory_order_relaxed);
      std::atomic_signal_fence(std::memory_order_acquire);
      if (depth < 0) depth = 0;
      if (depth > prof_detail::kMaxProfileFrames) {
        depth = prof_detail::kMaxProfileFrames;
      }
      for (int i = 0; i < depth; ++i) s.frames[i] = st->stack->frames[i];
      s.depth = depth;
      s.clipped = depth == prof_detail::kMaxProfileFrames ? 1 : 0;
      s.traceId = st->ctx->traceId;
      // Publish the filled slot before the head that exposes it to the
      // aggregator thread.
      ring.head.store(h + 1, std::memory_order_release);
    }
  }
  errno = savedErrno;
}

void Profiler::registerCurrentThread() {
  if (tlsThreadState != nullptr) return;
  auto st = std::make_shared<ThreadState>();
  st->stack = &prof_detail::tlsFrameStack();
  st->ctx = &detail::tlsContext();
  st->pthread = pthread_self();
  st->tid = currentTid();
  tlsThreadState = st.get();
  {
    std::lock_guard lk(mu_);
    threads_.push_back(st);
    if (running_.load(std::memory_order_acquire) && options_.cpuSampling) {
      st->ring.slots.resize(options_.ringCapacity);
      armThreadLocked(*st);
    }
  }
  thread_local ThreadUnregistrar guard;
  (void)guard;
}

void Profiler::unregisterCurrentThread() {
  void* raw = tlsThreadState;
  if (raw == nullptr) return;
  tlsThreadState = nullptr;
  // The handler must observe the null before the timer dies (both are
  // same-thread effects; the fence stops compiler reordering).
  std::atomic_signal_fence(std::memory_order_seq_cst);
  std::lock_guard lk(mu_);
  for (auto& st : threads_) {
    if (st.get() == raw) {
      disarmThreadLocked(*st);
      st->retired.store(true, std::memory_order_release);
      break;
    }
  }
}

std::size_t Profiler::registeredThreads() const {
  std::lock_guard lk(mu_);
  std::size_t n = 0;
  for (const auto& st : threads_) {
    if (!st->retired.load(std::memory_order_acquire)) ++n;
  }
  return n;
}

void Profiler::armThreadLocked(ThreadState& st) {
  if (st.timerArmed || st.retired.load(std::memory_order_acquire)) return;
  clockid_t clock{};
  // Per-thread CPU clock: the timer advances only while this thread
  // runs, so samples-per-thread is proportional to CPU burned and idle
  // threads are free.  Fails (and is skipped) for a thread that died
  // between registration and arming.
  if (pthread_getcpuclockid(st.pthread, &clock) != 0) return;
  struct sigevent sev {};
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev.sigev_notify_thread_id = st.tid;
  if (timer_create(clock, &sev, &st.timer) != 0) return;
  const std::uint64_t us = options_.samplePeriodUs;
  struct itimerspec its {};
  its.it_interval.tv_sec = static_cast<time_t>(us / 1000000);
  its.it_interval.tv_nsec = static_cast<long>((us % 1000000) * 1000);
  its.it_value = its.it_interval;
  if (timer_settime(st.timer, 0, &its, nullptr) != 0) {
    timer_delete(st.timer);
    return;
  }
  st.timerArmed = true;
}

void Profiler::disarmThreadLocked(ThreadState& st) {
  if (!st.timerArmed) return;
  timer_delete(st.timer);
  st.timerArmed = false;
}

bool Profiler::start(const ProfilerOptions& options) {
  ProfilerOptions opts = options;
  opts.samplePeriodUs = std::max<std::uint64_t>(100, opts.samplePeriodUs);
  opts.ringCapacity = std::max<std::size_t>(16, opts.ringCapacity);
  opts.aggregateIntervalMs =
      std::max<std::uint64_t>(1, opts.aggregateIntervalMs);
  {
    // storeMu_ strictly before mu_ (the aggregator's drain order).
    std::lock_guard slk(storeMu_);
    std::lock_guard lk(mu_);
    if (running_.load(std::memory_order_acquire)) return false;
    options_ = opts;
    cpuSampleWeight_ = static_cast<double>(opts.samplePeriodUs) * 1e-6;
    if (opts.cpuSampling) {
      periodUs_ = opts.samplePeriodUs;
      struct sigaction sa {};
      sa.sa_sigaction = &Profiler::sigprofHandler;
      sa.sa_flags = SA_RESTART | SA_SIGINFO;
      sigemptyset(&sa.sa_mask);
      sigaction(SIGPROF, &sa, nullptr);
      for (auto& st : threads_) {
        if (st->retired.load(std::memory_order_acquire)) continue;
        if (st->ring.slots.size() != opts.ringCapacity) {
          // Safe to resize: no timer is armed yet, so no producer.
          st->ring.slots.resize(opts.ringCapacity);
        }
        armThreadLocked(*st);
      }
    }
    running_.store(true, std::memory_order_release);
    prof_detail::gProfilerArmed.store(true, std::memory_order_relaxed);
  }
  {
    std::lock_guard alk(aggMu_);
    stopAggregator_ = false;
  }
  aggregator_ = std::thread([this] { aggregatorLoop(); });
  return true;
}

void Profiler::stop() {
  {
    std::lock_guard lk(mu_);
    if (!running_.load(std::memory_order_acquire)) return;
    prof_detail::gProfilerArmed.store(false, std::memory_order_relaxed);
    for (auto& st : threads_) disarmThreadLocked(*st);
    running_.store(false, std::memory_order_release);
  }
  {
    std::lock_guard alk(aggMu_);
    stopAggregator_ = true;
  }
  aggCv_.notify_all();
  if (aggregator_.joinable()) aggregator_.join();
  // Final drain so a stop-then-snapshot sees every sample taken.
  std::lock_guard slk(storeMu_);
  drainRings();
}

void Profiler::clear() {
  std::lock_guard slk(storeMu_);
  drainRings();  // do not let pre-clear samples leak into the next window
  cpu_ = Store{};
  energy_ = Store{};
  truncated_ = 0;
  dropped_ = 0;
}

void Profiler::aggregatorLoop() {
  for (;;) {
    {
      std::unique_lock alk(aggMu_);
      aggCv_.wait_for(alk, std::chrono::milliseconds(
                               options_.aggregateIntervalMs),
                      [this] { return stopAggregator_; });
      if (stopAggregator_) return;
    }
    std::lock_guard slk(storeMu_);
    drainRings();
  }
}

void Profiler::drainRings() {
  std::vector<std::shared_ptr<ThreadState>> copy;
  {
    std::lock_guard lk(mu_);
    copy = threads_;
  }
  for (const auto& st : copy) {
    SampleRing& ring = st->ring;
    if (ring.slots.empty()) continue;
    std::uint64_t t = ring.tail.load(std::memory_order_relaxed);
    const std::uint64_t h = ring.head.load(std::memory_order_acquire);
    while (t != h) {
      const RawSample& s = ring.slots[t % ring.slots.size()];
      foldSample(cpu_, s.frames, s.depth, s.traceId, cpuSampleWeight_,
                 s.clipped != 0);
      ++t;
    }
    ring.tail.store(t, std::memory_order_release);
    dropped_ += ring.dropped.exchange(0, std::memory_order_relaxed);
  }
  // Prune retired threads whose rings are now empty: their producers
  // are gone (timer deleted before retirement), so this is final.
  std::lock_guard lk(mu_);
  threads_.erase(
      std::remove_if(threads_.begin(), threads_.end(),
                     [](const std::shared_ptr<ThreadState>& st) {
                       return st->retired.load(std::memory_order_acquire) &&
                              st->ring.head.load(std::memory_order_acquire) ==
                                  st->ring.tail.load(std::memory_order_acquire);
                     }),
      threads_.end());
}

void Profiler::foldSample(Store& store, const char* const* frames, int depth,
                          std::uint64_t traceId, double weight, bool clipped) {
  TrieNode* node = &store.root;
  if (depth <= 0) {
    // CPU burned outside every span and label: keep it visible instead
    // of silently widening labeled frames.
    auto& child = node->children["(unattributed)"];
    if (!child) child = std::make_unique<TrieNode>();
    node = child.get();
  } else {
    for (int i = 0; i < depth; ++i) {
      const char* f = frames[i] != nullptr ? frames[i] : "(null)";
      auto& child = node->children[f];
      if (!child) child = std::make_unique<TrieNode>();
      node = child.get();
    }
  }
  node->samples += 1;
  node->weight += weight;
  store.samples += 1;
  store.totalWeight += weight;
  if (clipped) ++truncated_;

  std::uint64_t sliceId = traceId;
  auto it = store.traces.find(sliceId);
  if (it == store.traces.end() && sliceId != 0 &&
      store.traces.size() >= kMaxTraceSlices) {
    sliceId = 0;  // overflow traces fold into the untraced slice
    it = store.traces.find(sliceId);
  }
  if (it == store.traces.end()) {
    it = store.traces.emplace(sliceId, TraceSlice{sliceId, 0, 0.0}).first;
  }
  it->second.samples += 1;
  it->second.weight += weight;
}

void Profiler::recordEnergySample(double joules, std::uint64_t traceId) {
  if (!profilerArmed()) return;
  if (!(joules >= 0.0)) return;  // NaN / negative: a faulted window
  prof_detail::FrameStack& fs = prof_detail::tlsFrameStack();
  int depth = fs.depth.load(std::memory_order_relaxed);
  if (depth < 0) depth = 0;
  if (depth > prof_detail::kMaxProfileFrames) {
    depth = prof_detail::kMaxProfileFrames;
  }
  const char* frames[prof_detail::kMaxProfileFrames];
  for (int i = 0; i < depth; ++i) frames[i] = fs.frames[i];
  std::lock_guard slk(storeMu_);
  foldSample(energy_, frames, depth, traceId, joules,
             depth == prof_detail::kMaxProfileFrames);
}

ProfileSnapshot Profiler::snapshotLocked(const Store& store,
                                         ProfileKind kind) const {
  ProfileSnapshot snap;
  snap.kind = kind;
  snap.samplePeriodUs = kind == ProfileKind::Cpu ? periodUs_ : 0;
  snap.samples = store.samples;
  snap.totalWeight = store.totalWeight;
  snap.dropped = kind == ProfileKind::Cpu ? dropped_ : 0;
  snap.truncated = truncated_;

  // Flatten the trie depth-first into collapsed entries (self weight
  // only; inclusive weights are recovered by prefix summation in the
  // export layer).
  std::vector<std::pair<const TrieNode*, bool>> work;
  std::vector<std::string> path;
  struct Frame {
    const TrieNode* node;
    std::map<std::string, std::unique_ptr<TrieNode>>::const_iterator it;
  };
  std::vector<Frame> stack;
  stack.push_back({&store.root, store.root.children.begin()});
  while (!stack.empty()) {
    Frame& top = stack.back();
    if (top.it == top.node->children.end()) {
      stack.pop_back();
      if (!path.empty()) path.pop_back();
      continue;
    }
    const std::string& name = top.it->first;
    const TrieNode* child = top.it->second.get();
    ++top.it;
    path.push_back(name);
    if (child->samples > 0 || child->weight > 0.0) {
      ProfileEntry e;
      e.stack = path;
      e.samples = child->samples;
      e.weight = child->weight;
      snap.entries.push_back(std::move(e));
    }
    stack.push_back({child, child->children.begin()});
  }
  std::sort(snap.entries.begin(), snap.entries.end(),
            [](const ProfileEntry& a, const ProfileEntry& b) {
              if (a.weight != b.weight) return a.weight > b.weight;
              if (a.samples != b.samples) return a.samples > b.samples;
              return a.stack < b.stack;
            });

  snap.traces.reserve(store.traces.size());
  for (const auto& [id, slice] : store.traces) snap.traces.push_back(slice);
  std::sort(snap.traces.begin(), snap.traces.end(),
            [](const TraceSlice& a, const TraceSlice& b) {
              if (a.weight != b.weight) return a.weight > b.weight;
              if (a.samples != b.samples) return a.samples > b.samples;
              return a.traceId < b.traceId;
            });
  return snap;
}

ProfileSnapshot Profiler::snapshot(ProfileKind kind) {
  std::lock_guard slk(storeMu_);
  drainRings();
  return snapshotLocked(kind == ProfileKind::Energy ? energy_ : cpu_, kind);
}

}  // namespace ep::obs
