// Unit tests for the epcommon library: units, error handling, RNG,
// tables, thread pool, math helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <future>
#include <random>
#include <stdexcept>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "common/mathutil.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"

namespace ep {
namespace {

using namespace ep::literals;

// --- units ---

TEST(Units, AdditionAndSubtraction) {
  const Joules e = 3.0_J + 4.5_J;
  EXPECT_DOUBLE_EQ(e.value(), 7.5);
  EXPECT_DOUBLE_EQ((e - 2.5_J).value(), 5.0);
}

TEST(Units, ScalarScaling) {
  EXPECT_DOUBLE_EQ((2.0 * 3.0_W).value(), 6.0);
  EXPECT_DOUBLE_EQ((3.0_W * 2.0).value(), 6.0);
  EXPECT_DOUBLE_EQ((6.0_W / 2.0).value(), 3.0);
}

TEST(Units, PowerTimesTimeIsEnergy) {
  const Joules e = 10.0_W * 3.0_s;
  EXPECT_DOUBLE_EQ(e.value(), 30.0);
  EXPECT_DOUBLE_EQ((3.0_s * 10.0_W).value(), 30.0);
}

TEST(Units, EnergyDividedByTimeIsPower) {
  const Watts p = 30.0_J / 3.0_s;
  EXPECT_DOUBLE_EQ(p.value(), 10.0);
}

TEST(Units, EnergyDividedByPowerIsTime) {
  const Seconds t = 30.0_J / 10.0_W;
  EXPECT_DOUBLE_EQ(t.value(), 3.0);
}

TEST(Units, RatioOfLikeUnitsIsDimensionless) {
  const double r = 30.0_J / 10.0_J;
  EXPECT_DOUBLE_EQ(r, 3.0);
}

TEST(Units, Comparisons) {
  EXPECT_LT(1.0_s, 2.0_s);
  EXPECT_GT(2.0_W, 1.0_W);
  EXPECT_EQ(1.0_J, 1.0_J);
  EXPECT_LE(1.0_J, 1.0_J);
}

TEST(Units, CompoundAssignment) {
  Joules e = 1.0_J;
  e += 2.0_J;
  e -= 0.5_J;
  EXPECT_DOUBLE_EQ(e.value(), 2.5);
}

TEST(Units, Negation) { EXPECT_DOUBLE_EQ((-(2.0_J)).value(), -2.0); }

TEST(Units, StreamOutput) {
  std::ostringstream ss;
  ss << 2.5_W;
  EXPECT_EQ(ss.str(), "2.5 W");
}

TEST(Units, MillisecondLiteral) {
  EXPECT_DOUBLE_EQ((250.0_ms).value(), 0.25);
}

// --- error ---

TEST(Error, RequireThrowsPreconditionError) {
  EXPECT_THROW(EP_REQUIRE(false, "boom"), PreconditionError);
}

TEST(Error, RequirePassesOnTrue) {
  EXPECT_NO_THROW(EP_REQUIRE(true, "fine"));
}

TEST(Error, MessageContainsExpressionAndDetail) {
  try {
    EP_REQUIRE(1 == 2, "details here");
    FAIL() << "should have thrown";
  } catch (const PreconditionError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("1 == 2"), std::string::npos);
    EXPECT_NE(msg.find("details here"), std::string::npos);
  }
}

TEST(Error, HierarchyCatchableAsEpError) {
  EXPECT_THROW(throw ConvergenceError("x"), EpError);
  EXPECT_THROW(throw ResourceError("x"), EpError);
  EXPECT_THROW(throw PreconditionError("x"), EpError);
}

// --- rng ---

TEST(Rng, DeterministicForSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(7), b(8);
  bool anyDifferent = false;
  for (int i = 0; i < 20; ++i) {
    if (a.uniform(0.0, 1.0) != b.uniform(0.0, 1.0)) anyDifferent = true;
  }
  EXPECT_TRUE(anyDifferent);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(2.0, 5.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, UniformIntRespectsBounds) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto x = rng.uniformInt(1, 6);
    EXPECT_GE(x, 1u);
    EXPECT_LE(x, 6u);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 6u);  // all die faces appear in 1000 rolls
}

TEST(Rng, NormalHasRoughlyCorrectMoments) {
  Rng rng(11);
  double sum = 0.0, sumSq = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal(5.0, 2.0);
    sum += x;
    sumSq += x * x;
  }
  const double mean = sum / kN;
  const double var = sumSq / kN - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.2);
}

TEST(Rng, ForkedStreamsAreDecorrelated) {
  Rng parent(42);
  Rng a = parent.fork(1);
  Rng b = parent.fork(2);
  // Identical salt gives identical stream; different salts differ.
  Rng a2 = parent.fork(1);
  EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), a2.uniform(0.0, 1.0));
  bool anyDifferent = false;
  for (int i = 0; i < 20; ++i) {
    if (a.uniform(0.0, 1.0) != b.uniform(0.0, 1.0)) anyDifferent = true;
  }
  EXPECT_TRUE(anyDifferent);
}

// The std types are the reference the Rng contract is written against.
static_assert(sizeof(Rng) <= sizeof(std::mt19937_64) + sizeof(std::uint64_t),
              "Rng holds one MT19937-64 state and its seed, nothing more");

std::uint64_t bitsOf(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(Rng, TenThousandthOutputMatchesTheStandard) {
  // C++ [rand.predef]: the 10000th consecutive invocation of a
  // default-constructed mt19937_64 (seed 5489) produces 9981545732273789042.
  // A full-range uniformInt returns the raw engine output.
  Rng rng(5489);
  std::uint64_t x = 0;
  for (int i = 0; i < 10000; ++i) x = rng.uniformInt(0, ~std::uint64_t{0});
  EXPECT_EQ(x, 9981545732273789042ULL);
}

TEST(Rng, InterleavedDrawsMatchStdBitForBit) {
  // One million draws per seed, in an irregular mix of kinds and
  // parameters, must equal std::mt19937_64 driving fresh std
  // distributions.  normal() is
  // libstdc++'s polar method, so it is compared only against libstdc++.
#ifdef __GLIBCXX__
  constexpr std::uint64_t kKinds = 3;
#else
  constexpr std::uint64_t kKinds = 2;
#endif
  constexpr int kDraws = 1'000'000;
  for (const std::uint64_t seed : {1ULL, 5489ULL, 0xDEADBEEFULL}) {
    Rng rng(seed);
    std::mt19937_64 ref(seed);
    int mismatches = 0;
    int first = -1;
    for (int i = 0; i < kDraws; ++i) {
      const std::uint64_t pick =
          splitmix64(seed ^ static_cast<std::uint64_t>(i));
      const double a = static_cast<double>(pick >> 40) / 4096.0 - 1000.0;
      const double b = a + 1.0 + static_cast<double>(pick & 0xFFF);
      std::uint64_t got = 0;
      std::uint64_t want = 0;
      switch ((pick >> 20) % kKinds) {
        case 0: {
          got = bitsOf(rng.uniform(a, b));
          want = bitsOf(std::uniform_real_distribution<double>(a, b)(ref));
          break;
        }
        case 1: {
          // Small, wide (past 2^32), full and one-value ranges take
          // different paths through the distribution.
          const std::uint64_t lo = pick & 0xFF;
          const std::uint64_t spans[] = {pick >> 52, pick >> 20,
                                         ~std::uint64_t{0} - lo, 0};
          const std::uint64_t hi = lo + spans[(pick >> 8) & 3];
          got = rng.uniformInt(lo, hi);
          want = std::uniform_int_distribution<std::uint64_t>(lo, hi)(ref);
          break;
        }
        default: {
          const double sigma = 1.0 + static_cast<double>(pick & 0xFF) / 64.0;
          got = bitsOf(rng.normal(a, sigma));
          want = bitsOf(std::normal_distribution<double>(a, sigma)(ref));
          break;
        }
      }
      if (got != want && mismatches++ == 0) first = i;
    }
    EXPECT_EQ(mismatches, 0) << "seed " << seed << ", first at draw " << first;
  }
}

TEST(Rng, StandardNormalsEqualRepeatedNormalCalls) {
  // Every n through two chunks and a remainder (every chunk edge and
  // every remainder round), then sizes past two full 312-word refills,
  // after 0-3 draws that shift where the refill falls, so pairs
  // straddle it with x and y in different blocks.
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 2 * Rng::kNormalsChunk + 3; ++n) {
    sizes.push_back(n);
  }
  for (const std::size_t n : {311u, 312u, 313u, 624u, 625u, 1000u, 1999u}) {
    sizes.push_back(n);
  }
  for (const std::size_t n : sizes) {
    for (int prior = 0; prior < 4; ++prior) {
      Rng batched(0xC0FFEE + n);
      Rng single(0xC0FFEE + n);
      for (int i = 0; i < prior; ++i) {
        (void)batched.uniformInt(0, 9);
        (void)single.uniformInt(0, 9);
      }
      std::vector<double> z(n);
      batched.standardNormals(z.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(bitsOf(z[i]), bitsOf(single.normal(0.0, 1.0)))
            << "n=" << n << " prior=" << prior << " i=" << i;
      }
      // Both streams consumed the same engine outputs.
      EXPECT_EQ(batched.uniformInt(0, ~std::uint64_t{0}),
                single.uniformInt(0, ~std::uint64_t{0}));
    }
  }
}

TEST(Rng, LateFirstDrawMatchesAnImmediateOne) {
  // The state is seeded on the first draw; nothing observable may
  // depend on when that happens.
  Rng parent(42);
  Rng forkedEarly = parent.fork(3);
  const Rng copiedEarly = parent;  // copied before anything drew
  std::vector<double> immediate(50);
  parent.standardNormals(immediate.data(), immediate.size());
  Rng forkedLate = parent.fork(3);  // fork() reads only the seed
  Rng copy = copiedEarly;
  for (const double z : immediate) {
    EXPECT_EQ(bitsOf(copy.normal(0.0, 1.0)), bitsOf(z));
  }
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(forkedEarly.uniformInt(0, ~std::uint64_t{0}),
              forkedLate.uniformInt(0, ~std::uint64_t{0}));
  }
  // A copy taken mid-stream continues the original's stream.
  Rng midCopy = forkedLate;
  EXPECT_EQ(bitsOf(midCopy.uniform(0.0, 1.0)),
            bitsOf(forkedLate.uniform(0.0, 1.0)));
  EXPECT_EQ(copiedEarly.seed(), 42u);
}

TEST(Rng, Splitmix64ProducesDistinctOutputs) {
  std::set<std::uint64_t> outputs;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    outputs.insert(splitmix64(i));
  }
  EXPECT_EQ(outputs.size(), 1000u);
}

// --- table ---

TEST(Table, AlignsColumnsAndCountsRows) {
  Table t({"name", "value"});
  t.addRow({"alpha", "1"});
  t.addRow({"beta", "2"});
  const std::string s = t.str();
  // Three rules, the header and one line per row.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 6);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("beta"), std::string::npos);
}

TEST(Table, RejectsRaggedRows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.addRow({std::string("only-one")}), PreconditionError);
}

TEST(Table, NumericRowsUsePrecision) {
  Table t({"x"});
  t.addRow({3.14159});
  EXPECT_NE(t.str().find("3.1416"), std::string::npos);
}

TEST(Table, TitleAppearsInOutput) {
  Table t({"a"});
  t.setTitle("My Table");
  t.addRow({1.0});
  EXPECT_NE(t.str().find("My Table"), std::string::npos);
}

TEST(FormatDouble, TrimsTrailingZeros) {
  EXPECT_EQ(formatDouble(1.5, 4), "1.5");
  EXPECT_EQ(formatDouble(2.0, 4), "2.0");
}

TEST(FormatDouble, UsesScientificForExtremes) {
  const std::string big = formatDouble(1.23e12, 3);
  EXPECT_NE(big.find('e'), std::string::npos);
  const std::string small = formatDouble(1.23e-7, 3);
  EXPECT_NE(small.find('e'), std::string::npos);
}

// --- thread pool ---

TEST(ThreadPool, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.parallelFor(0, 257, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  EXPECT_NO_THROW(pool.parallelFor(5, 5, [](std::size_t) { FAIL(); }));
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallelFor(0, 100,
                                [](std::size_t i) {
                                  if (i == 50) throw std::runtime_error("x");
                                }),
               std::runtime_error);
}

TEST(ThreadPool, SizeDefaultsToHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, WaitWithNoTasksReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait();
  SUCCEED();
}

TEST(ThreadPool, MoreChunksThanThreadsStillCovers) {
  ThreadPool pool(2);
  std::atomic<std::size_t> sum{0};
  pool.parallelFor(10, 20, [&](std::size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 145u);  // 10 + 11 + ... + 19
}

TEST(ThreadPool, QueueDepthAndInFlightObservable) {
  obs::Counter& tasks = obs::Registry::global().counter(
      "ep_threadpool_tasks_total", "Tasks executed by all thread pools");
  const std::uint64_t tasksBefore = tasks.value();

  ThreadPool pool(1);
  EXPECT_EQ(pool.queueDepth(), 0u);
  EXPECT_EQ(pool.inFlight(), 0u);

  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::promise<void> started;
  pool.submit([&started, gate] {
    started.set_value();
    gate.wait();
  });
  started.get_future().wait();  // blocker is now running
  for (int i = 0; i < 3; ++i) {
    pool.submit([gate] { gate.wait(); });
  }
  // inFlight counts queued + running: the blocker plus three queued.
  EXPECT_EQ(pool.queueDepth(), 3u);
  EXPECT_EQ(pool.inFlight(), 4u);

  release.set_value();
  pool.wait();
  EXPECT_EQ(pool.queueDepth(), 0u);
  EXPECT_EQ(pool.inFlight(), 0u);
  EXPECT_EQ(tasks.value(), tasksBefore + 4);
}

TEST(ThreadPool, NestedParallelForFromPoolTaskCompletes) {
  // The old parallelFor waited on the pool's *global* task count, so a
  // parallelFor issued from inside a pool task waited on itself: with
  // one worker this deadlocked deterministically.  The per-call latch
  // plus caller participation must finish the inner loop regardless.
  ThreadPool pool(1);
  std::atomic<std::size_t> inner{0};
  std::promise<void> outerDone;
  pool.submit([&] {
    pool.parallelFor(0, 64, [&](std::size_t) { inner.fetch_add(1); });
    outerDone.set_value();
  });
  auto fut = outerDone.get_future();
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(30)), std::future_status::ready);
  EXPECT_EQ(inner.load(), 64u);
}

TEST(ThreadPool, DeeplyNestedParallelForCompletes) {
  ThreadPool pool(2);
  std::atomic<std::size_t> leaves{0};
  pool.parallelFor(0, 4, [&](std::size_t) {
    pool.parallelFor(0, 4, [&](std::size_t) {
      pool.parallelFor(0, 4, [&](std::size_t) { leaves.fetch_add(1); });
    });
  });
  EXPECT_EQ(leaves.load(), 64u);
}

TEST(ThreadPool, ConcurrentParallelForCallsDoNotInterfere) {
  ThreadPool pool(4);
  std::atomic<std::size_t> a{0};
  std::atomic<std::size_t> b{0};
  std::thread other(
      [&] { pool.parallelFor(0, 500, [&](std::size_t) { a.fetch_add(1); }); });
  pool.parallelFor(0, 500, [&](std::size_t) { b.fetch_add(1); });
  other.join();
  EXPECT_EQ(a.load(), 500u);
  EXPECT_EQ(b.load(), 500u);
}

TEST(ThreadPool, SerialPathShortCircuitsAfterFirstError) {
  // grain >= n forces the single-chunk inline path: the throw at i == 0
  // must skip every later index, not just propagate at the end.
  ThreadPool pool(4);
  std::atomic<int> executed{0};
  EXPECT_THROW(pool.parallelFor(
                   0, 100,
                   [&](std::size_t i) {
                     if (i == 0) throw std::invalid_argument("first");
                     executed.fetch_add(1);
                   },
                   /*grain=*/100),
               std::invalid_argument);
  EXPECT_EQ(executed.load(), 0);
}

TEST(ThreadPool, ParallelPathShortCircuitsAndKeepsFirstError) {
  // Occupy the only worker so the caller claims every chunk in order;
  // the failure at chunk 0 must skip all later chunks and the error
  // that propagates is the first one recorded.
  ThreadPool pool(1);
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  pool.submit([gate] { gate.wait(); });

  std::atomic<int> executed{0};
  try {
    pool.parallelFor(
        0, 64,
        [&](std::size_t i) {
          if (i == 0) throw std::out_of_range("chunk0");
          executed.fetch_add(1);
        },
        /*grain=*/8);
    FAIL() << "expected out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_STREQ(e.what(), "chunk0");
  }
  EXPECT_EQ(executed.load(), 0);
  release.set_value();
  pool.wait();
}

TEST(ThreadPool, ExplicitGrainCoversRangeExactlyOnce) {
  ThreadPool pool(3);
  for (std::size_t grain : {1u, 3u, 7u, 50u, 1000u}) {
    std::vector<std::atomic<int>> hits(101);
    pool.parallelFor(
        3, 104, [&](std::size_t i) { hits[i - 3].fetch_add(1); }, grain);
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1) << "grain=" << grain;
  }
}

// --- mathutil ---

TEST(MathUtil, IsPowerOfTwo) {
  EXPECT_TRUE(isPowerOfTwo(1));
  EXPECT_TRUE(isPowerOfTwo(2));
  EXPECT_TRUE(isPowerOfTwo(1024));
  EXPECT_FALSE(isPowerOfTwo(0));
  EXPECT_FALSE(isPowerOfTwo(3));
  EXPECT_FALSE(isPowerOfTwo(1023));
}

TEST(MathUtil, NextPowerOfTwo) {
  EXPECT_EQ(nextPowerOfTwo(1), 1u);
  EXPECT_EQ(nextPowerOfTwo(2), 2u);
  EXPECT_EQ(nextPowerOfTwo(3), 4u);
  EXPECT_EQ(nextPowerOfTwo(1025), 2048u);
}

TEST(MathUtil, CeilDiv) {
  EXPECT_EQ(ceilDiv(10, 5), 2u);
  EXPECT_EQ(ceilDiv(11, 5), 3u);
  EXPECT_EQ(ceilDiv(1, 32), 1u);
}

TEST(MathUtil, DivisorsOf) {
  EXPECT_EQ(divisorsOf(12), (std::vector<std::uint64_t>{1, 2, 3, 4, 6, 12}));
  EXPECT_EQ(divisorsOf(1), (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(divisorsOf(16), (std::vector<std::uint64_t>{1, 2, 4, 8, 16}));
  EXPECT_EQ(divisorsOf(7), (std::vector<std::uint64_t>{1, 7}));
}

}  // namespace
}  // namespace ep
