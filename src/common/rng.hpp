// Deterministic random number generation.
//
// Every stochastic element of the simulation (power-meter noise, utilization
// jitter, measurement repetition) draws from an ep::Rng seeded explicitly by
// the experiment, so that a whole experiment — including its statistics loop —
// is reproducible bit-for-bit.  Streams can be forked so that adding draws in
// one component does not perturb another (a common reproducibility bug).
//
// Contract (pinned by test_common against the std types):
//   * The engine yields exactly std::mt19937_64's sequence for the seed
//     (C++ [rand.predef]).  Its 312-word state is filled from the seed on
//     the first draw, not at construction, so fork(), seed() and copying
//     an Rng that has not drawn yet cost a few words; a copy draws the
//     same stream as its original.
//   * uniform() and uniformInt() are std::uniform_real_distribution and
//     std::uniform_int_distribution running on that engine.
//   * normal() and standardNormals() are libstdc++'s polar method as a
//     fresh std::normal_distribution runs it: each value takes a new
//     (x, y) pair and the spare is discarded.  normal(m, s) is z * s + m.
//     standardNormals() runs it in stages over chunks of pairs, but draws
//     exactly the pairs the one-at-a-time loop draws, so the values and
//     the stream position after the call are the same.
//   * Nothing on the noise path may be fused into an FMA: x*x + y*y or
//     z * s + m rounded once instead of twice changes the bits.  The
//     build compiles everything with -ffp-contract=off, so this holds
//     under -march=native too, and the code calls no fma().
#pragma once

#include <cstddef>
#include <cstdint>

namespace ep {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  // Uniform real in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi);

  // Standard normal scaled: mean + sigma * N(0,1).
  [[nodiscard]] double normal(double mean, double sigma);

  // Fill out[0, n) with N(0,1) draws: bit-identical to n consecutive
  // normal(0, 1) calls, without their per-call overhead.  Each chunk of
  // up to kNormalsChunk values is drawn, accepted, logged and scaled in
  // separate passes, so the engine, the rejection test and glibc's log
  // run at throughput; the rejection test is a vectorized flag and a
  // branch-free compaction, so a rejected pair costs no mispredicted
  // jump.
  void standardNormals(double* out, std::size_t n);
  static constexpr std::size_t kNormalsChunk = 128;

  // Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::uint64_t uniformInt(std::uint64_t lo, std::uint64_t hi);

  // Derive an independent child stream.  Uses splitmix64 over
  // (seed, salt) so forks with different salts are decorrelated.
  [[nodiscard]] Rng fork(std::uint64_t salt) const;

  [[nodiscard]] std::uint64_t seed() const { return engine_.seed(); }

 private:
  // MT19937-64, lazily seeded, twisting all 312 words at once and
  // tempering on output.  A UniformRandomBitGenerator, so the std
  // distributions run on it directly.
  class Engine {
   public:
    using result_type = std::uint64_t;

    explicit Engine(result_type seed) : seed_(seed) {}

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }
    result_type operator()();

    // out[0, n) = std::generate_canonical<double, 53> of the next n
    // outputs, tempered and converted in one pass over the state.
    void canonicals(double* out, std::size_t n);

    [[nodiscard]] result_type seed() const { return seed_; }

   private:
    static constexpr std::size_t kWords = 312;
    static constexpr std::size_t kUnseeded = kWords + 1;

    void refill();  // seed on first use, then twist the whole block

    result_type state_[kWords]{};
    std::size_t next_ = kUnseeded;  // next word of state_ to temper
    result_type seed_;
  };

  Engine engine_;
};

// splitmix64 mixing function; exposed for deterministic hashing needs.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t x);

// Chain a field into a fork-salt/hash accumulator.  Unlike shifting
// fields into disjoint bit ranges and XORing (which collides as soon as
// one field outgrows its range — e.g. large R in a (BS,G,R) key), each
// field passes through the full-avalanche mixer, so any change to any
// field changes the whole word.  Build multi-field salts as
//   h = mix64(mix64(mix64(0, a), b), c)
[[nodiscard]] inline std::uint64_t mix64(std::uint64_t h, std::uint64_t v) {
  return splitmix64(h ^ splitmix64(v));
}

}  // namespace ep
