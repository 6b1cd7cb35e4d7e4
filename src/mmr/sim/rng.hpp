// Deterministic pseudo-random number generation (xoshiro256++), seeded via
// SplitMix64.  Every stochastic component of the simulator owns its own Rng
// stream derived from (master seed, component id) so that runs are exactly
// reproducible regardless of sweep parallelism or component count.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "mmr/sim/assert.hpp"

namespace mmr {

namespace snapshot {
class Walker;
}

/// SplitMix64 step; used for seeding and cheap hashing of stream ids.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state);

/// Derives a decorrelated seed from (seed, a, b), running every input
/// through the full SplitMix64 finalizer.  Unlike XOR-of-small-multiples,
/// nearby (a, b) pairs land on unrelated seeds and can never cancel.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a,
                                     std::uint64_t b);

/// xoshiro256++ generator.  Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds from a master seed and a stream id (component identity).
  explicit Rng(std::uint64_t seed, std::uint64_t stream = 0);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() { return next(); }
  /// Inline, like uniform(): the arbiters draw tie-breaks in their loops.
  std::uint64_t next() {
    const std::uint64_t result = std::rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound).  bound must be > 0.
  std::uint64_t uniform(std::uint64_t bound) {
    MMR_ASSERT(bound > 0);
    // Lemire's unbiased bounded generation (rejection on the low product
    // half).
    __extension__ using uint128 = unsigned __int128;
    while (true) {
      const std::uint64_t x = next();
      const uint128 m = static_cast<uint128>(x) * static_cast<uint128>(bound);
      const auto low = static_cast<std::uint64_t>(m);
      if (low >= bound || low >= (-bound) % bound) {
        return static_cast<std::uint64_t>(m >> 64);
      }
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_range(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform_real();

  /// Uniform double in [lo, hi).
  double uniform_real(double lo, double hi);

  /// Bernoulli trial.
  bool chance(double p);

  /// Exponentially distributed with the given mean (> 0).
  double exponential(double mean);

  /// Normal via Box-Muller (no cached second value; cheap enough here).
  double normal(double mean, double stddev);

  /// Lognormal parameterised by the mean and coefficient of variation of the
  /// *resulting* distribution (not of the underlying normal).
  double lognormal_mean_cv(double mean, double cv);

  /// Index drawn proportionally to `weights` (all >= 0, sum > 0).
  std::size_t weighted_index(const std::vector<double>& weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      using std::swap;
      swap(v[i - 1], v[uniform(i)]);
    }
  }

  /// Derives an independent child stream (for sub-components).
  [[nodiscard]] Rng fork(std::uint64_t stream) const;

  /// Serializes the full generator state (position in the stream included).
  void snap(snapshot::Walker& w);

 private:
  std::uint64_t s_[4];
  std::uint64_t seed_;
  std::uint64_t stream_;
};

}  // namespace mmr
