#include "mmr/sim/rng.hpp"

#include <cmath>
#include <numbers>

#include "mmr/sim/assert.hpp"
#include "mmr/snapshot/walker.hpp"

namespace mmr {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  std::uint64_t state = seed;
  state = splitmix64(state) ^ a;
  state = splitmix64(state) ^ b;
  return splitmix64(state);
}

Rng::Rng(std::uint64_t seed, std::uint64_t stream)
    : seed_(seed), stream_(stream) {
  // Mix seed and stream so that nearby (seed, stream) pairs diverge.
  std::uint64_t sm = seed ^ (stream * 0xD1B54A32D192ED03ULL) ^
                     0x2545F4914F6CDD1DULL;
  for (auto& word : s_) word = splitmix64(sm);
  // xoshiro must not start from the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::int64_t Rng::uniform_range(std::int64_t lo, std::int64_t hi) {
  MMR_ASSERT(lo <= hi);
  const auto span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  return lo + static_cast<std::int64_t>(uniform(span));
}

double Rng::uniform_real() {
  // 53 random bits into [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform_real(double lo, double hi) {
  return lo + (hi - lo) * uniform_real();
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform_real() < p;
}

double Rng::exponential(double mean) {
  MMR_ASSERT(mean > 0.0);
  double u = uniform_real();
  // Avoid log(0).
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

double Rng::normal(double mean, double stddev) {
  double u1 = uniform_real();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = uniform_real();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * mag * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::lognormal_mean_cv(double mean, double cv) {
  MMR_ASSERT(mean > 0.0);
  MMR_ASSERT(cv >= 0.0);
  if (cv == 0.0) return mean;
  // For X ~ LogNormal(mu, sigma): E[X] = exp(mu + sigma^2/2),
  // CV^2 = exp(sigma^2) - 1.
  const double sigma2 = std::log1p(cv * cv);
  const double mu = std::log(mean) - 0.5 * sigma2;
  return std::exp(normal(mu, std::sqrt(sigma2)));
}

std::size_t Rng::weighted_index(const std::vector<double>& weights) {
  MMR_ASSERT(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    MMR_ASSERT(w >= 0.0);
    total += w;
  }
  MMR_ASSERT(total > 0.0);
  double x = uniform_real() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0.0) return i;
  }
  return weights.size() - 1;  // floating-point edge: land on the last bucket
}

void Rng::snap(snapshot::Walker& w) {
  for (auto& word : s_) snapshot::value(w, word);
  snapshot::value(w, seed_);
  snapshot::value(w, stream_);
}

Rng Rng::fork(std::uint64_t stream) const {
  // Children are derived from the *identity* of this stream, not its current
  // position, so forking is insensitive to how many numbers were drawn.
  return Rng(seed_ ^ std::rotl(stream_, 32) ^ 0xA5A5A5A55A5A5A5AULL, stream);
}

}  // namespace mmr
