// Deterministic random number generation for reproducible experiments.
//
// All stochastic components of the framework (storm-track perturbation,
// surge noise, attacker tie-breaking in randomized tests) draw from Rng so
// that a (seed, stream-name) pair fully determines an experiment. This is
// what makes 1000-realization runs replayable bit-for-bit.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

namespace ct::util {

/// SplitMix64: used to seed the main generator and to hash stream names.
/// Reference: Steele, Lea, Flood, "Fast splittable pseudorandom number
/// generators", OOPSLA 2014.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Stable 64-bit hash of a string, used to derive independent named streams
/// from a base seed (FNV-1a finished with a splitmix64 avalanche).
std::uint64_t hash_name(std::string_view name) noexcept;

/// xoshiro256** 1.0 (Blackman & Vigna). Fast, 256-bit state, passes BigCrush.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words from `seed` via splitmix64 (as recommended
  /// by the xoshiro authors; avoids all-zero states).
  explicit Xoshiro256(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  std::uint64_t next() noexcept;

  // UniformRandomBitGenerator interface so <random> distributions also work.
  std::uint64_t operator()() noexcept { return next(); }
  static constexpr std::uint64_t min() noexcept { return 0; }
  static constexpr std::uint64_t max() noexcept { return ~0ULL; }

 private:
  std::array<std::uint64_t, 4> s_{};
};

/// High-level generator with the distributions the framework needs.
///
/// A named substream (`Rng(seed, "surge-noise")`) is statistically
/// independent of any other name, so adding a new consumer of randomness
/// never perturbs existing experiment outputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : gen_(seed), base_seed_(seed) {}
  Rng(std::uint64_t seed, std::string_view stream) noexcept
      : Rng(seed ^ hash_name(stream)) {}

  /// Derives an independent child generator; `index` distinguishes e.g.
  /// per-realization streams.
  Rng child(std::string_view stream, std::uint64_t index = 0) const noexcept;

  std::uint64_t next_u64() noexcept { return gen_.next(); }

  /// Uniform double in [0, 1).
  double uniform() noexcept;
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;
  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;
  /// Standard normal via Box–Muller (cached second variate).
  double normal() noexcept;
  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev) noexcept;
  /// Normal truncated (by rejection) to [lo, hi].
  double truncated_normal(double mean, double stddev, double lo,
                          double hi) noexcept;
  /// Exponential with the given mean (rate 1/mean); 0 for mean <= 0.
  double exponential(double mean) noexcept;
  /// Bernoulli trial.
  bool bernoulli(double p) noexcept;

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j =
          static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  std::uint64_t base_seed() const noexcept { return base_seed_; }

 private:
  Xoshiro256 gen_;
  std::uint64_t base_seed_ = 0;
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace ct::util
