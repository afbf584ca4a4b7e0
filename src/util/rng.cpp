#include "util/rng.h"

#include <cassert>
#include <cmath>
#include <numbers>

namespace ct::util {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t hash_name(std::string_view name) noexcept {
  std::uint64_t h = 0xCBF29CE484222325ULL;  // FNV offset basis
  for (const char c : name) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 0x100000001B3ULL;  // FNV prime
  }
  std::uint64_t state = h;
  return splitmix64(state);
}

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Xoshiro256::Xoshiro256(std::uint64_t seed) noexcept {
  std::uint64_t state = seed;
  for (auto& word : s_) word = splitmix64(state);
}

std::uint64_t Xoshiro256::next() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

Rng Rng::child(std::string_view stream, std::uint64_t index) const noexcept {
  std::uint64_t mix = base_seed_ ^ hash_name(stream);
  mix ^= 0x9E3779B97F4A7C15ULL + index;
  std::uint64_t state = mix;
  return Rng(splitmix64(state));
}

double Rng::uniform() noexcept {
  // 53 random mantissa bits -> uniform in [0, 1).
  return static_cast<double>(gen_.next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  assert(lo <= hi);
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>(gen_.next());  // full range
  // Lemire's unbiased bounded generation (rejection on the low word).
  std::uint64_t x = gen_.next();
  __uint128_t m = static_cast<__uint128_t>(x) * range;
  auto low = static_cast<std::uint64_t>(m);
  if (low < range) {
    const std::uint64_t threshold = (0 - range) % range;
    while (low < threshold) {
      x = gen_.next();
      m = static_cast<__uint128_t>(x) * range;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return lo + static_cast<std::int64_t>(m >> 64);
}

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box–Muller; u1 in (0,1] to avoid log(0).
  const double u1 = 1.0 - uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

double Rng::truncated_normal(double mean, double stddev, double lo,
                             double hi) noexcept {
  assert(lo <= hi);
  for (int attempt = 0; attempt < 1000; ++attempt) {
    const double x = normal(mean, stddev);
    if (x >= lo && x <= hi) return x;
  }
  // Pathological bounds (many sigma from the mean): fall back to uniform so
  // we still terminate with a value in range.
  return uniform(lo, hi);
}

double Rng::exponential(double mean) noexcept {
  if (mean <= 0.0) return 0.0;
  // uniform() is in [0, 1); 1 - u is in (0, 1], so log is finite.
  return -mean * std::log(1.0 - uniform());
}

bool Rng::bernoulli(double p) noexcept { return uniform() < p; }

}  // namespace ct::util
