#include "util/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace ct::util {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
}

Interval wilson_interval(std::size_t successes, std::size_t n,
                         double z) noexcept {
  if (n == 0) return {0.0, 1.0};
  const double nn = static_cast<double>(n);
  const double p = static_cast<double>(successes) / nn;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / nn;
  const double center = (p + z2 / (2.0 * nn)) / denom;
  const double half =
      z * std::sqrt(p * (1.0 - p) / nn + z2 / (4.0 * nn * nn)) / denom;
  return {std::max(0.0, center - half), std::min(1.0, center + half)};
}

namespace {

/// Regularized incomplete beta I_x(a, b) via the Lentz continued fraction
/// (Numerical Recipes form). Good to ~1e-12 over the (a, b) range binomial
/// CIs produce; that is far below the quantile bisection tolerance.
double incomplete_beta(double a, double b, double x) noexcept {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  // The continued fraction converges fast only for x < (a+1)/(a+b+2);
  // otherwise use the symmetry I_x(a,b) = 1 - I_{1-x}(b,a).
  if (x > (a + 1.0) / (a + b + 2.0)) {
    return 1.0 - incomplete_beta(b, a, 1.0 - x);
  }
  const double ln_front = std::lgamma(a + b) - std::lgamma(a) -
                          std::lgamma(b) + a * std::log(x) +
                          b * std::log1p(-x);
  constexpr double kTiny = 1e-300;
  constexpr double kEps = 1e-14;
  double c = 1.0;
  double d = 1.0 - (a + b) * x / (a + 1.0);
  if (std::fabs(d) < kTiny) d = kTiny;
  d = 1.0 / d;
  double frac = d;
  for (int m = 1; m <= 300; ++m) {
    const double dm = static_cast<double>(m);
    // Even step.
    double num = dm * (b - dm) * x / ((a + 2.0 * dm - 1.0) * (a + 2.0 * dm));
    d = 1.0 + num * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + num / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    frac *= d * c;
    // Odd step.
    num = -(a + dm) * (a + b + dm) * x /
          ((a + 2.0 * dm) * (a + 2.0 * dm + 1.0));
    d = 1.0 + num * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + num / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double delta = d * c;
    frac *= delta;
    if (std::fabs(delta - 1.0) < kEps) break;
  }
  return std::exp(ln_front) * frac / a;
}

/// Quantile of Beta(a, b): smallest x with I_x(a, b) >= p, by bisection.
/// ~60 halvings reach ~1e-18 interval width — beyond double resolution.
double beta_quantile(double p, double a, double b) noexcept {
  double lo = 0.0, hi = 1.0;
  for (int i = 0; i < 64; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (incomplete_beta(a, b, mid) < p) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace

Interval clopper_pearson_interval(std::size_t successes, std::size_t n,
                                  double confidence) noexcept {
  if (n == 0) return {0.0, 1.0};
  if (successes > n) successes = n;
  const double alpha = std::clamp(1.0 - confidence, 1e-12, 1.0);
  const double k = static_cast<double>(successes);
  const double nn = static_cast<double>(n);
  // CP bounds are beta quantiles: lower = B(alpha/2; k, n-k+1),
  // upper = B(1-alpha/2; k+1, n-k), with the exact endpoints at k=0 / k=n.
  const double lo = successes == 0
                        ? 0.0
                        : beta_quantile(alpha / 2.0, k, nn - k + 1.0);
  const double hi = successes == n
                        ? 1.0
                        : beta_quantile(1.0 - alpha / 2.0, k + 1.0, nn - k);
  return {lo, hi};
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0) {
  if (!(hi > lo)) throw std::invalid_argument("Histogram: hi must exceed lo");
  if (bins == 0) throw std::invalid_argument("Histogram: need >= 1 bin");
}

void Histogram::add(double x) noexcept {
  std::size_t bin = 0;
  if (x >= hi_) {
    bin = counts_.size() - 1;
  } else if (x > lo_) {
    bin = static_cast<std::size_t>((x - lo_) / width_);
    bin = std::min(bin, counts_.size() - 1);
  }
  ++counts_[bin];
  ++total_;
}

std::size_t Histogram::bin_count(std::size_t bin) const {
  return counts_.at(bin);
}

double Histogram::bin_lo(std::size_t i) const {
  if (i >= counts_.size()) throw std::out_of_range("Histogram::bin_lo");
  return lo_ + width_ * static_cast<double>(i);
}

double exact_quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("exact_quantile: empty");
  q = std::clamp(q, 0.0, 1.0);
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto i = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(i);
  if (i + 1 >= values.size()) return values.back();
  return values[i] * (1.0 - frac) + values[i + 1] * frac;
}

}  // namespace ct::util
