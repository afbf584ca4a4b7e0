// Streaming statistics, confidence intervals, and histograms used to
// aggregate Monte-Carlo experiment outcomes.
#pragma once

#include <cstddef>
#include <vector>

namespace ct::util {

/// Running count, mean (Welford's incremental update), min and max.
class RunningStats {
 public:
  void add(double x) noexcept;

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ > 0 ? mean_ : 0.0; }
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Two-sided confidence interval [lo, hi].
struct Interval {
  double lo = 0.0;
  double hi = 0.0;
  bool contains(double x) const noexcept { return x >= lo && x <= hi; }
  double width() const noexcept { return hi - lo; }
};

/// Wilson score interval for a binomial proportion: `successes` out of `n`
/// at confidence level `z` standard deviations (default 1.96 ~ 95%).
/// Behaves sensibly for p near 0 or 1, unlike the normal approximation —
/// important here because several paper outcomes are exactly 0% or 100%.
Interval wilson_interval(std::size_t successes, std::size_t n,
                         double z = 1.96) noexcept;

/// Exact (Clopper-Pearson) two-sided binomial CI for `successes` out of
/// `n` at `confidence` (default 95%). Inverts the regularized incomplete
/// beta function by bisection; conservative by construction — coverage is
/// AT LEAST `confidence` for every true p, which is the guarantee the
/// quarantine mass bounds need (a Wilson interval can undercover at the
/// extreme p values the paper's outcomes actually produce).
Interval clopper_pearson_interval(std::size_t successes, std::size_t n,
                                  double confidence = 0.95) noexcept;

/// Fixed-width histogram over [lo, hi); samples outside the range are
/// counted in saturated edge bins so nothing is silently dropped.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x) noexcept;
  std::size_t bin_count(std::size_t bin) const;
  std::size_t bins() const noexcept { return counts_.size(); }
  std::size_t total() const noexcept { return total_; }
  /// Left edge of bin `i`.
  double bin_lo(std::size_t i) const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

/// Exact empirical quantile of a sample (copies and sorts). q in [0,1].
double exact_quantile(std::vector<double> values, double q);

}  // namespace ct::util
