// Small statistics helpers used by the experiment harnesses (mean of 5 runs,
// best of 5 runs, convergence series aggregation).
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

namespace gapart {

/// Welford-style running accumulator: numerically stable mean/variance plus
/// min/max, without storing samples.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Summary of a finished sample set.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double median = 0.0;
  double p25 = 0.0;  ///< quantile(samples, 0.25)
  double p75 = 0.0;  ///< quantile(samples, 0.75)
};

/// Computes the full summary of `samples` (copies to sort for the quantiles).
Summary summarize(const std::vector<double>& samples);

/// Median of `samples` (copies to sort); 0 for an empty vector.
double median(std::vector<double> samples);

/// q-quantile of `samples` for q in [0, 1] (copies to sort), linearly
/// interpolated between order statistics; 0 for an empty vector.  The exact
/// (O(n log n), raw-sample) tool for bench harnesses and tests; the service
/// layer reports its latency percentiles from the mergeable LogHistogram in
/// common/telemetry.hpp instead (bounded memory, composable across sessions,
/// relative error <= 12.5% — one log bucket).
double quantile(std::vector<double> samples, double q);

/// Element-wise mean of several equal-length series (e.g. best-fitness vs
/// generation over 5 GA runs).  Shorter series are padded with their final
/// value, matching how convergence plots treat early-stopped runs.
std::vector<double> mean_series(const std::vector<std::vector<double>>& runs);

}  // namespace gapart
