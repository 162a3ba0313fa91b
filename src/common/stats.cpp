#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

namespace gapart {

void RunningStats::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double median(std::vector<double> samples) {
  // The 0.5-quantile interpolates the two middle order statistics for even
  // n and picks the middle element for odd n — exactly the median.
  return quantile(std::move(samples), 0.5);
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

Summary summarize(const std::vector<double>& samples) {
  Summary s;
  RunningStats rs;
  for (double x : samples) rs.add(x);
  s.count = rs.count();
  s.mean = rs.mean();
  s.stddev = rs.stddev();
  s.min = rs.min();
  s.max = rs.max();
  s.median = median(samples);
  s.p25 = quantile(samples, 0.25);
  s.p75 = quantile(samples, 0.75);
  return s;
}

std::vector<double> mean_series(const std::vector<std::vector<double>>& runs) {
  std::size_t len = 0;
  for (const auto& r : runs) len = std::max(len, r.size());
  std::vector<double> out(len, 0.0);
  if (runs.empty()) return out;
  for (const auto& r : runs) {
    for (std::size_t i = 0; i < len; ++i) {
      const double v = r.empty() ? 0.0 : (i < r.size() ? r[i] : r.back());
      out[i] += v;
    }
  }
  for (auto& v : out) v /= static_cast<double>(runs.size());
  return out;
}

}  // namespace gapart
