// Measurement helpers for the end-to-end delta benchmark: clocks, spans the
// benchmark records around its calls into the library, registry histogram
// marks, sample statistics, correctness bookkeeping and the JSON report.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/telemetry.hpp"

namespace e2ebench {

/// Seconds on a steady clock.
double now_seconds();

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

/// Benchmark-side span: appends one Chrome trace event named `name` (a
/// string literal) covering its lifetime when the tracer is on.  Library
/// spans nest inside it on the same thread, so the trace report can take
/// each layer's self time.
class BenchSpan {
 public:
  explicit BenchSpan(const char* name);
  ~BenchSpan();
  BenchSpan(const BenchSpan&) = delete;
  BenchSpan& operator=(const BenchSpan&) = delete;

 private:
  const char* name_;
  double start_us_;
};

/// (count, sum) of one registry histogram at a point in time; the
/// difference of two marks is the histogram of the interval between them.
struct HistMark {
  std::uint64_t count = 0;
  double sum = 0.0;

  static HistMark of(const std::string& name);
  /// Mean sample over (earlier, this], in the histogram's unit.
  double mean_since(const HistMark& earlier) const;
  std::uint64_t count_since(const HistMark& earlier) const {
    return count - earlier.count;
  }
};

double median(std::vector<double> v);

/// The highest of p99 / p90 / p75 with at least ten samples beyond it
/// (nearest-rank).  `percentile` is 0 when no percentile qualifies.
struct Tail {
  double value = 0.0;
  int percentile = 0;
  std::size_t beyond = 0;
};
Tail tail_of(std::vector<double> v);

/// Correctness bookkeeping: every check is an attempted operation, every
/// failed one a failed operation.
struct Checks {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;

  void expect(bool ok, const std::string& what);
  void fail(const std::string& what) { expect(false, what); }
};

/// Flat, ordered name -> number map printed as a JSON object.
class Metrics {
 public:
  void set(const std::string& name, double value);
  std::string json() const;

 private:
  std::vector<std::pair<std::string, double>> values_;
};

std::string json_string(const std::string& s);

}  // namespace e2ebench
