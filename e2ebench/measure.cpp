#include "measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace e2ebench {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

BenchSpan::BenchSpan(const char* name)
    : name_(name), start_us_(gapart::Tracer::instance().now_us()) {}

BenchSpan::~BenchSpan() {
  gapart::Tracer& tracer = gapart::Tracer::instance();
  if (tracer.enabled()) {
    tracer.record(name_, start_us_, tracer.now_us() - start_us_);
  }
}

HistMark HistMark::of(const std::string& name) {
  const gapart::LogHistogram h =
      gapart::TelemetryRegistry::instance().histogram(name).merged();
  return {h.count(), h.sum()};
}

double HistMark::mean_since(const HistMark& earlier) const {
  const std::uint64_t n = count_since(earlier);
  return n == 0 ? 0.0 : (sum - earlier.sum) / static_cast<double>(n);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail_of(std::vector<double> v) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  for (const int p : {99, 90, 75}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(static_cast<double>(p) / 100.0 * static_cast<double>(n)));
    if (rank >= 1 && n - rank >= 10) {
      t.value = v[rank - 1];
      t.percentile = p;
      t.beyond = n - rank;
      return t;
    }
  }
  return t;
}

void Checks::expect(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    if (failures.size() < 16) failures.push_back(what);
  }
}

void Metrics::set(const std::string& name, double value) {
  for (auto& [n, v] : values_) {
    if (n == name) {
      v = value;
      return;
    }
  }
  values_.emplace_back(name, value);
}

std::string Metrics::json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < values_.size(); ++i) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g",
                  std::isfinite(values_[i].second) ? values_[i].second : 0.0);
    if (i > 0) out += ",";
    out += json_string(values_[i].first) + ":" + num;
  }
  return out + "}";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace e2ebench
