// Retry with exponential backoff for transient failures (log I/O hiccups,
// momentary resource exhaustion).
//
// The loop is deliberately tiny and fully parameterized: the sleeper is
// injectable so tests drive the schedule without real sleeping, and only
// gapart::IoError is treated as transient — contract violations
// (gapart::Error) and programming errors propagate on the first throw, so a
// retry loop can never paper over a real bug.
#pragma once

#include <utility>

#include "common/assert.hpp"

namespace gapart {

struct BackoffPolicy {
  /// Total attempts (first try + retries).  Must be >= 1.
  int max_attempts = 8;
  /// Sleep before the first retry, in seconds; it doubles after every retry.
  double initial_seconds = 1e-4;
  /// Sleep cap in seconds.
  double max_seconds = 0.05;
};

/// Blocking sleep used as the default sleeper (std::this_thread::sleep_for).
void sleep_for_seconds(double seconds);

/// Runs `fn` up to policy.max_attempts times, sleeping an exponentially
/// growing interval between attempts via `sleeper(seconds)`.  Only IoError is
/// retried; the last IoError is rethrown once attempts are exhausted.
/// Returns the number of retries that were needed (0 = first try succeeded).
template <typename Fn, typename Sleeper>
int retry_with_backoff(const BackoffPolicy& policy, Fn&& fn,
                       Sleeper&& sleeper) {
  GAPART_REQUIRE(policy.max_attempts >= 1, "max_attempts must be >= 1, got ",
                 policy.max_attempts);
  double delay = policy.initial_seconds;
  for (int attempt = 1;; ++attempt) {
    try {
      fn();
      return attempt - 1;
    } catch (const IoError&) {
      if (attempt >= policy.max_attempts) throw;
    }
    sleeper(delay);
    delay = delay * 2.0;
    if (delay > policy.max_seconds) delay = policy.max_seconds;
  }
}

template <typename Fn>
int retry_with_backoff(const BackoffPolicy& policy, Fn&& fn) {
  return retry_with_backoff(policy, std::forward<Fn>(fn), sleep_for_seconds);
}

}  // namespace gapart
