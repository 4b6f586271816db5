#pragma once

#include <chrono>

namespace tempest::util {

/// Monotonic wall-clock stopwatch used by benchmarks and the autotuner.
class Timer {
 public:
  using clock = std::chrono::steady_clock;

  Timer() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  [[nodiscard]] double milliseconds() const { return seconds() * 1e3; }

 private:
  clock::time_point start_;
};

}  // namespace tempest::util
