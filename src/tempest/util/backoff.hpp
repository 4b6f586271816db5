#pragma once

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>

#include "tempest/util/env.hpp"
#include "tempest/util/rng.hpp"

namespace tempest::util {

/// Bounded exponential backoff with deterministic jitter — the one retry
/// policy shared by every layer that retries (the JIT compiler driver, the
/// jobs runtime). Delays grow as base_ms * 2^(retry-1), are clamped to
/// max_ms, and are then scattered by ±jitter deterministically: the jitter
/// stream is SplitMix64 seeded from (seed ^ retry), so two runs with the
/// same policy produce byte-identical schedules — a retried run is as
/// reproducible as an uninterrupted one.
struct BackoffPolicy {
  int max_attempts = 3;    ///< total attempts, including the first
  double base_ms = 50.0;   ///< delay before the first retry
  double max_ms = 5000.0;  ///< ceiling on any single delay
  double jitter = 0.25;    ///< ± fraction scattered around the nominal delay
  std::uint64_t seed = 0x74656d7065737421ull;  ///< jitter stream seed

  /// Delay (ms) before retry number `retry` (1 = first retry). Deterministic
  /// for a given policy: no global state, no wall clock.
  [[nodiscard]] double delay_ms(int retry) const {
    if (retry < 1) return 0.0;
    double nominal = base_ms;
    for (int i = 1; i < retry && nominal < max_ms; ++i) nominal *= 2.0;
    nominal = std::min(nominal, max_ms);
    SplitMix64 rng(seed ^ static_cast<std::uint64_t>(retry));
    const double factor = 1.0 - jitter + 2.0 * jitter * rng.uniform();
    return nominal * factor;
  }

  /// Environment-driven override: `<PREFIX>_RETRIES` replaces max_attempts
  /// (total attempts) and `<PREFIX>_RETRY_BASE_MS` replaces base_ms, each
  /// read by util::env_int / env_double: a value that is not a positive
  /// number is ignored, so a typo degrades to the compiled-in default
  /// instead of disabling retries.
  [[nodiscard]] static BackoffPolicy from_env(const std::string& prefix,
                                              BackoffPolicy def);
  [[nodiscard]] static BackoffPolicy from_env(const std::string& prefix) {
    return from_env(prefix, BackoffPolicy{});
  }
};

inline BackoffPolicy BackoffPolicy::from_env(const std::string& prefix,
                                             BackoffPolicy def) {
  def.max_attempts =
      env_int((prefix + "_RETRIES").c_str()).value_or(def.max_attempts);
  def.base_ms =
      env_double((prefix + "_RETRY_BASE_MS").c_str()).value_or(def.base_ms);
  return def;
}

/// The one place retry delays turn into real time, so tests can keep their
/// policies at base_ms = 1 and stay fast.
inline void sleep_ms(double ms) {
  if (ms <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

}  // namespace tempest::util
