#pragma once

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>

namespace tempest::jobs {

/// Thrown by Watchdog::beat() when the time since the previous beat exceeds
/// the deadline of the steps it covers — the shot is progressing too slowly
/// to be worth finishing at its current schedule (a mis-tuned tile spec, a
/// JIT kernel that pessimised, an overloaded host). Classified as a
/// *degrade* failure: the runner retries the shot one rung down the
/// degradation ladder rather than quarantining it.
class WatchdogTimeoutError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Cooperative per-shot progress watchdog.
///
/// Threadless by design: beat(step) is called from the engine's step
/// callback — after every timestep on barrier schedules, at every band end
/// under wavefront and diamond — and throws when the gap since the previous
/// beat exceeds `timeout_ms` per timestep it covers: a beat k steps after
/// the previous one (or after the run's first step, for the first beat) is
/// allowed k × `timeout_ms`. Throwing from the callback unwinds the shot
/// cleanly — no signals, no racing a detached thread against a live
/// propagator. The trade-off is honesty about scope: a kernel wedged
/// *inside* one timestep or band never reaches the next beat; that failure
/// mode is covered by the process-level chaos/kill layer, which a journaled
/// restart recovers from.
///
/// The clock is injectable so tests drive timeouts deterministically
/// (pass a lambda over a fake now_ms counter).
class Watchdog {
 public:
  using Clock = std::function<double()>;  ///< monotonic milliseconds

  Watchdog(double timeout_ms, Clock clock)
      : timeout_ms_(timeout_ms), clock_(std::move(clock)) {}

  [[nodiscard]] bool enabled() const { return timeout_ms_ > 0.0; }

  /// Start (or restart) the interval measurement at `first_step`, the
  /// first timestep the run computes.
  void start(int first_step) {
    last_step_ = first_step;
    if (enabled()) last_beat_ms_ = clock_();
  }

  /// Record that every timestep before `step` is computed; throws
  /// WatchdogTimeoutError when the gap since the previous beat exceeds
  /// `timeout_ms` times the steps the beat covers.
  void beat(int step) {
    const int steps = std::max(1, step - last_step_);
    last_step_ = step;
    if (!enabled()) return;
    const double now = clock_();
    const double gap = now - last_beat_ms_;
    last_beat_ms_ = now;
    const double deadline = steps * timeout_ms_;
    if (gap > deadline) {
      throw WatchdogTimeoutError(
          "watchdog: " + std::to_string(steps) + " step(s) to step " +
          std::to_string(step) + " took " + std::to_string(gap) +
          " ms (deadline " + std::to_string(deadline) +
          " ms) — degrading to a cheaper schedule");
    }
  }

 private:
  double timeout_ms_;
  Clock clock_;
  double last_beat_ms_ = 0.0;
  int last_step_ = 0;
};

}  // namespace tempest::jobs
