#pragma once

#include <array>
#include <cstdint>

#include "tempest/obs/histogram.hpp"

namespace tempest::obs {

/// The runtime's latency distributions. Every metric is a Histogram of
/// nanosecond durations with the shared fixed bucket layout. The samples
/// live in the telemetry runtime's per-thread registry (tempest::trace) and
/// are merged on snapshot — so the aggregate is invariant under thread
/// count and merge order (only the wall-clock values themselves vary run to
/// run). Each metric is fed by the one span that times its interval (see
/// trace::ScopedSpan), except ShotSeconds, which the survey computes itself
/// and records with record_ns().
///
///   TileSeconds            one space block handed to a kernel (all
///                          schedules): the "stencil" span
///   SubstepSeconds         one whole-domain substep sweep (barrier
///                          schedules): the "substep" span
///   BandSeconds            one time band (temporal blocking) / one full
///                          timestep including callbacks (barrier
///                          schedules): the band spans and the "step" span
///   ShotSeconds            one winning shot attempt (time loop + precompute)
///   JitCompileSeconds      one codegen::JitModule compile+load: the
///                          "jit.compile" span
///   CheckpointWriteSeconds one resilience::Checkpointer::save: the
///                          "checkpoint.save" span
enum class Metric : int {
  TileSeconds = 0,
  SubstepSeconds,
  BandSeconds,
  ShotSeconds,
  JitCompileSeconds,
  CheckpointWriteSeconds,
};
inline constexpr int kNumMetrics = 6;

/// OpenMetrics-safe base name ("tile_seconds", ...).
[[nodiscard]] constexpr const char* to_string(Metric m) {
  switch (m) {
    case Metric::TileSeconds: return "tile_seconds";
    case Metric::SubstepSeconds: return "substep_seconds";
    case Metric::BandSeconds: return "band_seconds";
    case Metric::ShotSeconds: return "shot_seconds";
    case Metric::JitCompileSeconds: return "jit_compile_seconds";
    case Metric::CheckpointWriteSeconds: return "checkpoint_write_seconds";
  }
  return "?";
}

/// The histogram bit of the telemetry gate word. Off by default; while off,
/// record_ns() and metric spans record nothing.
[[nodiscard]] bool enabled();
void set_enabled(bool on);

/// Record one duration into metric `m` on this thread (no-op while
/// disabled).
void record_ns(Metric m, std::int64_t ns);

/// Merged view of every metric across all threads (including threads that
/// have since exited — their samples are folded into retired accumulators).
/// Call from serial code.
using MetricSnapshot = std::array<Histogram, kNumMetrics>;
[[nodiscard]] MetricSnapshot snapshot_metrics();
[[nodiscard]] Histogram metric_histogram(Metric m);

/// Zero every histogram on every thread.
void reset_metrics();

}  // namespace tempest::obs
