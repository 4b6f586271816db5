#pragma once

#include <functional>
#include <string>
#include <vector>

#include "tempest/core/wavefront.hpp"
#include "tempest/grid/extents.hpp"
#include "tempest/perf/pmu.hpp"

namespace tempest::autotune {

/// One evaluated tile/block configuration.
struct Candidate {
  core::TileSpec spec;
  double seconds = 0.0;  ///< measured propagation wall time
  bool failed = false;   ///< trial threw, or timed non-finite/negative
  std::string error;     ///< why it failed (exception message or diagnosis)
  /// Hardware-counter delta accumulated over this candidate's trial reps
  /// (zeroed-but-flagged when the PMU is unavailable). Explains *why* a
  /// tile shape wins — e.g. the best shape should show the lowest
  /// LLC-miss traffic per trial, the mechanism Table I rests on.
  perf::pmu::Sample pmu{};
};

/// Outcome of a sweep: every evaluated candidate plus the fastest one.
struct SweepResult {
  Candidate best;
  std::vector<Candidate> evaluated;
};

/// Candidate-generation controls, mirroring the paper's Table I search
/// space: tile_x/tile_y in {32..256}, block_x/block_y in {4..16}, plus the
/// temporal tile height. `symmetric` restricts to tile_x == tile_y and
/// block_x == block_y (the shape almost all of Table I's optima take),
/// shrinking the sweep for quick runs; the full sweep enumerates asymmetric
/// combinations exactly as the paper's exhaustive search does.
struct CandidateSpace {
  std::vector<int> tile_sizes{32, 64, 128, 256};
  std::vector<int> block_sizes{4, 8, 16};
  std::vector<int> tile_t{8};
  bool symmetric = true;
};

/// Enumerate candidate tile specs, dropping shapes larger than the domain
/// (a tile wider than the grid duplicates an existing candidate's behaviour)
/// and blocks larger than their tile.
[[nodiscard]] std::vector<core::TileSpec> candidates(
    const grid::Extents3& extents, const CandidateSpace& space);

/// Measure every candidate with `measure` (returning seconds; lower is
/// better) and return the full record. `repeats` takes the best of N per
/// candidate to suppress timer noise.
///
/// A sweep is only as robust as its worst trial: a candidate whose measure
/// call throws, or that reports a NaN/Inf/negative time, is recorded with
/// `failed = true` and its `error` set, then skipped when picking `best` —
/// one pathological tile shape must not abort an hour-long sweep. Throws
/// PreconditionError only when *every* candidate fails, with the first
/// failure's message for diagnosis.
[[nodiscard]] SweepResult sweep(
    const std::vector<core::TileSpec>& specs,
    const std::function<double(const core::TileSpec&)>& measure,
    int repeats = 1);

}  // namespace tempest::autotune
