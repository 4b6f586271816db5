#pragma once

// Tile-interference race prover — the third statics pass: the task
// executor's race-freedom, restated as a static theorem instead of a TSan
// observation.
//
// The engine builds one core::TilePlan per temporally blocked run, proves
// it here and then executes that same object (core/tile_plan.hpp). Each
// band of a plan runs as a DAG of tasks, and two tasks with *no path* in
// the band's DAG may execute concurrently — so the proof obligation,
// checked for every band, is:
//
//   for every unordered task pair (a, b): the write footprint of `a` is
//   disjoint from both the write and the read footprint of `b` (and
//   symmetrically), where footprints are concrete (time-slot, x-range,
//   y-range) boxes derived from the plan's clipped rects and the kernel's
//   access shape.
//
// Task order is the transitive closure of the band's own TaskDag. At
// substep t a task writes its field's circular buffer slot (t+write_dt)
// mod slots over the rect, reads slots (t+k) mod slots (k in time_reads)
// over the rect grown by the stencil radius, and — when receivers are
// gathered — reads the freshly written slot over the rect (the
// fused_sample staging). The slot arithmetic is what makes the circular
// TimeBuffer aliasing (slice t and slice t + slots share storage) part of
// the theorem rather than an unmodelled hazard. A kernel that leapfrogs in
// place (AccessSummary::slots) keeps fewer slots than offsets, so its
// write lands on the slice of its deepest read; its footprint reads that
// history at the point only, exactly as analysis::stencil_accesses
// expands the summary.
//
// The cross-check against the dynamic evidence (the TSan lane,
// parallel_determinism_test) is an acceptance criterion of the statics
// layer: the prover must return race-free exactly where TSan observes no
// race.

#include <string>
#include <vector>

#include "tempest/analysis/access.hpp"
#include "tempest/analysis/legality.hpp"
#include "tempest/core/tile_plan.hpp"
#include "tempest/util/error.hpp"

namespace tempest::analysis::statics {

/// What one substep of a task touches, in the units of the plan it is
/// checked against (substeps; for single-substep kernels a substep is a
/// timestep).
struct Footprint {
  int radius = 2;          ///< stencil halo reach (read grow)
  int write_dt = 1;        ///< written slice offset from the substep index
  std::vector<int> time_reads{0, -1};  ///< read slice offsets
  bool receivers = false;  ///< model the fused gather's in-rect read
  /// Circular-buffer depth. 0 keeps one slot per slice offset spanned
  /// (analysis::slices_spanned) and grows every read by `radius`, a model
  /// that holds for any kernel. A kernel's declared depth
  /// (AccessSummary::slots) grows only time_reads[0] by `radius` and reads
  /// the deeper slices at the point, as analysis::stencil_accesses expands
  /// the summary.
  int slots = 0;
};

/// One band described by a schedule descriptor, tile sizes and a domain,
/// for the sweep tools: prove_race_free(TileModel) builds the one-band plan
/// that starts at substep 0 over the full nx x ny lattice and proves it.
struct TileModel : Footprint {
  /// Family + skew slope (grid points per substep) + band height
  /// (substeps). Reference is one serial sweep; SpaceBlocked one substep of
  /// unordered tile_x x tile_y blocks.
  ScheduleDescriptor schedule;
  int tile_x = 64;
  int tile_y = 64;
  int nx = 192;  ///< domain extent in x (y mirrors via ny)
  int ny = 192;

  /// Build the model for a kernel summary under a schedule descriptor
  /// (descriptor units: the summary's per-timestep reach).
  [[nodiscard]] static TileModel from_summary(const AccessSummary& summary,
                                              const ScheduleDescriptor& sched,
                                              int tile_x = 64, int tile_y = 64,
                                              int nx = 192, int ny = 192,
                                              bool receivers = false);
};

/// Verdict of the interference proof for one plan.
struct InterferenceReport {
  ScheduleDescriptor schedule;
  int tasks = 0;                 ///< tasks summed over every band proven
  long long unordered_pairs = 0; ///< pairs with no DAG path (checked)
  int conflicts = 0;             ///< overlapping footprint pairs found
  std::vector<Diagnostic> diagnostics;

  [[nodiscard]] bool race_free() const { return conflicts == 0; }
  [[nodiscard]] std::string str() const;
};

/// Check the write/write and write/read footprint disjointness obligation
/// for every unordered task pair of every band of `plan`.
[[nodiscard]] InterferenceReport prove_race_free(const core::TilePlan& plan,
                                                 const Footprint& footprint);

/// The same proof on the one-band plan `model` describes.
[[nodiscard]] InterferenceReport prove_race_free(const TileModel& model);

/// Thrown by the engine's pre-run gate when the proof fails; carries the
/// report with the offending tile pairs named.
class TileInterferenceError : public util::PreconditionError {
 public:
  explicit TileInterferenceError(InterferenceReport report);
  [[nodiscard]] const InterferenceReport& report() const { return report_; }

 private:
  InterferenceReport report_;
};

/// Throw TileInterferenceError unless the report is race-free.
void require_race_free(const InterferenceReport& report);

}  // namespace tempest::analysis::statics
