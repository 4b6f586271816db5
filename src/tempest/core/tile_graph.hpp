#pragma once

// engine::TileGraph — the legality and write-radius gate in front of the
// task-parallel temporally blocked schedules. analysis:: makes the paper's
// legality argument a machine-checked theorem (every dependence distance of
// the canonical fused nest is bounded by slope*dt); derive() runs that
// verifier on the exact nest the executor implements, so an illegal
// schedule throws before any task exists. The band task graphs themselves
// come from core::TilePlan (tile_plan.hpp), and this is why they suffice:
//
// Skew by `slope` grid points per substep and consider any dependence (src
// substep s, dst substep s+dt, spatial distance d with |d| <= reach <=
// slope*dt). The skewed offset of the dst point relative to the src point
// is d + slope*dt, which lies in [slope*dt - reach, slope*dt + reach] —
// componentwise NON-NEGATIVE. Every dependence the legality verifier
// accepts therefore points from a tile to itself or to a tile with
// componentwise greater-or-equal (x', y') indices. Tiles execute their
// substep range atomically with t ascending, so:
//   * same-tile dependences are respected by the in-tile t order;
//   * cross-tile dependences are respected by ANY execution order that runs
//     tile (i', j') after every tile (i, j) with i <= i', j <= j' — and the
//     staircase generating set {(i-1, j) -> (i, j), (i, j-1) -> (i, j)}
//     enforces exactly that transitively, with at most two predecessors per
//     task — the minimal generating set, so the executor's in-degree walk
//     touches the fewest edges;
//   * dependences with dt >= tile_t cross the band barrier (bands are
//     serial).
// Diamond bands get the analogous two-predecessor graph: peaks are mutually
// independent, each valley waits for its two adjacent peaks (legal because
// width >= 2*slope*height keeps every valley read inside those peaks).
//
// Two residual conflicts survive the skew argument and are handled outside
// the task graph:
//   * receiver gathers accumulate into rec[t][r] from many columns — an
//     output dependence the access model cannot bound (r is indirected).
//     The engine *stages* per-point samples (each (t, id) written by exactly
//     one tile) and reduces them in ascending id order at the band barrier,
//     making the gather bitwise identical at every thread count;
//   * a kernel whose write footprint leaves the iteration point would make
//     adjacent tiles race regardless of the read-side skew; derive()
//     rejects write_radius > 0.

#include "tempest/analysis/legality.hpp"
#include "tempest/core/tile_plan.hpp"
#include "tempest/grid/extents.hpp"

namespace tempest::core::engine {

class TileGraph {
 public:
  /// Gate a temporally blocked tiling of `kernel`'s canonical stage-2
  /// (fused + compressed) nest: throws util::PreconditionError when the
  /// kernel declares write_radius > 0, and runs the schedule-legality
  /// verifier on the nest's dependence graph — an illegal schedule throws
  /// ScheduleLegalityError. `sched.kind` selects the band family
  /// (Wavefront/Fused or Diamond). The engine always verifies; `verify =
  /// false` skips the legality verifier but keeps the write-radius check,
  /// and stays because perfbench's tile-graph probe passes it.
  static TileGraph derive(const analysis::AccessSummary& kernel,
                          const analysis::ScheduleDescriptor& sched,
                          bool sources, bool receivers, const TileSpec& tiles,
                          bool verify = true);
};

/// Build the wave-front TilePlan and execute it: the tiles of each band run
/// as a TaskDag under `threads` workers. `graph` is the gate derive()
/// passed. With threads == 1 this is the exact serial reference order.
template <typename BlockFn, typename BandFn = NoBandCallback>
void run_wavefront_tasks(const grid::Extents3& e, int t_begin, int t_end,
                         int slope, const TileSpec& spec,
                         const TileGraph& /*graph*/, int threads, BlockFn&& fn,
                         BandFn&& on_band = BandFn{}) {
  execute(TilePlan::wavefront(e, t_begin, t_end, slope, spec), threads, fn,
          on_band);
}

/// Build the diamond TilePlan and execute it: each band's peak/valley
/// triangles run as a TaskDag, valleys as soon as their two peaks are done.
template <typename BlockFn, typename BandFn = NoBandCallback>
void run_diamond_tasks(const grid::Extents3& e, int t_begin, int t_end,
                       int slope, const DiamondSpec& spec, int threads,
                       BlockFn&& fn, BandFn&& on_band = BandFn{}) {
  execute(TilePlan::diamond(e, t_begin, t_end, slope, spec), threads, fn,
          on_band);
}

}  // namespace tempest::core::engine
