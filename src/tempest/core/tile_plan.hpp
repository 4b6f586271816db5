#pragma once

// core::TilePlan — the one description of a run's tile geometry. A plan is
// built once per run by TilePlan::wavefront, TilePlan::diamond or
// TilePlan::space_blocked and then consumed as-is:
//   * core::execute runs it (the engine on every schedule, cachesim's
//     replay, the tests);
//   * analysis::statics::prove_race_free proves it race-free, taking the
//     tile order from the plan's own task graphs;
//   * ops() materializes the serial op sequence validate_schedule checks.
// Nothing else re-derives band, tile or triangle geometry, so the schedule
// that is proven is the schedule that runs.
//
// A plan is a list of bands. A band is the substep range [t0, te) that runs
// as one task graph between barriers. Each task of a band carries the
// clipped rect it computes at every substep, t ascending; its space blocks
// are cut from that rect at execution time. The band's TaskDag orders the
// tasks:
//   * wavefront: tile (i, j) waits for (i-1, j) and (i, j-1) — the staircase
//     whose transitive closure is the componentwise order, enough for any
//     dependence the legality gate accepts (tile_graph.hpp has the proof);
//   * diamond: peaks are independent, valley k waits for peaks k and k+1
//     (width >= 2*slope*height keeps every valley read inside them);
//   * space-blocked: one band per substep, blocks unordered.
// Node ids grow along every edge, so ascending node order is the serial
// reference order that execute(plan, 1, ...) follows.
//
// This header includes nothing from analysis/: the race prover includes it.

#include <string>
#include <vector>

#include "tempest/core/wavefront.hpp"
#include "tempest/grid/blocks.hpp"
#include "tempest/grid/extents.hpp"
#include "tempest/trace/trace.hpp"
#include "tempest/util/threads.hpp"

namespace tempest::core {

/// Diamond/split temporal blocking along x — the alternative
/// temporal-blocking family the paper cites (Bertolacci et al., Malas et
/// al.) and that the precomputation scheme equally legalises. Each band of
/// height T covers x-periods of width W with two kinds of triangle:
///
///   peaks:   contracting, x in [c - W/2 + s*dt, c + W/2 - s*dt)
///   valleys: expanding, filling the complement,
///            x in [c + W/2 - s*dt, c + W/2 + s*dt)
///
/// with dt = t - band_start, slope s >= the stencil radius and W >= 2 s T.
/// y stays unskewed (full extent, cut into blocks); z is the vectorized
/// dimension as everywhere else.
struct DiamondSpec {
  int height = 8;   ///< substeps per band (T)
  int width = 64;   ///< x period (W); must satisfy width >= 2*slope*height
  int block_x = 8;  ///< space-block edge within a triangle slice
  int block_y = 8;

  [[nodiscard]] bool valid_for(int slope) const {
    return height > 0 && block_x > 0 && block_y > 0 &&
           width >= 2 * slope * height && width > 0;
  }
};

/// One task's work at one substep: the clipped, non-empty rect (full z) it
/// computes at substep `t`.
struct TileStep {
  int t = 0;
  grid::Box3 rect;
};

/// One band: substeps [t0, te) run as one task graph between barriers.
struct TileBand {
  int t0 = 0;
  int te = 0;
  /// Row length of the task lattice: node i * nj + j. Wavefront: tile
  /// (i, j) of the skewed lattice; space-blocked: block (i, j); diamond:
  /// i = 0 peaks, i = 1 valleys, j the x-period.
  int nj = 0;
  /// Per node, t ascending. A task whose skewed tile lies outside the domain
  /// for the whole band has no steps but keeps its node in the DAG.
  std::vector<std::vector<TileStep>> tasks;
  util::TaskDag dag;
};

struct TilePlan {
  enum class Kind { SpaceBlocked, Wavefront, Diamond };

  Kind kind = Kind::SpaceBlocked;
  grid::Extents3 extents;
  int slope = 0;  ///< skew in grid points per substep (0: space-blocked)
  int block_x = 8;
  int block_y = 8;
  std::vector<TileBand> bands;

  /// Wave-front temporal blocking (paper Listing 6): the iteration space
  /// skewed by `slope` grid points per substep, tiled in (t, x', y') with
  /// spec.tile_t substeps per band and tile origins snapped to multiples
  /// of the tile size, so tile boundaries are stable across bands.
  [[nodiscard]] static TilePlan wavefront(const grid::Extents3& e,
                                          int t_begin, int t_end, int slope,
                                          const TileSpec& spec);

  /// Diamond temporal blocking; peak bases at -W, 0, W, ... < nx + W.
  [[nodiscard]] static TilePlan diamond(const grid::Extents3& e, int t_begin,
                                        int t_end, int slope,
                                        const DiamondSpec& spec);

  /// The classic (legal-by-construction) schedule: every substep sweeps the
  /// domain in spec.block_x x spec.block_y blocks before the next begins
  /// (paper Fig. 4a).
  [[nodiscard]] static TilePlan space_blocked(const grid::Extents3& e,
                                              int t_begin, int t_end,
                                              const TileSpec& spec);

  /// "tile(i,j)", "peak(k)", "valley(k)" or "block(i,j)".
  [[nodiscard]] std::string task_label(const TileBand& band, int node) const;

  /// The exact (substep, block) sequence execute(*this, 1, ...) performs.
  [[nodiscard]] std::vector<ScheduleOp> ops() const;
};

/// Run `plan`: each band's TaskDag under `threads` workers, fn(t, block) for
/// every space block of every task step, timesteps innermost within a task.
/// `on_band(te)` fires after band [t0, te) drains — every substep < te is
/// then fully computed, the only global barrier temporal blocking offers.
/// One band span (BandSeconds) covers the band's task graph and its
/// on_band. threads == 1 is the bitwise serial reference order.
template <typename BlockFn, typename BandFn = NoBandCallback>
void execute(const TilePlan& plan, int threads, BlockFn&& fn,
             BandFn&& on_band = BandFn{}) {
  [[maybe_unused]] const char* span =
      plan.kind == TilePlan::Kind::Wavefront ? "wavefront.band"
      : plan.kind == TilePlan::Kind::Diamond ? "diamond.band"
                                             : "step";
  for (const TileBand& band : plan.bands) {
    TEMPEST_TRACE_SPAN_ARG_METRIC(span, "schedule", band.te, BandSeconds);
    band.dag.run(threads, [&](int node) {
      const std::vector<TileStep>& steps =
          band.tasks[static_cast<std::size_t>(node)];
      for (const TileStep& step : steps) {
        [[maybe_unused]] const int blocks = grid::for_each_block(
            step.rect, plan.block_x, plan.block_y,
            [&](const grid::Box3& block) { fn(step.t, block); });
        TEMPEST_TRACE_COUNT(BlocksExecuted, blocks);
      }
      if (!steps.empty()) TEMPEST_TRACE_COUNT(TilesExecuted, 1);
    });
    TEMPEST_TRACE_COUNT(BandsExecuted, 1);
    on_band(band.te);
  }
}

}  // namespace tempest::core
