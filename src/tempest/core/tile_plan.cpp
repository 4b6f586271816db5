#include "tempest/core/tile_plan.hpp"

#include <algorithm>

#include "tempest/util/error.hpp"

namespace tempest::core {

namespace {

/// Start a band of ni x nj tasks over substeps [t0, te). The caller adds
/// the edges, and each node's steps in ascending node order: add_step for
/// each of the node's substeps, then end_task.
TileBand& add_band(TilePlan& plan, int t0, int te, int ni, int nj) {
  TileBand& band = plan.bands.emplace_back();
  band.t0 = t0;
  band.te = te;
  band.nj = nj;
  band.steps.reserve(static_cast<std::size_t>(ni) *
                     static_cast<std::size_t>(nj) *
                     static_cast<std::size_t>(te - t0));
  band.offsets.reserve(static_cast<std::size_t>(ni * nj) + 1);
  band.dag = util::TaskDag(ni * nj);
  return band;
}

/// Append the open task's rect at substep t, clipped to the domain (full
/// z); empty rects are dropped.
void add_step(const grid::Extents3& e, TileBand& band, int t, grid::Range x,
              grid::Range y) {
  const grid::Range xr = grid::intersect(x, {0, e.nx});
  const grid::Range yr = grid::intersect(y, {0, e.ny});
  if (xr.empty() || yr.empty()) return;
  band.steps.push_back({t, grid::Box3{xr, yr, {0, e.nz}}});
}

/// Close the open task: its steps are the ones added since the last close.
void end_task(TileBand& band) {
  band.offsets.push_back(static_cast<int>(band.steps.size()));
}

}  // namespace

TilePlan TilePlan::wavefront(const grid::Extents3& e, int t_begin, int t_end,
                             int slope, const TileSpec& spec) {
  TEMPEST_REQUIRE(spec.valid());
  TEMPEST_REQUIRE_MSG(slope >= 0, "skew slope must be non-negative");
  TilePlan plan{Kind::Wavefront, e, slope, spec.block_x, spec.block_y, {}};
  for (int tt = t_begin; tt < t_end; tt += spec.tile_t) {
    const int te = std::min(tt + spec.tile_t, t_end);
    // Skewed coordinates of points alive in this band span
    // [slope*tt, extent + slope*(te-1)).
    const int xs_begin = (slope * tt) / spec.tile_x * spec.tile_x;
    const int ys_begin = (slope * tt) / spec.tile_y * spec.tile_y;
    const int ni =
        (e.nx + slope * (te - 1) - xs_begin + spec.tile_x - 1) / spec.tile_x;
    const int nj =
        (e.ny + slope * (te - 1) - ys_begin + spec.tile_y - 1) / spec.tile_y;
    TileBand& band = add_band(plan, tt, te, ni, nj);
    for (int i = 0; i < ni; ++i) {
      for (int j = 0; j < nj; ++j) {
        const int node = i * nj + j;
        if (i > 0) band.dag.add_edge(node - nj, node);
        if (j > 0) band.dag.add_edge(node - 1, node);
        const int xs = xs_begin + i * spec.tile_x;
        const int ys = ys_begin + j * spec.tile_y;
        for (int t = tt; t < te; ++t) {
          add_step(e, band, t, {xs - slope * t, xs + spec.tile_x - slope * t},
                   {ys - slope * t, ys + spec.tile_y - slope * t});
        }
        end_task(band);
      }
    }
  }
  return plan;
}

TilePlan TilePlan::diamond(const grid::Extents3& e, int t_begin, int t_end,
                           int slope, const DiamondSpec& spec) {
  TEMPEST_REQUIRE(slope >= 0);
  TEMPEST_REQUIRE_MSG(spec.valid_for(slope),
                      "diamond width must be >= 2*slope*height");
  const int w = spec.width;
  const int periods = (e.nx + 3 * w - 1) / w;
  TilePlan plan{Kind::Diamond, e, slope, spec.block_x, spec.block_y, {}};
  for (int t0 = t_begin; t0 < t_end; t0 += spec.height) {
    const int te = std::min(t0 + spec.height, t_end);
    TileBand& band = add_band(plan, t0, te, 2, periods);
    // Peaks are nodes [0, periods) and valleys [periods, 2 * periods), so
    // every peak's steps go in before any valley's. Peak k's right edge is
    // the centre of valley k.
    for (int k = 0; k < periods; ++k) {
      const int edge = k * w;
      for (int t = t0; t < te; ++t) {
        const int d = slope * (t - t0);
        add_step(e, band, t, {edge - w + d, edge - d}, {0, e.ny});
      }
      end_task(band);
    }
    for (int k = 0; k < periods; ++k) {
      const int valley = periods + k;
      band.dag.add_edge(k, valley);
      if (k + 1 < periods) band.dag.add_edge(k + 1, valley);
      const int edge = k * w;
      for (int t = t0; t < te; ++t) {
        const int d = slope * (t - t0);
        add_step(e, band, t, {edge - d, edge + d}, {0, e.ny});
      }
      end_task(band);
    }
  }
  return plan;
}

TilePlan TilePlan::space_blocked(const grid::Extents3& e, int t_begin,
                                 int t_end, const TileSpec& spec) {
  TEMPEST_REQUIRE(spec.valid());
  const int ni = (e.nx + spec.block_x - 1) / spec.block_x;
  const int nj = (e.ny + spec.block_y - 1) / spec.block_y;
  TilePlan plan{Kind::SpaceBlocked, e, 0, spec.block_x, spec.block_y, {}};
  for (int t = t_begin; t < t_end; ++t) {
    TileBand& band = add_band(plan, t, t + 1, ni, nj);
    for (int i = 0; i < ni; ++i) {
      for (int j = 0; j < nj; ++j) {
        add_step(e, band, t, {i * spec.block_x, (i + 1) * spec.block_x},
                 {j * spec.block_y, (j + 1) * spec.block_y});
        end_task(band);
      }
    }
  }
  return plan;
}

std::string TilePlan::task_label(const TileBand& band, int node) const {
  const std::string i = std::to_string(node / band.nj);
  const std::string j = std::to_string(node % band.nj);
  switch (kind) {
    case Kind::Wavefront: return "tile(" + i + "," + j + ")";
    case Kind::Diamond:
      return (node < band.nj ? "peak(" : "valley(") + j + ")";
    case Kind::SpaceBlocked: return "block(" + i + "," + j + ")";
  }
  return "?";
}

std::vector<ScheduleOp> TilePlan::ops() const {
  std::vector<ScheduleOp> out;
  execute(*this, 1,
          [&](int t, const grid::Box3& box) { out.push_back({t, box}); });
  return out;
}

}  // namespace tempest::core
