#pragma once

#include <string>
#include <vector>

#include "tempest/grid/extents.hpp"

namespace tempest::core {

/// Space–time tile geometry of the wave-front temporal blocking scheme
/// (paper Section II.B / Table I). A *tile* spans tile_t timesteps and
/// tile_x × tile_y skewed spatial columns; each timestep slice of a tile is
/// further cut into block_x × block_y space blocks (the unit handed to the
/// kernel and to the worker pool). z is never tiled — it is the contiguous
/// SIMD dimension.
struct TileSpec {
  int tile_t = 8;
  int tile_x = 64;
  int tile_y = 64;
  int block_x = 8;
  int block_y = 8;

  [[nodiscard]] bool valid() const {
    return tile_t > 0 && tile_x > 0 && tile_y > 0 && block_x > 0 &&
           block_y > 0;
  }

  friend bool operator==(const TileSpec&, const TileSpec&) = default;
};

/// One scheduled kernel invocation: compute timestep `t` over `box`.
struct ScheduleOp {
  int t = 0;
  grid::Box3 box;

  friend bool operator==(const ScheduleOp&, const ScheduleOp&) = default;
};

/// Default no-op for the band-completion hook of core::execute. After a time
/// band [tt, te) finishes, *every* timestep < te is fully computed — the
/// only global barrier temporal blocking offers, and therefore the place the
/// engine reduces the gather, scans wavefield health and calls the step
/// callback.
struct NoBandCallback {
  void operator()(int /*band_end*/) const {}
};

/// Check that `ops` is a legal execution order for a stencil with
/// per-timestep dependency radius `radius` on extents `e`: every point of
/// every timestep is computed exactly once, and when op i computes point
/// (t,p), every point within `radius` of p at t-1 (and p itself at t-2 for
/// the anti-dependency) appears earlier. Returns an empty string when legal,
/// else a description of the first violation. O(volume · nt) — test sizes
/// only.
[[nodiscard]] std::string validate_schedule(
    const grid::Extents3& e, int t_begin, int t_end, int radius,
    const std::vector<ScheduleOp>& ops);

}  // namespace tempest::core
