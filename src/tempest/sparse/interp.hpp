#pragma once

#include <vector>

#include "tempest/grid/extents.hpp"
#include "tempest/sparse/points.hpp"

namespace tempest::sparse {

/// One grid point of an off-the-grid position's interpolation support,
/// together with its weight. Scatter (injection) adds `w * amplitude` to the
/// point; gather (measurement) accumulates `w * field(point)`.
struct SupportPoint {
  int x = 0;
  int y = 0;
  int z = 0;
  double w = 0.0;
};

/// Interpolation scheme for mapping between off-the-grid coordinates and
/// grid points. The precompute pipeline of core/ is deliberately agnostic to
/// the scheme (the paper: "Our scheme is independent of the injection and
/// interpolation type"); we provide the standard trilinear scheme plus a
/// wider Hann-windowed-sinc scheme to exercise that independence in tests.
enum class InterpKind {
  Trilinear,     ///< 8-point linear weights (paper Fig. 3)
  WindowedSinc,  ///< 4 points/dim Hann-windowed sinc, normalized
};

/// Number of support points per dimension for a scheme.
[[nodiscard]] int support_width(InterpKind kind);

/// Compute the interpolation support of coordinate `c`. Points are clipped
/// against `extents`: a support point outside the interior is dropped (the
/// physical setups always place operators well inside the absorbing layer,
/// but geometry sweeps in the benches may graze edges). Zero weights are
/// dropped, so a source exactly on a grid point yields a single support
/// point — this mirrors the paper's probe step, which only marks points the
/// injection actually touches. Throws util::PreconditionError for a
/// coordinate that is not finite or lies beyond +-2^30 grid spacings.
[[nodiscard]] std::vector<SupportPoint> support(const Coord3& c,
                                                InterpKind kind,
                                                const grid::Extents3& extents);

}  // namespace tempest::sparse
