#pragma once

#include <cmath>
#include <vector>

#include "tempest/config.hpp"
#include "tempest/grid/grid3.hpp"
#include "tempest/physics/model.hpp"
#include "tempest/util/error.hpp"

namespace tempest::physics {

/// Absorbing sponge profile (paper Section IV.B: "damping fields with
/// absorbing boundary layers"). The coefficient is zero in the interior and
/// rises quadratically towards each face over the `nbl`-point boundary
/// layer, scaled so a wave crossing the layer is attenuated by roughly
/// log(1/R0) with R0 the design reflection coefficient:
///   d(p) = (3 vp / (2 L)) * ln(1/R0) * ((L - dist(p)) / L)^2.
/// The top face (z = 0) is damped as well — a free-surface variant is left
/// to future work, matching the paper's setups which damp all faces.
[[nodiscard]] grid::Grid3<real_t> make_damping(const Geometry& g,
                                               double vp_ref = 1.5,
                                               double r0 = 0.001);

/// make_damping's profile as a ramp: entry d is the coefficient d points
/// from the nearest face (d < g.nbl).
[[nodiscard]] std::vector<real_t> damping_ramp(const Geometry& g,
                                               double vp_ref = 1.5,
                                               double r0 = 0.001);

/// A sponge ramp with make_damping's geometry and d0 scaling: entry d
/// (d < g.nbl) is coeff(d0, frac) with frac = (L - d) / L, L the layer
/// depth and d0 = (3 vp_ref / (2 L)) ln(1/r0).
template <typename Coeff>
[[nodiscard]] std::vector<real_t> sponge_ramp(const Geometry& g,
                                              double vp_ref, double r0,
                                              Coeff&& coeff) {
  TEMPEST_REQUIRE(g.nbl >= 0 && vp_ref > 0.0 && r0 > 0.0 && r0 < 1.0);
  std::vector<real_t> ramp(static_cast<std::size_t>(g.nbl));
  if (g.nbl == 0) return ramp;
  const double len = g.nbl * g.spacing;                       // depth (m)
  const double d0 = 1.5 * vp_ref / len * std::log(1.0 / r0);  // 1/ms
  for (int d = 0; d < g.nbl; ++d) {
    const double frac = static_cast<double>(g.nbl - d) / g.nbl;
    ramp[static_cast<std::size_t>(d)] = static_cast<real_t>(coeff(d0, frac));
  }
  return ramp;
}

/// A sponge, row by row: the value at an interior point d < nbl points from
/// the nearest face is ramp[d], and every other point, the halo included,
/// is 0. Only the shell is computed: every row at least nbl points from the
/// x and y faces copies one shared column. A model builder writes it in its
/// own pass over the rows of its fields.
class SpongeRows {
 public:
  /// `ramp` holds g.nbl values, the outermost first.
  SpongeRows(const Geometry& g, std::vector<real_t> ramp);

  /// Writes padded row (x, y) of `out`, a grid of g's extents with halo
  /// g.radius().
  void write(grid::Grid3<real_t>& out, int x, int y) const;

 private:
  grid::Extents3 e_;
  int halo_;
  std::vector<real_t> ramp_;
  std::vector<real_t> core_;  ///< padded column of every non-shell row
};

/// A grid holding the sponge `ramp` alone, written in one pass on
/// util::resolve_threads() workers.
[[nodiscard]] grid::Grid3<real_t> make_sponge(const Geometry& g,
                                              std::vector<real_t> ramp);

/// Generalised sponge profile: same geometry and d0 scaling as
/// make_damping, but with a configurable power-law ramp
///   d(p) = d0 * ((L - dist(p)) / L)^exponent.
/// exponent = 2 gives make_damping's quadratic profile; higher
/// exponents concentrate the absorption near the outer faces (gentler at
/// the interior seam, fewer seam reflections), linear (1) ramps hardest.
/// Its ramp is written in this header, so a DSL-authored boundary variant —
/// e.g. a sponge equation binding this grid as its own damping
/// coefficient — extends the physics layer without touching its
/// translation units.
[[nodiscard]] inline grid::Grid3<real_t> make_sponge_profile(
    const Geometry& g, double vp_ref = 1.5, double r0 = 0.001,
    int exponent = 2) {
  TEMPEST_REQUIRE(exponent >= 1);
  return make_sponge(g, sponge_ramp(g, vp_ref, r0, [&](double d0, double f) {
                       return d0 * std::pow(f, exponent);
                     }));
}

}  // namespace tempest::physics
