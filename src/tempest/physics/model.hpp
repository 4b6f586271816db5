#pragma once

#include "tempest/config.hpp"
#include "tempest/grid/grid3.hpp"

namespace tempest::physics {

/// Discretisation geometry shared by all subsurface models: interior shape,
/// uniform grid spacing h (metres), FD space order, and the width of the
/// absorbing boundary layer in grid points. Time is in milliseconds and
/// velocities in m/ms (== km/s), the standard seismic convention, so a
/// 10 m spacing with 1.5–4.5 velocities reproduces the paper's setups.
struct Geometry {
  grid::Extents3 extents{128, 128, 128};
  double spacing = 10.0;  ///< h in metres
  int space_order = 4;    ///< even FD accuracy order
  int nbl = 10;           ///< absorbing layer width in points

  [[nodiscard]] int radius() const { return space_order / 2; }
};

/// Isotropic acoustic subsurface model: P-wave velocity plus the damping
/// profile of the absorbing sponge. Fields are stored with halo == radius so
/// kernels can share one set of strides with the wavefields.
struct AcousticModel {
  Geometry geom;
  grid::Grid3<real_t> vp;    ///< velocity, m/ms
  grid::Grid3<real_t> m;     ///< squared slowness 1/vp^2
  grid::Grid3<real_t> damp;  ///< sponge coefficient (0 in the interior)

  /// Largest |vp| over the interior, scanned on `threads` workers.
  [[nodiscard]] double vp_max(int threads = 1) const;
  /// CFL-stable timestep (ms); the same value at every thread count.
  [[nodiscard]] double critical_dt(int threads = 1) const;
};

/// Anisotropic (TTI) extension: Thomsen parameters and tilt/azimuth angles,
/// all spatially varying.
struct TTIModel {
  Geometry geom;
  grid::Grid3<real_t> vp;
  grid::Grid3<real_t> m;
  grid::Grid3<real_t> damp;
  grid::Grid3<real_t> epsilon;
  grid::Grid3<real_t> delta;
  grid::Grid3<real_t> theta;  ///< tilt (radians)
  grid::Grid3<real_t> phi;    ///< azimuth (radians)

  [[nodiscard]] double vp_max(int threads = 1) const;
  [[nodiscard]] double critical_dt(int threads = 1) const;
};

/// Isotropic elastic model: Lamé parameters and buoyancy derived from
/// (vp, vs, rho).
struct ElasticModel {
  Geometry geom;
  grid::Grid3<real_t> vp;
  grid::Grid3<real_t> vs;
  grid::Grid3<real_t> rho;
  grid::Grid3<real_t> lam;  ///< lambda = rho (vp^2 - 2 vs^2)
  grid::Grid3<real_t> mu;   ///< mu = rho vs^2
  grid::Grid3<real_t> b;    ///< buoyancy 1/rho
  grid::Grid3<real_t> damp;

  [[nodiscard]] double vp_max(int threads = 1) const;
  [[nodiscard]] double critical_dt(int threads = 1) const;
};

/// Velocity-profile builders. `layered` produces the classic
/// velocity-increasing-with-depth stack (n layers between v_top and
/// v_bottom); `homogeneous` a constant medium.
///
/// Every builder writes each of its fields exactly once, halo included, in
/// one pass over their rows on util::resolve_threads() workers; the values
/// do not depend on the thread count.
[[nodiscard]] AcousticModel make_acoustic_homogeneous(const Geometry& g,
                                                      double vp = 1.5);
[[nodiscard]] AcousticModel make_acoustic_layered(const Geometry& g,
                                                  double v_top = 1.5,
                                                  double v_bottom = 3.5,
                                                  int layers = 5);

/// TTI model with smoothly varying Thomsen parameters and tilt, the
/// industrial RTM/FWI-style setup of Section III.B.
[[nodiscard]] TTIModel make_tti_layered(const Geometry& g, double v_top = 1.5,
                                        double v_bottom = 3.5,
                                        int layers = 5);

/// Elastic model with vs = vp / sqrt(3) (Poisson solid) and constant
/// density, velocity increasing with depth.
[[nodiscard]] ElasticModel make_elastic_layered(const Geometry& g,
                                                double vp_top = 1.5,
                                                double vp_bottom = 3.5,
                                                int layers = 5);

}  // namespace tempest::physics
