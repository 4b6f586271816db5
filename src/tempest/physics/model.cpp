#include "tempest/physics/model.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "tempest/physics/damping.hpp"
#include "tempest/stencil/cfl.hpp"
#include "tempest/util/error.hpp"
#include "tempest/util/threads.hpp"

namespace tempest::physics {

namespace {

/// Depth-dependent layered velocity: `layers` constant-velocity slabs from
/// v_top at z=0 to v_bottom at the deepest slab.
real_t layered_velocity(int z, int nz, double v_top, double v_bottom,
                        int layers) {
  const int layer = std::min(layers - 1, z * layers / std::max(1, nz));
  const double f =
      layers > 1 ? static_cast<double>(layer) / (layers - 1) : 0.0;
  return static_cast<real_t>(v_top + f * (v_bottom - v_top));
}

/// A padded z column of a field that varies along z only: value(z) over
/// the interior, 0 in the halo.
using Column = std::vector<real_t>;

template <typename Value>
Column column(const Geometry& g, Value&& value) {
  const int h = g.radius();
  Column c(static_cast<std::size_t>(g.extents.nz + 2 * h), real_t{0});
  for (int z = 0; z < g.extents.nz; ++z) {
    c[static_cast<std::size_t>(h + z)] = value(z);
  }
  return c;
}

/// The squared slowness 1 / v^2 of a velocity column. Its halo stays 0:
/// the kernels read m at their update point only, never off it.
Column squared_slowness(const Geometry& g, const Column& vp) {
  return column(g, [&](int z) {
    const real_t v = vp[static_cast<std::size_t>(g.radius() + z)];
    return real_t{1} / (v * v);
  });
}

/// Writes padded row (x, y) of `f`: `col` on an interior row, 0 on a halo
/// row.
void put_row(grid::Grid3<real_t>& f, int x, int y, bool interior,
             const Column& col) {
  real_t* row = &f(x, y, -f.halo());
  if (interior) {
    std::copy(col.begin(), col.end(), row);
  } else {
    std::fill(row, row + col.size(), real_t{0});
  }
}

/// A model's fields, each built exactly once: row(x, y, interior) writes
/// padded row (x, y) of every field, for every row, in one pass over
/// x-plane chunks on util::resolve_threads() workers. `interior` is false
/// on a halo row.
template <typename Row>
void build_rows(const grid::Grid3<real_t>& like, Row&& row) {
  const grid::Extents3& e = like.extents();
  like.for_each_padded_row(util::resolve_threads(), [&](int x, int y) {
    row(x, y, x >= 0 && x < e.nx && y >= 0 && y < e.ny);
  });
}

grid::Grid3<real_t> unwritten(const Geometry& g) {
  return grid::Grid3<real_t>::uninitialized(g.extents, g.radius());
}

}  // namespace

double AcousticModel::vp_max(int threads) const {
  return grid::max_abs(vp, threads);
}

double AcousticModel::critical_dt(int threads) const {
  return stencil::acoustic_dt(geom.spacing, vp_max(threads),
                              geom.space_order);
}

double TTIModel::vp_max(int threads) const {
  return grid::max_abs(vp, threads);
}

double TTIModel::critical_dt(int threads) const {
  return stencil::tti_dt(geom.spacing, vp_max(threads), geom.space_order,
                         grid::max_abs(epsilon, threads),
                         grid::max_abs(delta, threads));
}

double ElasticModel::vp_max(int threads) const {
  return grid::max_abs(vp, threads);
}

double ElasticModel::critical_dt(int threads) const {
  return stencil::elastic_dt(geom.spacing, vp_max(threads), geom.space_order);
}

AcousticModel make_acoustic_homogeneous(const Geometry& g, double vp_val) {
  TEMPEST_REQUIRE(vp_val > 0.0);
  AcousticModel model{g, unwritten(g), unwritten(g), unwritten(g)};
  // A constant medium: vp and m hold their value in the halo too.
  const Column vp(static_cast<std::size_t>(g.extents.nz + 2 * g.radius()),
                  static_cast<real_t>(vp_val));
  const Column m(vp.size(), static_cast<real_t>(1.0 / (vp_val * vp_val)));
  const SpongeRows damp(g, damping_ramp(g, vp_val));
  build_rows(model.vp, [&](int x, int y, bool) {
    put_row(model.vp, x, y, true, vp);
    put_row(model.m, x, y, true, m);
    damp.write(model.damp, x, y);
  });
  return model;
}

AcousticModel make_acoustic_layered(const Geometry& g, double v_top,
                                    double v_bottom, int layers) {
  TEMPEST_REQUIRE(v_top > 0.0 && v_bottom >= v_top && layers >= 1);
  AcousticModel model{g, unwritten(g), unwritten(g), unwritten(g)};
  const Column vp = column(g, [&](int z) {
    return layered_velocity(z, g.extents.nz, v_top, v_bottom, layers);
  });
  const Column m = squared_slowness(g, vp);
  const SpongeRows damp(g, damping_ramp(g, v_top));
  build_rows(model.vp, [&](int x, int y, bool interior) {
    put_row(model.vp, x, y, interior, vp);
    put_row(model.m, x, y, interior, m);
    damp.write(model.damp, x, y);
  });
  return model;
}

TTIModel make_tti_layered(const Geometry& g, double v_top, double v_bottom,
                          int layers) {
  TEMPEST_REQUIRE(v_top > 0.0 && v_bottom >= v_top && layers >= 1);
  TTIModel model{g,           unwritten(g), unwritten(g), unwritten(g),
                 unwritten(g), unwritten(g), unwritten(g), unwritten(g)};
  const auto& e = g.extents;
  const int h = g.radius();
  // Smoothly varying anisotropy and tilt, in the ranges typical of
  // sedimentary TTI models (Thomsen eps up to ~0.25, delta up to ~0.15,
  // tilt up to ~30 degrees). Every field but the tilt varies along z only.
  const auto fz = [&](int z) {
    return static_cast<double>(z) / std::max(1, e.nz - 1);
  };
  const Column vp = column(g, [&](int z) {
    return layered_velocity(z, e.nz, v_top, v_bottom, layers);
  });
  const Column m = squared_slowness(g, vp);
  const Column epsilon = column(
      g, [&](int z) { return static_cast<real_t>(0.10 + 0.15 * fz(z)); });
  const Column delta = column(
      g, [&](int z) { return static_cast<real_t>(0.05 + 0.10 * fz(z)); });
  const Column phi =
      column(g, [&](int z) { return static_cast<real_t>(0.3 * fz(z)); });
  const SpongeRows damp(g, damping_ramp(g, v_top));
  build_rows(model.vp, [&](int x, int y, bool interior) {
    put_row(model.vp, x, y, interior, vp);
    put_row(model.m, x, y, interior, m);
    damp.write(model.damp, x, y);
    put_row(model.epsilon, x, y, interior, epsilon);
    put_row(model.delta, x, y, interior, delta);
    put_row(model.phi, x, y, interior, phi);
    // The tilt varies along x: 0..~28.6 deg.
    const double fx = static_cast<double>(x) / std::max(1, e.nx - 1);
    real_t* theta = &model.theta(x, y, -h);
    std::fill(theta, theta + h, real_t{0});
    std::fill(theta + h, theta + h + e.nz,
              interior ? static_cast<real_t>(0.5 * fx) : real_t{0});
    std::fill(theta + h + e.nz, theta + vp.size(), real_t{0});
  });
  return model;
}

ElasticModel make_elastic_layered(const Geometry& g, double vp_top,
                                  double vp_bottom, int layers) {
  TEMPEST_REQUIRE(vp_top > 0.0 && vp_bottom >= vp_top && layers >= 1);
  ElasticModel model{g,           unwritten(g), unwritten(g), unwritten(g),
                     unwritten(g), unwritten(g), unwritten(g), unwritten(g)};
  const double rho0 = 1.0;  // g/cm^3 — constant density Poisson solid
  const Column vp = column(g, [&](int z) {
    return layered_velocity(z, g.extents.nz, vp_top, vp_bottom, layers);
  });
  const int h = g.radius();
  const Column vs = column(g, [&](int z) {
    return vp[h + z] / static_cast<real_t>(std::sqrt(3.0));
  });
  const Column rho =
      column(g, [&](int) { return static_cast<real_t>(rho0); });
  const Column mu = column(g, [&](int z) {
    return static_cast<real_t>(rho0) * vs[h + z] * vs[h + z];
  });
  const Column lam = column(g, [&](int z) {
    const real_t v = vp[h + z];
    const real_t s = vs[h + z];
    return static_cast<real_t>(rho0) * (v * v - real_t{2} * s * s);
  });
  const Column b =
      column(g, [&](int) { return static_cast<real_t>(1.0 / rho0); });
  const SpongeRows damp(g, damping_ramp(g, vp_top));
  build_rows(model.vp, [&](int x, int y, bool interior) {
    put_row(model.vp, x, y, interior, vp);
    put_row(model.vs, x, y, interior, vs);
    put_row(model.rho, x, y, interior, rho);
    put_row(model.lam, x, y, interior, lam);
    put_row(model.mu, x, y, interior, mu);
    put_row(model.b, x, y, interior, b);
    damp.write(model.damp, x, y);
  });
  return model;
}

}  // namespace tempest::physics
