#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <tuple>
#include <vector>

#include "tempest/physics/elastic.hpp"
#include "tempest/sparse/survey.hpp"
#include "tempest/sparse/wavelet.hpp"
#include "tempest/stencil/apply.hpp"
#include "tempest/util/rng.hpp"

namespace ph = tempest::physics;
namespace sp = tempest::sparse;
namespace tg = tempest::grid;
namespace tc = tempest::core;
using tempest::real_t;

namespace {

struct Setup {
  ph::ElasticModel model;
  sp::SparseTimeSeries src;
  sp::SparseTimeSeries rec;
  int nt;
};

Setup make_setup(tg::Extents3 e, int so, int nt, int n_rec = 4) {
  ph::Geometry g{e, 10.0, so, /*nbl=*/4};
  Setup s{ph::make_elastic_layered(g, 1.5, 3.0, 3),
          sp::SparseTimeSeries(sp::single_center_source(e, 0.4), nt),
          sp::SparseTimeSeries(sp::receiver_line(e, n_rec, 0.15, 3), nt), nt};
  s.src.broadcast_signature(sp::ricker(nt, s.model.critical_dt(), 0.015));
  return s;
}

double fields_max(const ph::ElasticPropagator& p) {
  return std::max({tg::max_abs(p.vx()), tg::max_abs(p.vy()),
                   tg::max_abs(p.vz()), tg::max_abs(p.txx()),
                   tg::max_abs(p.tyy()), tg::max_abs(p.tzz()),
                   tg::max_abs(p.txy()), tg::max_abs(p.txz()),
                   tg::max_abs(p.tyz())});
}

}  // namespace

TEST(Elastic, SpaceBlockedMatchesReference) {
  auto s = make_setup({18, 16, 14}, 4, 20);
  ph::ElasticPropagator a(s.model);
  a.run(ph::Schedule::Reference, s.src, nullptr);
  const auto vz_ref = a.vz();
  const auto tzz_ref = a.tzz();

  ph::ElasticPropagator b(s.model);
  b.run(ph::Schedule::SpaceBlocked, s.src, nullptr);
  EXPECT_EQ(tg::max_abs_diff(vz_ref, b.vz()), 0.0);
  EXPECT_EQ(tg::max_abs_diff(tzz_ref, b.tzz()), 0.0);
}

TEST(Elastic, WavefrontMatchesBaseline) {
  auto s = make_setup({18, 16, 14}, 4, 20);
  ph::ElasticPropagator base(s.model);
  auto rec_base = s.rec;
  base.run(ph::Schedule::SpaceBlocked, s.src, &rec_base);
  const auto vz_base = base.vz();
  const auto txy_base = base.txy();

  ph::PropagatorOptions opts;
  opts.tiles = tc::TileSpec{4, 8, 8, 4, 4};
  ph::ElasticPropagator wave(s.model, opts);
  auto rec_wave = s.rec;
  const ph::RunStats stats =
      wave.run(ph::Schedule::Wavefront, s.src, &rec_wave);

  EXPECT_EQ(tg::max_abs_diff(vz_base, wave.vz()), 0.0);
  EXPECT_EQ(tg::max_abs_diff(txy_base, wave.txy()), 0.0);

  double scale = 1e-20;
  for (int t = 0; t < s.nt; ++t)
    for (int r = 0; r < rec_base.npoints(); ++r)
      scale = std::max(scale,
                       std::fabs(static_cast<double>(rec_base.at(t, r))));
  for (int t = 0; t < s.nt; ++t)
    for (int r = 0; r < rec_base.npoints(); ++r)
      EXPECT_NEAR(rec_wave.at(t, r), rec_base.at(t, r), 1e-5 * scale);
  EXPECT_GT(stats.precompute_seconds, 0.0);
}

class ElasticTileSweep : public ::testing::TestWithParam<tc::TileSpec> {};

TEST_P(ElasticTileSweep, WavefrontInvariantToTileShape) {
  auto s = make_setup({16, 14, 12}, 4, 14, 2);
  ph::ElasticPropagator base(s.model);
  base.run(ph::Schedule::SpaceBlocked, s.src, nullptr);
  const auto vz_base = base.vz();

  ph::PropagatorOptions opts;
  opts.tiles = GetParam();
  ph::ElasticPropagator wave(s.model, opts);
  wave.run(ph::Schedule::Wavefront, s.src, nullptr);
  EXPECT_EQ(tg::max_abs_diff(vz_base, wave.vz()), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Tiles, ElasticTileSweep,
                         ::testing::Values(tc::TileSpec{1, 8, 8, 4, 4},
                                           tc::TileSpec{2, 4, 4, 4, 4},
                                           tc::TileSpec{4, 8, 8, 4, 4},
                                           tc::TileSpec{7, 16, 12, 8, 6},
                                           tc::TileSpec{16, 64, 64, 8, 8}));

class ElasticOrderSweep : public ::testing::TestWithParam<int> {};

TEST_P(ElasticOrderSweep, WavefrontMatchesBaselineAcrossOrders) {
  const int so = GetParam();
  auto s = make_setup({18, 16, 14}, so, 12, 2);
  ph::ElasticPropagator base(s.model);
  base.run(ph::Schedule::SpaceBlocked, s.src, nullptr);
  ph::ElasticPropagator wave(s.model);
  wave.run(ph::Schedule::Wavefront, s.src, nullptr);
  EXPECT_EQ(tg::max_abs_diff(base.vz(), wave.vz()), 0.0);
  EXPECT_GT(tg::max_abs(wave.vz()), 0.0) << "wave must propagate";
}

INSTANTIATE_TEST_SUITE_P(Orders, ElasticOrderSweep,
                         ::testing::Values(2, 4, 8, 10, 12));

TEST(Elastic, StableOverManySteps) {
  auto s = make_setup({16, 16, 16}, 4, 200, 2);
  ph::ElasticPropagator p(s.model);
  p.run(ph::Schedule::Wavefront, s.src, nullptr);
  const double m = fields_max(p);
  EXPECT_TRUE(std::isfinite(m));
  EXPECT_LT(m, 1e3);
}

TEST(Elastic, ZeroShearModulusKeepsShearStressZero) {
  // With mu == 0 (a fluid) the deviatoric stresses must remain identically
  // zero: the system degenerates to an acoustic medium.
  const tg::Extents3 e{16, 16, 16};
  ph::Geometry g{e, 10.0, 4, 4};
  ph::ElasticModel model = ph::make_elastic_layered(g, 1.5, 1.5, 1);
  model.vs.fill(0.0f);
  model.mu.fill(0.0f);
  const int nt = 30;
  sp::SparseTimeSeries src(sp::single_center_source(e, 0.4), nt);
  src.broadcast_signature(sp::ricker(nt, model.critical_dt(), 0.02));

  ph::ElasticPropagator p(model);
  p.run(ph::Schedule::Wavefront, src, nullptr);
  EXPECT_EQ(tg::max_abs(p.txy()), 0.0);
  EXPECT_EQ(tg::max_abs(p.txz()), 0.0);
  EXPECT_EQ(tg::max_abs(p.tyz()), 0.0);
  EXPECT_GT(tg::max_abs(p.tzz()), 0.0);  // pressure wave still propagates
  // Fluid: the three diagonal stresses are all -p and stay equal.
  EXPECT_LT(tg::max_abs_diff(p.txx(), p.tzz()),
            1e-6 * (tg::max_abs(p.tzz()) + 1e-30));
}

TEST(Elastic, PwaveArrivalTimeMatchesVelocity) {
  // Homogeneous medium, explosive source; receiver straight below the
  // source sees the P arrival at ~t0 + d/vp on vz.
  const tg::Extents3 e{24, 24, 48};
  ph::Geometry g{e, 10.0, 4, 4};
  ph::ElasticModel model = ph::make_elastic_layered(g, 2.0, 2.0, 1);
  const double dt = model.critical_dt();
  const double f0 = 0.02;
  const int nt = static_cast<int>(std::ceil(260.0 / dt));

  sp::SparseTimeSeries src({{12.0, 12.0, 12.0}}, nt);
  src.broadcast_signature(sp::ricker(nt, dt, f0));
  sp::SparseTimeSeries rec({{12.0, 12.0, 32.0}}, nt);  // 200 m below

  ph::ElasticPropagator p(model);
  p.run(ph::Schedule::SpaceBlocked, src, &rec);

  int t_peak = 0;
  double best = 0.0;
  for (int t = 0; t < nt; ++t) {
    const double v = std::fabs(static_cast<double>(rec.at(t, 0)));
    if (v > best) {
      best = v;
      t_peak = t;
    }
  }
  ASSERT_GT(best, 0.0);
  const double travel_ms = 200.0 / 2.0;
  for (int t = 0; t < nt && t * dt < travel_ms * 0.9; ++t) {
    EXPECT_LT(std::fabs(static_cast<double>(rec.at(t, 0))), 1e-3 * best)
        << "acausal energy at t=" << t * dt << " ms";
  }
  EXPECT_NEAR(t_peak * dt, 1.5 / f0 + travel_ms, 45.0);
}

TEST(Elastic, RadialSymmetryOfExplosiveSource) {
  // An explosive source in a homogeneous medium radiates symmetrically: two
  // receivers mirrored through the (on-grid) source position record equal
  // vz magnitudes.
  const tg::Extents3 e{32, 24, 32};
  ph::Geometry g{e, 10.0, 4, 4};
  ph::ElasticModel model = ph::make_elastic_layered(g, 2.0, 2.0, 1);
  const double dt = model.critical_dt();
  const int nt = 60;

  sp::SparseTimeSeries src({{16.0, 12.0, 16.0}}, nt);  // on-grid centre
  src.broadcast_signature(sp::ricker(nt, dt, 0.02));
  // vz is staggered by +1/2 in z: mirror of index z through the source at
  // z=16 maps sample z+1/2 -> 32 - (z+1/2), i.e. index 15 pairs with 16.
  sp::SparseTimeSeries rec({{16.0, 12.0, 9.0}, {16.0, 12.0, 22.0}}, nt);

  ph::ElasticPropagator p(model);
  p.run(ph::Schedule::SpaceBlocked, src, &rec);

  double max_v = 1e-20, max_asym = 0.0;
  for (int t = 0; t < nt; ++t) {
    const double a = rec.at(t, 0);
    const double b = rec.at(t, 1);
    max_v = std::max({max_v, std::fabs(a), std::fabs(b)});
    // vz flips sign across the source (up vs down-going motion).
    max_asym = std::max(max_asym, std::fabs(a + b));
  }
  ASSERT_GT(max_v, 1e-12);
  EXPECT_LT(max_asym, 0.05 * max_v);
}

// One-step oracle: seed all nine fields with random values, advance one
// step (velocity, then stress) with a silent source, and compare every
// updated point with a double-precision evaluation built from
// stencil::staggered_deriv. The stress reference reads the reference
// velocities, so each half-update is checked against exact inputs of its
// own. SO 4 runs the unrolled radius-2 instances, SO 10 the
// run-time-radius instances.
class ElasticOneStepOracle : public ::testing::TestWithParam<int> {};

TEST_P(ElasticOneStepOracle, MatchesDoublePrecisionReference) {
  const int so = GetParam();
  const tg::Extents3 e{13, 12, 11};
  ph::Geometry g{e, 10.0, so, /*nbl=*/3};
  const ph::ElasticModel model = ph::make_elastic_layered(g, 1.5, 3.0, 3);
  ph::ElasticPropagator prop(model);

  tempest::util::SplitMix64 rng(static_cast<std::uint64_t>(so));
  tempest::resilience::Checkpoint ck = prop.capture(0, 0);
  for (tg::Grid3<real_t>& slot : ck.slots) {
    slot.for_each_interior([&](int x, int y, int z) {
      slot(x, y, z) = static_cast<real_t>(rng.uniform(-1.0, 1.0));
    });
  }
  prop.restore(ck);
  // State order: vx vy vz txx tyy tzz txy txz tyz.
  const std::vector<tg::Grid3<real_t>> in = ck.slots;

  sp::SparseTimeSeries silent(sp::single_center_source(e, 0.4), 1);
  prop.run_from(0, ph::Schedule::Reference, silent);

  const tempest::stencil::Coeffs c = tempest::stencil::staggered_first(so);
  // D+ (shift 1) evaluates half a point forward, D- (shift 0) half back.
  const auto d = [&c](const auto& f, int dim, int shift, int x, int y,
                      int z) {
    return tempest::stencil::staggered_deriv(f, c, dim, shift, x, y, z);
  };
  const double dt = prop.dt();
  const double dth = dt / g.spacing;
  const int halo = g.radius();

  // Velocity half-update: v = v (1 - damp dt) + b dt/h div(tau).
  std::vector<tg::Grid3<double>> v(3, tg::Grid3<double>(e, halo, 0.0));
  in[0].for_each_interior([&](int x, int y, int z) {
    const double fac = 1.0 - model.damp(x, y, z) * dt;
    const double bdt = model.b(x, y, z) * dth;
    const auto& [txx, tyy, tzz, txy, txz, tyz] =
        std::tie(in[3], in[4], in[5], in[6], in[7], in[8]);
    v[0](x, y, z) = in[0](x, y, z) * fac +
                    bdt * (d(txx, 0, 1, x, y, z) + d(txy, 1, 0, x, y, z) +
                           d(txz, 2, 0, x, y, z));
    v[1](x, y, z) = in[1](x, y, z) * fac +
                    bdt * (d(txy, 0, 0, x, y, z) + d(tyy, 1, 1, x, y, z) +
                           d(tyz, 2, 0, x, y, z));
    v[2](x, y, z) = in[2](x, y, z) * fac +
                    bdt * (d(txz, 0, 0, x, y, z) + d(tyz, 1, 0, x, y, z) +
                           d(tzz, 2, 1, x, y, z));
  });

  // Stress half-update from the velocities just computed.
  std::vector<tg::Grid3<double>> tau(6, tg::Grid3<double>(e, halo, 0.0));
  in[0].for_each_interior([&](int x, int y, int z) {
    const double fac = 1.0 - model.damp(x, y, z) * dt;
    const double lam = model.lam(x, y, z) * dth;
    const double mu = model.mu(x, y, z) * dth;
    const double exx = d(v[0], 0, 0, x, y, z);
    const double eyy = d(v[1], 1, 0, x, y, z);
    const double ezz = d(v[2], 2, 0, x, y, z);
    const double tr = exx + eyy + ezz;
    tau[0](x, y, z) = in[3](x, y, z) * fac + lam * tr + 2.0 * mu * exx;
    tau[1](x, y, z) = in[4](x, y, z) * fac + lam * tr + 2.0 * mu * eyy;
    tau[2](x, y, z) = in[5](x, y, z) * fac + lam * tr + 2.0 * mu * ezz;
    tau[3](x, y, z) = in[6](x, y, z) * fac +
                      mu * (d(v[0], 1, 1, x, y, z) + d(v[1], 0, 1, x, y, z));
    tau[4](x, y, z) = in[7](x, y, z) * fac +
                      mu * (d(v[0], 2, 1, x, y, z) + d(v[2], 0, 1, x, y, z));
    tau[5](x, y, z) = in[8](x, y, z) * fac +
                      mu * (d(v[1], 2, 1, x, y, z) + d(v[2], 1, 1, x, y, z));
  });

  const tg::Grid3<real_t>* got[9] = {&prop.vx(),  &prop.vy(),  &prop.vz(),
                                     &prop.txx(), &prop.tyy(), &prop.tzz(),
                                     &prop.txy(), &prop.txz(), &prop.tyz()};
  for (int fi = 0; fi < 9; ++fi) {
    const tg::Grid3<double>& want = fi < 3 ? v[fi] : tau[fi - 3];
    double err = 0.0, scale = 0.0;
    want.for_each_interior([&](int x, int y, int z) {
      err = std::max(err, std::fabs((*got[fi])(x, y, z) - want(x, y, z)));
      scale = std::max(scale, std::fabs(want(x, y, z)));
    });
    EXPECT_LE(err, 2e-6 * scale) << "so=" << so << " field " << fi;
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, ElasticOneStepOracle,
                         ::testing::Values(4, 10));
