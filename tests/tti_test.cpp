#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "tempest/physics/acoustic.hpp"
#include "tempest/physics/tti.hpp"
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
  ph::TTIModel model;
  sp::SparseTimeSeries src;
  sp::SparseTimeSeries rec;
  int nt;
};

Setup make_setup(tg::Extents3 e, int so, int nt, int n_rec = 4) {
  ph::Geometry g{e, 20.0, so, /*nbl=*/4};  // paper: TTI uses 20 m spacing
  Setup s{ph::make_tti_layered(g, 1.5, 3.0, 3),
          sp::SparseTimeSeries(sp::single_center_source(e, 0.4), nt),
          sp::SparseTimeSeries(sp::receiver_line(e, n_rec, 0.15, 3), nt), nt};
  s.src.broadcast_signature(sp::ricker(nt, s.model.critical_dt(), 0.012));
  return s;
}

}  // namespace

TEST(TTI, ReducesToAcousticWithoutAnisotropy) {
  const tg::Extents3 e{20, 18, 16};
  const int nt = 20;
  ph::Geometry g{e, 10.0, 4, 4};

  // TTI model with every anisotropy parameter zeroed.
  ph::TTIModel tti = ph::make_tti_layered(g, 1.5, 3.0, 3);
  tti.epsilon.fill(0.0f);
  tti.delta.fill(0.0f);
  tti.theta.fill(0.0f);
  tti.phi.fill(0.0f);

  ph::AcousticModel ac = ph::make_acoustic_layered(g, 1.5, 3.0, 3);
  const double dt = ac.critical_dt();

  sp::SparseTimeSeries src(sp::single_center_source(e, 0.4), nt);
  src.broadcast_signature(sp::ricker(nt, dt, 0.015));

  ph::PropagatorOptions opts;
  opts.dt = dt;  // force identical timestep
  ph::TTIPropagator tp(tti, opts);
  tp.run(ph::Schedule::SpaceBlocked, src, nullptr);
  ph::AcousticPropagator ap(ac, opts);
  ap.run(ph::Schedule::SpaceBlocked, src, nullptr);

  const double umax = tg::max_abs(ap.wavefield(nt));
  ASSERT_GT(umax, 0.0);
  EXPECT_LT(tg::max_abs_diff(ap.wavefield(nt), tp.wavefield_p(nt)),
            2e-4 * umax);
  // p and q stay identical when the coupling is symmetric.
  EXPECT_LT(tg::max_abs_diff(tp.wavefield_p(nt), tp.wavefield_q(nt)),
            1e-6 * umax);
}

TEST(TTI, SpaceBlockedMatchesReference) {
  auto s = make_setup({18, 16, 14}, 4, 16);
  ph::TTIPropagator a(s.model);
  a.run(ph::Schedule::Reference, s.src, nullptr);
  const auto p_ref = a.wavefield_p(s.nt);
  const auto q_ref = a.wavefield_q(s.nt);

  ph::TTIPropagator b(s.model);
  b.run(ph::Schedule::SpaceBlocked, s.src, nullptr);
  EXPECT_EQ(tg::max_abs_diff(p_ref, b.wavefield_p(s.nt)), 0.0);
  EXPECT_EQ(tg::max_abs_diff(q_ref, b.wavefield_q(s.nt)), 0.0);
}

TEST(TTI, WavefrontMatchesBaseline) {
  auto s = make_setup({18, 16, 14}, 4, 16);
  ph::TTIPropagator base(s.model);
  auto rec_base = s.rec;
  base.run(ph::Schedule::SpaceBlocked, s.src, &rec_base);
  const auto p_base = base.wavefield_p(s.nt);
  const auto q_base = base.wavefield_q(s.nt);

  ph::PropagatorOptions opts;
  opts.tiles = tc::TileSpec{4, 8, 8, 4, 4};
  ph::TTIPropagator wave(s.model, opts);
  auto rec_wave = s.rec;
  const ph::RunStats stats =
      wave.run(ph::Schedule::Wavefront, s.src, &rec_wave);

  EXPECT_EQ(tg::max_abs_diff(p_base, wave.wavefield_p(s.nt)), 0.0);
  EXPECT_EQ(tg::max_abs_diff(q_base, wave.wavefield_q(s.nt)), 0.0);

  double scale = 1e-20;
  for (int t = 0; t < s.nt; ++t)
    for (int r = 0; r < rec_base.npoints(); ++r)
      scale = std::max(scale,
                       std::fabs(static_cast<double>(rec_base.at(t, r))));
  for (int t = 0; t < s.nt; ++t)
    for (int r = 0; r < rec_base.npoints(); ++r)
      EXPECT_NEAR(rec_wave.at(t, r), rec_base.at(t, r), 1e-5 * scale);
  EXPECT_GT(stats.seconds, 0.0);
}

class TTITileSweep : public ::testing::TestWithParam<tc::TileSpec> {};

TEST_P(TTITileSweep, WavefrontInvariantToTileShape) {
  auto s = make_setup({16, 14, 12}, 4, 14, 2);
  ph::TTIPropagator base(s.model);
  base.run(ph::Schedule::SpaceBlocked, s.src, nullptr);
  const auto p_base = base.wavefield_p(s.nt);

  ph::PropagatorOptions opts;
  opts.tiles = GetParam();
  ph::TTIPropagator wave(s.model, opts);
  wave.run(ph::Schedule::Wavefront, s.src, nullptr);
  EXPECT_EQ(tg::max_abs_diff(p_base, wave.wavefield_p(s.nt)), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Tiles, TTITileSweep,
                         ::testing::Values(tc::TileSpec{1, 8, 8, 4, 4},
                                           tc::TileSpec{4, 8, 8, 4, 4},
                                           tc::TileSpec{8, 16, 12, 4, 6},
                                           tc::TileSpec{16, 64, 64, 8, 8}));

class TTIOrderSweep : public ::testing::TestWithParam<int> {};

TEST_P(TTIOrderSweep, WavefrontMatchesBaselineAcrossOrders) {
  const int so = GetParam();
  auto s = make_setup({18, 16, 14}, so, 12, 2);
  ph::TTIPropagator base(s.model);
  base.run(ph::Schedule::SpaceBlocked, s.src, nullptr);
  ph::TTIPropagator wave(s.model);
  wave.run(ph::Schedule::Wavefront, s.src, nullptr);
  EXPECT_EQ(tg::max_abs_diff(base.wavefield_p(s.nt), wave.wavefield_p(s.nt)),
            0.0);
  EXPECT_GT(tg::max_abs(wave.wavefield_p(s.nt)), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Orders, TTIOrderSweep,
                         ::testing::Values(4, 8, 10, 12));

TEST(TTI, StableOverManySteps) {
  auto s = make_setup({16, 16, 16}, 4, 100, 2);
  ph::TTIPropagator p(s.model);
  p.run(ph::Schedule::Wavefront, s.src, nullptr);
  const double m = tg::max_abs(p.wavefield_p(s.nt));
  EXPECT_TRUE(std::isfinite(m));
  EXPECT_LT(m, 1e3);
}

TEST(TTI, AnisotropyChangesTheWavefield) {
  // With the layered anisotropic parameters the solution must differ
  // substantially from the isotropic one — i.e. the rotated operator is not
  // a no-op.
  const tg::Extents3 e{20, 18, 16};
  const int nt = 20;
  ph::Geometry g{e, 10.0, 4, 4};
  ph::TTIModel aniso = ph::make_tti_layered(g, 1.5, 3.0, 3);
  ph::TTIModel iso = ph::make_tti_layered(g, 1.5, 3.0, 3);
  iso.epsilon.fill(0.0f);
  iso.delta.fill(0.0f);
  iso.theta.fill(0.0f);
  iso.phi.fill(0.0f);

  ph::PropagatorOptions opts;
  opts.dt = aniso.critical_dt();

  sp::SparseTimeSeries src(sp::single_center_source(e, 0.4), nt);
  src.broadcast_signature(sp::ricker(nt, opts.dt, 0.015));

  ph::TTIPropagator pa(aniso, opts);
  pa.run(ph::Schedule::SpaceBlocked, src, nullptr);
  ph::TTIPropagator pi(iso, opts);
  pi.run(ph::Schedule::SpaceBlocked, src, nullptr);

  const double umax = tg::max_abs(pi.wavefield_p(nt));
  ASSERT_GT(umax, 0.0);
  EXPECT_GT(tg::max_abs_diff(pa.wavefield_p(nt), pi.wavefield_p(nt)),
            1e-2 * umax);
}

TEST(TTI, RejectsShortRuns) {
  auto s = make_setup({16, 16, 16}, 4, 12, 1);
  ph::TTIPropagator p(s.model);
  sp::SparseTimeSeries one(sp::single_center_source({16, 16, 16}, 0.4), 1);
  EXPECT_THROW(p.run(ph::Schedule::SpaceBlocked, one, nullptr),
               tempest::util::PreconditionError);
}

// One-step oracle: seed p and q (both time levels) with random values,
// advance one step with a silent source, and compare every updated point
// with a double-precision evaluation of the rotated operator built from
// stencil::second_deriv and stencil::cross_deriv. SO 4 runs the unrolled
// radius-2 instance of the update, SO 10 its run-time-radius instance.
class TTIOneStepOracle : public ::testing::TestWithParam<int> {};

TEST_P(TTIOneStepOracle, MatchesDoublePrecisionReference) {
  const int so = GetParam();
  const tg::Extents3 e{13, 12, 11};
  ph::Geometry g{e, 20.0, so, /*nbl=*/3};
  ph::TTIModel model = ph::make_tti_layered(g, 1.5, 3.0, 3);
  model.theta.for_each_interior([&](int x, int y, int z) {  // tilted axis
    model.theta(x, y, z) = static_cast<real_t>(0.4 + 0.05 * (x + y - z));
    model.phi(x, y, z) = static_cast<real_t>(0.9 - 0.04 * (x - 2 * y + z));
  });
  ph::TTIPropagator prop(model);

  tempest::util::SplitMix64 rng(static_cast<std::uint64_t>(so));
  tempest::resilience::Checkpoint ck = prop.capture(1, 0);
  for (tg::Grid3<real_t>& slot : ck.slots) {  // p slots, then q slots
    slot.for_each_interior([&](int x, int y, int z) {
      slot(x, y, z) = static_cast<real_t>(rng.uniform(-1.0, 1.0));
    });
  }
  prop.restore(ck);
  const tg::Grid3<real_t> p0 = prop.wavefield_p(0), p1 = prop.wavefield_p(1);
  const tg::Grid3<real_t> q0 = prop.wavefield_q(0), q1 = prop.wavefield_q(1);

  sp::SparseTimeSeries silent(sp::single_center_source(e, 0.4), 2);
  prop.run_from(1, ph::Schedule::Reference, silent);

  const tempest::stencil::Coeffs c2 = tempest::stencil::central(2, so);
  const tempest::stencil::Coeffs c1 = tempest::stencil::central(1, so);
  const double h2 = g.spacing * g.spacing;
  const double dt = prop.dt();
  double err_p = 0.0, err_q = 0.0, max_p = 0.0, max_q = 0.0;
  p1.for_each_interior([&](int x, int y, int z) {
    const double t = model.theta(x, y, z), f = model.phi(x, y, z);
    const double n[3] = {std::sin(t) * std::cos(f), std::sin(t) * std::sin(f),
                         std::cos(t)};
    // (laplacian, second derivative along n) of one field, times h^2.
    const auto rotated = [&](const tg::Grid3<real_t>& u) {
      double lap = 0.0, hz = 0.0;
      for (int i = 0; i < 3; ++i) {
        const double d2 = tempest::stencil::second_deriv(u, c2, i, x, y, z);
        lap += d2;
        hz += n[i] * n[i] * d2;
        for (int j = i + 1; j < 3; ++j) {
          hz += 2.0 * n[i] * n[j] *
                tempest::stencil::cross_deriv(u, c1, i, j, x, y, z);
        }
      }
      return std::pair{lap, hz};
    };
    const auto [lap_p, hz_p] = rotated(p1);
    const auto hz_q = rotated(q1).second;
    const double ah = 1.0 + 2.0 * model.epsilon(x, y, z);
    const double an = std::sqrt(1.0 + 2.0 * model.delta(x, y, z));
    const double m = model.m(x, y, z) / (dt * dt);
    const double d = model.damp(x, y, z) / (2.0 * dt);
    const double hperp = (lap_p - hz_p) / h2;
    const double want_p = (ah * hperp + an * hz_q / h2 +
                           m * (2.0 * p1(x, y, z) - p0(x, y, z)) +
                           d * p0(x, y, z)) / (m + d);
    const double want_q = (an * hperp + hz_q / h2 +
                           m * (2.0 * q1(x, y, z) - q0(x, y, z)) +
                           d * q0(x, y, z)) / (m + d);
    err_p = std::max(err_p, std::fabs(prop.wavefield_p(2)(x, y, z) - want_p));
    err_q = std::max(err_q, std::fabs(prop.wavefield_q(2)(x, y, z) - want_q));
    max_p = std::max(max_p, std::fabs(want_p));
    max_q = std::max(max_q, std::fabs(want_q));
  });
  EXPECT_LE(err_p, 2e-6 * max_p) << "so=" << so;
  EXPECT_LE(err_q, 2e-6 * max_q) << "so=" << so;
}

INSTANTIATE_TEST_SUITE_P(Orders, TTIOneStepOracle, ::testing::Values(4, 10));
