#include <gtest/gtest.h>

#include <cmath>

#include "tempest/physics/acoustic.hpp"
#include "tempest/sparse/survey.hpp"
#include "tempest/sparse/wavelet.hpp"

namespace ph = tempest::physics;
namespace sp = tempest::sparse;
namespace tg = tempest::grid;
namespace tc = tempest::core;
using tempest::real_t;

namespace {

struct Setup {
  ph::AcousticModel model;
  sp::SparseTimeSeries src;
  sp::SparseTimeSeries rec;
  int nt;
};

Setup make_setup(tg::Extents3 e, int so, int nt, sp::CoordList src_coords,
                 int n_rec) {
  ph::Geometry g{e, 10.0, so, /*nbl=*/4};
  Setup s{ph::make_acoustic_layered(g, 1.5, 3.0, 3),
          sp::SparseTimeSeries(std::move(src_coords), nt),
          sp::SparseTimeSeries(sp::receiver_line(e, n_rec, 0.15, 3), nt), nt};
  const double dt = s.model.critical_dt();
  s.src.broadcast_signature(sp::ricker(nt, dt, /*f0=*/0.015));
  return s;
}

}  // namespace

TEST(Acoustic, SpaceBlockedMatchesReferenceBitExact) {
  auto s = make_setup({20, 18, 16}, 4, 24, sp::single_center_source({20, 18, 16}, 0.4), 5);
  ph::AcousticPropagator prop_a(s.model);
  auto rec_a = s.rec;
  prop_a.run(ph::Schedule::Reference, s.src, &rec_a);
  const auto u_ref = prop_a.wavefield(s.nt);  // copy

  ph::AcousticPropagator prop_b(s.model);
  auto rec_b = s.rec;
  prop_b.run(ph::Schedule::SpaceBlocked, s.src, &rec_b);

  EXPECT_EQ(tg::max_abs_diff(u_ref, prop_b.wavefield(s.nt)), 0.0);
  for (int t = 0; t < s.nt; ++t) {
    for (int r = 0; r < rec_a.npoints(); ++r) {
      EXPECT_EQ(rec_a.at(t, r), rec_b.at(t, r));
    }
  }
}

TEST(Acoustic, WavefrontMatchesBaselineSingleSource) {
  auto s = make_setup({20, 18, 16}, 4, 24, sp::single_center_source({20, 18, 16}, 0.4), 5);
  ph::AcousticPropagator base(s.model);
  auto rec_base = s.rec;
  base.run(ph::Schedule::SpaceBlocked, s.src, &rec_base);
  const auto u_base = base.wavefield(s.nt);

  ph::PropagatorOptions opts;
  opts.tiles = tc::TileSpec{4, 8, 8, 4, 4};
  ph::AcousticPropagator wave(s.model, opts);
  auto rec_wave = s.rec;
  const ph::RunStats stats = wave.run(ph::Schedule::Wavefront, s.src, &rec_wave);

  // Wavefield: identical arithmetic per point => bit-exact for one source.
  EXPECT_EQ(tg::max_abs_diff(u_base, wave.wavefield(s.nt)), 0.0);
  // Receiver traces: gather orders differ => tolerance compare.
  double scale = 0.0;
  for (int t = 0; t < s.nt; ++t)
    for (int r = 0; r < rec_base.npoints(); ++r)
      scale = std::max(scale, std::fabs(static_cast<double>(rec_base.at(t, r))));
  for (int t = 0; t < s.nt; ++t) {
    for (int r = 0; r < rec_base.npoints(); ++r) {
      EXPECT_NEAR(rec_wave.at(t, r), rec_base.at(t, r), 1e-5 * (scale + 1e-20))
          << "t=" << t << " r=" << r;
    }
  }
  EXPECT_GT(stats.precompute_seconds, 0.0);
  EXPECT_GT(stats.seconds, 0.0);
  EXPECT_EQ(stats.point_updates,
            static_cast<long long>(s.nt - 1) * 20 * 18 * 16);
}

class AcousticTileSweep : public ::testing::TestWithParam<tc::TileSpec> {};

TEST_P(AcousticTileSweep, WavefrontInvariantToTileShape) {
  auto s = make_setup({18, 14, 12}, 4, 18, sp::single_center_source({18, 14, 12}, 0.4), 3);
  ph::AcousticPropagator base(s.model);
  base.run(ph::Schedule::SpaceBlocked, s.src, nullptr);
  const auto u_base = base.wavefield(s.nt);

  ph::PropagatorOptions opts;
  opts.tiles = GetParam();
  ph::AcousticPropagator wave(s.model, opts);
  wave.run(ph::Schedule::Wavefront, s.src, nullptr);
  EXPECT_EQ(tg::max_abs_diff(u_base, wave.wavefield(s.nt)), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Tiles, AcousticTileSweep,
    ::testing::Values(tc::TileSpec{1, 8, 8, 4, 4},
                      tc::TileSpec{2, 4, 4, 4, 4},
                      tc::TileSpec{4, 8, 8, 8, 8},
                      tc::TileSpec{8, 16, 16, 4, 4},
                      tc::TileSpec{17, 6, 10, 3, 5},
                      tc::TileSpec{32, 64, 64, 16, 16}));

class AcousticOrderSweep : public ::testing::TestWithParam<int> {};

TEST_P(AcousticOrderSweep, WavefrontMatchesBaselineAcrossOrders) {
  const int so = GetParam();
  const tg::Extents3 e{22, 20, 18};
  auto s = make_setup(e, so, 16, sp::single_center_source(e, 0.4), 4);
  ph::AcousticPropagator base(s.model);
  base.run(ph::Schedule::SpaceBlocked, s.src, nullptr);
  const auto u_base = base.wavefield(s.nt);

  ph::PropagatorOptions opts;
  opts.tiles = tc::TileSpec{4, 8, 8, 4, 4};
  ph::AcousticPropagator wave(s.model, opts);
  wave.run(ph::Schedule::Wavefront, s.src, nullptr);
  EXPECT_EQ(tg::max_abs_diff(u_base, wave.wavefield(s.nt)), 0.0) << "so=" << so;
  EXPECT_GT(tg::max_abs(wave.wavefield(s.nt)), 0.0) << "wave must propagate";
}

// 10 (radius 5) runs the run-time-radius instance of update_block.
INSTANTIATE_TEST_SUITE_P(Orders, AcousticOrderSweep,
                         ::testing::Values(2, 4, 8, 10, 12));

TEST(Acoustic, MultipleSourcesAgreeWithinTolerance) {
  const tg::Extents3 e{24, 20, 16};
  const int nt = 20;
  auto coords = sp::plane_scatter(e, 9, /*seed=*/42, 0.3, 4);
  auto s = make_setup(e, 4, nt, std::move(coords), 4);

  ph::AcousticPropagator base(s.model);
  base.run(ph::Schedule::SpaceBlocked, s.src, nullptr);
  const auto u_base = base.wavefield(nt);

  ph::AcousticPropagator wave(s.model);
  wave.run(ph::Schedule::Wavefront, s.src, nullptr);
  // Decomposition pre-sums overlapping sources in float, so results agree to
  // rounding rather than bit-exactly.
  const double umax = tg::max_abs(u_base);
  EXPECT_GT(umax, 0.0);
  EXPECT_LT(tg::max_abs_diff(u_base, wave.wavefield(nt)), 1e-4 * umax);
}

TEST(Acoustic, WindowedSincInterpolationSupported) {
  const tg::Extents3 e{20, 18, 16};
  auto s = make_setup(e, 4, 16, sp::single_center_source(e, 0.4), 3);
  ph::PropagatorOptions opts;
  opts.interp = sp::InterpKind::WindowedSinc;

  ph::AcousticPropagator base(s.model, opts);
  auto rec_base = s.rec;
  base.run(ph::Schedule::SpaceBlocked, s.src, &rec_base);
  const auto u_base = base.wavefield(s.nt);

  ph::AcousticPropagator wave(s.model, opts);
  auto rec_wave = s.rec;
  wave.run(ph::Schedule::Wavefront, s.src, &rec_wave);
  EXPECT_EQ(tg::max_abs_diff(u_base, wave.wavefield(s.nt)), 0.0);
}

TEST(Acoustic, NoReceiversIsFine) {
  const tg::Extents3 e{16, 16, 16};
  auto s = make_setup(e, 4, 12, sp::single_center_source(e, 0.4), 1);
  ph::AcousticPropagator p(s.model);
  EXPECT_NO_THROW(p.run(ph::Schedule::Wavefront, s.src, nullptr));
  sp::SparseTimeSeries empty_rec(sp::CoordList{}, s.nt);
  EXPECT_NO_THROW(p.run(ph::Schedule::Wavefront, s.src, &empty_rec));
}

TEST(Acoustic, StableAndBoundedOverManySteps) {
  const tg::Extents3 e{20, 20, 20};
  auto s = make_setup(e, 4, 120, sp::single_center_source(e, 0.4), 3);
  ph::AcousticPropagator p(s.model);
  p.run(ph::Schedule::Wavefront, s.src, nullptr);
  const double m = tg::max_abs(p.wavefield(s.nt));
  EXPECT_TRUE(std::isfinite(m));
  EXPECT_LT(m, 1e3);  // CFL-stable, damped: no blow-up
}

TEST(Acoustic, FirstArrivalTimeMatchesVelocity) {
  // Homogeneous medium: the wavelet peak reaches a receiver at distance d
  // after roughly t0 + d / c.
  const tg::Extents3 e{48, 24, 24};
  ph::Geometry g{e, 10.0, 4, /*nbl=*/4};
  const auto model = ph::make_acoustic_homogeneous(g, 2.0);  // c = 2 m/ms
  const double dt = model.critical_dt();
  const double f0 = 0.02;
  const int nt = 160;

  sp::SparseTimeSeries src({{12.0, 12.0, 12.0}}, nt);
  src.broadcast_signature(sp::ricker(nt, dt, f0));
  sp::SparseTimeSeries rec({{36.0, 12.0, 12.0}}, nt);  // 24 cells = 240 m away

  ph::AcousticPropagator p(model);
  p.run(ph::Schedule::SpaceBlocked, src, &rec);

  // Find the receiver-trace extremum (strongest arrival).
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
  const double travel_ms = 240.0 / 2.0;  // d / c
  // Causality: essentially no energy can reach the receiver before d/c.
  for (int t = 0; t < nt && t * dt < travel_ms * 0.95; ++t) {
    EXPECT_LT(std::fabs(static_cast<double>(rec.at(t, 0))), 1e-3 * best)
        << "acausal energy at t=" << t * dt << " ms";
  }
  // The strongest arrival sits at ~t0 + d/c (wavelet delay plus travel
  // time); near-field terms skew the waveform, hence the generous window.
  const double expected_ms = 1.5 / f0 + travel_ms;
  EXPECT_NEAR(t_peak * dt, expected_ms, 45.0);
}

TEST(Acoustic, DampingAttenuatesBoundaryReflections) {
  const tg::Extents3 e{24, 24, 24};
  ph::Geometry damped{e, 10.0, 4, 6};
  ph::Geometry undamped{e, 10.0, 4, 0};
  const int nt = 220;

  auto run_one = [&](const ph::Geometry& g) {
    auto model = ph::make_acoustic_homogeneous(g, 1.5);
    const double dt = model.critical_dt();
    sp::SparseTimeSeries src(sp::single_center_source(e, 0.5), nt);
    src.broadcast_signature(sp::ricker(nt, dt, 0.02));
    ph::AcousticPropagator p(model);
    p.run(ph::Schedule::SpaceBlocked, src, nullptr);
    return tg::max_abs(p.wavefield(nt));
  };

  // After the wave has hit the boundary several times, the damped model must
  // hold far less energy than the reflecting one.
  EXPECT_LT(run_one(damped), 0.5 * run_one(undamped));
}

TEST(Acoustic, RejectsInvalidRuns) {
  const tg::Extents3 e{16, 16, 16};
  auto s = make_setup(e, 4, 12, sp::single_center_source(e, 0.4), 1);
  ph::AcousticPropagator p(s.model);
  sp::SparseTimeSeries short_rec(sp::receiver_line(e, 2), 4);
  EXPECT_THROW(p.run(ph::Schedule::SpaceBlocked, s.src, &short_rec),
               tempest::util::PreconditionError);
  sp::SparseTimeSeries one_step(sp::single_center_source(e, 0.4), 1);
  EXPECT_THROW(p.run(ph::Schedule::SpaceBlocked, one_step, nullptr),
               tempest::util::PreconditionError);
}
