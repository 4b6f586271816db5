#include <gtest/gtest.h>

#include <cmath>

#include "tempest/physics/tti.hpp"
#include "tempest/physics/vti.hpp"
#include "tempest/sparse/survey.hpp"
#include "tempest/sparse/wavelet.hpp"

namespace ph = tempest::physics;
namespace sp = tempest::sparse;
namespace tg = tempest::grid;
namespace tc = tempest::core;
using tempest::real_t;

namespace {

constexpr tg::Extents3 kE{20, 18, 16};

ph::TTIModel make_vti_model(int so) {
  ph::Geometry g{kE, 20.0, so, 4};
  ph::TTIModel m = ph::make_tti_layered(g, 1.5, 3.0, 3);
  m.theta.fill(0.0f);  // untilted: a genuine VTI medium
  m.phi.fill(0.0f);
  return m;
}

sp::SparseTimeSeries make_src(double dt, int nt) {
  sp::SparseTimeSeries src(sp::single_center_source(kE, 0.4), nt);
  src.broadcast_signature(sp::ricker(nt, dt, 0.012));
  return src;
}

}  // namespace

TEST(VTI, RejectsTiltedModels) {
  ph::Geometry g{kE, 20.0, 4, 4};
  const ph::TTIModel tilted = ph::make_tti_layered(g, 1.5, 3.0, 3);
  EXPECT_THROW(ph::VTIPropagator p(tilted), tempest::util::PreconditionError);
}

TEST(VTI, MatchesTTIOnUntiltedModel) {
  // The dedicated VTI kernel and the general TTI kernel evaluated at zero
  // tilt are two implementations of the same operator.
  const auto model = make_vti_model(4);
  const int nt = 16;
  ph::PropagatorOptions opts;
  opts.dt = model.critical_dt();
  const auto src = make_src(opts.dt, nt);

  ph::VTIPropagator vti(model, opts);
  vti.run(ph::Schedule::SpaceBlocked, src, nullptr);
  ph::TTIPropagator tti(model, opts);
  tti.run(ph::Schedule::SpaceBlocked, src, nullptr);

  const double pmax = tg::max_abs(tti.wavefield_p(nt));
  ASSERT_GT(pmax, 0.0);
  // Different evaluation orders (TTI computes Hz via the dyad; VTI
  // directly), so rounding-level tolerance.
  EXPECT_LT(tg::max_abs_diff(vti.wavefield_p(nt), tti.wavefield_p(nt)),
            2e-4 * pmax);
  EXPECT_LT(tg::max_abs_diff(vti.wavefield_q(nt), tti.wavefield_q(nt)),
            2e-4 * pmax);
}

class VTISchedule : public ::testing::TestWithParam<int> {};

TEST_P(VTISchedule, WavefrontMatchesBaselineAcrossOrders) {
  const int so = GetParam();
  const auto model = make_vti_model(so);
  const int nt = 14;
  const auto src = make_src(model.critical_dt(), nt);

  ph::VTIPropagator base(model);
  base.run(ph::Schedule::SpaceBlocked, src, nullptr);
  const auto p_base = base.wavefield_p(nt);

  ph::PropagatorOptions opts;
  opts.tiles = tc::TileSpec{4, 8, 8, 4, 4};
  ph::VTIPropagator wave(model, opts);
  wave.run(ph::Schedule::Wavefront, src, nullptr);
  EXPECT_EQ(tg::max_abs_diff(p_base, wave.wavefield_p(nt)), 0.0);
  EXPECT_GT(tg::max_abs(wave.wavefield_p(nt)), 0.0);
}

// 10 (radius 5) runs the run-time-radius instance of the update.
INSTANTIATE_TEST_SUITE_P(Orders, VTISchedule,
                         ::testing::Values(2, 4, 8, 10, 12));

TEST(VTI, ReferenceMatchesSpaceBlocked) {
  const auto model = make_vti_model(4);
  const int nt = 12;
  const auto src = make_src(model.critical_dt(), nt);
  ph::VTIPropagator a(model);
  a.run(ph::Schedule::Reference, src, nullptr);
  const auto p_ref = a.wavefield_p(nt);
  ph::VTIPropagator b(model);
  b.run(ph::Schedule::SpaceBlocked, src, nullptr);
  EXPECT_EQ(tg::max_abs_diff(p_ref, b.wavefield_p(nt)), 0.0);
}

TEST(VTI, ReceiversRecordAndSchedulesAgree) {
  const auto model = make_vti_model(4);
  const int nt = 30;
  const auto src = make_src(model.critical_dt(), nt);
  sp::SparseTimeSeries rec_base(sp::receiver_line(kE, 4, 0.2, 4), nt);
  sp::SparseTimeSeries rec_wave = rec_base;

  ph::VTIPropagator prop(model);
  prop.run(ph::Schedule::SpaceBlocked, src, &rec_base);
  prop.run(ph::Schedule::Wavefront, src, &rec_wave);

  double scale = 1e-20;
  for (int t = 0; t < nt; ++t)
    for (int r = 0; r < rec_base.npoints(); ++r)
      scale = std::max(scale,
                       std::fabs(static_cast<double>(rec_base.at(t, r))));
  EXPECT_GT(scale, 1e-12);  // the wave reached the line
  for (int t = 0; t < nt; ++t)
    for (int r = 0; r < rec_base.npoints(); ++r)
      EXPECT_NEAR(rec_wave.at(t, r), rec_base.at(t, r), 1e-5 * scale);
}

TEST(VTI, StableOverManySteps) {
  const auto model = make_vti_model(4);
  const int nt = 120;
  const auto src = make_src(model.critical_dt(), nt);
  ph::VTIPropagator p(model);
  p.run(ph::Schedule::Wavefront, src, nullptr);
  const double m = tg::max_abs(p.wavefield_p(nt));
  EXPECT_TRUE(std::isfinite(m));
  EXPECT_LT(m, 1e3);
}
