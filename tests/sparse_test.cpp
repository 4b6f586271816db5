#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "tempest/grid/grid3.hpp"
#include "tempest/sparse/interp.hpp"
#include "tempest/sparse/operators.hpp"
#include "tempest/sparse/series.hpp"
#include "tempest/sparse/survey.hpp"
#include "tempest/sparse/wavelet.hpp"
#include "tempest/util/error.hpp"

namespace sp = tempest::sparse;
namespace tg = tempest::grid;
using tempest::real_t;

namespace {
constexpr tg::Extents3 kE{16, 16, 16};

double weight_sum(const std::vector<sp::SupportPoint>& sup) {
  double s = 0.0;
  for (const auto& p : sup) s += p.w;
  return s;
}
}  // namespace

TEST(Interp, TrilinearEightPoints) {
  const auto sup = sp::support({3.25, 4.5, 5.75}, sp::InterpKind::Trilinear, kE);
  EXPECT_EQ(sup.size(), 8u);
  EXPECT_NEAR(weight_sum(sup), 1.0, 1e-12);
  for (const auto& p : sup) {
    EXPECT_GE(p.w, 0.0);
    EXPECT_TRUE((p.x == 3 || p.x == 4) && (p.y == 4 || p.y == 5) &&
                (p.z == 5 || p.z == 6));
  }
}

TEST(Interp, TrilinearKnownWeights) {
  const auto sup = sp::support({1.25, 2.0, 3.0}, sp::InterpKind::Trilinear, kE);
  // On-grid in y and z: only the x pair survives.
  ASSERT_EQ(sup.size(), 2u);
  const auto& a = sup[0];
  const auto& b = sup[1];
  EXPECT_EQ(a.x, 1);
  EXPECT_NEAR(a.w, 0.75, 1e-12);
  EXPECT_EQ(b.x, 2);
  EXPECT_NEAR(b.w, 0.25, 1e-12);
}

TEST(Interp, OnGridPointIsExactSingleton) {
  const auto sup = sp::support({5.0, 6.0, 7.0}, sp::InterpKind::Trilinear, kE);
  ASSERT_EQ(sup.size(), 1u);
  EXPECT_EQ(sup[0].x, 5);
  EXPECT_EQ(sup[0].y, 6);
  EXPECT_EQ(sup[0].z, 7);
  EXPECT_DOUBLE_EQ(sup[0].w, 1.0);
}

TEST(Interp, WindowedSincPartitionOfUnity) {
  const auto sup =
      sp::support({7.3, 8.6, 9.1}, sp::InterpKind::WindowedSinc, kE);
  EXPECT_EQ(sup.size(), 64u);  // 4 points per dim
  EXPECT_NEAR(weight_sum(sup), 1.0, 1e-10);
}

TEST(Interp, WindowedSincOnGridIsSingleton) {
  const auto sup =
      sp::support({7.0, 8.0, 9.0}, sp::InterpKind::WindowedSinc, kE);
  ASSERT_EQ(sup.size(), 1u);
  EXPECT_DOUBLE_EQ(sup[0].w, 1.0);
}

TEST(Interp, ClipsAtDomainEdge) {
  // x support would be {-1..2} for sinc at 0.5: negatives are dropped.
  const auto sup =
      sp::support({0.5, 8.0, 9.0}, sp::InterpKind::WindowedSinc, kE);
  for (const auto& p : sup) EXPECT_GE(p.x, 0);
  EXPECT_LT(sup.size(), 4u * 1u * 1u + 1u);
}

TEST(Interp, NonFiniteOrOutOfRangeCoordinateThrows) {
  // The base index is an int cast of floor(c): undefined for these.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf, 3.0e9, -3.0e9}) {
    for (const auto kind :
         {sp::InterpKind::Trilinear, sp::InterpKind::WindowedSinc}) {
      EXPECT_THROW((void)sp::support({8.5, bad, 9.0}, kind, kE),
                   tempest::util::PreconditionError)
          << bad;
      EXPECT_THROW((void)sp::support({bad, 8.5, 9.0}, kind, kE),
                   tempest::util::PreconditionError)
          << bad;
      EXPECT_THROW((void)sp::support({8.5, 9.0, bad}, kind, kE),
                   tempest::util::PreconditionError)
          << bad;
    }
  }
}

TEST(Interp, SupportWidth) {
  EXPECT_EQ(sp::support_width(sp::InterpKind::Trilinear), 2);
  EXPECT_EQ(sp::support_width(sp::InterpKind::WindowedSinc), 4);
}

TEST(Interp, TrilinearReproducesLinearField) {
  // Gather of a linear field through trilinear weights is exact.
  tg::Grid3<real_t> u(kE, 0, 0.0f);
  u.for_each_interior([&](int x, int y, int z) {
    u(x, y, z) = static_cast<real_t>(2.0 * x - 3.0 * y + 0.5 * z + 1.0);
  });
  const sp::Coord3 c{4.3, 7.9, 2.2};
  sp::SparseTimeSeries rec({c}, 1);
  sp::interpolate(u, rec, 0, sp::InterpKind::Trilinear);
  const double expected = 2.0 * c.x - 3.0 * c.y + 0.5 * c.z + 1.0;
  EXPECT_NEAR(rec.at(0, 0), expected, 1e-3);
}

TEST(Wavelet, RickerPeakAtDelay) {
  const double dt = 0.5, f0 = 0.010;  // 10 Hz in kHz/ms units
  const int nt = 600;
  const auto w = sp::ricker(nt, dt, f0);
  const auto peak = std::max_element(w.begin(), w.end());
  EXPECT_NEAR(*peak, 1.0, 1e-4);
  const double t_peak = static_cast<double>(peak - w.begin()) * dt;
  EXPECT_NEAR(t_peak, 1.5 / f0, dt + 1e-9);
}

TEST(Wavelet, RickerZeroMeanAndDecay) {
  const auto w = sp::ricker(4000, 0.5, 0.010);
  double sum = 0.0;
  for (real_t v : w) sum += v;
  EXPECT_NEAR(sum, 0.0, 1e-2);       // integral of Ricker is 0
  EXPECT_NEAR(w.back(), 0.0, 1e-6);  // fully decayed
}

TEST(Series, LayoutAndBroadcast) {
  sp::SparseTimeSeries s({{1.5, 2.5, 3.5}, {4.5, 5.5, 6.5}}, 4);
  EXPECT_EQ(s.npoints(), 2);
  EXPECT_EQ(s.nt(), 4);
  const std::vector<real_t> sig{1.0f, 2.0f, 3.0f, 4.0f};
  s.broadcast_signature(sig);
  EXPECT_EQ(s.at(2, 0), 3.0f);
  EXPECT_EQ(s.at(2, 1), 3.0f);
  auto step = s.step(3);
  ASSERT_EQ(step.size(), 2u);
  EXPECT_EQ(step[0], 4.0f);
  s.zero();
  EXPECT_EQ(s.at(3, 1), 0.0f);
}

TEST(Operators, InjectScattersWeightedAmplitude) {
  tg::Grid3<real_t> u(kE, 2, 0.0f);
  sp::SparseTimeSeries src({{3.5, 4.5, 5.5}}, 2);
  src.at(1, 0) = 2.0f;
  sp::inject(u, src, 1, sp::InterpKind::Trilinear,
             [](int, int, int) { return 3.0; });
  // 8 corners each get 0.125 * 2 * 3 = 0.75.
  double total = 0.0;
  u.for_each_interior([&](int x, int y, int z) { total += u(x, y, z); });
  EXPECT_NEAR(total, 6.0, 1e-5);
  EXPECT_NEAR(u(3, 4, 5), 0.75, 1e-6);
  EXPECT_NEAR(u(4, 5, 6), 0.75, 1e-6);
}

TEST(Operators, CachedMatchesUncached) {
  tg::Grid3<real_t> a(kE, 2, 0.0f), b(kE, 2, 0.0f);
  sp::SparseTimeSeries src({{3.25, 4.5, 5.75}, {8.1, 2.9, 11.4}}, 3);
  src.broadcast_signature(std::vector<real_t>{0.5f, -1.5f, 2.5f});
  auto scale = [](int x, int, int) { return 1.0 + 0.1 * x; };
  sp::inject(a, src, 2, sp::InterpKind::Trilinear, scale);
  const sp::SupportCache cache(src, sp::InterpKind::Trilinear, kE);
  sp::inject_cached(b, src, 2, cache, scale);
  EXPECT_EQ(tg::max_abs_diff(a, b), 0.0);

  sp::SparseTimeSeries rec1({{5.5, 5.5, 5.5}}, 3), rec2({{5.5, 5.5, 5.5}}, 3);
  sp::interpolate(a, rec1, 1, sp::InterpKind::Trilinear);
  const sp::SupportCache rcache(rec1, sp::InterpKind::Trilinear, kE);
  sp::interpolate_cached(a, rec2, 1, rcache, /*threads=*/1);
  EXPECT_EQ(rec1.at(1, 0), rec2.at(1, 0));
}

TEST(Operators, InjectInterpolateRoundTrip) {
  // Interpolating right where we injected recovers amp * sum w^2 <= amp.
  tg::Grid3<real_t> u(kE, 0, 0.0f);
  const sp::Coord3 c{6.3, 7.7, 8.2};
  sp::SparseTimeSeries src({c}, 1);
  src.at(0, 0) = 1.0f;
  sp::inject(u, src, 0, sp::InterpKind::Trilinear,
             [](int, int, int) { return 1.0; });
  sp::SparseTimeSeries rec({c}, 1);
  sp::interpolate(u, rec, 0, sp::InterpKind::Trilinear);
  double w2 = 0.0;
  for (const auto& p : sp::support(c, sp::InterpKind::Trilinear, kE))
    w2 += p.w * p.w;
  EXPECT_NEAR(rec.at(0, 0), w2, 1e-6);
  EXPECT_LE(rec.at(0, 0), 1.0f);
  EXPECT_GT(rec.at(0, 0), 0.0f);
}

TEST(Survey, SingleCenterSourceOffGrid) {
  const auto c = sp::single_center_source(kE);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_NE(c[0].x, std::floor(c[0].x));
  EXPECT_NE(c[0].y, std::floor(c[0].y));
  EXPECT_NE(c[0].z, std::floor(c[0].z));
}

TEST(Survey, PlaneScatterStaysOnPlaneWithinMargin) {
  const tg::Extents3 e{64, 64, 64};
  const auto pts = sp::plane_scatter(e, 50, 123, 0.2, 8);
  ASSERT_EQ(pts.size(), 50u);
  for (const auto& p : pts) {
    EXPECT_DOUBLE_EQ(p.z, pts[0].z);
    EXPECT_GE(p.x, 8.0);
    EXPECT_LE(p.x, 55.0);
    EXPECT_GE(p.y, 8.0);
    EXPECT_LE(p.y, 55.0);
  }
}

TEST(Survey, PlaneScatterDeterministicBySeed) {
  const tg::Extents3 e{64, 64, 64};
  EXPECT_EQ(sp::plane_scatter(e, 10, 99), sp::plane_scatter(e, 10, 99));
  EXPECT_NE(sp::plane_scatter(e, 10, 99), sp::plane_scatter(e, 10, 100));
}

TEST(Survey, DenseVolumeCoversRequestedCount) {
  const tg::Extents3 e{64, 64, 64};
  for (int n : {1, 7, 27, 100}) {
    const auto pts = sp::dense_volume(e, n, 5);
    EXPECT_EQ(static_cast<int>(pts.size()), n);
    for (const auto& p : pts) {
      EXPECT_GE(p.z, 8.0);
      EXPECT_LE(p.z, 55.0);
    }
  }
}

TEST(Survey, ReceiverLineSpansX) {
  const tg::Extents3 e{128, 64, 64};
  const auto pts = sp::receiver_line(e, 11);
  ASSERT_EQ(pts.size(), 11u);
  EXPECT_LT(pts.front().x, pts.back().x);
  for (std::size_t i = 1; i < pts.size(); ++i)
    EXPECT_GT(pts[i].x, pts[i - 1].x);
}

TEST(Survey, ReceiverCarpetCount) {
  const tg::Extents3 e{64, 64, 64};
  EXPECT_EQ(sp::receiver_carpet(e, 5, 7).size(), 35u);
}
