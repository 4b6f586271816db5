#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <utility>

#include "tempest/grid/grid3.hpp"
#include "tempest/stencil/apply.hpp"
#include "tempest/stencil/cfl.hpp"
#include "tempest/stencil/coefficients.hpp"
#include "tempest/util/error.hpp"

namespace ts = tempest::stencil;
namespace tg = tempest::grid;

TEST(Coefficients, SecondOrderSecondDerivative) {
  const ts::Coeffs c = ts::central(2, 2);
  ASSERT_EQ(c.npoints(), 3);
  EXPECT_NEAR(c.weights[0], 1.0, 1e-12);
  EXPECT_NEAR(c.weights[1], -2.0, 1e-12);
  EXPECT_NEAR(c.weights[2], 1.0, 1e-12);
}

TEST(Coefficients, FourthOrderSecondDerivative) {
  const ts::Coeffs c = ts::central(2, 4);
  ASSERT_EQ(c.npoints(), 5);
  EXPECT_NEAR(c.weights[0], -1.0 / 12.0, 1e-12);
  EXPECT_NEAR(c.weights[1], 4.0 / 3.0, 1e-12);
  EXPECT_NEAR(c.weights[2], -5.0 / 2.0, 1e-12);
  EXPECT_NEAR(c.weights[3], 4.0 / 3.0, 1e-12);
  EXPECT_NEAR(c.weights[4], -1.0 / 12.0, 1e-12);
}

TEST(Coefficients, SecondOrderFirstDerivative) {
  const ts::Coeffs c = ts::central(1, 2);
  ASSERT_EQ(c.npoints(), 3);
  EXPECT_NEAR(c.weights[0], -0.5, 1e-12);
  EXPECT_NEAR(c.weights[1], 0.0, 1e-12);
  EXPECT_NEAR(c.weights[2], 0.5, 1e-12);
}

TEST(Coefficients, StaggeredSecondOrder) {
  const ts::Coeffs c = ts::staggered_first(2);
  ASSERT_EQ(c.npoints(), 2);
  EXPECT_NEAR(c.weights[0], -1.0, 1e-12);
  EXPECT_NEAR(c.weights[1], 1.0, 1e-12);
}

TEST(Coefficients, StaggeredFourthOrder) {
  const ts::Coeffs c = ts::staggered_first(4);
  ASSERT_EQ(c.npoints(), 4);
  EXPECT_NEAR(c.weights[0], 1.0 / 24.0, 1e-12);
  EXPECT_NEAR(c.weights[1], -9.0 / 8.0, 1e-12);
  EXPECT_NEAR(c.weights[2], 9.0 / 8.0, 1e-12);
  EXPECT_NEAR(c.weights[3], -1.0 / 24.0, 1e-12);
}

TEST(Coefficients, RejectsOddOrInvalidOrders) {
  EXPECT_THROW(ts::central(2, 3), tempest::util::PreconditionError);
  EXPECT_THROW(ts::central(2, 0), tempest::util::PreconditionError);
  EXPECT_THROW(ts::central(3, 4), tempest::util::PreconditionError);
  EXPECT_THROW(ts::staggered_first(5), tempest::util::PreconditionError);
}

/// Property sweep over space orders: moment conditions and symmetry.
class CoeffOrder : public ::testing::TestWithParam<int> {};

TEST_P(CoeffOrder, MomentConditionsHold) {
  const int so = GetParam();
  for (int deriv : {1, 2}) {
    const ts::Coeffs c = ts::central(deriv, so);
    const int n = c.npoints();
    // sum w_i o_i^k == k! [k == deriv] for k < n. The sum cancels terms as
    // large as max_i |w_i o_i^k| (~8^16 for so=16), so the achievable
    // absolute accuracy is that magnitude times machine epsilon.
    for (int k = 0; k < n; ++k) {
      double acc = 0.0;
      double magnitude = 1.0;
      for (int i = 0; i < n; ++i) {
        const double term = c.weights[static_cast<std::size_t>(i)] *
                            std::pow(c.offsets[static_cast<std::size_t>(i)], k);
        acc += term;
        magnitude = std::max(magnitude, std::fabs(term));
      }
      double expected = (k == deriv) ? 1.0 : 0.0;
      for (int f = 2; f <= k && expected != 0.0; ++f) expected *= f;
      EXPECT_NEAR(acc, expected, 1e-10 * magnitude)
          << "so=" << so << " deriv=" << deriv << " moment k=" << k;
    }
  }
}

TEST_P(CoeffOrder, SymmetryProperties) {
  const int so = GetParam();
  const ts::Coeffs c2 = ts::central(2, so);
  const ts::Coeffs c1 = ts::central(1, so);
  const int n = c2.npoints();
  for (int i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(c2.weights[static_cast<std::size_t>(i)],
                     c2.weights[static_cast<std::size_t>(n - 1 - i)]);
    EXPECT_DOUBLE_EQ(c1.weights[static_cast<std::size_t>(i)],
                     -c1.weights[static_cast<std::size_t>(n - 1 - i)]);
  }
  EXPECT_DOUBLE_EQ(c1.weights[static_cast<std::size_t>(n / 2)], 0.0);
}

TEST_P(CoeffOrder, StaggeredAntisymmetry) {
  const int so = GetParam();
  const ts::Coeffs c = ts::staggered_first(so);
  const int n = c.npoints();
  for (int i = 0; i < n / 2; ++i) {
    EXPECT_NEAR(c.weights[static_cast<std::size_t>(i)],
                -c.weights[static_cast<std::size_t>(n - 1 - i)], 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, CoeffOrder,
                         ::testing::Values(2, 4, 6, 8, 10, 12, 16));

/// Plane-wave convergence: the FD second derivative of sin(kx) must approach
/// -k^2 sin(kx) with the expected order as the stencil widens.
TEST(Coefficients, AccuracyImprovesWithOrder) {
  const double k = 0.5;  // radians per grid point
  auto error_for = [&](int so) {
    const ts::Coeffs c = ts::central(2, so);
    const int r = so / 2;
    double acc = 0.0;
    const double x0 = 0.3;
    for (int i = -r; i <= r; ++i) {
      acc += c.weights[static_cast<std::size_t>(i + r)] * std::sin(k * (x0 + i));
    }
    return std::fabs(acc - (-k * k * std::sin(k * x0)));
  };
  const double e2 = error_for(2);
  const double e4 = error_for(4);
  const double e8 = error_for(8);
  EXPECT_LT(e4, e2 * 0.2);
  EXPECT_LT(e8, e4 * 0.2);
}

namespace {

/// Fill grid with a polynomial field f = a + bx + cy + dz + exy + fx^2 ...
tg::Grid3<float> poly_grid(const tg::Extents3& e, int halo) {
  tg::Grid3<float> g(e, halo, 0.0f);
  for (int x = -halo; x < e.nx + halo; ++x) {
    for (int y = -halo; y < e.ny + halo; ++y) {
      for (int z = -halo; z < e.nz + halo; ++z) {
        const double fx = x, fy = y, fz = z;
        g(x, y, z) = static_cast<float>(1.0 + 2.0 * fx + 3.0 * fy - fz +
                                        0.5 * fx * fx + 0.25 * fy * fy +
                                        1.5 * fz * fz + 0.125 * fx * fy);
      }
    }
  }
  return g;
}

}  // namespace

// The compiled radii run their own instance; every other radius runs
// instance 0, which reads the radius at run time.
TEST(Coefficients, DispatchRadiusRunsCompiledOrRunTimeInstance) {
  for (const int radius : {1, 2, 4, 6, 3, 5, 7, 8}) {
    const auto [instance, seen] =
        ts::dispatch_radius(radius, [&]<int R>() {
          return std::pair{R, R > 0 ? R : radius};
        });
    const bool compiled =
        radius == 1 || radius == 2 || radius == 4 || radius == 6;
    EXPECT_EQ(instance, compiled ? radius : 0) << "radius " << radius;
    EXPECT_EQ(seen, radius) << "radius " << radius;
  }
}

TEST(Apply, SecondDerivExactOnQuadratic) {
  const tg::Extents3 e{9, 9, 9};
  const auto g = poly_grid(e, 4);
  const ts::Coeffs c = ts::central(2, 8);
  // d2/dx2 = 1.0, d2/dy2 = 0.5, d2/dz2 = 3.0 everywhere.
  EXPECT_NEAR(ts::second_deriv(g, c, 0, 4, 4, 4), 1.0, 1e-3);
  EXPECT_NEAR(ts::second_deriv(g, c, 1, 4, 4, 4), 0.5, 1e-3);
  EXPECT_NEAR(ts::second_deriv(g, c, 2, 4, 4, 4), 3.0, 1e-3);
}

TEST(Apply, LaplacianCombinesDims) {
  const tg::Extents3 e{9, 9, 9};
  const auto g = poly_grid(e, 2);
  const ts::Coeffs c = ts::central(2, 4);
  const double h = 2.0;  // physical spacing: laplacian scales by 1/h^2
  EXPECT_NEAR(ts::laplacian(g, c, h, 4, 4, 4), (1.0 + 0.5 + 3.0) / 4.0, 1e-3);
}

TEST(Apply, CrossDerivExactOnBilinear) {
  const tg::Extents3 e{9, 9, 9};
  const auto g = poly_grid(e, 2);
  const ts::Coeffs c1 = ts::central(1, 4);
  // d2/(dx dy) of 0.125 xy term = 0.125; other cross terms vanish.
  EXPECT_NEAR(ts::cross_deriv(g, c1, 0, 1, 4, 4, 4), 0.125, 1e-4);
  EXPECT_NEAR(ts::cross_deriv(g, c1, 0, 2, 4, 4, 4), 0.0, 1e-4);
  EXPECT_NEAR(ts::cross_deriv(g, c1, 1, 2, 4, 4, 4), 0.0, 1e-4);
}

TEST(Apply, StaggeredDerivExactOnLinear) {
  const tg::Extents3 e{8, 8, 8};
  tg::Grid3<float> g(e, 2, 0.0f);
  for (int x = -2; x < 10; ++x)
    for (int y = -2; y < 10; ++y)
      for (int z = -2; z < 10; ++z)
        g(x, y, z) = static_cast<float>(3.0 * x - 2.0 * y + 0.5 * z);
  const ts::Coeffs c = ts::staggered_first(4);
  for (int shift : {0, 1}) {
    EXPECT_NEAR(ts::staggered_deriv(g, c, 0, shift, 4, 4, 4), 3.0, 1e-4);
    EXPECT_NEAR(ts::staggered_deriv(g, c, 1, shift, 4, 4, 4), -2.0, 1e-4);
    EXPECT_NEAR(ts::staggered_deriv(g, c, 2, shift, 4, 4, 4), 0.5, 1e-4);
  }
}

TEST(Cfl, AcousticBoundsSaneAndOrderMonotone) {
  const double dt4 = ts::acoustic_dt(10.0, 4.5, 4);
  const double dt8 = ts::acoustic_dt(10.0, 4.5, 8);
  const double dt12 = ts::acoustic_dt(10.0, 4.5, 12);
  EXPECT_GT(dt4, 0.0);
  // Wider stencils have larger |w| sums => tighter dt.
  EXPECT_GT(dt4, dt8);
  EXPECT_GT(dt8, dt12);
  // Paper scale check: h=10m, vmax=4.5 km/s => dt on the order of 1 ms.
  EXPECT_GT(dt4, 0.5);
  EXPECT_LT(dt4, 3.0);
}

TEST(Cfl, ElasticAndTtiTighterThanAcoustic) {
  const double a = ts::acoustic_dt(10.0, 3.5, 4);
  const double el = ts::elastic_dt(10.0, 3.5, 4);
  const double tti = ts::tti_dt(10.0, 3.5, 4, 0.25, 0.15);
  EXPECT_GT(el, 0.0);
  EXPECT_LT(tti, a);
}

TEST(Cfl, ScalesWithVelocityAndSpacing) {
  EXPECT_NEAR(ts::acoustic_dt(20.0, 2.0, 4),
              2.0 * ts::acoustic_dt(10.0, 2.0, 4), 1e-12);
  EXPECT_NEAR(ts::acoustic_dt(10.0, 4.0, 4),
              0.5 * ts::acoustic_dt(10.0, 2.0, 4), 1e-12);
}
