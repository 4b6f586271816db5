#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "tempest/physics/damping.hpp"
#include "tempest/physics/model.hpp"

namespace ph = tempest::physics;
namespace tg = tempest::grid;
using tempest::real_t;

namespace {
const ph::Geometry kGeom{{24, 20, 18}, 10.0, 4, 6};

/// Each builder's formulas as serial pointwise loops over a zero- or
/// value-filled grid: the reference every builder must match byte for
/// byte, halo included, at any thread count.
namespace pointwise {

real_t layered_velocity(int z, int nz, double v_top, double v_bottom,
                        int layers) {
  const int layer = std::min(layers - 1, z * layers / std::max(1, nz));
  const double f =
      layers > 1 ? static_cast<double>(layer) / (layers - 1) : 0.0;
  return static_cast<real_t>(v_top + f * (v_bottom - v_top));
}

tg::Grid3<real_t> squared_slowness(const tg::Grid3<real_t>& vp, int halo) {
  tg::Grid3<real_t> m(vp.extents(), halo, real_t{0});
  vp.for_each_interior([&](int x, int y, int z) {
    const real_t v = vp(x, y, z);
    m(x, y, z) = real_t{1} / (v * v);
  });
  return m;
}

template <typename Coeff>
tg::Grid3<real_t> sponge(const ph::Geometry& g, double vp_ref, double r0,
                         Coeff coeff) {
  tg::Grid3<real_t> out(g.extents, g.radius(), real_t{0});
  if (g.nbl == 0) return out;
  const double len = g.nbl * g.spacing;
  const double d0 = 1.5 * vp_ref / len * std::log(1.0 / r0);
  const auto& e = g.extents;
  out.for_each_interior([&](int x, int y, int z) {
    const int dist =
        std::min({x, e.nx - 1 - x, y, e.ny - 1 - y, z, e.nz - 1 - z});
    if (dist >= g.nbl) return;
    const double frac = static_cast<double>(g.nbl - dist) / g.nbl;
    out(x, y, z) = static_cast<real_t>(coeff(d0, frac));
  });
  return out;
}

tg::Grid3<real_t> damping(const ph::Geometry& g, double vp_ref) {
  return sponge(g, vp_ref, 0.001,
                [](double d0, double frac) { return d0 * frac * frac; });
}

tg::Grid3<real_t> sponge_profile(const ph::Geometry& g, double vp_ref,
                                 double r0, int exponent) {
  return sponge(g, vp_ref, r0, [&](double d0, double frac) {
    return d0 * std::pow(frac, exponent);
  });
}

ph::AcousticModel acoustic_homogeneous(const ph::Geometry& g, double vp) {
  const int h = g.radius();
  ph::AcousticModel model{
      g, tg::Grid3<real_t>(g.extents, h, static_cast<real_t>(vp)),
      tg::Grid3<real_t>(g.extents, h, real_t{0}), damping(g, vp)};
  model.m = squared_slowness(model.vp, h);
  model.m.fill(static_cast<real_t>(1.0 / (vp * vp)));
  return model;
}

ph::AcousticModel acoustic_layered(const ph::Geometry& g, double v_top,
                                   double v_bottom, int layers) {
  const int h = g.radius();
  ph::AcousticModel model{g, tg::Grid3<real_t>(g.extents, h, real_t{0}),
                          tg::Grid3<real_t>(g.extents, h, real_t{0}),
                          damping(g, v_top)};
  model.vp.for_each_interior([&](int x, int y, int z) {
    model.vp(x, y, z) =
        layered_velocity(z, g.extents.nz, v_top, v_bottom, layers);
  });
  model.m = squared_slowness(model.vp, h);
  return model;
}

ph::TTIModel tti_layered(const ph::Geometry& g, double v_top,
                         double v_bottom, int layers) {
  const int h = g.radius();
  auto zero = [&] { return tg::Grid3<real_t>(g.extents, h, real_t{0}); };
  ph::TTIModel model{g,      zero(), zero(), damping(g, v_top),
                     zero(), zero(), zero(), zero()};
  const auto& e = g.extents;
  model.vp.for_each_interior([&](int x, int y, int z) {
    model.vp(x, y, z) = layered_velocity(z, e.nz, v_top, v_bottom, layers);
    const double fx = static_cast<double>(x) / std::max(1, e.nx - 1);
    const double fz = static_cast<double>(z) / std::max(1, e.nz - 1);
    model.epsilon(x, y, z) = static_cast<real_t>(0.10 + 0.15 * fz);
    model.delta(x, y, z) = static_cast<real_t>(0.05 + 0.10 * fz);
    model.theta(x, y, z) = static_cast<real_t>(0.5 * fx);
    model.phi(x, y, z) = static_cast<real_t>(0.3 * fz);
  });
  model.m = squared_slowness(model.vp, h);
  return model;
}

ph::ElasticModel elastic_layered(const ph::Geometry& g, double vp_top,
                                 double vp_bottom, int layers) {
  const int h = g.radius();
  auto zero = [&] { return tg::Grid3<real_t>(g.extents, h, real_t{0}); };
  ph::ElasticModel model{g,      zero(), zero(), zero(), zero(),
                         zero(), zero(), damping(g, vp_top)};
  const double rho0 = 1.0;
  model.vp.for_each_interior([&](int x, int y, int z) {
    const real_t vp =
        layered_velocity(z, g.extents.nz, vp_top, vp_bottom, layers);
    const real_t vs = vp / static_cast<real_t>(std::sqrt(3.0));
    model.vp(x, y, z) = vp;
    model.vs(x, y, z) = vs;
    model.rho(x, y, z) = static_cast<real_t>(rho0);
    model.mu(x, y, z) = static_cast<real_t>(rho0) * vs * vs;
    model.lam(x, y, z) =
        static_cast<real_t>(rho0) * (vp * vp - real_t{2} * vs * vs);
    model.b(x, y, z) = static_cast<real_t>(1.0 / rho0);
  });
  return model;
}

}  // namespace pointwise

/// Every padded byte of `got`, halo included, equals `want`'s.
::testing::AssertionResult same_bytes(const tg::Grid3<real_t>& got,
                                      const tg::Grid3<real_t>& want) {
  if (got.extents() != want.extents() || got.halo() != want.halo()) {
    return ::testing::AssertionFailure() << "shapes differ";
  }
  for (std::size_t i = 0; i < got.padded_size(); ++i) {
    if (std::memcmp(got.raw() + i, want.raw() + i, sizeof(real_t)) != 0) {
      return ::testing::AssertionFailure()
             << "padded element " << i << " is " << got.raw()[i]
             << ", the pointwise loop wrote " << want.raw()[i];
    }
  }
  return ::testing::AssertionSuccess();
}

/// Sets $TEMPEST_THREADS, the builders' thread knob, for one scope.
class ThreadsEnv {
 public:
  explicit ThreadsEnv(int threads) {
    if (const char* v = std::getenv("TEMPEST_THREADS")) saved_ = v;
    ::setenv("TEMPEST_THREADS", std::to_string(threads).c_str(), 1);
  }
  ~ThreadsEnv() {
    if (saved_) {
      ::setenv("TEMPEST_THREADS", saved_->c_str(), 1);
    } else {
      ::unsetenv("TEMPEST_THREADS");
    }
  }
  ThreadsEnv(const ThreadsEnv&) = delete;
  ThreadsEnv& operator=(const ThreadsEnv&) = delete;

 private:
  std::optional<std::string> saved_;
};

}  // namespace

TEST(Model, BuildersMatchPointwiseFormulasAtAnyThreadCount) {
  // Padded planes of 254 KiB: a grid of several chunks whose sponge is
  // wider than one chunk, and whose x, y and z extents all differ.
  const ph::Geometry g{{36, 250, 252}, 10.0, 4, 12};
  const tg::Grid3<real_t> shape(g.extents, g.radius());
  ASSERT_GE(shape.chunks(), 4);
  ASSERT_GT(g.nbl, shape.chunk(1).length());

  {
    const auto homogeneous = pointwise::acoustic_homogeneous(g, 2.0);
    const auto layered = pointwise::acoustic_layered(g, 1.5, 3.5, 5);
    for (const int threads : {1, 2, 8}) {
      const ThreadsEnv env(threads);
      SCOPED_TRACE("threads " + std::to_string(threads));
      const auto h = ph::make_acoustic_homogeneous(g, 2.0);
      EXPECT_TRUE(same_bytes(h.vp, homogeneous.vp));
      EXPECT_TRUE(same_bytes(h.m, homogeneous.m));
      EXPECT_TRUE(same_bytes(h.damp, homogeneous.damp));
      const auto l = ph::make_acoustic_layered(g, 1.5, 3.5, 5);
      EXPECT_TRUE(same_bytes(l.vp, layered.vp));
      EXPECT_TRUE(same_bytes(l.m, layered.m));
      EXPECT_TRUE(same_bytes(l.damp, layered.damp));
    }
  }
  for (const int threads : {1, 2, 8}) {
    const ThreadsEnv env(threads);
    SCOPED_TRACE("threads " + std::to_string(threads));
    EXPECT_TRUE(same_bytes(ph::make_damping(g, 3.0),
                           pointwise::damping(g, 3.0)));
    for (const int exponent : {1, 2, 3}) {
      EXPECT_TRUE(same_bytes(ph::make_sponge_profile(g, 2.5, 0.01, exponent),
                             pointwise::sponge_profile(g, 2.5, 0.01,
                                                       exponent)))
          << "exponent " << exponent;
    }
  }
  {
    const auto want = pointwise::tti_layered(g, 1.5, 4.0, 6);
    for (const int threads : {1, 2, 8}) {
      const ThreadsEnv env(threads);
      SCOPED_TRACE("threads " + std::to_string(threads));
      const auto got = ph::make_tti_layered(g, 1.5, 4.0, 6);
      EXPECT_TRUE(same_bytes(got.vp, want.vp));
      EXPECT_TRUE(same_bytes(got.m, want.m));
      EXPECT_TRUE(same_bytes(got.damp, want.damp));
      EXPECT_TRUE(same_bytes(got.epsilon, want.epsilon));
      EXPECT_TRUE(same_bytes(got.delta, want.delta));
      EXPECT_TRUE(same_bytes(got.theta, want.theta));
      EXPECT_TRUE(same_bytes(got.phi, want.phi));
    }
  }

  {
    const auto want = pointwise::elastic_layered(g, 1.5, 3.5, 4);
    for (const int threads : {1, 2, 8}) {
      const ThreadsEnv env(threads);
      SCOPED_TRACE("threads " + std::to_string(threads));
      const auto got = ph::make_elastic_layered(g, 1.5, 3.5, 4);
      EXPECT_TRUE(same_bytes(got.vp, want.vp));
      EXPECT_TRUE(same_bytes(got.vs, want.vs));
      EXPECT_TRUE(same_bytes(got.rho, want.rho));
      EXPECT_TRUE(same_bytes(got.lam, want.lam));
      EXPECT_TRUE(same_bytes(got.mu, want.mu));
      EXPECT_TRUE(same_bytes(got.b, want.b));
      EXPECT_TRUE(same_bytes(got.damp, want.damp));
    }
  }

  // An empty sponge and a sponge wider than half the grid.
  for (const int nbl : {0, 30}) {
    ph::Geometry s = g;
    s.nbl = nbl;
    EXPECT_TRUE(same_bytes(ph::make_damping(s, 1.5),
                           pointwise::damping(s, 1.5)))
        << "nbl " << nbl;
  }
}

TEST(Geometry, RadiusFromOrder) {
  const ph::Geometry g4{{8, 8, 8}, 10.0, 4, 0};
  const ph::Geometry g12{{8, 8, 8}, 10.0, 12, 0};
  EXPECT_EQ(g4.radius(), 2);
  EXPECT_EQ(g12.radius(), 6);
}

TEST(AcousticModel, HomogeneousFieldsConsistent) {
  const auto m = ph::make_acoustic_homogeneous(kGeom, 2.0);
  EXPECT_EQ(m.vp.halo(), 2);
  m.vp.for_each_interior([&](int x, int y, int z) {
    EXPECT_FLOAT_EQ(m.vp(x, y, z), 2.0f);
    EXPECT_FLOAT_EQ(m.m(x, y, z), 0.25f);
  });
  EXPECT_DOUBLE_EQ(m.vp_max(), 2.0);
  EXPECT_GT(m.critical_dt(), 0.0);
}

TEST(AcousticModel, LayeredVelocityMonotoneWithDepth) {
  const auto m = ph::make_acoustic_layered(kGeom, 1.5, 3.5, 4);
  for (int z = 1; z < kGeom.extents.nz; ++z) {
    EXPECT_GE(m.vp(5, 5, z), m.vp(5, 5, z - 1));
  }
  EXPECT_FLOAT_EQ(m.vp(5, 5, 0), 1.5f);
  EXPECT_FLOAT_EQ(m.vp(5, 5, kGeom.extents.nz - 1), 3.5f);
  // m = 1/vp^2 pointwise.
  m.vp.for_each_interior([&](int x, int y, int z) {
    EXPECT_NEAR(m.m(x, y, z), 1.0 / (m.vp(x, y, z) * m.vp(x, y, z)), 1e-6);
  });
}

TEST(AcousticModel, RejectsBadParameters) {
  EXPECT_THROW(ph::make_acoustic_homogeneous(kGeom, -1.0),
               tempest::util::PreconditionError);
  EXPECT_THROW(ph::make_acoustic_layered(kGeom, 3.0, 1.0, 2),
               tempest::util::PreconditionError);
  EXPECT_THROW(ph::make_acoustic_layered(kGeom, 1.0, 2.0, 0),
               tempest::util::PreconditionError);
}

TEST(TTIModel, ParameterRangesPhysical) {
  const auto m = ph::make_tti_layered(kGeom, 1.5, 3.5, 4);
  m.vp.for_each_interior([&](int x, int y, int z) {
    EXPECT_GE(m.epsilon(x, y, z), 0.0f);
    EXPECT_LE(m.epsilon(x, y, z), 0.3f);
    EXPECT_GE(m.delta(x, y, z), 0.0f);
    EXPECT_LE(m.delta(x, y, z), 0.2f);
    EXPECT_GE(m.theta(x, y, z), 0.0f);
    EXPECT_LE(m.theta(x, y, z), 0.6f);
  });
  // Anisotropy tightens the CFL bound relative to plain acoustic.
  const auto iso = ph::make_acoustic_layered(kGeom, 1.5, 3.5, 4);
  EXPECT_LT(m.critical_dt(), iso.critical_dt());
}

TEST(ElasticModel, LameParametersConsistent) {
  const auto m = ph::make_elastic_layered(kGeom, 1.5, 3.5, 4);
  m.vp.for_each_interior([&](int x, int y, int z) {
    const double vp = m.vp(x, y, z);
    const double vs = m.vs(x, y, z);
    const double rho = m.rho(x, y, z);
    EXPECT_NEAR(vs, vp / std::sqrt(3.0), 1e-5);
    EXPECT_NEAR(m.mu(x, y, z), rho * vs * vs, 1e-5);
    EXPECT_NEAR(m.lam(x, y, z), rho * (vp * vp - 2 * vs * vs), 1e-5);
    EXPECT_NEAR(m.b(x, y, z), 1.0 / rho, 1e-6);
    // Poisson solid: lambda == mu.
    EXPECT_NEAR(m.lam(x, y, z), m.mu(x, y, z), 1e-4);
  });
  EXPECT_GT(m.critical_dt(), 0.0);
}

TEST(Damping, ZeroInInteriorPositiveAtBoundary) {
  const auto damp = ph::make_damping(kGeom, 1.5);
  EXPECT_EQ(damp(12, 10, 9), 0.0f);  // deep interior
  EXPECT_GT(damp(0, 10, 9), 0.0f);   // at faces
  EXPECT_GT(damp(12, 10, 0), 0.0f);
  EXPECT_GT(damp(12, 19, 9), 0.0f);
}

TEST(Damping, MonotoneTowardsFaces) {
  const auto damp = ph::make_damping(kGeom, 1.5);
  for (int x = 1; x < kGeom.nbl; ++x) {
    EXPECT_LE(damp(x, 10, 9), damp(x - 1, 10, 9));
  }
}

TEST(Damping, StrongerForFasterMediaAndThinnerLayers) {
  const auto slow = ph::make_damping(kGeom, 1.5);
  const auto fast = ph::make_damping(kGeom, 4.5);
  EXPECT_GT(fast(0, 10, 9), slow(0, 10, 9));

  ph::Geometry thin = kGeom;
  thin.nbl = 3;
  const auto thin_damp = ph::make_damping(thin, 1.5);
  EXPECT_GT(thin_damp(0, 10, 9), slow(0, 10, 9));
}

TEST(Damping, NblZeroMeansNoDamping) {
  ph::Geometry g = kGeom;
  g.nbl = 0;
  const auto damp = ph::make_damping(g, 1.5);
  EXPECT_EQ(tg::max_abs(damp), 0.0);
}

TEST(Damping, CornersUseMinimumFaceDistance) {
  const auto damp = ph::make_damping(kGeom, 1.5);
  // A corner is as damped as a face point at the same minimum distance.
  EXPECT_FLOAT_EQ(damp(0, 0, 0), damp(0, 10, 9));
  EXPECT_FLOAT_EQ(damp(2, 2, 2), damp(2, 10, 9));
}
