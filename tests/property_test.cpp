// Randomized property suite: invariants of the core machinery under
// generated inputs (seeded SplitMix64, fully deterministic).
//
// Seeds are never drawn from the wall clock: the per-case seeds are a
// SplitMix64 stream keyed by TEMPEST_PROPERTY_SEED (fixed default) xor'd
// with GTEST_SHARD_INDEX, so every run — local, sharded CI, or a replay of
// a failure — regenerates the same inputs. Each test prints its seed via
// SCOPED_TRACE, so a failing case can be replayed with
//   TEMPEST_PROPERTY_SEED=<seed> ctest -R property

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <vector>

#include "affected_points_check.hpp"
#include "tempest/core/compress.hpp"
#include "tempest/core/precompute.hpp"
#include "tempest/core/tile_plan.hpp"
#include "tempest/sparse/interp.hpp"
#include "tempest/sparse/series.hpp"
#include "tempest/sparse/survey.hpp"
#include "tempest/stencil/coefficients.hpp"
#include "tempest/util/rng.hpp"

namespace tc = tempest::core;
namespace sp = tempest::sparse;
namespace tg = tempest::grid;
namespace tu = tempest::util;
using tempest::real_t;

namespace {

// Environment knob parsed once; 0 is a valid SplitMix64 key.
std::uint64_t base_seed() {
  constexpr std::uint64_t kDefault = 20210614u;
  const char* env = std::getenv("TEMPEST_PROPERTY_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 0);
  }
  return kDefault;
}

std::uint64_t shard_index() {
  const char* env = std::getenv("GTEST_SHARD_INDEX");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 0);
  }
  return 0;
}

// Five seeds per run: the key itself first — so replaying a reported
// seed via TEMPEST_PROPERTY_SEED reproduces that exact case — then four
// more drawn from a SplitMix64 stream keyed by the env/shard pair.
std::vector<std::uint64_t> derived_seeds() {
  const std::uint64_t key = base_seed();
  tu::SplitMix64 stream(key ^ (shard_index() * 0x9e3779b97f4a7c15ull));
  std::vector<std::uint64_t> seeds{key};
  for (int i = 0; i < 4; ++i) seeds.push_back(stream.next());
  return seeds;
}

}  // namespace

class SeededProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  // Every assertion below inherits this trace, so a failure report always
  // carries the exact seed needed to replay the generated inputs.
  void SetUp() override {
    trace_ = std::make_unique<::testing::ScopedTrace>(
        __FILE__, __LINE__,
        ::testing::Message() << "seed=" << GetParam()
                             << " (replay: TEMPEST_PROPERTY_SEED="
                             << GetParam() << ")");
  }
  void TearDown() override { trace_.reset(); }

 private:
  std::unique_ptr<::testing::ScopedTrace> trace_;
};

TEST_P(SeededProperty, RandomWavefrontSchedulesAreLegal) {
  tu::SplitMix64 rng(GetParam());
  for (int trial = 0; trial < 8; ++trial) {
    const tg::Extents3 e{static_cast<int>(4 + rng.below(20)),
                         static_cast<int>(4 + rng.below(20)),
                         static_cast<int>(2 + rng.below(6))};
    const int radius = static_cast<int>(1 + rng.below(4));
    const int t_begin = static_cast<int>(rng.below(3));
    const int t_end = t_begin + 1 + static_cast<int>(rng.below(12));
    const tc::TileSpec spec{
        static_cast<int>(1 + rng.below(10)),
        static_cast<int>(2 + rng.below(30)),
        static_cast<int>(2 + rng.below(30)),
        static_cast<int>(1 + rng.below(12)),
        static_cast<int>(1 + rng.below(12)),
    };
    const int slope = radius + static_cast<int>(rng.below(2));  // >= radius
    const auto ops =
        tc::TilePlan::wavefront(e, t_begin, t_end, slope, spec).ops();
    const std::string verdict =
        tc::validate_schedule(e, t_begin, t_end, radius, ops);
    ASSERT_EQ(verdict, "")
        << "extents=" << e << " radius=" << radius << " slope=" << slope
        << " tiles=(" << spec.tile_t << ',' << spec.tile_x << ','
        << spec.tile_y << ',' << spec.block_x << ',' << spec.block_y << ")"
        << " t=[" << t_begin << ',' << t_end << ")";
  }
}

TEST_P(SeededProperty, CompressionRoundTripsRandomMasks) {
  tu::SplitMix64 rng(GetParam());
  const tg::Extents3 e{12, 11, 10};
  for (int trial = 0; trial < 4; ++trial) {
    // Random binary mask with ~15% density, ids in traversal order.
    tg::Grid3<unsigned char> sm(e, 0, 0);
    tg::Grid3<int> sid(e, 0, -1);
    int next = 0;
    sm.for_each_interior([&](int x, int y, int z) {
      if (rng.uniform() < 0.15) {
        sm(x, y, z) = 1;
        sid(x, y, z) = next++;
      }
    });
    const tc::CompressedSparse cs(sm, sid);
    EXPECT_EQ(cs.total_entries(), next);

    // Reconstruct the mask from the compressed form: exact round trip.
    tg::Grid3<unsigned char> rebuilt(e, 0, 0);
    int max_nnz = 0;
    for (int x = 0; x < e.nx; ++x) {
      for (int y = 0; y < e.ny; ++y) {
        max_nnz = std::max(max_nnz, cs.nnz(x, y));
        for (const auto& entry : cs.entries(x, y)) {
          rebuilt(x, y, entry.z) = 1;
          EXPECT_EQ(sid(x, y, entry.z), entry.id);
        }
      }
    }
    EXPECT_EQ(max_nnz, cs.max_nnz());
    sm.for_each_interior([&](int x, int y, int z) {
      EXPECT_EQ(sm(x, y, z), rebuilt(x, y, z));
    });
  }
}

TEST_P(SeededProperty, DecompositionIsLinearInTheWavelet) {
  tu::SplitMix64 rng(GetParam());
  const tg::Extents3 e{16, 16, 16};
  const int nt = 6;
  sp::CoordList coords;
  for (int s = 0; s < 5; ++s) {
    coords.push_back({rng.uniform(2, 13), rng.uniform(2, 13),
                      rng.uniform(2, 13)});
  }
  sp::SparseTimeSeries a(coords, nt), b(coords, nt), ab(coords, nt);
  for (int t = 0; t < nt; ++t) {
    for (int s = 0; s < 5; ++s) {
      a.at(t, s) = static_cast<real_t>(rng.uniform(-1, 1));
      b.at(t, s) = static_cast<real_t>(rng.uniform(-1, 1));
      ab.at(t, s) = a.at(t, s) + b.at(t, s);
    }
  }
  const auto masks = tc::build_source_masks(e, a, sp::InterpKind::Trilinear);
  const auto da = tc::decompose_sources(masks, a, sp::InterpKind::Trilinear);
  const auto db = tc::decompose_sources(masks, b, sp::InterpKind::Trilinear);
  const auto dab =
      tc::decompose_sources(masks, ab, sp::InterpKind::Trilinear);
  for (int t = 0; t < nt; ++t) {
    for (int id = 0; id < masks.npts; ++id) {
      EXPECT_NEAR(dab.at(t, id), da.at(t, id) + db.at(t, id), 1e-5);
    }
  }
}

TEST_P(SeededProperty, MasksDependOnlyOnGeometry) {
  // The probe uses unit amplitudes, so two source sets with identical
  // coordinates but different wavelets share masks exactly.
  tu::SplitMix64 rng(GetParam());
  const tg::Extents3 e{16, 16, 16};
  sp::CoordList coords{{rng.uniform(2, 13), rng.uniform(2, 13),
                        rng.uniform(2, 13)},
                       {rng.uniform(2, 13), rng.uniform(2, 13),
                        rng.uniform(2, 13)}};
  sp::SparseTimeSeries a(coords, 4), b(coords, 4);
  for (int t = 0; t < 4; ++t) {
    for (int s = 0; s < 2; ++s) {
      a.at(t, s) = static_cast<real_t>(rng.uniform(-2, 2));
      b.at(t, s) = static_cast<real_t>(rng.uniform(-2, 2));
    }
  }
  const auto ma = tc::build_source_masks(e, a, sp::InterpKind::Trilinear);
  const auto mb = tc::build_source_masks(e, b, sp::InterpKind::Trilinear);
  ASSERT_EQ(ma.npts, mb.npts);
  ma.sid.for_each_interior([&](int x, int y, int z) {
    EXPECT_EQ(ma.sid(x, y, z), mb.sid(x, y, z));
  });
}

TEST_P(SeededProperty, AffectedPointsMatchDenseReference) {
  // Random dense_volume sites (many share support points) with random
  // amplitudes: build_affected_points reproduces the dense reference
  // byte for byte under both interpolation schemes.
  tu::SplitMix64 rng(GetParam());
  const tg::Extents3 e{24, 20, 16};
  const int n = 8 + static_cast<int>(rng.next() % 56);
  sp::SparseTimeSeries series(sp::dense_volume(e, n, rng.next(), 2), 4);
  for (int t = 0; t < series.nt(); ++t) {
    for (int s = 0; s < n; ++s) {
      series.at(t, s) = static_cast<real_t>(rng.uniform(-1, 1));
    }
  }
  for (const auto kind :
       {sp::InterpKind::Trilinear, sp::InterpKind::WindowedSinc}) {
    tempest::testing::expect_matches_dense_reference(e, series, kind);
  }
}

TEST_P(SeededProperty, InterpolationPartitionOfUnityEverywhere) {
  tu::SplitMix64 rng(GetParam());
  const tg::Extents3 e{24, 24, 24};
  for (int trial = 0; trial < 24; ++trial) {
    const sp::Coord3 c{rng.uniform(3, 20), rng.uniform(3, 20),
                       rng.uniform(3, 20)};
    for (auto kind :
         {sp::InterpKind::Trilinear, sp::InterpKind::WindowedSinc}) {
      double sum = 0.0;
      for (const auto& p : sp::support(c, kind, e)) sum += p.w;
      EXPECT_NEAR(sum, 1.0, 1e-9);
    }
  }
}

TEST_P(SeededProperty, FornbergWeightsDifferentiateRandomPolynomials) {
  // For any offsets set of size n, the weights must differentiate every
  // polynomial of degree < n exactly.
  tu::SplitMix64 rng(GetParam());
  for (int deriv : {1, 2}) {
    std::vector<double> offsets;
    const int n = 5 + static_cast<int>(rng.below(4));
    for (int i = 0; i < n; ++i) {
      double o;
      bool fresh;
      do {
        o = rng.uniform(-4, 4);
        fresh = true;
        for (double prev : offsets) fresh = fresh && std::fabs(prev - o) > 0.05;
      } while (!fresh);
      offsets.push_back(o);
    }
    const auto c = tempest::stencil::for_offsets(deriv, offsets);
    // p(x) = sum_k a_k x^k with random coefficients, degree n-1.
    std::vector<double> coef(static_cast<std::size_t>(n));
    for (double& a : coef) a = rng.uniform(-1, 1);
    auto p = [&](double x) {
      double acc = 0.0, pw = 1.0;
      for (double a : coef) {
        acc += a * pw;
        pw *= x;
      }
      return acc;
    };
    auto dp = [&](double x) {  // analytic derivative of order `deriv` at x
      double acc = 0.0;
      for (int k = deriv; k < n; ++k) {
        double f = 1.0;
        for (int j = 0; j < deriv; ++j) f *= (k - j);
        acc += coef[static_cast<std::size_t>(k)] * f *
               std::pow(x, k - deriv);
      }
      return acc;
    };
    double fd = 0.0;
    for (int i = 0; i < n; ++i) {
      fd += c.weights[static_cast<std::size_t>(i)] *
            p(c.offsets[static_cast<std::size_t>(i)]);
    }
    EXPECT_NEAR(fd, dp(0.0), 1e-6 * (1.0 + std::fabs(dp(0.0))))
        << "deriv=" << deriv << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::ValuesIn(derived_seeds()));
