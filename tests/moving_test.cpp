// Moving off-the-grid sources: the paper's noted extension ("our algorithm
// is independent of it"). These tests prove that independence end to end: a
// toy damped-wave stencil propagated with naive per-timestep moving scatter
// under the legal space-blocked schedule equals the same propagation with
// the decomposed/fused/compressed moving sources under wave-front temporal
// blocking.

#include <gtest/gtest.h>

#include <cmath>

#include "tempest/core/compress.hpp"
#include "tempest/core/fused.hpp"
#include "tempest/core/moving.hpp"
#include "tempest/core/tile_plan.hpp"
#include "tempest/grid/time_buffer.hpp"
#include "tempest/sparse/wavelet.hpp"

namespace tc = tempest::core;
namespace sp = tempest::sparse;
namespace tg = tempest::grid;
using tempest::real_t;

namespace {

constexpr tg::Extents3 kE{24, 20, 16};

tc::MovingSources make_tow(int n, int nt) {
  auto src = tc::MovingSources::linear_tow({4.3, 9.6, 7.2}, {16.8, 9.6, 7.2},
                                           n, nt);
  src.broadcast_signature(sp::ricker(nt, 1.0, 0.08));
  return src;
}

}  // namespace

TEST(MovingSources, ConstructionValidation) {
  EXPECT_THROW(tc::MovingSources({}, 1), tempest::util::PreconditionError);
  std::vector<sp::CoordList> uneven{{{1, 1, 1}}, {{1, 1, 1}, {2, 2, 2}}};
  EXPECT_THROW(tc::MovingSources(std::move(uneven), 1),
               tempest::util::PreconditionError);
}

TEST(MovingSources, LinearTowGeometry) {
  const auto src = tc::MovingSources::linear_tow({2.5, 3.5, 4.5},
                                                 {10.5, 3.5, 4.5}, 3, 5);
  EXPECT_EQ(src.nt(), 5);
  EXPECT_EQ(src.nsrc(), 3);
  // Endpoints hit the requested positions for source 0.
  EXPECT_NEAR(src.coords(0)[0].x, 2.5, 1e-12);
  EXPECT_NEAR(src.coords(4)[0].x, 10.5, 1e-12);
  // x advances monotonically; y/z constant.
  for (int t = 1; t < 5; ++t) {
    EXPECT_GT(src.coords(t)[0].x, src.coords(t - 1)[0].x);
    EXPECT_DOUBLE_EQ(src.coords(t)[0].y, 3.5);
  }
}

TEST(MovingSources, MasksUnionAllTimesteps) {
  const auto src = make_tow(1, 6);
  const auto masks =
      tc::build_moving_masks(kE, src, sp::InterpKind::Trilinear);
  // A static source touches 8 points; a moving one strictly more.
  EXPECT_GT(masks.npts, 8);
  // Every per-timestep support point is inside the mask.
  for (int t = 0; t < src.nt(); ++t) {
    for (const auto& p :
         sp::support(src.coords(t)[0], sp::InterpKind::Trilinear, kE)) {
      EXPECT_EQ(masks.sm(p.x, p.y, p.z), 1) << "t=" << t;
    }
  }
}

TEST(MovingSources, DecompositionMatchesNaiveScatterPerStep) {
  const auto src = make_tow(2, 8);
  const auto masks =
      tc::build_moving_masks(kE, src, sp::InterpKind::Trilinear);
  const auto dcmp =
      tc::decompose_moving(masks, src, sp::InterpKind::Trilinear);
  for (int t = 0; t < src.nt(); ++t) {
    tg::Grid3<real_t> naive(kE, 0, 0.0f);
    tc::inject_moving(naive, src, t, sp::InterpKind::Trilinear,
                      [](int, int, int) { return 1.0; });
    tg::Grid3<real_t> via(kE, 0, 0.0f);
    via.for_each_interior([&](int x, int y, int z) {
      const int id = masks.sid(x, y, z);
      if (id >= 0) via(x, y, z) = dcmp.at(t, id);
    });
    EXPECT_LT(tg::max_abs_diff(naive, via), 1e-6) << "t=" << t;
  }
}

TEST(MovingSources, StaticTowReducesToStaticPrecompute) {
  // A "moving" source that never moves must produce exactly the static
  // pipeline's masks and decomposition.
  const int nt = 6;
  const sp::Coord3 c{7.3, 8.6, 5.1};
  auto moving = tc::MovingSources::linear_tow(c, c, 1, nt);
  const auto wavelet = sp::ricker(nt, 1.0, 0.08);
  moving.broadcast_signature(wavelet);

  sp::SparseTimeSeries stat({c}, nt);
  stat.broadcast_signature(wavelet);

  const auto m_mask =
      tc::build_moving_masks(kE, moving, sp::InterpKind::Trilinear);
  const auto s_mask =
      tc::build_source_masks(kE, stat, sp::InterpKind::Trilinear);
  ASSERT_EQ(m_mask.npts, s_mask.npts);

  const auto m_dcmp =
      tc::decompose_moving(m_mask, moving, sp::InterpKind::Trilinear);
  const auto s_dcmp =
      tc::decompose_sources(s_mask, stat, sp::InterpKind::Trilinear);
  for (int t = 0; t < nt; ++t) {
    for (int id = 0; id < m_dcmp.npts(); ++id) {
      EXPECT_FLOAT_EQ(m_dcmp.at(t, id), s_dcmp.at(t, id));
    }
  }
}

namespace {

/// Toy damped wave propagation (radius-1 stencil) with moving injection,
/// parameterized by schedule. Sources are injected per (t, column) — the
/// fused placement — or globally after each sweep — the naive placement.
struct ToyWave {
  tg::TimeBuffer<real_t> u{3, kE, 1, 0.0f};

  void stencil_block(int t, const tg::Box3& b) {
    auto& un = u.at(t + 1);
    const auto& uc = u.at(t);
    const auto& up = u.at(t - 1);
    for (int x = b.x.lo; x < b.x.hi; ++x) {
      for (int y = b.y.lo; y < b.y.hi; ++y) {
        for (int z = b.z.lo; z < b.z.hi; ++z) {
          un(x, y, z) = 1.7f * uc(x, y, z) - 0.85f * up(x, y, z) +
                        0.04f * (uc(x - 1, y, z) + uc(x + 1, y, z) +
                                 uc(x, y - 1, z) + uc(x, y + 1, z) +
                                 uc(x, y, z - 1) + uc(x, y, z + 1) -
                                 6.0f * uc(x, y, z));
        }
      }
    }
  }
};

}  // namespace

TEST(MovingSources, WavefrontWithFusedMovingInjectionMatchesBaseline) {
  const int nt = 14;
  const auto src = make_tow(3, nt);
  const auto masks =
      tc::build_moving_masks(kE, src, sp::InterpKind::Trilinear);
  const auto dcmp =
      tc::decompose_moving(masks, src, sp::InterpKind::Trilinear);
  const tc::CompressedSparse cs(masks.sm, masks.sid);
  auto unit = [](int, int, int) { return 1.0; };
  const tc::TileSpec tiles{4, 8, 8, 4, 4};

  // Baseline: sweep then naive moving scatter, per timestep.
  ToyWave base;
  for (int t = 1; t < nt; ++t) {
    tc::execute(tc::TilePlan::space_blocked(kE, t, t + 1, tiles), 1,
                [&](int tt, const tg::Box3& b) { base.stencil_block(tt, b); });
    tc::inject_moving(base.u.at(t + 1), src, t, sp::InterpKind::Trilinear,
                      unit);
  }

  // The paper's schedule: wave-front tiles with fused, compressed moving
  // injection per column.
  ToyWave wave;
  tc::execute(tc::TilePlan::wavefront(kE, 1, nt, /*slope=*/1, tiles), 1,
              [&](int t, const tg::Box3& b) {
                wave.stencil_block(t, b);
                tc::fused_inject(wave.u.at(t + 1), cs, dcmp, t, b.x, b.y,
                                 unit);
              });

  for (int s = 0; s < 3; ++s) {
    EXPECT_LT(tg::max_abs_diff(base.u.slot(s), wave.u.slot(s)), 1e-5)
        << "slot " << s;
  }
  EXPECT_GT(tg::max_abs(wave.u.at(nt)), 0.0f);
}
