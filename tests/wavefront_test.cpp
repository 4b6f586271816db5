#include <gtest/gtest.h>

#include <algorithm>

#include "tempest/core/tile_plan.hpp"
#include "tempest/grid/grid3.hpp"
#include "tempest/grid/time_buffer.hpp"

namespace tc = tempest::core;
namespace tg = tempest::grid;

namespace {

struct Case {
  tg::Extents3 extents;
  int t_begin;
  int t_end;
  int radius;
  tc::TileSpec spec;
};

std::ostream& operator<<(std::ostream& os, const Case& c) {
  return os << c.extents << " t[" << c.t_begin << ',' << c.t_end
            << ") r=" << c.radius << " tiles(" << c.spec.tile_t << ','
            << c.spec.tile_x << ',' << c.spec.tile_y << ") blocks("
            << c.spec.block_x << ',' << c.spec.block_y << ')';
}

}  // namespace

class WavefrontSchedule : public ::testing::TestWithParam<Case> {};

TEST_P(WavefrontSchedule, IsLegalCoversEverythingOnce) {
  const Case& c = GetParam();
  const auto ops = tc::TilePlan::wavefront(c.extents, c.t_begin, c.t_end,
                                           /*slope=*/c.radius, c.spec)
                       .ops();
  const std::string verdict =
      tc::validate_schedule(c.extents, c.t_begin, c.t_end, c.radius, ops);
  EXPECT_EQ(verdict, "") << GetParam();
}

TEST_P(WavefrontSchedule, LargerSlopeStillLegal) {
  // Over-skewing (slope > radius) is always safe.
  const Case& c = GetParam();
  const auto ops = tc::TilePlan::wavefront(c.extents, c.t_begin, c.t_end,
                                           c.radius + 2, c.spec)
                       .ops();
  EXPECT_EQ(
      tc::validate_schedule(c.extents, c.t_begin, c.t_end, c.radius, ops),
      "");
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, WavefrontSchedule,
    ::testing::Values(
        Case{{12, 10, 4}, 1, 9, 1, {4, 8, 8, 4, 4}},
        Case{{12, 10, 4}, 1, 9, 2, {4, 8, 8, 4, 4}},
        Case{{16, 16, 4}, 1, 12, 2, {3, 8, 8, 8, 8}},
        Case{{16, 16, 4}, 0, 7, 4, {8, 16, 16, 4, 4}},
        Case{{7, 9, 3}, 1, 11, 2, {2, 4, 4, 2, 2}},     // odd extents
        Case{{7, 9, 3}, 1, 11, 2, {16, 64, 64, 8, 8}},  // tiles > domain
        Case{{24, 6, 3}, 1, 6, 3, {5, 6, 6, 3, 3}},
        Case{{10, 10, 2}, 1, 4, 6, {2, 8, 8, 8, 8}},    // steep slope
        Case{{10, 10, 2}, 3, 4, 2, {4, 8, 8, 4, 4}},    // single timestep
        Case{{32, 4, 2}, 1, 16, 2, {4, 8, 4, 8, 4}}));

TEST(WavefrontSchedule, UnderSkewedScheduleIsIllegal) {
  // With slope < radius the schedule must violate dependencies — this proves
  // the validator has teeth and that the slope choice is load-bearing.
  const tg::Extents3 e{16, 16, 4};
  const tc::TileSpec spec{4, 8, 8, 4, 4};
  const auto ops = tc::TilePlan::wavefront(e, 1, 10, /*slope=*/1, spec).ops();
  EXPECT_NE(tc::validate_schedule(e, 1, 10, /*radius=*/2, ops), "");
}

TEST(WavefrontSchedule, ZeroSlopeEqualsUnsafeTimeTiling) {
  const tg::Extents3 e{16, 16, 4};
  const tc::TileSpec spec{4, 8, 8, 4, 4};
  const auto ops = tc::TilePlan::wavefront(e, 1, 10, /*slope=*/0, spec).ops();
  EXPECT_NE(tc::validate_schedule(e, 1, 10, 1, ops), "");
}

TEST(SpaceBlockedSchedule, AlwaysLegal) {
  const tg::Extents3 e{16, 12, 4};
  const tc::TileSpec spec{4, 8, 8, 4, 4};
  const auto ops = tc::TilePlan::space_blocked(e, 1, 8, spec).ops();
  EXPECT_EQ(tc::validate_schedule(e, 1, 8, /*radius=*/4, ops), "");
}

TEST(Validator, DetectsDoubleCompute) {
  const tg::Extents3 e{4, 4, 2};
  const tc::TileSpec spec{1, 64, 64, 64, 64};
  auto ops = tc::TilePlan::space_blocked(e, 1, 3, spec).ops();
  ops.push_back(ops.front());  // recompute a block
  EXPECT_NE(tc::validate_schedule(e, 1, 3, 1, ops), "");
}

TEST(Validator, DetectsMissingPoint) {
  const tg::Extents3 e{4, 4, 2};
  const tc::TileSpec spec{1, 64, 64, 64, 64};
  auto ops = tc::TilePlan::space_blocked(e, 1, 3, spec).ops();
  ops.pop_back();
  EXPECT_NE(tc::validate_schedule(e, 1, 3, 1, ops), "");
}

TEST(Validator, DetectsReorderedTimesteps) {
  const tg::Extents3 e{4, 4, 2};
  const tc::TileSpec spec{1, 64, 64, 64, 64};
  auto ops = tc::TilePlan::space_blocked(e, 1, 3, spec).ops();
  ASSERT_EQ(ops.size(), 2u);
  std::swap(ops[0], ops[1]);
  EXPECT_NE(tc::validate_schedule(e, 1, 3, 1, ops), "");
}

TEST(Validator, DetectsPartialZCoverage) {
  const tg::Extents3 e{4, 4, 8};
  std::vector<tc::ScheduleOp> ops{{1, {{0, 4}, {0, 4}, {0, 4}}}};
  EXPECT_NE(tc::validate_schedule(e, 1, 2, 1, ops), "");
}

TEST(TileSpec, Validity) {
  EXPECT_TRUE(tc::TileSpec{}.valid());
  EXPECT_FALSE((tc::TileSpec{0, 8, 8, 4, 4}).valid());
  EXPECT_FALSE((tc::TileSpec{4, 8, 8, 4, 0}).valid());
}

namespace {

/// Generic 3-D damped-averaging "stencil" with radius 1 used to check that
/// the wavefront driver computes the exact same field as the timestep-sweep
/// baseline for an arbitrary (non-physics) kernel.
struct ToyStencil {
  tg::Extents3 e;
  tg::TimeBuffer<double> buf;

  explicit ToyStencil(tg::Extents3 extents)
      : e(extents), buf(3, extents, 1, 0.0) {
    // Deterministic non-trivial initial state in slots 0 and 1.
    for (int s : {0, 1}) {
      buf.slot(s).for_each_interior([&](int x, int y, int z) {
        buf.slot(s)(x, y, z) =
            0.01 * (x + 1) * (s + 1) + 0.02 * y - 0.005 * z * x;
      });
    }
  }

  void block(int t, const tg::Box3& b) {
    auto& un = buf.at(t + 1);
    const auto& uc = buf.at(t);
    const auto& up = buf.at(t - 1);
    for (int x = b.x.lo; x < b.x.hi; ++x) {
      for (int y = b.y.lo; y < b.y.hi; ++y) {
        for (int z = b.z.lo; z < b.z.hi; ++z) {
          un(x, y, z) =
              0.99 * uc(x, y, z) - 0.45 * up(x, y, z) +
              0.05 * (uc(x - 1, y, z) + uc(x + 1, y, z) + uc(x, y - 1, z) +
                      uc(x, y + 1, z) + uc(x, y, z - 1) + uc(x, y, z + 1));
        }
      }
    }
  }
};

}  // namespace

class WavefrontNumerics : public ::testing::TestWithParam<tc::TileSpec> {};

TEST_P(WavefrontNumerics, MatchesSpaceBlockedBitExact) {
  const tg::Extents3 e{14, 11, 6};
  const int nt = 13;

  ToyStencil base(e);
  tc::execute(tc::TilePlan::space_blocked(e, 1, nt, GetParam()), 2,
              [&](int t, const tg::Box3& b) { base.block(t, b); });

  ToyStencil wave(e);
  tc::execute(tc::TilePlan::wavefront(e, 1, nt, /*slope=*/1, GetParam()), 2,
              [&](int t, const tg::Box3& b) { wave.block(t, b); });

  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(tg::max_abs_diff(base.buf.slot(s), wave.buf.slot(s)), 0.0)
        << "slot " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(
    TileShapes, WavefrontNumerics,
    ::testing::Values(tc::TileSpec{1, 4, 4, 4, 4},   // degenerate: t-tile 1
                      tc::TileSpec{2, 4, 4, 2, 2},
                      tc::TileSpec{4, 8, 8, 4, 4},
                      tc::TileSpec{13, 6, 5, 3, 2},  // whole time range
                      tc::TileSpec{3, 32, 32, 8, 8},  // tiles > domain
                      tc::TileSpec{5, 4, 8, 4, 8}));
