#include <gtest/gtest.h>

#include <set>

#include "tempest/grid/blocks.hpp"
#include "tempest/grid/extents.hpp"
#include "tempest/grid/grid3.hpp"
#include "tempest/grid/time_buffer.hpp"
#include "tempest/util/error.hpp"

namespace tg = tempest::grid;

TEST(Extents, SizeAndContains) {
  const tg::Extents3 e{4, 5, 6};
  EXPECT_EQ(e.size(), 120u);
  EXPECT_TRUE(e.contains({0, 0, 0}));
  EXPECT_TRUE(e.contains({3, 4, 5}));
  EXPECT_FALSE(e.contains({4, 0, 0}));
  EXPECT_FALSE(e.contains({0, -1, 0}));
}

TEST(Range, BasicsAndIntersect) {
  const tg::Range r{2, 7};
  EXPECT_EQ(r.length(), 5);
  EXPECT_FALSE(r.empty());
  EXPECT_TRUE(r.contains(2));
  EXPECT_FALSE(r.contains(7));
  EXPECT_EQ(tg::intersect(tg::Range{0, 5}, tg::Range{3, 9}),
            (tg::Range{3, 5}));
  EXPECT_TRUE(tg::intersect(tg::Range{0, 3}, tg::Range{5, 9}).empty());
  EXPECT_EQ((tg::Range{5, 2}).length(), 0);
}

TEST(Box, VolumeWholeIntersect) {
  const tg::Extents3 e{4, 5, 6};
  const tg::Box3 whole = tg::Box3::whole(e);
  EXPECT_EQ(whole.volume(), e.size());
  const tg::Box3 cut = tg::intersect(whole, {{2, 10}, {0, 2}, {1, 3}});
  EXPECT_EQ(cut.volume(), 2u * 2u * 2u);
  EXPECT_TRUE(tg::intersect(whole, {{9, 12}, {0, 2}, {0, 2}}).empty());
  EXPECT_EQ(tg::Box3{}.volume(), 0u);
}

TEST(Grid3, IndexingRoundTrip) {
  tg::Grid3<float> g({3, 4, 5}, 2, 0.0f);
  int counter = 0;
  g.for_each_interior([&](int x, int y, int z) {
    g(x, y, z) = static_cast<float>(++counter);
  });
  EXPECT_EQ(counter, 60);
  counter = 0;
  g.for_each_interior([&](int x, int y, int z) {
    EXPECT_EQ(g(x, y, z), static_cast<float>(++counter));
  });
}

TEST(Grid3, HaloAddressableAndZero) {
  tg::Grid3<float> g({3, 3, 3}, 2, 0.0f);
  EXPECT_EQ(g(-2, -2, -2), 0.0f);
  EXPECT_EQ(g(4, 4, 4), 0.0f);
  g(-1, 0, 0) = 7.0f;
  EXPECT_EQ(g(-1, 0, 0), 7.0f);
  EXPECT_EQ(g.padded_size(), 7u * 7u * 7u);
}

TEST(Grid3, AtBoundsChecks) {
  tg::Grid3<float> g({3, 3, 3}, 1, 0.0f);
  EXPECT_NO_THROW((void)g.at(-1, 3, 0));
  EXPECT_THROW((void)g.at(-2, 0, 0), tempest::util::PreconditionError);
  EXPECT_THROW((void)g.at(0, 4, 0), tempest::util::PreconditionError);
}

TEST(Grid3, StridesMatchLayout) {
  tg::Grid3<float> g({3, 4, 5}, 1, 0.0f);
  // z contiguous, then y, then x.
  EXPECT_EQ(g.stride_z(), 1);
  EXPECT_EQ(g.stride_y(), 5 + 2);
  EXPECT_EQ(g.stride_x(), (5 + 2) * (4 + 2));
  // origin() points at interior (0,0,0).
  g(1, 2, 3) = 9.0f;
  EXPECT_EQ(g.origin()[1 * g.stride_x() + 2 * g.stride_y() + 3], 9.0f);
}

TEST(Grid3, MaxAbsDiffAndMaxAbs) {
  tg::Grid3<float> a({3, 3, 3}, 0, 1.0f);
  tg::Grid3<float> b({3, 3, 3}, 0, 1.0f);
  EXPECT_EQ(tg::max_abs_diff(a, b), 0.0);
  b(1, 1, 1) = -2.5f;
  EXPECT_DOUBLE_EQ(tg::max_abs_diff(a, b), 3.5);
  EXPECT_DOUBLE_EQ(tg::max_abs(b), 2.5);
}

TEST(Grid3, RejectsBadConstruction) {
  EXPECT_THROW(tg::Grid3<float>({0, 3, 3}, 1), tempest::util::PreconditionError);
  EXPECT_THROW(tg::Grid3<float>({3, 3, 3}, -1),
               tempest::util::PreconditionError);
}

TEST(TimeBuffer, ModuloSemantics) {
  tg::TimeBuffer<float> buf(3, {2, 2, 2}, 0, 0.0f);
  EXPECT_EQ(buf.slots(), 3);
  buf.at(0)(0, 0, 0) = 10.0f;
  buf.at(1)(0, 0, 0) = 11.0f;
  buf.at(2)(0, 0, 0) = 12.0f;
  // t=3 aliases slot 0.
  EXPECT_EQ(buf.at(3)(0, 0, 0), 10.0f);
  EXPECT_EQ(buf.at(4)(0, 0, 0), 11.0f);
  EXPECT_EQ(&buf.at(5), &buf.slot(2));
}

TEST(TimeBuffer, FillClearsAllSlots) {
  tg::TimeBuffer<float> buf(2, {2, 2, 2}, 1, 3.0f);
  buf.fill(0.0f);
  EXPECT_EQ(buf.at(0)(0, 0, 0), 0.0f);
  EXPECT_EQ(buf.at(1)(1, 1, 1), 0.0f);
}

TEST(Blocks, CoverageExactNoOverlap) {
  const tg::Box3 dom{{0, 10}, {0, 7}, {0, 5}};
  const auto blocks = tg::decompose_xy(dom, 4, 3);
  std::set<std::pair<int, int>> seen;
  std::size_t total = 0;
  for (const auto& b : blocks) {
    EXPECT_EQ(b.z, dom.z);
    total += b.volume();
    for (int x = b.x.lo; x < b.x.hi; ++x) {
      for (int y = b.y.lo; y < b.y.hi; ++y) {
        EXPECT_TRUE(seen.insert({x, y}).second) << "overlap at " << x << ',' << y;
      }
    }
  }
  EXPECT_EQ(total, dom.volume());
  EXPECT_EQ(seen.size(), 70u);
}

TEST(Blocks, RejectsNonPositive) {
  EXPECT_THROW(tg::decompose_xy({{0, 4}, {0, 4}, {0, 4}}, 0, 2),
               tempest::util::PreconditionError);
}
