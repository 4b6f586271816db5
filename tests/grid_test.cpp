#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "tempest/grid/blocks.hpp"
#include "tempest/grid/extents.hpp"
#include "tempest/grid/grid3.hpp"
#include "tempest/grid/time_buffer.hpp"
#include "tempest/util/align.hpp"
#include "tempest/util/error.hpp"
#include "tempest/util/rng.hpp"

namespace tg = tempest::grid;

namespace {

/// A float grid of several chunks: 44 padded x-planes of 254 KiB.
const tg::Extents3 kChunked{40, 250, 252};
constexpr int kChunkedHalo = 2;

/// max_abs as a serial interior scan, the reference for the chunked pass.
template <typename T>
double serial_max_abs(const tg::Grid3<T>& g) {
  double m = 0.0;
  g.for_each_interior([&](int x, int y, int z) {
    const double d = std::abs(static_cast<double>(g(x, y, z)));
    if (d > m) m = d;
  });
  return m;
}

std::uintptr_t address(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p);
}

/// The value of `field` ("THPeligible", "AnonHugePages", ...) in the
/// /proc/self/smaps entry of the mapping that holds `addr`; -1 if absent.
long smaps_field(std::uintptr_t addr, const std::string& field) {
  std::ifstream smaps("/proc/self/smaps");
  bool inside = false;
  for (std::string line; std::getline(smaps, line);) {
    unsigned long lo = 0;
    unsigned long hi = 0;
    if (std::sscanf(line.c_str(), "%lx-%lx ", &lo, &hi) == 2) {
      inside = lo <= addr && addr < hi;
    } else if (inside && line.rfind(field + ":", 0) == 0) {
      return std::stol(line.substr(field.size() + 1));
    }
  }
  return -1;
}

}  // namespace

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

TEST(Grid3, RejectsBadShapesBeforeAllocating) {
  using tempest::util::PreconditionError;
  // Checked after allocating, a negative extent sizes a vector of wrapped
  // length (std::length_error), and a padded size past size_t wraps to a
  // small allocation that every access overruns.
  EXPECT_THROW(tg::Grid3<float>({-3, 4, 4}, 1), PreconditionError);
  EXPECT_THROW(tg::Grid3<float>({4, 4, -1}, 0), PreconditionError);
  EXPECT_THROW(tg::Grid3<float>({4, 4, 4}, -2), PreconditionError);
  EXPECT_THROW(tg::Grid3<float>({1 << 21, 1 << 21, 1 << 22}, 0),
               PreconditionError);
  EXPECT_THROW(tg::Grid3<double>({1 << 20, 1 << 20, 1 << 21}, 1),
               PreconditionError);
  EXPECT_THROW(
      tg::Grid3<float>({1, 1, 1}, std::numeric_limits<int>::max()),
      PreconditionError);
  EXPECT_THROW((void)tg::Grid3<float>::uninitialized({4, 0, 4}, 1),
               PreconditionError);
  EXPECT_THROW((void)tg::Grid3<float>::uninitialized({4, 4, 4}, -1),
               PreconditionError);
  EXPECT_EQ(tg::Grid3<float>::uninitialized({4, 5, 6}, 1).padded_size(),
            6u * 7u * 8u);
}

TEST(Grid3, ChunksCoverThePaddedPlanesInOrder) {
  const tg::Grid3<float> g(kChunked, kChunkedHalo);
  ASSERT_GE(g.chunks(), 4);
  int next = -kChunkedHalo;
  for (int c = 0; c < g.chunks(); ++c) {
    const tg::Range xs = g.chunk(c);
    EXPECT_EQ(xs.lo, next) << "chunk " << c;
    EXPECT_GT(xs.length(), 0) << "chunk " << c;
    EXPECT_LE(static_cast<std::size_t>(xs.length() * g.stride_x()) *
                  sizeof(float),
              tg::kChunkBytes)
        << "chunk " << c;
    next = xs.hi;
  }
  EXPECT_EQ(next, kChunked.nx + kChunkedHalo);
  // A plane wider than a chunk is a chunk of its own.
  static_assert(600 * 600 * sizeof(double) > tg::kChunkBytes);
  const tg::Grid3<double> wide({3, 600, 600}, 0);
  EXPECT_EQ(wide.chunks(), 3);
  // A small grid is one chunk, so its passes run on the caller.
  EXPECT_EQ(tg::Grid3<float>({8, 8, 8}, 2).chunks(), 1);
}

TEST(Grid3, FillCoversEveryPaddedByteAtAnyThreadCount) {
  const auto every_element_is = [](const tg::Grid3<float>& g, float v) {
    for (std::size_t i = 0; i < g.padded_size(); ++i) {
      if (std::memcmp(g.raw() + i, &v, sizeof v) != 0) return false;
    }
    return true;
  };
  for (const int threads : {1, 2, 8}) {
    tg::Grid3<float> g(kChunked, kChunkedHalo, 1.5f, threads);
    EXPECT_TRUE(every_element_is(g, 1.5f)) << "threads " << threads;
    g.fill(-0.0f, threads);
    EXPECT_TRUE(every_element_is(g, -0.0f)) << "threads " << threads;
    const tg::TimeBuffer<float> buf(2, kChunked, kChunkedHalo, 0.25f, threads);
    EXPECT_TRUE(every_element_is(buf.slot(0), 0.25f)) << "threads " << threads;
    EXPECT_TRUE(every_element_is(buf.slot(1), 0.25f)) << "threads " << threads;
  }
}

TEST(Grid3, MaxAbsMatchesTheSerialScan) {
  tg::Grid3<float> g(kChunked, kChunkedHalo);
  tempest::util::SplitMix64 rng(7);
  g.for_each_interior([&](int x, int y, int z) {
    g(x, y, z) = static_cast<float>(rng.uniform() * 2.0 - 1.0);
  });
  // The largest magnitude sits in the last chunk, a larger one in the halo,
  // and NaN (skipped) in the first chunk.
  g(kChunked.nx - 1, 7, 9) = -3.25f;
  g(kChunked.nx, 7, 9) = 100.0f;
  g(0, 0, -1) = -100.0f;
  g(1, 2, 3) = std::numeric_limits<float>::quiet_NaN();
  for (const int threads : {1, 2, 8}) {
    EXPECT_EQ(tg::max_abs(g, threads), 3.25) << "threads " << threads;
    EXPECT_EQ(tg::max_abs(g, threads), serial_max_abs(g))
        << "threads " << threads;
  }

  // Signed zeros only: +0. NaN only: 0, as the serial scan skips it too.
  tg::Grid3<float> zeros({4, 4, 4}, 1, -0.0f);
  zeros(2, 2, 2) = 0.0f;
  EXPECT_EQ(tg::max_abs(zeros, 2), 0.0);
  EXPECT_FALSE(std::signbit(tg::max_abs(zeros, 2)));
  tg::Grid3<double> nan({4, 4, 4}, 1,
                        std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(tg::max_abs(nan, 2), serial_max_abs(nan));
  EXPECT_EQ(tg::max_abs(nan, 2), 0.0);

  // Infinity counts; a double grid goes through the same pass.
  tg::Grid3<double> d(kChunked, kChunkedHalo, 0.5);
  d(3, 4, 5) = -std::numeric_limits<double>::infinity();
  EXPECT_EQ(tg::max_abs(d, 8), std::numeric_limits<double>::infinity());
  d(3, 4, 5) = -0.75;
  EXPECT_EQ(tg::max_abs(d, 8), 0.75);
  EXPECT_EQ(tg::max_abs(d, 8), serial_max_abs(d));
}

TEST(Grid3, LargeGridsStartStaggered) {
  // Same-sized heap blocks start at one offset modulo 128 KiB, the set
  // period of a 2 MiB 16-way L2: on huge pages the same point of every
  // field would fall in one L2 set.
  constexpr std::uintptr_t kL2SetPeriod = std::uintptr_t{128} << 10;
  const tg::Extents3 shape{60, 124, 124};  // padded 64 x 128 x 128: 4 MiB
  std::vector<tg::Grid3<float>> grids;
  std::set<std::uintptr_t> offsets;
  for (int i = 0; i < 8; ++i) {
    grids.push_back(tg::Grid3<float>::uninitialized(shape, 2));
    const tg::Grid3<float>& g = grids.back();
    ASSERT_GE(g.padded_size() * sizeof(float), tg::kHugePageBytes);
    EXPECT_TRUE(tempest::util::is_aligned(g.raw())) << "grid " << i;
    offsets.insert(address(g.raw()) % kL2SetPeriod);
  }
  EXPECT_EQ(offsets.size(), 8u);
  // A grid under 2 MiB keeps the 64-byte alignment that AcousticKernel's
  // JIT ABI check asserts.
  const tg::Grid3<float> small({8, 8, 8}, 2);
  EXPECT_TRUE(tempest::util::is_aligned(small.raw()));
}

TEST(Grid3, LargeGridIsHugePageEligible) {
  const std::string mode = tg::huge_page_mode();
  if (mode == "unavailable" || mode == "never") {
    GTEST_SKIP() << "transparent huge page mode: " << mode;
  }
  const tg::Grid3<float> g({256, 128, 128}, 0, 1.0f);  // 16 MiB, filled
  const std::uintptr_t first_page =
      (address(g.raw()) + tg::kHugePageBytes - 1) / tg::kHugePageBytes *
      tg::kHugePageBytes;
  ASSERT_LE(first_page + tg::kHugePageBytes,
            address(g.raw() + g.padded_size()));
  EXPECT_EQ(smaps_field(first_page, "THPeligible"), 1) << "mode " << mode;
  std::printf("THP mode %s; AnonHugePages of the grid's huge-page mapping: "
              "%ld kB\n",
              mode.c_str(), smaps_field(first_page, "AnonHugePages"));
}

#if defined(__SANITIZE_ADDRESS__)
TEST(Grid3DeathTest, AsanReportsOverrunsOfALargeGrid) {
  // Consecutive large grids start at consecutive staggers, so one of two
  // has slack before its first element.
  tg::Grid3<float> a({128, 64, 64}, 0);  // 2 MiB
  tg::Grid3<float> b({128, 64, 64}, 0);
  tg::Grid3<float>& g = address(a.raw()) % tg::kHugePageBytes != 0 ? a : b;
  ASSERT_NE(address(g.raw()) % tg::kHugePageBytes, 0u);
  volatile float* const p = g.raw();
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(g.padded_size());
  EXPECT_DEATH(p[n] = 1.0f, "heap-buffer-overflow");
  EXPECT_DEATH(p[-1] = 1.0f, "use-after-poison");
}
#endif

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
