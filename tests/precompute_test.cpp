#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "affected_points_check.hpp"
#include "tempest/core/compress.hpp"
#include "tempest/core/fused.hpp"
#include "tempest/core/precompute.hpp"
#include "tempest/sparse/operators.hpp"
#include "tempest/sparse/survey.hpp"

namespace tc = tempest::core;
namespace sp = tempest::sparse;
namespace tg = tempest::grid;
using tempest::real_t;

namespace {
constexpr tg::Extents3 kE{20, 18, 16};

sp::SparseTimeSeries make_sources(sp::CoordList coords, int nt) {
  sp::SparseTimeSeries src(std::move(coords), nt);
  std::vector<real_t> sig(static_cast<std::size_t>(nt));
  for (int t = 0; t < nt; ++t)
    sig[static_cast<std::size_t>(t)] = static_cast<real_t>(0.3 * t - 1.0);
  src.broadcast_signature(sig);
  return src;
}

/// A distinct amplitude per site and step, so any change in the order a
/// point accumulates its sites shows in the last bits of src_dcmp.
sp::SparseTimeSeries make_varied(sp::CoordList coords, int nt) {
  sp::SparseTimeSeries src(std::move(coords), nt);
  for (int t = 0; t < nt; ++t) {
    for (int s = 0; s < src.npoints(); ++s) {
      src.at(t, s) =
          static_cast<real_t>(std::sin(0.7 * t + 1.3 * s) * (1.0 + 0.1 * s));
    }
  }
  return src;
}

void expect_both_kinds_match(const sp::CoordList& coords) {
  const auto series = make_varied(coords, 5);
  for (const auto kind :
       {sp::InterpKind::Trilinear, sp::InterpKind::WindowedSinc}) {
    SCOPED_TRACE(kind == sp::InterpKind::Trilinear ? "trilinear"
                                                   : "windowed-sinc");
    tempest::testing::expect_matches_dense_reference(kE, series, kind);
  }
}
}  // namespace

TEST(Masks, SingleOffGridSourceTouchesEightPoints) {
  const auto src = make_sources({{5.5, 6.25, 7.75}}, 3);
  const auto masks =
      tc::build_source_masks(kE, src, sp::InterpKind::Trilinear);
  EXPECT_EQ(masks.npts, 8);
  int mask_count = 0, id_count = 0;
  masks.sm.for_each_interior([&](int x, int y, int z) {
    mask_count += masks.sm(x, y, z);
    id_count += masks.sid(x, y, z) >= 0;
    // SM and SID agree pointwise.
    EXPECT_EQ(masks.sm(x, y, z) == 1, masks.sid(x, y, z) >= 0);
  });
  EXPECT_EQ(mask_count, 8);
  EXPECT_EQ(id_count, 8);
}

TEST(Masks, OnGridSourceTouchesOnePoint) {
  const auto src = make_sources({{5.0, 6.0, 7.0}}, 2);
  const auto masks =
      tc::build_source_masks(kE, src, sp::InterpKind::Trilinear);
  EXPECT_EQ(masks.npts, 1);
  EXPECT_EQ(masks.sid(5, 6, 7), 0);
}

TEST(Masks, IdsAscendInXMajorOrder) {
  const auto src = make_sources({{2.5, 3.5, 4.5}, {10.5, 3.5, 4.5}}, 2);
  const auto masks =
      tc::build_source_masks(kE, src, sp::InterpKind::Trilinear);
  ASSERT_EQ(masks.npts, 16);
  int last = -1;
  masks.sid.for_each_interior([&](int x, int y, int z) {
    const int id = masks.sid(x, y, z);
    if (id >= 0) {
      EXPECT_EQ(id, last + 1) << "ids must ascend with x-major traversal";
      last = id;
    }
  });
  EXPECT_EQ(last, 15);
}

TEST(Masks, OverlappingSourcesShareAffectedPoints) {
  // Two sources in the same cell: 8 unique points, not 16 (paper: "quite
  // common to encounter points being affected by more than one source").
  const auto src = make_sources({{5.25, 6.25, 7.25}, {5.75, 6.75, 7.75}}, 2);
  const auto masks =
      tc::build_source_masks(kE, src, sp::InterpKind::Trilinear);
  EXPECT_EQ(masks.npts, 8);
}

TEST(Masks, WindowedSincWiderSupport) {
  const auto src = make_sources({{8.5, 8.5, 8.5}}, 2);
  const auto masks =
      tc::build_source_masks(kE, src, sp::InterpKind::WindowedSinc);
  EXPECT_EQ(masks.npts, 64);
}

TEST(Decompose, ConservesTotalInjectedAmplitude) {
  const int nt = 5;
  const auto src =
      make_sources({{5.5, 6.25, 7.75}, {11.3, 4.2, 9.9}, {11.3, 4.4, 9.9}},
                   nt);
  const auto masks =
      tc::build_source_masks(kE, src, sp::InterpKind::Trilinear);
  const auto dcmp =
      tc::decompose_sources(masks, src, sp::InterpKind::Trilinear);
  ASSERT_EQ(dcmp.nt(), nt);
  ASSERT_EQ(dcmp.npts(), masks.npts);
  for (int t = 0; t < nt; ++t) {
    double total = 0.0;
    for (int id = 0; id < dcmp.npts(); ++id) total += dcmp.at(t, id);
    double expected = 0.0;  // each source's weights sum to 1
    for (int s = 0; s < src.npoints(); ++s) expected += src.at(t, s);
    EXPECT_NEAR(total, expected, 1e-4) << "t=" << t;
  }
}

TEST(Decompose, MatchesNaiveInjectionOnEmptyGrid) {
  // The decomposed per-point wavefields applied through SID must equal the
  // naive off-the-grid scatter, timestep by timestep (unit scale).
  const int nt = 4;
  const auto src = make_sources(
      {{5.5, 6.25, 7.75}, {5.9, 6.6, 7.2}, {12.0, 3.5, 4.5}}, nt);
  const auto masks =
      tc::build_source_masks(kE, src, sp::InterpKind::Trilinear);
  const auto dcmp =
      tc::decompose_sources(masks, src, sp::InterpKind::Trilinear);
  for (int t = 0; t < nt; ++t) {
    tg::Grid3<real_t> naive(kE, 0, 0.0f);
    sp::inject(naive, src, t, sp::InterpKind::Trilinear,
               [](int, int, int) { return 1.0; });
    tg::Grid3<real_t> via_dcmp(kE, 0, 0.0f);
    via_dcmp.for_each_interior([&](int x, int y, int z) {
      const int id = masks.sid(x, y, z);
      if (id >= 0) via_dcmp(x, y, z) = dcmp.at(t, id);
    });
    EXPECT_LT(tg::max_abs_diff(naive, via_dcmp), 1e-6) << "t=" << t;
  }
}

TEST(Compress, EntriesMatchMask) {
  const auto src = make_sources(
      {{5.5, 6.25, 7.75}, {5.5, 6.25, 2.25}, {12.0, 3.5, 4.5}}, 2);
  const auto masks =
      tc::build_source_masks(kE, src, sp::InterpKind::Trilinear);
  const tc::CompressedSparse cs(masks.sm, masks.sid);

  EXPECT_EQ(cs.nx(), kE.nx);
  EXPECT_EQ(cs.ny(), kE.ny);
  EXPECT_EQ(cs.total_entries(), masks.npts);
  EXPECT_FALSE(cs.empty());

  int recovered = 0;
  for (int x = 0; x < kE.nx; ++x) {
    for (int y = 0; y < kE.ny; ++y) {
      EXPECT_EQ(cs.nnz(x, y), static_cast<int>(cs.entries(x, y).size()));
      int last_z = -1;
      for (const auto& e : cs.entries(x, y)) {
        EXPECT_GT(e.z, last_z) << "entries must be z-ascending";
        last_z = e.z;
        EXPECT_EQ(masks.sm(x, y, e.z), 1);
        EXPECT_EQ(masks.sid(x, y, e.z), e.id);
        ++recovered;
      }
    }
  }
  EXPECT_EQ(recovered, masks.npts);
  // Column (5,6) holds two sources' z-support: 4 entries stacked.
  EXPECT_EQ(cs.nnz(5, 6), 4);
  EXPECT_EQ(cs.max_nnz(), 4);
}

TEST(Compress, EmptyMask) {
  tg::Grid3<unsigned char> sm(kE, 0, 0);
  tg::Grid3<int> sid(kE, 0, -1);
  const tc::CompressedSparse cs(sm, sid);
  EXPECT_TRUE(cs.empty());
  EXPECT_EQ(cs.max_nnz(), 0);
  EXPECT_EQ(cs.nnz(3, 3), 0);
}

TEST(Fused, InjectEqualsNaiveScatter) {
  const int nt = 3;
  const auto src = make_sources(
      {{5.5, 6.25, 7.75}, {5.9, 6.6, 7.2}, {12.0, 3.5, 4.5}}, nt);
  const auto masks =
      tc::build_source_masks(kE, src, sp::InterpKind::Trilinear);
  const auto dcmp =
      tc::decompose_sources(masks, src, sp::InterpKind::Trilinear);
  const tc::CompressedSparse cs(masks.sm, masks.sid);

  auto scale = [](int x, int y, int) { return 0.5 + 0.01 * (x + y); };
  for (int t = 0; t < nt; ++t) {
    tg::Grid3<real_t> naive(kE, 2, 0.0f);
    sp::inject(naive, src, t, sp::InterpKind::Trilinear, scale);
    tg::Grid3<real_t> fused(kE, 2, 0.0f);
    tc::fused_inject(fused, cs, dcmp, t, {0, kE.nx}, {0, kE.ny}, scale);
    EXPECT_LT(tg::max_abs_diff(naive, fused), 1e-5) << "t=" << t;
  }
}

TEST(Fused, DenseListing4VariantMatchesCompressed) {
  // The uncompressed fused loop (Listing 4) and the compressed one
  // (Listing 5) are alternative schedules of the same operator.
  const int nt = 3;
  const auto src = make_sources(
      {{5.5, 6.25, 7.75}, {5.9, 6.6, 7.2}, {12.0, 3.5, 4.5}}, nt);
  const auto masks =
      tc::build_source_masks(kE, src, sp::InterpKind::Trilinear);
  const auto dcmp =
      tc::decompose_sources(masks, src, sp::InterpKind::Trilinear);
  const tc::CompressedSparse cs(masks.sm, masks.sid);
  auto scale = [](int, int y, int z) { return 1.0 + 0.05 * (y - z); };
  for (int t = 0; t < nt; ++t) {
    tg::Grid3<real_t> dense(kE, 0, 0.0f), packed(kE, 0, 0.0f);
    tc::fused_inject_dense(dense, masks, dcmp, t, {0, kE.nx}, {0, kE.ny},
                           scale);
    tc::fused_inject(packed, cs, dcmp, t, {0, kE.nx}, {0, kE.ny}, scale);
    EXPECT_EQ(tg::max_abs_diff(dense, packed), 0.0) << "t=" << t;
  }
}

TEST(Fused, InjectRespectsColumnRanges) {
  const auto src = make_sources({{5.5, 6.25, 7.75}}, 2);
  const auto masks =
      tc::build_source_masks(kE, src, sp::InterpKind::Trilinear);
  const auto dcmp =
      tc::decompose_sources(masks, src, sp::InterpKind::Trilinear);
  const tc::CompressedSparse cs(masks.sm, masks.sid);
  tg::Grid3<real_t> u(kE, 0, 0.0f);
  // Range excludes the source columns: nothing happens.
  tc::fused_inject(u, cs, dcmp, 1, {0, 5}, {0, 6},
                   [](int, int, int) { return 1.0; });
  EXPECT_EQ(tg::max_abs(u), 0.0);
  // Split the domain into two x ranges: together they equal the full apply.
  tc::fused_inject(u, cs, dcmp, 1, {0, 6}, {0, kE.ny},
                   [](int, int, int) { return 1.0; });
  tc::fused_inject(u, cs, dcmp, 1, {6, kE.nx}, {0, kE.ny},
                   [](int, int, int) { return 1.0; });
  tg::Grid3<real_t> whole(kE, 0, 0.0f);
  tc::fused_inject(whole, cs, dcmp, 1, {0, kE.nx}, {0, kE.ny},
                   [](int, int, int) { return 1.0; });
  EXPECT_EQ(tg::max_abs_diff(u, whole), 0.0);
}

TEST(Receivers, DecompositionMatchesNaiveGather) {
  const sp::CoordList rec_coords{{4.5, 5.5, 2.25}, {9.1, 3.3, 2.25},
                                 {4.5, 5.5, 2.25}};  // duplicate receiver
  sp::SparseTimeSeries rec_naive(rec_coords, 2);
  sp::SparseTimeSeries rec_fused(rec_coords, 2);

  tg::Grid3<real_t> u(kE, 0, 0.0f);
  u.for_each_interior([&](int x, int y, int z) {
    u(x, y, z) = static_cast<real_t>(0.01 * x - 0.02 * y + 0.5 * z);
  });

  sp::interpolate(u, rec_naive, 1, sp::InterpKind::Trilinear);

  // The engine's gather: tiles stage per-point samples, the band barrier
  // folds them into the traces in ascending id order.
  const auto pts =
      tc::build_affected_points(kE, rec_fused, sp::InterpKind::Trilinear);
  tc::ReceiverStage stage(1, pts.npts);
  stage.begin_band(1);
  rec_fused.zero();
  tc::fused_sample(u, pts.columns, stage.row(1), {0, kE.nx}, {0, kE.ny});
  tc::reduce_receiver_stage(stage, pts, 1, rec_fused.step(1).data());

  for (int r = 0; r < rec_naive.npoints(); ++r) {
    EXPECT_NEAR(rec_naive.at(1, r), rec_fused.at(1, r), 1e-4) << "r=" << r;
  }
}

TEST(Receivers, PartialColumnsAccumulate) {
  const sp::CoordList rec_coords{{4.5, 5.5, 2.25}};
  sp::SparseTimeSeries rec(rec_coords, 1);
  tg::Grid3<real_t> u(kE, 0, 1.0f);
  const auto pts =
      tc::build_affected_points(kE, rec, sp::InterpKind::Trilinear);
  tc::ReceiverStage stage(1, pts.npts);
  stage.begin_band(0);
  // Two tiles sampling disjoint x ranges, then one reduction, must equal
  // the full gather.
  tc::fused_sample(u, pts.columns, stage.row(0), {0, 5}, {0, kE.ny});
  tc::fused_sample(u, pts.columns, stage.row(0), {5, kE.nx}, {0, kE.ny});
  tc::reduce_receiver_stage(stage, pts, 0, rec.step(0).data());
  EXPECT_NEAR(rec.at(0, 0), 1.0, 1e-5);  // partition of unity on constant u
}

TEST(Receivers, OffsetsAreConsistentCsr) {
  const sp::CoordList rec_coords{{4.5, 5.5, 2.25}, {4.5, 5.5, 2.25}};
  sp::SparseTimeSeries rec(rec_coords, 1);
  const auto dr = tc::decompose_receivers(kE, rec, sp::InterpKind::Trilinear);
  ASSERT_EQ(dr.npts, 8);  // coincident receivers share the 8 support points
  ASSERT_EQ(static_cast<int>(dr.offsets.size()), dr.npts + 1);
  EXPECT_EQ(dr.offsets.front(), 0);
  EXPECT_EQ(dr.offsets.back(), static_cast<int>(dr.pairs.size()));
  EXPECT_EQ(static_cast<int>(dr.pairs.size()), 16);  // 2 receivers x 8
  for (int id = 0; id < dr.npts; ++id) {
    EXPECT_EQ(dr.offsets[static_cast<std::size_t>(id) + 1] -
                  dr.offsets[static_cast<std::size_t>(id)],
              2);  // both receivers contribute to every shared point
  }
}

// --- build_affected_points against the paper-literal dense reference:
// ids, src_dcmp, the per-id pairs and the packed columns, byte for byte. ---

TEST(AffectedPoints, OffGridSitesMatchDenseReference) {
  expect_both_kinds_match({{5.5, 6.25, 7.75},
                           {11.3, 4.2, 9.9},
                           {2.1, 13.7, 3.3},
                           {9.3, 7.1, 10.6}});
}

TEST(AffectedPoints, OnGridSitesMatchDenseReference) {
  expect_both_kinds_match(
      {{5.0, 6.0, 7.0}, {5.0, 6.5, 7.0}, {12.0, 3.0, 4.25}});
}

TEST(AffectedPoints, BoundaryClippedSupportsMatchDenseReference) {
  // Supports that cross x = 0, x = nx, y = ny and z = nz lose the outside
  // points on both paths.
  expect_both_kinds_match({{0.5, 0.25, 0.75},
                           {19.5, 17.5, 15.5},
                           {-0.5, 8.5, 8.5},
                           {0.3, 16.9, 14.6}});
}

TEST(AffectedPoints, CoincidentAndDuplicatedSitesMatchDenseReference) {
  // Sites sharing support points accumulate in site order; a duplicated
  // site contributes twice to each of its points.
  expect_both_kinds_match({{5.25, 6.25, 7.25},
                           {5.75, 6.75, 7.75},
                           {5.25, 6.25, 7.25},
                           {5.5, 6.5, 7.5},
                           {6.1, 6.2, 7.3}});
}

TEST(AffectedPoints, ZeroSitesMatchDenseReference) {
  expect_both_kinds_match({});
  const sp::SparseTimeSeries none(sp::CoordList{}, 3);
  const auto pts =
      tc::build_affected_points(kE, none, sp::InterpKind::Trilinear);
  EXPECT_EQ(pts.npts, 0);
  EXPECT_TRUE(pts.columns.empty());
  EXPECT_EQ(pts.offsets, std::vector<int>{0});
  EXPECT_EQ(tc::decompose_sources(pts, none).npts(), 0);
}
