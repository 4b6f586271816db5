#pragma once

// Byte-equality of the sparse-first precompute (core::build_affected_points
// and decompose_sources over its CSR) against the paper-literal dense
// reference of Listings 2-5, shared by precompute_test and property_test.

#include <gtest/gtest.h>

#include <cstring>

#include "tempest/core/compress.hpp"
#include "tempest/core/precompute.hpp"

namespace tempest::testing {

inline bool same_bits(real_t a, real_t b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Reads `series` both as sources (probe, SM/SID, src_dcmp) and as
/// receivers (RM/RID and the pair CSR); build_affected_points must
/// reproduce all of them byte for byte.
inline void expect_matches_dense_reference(
    const grid::Extents3& e, const sparse::SparseTimeSeries& series,
    sparse::InterpKind kind) {
  const core::AffectedPoints pts =
      core::build_affected_points(e, series, kind);
  const core::SourceMasks masks = core::build_source_masks(e, series, kind);
  const core::DecomposedReceivers dr =
      core::decompose_receivers(e, series, kind);
  ASSERT_EQ(pts.npts, masks.npts);
  ASSERT_EQ(pts.npts, dr.npts);

  // Columns (Fig. 6): equal per-column counts make the CSR offsets equal;
  // every entry carries the dense SID and RID of its point (Fig. 5c).
  const core::CompressedSparse ref(masks.sm, masks.sid);
  ASSERT_EQ(pts.columns.nx(), ref.nx());
  ASSERT_EQ(pts.columns.ny(), ref.ny());
  EXPECT_EQ(pts.columns.total_entries(), ref.total_entries());
  EXPECT_EQ(pts.columns.max_nnz(), ref.max_nnz());
  EXPECT_EQ(pts.columns.empty(), ref.empty());
  int entry_mismatches = 0;
  for (int x = 0; x < e.nx; ++x) {
    for (int y = 0; y < e.ny; ++y) {
      const auto got = pts.columns.entries(x, y);
      const auto want = ref.entries(x, y);
      ASSERT_EQ(got.size(), want.size()) << "column " << x << "," << y;
      for (std::size_t k = 0; k < got.size(); ++k) {
        entry_mismatches += got[k].z != want[k].z || got[k].id != want[k].id ||
                            dr.rid(x, y, got[k].z) != got[k].id;
      }
    }
  }
  EXPECT_EQ(entry_mismatches, 0);

  // The per-id (site, weight) CSR, in ascending site order.
  EXPECT_EQ(pts.offsets, dr.offsets);
  ASSERT_EQ(pts.pairs.size(), dr.pairs.size());
  int pair_mismatches = 0;
  for (std::size_t k = 0; k < pts.pairs.size(); ++k) {
    pair_mismatches += pts.pairs[k].site != dr.pairs[k].site ||
                       !same_bits(pts.pairs[k].weight, dr.pairs[k].weight);
  }
  EXPECT_EQ(pair_mismatches, 0);

  // src_dcmp (Fig. 5d).
  const core::DecomposedSource got = core::decompose_sources(pts, series);
  const core::DecomposedSource want =
      core::decompose_sources(masks, series, kind);
  ASSERT_EQ(got.nt(), want.nt());
  ASSERT_EQ(got.npts(), want.npts());
  int dcmp_mismatches = 0;
  for (int t = 0; t < got.nt(); ++t) {
    for (int id = 0; id < got.npts(); ++id) {
      dcmp_mismatches += !same_bits(got.at(t, id), want.at(t, id));
    }
  }
  EXPECT_EQ(dcmp_mismatches, 0);
}

}  // namespace tempest::testing
