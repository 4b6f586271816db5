#pragma once

#include <vector>

#include "tempest/config.hpp"
#include "tempest/core/compress.hpp"
#include "tempest/grid/grid3.hpp"
#include "tempest/sparse/interp.hpp"
#include "tempest/sparse/series.hpp"
#include "tempest/util/align.hpp"

namespace tempest::core {

/// Steps 1–2 of the paper's precomputation (Listing 2, Fig. 5b/5c): probe
/// the sources' interpolation supports by injecting onto an empty grid, then
/// record a dense binary *source mask* SM and a *source id* volume SID
/// assigning each affected grid point a unique ascending id.
///
/// The dense volumes, build_source_masks, decompose_sources over them,
/// decompose_receivers and the CompressedSparse(mask, ids) constructor are
/// the paper-literal Listings 2–5, kept as the reference that
/// build_affected_points below is tested against. The engine never builds
/// them.
struct SourceMasks {
  grid::Grid3<unsigned char> sm;  ///< 1 where some source touches the point
  grid::Grid3<int> sid;           ///< unique ascending id, or -1
  int npts = 0;                   ///< number of affected points

  [[nodiscard]] const grid::Extents3& extents() const { return sm.extents(); }
};

/// Probe injection (reference). Faithful to Listing 2: each source scatters
/// a unit amplitude through its interpolation weights for one timestep over
/// an empty grid; grid points left non-zero are "affected". Ids ascend in
/// x-major interior order (the paper's Fig. 5c numbering).
[[nodiscard]] SourceMasks build_source_masks(const grid::Extents3& extents,
                                             const sparse::SparseTimeSeries& src,
                                             sparse::InterpKind kind);

/// Step 3 (Listing 3, Fig. 5d): the decomposed, grid-aligned source
/// wavefields. src_dcmp[t][id] accumulates w_{s,p} * src[t][s] over every
/// source s whose support contains affected point p. After decomposition the
/// off-the-grid sources are equivalent to `npts` point sources sitting
/// exactly on grid points.
class DecomposedSource {
 public:
  DecomposedSource() = default;
  DecomposedSource(int nt, int npts)
      : nt_(nt),
        npts_(npts),
        data_(static_cast<std::size_t>(nt) * static_cast<std::size_t>(npts),
              real_t{0}) {}

  [[nodiscard]] int nt() const { return nt_; }
  [[nodiscard]] int npts() const { return npts_; }

  [[nodiscard]] real_t& at(int t, int id) {
    return data_[static_cast<std::size_t>(t) *
                     static_cast<std::size_t>(npts_) +
                 static_cast<std::size_t>(id)];
  }
  [[nodiscard]] real_t at(int t, int id) const {
    return data_[static_cast<std::size_t>(t) *
                     static_cast<std::size_t>(npts_) +
                 static_cast<std::size_t>(id)];
  }

 private:
  int nt_ = 0;
  int npts_ = 0;
  util::aligned_vector<real_t> data_;
};

/// Listing 3 over the dense SID volume (reference).
[[nodiscard]] DecomposedSource decompose_sources(
    const SourceMasks& masks, const sparse::SparseTimeSeries& src,
    sparse::InterpKind kind);

/// One contribution of a sparse site (a source or a receiver) to an
/// affected point: the site's index and its interpolation weight there.
struct SiteWeight {
  int site = 0;
  real_t weight = 0;
};

/// Receiver-side analog of the decomposition: measurement interpolation is a
/// *gather*, so instead of per-point wavefields we precompute, per affected
/// grid point, the list of (receiver, weight) pairs it contributes to. The
/// fused kernel then accumulates rec[t][r] += w * u(t, point) as the
/// wave-front sweeps the point's column. This dense RM/RID form is the
/// reference; the engine's receivers go through build_affected_points.
struct DecomposedReceivers {
  grid::Grid3<unsigned char> rm;  ///< binary receiver mask
  grid::Grid3<int> rid;           ///< unique ascending id, or -1
  int npts = 0;

  std::vector<int> offsets;  ///< CSR over ids: pairs[offsets[id]..offsets[id+1])
  std::vector<SiteWeight> pairs;

  [[nodiscard]] const grid::Extents3& extents() const { return rm.extents(); }
};

[[nodiscard]] DecomposedReceivers decompose_receivers(
    const grid::Extents3& extents, const sparse::SparseTimeSeries& rec,
    sparse::InterpKind kind);

/// The sparse-first precompute the engine runs: the affected points of a
/// sparse series (sources or receivers) straight from the interpolation
/// supports, with no grid-sized buffer. Ids, pairs and columns are
/// byte-identical to the dense reference's SID/RID numbering, the
/// DecomposedReceivers CSR and CompressedSparse(mask, ids).
struct AffectedPoints {
  int npts = 0;  ///< affected points; ids 0..npts-1 ascend in x-major order
  std::vector<int> offsets;       ///< CSR over ids, as DecomposedReceivers
  std::vector<SiteWeight> pairs;  ///< per id, in ascending site order
  CompressedSparse columns;       ///< nnz_mask / Sp_SID over the same ids
};

/// Collects every site's support points as (x-major index, site, weight)
/// in site order and stable-sorts them by index; one pass over the sorted
/// list then numbers the distinct points (Fig. 5c), fills the per-id CSR
/// and packs the columns (Fig. 6). O(P log P + nx*ny) time and memory for
/// P support points.
[[nodiscard]] AffectedPoints build_affected_points(
    const grid::Extents3& extents, const sparse::SparseTimeSeries& series,
    sparse::InterpKind kind);

/// Step 3 over the AffectedPoints CSR: each (t, id) accumulates its sources
/// in ascending site order, the order of the dense loop, so src_dcmp is
/// byte-identical to decompose_sources(masks, src, kind).
[[nodiscard]] DecomposedSource decompose_sources(
    const AffectedPoints& points, const sparse::SparseTimeSeries& src);

}  // namespace tempest::core
