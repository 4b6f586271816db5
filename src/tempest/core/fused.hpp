#pragma once

#include "tempest/config.hpp"
#include "tempest/core/compress.hpp"
#include "tempest/core/precompute.hpp"
#include "tempest/grid/extents.hpp"
#include "tempest/grid/grid3.hpp"
#include "tempest/trace/trace.hpp"
#include "tempest/util/align.hpp"

namespace tempest::core {

/// Step 4 of the paper (Listing 4/5): the sparse operators fused into the
/// stencil sweep. These run per (x,y) column *inside* a space block right
/// after the block's stencil update for timestep t, so every data dependency
/// they carry is aligned with the grid traversal — which is exactly what
/// legalises temporal blocking.

/// Fused, compressed source injection over the block's columns:
///   u(x,y,z_k) += src_dcmp[t][id_k] * scale(x,y,z_k)
/// `scale` is the same grid-point-local factor as sparse::inject's, keeping
/// the fused path exactly equivalent to the naive scatter.
template <typename ScaleFn>
inline void fused_inject(grid::Grid3<real_t>& u, const CompressedSparse& cs,
                         const DecomposedSource& dcmp, int t,
                         grid::Range xr, grid::Range yr, ScaleFn&& scale) {
  if (cs.empty()) return;
  long long updates = 0;
  for (int x = xr.lo; x < xr.hi; ++x) {
    for (int y = yr.lo; y < yr.hi; ++y) {
      for (const CompressedSparse::Entry& e : cs.entries(x, y)) {
        u(x, y, e.z) += dcmp.at(t, e.id) *
                        static_cast<real_t>(scale(x, y, e.z));
        ++updates;
      }
    }
  }
  TEMPEST_TRACE_COUNT(SourcesInjected, updates);
}

/// The *uncompressed* fused injection of Listing 4: the z2 loop runs over
/// the full z extent, guarded point-wise by the binary mask SM and
/// indirected through SID. Kept as the ablation of the compression step
/// (Listing 5 / Fig. 6): micro_injection measures how much the massively
/// sparse dense-scan costs relative to the packed nnz_mask/Sp_SID walk.
template <typename ScaleFn>
inline void fused_inject_dense(grid::Grid3<real_t>& u,
                               const SourceMasks& masks,
                               const DecomposedSource& dcmp, int t,
                               grid::Range xr, grid::Range yr,
                               ScaleFn&& scale) {
  const int nz = masks.extents().nz;
  long long updates = 0;
  for (int x = xr.lo; x < xr.hi; ++x) {
    for (int y = yr.lo; y < yr.hi; ++y) {
      for (int z = 0; z < nz; ++z) {
        if (masks.sm(x, y, z)) {
          u(x, y, z) += dcmp.at(t, masks.sid(x, y, z)) *
                        static_cast<real_t>(scale(x, y, z));
          ++updates;
        }
      }
    }
  }
  TEMPEST_TRACE_COUNT(SourcesInjected, updates);
}

/// Band-local staging buffer for the *deterministic* parallel gather.
/// samples(t, id) holds the wavefield value of affected grid point `id` at
/// timestep t of the current band. Every (t, id) cell is written by exactly
/// one tile — the one whose column set contains the point — so concurrent
/// tiles never touch the same cell and no atomics are needed; the ordered
/// reduction at the band barrier then folds the samples into the receiver
/// traces in ascending id order, the same order at every thread count.
class ReceiverStage {
 public:
  ReceiverStage() = default;
  ReceiverStage(int max_steps, int npts)
      : npts_(npts),
        samples_(static_cast<std::size_t>(max_steps) *
                 static_cast<std::size_t>(npts)) {}

  [[nodiscard]] bool empty() const { return samples_.empty(); }
  [[nodiscard]] int npts() const { return npts_; }

  /// Reposition the buffer over timesteps [t_lo, t_lo + max_steps). No
  /// zeroing: every in-band (t, id) cell is overwritten before it is read.
  void begin_band(int t_lo) { t_lo_ = t_lo; }

  [[nodiscard]] real_t* row(int t) {
    return samples_.data() +
           static_cast<std::size_t>(t - t_lo_) * static_cast<std::size_t>(npts_);
  }
  [[nodiscard]] const real_t* row(int t) const {
    return samples_.data() +
           static_cast<std::size_t>(t - t_lo_) * static_cast<std::size_t>(npts_);
  }

 private:
  int t_lo_ = 0;
  int npts_ = 0;
  util::aligned_vector<real_t> samples_;
};

/// Tile-side half of the deterministic gather: record the block's column
/// samples into the stage row of timestep t. Pure per-point stores — each
/// id belongs to exactly one (x, y, z) column, executed by exactly one tile.
inline void fused_sample(const grid::Grid3<real_t>& u,
                         const CompressedSparse& cs, real_t* samples,
                         grid::Range xr, grid::Range yr) {
  if (cs.empty()) return;
  for (int x = xr.lo; x < xr.hi; ++x) {
    for (int y = yr.lo; y < yr.hi; ++y) {
      for (const CompressedSparse::Entry& e : cs.entries(x, y)) {
        samples[e.id] = u(x, y, e.z);
      }
    }
  }
}

/// Barrier-side half: fold one staged timestep into the receiver trace in
/// ascending affected-point id order. Serial by design — this is what makes
/// parallel gathers bitwise equal to the single-thread reference (float
/// accumulation order is fixed, independent of tile interleaving).
inline void reduce_receiver_stage(const ReceiverStage& stage,
                                  const AffectedPoints& rec_points, int t,
                                  real_t* rec_step) {
  const real_t* samples = stage.row(t);
  long long applications = 0;
  for (int id = 0; id < stage.npts(); ++id) {
    const real_t value = samples[id];
    const int begin = rec_points.offsets[static_cast<std::size_t>(id)];
    const int end = rec_points.offsets[static_cast<std::size_t>(id) + 1];
    applications += end - begin;
    for (int k = begin; k < end; ++k) {
      const SiteWeight& pr = rec_points.pairs[static_cast<std::size_t>(k)];
      rec_step[pr.site] += pr.weight * value;
    }
  }
  TEMPEST_TRACE_COUNT(ReceiversInterpolated, applications);
}

}  // namespace tempest::core
