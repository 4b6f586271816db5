#pragma once

#include <span>
#include <vector>

#include "tempest/grid/grid3.hpp"

namespace tempest::core {

/// Step 5 of the paper (Listing 5, Fig. 6): the dense SM/SID volumes are
/// massively sparse, so the fused z2 loop would mostly multiply by zero.
/// We aggregate non-zeros along z into a per-(x,y)-column structure:
///   nnz(x,y)            — the paper's nnz_mask
///   entries of a column — packed (z index, id) pairs, the paper's Sp_SID
/// stored CSR so each column's work is a contiguous, cache-friendly walk.
class CompressedSparse {
 public:
  struct Entry {
    int z = 0;
    int id = 0;
  };

  CompressedSparse() = default;

  /// The paper-literal Listing 5 reference: scan a binary mask and an id
  /// volume (sid < 0 where mask == 0) column by column. The engine builds
  /// its columns without the volumes (core::build_affected_points).
  CompressedSparse(const grid::Grid3<unsigned char>& mask,
                   const grid::Grid3<int>& ids);

  /// Adopt columns built elsewhere: `offsets` holds nx*ny + 1 ascending CSR
  /// offsets into `entries`, whose entries are z-ascending per column.
  CompressedSparse(int nx, int ny, std::vector<int> offsets,
                   std::vector<Entry> entries);

  [[nodiscard]] int nx() const { return nx_; }
  [[nodiscard]] int ny() const { return ny_; }

  /// The paper's nnz_mask[x][y].
  [[nodiscard]] int nnz(int x, int y) const {
    return offsets_[column(x, y) + 1] - offsets_[column(x, y)];
  }

  /// Packed entries of column (x,y).
  [[nodiscard]] std::span<const Entry> entries(int x, int y) const {
    const std::size_t c = column(x, y);
    return {data_.data() + offsets_[c],
            static_cast<std::size_t>(offsets_[c + 1] - offsets_[c])};
  }

  /// Total packed entries (== npts when every affected point is unique).
  [[nodiscard]] int total_entries() const {
    return static_cast<int>(data_.size());
  }

  /// Largest per-column count; the paper reports the z iteration-space
  /// reduction from nz to this bound.
  [[nodiscard]] int max_nnz() const { return max_nnz_; }

  /// True if no column has any entry (e.g. zero sources).
  [[nodiscard]] bool empty() const { return data_.empty(); }

 private:
  [[nodiscard]] std::size_t column(int x, int y) const {
    return static_cast<std::size_t>(x) * static_cast<std::size_t>(ny_) +
           static_cast<std::size_t>(y);
  }

  int nx_ = 0;
  int ny_ = 0;
  int max_nnz_ = 0;
  std::vector<int> offsets_;  ///< nx*ny + 1 CSR offsets
  std::vector<Entry> data_;
};

}  // namespace tempest::core
