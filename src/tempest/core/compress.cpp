#include "tempest/core/compress.hpp"

#include <algorithm>
#include <utility>

#include "tempest/trace/trace.hpp"
#include "tempest/util/error.hpp"

namespace tempest::core {

CompressedSparse::CompressedSparse(const grid::Grid3<unsigned char>& mask,
                                   const grid::Grid3<int>& ids) {
  TEMPEST_TRACE_SPAN("precompute.compress", "precompute");
  TEMPEST_REQUIRE(mask.extents() == ids.extents());
  const auto& e = mask.extents();
  nx_ = e.nx;
  ny_ = e.ny;

  offsets_.assign(static_cast<std::size_t>(nx_) * ny_ + 1, 0);

  // First pass: per-column counts (the nnz_mask of Fig. 6).
  for (int x = 0; x < e.nx; ++x) {
    for (int y = 0; y < e.ny; ++y) {
      int count = 0;
      for (int z = 0; z < e.nz; ++z) {
        if (mask(x, y, z)) ++count;
      }
      offsets_[column(x, y) + 1] = count;
      max_nnz_ = std::max(max_nnz_, count);
    }
  }
  for (std::size_t c = 1; c < offsets_.size(); ++c) {
    offsets_[c] += offsets_[c - 1];
  }

  // Second pass: packed (z, id) entries, z ascending within a column.
  data_.resize(static_cast<std::size_t>(offsets_.back()));
  for (int x = 0; x < e.nx; ++x) {
    for (int y = 0; y < e.ny; ++y) {
      std::size_t w = static_cast<std::size_t>(offsets_[column(x, y)]);
      for (int z = 0; z < e.nz; ++z) {
        if (!mask(x, y, z)) continue;
        const int id = ids(x, y, z);
        TEMPEST_REQUIRE_MSG(id >= 0, "masked point has no id");
        data_[w++] = Entry{z, id};
      }
    }
  }
}

CompressedSparse::CompressedSparse(int nx, int ny, std::vector<int> offsets,
                                   std::vector<Entry> entries)
    : nx_(nx),
      ny_(ny),
      offsets_(std::move(offsets)),
      data_(std::move(entries)) {
  TEMPEST_REQUIRE(offsets_.size() ==
                  static_cast<std::size_t>(nx_) * ny_ + 1);
  TEMPEST_REQUIRE(offsets_.front() == 0 &&
                  offsets_.back() == static_cast<int>(data_.size()));
  for (std::size_t c = 0; c + 1 < offsets_.size(); ++c) {
    max_nnz_ = std::max(max_nnz_, offsets_[c + 1] - offsets_[c]);
  }
}

}  // namespace tempest::core
