#pragma once

#include <algorithm>
#include <cstddef>

#include "tempest/grid/extents.hpp"
#include "tempest/util/align.hpp"
#include "tempest/util/error.hpp"

namespace tempest::grid {

/// Dense 3-D field with a uniform halo on every side.
///
/// Storage is z-contiguous (x slowest, z fastest) and 64-byte aligned so the
/// innermost stencil loop vectorizes. Interior coordinates run over
/// [0, nx) x [0, ny) x [0, nz); halo points are addressed with coordinates in
/// [-halo, extent + halo). Halo points are plain storage — the wave
/// propagators use them as zero-padded Dirichlet boundaries: no update
/// writes the halo, so it keeps the zeros it was filled with.
template <typename T>
class Grid3 {
 public:
  Grid3() = default;

  Grid3(Extents3 extents, int halo, T init = T{})
      : extents_(extents),
        halo_(halo),
        stride_z_(1),
        stride_y_(static_cast<std::ptrdiff_t>(extents.nz + 2 * halo)),
        stride_x_(stride_y_ *
                  static_cast<std::ptrdiff_t>(extents.ny + 2 * halo)),
        data_(static_cast<std::size_t>(extents.nx + 2 * halo) *
                  static_cast<std::size_t>(extents.ny + 2 * halo) *
                  static_cast<std::size_t>(extents.nz + 2 * halo),
              init) {
    TEMPEST_REQUIRE(extents.nx > 0 && extents.ny > 0 && extents.nz > 0);
    TEMPEST_REQUIRE(halo >= 0);
  }

  [[nodiscard]] const Extents3& extents() const { return extents_; }
  [[nodiscard]] int halo() const { return halo_; }
  [[nodiscard]] std::size_t padded_size() const { return data_.size(); }

  /// Linear offset of interior point (x,y,z) into data(); valid for halo
  /// coordinates too.
  [[nodiscard]] std::ptrdiff_t offset(int x, int y, int z) const {
    return (x + halo_) * stride_x_ + (y + halo_) * stride_y_ + (z + halo_);
  }

  [[nodiscard]] T& operator()(int x, int y, int z) {
    return data_[static_cast<std::size_t>(offset(x, y, z))];
  }
  [[nodiscard]] const T& operator()(int x, int y, int z) const {
    return data_[static_cast<std::size_t>(offset(x, y, z))];
  }

  /// Bounds-checked access (checks the *padded* domain, halo included).
  [[nodiscard]] T& at(int x, int y, int z) {
    check(x, y, z);
    return (*this)(x, y, z);
  }
  [[nodiscard]] const T& at(int x, int y, int z) const {
    check(x, y, z);
    return (*this)(x, y, z);
  }

  /// Raw pointer to the interior origin (0,0,0); hot kernels walk this with
  /// stride_x()/stride_y().
  [[nodiscard]] T* origin() {
    return data_.data() + offset(0, 0, 0);
  }
  [[nodiscard]] const T* origin() const {
    return data_.data() + offset(0, 0, 0);
  }

  [[nodiscard]] T* raw() { return data_.data(); }
  [[nodiscard]] const T* raw() const { return data_.data(); }

  [[nodiscard]] std::ptrdiff_t stride_x() const { return stride_x_; }
  [[nodiscard]] std::ptrdiff_t stride_y() const { return stride_y_; }
  [[nodiscard]] std::ptrdiff_t stride_z() const { return stride_z_; }

  void fill(T value) { std::fill(data_.begin(), data_.end(), value); }

  /// Interior iteration helper: fn(x, y, z) over the whole interior.
  template <typename Fn>
  void for_each_interior(Fn&& fn) const {
    for (int x = 0; x < extents_.nx; ++x)
      for (int y = 0; y < extents_.ny; ++y)
        for (int z = 0; z < extents_.nz; ++z) fn(x, y, z);
  }

 private:
  void check(int x, int y, int z) const {
    TEMPEST_REQUIRE_MSG(x >= -halo_ && x < extents_.nx + halo_ &&
                            y >= -halo_ && y < extents_.ny + halo_ &&
                            z >= -halo_ && z < extents_.nz + halo_,
                        "grid access out of padded bounds");
  }

  Extents3 extents_{};
  int halo_ = 0;
  std::ptrdiff_t stride_z_ = 0;
  std::ptrdiff_t stride_y_ = 0;
  std::ptrdiff_t stride_x_ = 0;
  util::aligned_vector<T> data_;
};

/// Max absolute difference over the interiors of two same-shaped grids.
template <typename T>
double max_abs_diff(const Grid3<T>& a, const Grid3<T>& b) {
  TEMPEST_REQUIRE(a.extents() == b.extents());
  double m = 0.0;
  a.for_each_interior([&](int x, int y, int z) {
    const double d = std::abs(static_cast<double>(a(x, y, z)) -
                              static_cast<double>(b(x, y, z)));
    if (d > m) m = d;
  });
  return m;
}

/// Max absolute interior value (stability checks: finite & bounded fields).
template <typename T>
double max_abs(const Grid3<T>& g) {
  double m = 0.0;
  g.for_each_interior([&](int x, int y, int z) {
    const double d = std::abs(static_cast<double>(g(x, y, z)));
    if (d > m) m = d;
  });
  return m;
}

}  // namespace tempest::grid
