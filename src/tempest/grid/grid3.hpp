#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <new>
#include <string>
#include <type_traits>
#include <vector>

#include "tempest/grid/extents.hpp"
#include "tempest/util/error.hpp"
#include "tempest/util/threads.hpp"

namespace tempest::grid {

/// Storage bytes one chunk of a whole-grid pass covers (first touch, fill,
/// max_abs, the model builders): enough that a chunk's stores and page
/// faults dwarf the cost of handing it out, few enough that a grid of one
/// chunk runs on the caller and wakes no worker.
inline constexpr std::size_t kChunkBytes = std::size_t{2} << 20;

/// A huge page: storage of this many bytes or more starts staggered and is
/// advised onto transparent huge pages (allocate_storage).
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// `bytes` of grid storage, not written, 64-byte aligned. A block of
/// kHugePageBytes or more starts at a per-allocation offset from a huge-page
/// boundary, and the whole huge pages inside it are advised MADV_HUGEPAGE
/// (grid3.cpp). Throws std::bad_alloc.
[[nodiscard]] void* allocate_storage(std::size_t bytes);
/// Frees a block allocate_storage(bytes) returned.
void free_storage(void* p, std::size_t bytes) noexcept;

/// The host's transparent-huge-page mode, which decides what the advice
/// does: the bracketed word of /sys/kernel/mm/transparent_hugepage/enabled
/// ("always", "madvise" or "never"), or "unavailable" when it cannot be read.
[[nodiscard]] std::string huge_page_mode();

/// The allocator of every Grid3: allocate_storage, and a value-less
/// construct() that default-initialises, so a vector of a trivial T
/// allocates without writing: Grid3 touches its storage first in a parallel
/// pass, on the threads that will stream it. Constructions with arguments
/// (copies) take allocator_traits' default.
template <typename T>
struct UninitAllocator {
  using value_type = T;

  UninitAllocator() noexcept = default;
  template <typename U>
  UninitAllocator(const UninitAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T))
      throw std::bad_array_new_length();
    return static_cast<T*>(allocate_storage(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    free_storage(p, n * sizeof(T));
  }

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }

  friend bool operator==(const UninitAllocator&, const UninitAllocator&) {
    return true;
  }
};

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

  /// Every padded element, halo included, set to `init` by fill(init,
  /// threads): the storage's first touch runs on the threads that fill it.
  Grid3(Extents3 extents, int halo, T init = T{}, int threads = 1)
      : Grid3(extents, halo, Unwritten{}) {
    fill(init, threads);
  }

  /// Storage allocated but not written, so no page is touched yet. The
  /// caller writes every padded element, halo included, before anything
  /// reads one (the model builders' single pass).
  [[nodiscard]] static Grid3 uninitialized(Extents3 extents, int halo) {
    return Grid3(extents, halo, Unwritten{});
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

  /// Whole-grid passes split the padded x-planes into chunks of about
  /// kChunkBytes (at least one plane each); chunk(c) is chunk c's planes,
  /// in padded coordinates [-halo, nx + halo).
  [[nodiscard]] int chunks() const {
    const int planes = extents_.nx + 2 * halo_;
    return data_.empty() ? 0 : (planes + chunk_planes() - 1) / chunk_planes();
  }
  [[nodiscard]] Range chunk(int c) const {
    const int lo = -halo_ + c * chunk_planes();
    return {lo, std::min(lo + chunk_planes(), extents_.nx + halo_)};
  }

  /// Every padded element set to `value`, chunk by chunk on `threads`
  /// workers (util::parallel_for; 1 runs on the caller).
  void fill(T value, int threads = 1) {
    util::parallel_for(chunks(), threads, [&](int c) {
      const Range xs = chunk(c);
      std::fill(data_.data() + (xs.lo + halo_) * stride_x_,
                data_.data() + (xs.hi + halo_) * stride_x_, value);
    });
  }

  /// fn(x, y) for every padded row (x, y) in [-halo, nx + halo) x
  /// [-halo, ny + halo), x-plane chunk by chunk on `threads` workers: one
  /// pass that writes a row of several same-shaped grids at a time.
  template <typename Fn>
  void for_each_padded_row(int threads, Fn&& fn) const {
    util::parallel_for(chunks(), threads, [&](int c) {
      const Range xs = chunk(c);
      for (int x = xs.lo; x < xs.hi; ++x)
        for (int y = -halo_; y < extents_.ny + halo_; ++y) fn(x, y);
    });
  }

  /// Interior iteration helper: fn(x, y, z) over the whole interior.
  template <typename Fn>
  void for_each_interior(Fn&& fn) const {
    for (int x = 0; x < extents_.nx; ++x)
      for (int y = 0; y < extents_.ny; ++y)
        for (int z = 0; z < extents_.nz; ++z) fn(x, y, z);
  }

 private:
  struct Unwritten {};

  Grid3(Extents3 extents, int halo, Unwritten)
      : extents_(extents), halo_(halo), data_(checked_size(extents, halo)) {
    // Only a shape checked_size() accepted reaches here, so the strides
    // cannot overflow.
    stride_z_ = 1;
    stride_y_ = static_cast<std::ptrdiff_t>(extents.nz) + 2 * halo;
    stride_x_ =
        stride_y_ * (static_cast<std::ptrdiff_t>(extents.ny) + 2 * halo);
  }

  /// Padded element count of a valid shape. Throws PreconditionError, before
  /// anything is allocated, for a non-positive extent, a negative halo or a
  /// padded size whose bytes do not fit in size_t.
  static std::size_t checked_size(const Extents3& e, int halo) {
    TEMPEST_REQUIRE(e.nx > 0 && e.ny > 0 && e.nz > 0);
    TEMPEST_REQUIRE(halo >= 0);
    std::size_t bytes = sizeof(T);
    for (const int n : {e.nx, e.ny, e.nz}) {
      const std::size_t padded =
          static_cast<std::size_t>(n) + 2 * static_cast<std::size_t>(halo);
      TEMPEST_REQUIRE_MSG(!__builtin_mul_overflow(bytes, padded, &bytes),
                          "grid storage overflows size_t");
    }
    return bytes / sizeof(T);
  }

  [[nodiscard]] int chunk_planes() const {
    const std::size_t plane = static_cast<std::size_t>(stride_x_) * sizeof(T);
    return static_cast<int>(std::max<std::size_t>(1, kChunkBytes / plane));
  }

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
  std::vector<T, UninitAllocator<T>> data_;
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

/// Max absolute interior value (stability checks: finite & bounded fields);
/// NaN is skipped and the halo is not read. One pass, chunk by chunk on
/// `threads` workers: a max is exact, so every thread count returns the
/// same value. Instantiated for float and double.
template <typename T>
double max_abs(const Grid3<T>& g, int threads = 1);

}  // namespace tempest::grid
