#include "tempest/grid/grid3.hpp"

#include <bit>
#include <cstdint>
#include <limits>

#include "tempest/grid/blocks.hpp"
#include "tempest/grid/time_buffer.hpp"

namespace tempest::grid {

template <typename T>
double max_abs(const Grid3<T>& g, int threads) {
  static_assert(std::is_floating_point_v<T>);
  // |v| of a float is its bit pattern with the sign cleared, and those
  // patterns order like the magnitudes they encode, +Inf below every NaN:
  // one vector max of integers per row, with NaN patterns dropped.
  using Bits = std::conditional_t<sizeof(T) == 4, std::uint32_t, std::uint64_t>;
  static_assert(sizeof(Bits) == sizeof(T));
  constexpr Bits kMagnitude = std::numeric_limits<Bits>::max() >> 1;
  constexpr Bits kInf = std::bit_cast<Bits>(std::numeric_limits<T>::infinity());
  const Extents3& e = g.extents();
  std::vector<Bits> chunk_max(static_cast<std::size_t>(g.chunks()), 0);
  util::parallel_for(g.chunks(), threads, [&](int c) {
    const Range xs = intersect(g.chunk(c), Range{0, e.nx});
    Bits m = 0;
    for (int x = xs.lo; x < xs.hi; ++x) {
      for (int y = 0; y < e.ny; ++y) {
        const T* row = &g(x, y, 0);
#pragma omp simd reduction(max : m)
        for (int z = 0; z < e.nz; ++z) {
          const Bits b = std::bit_cast<Bits>(row[z]) & kMagnitude;
          m = std::max(m, b > kInf ? Bits{0} : b);
        }
      }
    }
    chunk_max[static_cast<std::size_t>(c)] = m;
  });
  Bits m = 0;
  for (const Bits b : chunk_max) m = std::max(m, b);
  return static_cast<double>(std::bit_cast<T>(m));
}

// Explicit instantiations for the field types used across the library keep
// per-TU compile times down and catch template errors in one place.
template class Grid3<float>;
template class Grid3<double>;
template class Grid3<int>;
template class Grid3<unsigned char>;

template class TimeBuffer<float>;
template class TimeBuffer<double>;

template double max_abs_diff<float>(const Grid3<float>&, const Grid3<float>&);
template double max_abs_diff<double>(const Grid3<double>&,
                                     const Grid3<double>&);
template double max_abs<float>(const Grid3<float>&, int);
template double max_abs<double>(const Grid3<double>&, int);

}  // namespace tempest::grid
