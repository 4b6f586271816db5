#include "tempest/grid/grid3.hpp"

#include <sys/mman.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <fstream>
#include <limits>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#include "tempest/grid/blocks.hpp"
#include "tempest/grid/time_buffer.hpp"
#include "tempest/util/align.hpp"

namespace tempest::grid {

namespace {

constexpr std::align_val_t kHugePageAlign{kHugePageBytes};

/// A large block starts k * kStaggerStep bytes past a huge-page boundary,
/// k its allocation ordinal modulo kStaggers. 31 steps stay under 128 KiB,
/// the set period of a 2 MiB 16-way L2 (2048 sets of 64 B), and each step
/// moves the start one cache line further modulo 4 KiB, the period of a
/// 48 KiB 12-way L1: 32 consecutive grids start in distinct sets of both.
constexpr std::size_t kStaggerStep = 4096 + 64;
constexpr std::size_t kStaggers = 32;

std::atomic<std::size_t> g_large_allocations{0};

}  // namespace

// A large block is allocated from a huge-page boundary and returned
// staggered past it, so free_storage finds the allocation by rounding down.
// On huge pages the stagger is the only thing that spreads the grids over
// the caches: glibc places same-sized blocks at the same offset modulo
// 128 KiB, so without it the same point of every field falls in one L2 set
// (acoustic-wtb-large then ran at half its GPts/s). Only the whole huge
// pages inside [p, p + bytes) are advised, so the slack before p is never
// faulted in and the resident set does not grow. The storage stays on the
// heap, so sanitizer builds keep their own allocators; under ASan the slack
// is poisoned, so an underrun of the first element is still reported.
void* allocate_storage(std::size_t bytes) {
  if (bytes < kHugePageBytes) {
    return ::operator new(bytes, std::align_val_t{util::kAlignment});
  }
  const std::size_t k =
      g_large_allocations.fetch_add(1, std::memory_order_relaxed) % kStaggers;
  const std::size_t shift = k * kStaggerStep;
  if (bytes > std::numeric_limits<std::size_t>::max() - shift) {
    throw std::bad_alloc();
  }
  char* const base =
      static_cast<char*>(::operator new(shift + bytes, kHugePageAlign));
  char* const p = base + shift;
#if defined(MADV_HUGEPAGE)
  const std::uintptr_t first =
      (reinterpret_cast<std::uintptr_t>(p) + kHugePageBytes - 1) /
      kHugePageBytes * kHugePageBytes;
  const std::uintptr_t last =
      (reinterpret_cast<std::uintptr_t>(p) + bytes) / kHugePageBytes *
      kHugePageBytes;
  if (first < last) {
    // Advice only: a kernel without transparent huge pages refuses it, and
    // the storage is then plain 4 KiB pages.
    (void)::madvise(reinterpret_cast<void*>(first), last - first,
                    MADV_HUGEPAGE);
  }
#endif
#if defined(__SANITIZE_ADDRESS__)
  ASAN_POISON_MEMORY_REGION(base, shift);
#endif
  return p;
}

void free_storage(void* p, std::size_t bytes) noexcept {
  if (bytes < kHugePageBytes) {
    ::operator delete(p, std::align_val_t{util::kAlignment});
    return;
  }
  char* const base = static_cast<char*>(p) -
                     reinterpret_cast<std::uintptr_t>(p) % kHugePageBytes;
#if defined(__SANITIZE_ADDRESS__)
  ASAN_UNPOISON_MEMORY_REGION(base, static_cast<char*>(p) - base);
#endif
  ::operator delete(base, kHugePageAlign);
}

std::string huge_page_mode() {
  std::ifstream enabled("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string line;
  std::getline(enabled, line);
  const std::size_t open = line.find('[');
  const std::size_t close = line.find(']', open);
  if (open == std::string::npos || close == std::string::npos) {
    return "unavailable";
  }
  return line.substr(open + 1, close - open - 1);
}

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
