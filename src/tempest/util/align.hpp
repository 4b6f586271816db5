#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <vector>

namespace tempest::util {

/// Cache-line / SIMD-register friendly alignment for field storage.
/// 64 bytes covers one x86 cache line and an AVX-512 register.
inline constexpr std::size_t kAlignment = 64;

/// True when `p` starts a kAlignment boundary.
[[nodiscard]] inline bool is_aligned(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % kAlignment == 0;
}

/// Minimal C++17 aligned allocator so std::vector storage starts on a
/// 64-byte boundary. Field arrays use this to keep the contiguous z-loop
/// SIMD-friendly and to make the cache simulator's line arithmetic exact.
template <typename T, std::size_t Align = kAlignment>
class AlignedAllocator {
 public:
  using value_type = T;
  static constexpr std::align_val_t alignment{Align};

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T))
      throw std::bad_array_new_length();
    return static_cast<T*>(::operator new(n * sizeof(T), alignment));
  }

  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, alignment);
  }

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
};

template <typename T>
using aligned_vector = std::vector<T, AlignedAllocator<T>>;

}  // namespace tempest::util
