#include "tempest/util/crc32.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define TEMPEST_CRC32_HAS_FOLD 1
#endif

namespace tempest::util::detail {

#ifdef TEMPEST_CRC32_HAS_FOLD

// The fold is compiled for PCLMULQDQ whatever the library's -march, and only
// runs once the CPU check passes: a portable build ships it and uses it
// wherever the instruction exists.
//
// Constants of Intel's "Fast CRC Computation for Generic Polynomials Using
// PCLMULQDQ Instruction" (2009) for the bit-reflected CRC-32 polynomial,
// each x^k mod P(x) reflected and shifted left by one bit.
namespace {

constexpr long long kFold4Lo = 0x154442bd4;  // x^(4*128+32): 64 bytes on
constexpr long long kFold4Hi = 0x1c6e41596;  // x^(4*128-32)
constexpr long long kFold1Lo = 0x1751997d0;  // x^(128+32): 16 bytes on
constexpr long long kFold1Hi = 0x0ccaa009e;  // x^(128-32)
constexpr long long kFold64 = 0x163cd6124;   // x^64
constexpr long long kPoly = 0x1db710641;     // P(x)
constexpr long long kMu = 0x1f7011641;       // floor(x^64 / P(x))

/// `acc` carried 16 (or, with the 4-lane constants, 64) bytes forward and
/// added to the block that sits there.
__attribute__((target("pclmul"))) inline __m128i fold(__m128i acc, __m128i k,
                                                       __m128i block) {
  const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), block);
}

__attribute__((target("pclmul"))) inline __m128i load(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

}  // namespace

bool crc32_fold_available() noexcept {
  static const bool available = __builtin_cpu_supports("pclmul");
  return available;
}

__attribute__((target("pclmul"))) std::uint32_t crc32_fold(
    std::uint32_t c, const unsigned char* p, std::size_t n) noexcept {
  // Four 16-byte lanes, each folded 64 bytes ahead per step. The running
  // state is added to the first four bytes, as slicing does.
  __m128i x0 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  p += 64;
  n -= 64;
  const __m128i k4 = _mm_set_epi64x(kFold4Hi, kFold4Lo);
  for (; n >= 64; n -= 64, p += 64) {
    x0 = fold(x0, k4, load(p));
    x1 = fold(x1, k4, load(p + 16));
    x2 = fold(x2, k4, load(p + 32));
    x3 = fold(x3, k4, load(p + 48));
  }

  // The four lanes into one, then the remaining 16-byte blocks.
  const __m128i k1 = _mm_set_epi64x(kFold1Hi, kFold1Lo);
  __m128i x = fold(fold(fold(x0, k1, x1), k1, x2), k1, x3);
  for (; n >= 16; n -= 16, p += 16) x = fold(x, k1, load(p));

  // 128 bits to 64, then 64 to 32 by Barrett reduction.
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(x, k1, 0x10));
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32),
                                         _mm_set_epi64x(0, kFold64), 0x00));
  const __m128i pmu = _mm_set_epi64x(kMu, kPoly);
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pmu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), pmu, 0x00);
  x = _mm_xor_si128(x, t);
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x, 4)));
}

#else

bool crc32_fold_available() noexcept { return false; }

std::uint32_t crc32_fold(std::uint32_t c, const unsigned char* p,
                         std::size_t n) noexcept {
  return crc32_slice16(c, p, n);
}

#endif

}  // namespace tempest::util::detail
