#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace tempest::util {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the one checksum
/// behind every CRC-framed format: TPCK checkpoints, the TPJL journal and
/// TFBR black boxes. Slicing-by-16: sixteen compile-time tables let one
/// step fold sixteen input bytes, so a checkpoint is checksummed at close
/// to memory speed. Bytes are assembled explicitly, so the values do not
/// depend on host byte order or alignment. The streaming Crc32 accumulator
/// lets writers checksum a file as they emit it without a second pass.
namespace detail {

inline constexpr int kCrc32Slices = 16;

constexpr std::array<std::array<std::uint32_t, 256>, kCrc32Slices>
make_crc32_tables() {
  std::array<std::array<std::uint32_t, 256>, kCrc32Slices> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  // t[k][i] is t[0][i] advanced through k further zero bytes.
  for (int k = 1; k < kCrc32Slices; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = t[k - 1][i];
      t[k][i] = (prev >> 8) ^ t[0][prev & 0xFFu];
    }
  }
  return t;
}

inline constexpr auto kCrc32Tables = make_crc32_tables();

}  // namespace detail

class Crc32 {
 public:
  void update(const void* data, std::size_t n) {
    const auto& t = detail::kCrc32Tables;
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint32_t c = state_;
    for (; n >= 16; n -= 16, p += 16) {
      const std::uint32_t w = c ^ (std::uint32_t{p[0]} |
                                   std::uint32_t{p[1]} << 8 |
                                   std::uint32_t{p[2]} << 16 |
                                   std::uint32_t{p[3]} << 24);
      c = t[15][w & 0xFFu] ^ t[14][(w >> 8) & 0xFFu] ^
          t[13][(w >> 16) & 0xFFu] ^ t[12][w >> 24] ^ t[11][p[4]] ^
          t[10][p[5]] ^ t[9][p[6]] ^ t[8][p[7]] ^ t[7][p[8]] ^ t[6][p[9]] ^
          t[5][p[10]] ^ t[4][p[11]] ^ t[3][p[12]] ^ t[2][p[13]] ^
          t[1][p[14]] ^ t[0][p[15]];
    }
    for (; n > 0; --n, ++p) {  // the < 16-byte tail
      c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
    }
    state_ = c;
  }

  [[nodiscard]] std::uint32_t value() const { return state_ ^ 0xFFFFFFFFu; }

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

[[nodiscard]] inline std::uint32_t crc32(const void* data, std::size_t n) {
  Crc32 c;
  c.update(data, n);
  return c.value();
}

}  // namespace tempest::util
