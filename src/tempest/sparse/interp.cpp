#include "tempest/sparse/interp.hpp"

#include <cmath>
#include <numbers>

#include "tempest/util/error.hpp"

namespace tempest::sparse {

namespace {

/// 1-D weights of a scheme at fractional position `frac` in [0,1) relative
/// to base index `base`; returns (index, weight) pairs.
struct Weight1D {
  int index;
  double w;
};

void trilinear_1d(int base, double frac, std::vector<Weight1D>& out) {
  out.push_back({base, 1.0 - frac});
  if (frac != 0.0) out.push_back({base + 1, frac});
}

void windowed_sinc_1d(int base, double frac, std::vector<Weight1D>& out) {
  // Samples at base-1 .. base+2 (4 per dim). Hann-windowed sinc of radius 2,
  // renormalized to partition of unity so constants interpolate exactly.
  if (frac == 0.0) {  // on-grid: exact
    out.push_back({base, 1.0});
    return;
  }
  constexpr int kRadius = 2;
  double weights[2 * kRadius];
  double sum = 0.0;
  for (int i = 0; i < 2 * kRadius; ++i) {
    const double d = frac - static_cast<double>(i - kRadius + 1);
    const double pd = std::numbers::pi * d;
    const double sinc = std::sin(pd) / pd;
    const double hann =
        0.5 * (1.0 + std::cos(std::numbers::pi * d / (kRadius + 0.5)));
    weights[i] = sinc * hann;
    sum += weights[i];
  }
  for (int i = 0; i < 2 * kRadius; ++i) {
    out.push_back({base + i - kRadius + 1, weights[i] / sum});
  }
}

}  // namespace

/// Coordinates stay well inside the int range so base - 1 .. base + 2
/// never overflow.
constexpr double kMaxCoordinate = 1 << 30;

int support_width(InterpKind kind) {
  return kind == InterpKind::Trilinear ? 2 : 4;
}

std::vector<SupportPoint> support(const Coord3& c, InterpKind kind,
                                  const grid::Extents3& extents) {
  const double coords[3] = {c.x, c.y, c.z};
  std::vector<Weight1D> per_dim[3];
  for (int d = 0; d < 3; ++d) {
    // The base index and its neighbours must be ints: casting the floor of
    // a NaN, an infinity or a coordinate beyond the int range is undefined.
    TEMPEST_REQUIRE_MSG(std::isfinite(coords[d]) &&
                            std::abs(coords[d]) < kMaxCoordinate,
                        "interpolation coordinate is not finite or lies "
                        "beyond +-2^30 grid spacings");
    const double fl = std::floor(coords[d]);
    const int base = static_cast<int>(fl);
    const double frac = coords[d] - fl;
    if (kind == InterpKind::Trilinear) {
      trilinear_1d(base, frac, per_dim[d]);
    } else {
      windowed_sinc_1d(base, frac, per_dim[d]);
    }
  }

  std::vector<SupportPoint> out;
  out.reserve(per_dim[0].size() * per_dim[1].size() * per_dim[2].size());
  for (const auto& wx : per_dim[0]) {
    if (wx.index < 0 || wx.index >= extents.nx) continue;
    for (const auto& wy : per_dim[1]) {
      if (wy.index < 0 || wy.index >= extents.ny) continue;
      for (const auto& wz : per_dim[2]) {
        if (wz.index < 0 || wz.index >= extents.nz) continue;
        const double w = wx.w * wy.w * wz.w;
        if (w == 0.0) continue;
        out.push_back({wx.index, wy.index, wz.index, w});
      }
    }
  }
  return out;
}

}  // namespace tempest::sparse
