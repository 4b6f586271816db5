#include "tempest/physics/damping.hpp"

#include <algorithm>
#include <utility>

#include "tempest/util/threads.hpp"

namespace tempest::physics {

std::vector<real_t> damping_ramp(const Geometry& g, double vp_ref,
                                 double r0) {
  return sponge_ramp(g, vp_ref, r0, [](double d0, double frac) {
    return d0 * frac * frac;
  });
}

grid::Grid3<real_t> make_damping(const Geometry& g, double vp_ref,
                                 double r0) {
  return make_sponge(g, damping_ramp(g, vp_ref, r0));
}

SpongeRows::SpongeRows(const Geometry& g, std::vector<real_t> ramp)
    : e_(g.extents), halo_(g.radius()), ramp_(std::move(ramp)) {
  TEMPEST_REQUIRE(ramp_.size() == static_cast<std::size_t>(g.nbl));
  TEMPEST_REQUIRE(e_.nz > 0 && halo_ >= 0);
  core_.assign(static_cast<std::size_t>(e_.nz + 2 * halo_), real_t{0});
  for (int z = 0; z < e_.nz; ++z) {
    const int d = std::min(z, e_.nz - 1 - z);
    if (d < g.nbl) core_[static_cast<std::size_t>(halo_ + z)] = ramp_[d];
  }
}

void SpongeRows::write(grid::Grid3<real_t>& out, int x, int y) const {
  real_t* row = &out(x, y, -halo_);
  if (x < 0 || x >= e_.nx || y < 0 || y >= e_.ny) {
    std::fill(row, row + core_.size(), real_t{0});
    return;
  }
  const int dxy = std::min({x, e_.nx - 1 - x, y, e_.ny - 1 - y});
  if (dxy >= static_cast<int>(ramp_.size())) {
    std::copy(core_.begin(), core_.end(), row);
    return;
  }
  // A shell row: each of its points is within dxy < nbl of a face.
  std::fill(row, row + halo_, real_t{0});
  for (int z = 0; z < e_.nz; ++z) {
    row[halo_ + z] = ramp_[std::min({dxy, z, e_.nz - 1 - z})];
  }
  std::fill(row + halo_ + e_.nz, row + core_.size(), real_t{0});
}

grid::Grid3<real_t> make_sponge(const Geometry& g, std::vector<real_t> ramp) {
  auto out = grid::Grid3<real_t>::uninitialized(g.extents, g.radius());
  const SpongeRows rows(g, std::move(ramp));
  out.for_each_padded_row(util::resolve_threads(),
                          [&](int x, int y) { rows.write(out, x, y); });
  return out;
}

}  // namespace tempest::physics
