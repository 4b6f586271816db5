#include "tempest/cachesim/instrumented_acoustic.hpp"

#include <vector>

#include "tempest/core/tile_plan.hpp"
#include "tempest/physics/acoustic.hpp"
#include "tempest/stencil/coefficients.hpp"
#include "tempest/util/error.hpp"

namespace tempest::cachesim {

namespace {

/// Virtual layout of one padded field, mirroring grid::Grid3<float>.
struct VirtualField {
  std::uint64_t base = 0;    ///< byte address of interior origin
  std::int64_t sx = 0;       ///< strides in elements
  std::int64_t sy = 0;

  [[nodiscard]] std::uint64_t at(int x, int y, int z) const {
    return base + 4ull * static_cast<std::uint64_t>(
                             static_cast<std::int64_t>(x) * sx +
                             static_cast<std::int64_t>(y) * sy + z);
  }
};

}  // namespace

long long replay_acoustic_trace(const TraceConfig& cfg,
                                CacheHierarchy& hierarchy) {
  TEMPEST_REQUIRE(cfg.space_order >= 2 && cfg.space_order % 2 == 0);
  TEMPEST_REQUIRE(cfg.tiles.valid());
  const int r = stencil::radius_for_order(cfg.space_order);
  const auto& e = cfg.extents;

  // Lay the fields (the kernel's u slots, m, damp) out back to back with a
  // page gap, exactly like separate 64-byte-aligned allocations.
  const std::int64_t sy = e.nz + 2 * r;
  const std::int64_t sx = sy * (e.ny + 2 * r);
  const std::uint64_t field_bytes =
      4ull * static_cast<std::uint64_t>(sx) *
      static_cast<std::uint64_t>(e.nx + 2 * r);
  const std::uint64_t stride_between = (field_bytes + 4096) & ~4095ull;

  auto make_field = [&](int index) {
    VirtualField f;
    f.base = 0x10000 + index * stride_between +
             4ull * static_cast<std::uint64_t>(r * sx + r * sy + r);
    f.sx = sx;
    f.sy = sy;
    return f;
  };
  const int slots = physics::acoustic_access_summary(cfg.space_order).depth();
  std::vector<VirtualField> u;
  for (int s = 0; s < slots; ++s) u.push_back(make_field(s));
  const VirtualField m = make_field(slots);
  const VirtualField damp = make_field(slots + 1);

  long long updates = 0;
  auto block_trace = [&](int t, const grid::Box3& b) {
    const auto slot = [&](int k) {
      return u[static_cast<std::size_t>(k % slots)];
    };
    const VirtualField un = slot(t + 1);
    const VirtualField uc = slot(t);
    const VirtualField up = slot(t + slots - 1);  // (t-1) mod slots
    for (int x = b.x.lo; x < b.x.hi; ++x) {
      for (int y = b.y.lo; y < b.y.hi; ++y) {
        for (int z = b.z.lo; z < b.z.hi; ++z) {
          // Laplacian gather on u(t): centre + 2r neighbours per dimension.
          hierarchy.load(uc.at(x, y, z));
          for (int k = 1; k <= r; ++k) {
            hierarchy.load(uc.at(x, y, z - k));
            hierarchy.load(uc.at(x, y, z + k));
            hierarchy.load(uc.at(x, y - k, z));
            hierarchy.load(uc.at(x, y + k, z));
            hierarchy.load(uc.at(x - k, y, z));
            hierarchy.load(uc.at(x + k, y, z));
          }
          // u[t-1], then m and damp, then u[t+1]: with two slots the
          // store hits the line the load just brought in.
          hierarchy.load(up.at(x, y, z));
          hierarchy.load(m.at(x, y, z));
          hierarchy.load(damp.at(x, y, z));
          hierarchy.store(un.at(x, y, z));
          ++updates;
        }
      }
    }
  };

  // Serial replay of the schedule's tile plan: the simulated hierarchy
  // models one core's caches, so the trace must arrive in the deterministic
  // single-thread order.
  core::execute(cfg.wavefront
                    ? core::TilePlan::wavefront(e, cfg.t_begin, cfg.t_end, r,
                                                cfg.tiles)
                    : core::TilePlan::space_blocked(e, cfg.t_begin, cfg.t_end,
                                                    cfg.tiles),
                1, block_trace);
  return updates;
}

}  // namespace tempest::cachesim
