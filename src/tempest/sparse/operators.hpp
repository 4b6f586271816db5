#pragma once

#include "tempest/config.hpp"
#include "tempest/grid/grid3.hpp"
#include "tempest/sparse/interp.hpp"
#include "tempest/sparse/series.hpp"
#include "tempest/trace/trace.hpp"
#include "tempest/util/threads.hpp"

namespace tempest::sparse {

/// The *baseline* sparse operators of the paper's Listing 1: indirection
/// loops over off-the-grid point sets, run once per timestep after (or
/// before) the grid sweep. These are what space-blocked Devito code executes
/// and what the precompute pipeline in core/ replaces.

/// Scatter `src` amplitudes at timestep `t` into `u`:
///   u(p) += w_p * src[t][s] * scale(p)   for each support point p of s.
/// `scale` is the grid-point-local injection factor (e.g. dt^2/m(x,y,z) for
/// the acoustic equation); it must depend only on the target grid point so
/// the decomposed/fused variants remain exactly equivalent.
template <typename ScaleFn>
void inject(grid::Grid3<real_t>& u, const SparseTimeSeries& src, int t,
            InterpKind kind, ScaleFn&& scale) {
  long long updates = 0;
  for (int s = 0; s < src.npoints(); ++s) {
    const real_t amp = src.at(t, s);
    for (const SupportPoint& p : support(src.coord(s), kind, u.extents())) {
      u(p.x, p.y, p.z) += static_cast<real_t>(p.w) * amp *
                          static_cast<real_t>(scale(p.x, p.y, p.z));
      ++updates;
    }
  }
  TEMPEST_TRACE_COUNT(SourcesInjected, updates);
}

/// Gather field values at timestep `t` into the receiver series:
///   rec[t][r] = sum_p w_p * u(p).
void interpolate(const grid::Grid3<real_t>& u, SparseTimeSeries& rec, int t,
                 InterpKind kind);

/// Precomputed support cache: the support of each point in a series, used
/// where per-timestep recomputation of weights would dominate (the naive
/// baselines reuse it so baseline-vs-fused comparisons measure scheduling,
/// not coordinate arithmetic).
struct SupportCache {
  std::vector<std::vector<SupportPoint>> per_point;

  SupportCache() = default;
  SupportCache(const SparseTimeSeries& series, InterpKind kind,
               const grid::Extents3& extents);
};

/// inject() through a prebuilt cache.
template <typename ScaleFn>
void inject_cached(grid::Grid3<real_t>& u, const SparseTimeSeries& src, int t,
                   const SupportCache& cache, ScaleFn&& scale) {
  long long updates = 0;
  for (int s = 0; s < src.npoints(); ++s) {
    const real_t amp = src.at(t, s);
    for (const SupportPoint& p :
         cache.per_point[static_cast<std::size_t>(s)]) {
      u(p.x, p.y, p.z) += static_cast<real_t>(p.w) * amp *
                          static_cast<real_t>(scale(p.x, p.y, p.z));
      ++updates;
    }
  }
  TEMPEST_TRACE_COUNT(SourcesInjected, updates);
}

/// Conflict-free color sets over a series' injection sites. Two sites
/// conflict when their interpolation supports share a grid point — the
/// scatter race a site-parallel inject would hit (coincident sources, or
/// neighbours closer than the support width). The partition is *layered*:
/// a site's color is 1 + the highest color among earlier conflicting
/// sites. That gives two guarantees at once:
///   * no two same-color sites share a grid point (safe to scatter a layer
///     in parallel with no atomics), and
///   * for every grid point, the sites touching it carry strictly
///     ascending colors in site order — executing layers in ascending
///     order reproduces the serial per-point accumulation order exactly,
///     so parallel injection is bitwise equal to inject_cached, not merely
///     race-free. (A smallest-available greedy coloring would use fewer
///     colors but break this: float addition does not commute bitwise.)
struct ColorSets {
  std::vector<std::vector<int>> layers;  ///< site indices, by color

  ColorSets() = default;
  ColorSets(const SupportCache& cache, const grid::Extents3& extents);

  [[nodiscard]] int colors() const { return static_cast<int>(layers.size()); }
};

/// inject_cached() partitioned by color: layers run serially in ascending
/// color order, sites within a layer scatter concurrently under `threads`
/// workers. Bitwise equal to inject_cached at any thread count.
template <typename ScaleFn>
void inject_colored(grid::Grid3<real_t>& u, const SparseTimeSeries& src, int t,
                    const SupportCache& cache, const ColorSets& colors,
                    int threads, ScaleFn&& scale) {
  for (const std::vector<int>& layer : colors.layers) {
    util::parallel_for(
        static_cast<int>(layer.size()), threads, [&](int i) {
          const int s = layer[static_cast<std::size_t>(i)];
          const real_t amp = src.at(t, s);
          const auto& pts = cache.per_point[static_cast<std::size_t>(s)];
          for (const SupportPoint& p : pts) {
            u(p.x, p.y, p.z) += static_cast<real_t>(p.w) * amp *
                                static_cast<real_t>(scale(p.x, p.y, p.z));
          }
          TEMPEST_TRACE_COUNT(SourcesInjected, pts.size());
        });
  }
}

/// interpolate() through a prebuilt cache, the receiver loop run by
/// `threads` workers. Receivers are embarrassingly parallel (each writes
/// only its own trace sample) and each keeps interpolate()'s accumulation
/// order, so the result is bitwise equal to interpolate() at any thread
/// count.
void interpolate_cached(const grid::Grid3<real_t>& u, SparseTimeSeries& rec,
                        int t, const SupportCache& cache, int threads);

}  // namespace tempest::sparse
