#include "tempest/sparse/operators.hpp"

#include <algorithm>
#include <atomic>
#include <unordered_map>

namespace tempest::sparse {

void interpolate(const grid::Grid3<real_t>& u, SparseTimeSeries& rec, int t,
                 InterpKind kind) {
  long long applications = 0;
  for (int r = 0; r < rec.npoints(); ++r) {
    double acc = 0.0;
    for (const SupportPoint& p : support(rec.coord(r), kind, u.extents())) {
      acc += p.w * static_cast<double>(u(p.x, p.y, p.z));
      ++applications;
    }
    rec.at(t, r) = static_cast<real_t>(acc);
  }
  TEMPEST_TRACE_COUNT(ReceiversInterpolated, applications);
}

SupportCache::SupportCache(const SparseTimeSeries& series, InterpKind kind,
                           const grid::Extents3& extents) {
  per_point.reserve(static_cast<std::size_t>(series.npoints()));
  for (int p = 0; p < series.npoints(); ++p) {
    per_point.push_back(support(series.coord(p), kind, extents));
  }
}

ColorSets::ColorSets(const SupportCache& cache, const grid::Extents3& extents) {
  // Layered coloring in site order: color(s) = 1 + max color among earlier
  // sites whose support shares a grid point with s (0 when unconflicted).
  // point_color maps a grid point (linear interior index) to 1 + the color
  // of the last site that touched it — sparse, so a hash map rather than a
  // dense volume.
  std::unordered_map<long long, int> point_color;
  point_color.reserve(cache.per_point.size() * 8);
  const long long ny = extents.ny;
  const long long nz = extents.nz;
  for (int s = 0; s < static_cast<int>(cache.per_point.size()); ++s) {
    int color = 0;
    for (const SupportPoint& p :
         cache.per_point[static_cast<std::size_t>(s)]) {
      const long long key = (static_cast<long long>(p.x) * ny + p.y) * nz + p.z;
      const auto it = point_color.find(key);
      if (it != point_color.end()) color = std::max(color, it->second);
    }
    for (const SupportPoint& p :
         cache.per_point[static_cast<std::size_t>(s)]) {
      const long long key = (static_cast<long long>(p.x) * ny + p.y) * nz + p.z;
      point_color[key] = color + 1;
    }
    if (color >= static_cast<int>(layers.size())) {
      layers.resize(static_cast<std::size_t>(color) + 1);
    }
    layers[static_cast<std::size_t>(color)].push_back(s);
  }
}

void interpolate_cached(const grid::Grid3<real_t>& u, SparseTimeSeries& rec,
                        int t, const SupportCache& cache, int threads) {
  const int n = rec.npoints();
  std::atomic<long long> applications{0};
  util::parallel_for(n, threads, [&](int r) {
    double acc = 0.0;
    long long local = 0;
    for (const SupportPoint& p :
         cache.per_point[static_cast<std::size_t>(r)]) {
      acc += p.w * static_cast<double>(u(p.x, p.y, p.z));
      ++local;
    }
    rec.at(t, r) = static_cast<real_t>(acc);
    applications.fetch_add(local, std::memory_order_relaxed);
  });
  TEMPEST_TRACE_COUNT(ReceiversInterpolated,
                      applications.load(std::memory_order_relaxed));
}

}  // namespace tempest::sparse
