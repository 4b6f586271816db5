#include "tempest/core/precompute.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "tempest/trace/trace.hpp"
#include "tempest/util/error.hpp"

namespace tempest::core {

SourceMasks build_source_masks(const grid::Extents3& extents,
                               const sparse::SparseTimeSeries& src,
                               sparse::InterpKind kind) {
  TEMPEST_TRACE_SPAN("precompute.masks", "precompute");
  // Step 1 (Listing 2): unit-amplitude injection over an empty grid. Using
  // amplitude 1 instead of the real wavelet sample makes the probe
  // independent of whether the wavelet happens to be zero at the first
  // timestep (the corner case the paper works around by probing more steps).
  grid::Grid3<real_t> probe(extents, /*halo=*/0, real_t{0});
  for (int s = 0; s < src.npoints(); ++s) {
    for (const sparse::SupportPoint& p :
         sparse::support(src.coord(s), kind, extents)) {
      probe(p.x, p.y, p.z) += static_cast<real_t>(p.w);
    }
  }

  // Step 2: binary mask + unique ascending ids over non-zero probe points.
  SourceMasks masks{grid::Grid3<unsigned char>(extents, 0, 0),
                    grid::Grid3<int>(extents, 0, -1), 0};
  int next_id = 0;
  probe.for_each_interior([&](int x, int y, int z) {
    if (probe(x, y, z) != real_t{0}) {
      masks.sm(x, y, z) = 1;
      masks.sid(x, y, z) = next_id++;
    }
  });
  masks.npts = next_id;
  return masks;
}

DecomposedSource decompose_sources(const SourceMasks& masks,
                                   const sparse::SparseTimeSeries& src,
                                   sparse::InterpKind kind) {
  TEMPEST_TRACE_SPAN("precompute.decompose", "precompute");
  DecomposedSource dcmp(src.nt(), masks.npts);
  // Listing 3: indirect through SID and scatter every source's wavelet into
  // its per-affected-point wavefields.
  for (int s = 0; s < src.npoints(); ++s) {
    const auto sup = sparse::support(src.coord(s), kind, masks.extents());
    for (const sparse::SupportPoint& p : sup) {
      const int id = masks.sid(p.x, p.y, p.z);
      TEMPEST_REQUIRE_MSG(id >= 0,
                          "support point not present in probe masks");
      for (int t = 0; t < src.nt(); ++t) {
        dcmp.at(t, id) += static_cast<real_t>(p.w) * src.at(t, s);
      }
    }
  }
  return dcmp;
}

DecomposedReceivers decompose_receivers(const grid::Extents3& extents,
                                        const sparse::SparseTimeSeries& rec,
                                        sparse::InterpKind kind) {
  TEMPEST_TRACE_SPAN("precompute.receivers", "precompute");
  DecomposedReceivers out{grid::Grid3<unsigned char>(extents, 0, 0),
                          grid::Grid3<int>(extents, 0, -1),
                          0,
                          {},
                          {}};

  // Probe + id assignment, identical to the source side.
  for (int r = 0; r < rec.npoints(); ++r) {
    for (const sparse::SupportPoint& p :
         sparse::support(rec.coord(r), kind, extents)) {
      out.rm(p.x, p.y, p.z) = 1;
    }
  }
  int next_id = 0;
  out.rm.for_each_interior([&](int x, int y, int z) {
    if (out.rm(x, y, z)) out.rid(x, y, z) = next_id++;
  });
  out.npts = next_id;

  // Gather-side decomposition: per affected point, its (receiver, weight)
  // contributions, stored CSR so the fused kernel walks a contiguous list.
  std::vector<std::vector<SiteWeight>> per_id(
      static_cast<std::size_t>(out.npts));
  for (int r = 0; r < rec.npoints(); ++r) {
    for (const sparse::SupportPoint& p :
         sparse::support(rec.coord(r), kind, extents)) {
      const int id = out.rid(p.x, p.y, p.z);
      per_id[static_cast<std::size_t>(id)].push_back(
          {r, static_cast<real_t>(p.w)});
    }
  }
  out.offsets.assign(static_cast<std::size_t>(out.npts) + 1, 0);
  for (int id = 0; id < out.npts; ++id) {
    out.offsets[static_cast<std::size_t>(id) + 1] =
        out.offsets[static_cast<std::size_t>(id)] +
        static_cast<int>(per_id[static_cast<std::size_t>(id)].size());
  }
  out.pairs.reserve(static_cast<std::size_t>(out.offsets.back()));
  for (const auto& lst : per_id) {
    out.pairs.insert(out.pairs.end(), lst.begin(), lst.end());
  }
  return out;
}

AffectedPoints build_affected_points(const grid::Extents3& extents,
                                     const sparse::SparseTimeSeries& series,
                                     sparse::InterpKind kind) {
  TEMPEST_TRACE_SPAN("precompute.points", "precompute");
  struct Hit {
    std::int64_t index;  ///< (x * ny + y) * nz + z
    int site;
    real_t weight;
  };
  std::vector<Hit> hits;
  const int width = sparse::support_width(kind);
  hits.reserve(static_cast<std::size_t>(series.npoints()) * width * width *
               width);
  for (int s = 0; s < series.npoints(); ++s) {
    for (const sparse::SupportPoint& p :
         sparse::support(series.coord(s), kind, extents)) {
      const std::int64_t column =
          static_cast<std::int64_t>(p.x) * extents.ny + p.y;
      hits.push_back(
          {column * extents.nz + p.z, s, static_cast<real_t>(p.w)});
    }
  }
  // Stable: a point's hits stay in site order, the order the dense
  // decompose loops accumulate in.
  std::stable_sort(hits.begin(), hits.end(), [](const Hit& a, const Hit& b) {
    return a.index < b.index;
  });

  AffectedPoints out;
  std::vector<int> col_offsets(
      static_cast<std::size_t>(extents.nx) * extents.ny + 1, 0);
  std::vector<CompressedSparse::Entry> entries;
  out.pairs.reserve(hits.size());
  for (std::size_t k = 0; k < hits.size(); ++k) {
    const Hit& h = hits[k];
    if (k == 0 || h.index != hits[k - 1].index) {
      ++col_offsets[static_cast<std::size_t>(h.index / extents.nz) + 1];
      entries.push_back(
          {static_cast<int>(h.index % extents.nz), out.npts++});
      out.offsets.push_back(static_cast<int>(k));
    }
    out.pairs.push_back({h.site, h.weight});
  }
  out.offsets.push_back(static_cast<int>(hits.size()));
  for (std::size_t c = 1; c < col_offsets.size(); ++c) {
    col_offsets[c] += col_offsets[c - 1];
  }
  out.columns = CompressedSparse(extents.nx, extents.ny,
                                 std::move(col_offsets), std::move(entries));
  return out;
}

DecomposedSource decompose_sources(const AffectedPoints& points,
                                   const sparse::SparseTimeSeries& src) {
  TEMPEST_TRACE_SPAN("precompute.decompose", "precompute");
  DecomposedSource dcmp(src.nt(), points.npts);
  for (int t = 0; t < src.nt(); ++t) {
    const auto amp = src.step(t);
    for (int id = 0; id < points.npts; ++id) {
      real_t sum = 0;
      for (int k = points.offsets[static_cast<std::size_t>(id)];
           k < points.offsets[static_cast<std::size_t>(id) + 1]; ++k) {
        const SiteWeight& pr = points.pairs[static_cast<std::size_t>(k)];
        sum += pr.weight * amp[static_cast<std::size_t>(pr.site)];
      }
      dcmp.at(t, id) = sum;
    }
  }
  return dcmp;
}

}  // namespace tempest::core
