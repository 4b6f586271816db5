// Micro-benchmark µ2: cost of the sparse-operator precompute pipeline
// versus source count and grid size, twice: the paper-literal dense
// reference (probe -> masks -> decompose -> compress) and the sparse-first
// path the engine runs (one sort over the support points). Quantifies
// the paper's claim that the scheme "adds a negligible overhead compared to
// the measured gains": compare these one-off millisecond costs against
// fig9's per-run propagation seconds.

#include <benchmark/benchmark.h>

#include <algorithm>

#include "micro_common.hpp"
#include "tempest/core/compress.hpp"
#include "tempest/core/precompute.hpp"
#include "tempest/sparse/survey.hpp"
#include "tempest/sparse/wavelet.hpp"

namespace {

using namespace tempest;

// TEMPEST_MICRO_SIZE caps the swept grid edges (CI smoke runs); unset, the
// Args below run as written.
int capped(benchmark::State& state, int idx = 0) {
  return std::min(static_cast<int>(state.range(idx)),
                  bench::micro_size(1 << 20));
}

sparse::SparseTimeSeries sources(const grid::Extents3& e, int n_src) {
  const int nt = bench::micro_steps(228);  // the paper's acoustic step count
  sparse::SparseTimeSeries src(sparse::dense_volume(e, n_src, 7), nt);
  src.broadcast_signature(sparse::ricker(nt, 1.0, 0.010));
  return src;
}

sparse::SparseTimeSeries receivers(const grid::Extents3& e, int n_rec) {
  return sparse::SparseTimeSeries(sparse::receiver_line(e, n_rec),
                                  bench::micro_steps(228));
}

// The paper-literal dense reference (Listings 2-5): probe, SM/SID volumes,
// decompose through SID, compress by scanning the volumes.
void BM_FullPipeline(benchmark::State& state) {
  const int size = capped(state);
  const grid::Extents3 e{size, size, size};
  const auto src = sources(e, static_cast<int>(state.range(1)));
  for (auto _ : state) {
    const auto masks =
        core::build_source_masks(e, src, sparse::InterpKind::Trilinear);
    const auto dcmp =
        core::decompose_sources(masks, src, sparse::InterpKind::Trilinear);
    const core::CompressedSparse cs(masks.sm, masks.sid);
    benchmark::DoNotOptimize(cs.total_entries());
    benchmark::DoNotOptimize(dcmp.npts());
  }
  state.counters["npts"] = static_cast<double>(
      core::build_source_masks(e, src, sparse::InterpKind::Trilinear).npts);
}

void BM_ReceiverPipeline(benchmark::State& state) {
  const int size = capped(state);
  const grid::Extents3 e{size, size, size};
  const auto rec = receivers(e, static_cast<int>(state.range(1)));
  for (auto _ : state) {
    const auto dr =
        core::decompose_receivers(e, rec, sparse::InterpKind::Trilinear);
    const core::CompressedSparse cs(dr.rm, dr.rid);
    benchmark::DoNotOptimize(cs.total_entries());
  }
}

// The shipped sparse-first path the engine runs: ids, columns and src_dcmp
// straight from the interpolation supports, no grid-sized buffer.
void BM_SparseFirstPipeline(benchmark::State& state) {
  const int size = capped(state);
  const grid::Extents3 e{size, size, size};
  const auto src = sources(e, static_cast<int>(state.range(1)));
  int npts = 0;
  for (auto _ : state) {
    const auto pts =
        core::build_affected_points(e, src, sparse::InterpKind::Trilinear);
    const auto dcmp = core::decompose_sources(pts, src);
    benchmark::DoNotOptimize(pts.columns.total_entries());
    benchmark::DoNotOptimize(dcmp.npts());
    npts = pts.npts;
  }
  state.counters["npts"] = static_cast<double>(npts);
}

void BM_SparseFirstReceivers(benchmark::State& state) {
  const int size = capped(state);
  const grid::Extents3 e{size, size, size};
  const auto rec = receivers(e, static_cast<int>(state.range(1)));
  for (auto _ : state) {
    const auto pts =
        core::build_affected_points(e, rec, sparse::InterpKind::Trilinear);
    benchmark::DoNotOptimize(pts.columns.total_entries());
  }
}

}  // namespace

BENCHMARK(BM_FullPipeline)
    ->Args({96, 1})
    ->Args({96, 64})
    ->Args({96, 1024})
    ->Args({160, 1})
    ->Args({160, 1024})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SparseFirstPipeline)
    ->Args({96, 1})
    ->Args({96, 64})
    ->Args({96, 1024})
    ->Args({160, 1})
    ->Args({160, 1024})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ReceiverPipeline)
    ->Args({96, 128})
    ->Args({160, 128})
    ->Args({160, 1024})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SparseFirstReceivers)
    ->Args({96, 128})
    ->Args({160, 128})
    ->Args({160, 1024})
    ->Unit(benchmark::kMillisecond);

TEMPEST_MICRO_MAIN("micro_precompute")
