#pragma once

#include "tempest/cachesim/cache.hpp"
#include "tempest/core/wavefront.hpp"
#include "tempest/grid/extents.hpp"

namespace tempest::cachesim {

/// Address-trace generator for the acoustic propagator.
///
/// Replays the exact memory-access pattern of the acoustic update kernel —
/// same field layouts (halo padding, z-contiguous strides), same block
/// traversal, same schedule (space-blocked or wave-front) — into a simulated
/// cache hierarchy, without computing any field values (traffic does not
/// depend on data). This is the substitution for Intel Advisor's
/// hardware-counter traffic measurement used by the paper's Fig. 11; the
/// per-level byte counts it yields feed the cache-aware roofline.
struct TraceConfig {
  grid::Extents3 extents{64, 64, 64};
  int space_order = 4;
  int t_begin = 1;
  int t_end = 9;  ///< ops t in [t_begin, t_end), as in the propagators
  core::TileSpec tiles{};
  bool wavefront = false;  ///< false = space-blocked baseline
};

/// Replay the trace into `hierarchy` (counters are NOT reset first, so a
/// caller can aggregate several phases): the core::TilePlan of the
/// configured schedule, executed at one thread. Returns the number of
/// grid-point updates replayed.
long long replay_acoustic_trace(const TraceConfig& cfg,
                                CacheHierarchy& hierarchy);

}  // namespace tempest::cachesim
