#pragma once

#include <cstddef>
#include <string>

namespace tempest::perf {

/// Measured machine ceilings for the roofline model. The paper reads these
/// off Intel Advisor's calibration; we measure them directly with
/// microkernels (a STREAM-triad sweep per cache level and an FMA-saturation
/// loop), which is the substitution documented in DESIGN.md.
struct MachineCeilings {
  double peak_gflops = 0.0;  ///< single-precision FMA peak (all threads)
  double l1_gbps = 0.0;      ///< triad bandwidth, working set < L1
  double l2_gbps = 0.0;      ///< working set < L2
  double l3_gbps = 0.0;      ///< working set < L3
  double dram_gbps = 0.0;    ///< working set >> L3
};

/// Run the calibration microkernels. `quick` shortens the sampling for use
/// in tests (less accurate, still ordered sanely).
[[nodiscard]] MachineCeilings calibrate(bool quick = false);

/// STREAM-style triad bandwidth (GB/s) for a working set of `bytes`.
[[nodiscard]] double triad_bandwidth_gbps(std::size_t bytes,
                                          int repetitions);

/// Single-precision multiply-add throughput (GFLOP/s), over samples of at
/// least ~10 ms each.
[[nodiscard]] double fma_peak_gflops(int repetitions);

/// Stable identifier of the machine the ceilings were measured on: CPU
/// model string, logical CPU count, and util::resolve_threads() (thread
/// count changes the triad/FMA ceilings, so it keys the cache too).
[[nodiscard]] std::string host_fingerprint();

/// Cached calibration: reuse the ceilings persisted at `path` when they
/// were measured on this host (fingerprint match) at sufficient quality
/// (a full calibration serves quick requests, never the reverse);
/// otherwise run calibrate() and persist the result. `force` always
/// recalibrates (the bench drivers' --recalibrate flag). A stale,
/// corrupt, or unwritable cache file degrades to calibrating in-process —
/// the cache is an optimisation, never a failure source.
[[nodiscard]] MachineCeilings load_or_calibrate(
    bool quick = false, bool force = false,
    const std::string& path = ".tempest_ceilings.json");

}  // namespace tempest::perf
