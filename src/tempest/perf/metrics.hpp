#pragma once

#include <string>

namespace tempest::perf {

/// Analytic per-grid-point flop counts for the three wave kernels, used for
/// arithmetic-intensity and roofline reporting (paper Fig. 11). Counts
/// follow the generated inner loops; a fused multiply-add is 2 flops, a
/// division 1.
///
/// Acoustic (radius R = so/2):
///   laplacian: 3 dims x R taps, each tap = 5 adds (6-term gather) + FMA
///              folded as: per k, 5 adds + 1 mul + 1 add = 7 -> 7R,
///              + centre 2 (3*w0*u) + 1 scale mul
///   update:    m*idt2*(2u - up): 4; + damp*i2dt*up: 3; + lap add: 1;
///              denominator: 3; division: 1  => 12
[[nodiscard]] constexpr double acoustic_flops_per_point(int space_order) {
  const int r = space_order / 2;
  return 7.0 * r + 3.0 + 12.0;
}

/// TTI: two rotated-derivative gathers (p and q), each
///   pure second derivatives: 3 dims x (per k: 1 add + FMA = 3) + centre 2
///   mixed derivatives: R^2 (a,b) pairs x (1 weight product + 3 planes x
///                      (3 adds + 1 mul + 1 accumulate)) = 16 R^2
///   Hz combination: 6 mul + 5 add + 2 (the 2*(cxy...)) = 13; lap: 2 adds
/// plus the coupled update (2 fields x ~14 incl. division) and Hperp/scale.
[[nodiscard]] constexpr double tti_flops_per_point(int space_order) {
  const int r = space_order / 2;
  const double gather = 3.0 * (3.0 * r) + 2.0 + 16.0 * r * r + 13.0 + 2.0;
  return 2.0 * gather + 2.0 * 14.0 + 6.0;
}

/// Elastic (both half-updates, per full timestep):
///   v: 9 staggered derivatives x R taps x (2 adds + FMA ~ 3) + 3 updates x 5
///   tau: 9 derivatives x 3R + 6 updates x ~6
[[nodiscard]] constexpr double elastic_flops_per_point(int space_order) {
  const int r = space_order / 2;
  return 9.0 * 3.0 * r + 15.0 + 9.0 * 3.0 * r + 36.0;
}

/// Throughput in giga grid-points per second.
[[nodiscard]] constexpr double gpoints_per_s(long long points,
                                             double seconds) {
  return seconds > 0.0 ? static_cast<double>(points) / seconds / 1e9 : 0.0;
}

/// GFLOP/s given a per-point flop model.
[[nodiscard]] constexpr double gflops(long long points, double flops_pp,
                                      double seconds) {
  return seconds > 0.0
             ? static_cast<double>(points) * flops_pp / seconds / 1e9
             : 0.0;
}

/// Kernel name -> flops/point helper used by the bench harnesses.
[[nodiscard]] double flops_per_point(const std::string& kernel,
                                     int space_order);

}  // namespace tempest::perf
