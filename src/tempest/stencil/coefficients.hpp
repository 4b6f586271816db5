#pragma once

#include <vector>

#include "tempest/config.hpp"

namespace tempest::stencil {

/// Finite-difference weights for a 1-D derivative on a line of grid points.
///
/// `offsets[i]` is the sample position in units of the grid spacing h;
/// `weights[i]` the corresponding weight. Weights are for h = 1: divide by
/// h^deriv at the point of use. Generated in double precision from the
/// Vandermonde moment conditions sum_i w_i * o_i^k = k!·[k == deriv].
struct Coeffs {
  int deriv = 0;                 ///< derivative order (1 or 2 here)
  std::vector<double> offsets;   ///< sample offsets in units of h
  std::vector<double> weights;   ///< weights for unit spacing

  [[nodiscard]] int npoints() const { return static_cast<int>(weights.size()); }

  /// Sum of |w_i|; enters the von Neumann stability bound.
  [[nodiscard]] double abs_sum() const;
};

/// Centred weights for the `deriv`-th derivative (deriv in {1,2}) at accuracy
/// order `space_order` (even, >= 2). Uses 2r+1 points with r = space_order/2
/// for deriv==2 and the same radius for deriv==1 (the classic FD choice used
/// by Devito for wave kernels).
[[nodiscard]] Coeffs central(int deriv, int space_order);

/// First-derivative weights on a staggered grid: samples at half-integer
/// offsets -r+1/2, ..., r-1/2 (r = space_order/2), evaluating the derivative
/// at the integer point. This is the Virieux velocity–stress layout.
[[nodiscard]] Coeffs staggered_first(int space_order);

/// Weights for an arbitrary offset set (general Fornberg-style generation);
/// exposed for tests and for experimenting with asymmetric stencils.
[[nodiscard]] Coeffs for_offsets(int deriv, std::vector<double> offsets);

/// Stencil radius (points of halo needed per side) for a given space order.
[[nodiscard]] constexpr int radius_for_order(int space_order) {
  return space_order / 2;
}

/// central(deriv, space_order) folded to field precision: w[k] is the
/// weight at offset +k, k = 0..r. The weight at -k is w[k] for deriv 2 and
/// -w[k] for deriv 1 (whose w[0] is 0). The AOT kernels and the DSL
/// lowering take their weights from here, so they round them the same way.
[[nodiscard]] std::vector<real_t> folded_central(int deriv, int space_order);

/// The one radius dispatcher of the AOT kernels: calls
/// `fn.template operator()<R>()` with R = radius for the compiled radii
/// {1, 2, 4, 6} (space orders 2, 4, 8 and 12; the paper measures 4, 8 and
/// 12) and with R = 0 for any other radius. A body templated on R loops to
/// `R > 0 ? R : radius`, so its unrolled instances and its run-time-radius
/// instance are the same code and cannot drift apart.
template <typename Fn>
decltype(auto) dispatch_radius(int radius, Fn&& fn) {
  switch (radius) {
    case 1: return fn.template operator()<1>();
    case 2: return fn.template operator()<2>();
    case 4: return fn.template operator()<4>();
    case 6: return fn.template operator()<6>();
    default: return fn.template operator()<0>();
  }
}

}  // namespace tempest::stencil
