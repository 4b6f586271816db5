#pragma once

#include <cstddef>

#include "tempest/grid/grid3.hpp"
#include "tempest/stencil/coefficients.hpp"

namespace tempest::stencil {

/// Runtime-radius stencil application helpers, in double precision.
///
/// These are the *reference* implementations used by tests and the DSL
/// interpreter. The physics/ kernels apply the same operators through one
/// radius-templated block update each (see dispatch_radius); the one-step
/// oracle tests in tti_test and elastic_test compare those updates point by
/// point with second_deriv, cross_deriv and staggered_deriv.

/// d²f/dx_dim² at interior point (x,y,z) with unit-spacing weights `c`
/// (divide by h² at the call site). dim: 0=x, 1=y, 2=z.
template <typename T>
[[nodiscard]] double second_deriv(const grid::Grid3<T>& f, const Coeffs& c,
                                  int dim, int x, int y, int z) {
  double acc = 0.0;
  const int r = (c.npoints() - 1) / 2;
  for (int i = -r; i <= r; ++i) {
    const double w = c.weights[static_cast<std::size_t>(i + r)];
    switch (dim) {
      case 0: acc += w * static_cast<double>(f(x + i, y, z)); break;
      case 1: acc += w * static_cast<double>(f(x, y + i, z)); break;
      default: acc += w * static_cast<double>(f(x, y, z + i)); break;
    }
  }
  return acc;
}

/// Mixed second derivative d²f/(dxi dxj) via the tensor product of two
/// centred first-derivative stencils (the cross stencil that makes rotated
/// TTI Laplacians so expensive). Requires i != j.
template <typename T>
[[nodiscard]] double cross_deriv(const grid::Grid3<T>& f, const Coeffs& c1,
                                 int dim_i, int dim_j, int x, int y, int z) {
  const int r = (c1.npoints() - 1) / 2;
  double acc = 0.0;
  for (int a = -r; a <= r; ++a) {
    const double wa = c1.weights[static_cast<std::size_t>(a + r)];
    if (wa == 0.0) continue;
    for (int b = -r; b <= r; ++b) {
      const double wb = c1.weights[static_cast<std::size_t>(b + r)];
      if (wb == 0.0) continue;
      int dx = 0, dy = 0, dz = 0;
      (dim_i == 0 ? dx : dim_i == 1 ? dy : dz) += a;
      (dim_j == 0 ? dx : dim_j == 1 ? dy : dz) += b;
      acc += wa * wb * static_cast<double>(f(x + dx, y + dy, z + dz));
    }
  }
  return acc;
}

/// Isotropic Laplacian with uniform spacing h in all three dimensions.
template <typename T>
[[nodiscard]] double laplacian(const grid::Grid3<T>& f, const Coeffs& c2,
                               double h, int x, int y, int z) {
  const double inv_h2 = 1.0 / (h * h);
  return inv_h2 * (second_deriv(f, c2, 0, x, y, z) +
                   second_deriv(f, c2, 1, x, y, z) +
                   second_deriv(f, c2, 2, x, y, z));
}

/// Staggered first derivative: weights at half-offsets; `shift` selects
/// whether the result lives at the +1/2 (shift=1) or -1/2 (shift=0) points
/// relative to f's grid along `dim`. Used by the elastic kernels.
template <typename T>
[[nodiscard]] double staggered_deriv(const grid::Grid3<T>& f, const Coeffs& c,
                                     int dim, int shift, int x, int y, int z) {
  const int n = c.npoints();
  const int r = n / 2;
  double acc = 0.0;
  for (int i = 0; i < n; ++i) {
    // offsets are -r+1/2 .. r-1/2; as integer sample index relative to the
    // evaluation point: i - r + shift.
    const int o = i - r + shift;
    const double w = c.weights[static_cast<std::size_t>(i)];
    switch (dim) {
      case 0: acc += w * static_cast<double>(f(x + o, y, z)); break;
      case 1: acc += w * static_cast<double>(f(x, y + o, z)); break;
      default: acc += w * static_cast<double>(f(x, y, z + o)); break;
    }
  }
  return acc;
}

}  // namespace tempest::stencil
