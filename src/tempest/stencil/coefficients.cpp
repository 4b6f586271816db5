#include "tempest/stencil/coefficients.hpp"

#include <cmath>
#include <cstddef>

#include "tempest/util/error.hpp"

namespace tempest::stencil {

namespace {

/// Fornberg's recursion (Generation of Finite Difference Formulas on
/// Arbitrarily Spaced Grids, Math. Comp. 51, 1988): numerically stable
/// generation of the weights of the `deriv`-th derivative at x0 = 0 from
/// samples at `offsets`, without ever forming the ill-conditioned
/// Vandermonde moment matrix.
std::vector<double> fornberg_weights(const std::vector<double>& offsets,
                                     int deriv) {
  const int n = static_cast<int>(offsets.size());
  TEMPEST_REQUIRE(n > deriv);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      TEMPEST_REQUIRE_MSG(offsets[static_cast<std::size_t>(i)] !=
                              offsets[static_cast<std::size_t>(j)],
                          "duplicate stencil offsets");
    }
  }

  const int m = deriv;
  std::vector<double> c(static_cast<std::size_t>(n) * (m + 1), 0.0);
  auto C = [&](int i, int k) -> double& {
    return c[static_cast<std::size_t>(i) * (m + 1) + k];
  };

  double c1 = 1.0;
  double c4 = offsets[0];
  C(0, 0) = 1.0;
  for (int i = 1; i < n; ++i) {
    const int mn = std::min(i, m);
    double c2 = 1.0;
    const double c5 = c4;
    c4 = offsets[static_cast<std::size_t>(i)];
    for (int j = 0; j < i; ++j) {
      const double c3 =
          offsets[static_cast<std::size_t>(i)] - offsets[static_cast<std::size_t>(j)];
      c2 *= c3;
      if (j == i - 1) {
        for (int k = mn; k >= 1; --k) {
          C(i, k) = c1 * (k * C(i - 1, k - 1) - c5 * C(i - 1, k)) / c2;
        }
        C(i, 0) = -c1 * c5 * C(i - 1, 0) / c2;
      }
      for (int k = mn; k >= 1; --k) {
        C(j, k) = (c4 * C(j, k) - k * C(j, k - 1)) / c3;
      }
      C(j, 0) = c4 * C(j, 0) / c3;
    }
    c1 = c2;
  }

  std::vector<double> w(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) w[static_cast<std::size_t>(i)] = C(i, m);
  return w;
}

}  // namespace

double Coeffs::abs_sum() const {
  double s = 0.0;
  for (double w : weights) s += std::fabs(w);
  return s;
}

Coeffs for_offsets(int deriv, std::vector<double> offsets) {
  TEMPEST_REQUIRE(deriv >= 0);
  Coeffs c;
  c.deriv = deriv;
  c.weights = fornberg_weights(offsets, deriv);
  c.offsets = std::move(offsets);
  return c;
}

Coeffs central(int deriv, int space_order) {
  TEMPEST_REQUIRE_MSG(space_order >= 2 && space_order % 2 == 0,
                      "space order must be even and >= 2");
  TEMPEST_REQUIRE(deriv == 1 || deriv == 2);
  const int r = radius_for_order(space_order);
  std::vector<double> offsets;
  offsets.reserve(static_cast<std::size_t>(2 * r + 1));
  for (int o = -r; o <= r; ++o) offsets.push_back(static_cast<double>(o));
  Coeffs c = for_offsets(deriv, std::move(offsets));
  // Enforce the exact (anti)symmetry the moment solve delivers only to
  // rounding: symmetric for deriv==2, antisymmetric with zero centre for
  // deriv==1. Keeps downstream kernels' folded formulations exact.
  const std::size_t n = c.weights.size();
  for (std::size_t i = 0; i < n / 2; ++i) {
    const std::size_t j = n - 1 - i;
    const double avg = 0.5 * (c.weights[i] + (deriv == 2 ? c.weights[j]
                                                         : -c.weights[j]));
    c.weights[i] = avg;
    c.weights[j] = (deriv == 2) ? avg : -avg;
  }
  if (deriv == 1) c.weights[n / 2] = 0.0;
  return c;
}

std::vector<real_t> folded_central(int deriv, int space_order) {
  const Coeffs c = central(deriv, space_order);
  const int r = radius_for_order(space_order);
  std::vector<real_t> w(static_cast<std::size_t>(r) + 1);
  for (int k = 0; k <= r; ++k) {
    w[static_cast<std::size_t>(k)] =
        static_cast<real_t>(c.weights[static_cast<std::size_t>(r + k)]);
  }
  return w;
}

Coeffs staggered_first(int space_order) {
  TEMPEST_REQUIRE_MSG(space_order >= 2 && space_order % 2 == 0,
                      "space order must be even and >= 2");
  const int r = radius_for_order(space_order);
  std::vector<double> offsets;
  offsets.reserve(static_cast<std::size_t>(2 * r));
  for (int o = -r; o < r; ++o) offsets.push_back(static_cast<double>(o) + 0.5);
  return for_offsets(1, std::move(offsets));
}

}  // namespace tempest::stencil
