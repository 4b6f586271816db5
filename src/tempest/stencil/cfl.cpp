#include "tempest/stencil/cfl.hpp"

#include <cmath>

#include "tempest/stencil/coefficients.hpp"
#include "tempest/util/error.hpp"

namespace tempest::stencil {

double acoustic_dt(double h, double c_max, int space_order, double safety) {
  TEMPEST_REQUIRE(h > 0.0 && c_max > 0.0 && safety > 0.0 && safety <= 1.0);
  const double s = central(2, space_order).abs_sum();
  return safety * 2.0 * h / (c_max * std::sqrt(3.0 * s));
}

double elastic_dt(double h, double vp_max, int space_order, double safety) {
  TEMPEST_REQUIRE(h > 0.0 && vp_max > 0.0 && safety > 0.0 && safety <= 1.0);
  const double s1 = staggered_first(space_order).abs_sum();
  return safety * h / (vp_max * std::sqrt(3.0) * s1);
}

double tti_dt(double h, double c_max, int space_order, double max_eps,
              double max_delta, double safety) {
  const double aniso = std::sqrt(1.0 + 2.0 * std::max(max_eps, max_delta));
  return acoustic_dt(h, c_max, space_order, safety) / aniso;
}

}  // namespace tempest::stencil
