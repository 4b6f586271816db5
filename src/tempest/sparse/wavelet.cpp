#include "tempest/sparse/wavelet.hpp"

#include <cmath>
#include <numbers>

#include "tempest/util/error.hpp"

namespace tempest::sparse {

std::vector<real_t> ricker(int nt, double dt, double f0, double t0) {
  TEMPEST_REQUIRE(nt > 0 && dt > 0.0 && f0 > 0.0);
  if (t0 < 0.0) t0 = 1.5 / f0;
  std::vector<real_t> w(static_cast<std::size_t>(nt));
  for (int t = 0; t < nt; ++t) {
    const double arg = std::numbers::pi * f0 * (t * dt - t0);
    const double a = arg * arg;
    w[static_cast<std::size_t>(t)] =
        static_cast<real_t>((1.0 - 2.0 * a) * std::exp(-a));
  }
  return w;
}

}  // namespace tempest::sparse
