#pragma once

#include <vector>

#include "tempest/config.hpp"

namespace tempest::sparse {

/// Ricker (Mexican-hat) source wavelet, the standard seismic source time
/// signature: r(t) = (1 - 2 a) e^{-a}, a = (pi f0 (t - t0))^2. Peak
/// frequency f0 in kHz when t is in ms (the unit convention used by the
/// physics models). Default delay t0 = 1.5/f0 so the onset is ~zero — and
/// notably *not* zero at the very first timesteps once shifted, matching the
/// paper's assumption for the single-timestep probe.
[[nodiscard]] std::vector<real_t> ricker(int nt, double dt, double f0,
                                         double t0 = -1.0);

}  // namespace tempest::sparse
