#pragma once

namespace tempest::stencil {

/// Courant–Friedrichs–Lewy timestep selection for explicit wave kernels.
///
/// For the second-order-in-time acoustic update with a Laplacian whose 1-D
/// second-derivative weights have absolute sum S, the von Neumann bound on a
/// 3-D grid with uniform spacing h and maximum velocity c_max is
///     dt <= 2 h / (c_max * sqrt(3 S)).
/// `safety` (in (0,1]) derates the bound; the paper's setups use the Devito
/// default of ~0.9 relative headroom which we mirror.
[[nodiscard]] double acoustic_dt(double h, double c_max, int space_order,
                                 double safety = 0.9);

/// Timestep for the first-order velocity–stress elastic system with
/// staggered first derivatives of absolute weight sum S1:
///     dt <= h / (v_p_max * sqrt(3) * S1) * safety.
[[nodiscard]] double elastic_dt(double h, double vp_max, int space_order,
                                double safety = 0.9);

/// TTI shares the acoustic bound but the rotated/anisotropic operator is
/// stiffer; apply an extra anisotropy factor sqrt(1 + 2*max(eps, delta)).
[[nodiscard]] double tti_dt(double h, double c_max, int space_order,
                            double max_eps, double max_delta,
                            double safety = 0.9);

}  // namespace tempest::stencil
