#include "tempest/resilience/health.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <type_traits>

namespace tempest::resilience {

namespace {

static_assert(std::is_same_v<real_t, float>,
              "the scan reads IEEE binary32 bit patterns");

/// |v|'s bit pattern orders like |v|, and every NaN and Inf pattern sits at
/// or above +Inf's, so the largest magnitude pattern of a row gives both
/// its max|u| and whether it is all finite.
constexpr std::uint32_t kMagnitudeBits = 0x7FFFFFFFu;
constexpr std::uint32_t kInfBits = 0x7F800000u;

/// Throws for the first non-finite value of row (x, y), which holds one.
[[noreturn]] void throw_non_finite(const real_t* row, int x, int y,
                                   std::string_view name, int step) {
  int z = 0;
  while (std::isfinite(static_cast<double>(row[z]))) ++z;
  const double bad_v = static_cast<double>(row[z]);
  std::ostringstream os;
  os << "numerical health check failed: non-finite value ("
     << (std::isnan(bad_v) ? "nan" : "inf") << ") in field '" << name
     << "' at timestep " << step << ", first at grid point (" << x << ", "
     << y << ", " << z
     << ") — the wavefield is corrupt; check dt against the CFL limit and "
        "the source amplitudes";
  throw NumericalHealthError(std::string(name), step, os.str());
}

}  // namespace

void HealthMonitor::check(const grid::Grid3<real_t>& field,
                          std::string_view name, int step) {
  if (!enabled()) return;

  // One vector max per interior row; only a row holding a non-finite value
  // is walked again, to name its first bad point.
  const auto& e = field.extents();
  std::uint32_t max_bits = 0;
  for (int x = 0; x < e.nx; ++x) {
    for (int y = 0; y < e.ny; ++y) {
      const real_t* row = &field(x, y, 0);
      std::uint32_t row_bits = 0;
#pragma omp simd reduction(max : row_bits)
      for (int z = 0; z < e.nz; ++z) {
        row_bits = std::max(row_bits,
                            std::bit_cast<std::uint32_t>(row[z]) &
                                kMagnitudeBits);
      }
      if (row_bits >= kInfBits) throw_non_finite(row, x, y, name, step);
      max_bits = std::max(max_bits, row_bits);
    }
  }
  // Widened the way the values themselves would be, so under DAZ a
  // subnormal maximum reads as zero.
  const double max_abs = static_cast<double>(std::bit_cast<real_t>(max_bits));

  if (max_abs > policy_.absolute_limit) {
    std::ostringstream os;
    os << "numerical health check failed: energy blow-up in field '" << name
       << "' at timestep " << step << ": max|u| = " << max_abs
       << " exceeds the absolute limit " << policy_.absolute_limit
       << " — dt likely violates the CFL condition";
    throw NumericalHealthError(std::string(name), step, os.str());
  }

  // Growth check only once the field carries signal: comparing against the
  // all-zero state before the source ramps up would divide by zero.
  if (last_max_ > 0.0 && max_abs > last_max_ * policy_.blowup_factor) {
    std::ostringstream os;
    os << "numerical health check failed: energy blow-up in field '" << name
       << "' at timestep " << step << ": max|u| grew from " << last_max_
       << " to " << max_abs << " since the previous check (factor "
       << max_abs / last_max_ << " > " << policy_.blowup_factor
       << ") — dt likely violates the CFL condition";
    throw NumericalHealthError(std::string(name), step, os.str());
  }

  last_max_ = max_abs;
}

}  // namespace tempest::resilience
