#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "tempest/perf/calibrate.hpp"

namespace tempest::perf {

/// One kernel's position in the (cache-aware) roofline plane: arithmetic
/// intensity in flops per byte of traffic at a given memory level, and
/// achieved GFLOP/s.
struct RooflinePoint {
  std::string name;
  double ai = 0.0;      ///< flops / byte
  double gflops = 0.0;  ///< achieved
};

/// Cache-aware roofline model (paper Fig. 11): bandwidth ceilings per memory
/// level plus the compute peak. attainable_dram() evaluates
/// min(peak, ai * DRAM bandwidth).
class Roofline {
 public:
  explicit Roofline(MachineCeilings ceilings) : m_(ceilings) {}

  [[nodiscard]] const MachineCeilings& ceilings() const { return m_; }

  [[nodiscard]] double attainable_dram(double ai) const;

  /// AI at which the DRAM roof meets the compute peak (the ridge point).
  [[nodiscard]] double dram_ridge() const;

  void add_point(RooflinePoint p) { points_.push_back(std::move(p)); }
  [[nodiscard]] const std::vector<RooflinePoint>& points() const {
    return points_;
  }

  /// Print ceilings and per-point attainment (the textual form of Fig. 11).
  void print(std::ostream& os) const;

 private:
  MachineCeilings m_;
  std::vector<RooflinePoint> points_;
};

}  // namespace tempest::perf
