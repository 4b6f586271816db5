#include "tempest/perf/roofline.hpp"

#include <algorithm>
#include <iomanip>

#include "tempest/perf/metrics.hpp"
#include "tempest/util/error.hpp"

namespace tempest::perf {

double flops_per_point(const std::string& kernel, int space_order) {
  if (kernel == "acoustic") return acoustic_flops_per_point(space_order);
  if (kernel == "tti") return tti_flops_per_point(space_order);
  if (kernel == "elastic") return elastic_flops_per_point(space_order);
  TEMPEST_REQUIRE_MSG(false, "unknown kernel name: " + kernel);
  return 0.0;
}

namespace {
double attainable(double peak, double bw, double ai) {
  return std::min(peak, bw * ai);
}
}  // namespace

double Roofline::attainable_dram(double ai) const {
  return attainable(m_.peak_gflops, m_.dram_gbps, ai);
}

double Roofline::dram_ridge() const {
  TEMPEST_REQUIRE(m_.dram_gbps > 0.0);
  return m_.peak_gflops / m_.dram_gbps;
}

void Roofline::print(std::ostream& os) const {
  os << std::fixed << std::setprecision(2);
  os << "machine ceilings:\n"
     << "  peak   " << m_.peak_gflops << " GFLOP/s\n"
     << "  L1     " << m_.l1_gbps << " GB/s\n"
     << "  L2     " << m_.l2_gbps << " GB/s\n"
     << "  L3     " << m_.l3_gbps << " GB/s\n"
     << "  DRAM   " << m_.dram_gbps << " GB/s   (ridge at AI "
     << dram_ridge() << ")\n";
  if (points_.empty()) return;
  os << "kernel points (AI = flops per byte of DRAM traffic):\n";
  for (const RooflinePoint& p : points_) {
    const double roof = attainable_dram(p.ai);
    os << "  " << std::left << std::setw(28) << p.name << " AI="
       << std::setw(8) << p.ai << " achieved=" << std::setw(9) << p.gflops
       << " GFLOP/s, DRAM roof=" << std::setw(9) << roof << " ("
       << std::setprecision(1) << (roof > 0 ? 100.0 * p.gflops / roof : 0.0)
       << "% of roof)" << std::setprecision(2) << "\n";
  }
}

}  // namespace tempest::perf
