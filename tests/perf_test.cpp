#include <gtest/gtest.h>

#include <sstream>

#include "tempest/perf/calibrate.hpp"
#include "tempest/perf/metrics.hpp"
#include "tempest/perf/roofline.hpp"
#include "tempest/util/error.hpp"

namespace pf = tempest::perf;

TEST(Metrics, FlopCountsOrderedByKernelCost) {
  for (int so : {4, 8, 12}) {
    const double ac = pf::acoustic_flops_per_point(so);
    const double el = pf::elastic_flops_per_point(so);
    const double tti = pf::tti_flops_per_point(so);
    EXPECT_GT(ac, 0.0);
    // The paper's operational-intensity ordering: TTI >> elastic > acoustic.
    EXPECT_GT(el, ac) << "so=" << so;
    EXPECT_GT(tti, el) << "so=" << so;
  }
}

TEST(Metrics, FlopsGrowWithOrder) {
  EXPECT_GT(pf::acoustic_flops_per_point(8), pf::acoustic_flops_per_point(4));
  EXPECT_GT(pf::tti_flops_per_point(12), pf::tti_flops_per_point(4));
  EXPECT_GT(pf::elastic_flops_per_point(12), pf::elastic_flops_per_point(8));
}

TEST(Metrics, ThroughputHelpers) {
  EXPECT_DOUBLE_EQ(pf::gpoints_per_s(2'000'000'000ll, 2.0), 1.0);
  EXPECT_DOUBLE_EQ(pf::gpoints_per_s(1, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(pf::gflops(1'000'000'000ll, 50.0, 10.0), 5.0);
}

TEST(Metrics, FlopsPerPointByName) {
  EXPECT_DOUBLE_EQ(pf::flops_per_point("acoustic", 8),
                   pf::acoustic_flops_per_point(8));
  EXPECT_DOUBLE_EQ(pf::flops_per_point("tti", 8),
                   pf::tti_flops_per_point(8));
  EXPECT_DOUBLE_EQ(pf::flops_per_point("elastic", 8),
                   pf::elastic_flops_per_point(8));
  EXPECT_THROW((void)pf::flops_per_point("nope", 8),
               tempest::util::PreconditionError);
}

TEST(Calibrate, MicrokernelsProducePositiveNumbers) {
  // Quick mode: noisy, but every number must be positive and finite.
  const double bw = pf::triad_bandwidth_gbps(1 << 20, 2);
  EXPECT_GT(bw, 0.01);
  const double peak = pf::fma_peak_gflops(2);
  EXPECT_GT(peak, 0.1);
}

TEST(Roofline, AttainableIsMinOfRoofs) {
  pf::MachineCeilings m;
  m.peak_gflops = 100.0;
  m.l1_gbps = 400.0;
  m.l2_gbps = 200.0;
  m.l3_gbps = 100.0;
  m.dram_gbps = 20.0;
  pf::Roofline r(m);
  EXPECT_DOUBLE_EQ(r.attainable_dram(1.0), 20.0);   // bandwidth-bound
  EXPECT_DOUBLE_EQ(r.attainable_dram(10.0), 100.0);  // compute-bound
  EXPECT_DOUBLE_EQ(r.dram_ridge(), 5.0);
}

TEST(Roofline, PrintIncludesPointsAndCeilings) {
  pf::MachineCeilings m;
  m.peak_gflops = 100.0;
  m.l1_gbps = 400.0;
  m.l2_gbps = 200.0;
  m.l3_gbps = 100.0;
  m.dram_gbps = 20.0;
  pf::Roofline r(m);
  r.add_point({"acoustic-so4-wavefront", 1.5, 25.0});
  std::ostringstream os;
  r.print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("DRAM"), std::string::npos);
  EXPECT_NE(text.find("acoustic-so4-wavefront"), std::string::npos);
  EXPECT_NE(text.find("ridge"), std::string::npos);
}
