#include "tempest/autotune/autotune.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "tempest/trace/trace.hpp"
#include "tempest/util/error.hpp"
#include "tempest/util/log.hpp"

namespace tempest::autotune {

std::vector<core::TileSpec> candidates(const grid::Extents3& extents,
                                       const CandidateSpace& space) {
  TEMPEST_REQUIRE(!space.tile_sizes.empty() && !space.block_sizes.empty() &&
                  !space.tile_t.empty());
  std::vector<core::TileSpec> out;
  auto admit = [&](const core::TileSpec& s) {
    if (!s.valid()) return;
    if (s.block_x > s.tile_x || s.block_y > s.tile_y) return;
    // A tile larger than twice the domain behaves identically to one
    // exactly twice the domain: skip all but the first oversize shape.
    if (s.tile_x > 2 * extents.nx || s.tile_y > 2 * extents.ny) return;
    if (std::find(out.begin(), out.end(), s) == out.end()) out.push_back(s);
  };

  for (int tt : space.tile_t) {
    for (int tx : space.tile_sizes) {
      for (int ty : space.tile_sizes) {
        if (space.symmetric && ty != tx) continue;
        for (int bx : space.block_sizes) {
          for (int by : space.block_sizes) {
            if (space.symmetric && by != bx) continue;
            admit(core::TileSpec{tt, tx, ty, bx, by});
          }
        }
      }
    }
  }
  TEMPEST_REQUIRE_MSG(!out.empty(), "candidate space is empty");
  return out;
}

SweepResult sweep(const std::vector<core::TileSpec>& specs,
                  const std::function<double(const core::TileSpec&)>& measure,
                  int repeats) {
  TEMPEST_REQUIRE(!specs.empty() && repeats >= 1);
  SweepResult result;
  result.best.seconds = std::numeric_limits<double>::infinity();
  bool found_healthy = false;
  std::string first_error;
  for (const core::TileSpec& spec : specs) {
    Candidate cand;
    cand.spec = spec;
    cand.seconds = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < repeats && !cand.failed; ++rep) {
      TEMPEST_TRACE_SPAN_ARG("autotune.trial", "autotune", spec.tile_x);
      TEMPEST_TRACE_COUNT(AutotuneTrials, 1);
      const perf::pmu::PmuRegion pmu_region;
      double t = 0.0;
      try {
        t = measure(spec);
      } catch (const std::exception& e) {
        cand.failed = true;
        cand.error = e.what();
        break;
      }
      const perf::pmu::Sample d = pmu_region.delta();
      cand.pmu.valid_mask = d.valid_mask;
      for (int i = 0; i < perf::pmu::kNumEvents; ++i) {
        cand.pmu.value[static_cast<std::size_t>(i)] +=
            d.value[static_cast<std::size_t>(i)];
      }
      if (!std::isfinite(t) || t < 0.0) {
        cand.failed = true;
        cand.error = "trial reported a non-finite or negative time: " +
                     std::to_string(t);
        break;
      }
      cand.seconds = std::min(cand.seconds, t);
    }
    if (cand.failed && first_error.empty()) first_error = cand.error;
    if (cand.failed) {
      util::warn("autotune: skipping failed candidate (tile " +
                 std::to_string(cand.spec.tile_x) + "x" +
                 std::to_string(cand.spec.tile_y) + "): " + cand.error);
    }
    result.evaluated.push_back(cand);
    if (!cand.failed && cand.seconds < result.best.seconds) {
      result.best = cand;
      found_healthy = true;
    }
  }
  TEMPEST_REQUIRE_MSG(found_healthy,
                      "every autotune candidate failed; first failure: " +
                          first_error);
  return result;
}

}  // namespace tempest::autotune
