#pragma once

#include <vector>

#include "tempest/grid/extents.hpp"
#include "tempest/util/error.hpp"

namespace tempest::grid {

/// Decompose `domain` into rectangular blocks of at most (bx, by) in x and y
/// (z stays whole: it is the contiguous, vectorized dimension and blocking it
/// only hurts). This is classic spatial cache blocking (paper Fig. 4a).
[[nodiscard]] inline std::vector<Box3> decompose_xy(const Box3& domain, int bx,
                                                    int by) {
  TEMPEST_REQUIRE(bx > 0 && by > 0);
  std::vector<Box3> blocks;
  for (int x0 = domain.x.lo; x0 < domain.x.hi; x0 += bx) {
    const int x1 = std::min(x0 + bx, domain.x.hi);
    for (int y0 = domain.y.lo; y0 < domain.y.hi; y0 += by) {
      const int y1 = std::min(y0 + by, domain.y.hi);
      blocks.push_back(Box3{{x0, x1}, {y0, y1}, domain.z});
    }
  }
  return blocks;
}

}  // namespace tempest::grid
