#pragma once

#include <algorithm>
#include <vector>

#include "tempest/grid/extents.hpp"
#include "tempest/util/error.hpp"

namespace tempest::grid {

/// Visit the rectangular blocks of at most (bx, by) in x and y that tile
/// `domain`, x-major, calling fn(block) for each (z stays whole: it is the
/// contiguous, vectorized dimension and blocking it only hurts). This is
/// classic spatial cache blocking (paper Fig. 4a). Returns the number of
/// blocks visited; allocates nothing.
template <typename Fn>
inline int for_each_block(const Box3& domain, int bx, int by, Fn&& fn) {
  TEMPEST_REQUIRE(bx > 0 && by > 0);
  int n = 0;
  for (int x0 = domain.x.lo; x0 < domain.x.hi; x0 += bx) {
    const int x1 = std::min(x0 + bx, domain.x.hi);
    for (int y0 = domain.y.lo; y0 < domain.y.hi; y0 += by) {
      const int y1 = std::min(y0 + by, domain.y.hi);
      fn(Box3{{x0, x1}, {y0, y1}, domain.z});
      ++n;
    }
  }
  return n;
}

/// The blocks for_each_block visits, in its order.
[[nodiscard]] inline std::vector<Box3> decompose_xy(const Box3& domain, int bx,
                                                    int by) {
  std::vector<Box3> blocks;
  for_each_block(domain, bx, by,
                 [&blocks](const Box3& b) { blocks.push_back(b); });
  return blocks;
}

}  // namespace tempest::grid
