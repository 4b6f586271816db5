#pragma once

#include <vector>

#include "tempest/grid/grid3.hpp"
#include "tempest/util/error.hpp"

namespace tempest::grid {

/// Circular buffer of time slices, the storage scheme of explicit FD
/// time-stepping, indexed modulo the slot count like Devito's
/// modulo-buffered TimeFunction. The depth is the kernel's choice
/// (analysis::AccessSummary::depth()): one slice per time offset the
/// update spans (t+1, t, t-1: 3 for the DSL's second-order equations),
/// or 2 for a second-order kernel that reads u[t-1] only at the point it
/// writes and stores u[t+1] over it (acoustic, TTI, VTI).
template <typename T>
class TimeBuffer {
 public:
  TimeBuffer() = default;

  /// `slots` slices filled with `init` on `threads` workers (Grid3).
  TimeBuffer(int slots, Extents3 extents, int halo, T init = T{},
             int threads = 1) {
    TEMPEST_REQUIRE(slots >= 1);
    slices_.reserve(static_cast<std::size_t>(slots));
    for (int i = 0; i < slots; ++i) {
      slices_.emplace_back(extents, halo, init, threads);
    }
  }

  [[nodiscard]] int slots() const { return static_cast<int>(slices_.size()); }

  /// Slice holding logical timestep `t` (t may be any non-negative step; it
  /// is folded modulo the slot count).
  [[nodiscard]] Grid3<T>& at(int t) {
    return slices_[static_cast<std::size_t>(fold(t))];
  }
  [[nodiscard]] const Grid3<T>& at(int t) const {
    return slices_[static_cast<std::size_t>(fold(t))];
  }

  [[nodiscard]] Grid3<T>& slot(int s) {
    TEMPEST_REQUIRE(s >= 0 && s < slots());
    return slices_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] const Grid3<T>& slot(int s) const {
    TEMPEST_REQUIRE(s >= 0 && s < slots());
    return slices_[static_cast<std::size_t>(s)];
  }

  void fill(T value) {
    for (auto& s : slices_) s.fill(value);
  }

 private:
  [[nodiscard]] int fold(int t) const {
    const int n = slots();
    TEMPEST_REQUIRE(t >= 0 && n > 0);
    return t % n;
  }

  std::vector<Grid3<T>> slices_;
};

}  // namespace tempest::grid
