#pragma once

#include <span>
#include <vector>

#include "tempest/config.hpp"
#include "tempest/sparse/points.hpp"
#include "tempest/util/align.hpp"
#include "tempest/util/error.hpp"

namespace tempest::sparse {

/// A set of off-the-grid points with one time series per point: sources
/// (series = wavelet amplitudes to inject) and receivers (series = recorded
/// measurements) share this representation, exactly like Devito's
/// SparseTimeFunction. Layout is time-major: data[t * npoints + p].
class SparseTimeSeries {
 public:
  SparseTimeSeries() = default;

  SparseTimeSeries(CoordList coords, int nt)
      : coords_(std::move(coords)),
        nt_(nt),
        data_(static_cast<std::size_t>(nt) * coords_.size(), real_t{0}) {
    TEMPEST_REQUIRE(nt > 0);
  }

  [[nodiscard]] int npoints() const { return static_cast<int>(coords_.size()); }
  [[nodiscard]] int nt() const { return nt_; }
  [[nodiscard]] const CoordList& coords() const { return coords_; }
  [[nodiscard]] const Coord3& coord(int p) const {
    return coords_[static_cast<std::size_t>(p)];
  }

  [[nodiscard]] real_t& at(int t, int p) {
    TEMPEST_REQUIRE(t >= 0 && t < nt_ && p >= 0 && p < npoints());
    return data_[static_cast<std::size_t>(t) *
                     static_cast<std::size_t>(npoints()) +
                 static_cast<std::size_t>(p)];
  }
  [[nodiscard]] real_t at(int t, int p) const {
    return const_cast<SparseTimeSeries*>(this)->at(t, p);
  }

  /// All point values at timestep t.
  [[nodiscard]] std::span<real_t> step(int t) {
    TEMPEST_REQUIRE(t >= 0 && t < nt_);
    return {data_.data() + static_cast<std::size_t>(t) *
                               static_cast<std::size_t>(npoints()),
            static_cast<std::size_t>(npoints())};
  }
  [[nodiscard]] std::span<const real_t> step(int t) const {
    return const_cast<SparseTimeSeries*>(this)->step(t);
  }

  /// Every sample, row-major: nt rows of npoints values.
  [[nodiscard]] std::span<real_t> samples() {
    return {data_.data(), data_.size()};
  }
  [[nodiscard]] std::span<const real_t> samples() const {
    return {data_.data(), data_.size()};
  }

  /// Assign the same time signature to every point (the benchmark setups
  /// drive all sources with one wavelet).
  void broadcast_signature(std::span<const real_t> wavelet) {
    TEMPEST_REQUIRE(static_cast<int>(wavelet.size()) >= nt_);
    for (int t = 0; t < nt_; ++t)
      for (int p = 0; p < npoints(); ++p) at(t, p) = wavelet[static_cast<std::size_t>(t)];
  }

  void zero() { std::fill(data_.begin(), data_.end(), real_t{0}); }

 private:
  CoordList coords_;
  int nt_ = 0;
  util::aligned_vector<real_t> data_;
};

}  // namespace tempest::sparse
