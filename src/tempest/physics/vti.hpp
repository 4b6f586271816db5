#pragma once

#include <cstdint>

#include "tempest/analysis/access.hpp"
#include "tempest/config.hpp"
#include "tempest/grid/time_buffer.hpp"
#include "tempest/physics/model.hpp"
#include "tempest/physics/propagator.hpp"
#include "tempest/resilience/checkpoint.hpp"
#include "tempest/sparse/series.hpp"

namespace tempest::physics {

/// Access shape the VTI stencil declares to the schedule legality verifier
/// (identical dependence pattern to TTI: no mixed derivatives changes the
/// flop count, not the footprint).
[[nodiscard]] analysis::AccessSummary vti_access_summary(int space_order);

/// Vertically transversely isotropic (VTI) pseudo-acoustic propagator: the
/// untilted specialisation of the TTI system (theta = phi = 0), for which
/// the rotated operators collapse to
///   Hz u = d²u/dz²,   Hперп u = d²u/dx² + d²u/dy²
/// — no mixed derivatives, so the kernel is far cheaper than TTI while
/// keeping the coupled p–q anisotropic physics. Widely used in practice
/// (Alkhalifah-style VTI modelling) and, here, a cross-check: on a model
/// with zero tilt this propagator and TTIPropagator must agree.
///
/// Takes a TTIModel whose theta and phi are identically zero (enforced).
class VTIPropagator
    : public core::engine::Checkpointable<VTIPropagator, /*FirstStep=*/1> {
 public:
  VTIPropagator(const TTIModel& model, PropagatorOptions opts = {});

  /// Uniform propagator surface (see AcousticPropagator for the contract):
  /// all four schedules, per-step callbacks on barrier schedules, and
  /// checkpoint/resume via run_from()/capture()/restore().
  RunStats run(Schedule sched, const sparse::SparseTimeSeries& src,
               sparse::SparseTimeSeries* rec = nullptr,
               const StepCallback& on_step = {});

  RunStats run_from(int t_begin, Schedule sched,
                    const sparse::SparseTimeSeries& src,
                    sparse::SparseTimeSeries* rec = nullptr,
                    const StepCallback& on_step = {});

  // state_view() / capture() / restore(): see core::engine::Checkpointable.

  [[nodiscard]] const grid::Grid3<real_t>& wavefield_p(int t) const {
    return p_.at(t);
  }
  [[nodiscard]] const grid::Grid3<real_t>& wavefield_q(int t) const {
    return q_.at(t);
  }
  [[nodiscard]] double dt() const { return dt_; }
  [[nodiscard]] const TTIModel& model() const { return model_; }
  [[nodiscard]] const PropagatorOptions& options() const { return opts_; }

 private:
  friend Checkpointable;
  /// Checkpoint state: the p slices, then the q slices.
  template <typename Self>
  static auto state(Self& self) {
    return core::engine::state_slices(self.p_, self.q_);
  }

  const TTIModel& model_;
  PropagatorOptions opts_;
  double dt_;
  grid::TimeBuffer<real_t> p_;
  grid::TimeBuffer<real_t> q_;
  grid::Grid3<real_t> ah_;  ///< 1 + 2 eps
  grid::Grid3<real_t> an_;  ///< sqrt(1 + 2 delta)
};

}  // namespace tempest::physics
