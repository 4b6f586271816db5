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

/// Access shape the TTI stencil declares to the schedule legality verifier.
/// The coupled p/q update has the same dependence pattern as the isotropic
/// kernel (t+1 from ±radius of t plus centre of t-1); the verifier models
/// the pair as one wavefield since both are advanced in lockstep.
[[nodiscard]] analysis::AccessSummary tti_access_summary(int space_order);

/// Anisotropic (tilted transversely isotropic) pseudo-acoustic propagator,
/// the industrial RTM/FWI kernel of paper Section III.B. Coupled system of
/// two scalar wavefields p, q (Zhang-style self-adjoint formulation):
///
///   m d²p/dt² + damp dp/dt = (1+2eps) Hперп(p) + sqrt(1+2delta) Hz(q)
///   m d²q/dt² + damp dq/dt = sqrt(1+2delta) Hперп(p) + Hz(q)
///
/// where Hz u = sum_ij n_i n_j d²u/dx_i dx_j is the second derivative along
/// the (spatially varying) symmetry axis n(theta, phi) and Hперп = Δ − Hz.
/// The mixed derivatives make the operation count per point far higher than
/// the isotropic Laplacian — the compute-bound regime the paper calls out.
///
/// The source is injected into both wavefields; receivers measure p. With
/// eps = delta = theta = phi = 0 the system reduces *exactly* to two copies
/// of the isotropic acoustic equation (tested against AcousticPropagator).
class TTIPropagator
    : public core::engine::Checkpointable<TTIPropagator, /*FirstStep=*/1> {
 public:
  TTIPropagator(const TTIModel& model, PropagatorOptions opts = {});

  /// Uniform propagator surface (see AcousticPropagator for the contract):
  /// all four schedules with step callbacks, and checkpoint/resume via
  /// run_from()/capture()/restore().
  RunStats run_from(int t_begin, Schedule sched,
                    const sparse::SparseTimeSeries& src,
                    sparse::SparseTimeSeries* rec = nullptr,
                    const StepCallback& on_step = {});

  // run() / state_view() / capture() / restore(): see
  // core::engine::Checkpointable.

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
  // Precomputed anisotropy coefficient fields (see tti.cpp): the symmetry
  // axis dyad n_i n_j and the Thomsen factors, evaluated once instead of
  // per-point trigonometry in the hot loop.
  grid::Grid3<real_t> cxx_, cyy_, czz_, cxy_, cxz_, cyz_;
  grid::Grid3<real_t> ah_;  ///< 1 + 2 eps
  grid::Grid3<real_t> an_;  ///< sqrt(1 + 2 delta)
};

}  // namespace tempest::physics
