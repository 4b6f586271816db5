#pragma once

#include <cstdint>

#include "tempest/analysis/access.hpp"
#include "tempest/config.hpp"
#include "tempest/grid/grid3.hpp"
#include "tempest/physics/model.hpp"
#include "tempest/physics/propagator.hpp"
#include "tempest/resilience/checkpoint.hpp"
#include "tempest/sparse/series.hpp"

namespace tempest::physics {

/// Access shape the elastic velocity–stress update declares to the schedule
/// legality verifier. One timestep is two dependent half-updates each
/// reaching ±radius, so the *per-timestep* dependency reach is 2·radius and
/// the state is first order in time (only slice t is read).
[[nodiscard]] analysis::AccessSummary elastic_access_summary(int space_order);

/// Isotropic elastic wave propagator (paper Section III.C): the Virieux
/// staggered-grid velocity–stress formulation,
///   rho dv/dt = div(tau),   dtau/dt = lam tr(grad v) I + mu (grad v + grad v^T)
/// first order in time, nine coupled single-precision fields (3 velocity
/// components + 6 stress components), staggered first-derivative stencils.
///
/// One timestep is two dependent half-updates (v from tau, then tau from the
/// new v), so the wave-front slope is the stencil radius *per half-step* —
/// the "shifted wave-front angle" of the paper's Fig. 8b. Updates are
/// in-place (first order in time needs only one buffer per field).
///
/// The source is an explosive (pressure) source injected into the diagonal
/// stresses; receivers record the vertical particle velocity vz.
class ElasticPropagator
    : public core::engine::Checkpointable<ElasticPropagator, /*FirstStep=*/0> {
 public:
  ElasticPropagator(const ElasticModel& model, PropagatorOptions opts = {});

  /// Uniform propagator surface (see AcousticPropagator for the contract):
  /// all four schedules, per-step callbacks on barrier schedules, and
  /// checkpoint/resume via run_from()/capture()/restore(). First-order in
  /// time, so propagation starts at t = 0 and run() is run_from(0, ...).
  RunStats run(Schedule sched, const sparse::SparseTimeSeries& src,
               sparse::SparseTimeSeries* rec = nullptr,
               const StepCallback& on_step = {});

  RunStats run_from(int t_begin, Schedule sched,
                    const sparse::SparseTimeSeries& src,
                    sparse::SparseTimeSeries* rec = nullptr,
                    const StepCallback& on_step = {});

  // state_view() / capture() / restore(): see core::engine::Checkpointable.

  [[nodiscard]] const grid::Grid3<real_t>& vx() const { return vx_; }
  [[nodiscard]] const grid::Grid3<real_t>& vy() const { return vy_; }
  [[nodiscard]] const grid::Grid3<real_t>& vz() const { return vz_; }
  [[nodiscard]] const grid::Grid3<real_t>& txx() const { return txx_; }
  [[nodiscard]] const grid::Grid3<real_t>& tyy() const { return tyy_; }
  [[nodiscard]] const grid::Grid3<real_t>& tzz() const { return tzz_; }
  [[nodiscard]] const grid::Grid3<real_t>& txy() const { return txy_; }
  [[nodiscard]] const grid::Grid3<real_t>& txz() const { return txz_; }
  [[nodiscard]] const grid::Grid3<real_t>& tyz() const { return tyz_; }
  [[nodiscard]] double dt() const { return dt_; }
  [[nodiscard]] const ElasticModel& model() const { return model_; }
  [[nodiscard]] const PropagatorOptions& options() const { return opts_; }

 private:
  friend Checkpointable;
  /// Checkpoint state: all nine fields.
  template <typename Self>
  static auto state(Self& self) {
    return core::engine::state_slices(self.vx_, self.vy_, self.vz_, self.txx_,
                                      self.tyy_, self.tzz_, self.txy_,
                                      self.txz_, self.tyz_);
  }

  const ElasticModel& model_;
  PropagatorOptions opts_;
  double dt_;
  grid::Grid3<real_t> vx_, vy_, vz_;
  grid::Grid3<real_t> txx_, tyy_, tzz_, txy_, txz_, tyz_;
};

}  // namespace tempest::physics
