#pragma once

#include <cstdint>
#include <functional>

#include "tempest/analysis/access.hpp"
#include "tempest/config.hpp"
#include "tempest/grid/time_buffer.hpp"
#include "tempest/physics/model.hpp"
#include "tempest/physics/propagator.hpp"
#include "tempest/resilience/checkpoint.hpp"
#include "tempest/sparse/series.hpp"

namespace tempest::physics {

/// Access shape the isotropic acoustic stencil declares to the schedule
/// legality verifier: u[t+1] written from a ±radius read of u[t] and a
/// centre read of u[t-1] (second order in time, one substep per step).
[[nodiscard]] analysis::AccessSummary acoustic_access_summary(int space_order);

/// A compiled update of one box at one timestep: u[t+1] = un from uc = u[t]
/// and up = u[t-1] over [x0,x1) x [y0,y1) x [z0,z1). Pointers are interior
/// origins of grids sharing the strides sx, sy. codegen::emit_acoustic_c
/// exports one with this C ABI.
using AcousticBlockFn = void(float* un, const float* uc, const float* up,
                             const float* m, const float* damp, long sx,
                             long sy, int x0, int x1, int y0, int y1, int z0,
                             int z1, float inv_h2, float idt2, float i2dt);

/// Isotropic acoustic wave propagator (paper Section III.A):
///   m d²u/dt² + damp du/dt − Δu = src,   d(t) = u(t, x_r)
/// second order in time, configurable even space order, single-precision
/// fields, absorbing sponge boundaries.
///
/// All four schedules (see core::engine::Schedule): an unblocked reference,
/// the spatially-blocked vectorized baseline the paper compares against, and
/// the wave-front and diamond temporally blocked variants enabled by the
/// core/ precompute pipeline. All produce the same wavefield (bit-exact for a single
/// source; to rounding when several sources share support points, since the
/// decomposition pre-sums their contributions).
class AcousticPropagator
    : public core::engine::Checkpointable<AcousticPropagator, /*FirstStep=*/1> {
 public:
  AcousticPropagator(const AcousticModel& model, PropagatorOptions opts = {});

  /// Called after timestep `t_done` is fully computed (stencil + sparse
  /// operators); wavefield(t_done) is then valid. Used by time-stepping
  /// consumers such as RTM snapshotting. Only meaningful for schedules with
  /// a global time barrier (see core::engine::StepCallback).
  using StepCallback = physics::StepCallback;

  /// Propagate `src` for src.nt() timesteps, recording into `rec` if
  /// non-null (rec->nt() must be >= src.nt()). The model passed at
  /// construction must outlive the propagator.
  RunStats run(Schedule sched, const sparse::SparseTimeSeries& src,
               sparse::SparseTimeSeries* rec = nullptr,
               const StepCallback& on_step = {});

  /// Resume a run whose timesteps < t_begin are already computed: neither
  /// the wavefield buffer nor `rec` is zeroed, and the time loop starts at
  /// t_begin. Seed the state with restore() from a checkpoint captured at
  /// t_begin (capture()'s `step` is the next run_from()'s `t_begin`). A
  /// resumed run reproduces the uninterrupted one bitwise when it uses the
  /// same schedule and options. run() is run_from(1, ...) after zeroing.
  RunStats run_from(int t_begin, Schedule sched,
                    const sparse::SparseTimeSeries& src,
                    sparse::SparseTimeSeries* rec = nullptr,
                    const StepCallback& on_step = {});

  // state_view() / capture() / restore(): see core::engine::Checkpointable.

  /// Wavefield at logical timestep t of the last run (only the last three
  /// timesteps are live in the circular buffer).
  [[nodiscard]] const grid::Grid3<real_t>& wavefield(int t) const {
    return u_.at(t);
  }

  [[nodiscard]] double dt() const { return dt_; }
  [[nodiscard]] const AcousticModel& model() const { return model_; }
  [[nodiscard]] const PropagatorOptions& options() const { return opts_; }

 protected:
  /// Updates every box through `block` in place of the AOT template (null
  /// keeps the template); how codegen::JitAcoustic runs its compiled kernel
  /// on the engine. `block` must stay loaded while the propagator lives.
  AcousticPropagator(const AcousticModel& model, PropagatorOptions opts,
                     AcousticBlockFn* block);

 private:
  friend Checkpointable;
  /// Checkpoint state: the three slices of u.
  template <typename Self>
  static auto state(Self& self) {
    return core::engine::state_slices(self.u_);
  }

  const AcousticModel& model_;
  PropagatorOptions opts_;
  double dt_;
  grid::TimeBuffer<real_t> u_;
  AcousticBlockFn* block_ = nullptr;
};

}  // namespace tempest::physics
