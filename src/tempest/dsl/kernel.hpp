#pragma once

// The engine adapter for DSL-authored physics: a PhysicsKernel whose
// per-block update evaluates the lowered expression tree (dsl::lower) in
// real_t via a compiled postorder tape (or calls a JIT-compiled block of
// the same tree), plus a propagator wrapper mirroring
// physics::AcousticPropagator. DSL-authored equations thereby run under
// every schedule — reference, space-blocked, wavefront, fused, diamond —
// with trace, health monitoring, checkpointing, task parallelism and the
// autotuner unchanged, and (because the tape preserves the lowering's
// operand association under the project's value-safe FP flags) the acoustic
// equation authored in the DSL is bit-identical to the hand-written kernel.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tempest/analysis/access.hpp"
#include "tempest/config.hpp"
#include "tempest/core/engine.hpp"
#include "tempest/dsl/lower.hpp"
#include "tempest/grid/time_buffer.hpp"
#include "tempest/physics/model.hpp"
#include "tempest/physics/propagator.hpp"
#include "tempest/resilience/checkpoint.hpp"
#include "tempest/sparse/series.hpp"

namespace tempest::dsl {

/// Resolve a lowering's parameter names to coefficient grids: user bindings
/// win, then the model's own fields by conventional name ("m", "damp",
/// "vp"). Throws for names neither source provides. Shared by the engine
/// adapter, the typed interpreter and the JIT driver so every execution
/// path binds identically.
[[nodiscard]] std::vector<const grid::Grid3<real_t>*> resolve_params(
    const LoweredKernel& lowered, const physics::AcousticModel& model,
    const ParamBindings& bindings);

/// The full statics verdict for running `lowered` on `model` at `dt`, with
/// the sharpest bounds available: value intervals scanned from the
/// concrete model (and user-bound) grids, the von Neumann proof at the
/// real space order and dt (skipped when `allow_unstable`), and the IR
/// lint against the model's halo. Throws StaticVerificationError on a
/// failing verdict.
void require_statics_ok(const LoweredKernel& lowered,
                        const physics::AcousticModel& model,
                        const ParamBindings& bindings, double dt,
                        bool allow_unstable);

/// A compiled update of one box at one timestep: u[t+1] = un from uc = u[t]
/// and up = u[t-1] over [x0,x1) x [y0,y1) x [z0,z1), with prm[i] the
/// interior origin of lowered.params[i]. codegen::emit_dsl_c exports one
/// with this C ABI.
using DslBlockFn = void(float* un, const float* uc, const float* up,
                        const float* const* prm, long sx, long sy, int x0,
                        int x1, int y0, int y1, int z0, int z1);

/// PhysicsKernel over a LoweredKernel: three-slot time buffer (DslBlockFn
/// takes u[t+1] and u[t-1] as separate restrict rows, and a hand-built
/// LoweredKernel may load u[t-1] off the point, so u[t+1] does not
/// overwrite u[t-1] in place as in the hand-written second-order
/// kernels), single injection/gather field, `dt^2 / m` injection scaling
/// (the Devito convention every tempest kernel uses). A non-null `block`
/// (the same tree, compiled) replaces the tape for every box.
class DslKernel {
 public:
  static constexpr int kSubstepsPerStep = 1;
  static constexpr int kFirstStep = 1;

  DslKernel(const LoweredKernel& lowered, const physics::AcousticModel& model,
            const ParamBindings& bindings, grid::TimeBuffer<real_t>& u,
            double dt, DslBlockFn* block = nullptr);

  [[nodiscard]] const grid::Extents3& extents() const {
    return model_.geom.extents;
  }
  [[nodiscard]] int radius() const { return model_.geom.radius(); }
  [[nodiscard]] analysis::AccessSummary access_summary() const {
    return lowered_.summary();
  }

  void apply(int t, const grid::Box3& box);

  [[nodiscard]] real_t inject_scale(int x, int y, int z) const {
    return dt2_ / model_.m(x, y, z);
  }
  [[nodiscard]] core::engine::FieldRefs inject_fields(int t) {
    return {{&u_.at(t + 1)}, 1};
  }
  [[nodiscard]] const grid::Grid3<real_t>& gather_field(int t) const {
    return u_.at(t + 1);
  }
  [[nodiscard]] core::engine::HealthFields health_fields(int t) {
    return {{{{field_name_.c_str(), &u_.at(t)}}}, 1};
  }

 private:
  /// One postorder tape instruction. Binary ops pop two, push one; leaves
  /// push one. Evaluation is real_t throughout, in the exact association
  /// the lowering emitted.
  struct Op {
    enum class K : std::uint8_t { Const, Load, Param, Add, Sub, Mul, Div };
    K k = K::Const;
    real_t c = 0;          ///< Const
    int slot = 0;          ///< Load: 0 = t, 1 = t-1
    std::ptrdiff_t off = 0;  ///< Load: dx*sx + dy*sy + dz
    int param = 0;         ///< Param: index into prm_
  };

  int flatten(const ir::Expr& e);

  const LoweredKernel& lowered_;
  const physics::AcousticModel& model_;
  grid::TimeBuffer<real_t>& u_;
  DslBlockFn* block_;
  std::string field_name_;
  std::vector<const real_t*> prm_;  ///< param origins, lowered_.params order
  std::vector<Op> tape_;
  real_t dt2_;
  std::ptrdiff_t sx_, sy_;
};

static_assert(core::engine::PhysicsKernel<DslKernel>);

/// Propagator over a DSL-authored equation: lowers the Eq at construction
/// (space order / spacing from the model's geometry, dt resolved as every
/// propagator resolves it) and mirrors AcousticPropagator's run / resume /
/// checkpoint surface, so DSL kernels slot into surveys, RTM and the bench
/// drivers unchanged.
class DslPropagator : public core::engine::Checkpointable<
                          DslPropagator, DslKernel::kFirstStep> {
 public:
  DslPropagator(const Eq& eq, const physics::AcousticModel& model,
                physics::PropagatorOptions opts = {},
                ParamBindings bindings = {}, std::string name = "dsl");

  physics::RunStats run_from(int t_begin, physics::Schedule sched,
                             const sparse::SparseTimeSeries& src,
                             sparse::SparseTimeSeries* rec = nullptr,
                             const physics::StepCallback& on_step = {});

  // run() / state_view() / capture() / restore(): see
  // core::engine::Checkpointable.

  [[nodiscard]] const grid::Grid3<real_t>& wavefield(int t) const {
    return u_.at(t);
  }

  [[nodiscard]] double dt() const { return dt_; }
  [[nodiscard]] const LoweredKernel& lowered() const { return lowered_; }
  [[nodiscard]] const physics::AcousticModel& model() const { return model_; }
  [[nodiscard]] const physics::PropagatorOptions& options() const {
    return opts_;
  }

 protected:
  /// Runs an already-lowered kernel, updating every box through `block` in
  /// place of the tape (null keeps the tape); how codegen::JitDsl runs its
  /// compiled kernel on the engine. `block` must stay loaded while the
  /// propagator lives.
  DslPropagator(LoweredKernel lowered, const physics::AcousticModel& model,
                physics::PropagatorOptions opts, ParamBindings bindings,
                DslBlockFn* block);

 private:
  friend Checkpointable;
  /// Checkpoint state: the three slices of u.
  template <typename Self>
  static auto state(Self& self) {
    return core::engine::state_slices(self.u_);
  }

  const physics::AcousticModel& model_;
  physics::PropagatorOptions opts_;
  double dt_;
  LoweredKernel lowered_;
  ParamBindings bindings_;
  grid::TimeBuffer<real_t> u_;
  DslBlockFn* block_;
};

}  // namespace tempest::dsl
