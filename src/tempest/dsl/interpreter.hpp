#pragma once

#include <functional>

#include "tempest/config.hpp"
#include "tempest/dsl/expr.hpp"
#include "tempest/dsl/lower.hpp"
#include "tempest/grid/grid3.hpp"
#include "tempest/grid/time_buffer.hpp"
#include "tempest/physics/model.hpp"
#include "tempest/sparse/interp.hpp"
#include "tempest/sparse/series.hpp"

namespace tempest::dsl {

/// Reference interpreter for scalar second-order-in-time equations.
///
/// Evaluates the *symbolic equation tree* point-by-point on tiny grids —
/// no pattern matching, no hand-written kernel — and is therefore an
/// independent oracle for the compiled acoustic kernel: tests assert the
/// optimised propagator and the interpreter agree.
///
/// Semantics: each timestep solves equation(u.forward) == 0 for u.forward at
/// every interior point. The equation must be *linear* in the forward value
/// (true of every explicit FD update); linearity lets the interpreter solve
/// by evaluating the tree at two trial values:
///   A = eq(1) - eq(0),  B = eq(0),  u.forward = -B / A.
/// Derivative nodes are evaluated with the reference stencil helpers;
/// Param nodes resolve by name against the model ("m", "damp").
class Interpreter {
 public:
  /// `update` is the Eq produced by solve(); `space_order` controls the
  /// derivative stencils; `dt` the timestep.
  Interpreter(Eq update, const physics::AcousticModel& model, double dt);

  /// Propagate src for src.nt() steps with naive injection (scale dt^2/m)
  /// and return the final wavefield. O(points * nt * tree) — tiny grids.
  [[nodiscard]] grid::Grid3<real_t> run(const sparse::SparseTimeSeries& src,
                                        sparse::InterpKind kind) const;

 private:
  Eq update_;
  const physics::AcousticModel& model_;
  double dt_;
  std::string field_name_;
};

/// Callback invoked for every grid load the typed evaluator performs:
/// (field, dt, dx, dy, dz). Lets tests observe the *dynamic* access
/// footprint of an update tree and compare it against the structural one
/// the lowering declared.
using LoadObserver =
    std::function<void(const std::string& field, int dt, int dx, int dy,
                       int dz)>;

/// Tree-walking evaluator for *typed IR* update trees (dsl::lower output) —
/// the second interpreter path of the frontend. Unlike Interpreter, which
/// walks the symbolic equation in double and re-discretises derivatives on
/// the fly, this one evaluates the already-discretised ir::Expr in real_t
/// with the exact operand association the lowering emitted, so its results
/// are bit-identical to the DslKernel tape and to JIT-compiled DSL kernels.
/// Used as the cross-check oracle for both.
class TypedInterpreter {
 public:
  TypedInterpreter(const LoweredKernel& lowered,
                   const physics::AcousticModel& model, double dt,
                   ParamBindings bindings = {});

  /// Evaluate the update at one interior point. `observer`, when set, is
  /// called for every Load the walk performs.
  [[nodiscard]] real_t eval_at(const grid::TimeBuffer<real_t>& u, int t,
                               int x, int y, int z,
                               const LoadObserver& observer = {}) const;

 private:
  const LoweredKernel& lowered_;
  const physics::AcousticModel& model_;
  double dt_;
  ParamBindings bindings_;
};

}  // namespace tempest::dsl
