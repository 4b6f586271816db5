#include "tempest/dsl/kernel.hpp"

#include <optional>
#include <utility>

#include "tempest/analysis/statics/lint.hpp"
#include "tempest/analysis/statics/verify.hpp"
#include "tempest/util/align.hpp"
#include "tempest/util/error.hpp"

namespace tempest::dsl {

namespace {

constexpr int kMaxStack = 64;

/// Fold constant subtrees in *field precision*: (3 * w0) folds to the same
/// real_t the hand-written kernel computes at runtime (float multiply of
/// float operands), so folding never perturbs bits — it only shortens the
/// tape.
std::optional<real_t> fold(const ir::Expr& e) {
  switch (e.kind) {
    case ir::Expr::Kind::Const:
      return static_cast<real_t>(e.value);
    case ir::Expr::Kind::Binary: {
      const auto a = fold(*e.a);
      if (!a) return std::nullopt;
      const auto b = fold(*e.b);
      if (!b) return std::nullopt;
      switch (e.op) {
        case '+': return *a + *b;
        case '-': return *a - *b;
        case '*': return *a * *b;
        case '/': return *a / *b;
        default: return std::nullopt;
      }
    }
    default:
      return std::nullopt;
  }
}

}  // namespace

std::vector<const grid::Grid3<real_t>*> resolve_params(
    const LoweredKernel& lowered, const physics::AcousticModel& model,
    const ParamBindings& bindings) {
  std::vector<const grid::Grid3<real_t>*> prm;
  prm.reserve(lowered.params.size());
  for (const std::string& p : lowered.params) {
    const grid::Grid3<real_t>* g = nullptr;
    if (const auto it = bindings.find(p); it != bindings.end()) {
      g = it->second;
    } else if (p == "m") {
      g = &model.m;
    } else if (p == "damp") {
      g = &model.damp;
    } else if (p == "vp") {
      g = &model.vp;
    }
    TEMPEST_REQUIRE_MSG(g != nullptr, "unknown parameter: " + p);
    prm.push_back(g);
  }
  return prm;
}

void require_statics_ok(const LoweredKernel& lowered,
                        const physics::AcousticModel& model,
                        const ParamBindings& bindings, double dt,
                        bool allow_unstable) {
  namespace statics = analysis::statics;
  statics::StaticsOptions sopts;
  sopts.bounds = statics::model_bounds(model, bindings, lowered.field);
  sopts.resolvable = statics::resolvable_names(bindings);
  sopts.declared_radius = model.geom.radius();
  sopts.dt = dt;
  sopts.allow_unstable = allow_unstable;
  statics::require_static_ok(statics::verify_statics(lowered, sopts));
}

int DslKernel::flatten(const ir::Expr& e) {
  if (const auto c = fold(e)) {
    Op op;
    op.k = Op::K::Const;
    op.c = *c;
    tape_.push_back(op);
    return 1;
  }
  switch (e.kind) {
    case ir::Expr::Kind::Load: {
      TEMPEST_REQUIRE_MSG(e.name == field_name_,
                          "DslKernel: update loads unknown field '" + e.name +
                              "'");
      TEMPEST_REQUIRE_MSG(e.dt == 0 || e.dt == -1,
                          "DslKernel: update may read only t and t-1");
      Op op;
      op.k = Op::K::Load;
      op.slot = e.dt == 0 ? 0 : 1;
      op.off = e.dx * sx_ + e.dy * sy_ + e.dz;
      tape_.push_back(op);
      return 1;
    }
    case ir::Expr::Kind::Param: {
      int idx = -1;
      for (std::size_t i = 0; i < lowered_.params.size(); ++i) {
        if (lowered_.params[i] == e.name) {
          idx = static_cast<int>(i);
          break;
        }
      }
      TEMPEST_REQUIRE_MSG(idx >= 0, "DslKernel: unbound parameter '" +
                                        e.name + "'");
      Op op;
      op.k = Op::K::Param;
      op.param = idx;
      tape_.push_back(op);
      return 1;
    }
    case ir::Expr::Kind::Binary: {
      const int da = flatten(*e.a);
      const int db = flatten(*e.b);
      Op op;
      switch (e.op) {
        case '+': op.k = Op::K::Add; break;
        case '-': op.k = Op::K::Sub; break;
        case '*': op.k = Op::K::Mul; break;
        case '/': op.k = Op::K::Div; break;
        default:
          TEMPEST_REQUIRE_MSG(false, "DslKernel: unknown operator");
      }
      tape_.push_back(op);
      // Left subtree evaluates with the right one's operands still pending.
      return std::max(da, 1 + db);
    }
    case ir::Expr::Kind::Const:
      break;  // handled by fold()
  }
  TEMPEST_REQUIRE_MSG(false, "DslKernel: malformed update tree");
  return 0;
}

DslKernel::DslKernel(const LoweredKernel& lowered,
                     const physics::AcousticModel& model,
                     const ParamBindings& bindings,
                     grid::TimeBuffer<real_t>& u, double dt,
                     DslBlockFn* block)
    : lowered_(lowered),
      model_(model),
      u_(u),
      block_(block),
      field_name_(lowered.field),
      dt2_(static_cast<real_t>(dt * dt)),
      sx_(u.at(0).stride_x()),
      sy_(u.at(0).stride_y()) {
  TEMPEST_REQUIRE_MSG(lowered.update != nullptr,
                      "DslKernel: lowered kernel has no update tree");
  TEMPEST_REQUIRE_MSG(lowered.space_order == model.geom.space_order,
                      "DslKernel: lowering space order does not match the "
                      "model geometry");
  TEMPEST_REQUIRE(model.m.stride_x() == sx_ && model.m.stride_y() == sy_);

  // Statics lint gate: a lowered tree whose loads outrun the allocated
  // halo (or its own declared access hulls) would read unowned memory in
  // the tape walk below — reject it here, with the offending offsets
  // named, before any data is touched. resolve_params() covers the
  // unbound-param case, so the lint runs without a resolvable set.
  {
    namespace statics = analysis::statics;
    statics::LintOptions lopts;
    lopts.declared_radius = model.geom.radius();
    const statics::LintReport lint_report =
        statics::lint_kernel(lowered, lopts);
    if (!lint_report.clean()) {
      statics::StaticsReport report;
      report.kernel = lowered.name;
      report.lint = lint_report;
      throw statics::StaticVerificationError(std::move(report));
    }
  }

  // Resolve coefficient grids: the model's own fields by convention, user
  // bindings for everything else (the sponge scenario binds its own "eta").
  const auto grids = resolve_params(lowered, model, bindings);
  for (std::size_t i = 0; i < grids.size(); ++i) {
    TEMPEST_REQUIRE_MSG(
        grids[i]->stride_x() == sx_ && grids[i]->stride_y() == sy_,
        "parameter grid '" + lowered.params[i] +
            "' does not match the wavefield layout");
    TEMPEST_REQUIRE_MSG(block_ == nullptr || util::is_aligned(grids[i]->raw()),
                        "parameter allocations lost their 64-byte alignment");
    prm_.push_back(grids[i]->origin());
  }
  // The compiled block's vectorization contract (see AcousticKernel).
  TEMPEST_REQUIRE_MSG(
      block_ == nullptr || (util::is_aligned(u.slot(0).raw()) &&
                            util::is_aligned(u.slot(1).raw()) &&
                            util::is_aligned(u.slot(2).raw())),
      "field allocations lost their 64-byte alignment");

  const int depth = flatten(*lowered.update);
  TEMPEST_REQUIRE_MSG(depth <= kMaxStack,
                      "DslKernel: update expression too deep");
}

void DslKernel::apply(int t, const grid::Box3& b) {
  real_t* __restrict un = u_.at(t + 1).origin();
  const real_t* base[2] = {u_.at(t).origin(), u_.at(t - 1).origin()};
  if (block_ != nullptr) {
    block_(un, base[0], base[1], prm_.data(), sx_, sy_, b.x.lo, b.x.hi,
           b.y.lo, b.y.hi, b.z.lo, b.z.hi);
    return;
  }
  const Op* const tape = tape_.data();
  const std::size_t n = tape_.size();
  for (int x = b.x.lo; x < b.x.hi; ++x) {
    for (int y = b.y.lo; y < b.y.hi; ++y) {
      const std::ptrdiff_t row = x * sx_ + y * sy_;
      for (int z = b.z.lo; z < b.z.hi; ++z) {
        real_t st[kMaxStack];
        int sp = 0;
        for (std::size_t i = 0; i < n; ++i) {
          const Op& op = tape[i];
          switch (op.k) {
            case Op::K::Const: st[sp++] = op.c; break;
            case Op::K::Load: st[sp++] = base[op.slot][row + z + op.off]; break;
            case Op::K::Param: st[sp++] = prm_[static_cast<std::size_t>(
                                   op.param)][row + z]; break;
            case Op::K::Add: st[sp - 2] += st[sp - 1]; --sp; break;
            case Op::K::Sub: st[sp - 2] -= st[sp - 1]; --sp; break;
            case Op::K::Mul: st[sp - 2] *= st[sp - 1]; --sp; break;
            case Op::K::Div: st[sp - 2] /= st[sp - 1]; --sp; break;
          }
        }
        un[row + z] = st[0];
      }
    }
  }
}

DslPropagator::DslPropagator(const Eq& eq, const physics::AcousticModel& model,
                             physics::PropagatorOptions opts,
                             ParamBindings bindings, std::string name)
    : DslPropagator(
          lower_kernel(eq, model.geom.space_order, model.geom.spacing,
                       opts.dt > 0.0 ? opts.dt : model.critical_dt(),
                       std::move(name)),
          model, opts, std::move(bindings), nullptr) {}

DslPropagator::DslPropagator(LoweredKernel lowered,
                             const physics::AcousticModel& model,
                             physics::PropagatorOptions opts,
                             ParamBindings bindings, DslBlockFn* block)
    : model_(model),
      opts_(opts),
      dt_(opts.dt > 0.0
              ? opts.dt
              : model.critical_dt(util::resolve_threads(opts.threads))),
      lowered_(std::move(lowered)),
      bindings_(std::move(bindings)),
      u_(lowered_.summary().depth(), model.geom.extents, model.geom.radius(),
         real_t{0}, util::resolve_threads(opts.threads)),
      block_(block) {
  TEMPEST_REQUIRE(model.geom.space_order >= 2 &&
                  model.geom.space_order % 2 == 0);
  TEMPEST_REQUIRE(opts_.tiles.valid());
  TEMPEST_REQUIRE_MSG(model.vp.halo() == model.geom.radius(),
                      "model fields must carry halo == stencil radius");
  // A failing spec never reaches the engine.
  require_statics_ok(lowered_, model, bindings_, dt_, opts_.allow_unstable);
}

physics::RunStats DslPropagator::run_from(
    int t_begin, physics::Schedule sched, const sparse::SparseTimeSeries& src,
    sparse::SparseTimeSeries* rec, const physics::StepCallback& on_step) {
  DslKernel kernel(lowered_, model_, bindings_, u_, dt_, block_);
  core::engine::ScheduleExecutor executor(kernel, opts_);
  return executor.run_from(t_begin, sched, src, rec, on_step);
}

}  // namespace tempest::dsl
