#include "tempest/physics/vti.hpp"

#include <cmath>
#include <vector>

#include "tempest/core/engine.hpp"
#include "tempest/stencil/coefficients.hpp"
#include "tempest/util/error.hpp"

namespace tempest::physics {

analysis::AccessSummary vti_access_summary(int space_order) {
  return {.kernel = "vti",
          .field = "u",
          .radius = space_order / 2,
          .substeps = 1,
          .time_reads = {0, -1},
          .write_radius = 0};
}

namespace {

std::vector<real_t> folded_w2(int space_order) {
  const stencil::Coeffs c = stencil::central(2, space_order);
  const int r = stencil::radius_for_order(space_order);
  std::vector<real_t> w(static_cast<std::size_t>(r) + 1);
  for (int k = 0; k <= r; ++k) {
    w[static_cast<std::size_t>(k)] =
        static_cast<real_t>(c.weights[static_cast<std::size_t>(r + k)]);
  }
  return w;
}

/// VTI block update: horizontal Laplacian of p, vertical second derivative
/// of q, coupled through the Thomsen factors.
template <int R>
void update_block(real_t* __restrict pn, const real_t* __restrict pc,
                  const real_t* __restrict pp, real_t* __restrict qn,
                  const real_t* __restrict qc, const real_t* __restrict qp,
                  const real_t* __restrict m, const real_t* __restrict damp,
                  const real_t* __restrict ah, const real_t* __restrict an,
                  std::ptrdiff_t sx, std::ptrdiff_t sy, const grid::Box3& b,
                  const real_t* __restrict w, real_t inv_h2, real_t idt2,
                  real_t i2dt) {
  for (int x = b.x.lo; x < b.x.hi; ++x) {
    for (int y = b.y.lo; y < b.y.hi; ++y) {
      const std::ptrdiff_t row = x * sx + y * sy;
#pragma omp simd
      for (int z = b.z.lo; z < b.z.hi; ++z) {
        const std::ptrdiff_t i = row + z;
        real_t hp = real_t{2} * w[0] * pc[i];  // d2x + d2y of p
        real_t hz = w[0] * qc[i];              // d2z of q
#pragma GCC unroll 8
        for (int k = 1; k <= R; ++k) {
          hp += w[k] * (pc[i - k * sx] + pc[i + k * sx] + pc[i - k * sy] +
                        pc[i + k * sy]);
          hz += w[k] * (qc[i - k] + qc[i + k]);
        }
        hp *= inv_h2;
        hz *= inv_h2;
        const real_t denom = m[i] * idt2 + damp[i] * i2dt;
        pn[i] = (ah[i] * hp + an[i] * hz +
                 m[i] * idt2 * (real_t{2} * pc[i] - pp[i]) +
                 damp[i] * i2dt * pp[i]) /
                denom;
        qn[i] = (an[i] * hp + hz +
                 m[i] * idt2 * (real_t{2} * qc[i] - qp[i]) +
                 damp[i] * i2dt * qp[i]) /
                denom;
      }
    }
  }
}

void update_block_generic(real_t* pn, const real_t* pc, const real_t* pp,
                          real_t* qn, const real_t* qc, const real_t* qp,
                          const real_t* m, const real_t* damp,
                          const real_t* ah, const real_t* an,
                          std::ptrdiff_t sx, std::ptrdiff_t sy,
                          const grid::Box3& b, const real_t* w, int radius,
                          real_t inv_h2, real_t idt2, real_t i2dt) {
  for (int x = b.x.lo; x < b.x.hi; ++x) {
    for (int y = b.y.lo; y < b.y.hi; ++y) {
      const std::ptrdiff_t row = x * sx + y * sy;
      for (int z = b.z.lo; z < b.z.hi; ++z) {
        const std::ptrdiff_t i = row + z;
        real_t hp = real_t{2} * w[0] * pc[i];
        real_t hz = w[0] * qc[i];
        for (int k = 1; k <= radius; ++k) {
          hp += w[k] * (pc[i - k * sx] + pc[i + k * sx] + pc[i - k * sy] +
                        pc[i + k * sy]);
          hz += w[k] * (qc[i - k] + qc[i + k]);
        }
        hp *= inv_h2;
        hz *= inv_h2;
        const real_t denom = m[i] * idt2 + damp[i] * i2dt;
        pn[i] = (ah[i] * hp + an[i] * hz +
                 m[i] * idt2 * (real_t{2} * pc[i] - pp[i]) +
                 damp[i] * i2dt * pp[i]) /
                denom;
        qn[i] = (an[i] * hp + hz +
                 m[i] * idt2 * (real_t{2} * qc[i] - qp[i]) +
                 damp[i] * i2dt * qp[i]) /
                denom;
      }
    }
  }
}

/// PhysicsKernel adapter: identical wiring to TTIKernel (coupled p/q,
/// source into both fields, receivers measure p), cheaper stencil.
class VTIKernel {
 public:
  static constexpr int kSubstepsPerStep = 1;
  static constexpr int kFirstStep = 1;

  VTIKernel(const TTIModel& model, grid::TimeBuffer<real_t>& p,
            grid::TimeBuffer<real_t>& q, const grid::Grid3<real_t>& ah,
            const grid::Grid3<real_t>& an, double dt)
      : model_(model),
        p_(p),
        q_(q),
        ah_(ah),
        an_(an),
        w_(folded_w2(model.geom.space_order)),
        inv_h2_(static_cast<real_t>(
            1.0 / (model.geom.spacing * model.geom.spacing))),
        idt2_(static_cast<real_t>(1.0 / (dt * dt))),
        i2dt_(static_cast<real_t>(1.0 / (2.0 * dt))),
        dt2_(static_cast<real_t>(dt * dt)),
        sx_(p.at(0).stride_x()),
        sy_(p.at(0).stride_y()) {
    TEMPEST_REQUIRE(model.m.stride_x() == sx_);
  }

  [[nodiscard]] const grid::Extents3& extents() const {
    return model_.geom.extents;
  }
  [[nodiscard]] int radius() const { return model_.geom.radius(); }
  [[nodiscard]] analysis::AccessSummary access_summary() const {
    return vti_access_summary(model_.geom.space_order);
  }

  void apply(int t, const grid::Box3& box) {
    real_t* pn = p_.at(t + 1).origin();
    const real_t* pc = p_.at(t).origin();
    const real_t* pp = p_.at(t - 1).origin();
    real_t* qn = q_.at(t + 1).origin();
    const real_t* qc = q_.at(t).origin();
    const real_t* qp = q_.at(t - 1).origin();
    const real_t* m = model_.m.origin();
    const real_t* damp = model_.damp.origin();
    switch (radius()) {
      case 1:
        update_block<1>(pn, pc, pp, qn, qc, qp, m, damp, ah_.origin(),
                        an_.origin(), sx_, sy_, box, w_.data(), inv_h2_,
                        idt2_, i2dt_);
        break;
      case 2:
        update_block<2>(pn, pc, pp, qn, qc, qp, m, damp, ah_.origin(),
                        an_.origin(), sx_, sy_, box, w_.data(), inv_h2_,
                        idt2_, i2dt_);
        break;
      case 4:
        update_block<4>(pn, pc, pp, qn, qc, qp, m, damp, ah_.origin(),
                        an_.origin(), sx_, sy_, box, w_.data(), inv_h2_,
                        idt2_, i2dt_);
        break;
      case 6:
        update_block<6>(pn, pc, pp, qn, qc, qp, m, damp, ah_.origin(),
                        an_.origin(), sx_, sy_, box, w_.data(), inv_h2_,
                        idt2_, i2dt_);
        break;
      default:
        update_block_generic(pn, pc, pp, qn, qc, qp, m, damp, ah_.origin(),
                             an_.origin(), sx_, sy_, box, w_.data(), radius(),
                             inv_h2_, idt2_, i2dt_);
        break;
    }
  }

  [[nodiscard]] real_t inject_scale(int x, int y, int z) const {
    return dt2_ / model_.m(x, y, z);
  }
  [[nodiscard]] core::engine::FieldRefs inject_fields(int t) {
    return {{&p_.at(t + 1), &q_.at(t + 1)}, 2};
  }
  [[nodiscard]] const grid::Grid3<real_t>& gather_field(int t) const {
    return p_.at(t + 1);
  }
  [[nodiscard]] core::engine::HealthFields health_fields(int t) {
    return {{{{"p", &p_.at(t)}, {"q", &q_.at(t)}}}, 2};
  }

 private:
  const TTIModel& model_;
  grid::TimeBuffer<real_t>& p_;
  grid::TimeBuffer<real_t>& q_;
  const grid::Grid3<real_t>& ah_;
  const grid::Grid3<real_t>& an_;
  std::vector<real_t> w_;
  real_t inv_h2_, idt2_, i2dt_, dt2_;
  std::ptrdiff_t sx_, sy_;
};

static_assert(core::engine::PhysicsKernel<VTIKernel>);
// The header's Checkpointable base must name this kernel's first step.
static_assert(
    std::derived_from<VTIPropagator,
                      core::engine::Checkpointable<
                          VTIPropagator, VTIKernel::kFirstStep>>);

}  // namespace

VTIPropagator::VTIPropagator(const TTIModel& model, PropagatorOptions opts)
    : model_(model),
      opts_(opts),
      dt_(opts.dt > 0.0 ? opts.dt : model.critical_dt()),
      p_(3, model.geom.extents, model.geom.radius()),
      q_(3, model.geom.extents, model.geom.radius()),
      ah_(model.geom.extents, model.geom.radius(), real_t{1}),
      an_(model.geom.extents, model.geom.radius(), real_t{1}) {
  TEMPEST_REQUIRE(opts_.tiles.valid());
  TEMPEST_REQUIRE_MSG(grid::max_abs(model.theta) == 0.0 &&
                          grid::max_abs(model.phi) == 0.0,
                      "VTI requires an untilted model (theta == phi == 0); "
                      "use TTIPropagator for tilted media");
  ah_.for_each_interior([&](int x, int y, int z) {
    ah_(x, y, z) = static_cast<real_t>(1.0 + 2.0 * model_.epsilon(x, y, z));
    an_(x, y, z) =
        static_cast<real_t>(std::sqrt(1.0 + 2.0 * model_.delta(x, y, z)));
  });
}

RunStats VTIPropagator::run(Schedule sched,
                            const sparse::SparseTimeSeries& src,
                            sparse::SparseTimeSeries* rec,
                            const StepCallback& on_step) {
  if (rec != nullptr) rec->zero();
  p_.fill(real_t{0});
  q_.fill(real_t{0});
  return run_from(VTIKernel::kFirstStep, sched, src, rec, on_step);
}

RunStats VTIPropagator::run_from(int t_begin, Schedule sched,
                                 const sparse::SparseTimeSeries& src,
                                 sparse::SparseTimeSeries* rec,
                                 const StepCallback& on_step) {
  VTIKernel kernel(model_, p_, q_, ah_, an_, dt_);
  core::engine::ScheduleExecutor executor(kernel, opts_);
  return executor.run_from(t_begin, sched, src, rec, on_step);
}

}  // namespace tempest::physics
