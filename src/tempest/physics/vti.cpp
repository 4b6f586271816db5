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
          .slots = 2,
          .write_radius = 0};
}

namespace {

/// VTI block update: horizontal Laplacian of p, vertical second derivative
/// of q, coupled through the Thomsen factors. In place, like TTI's: `p`
/// and `q` hold the t-1 slices and receive t+1. R = 0 reads `radius` (see
/// stencil::dispatch_radius).
template <int R>
void update_block(real_t* __restrict p, const real_t* __restrict pc,
                  real_t* __restrict q, const real_t* __restrict qc,
                  const real_t* __restrict m, const real_t* __restrict damp,
                  const real_t* __restrict ah, const real_t* __restrict an,
                  std::ptrdiff_t sx, std::ptrdiff_t sy, const grid::Box3& b,
                  const real_t* __restrict w, int radius, real_t inv_h2,
                  real_t idt2, real_t i2dt) {
  const int r = R > 0 ? R : radius;
  for (int x = b.x.lo; x < b.x.hi; ++x) {
    for (int y = b.y.lo; y < b.y.hi; ++y) {
      const std::ptrdiff_t row = x * sx + y * sy;
#pragma omp simd
      for (int z = b.z.lo; z < b.z.hi; ++z) {
        const std::ptrdiff_t i = row + z;
        real_t hp = real_t{2} * w[0] * pc[i];  // d2x + d2y of p
        real_t hz = w[0] * qc[i];              // d2z of q
#pragma GCC unroll 8
        for (int k = 1; k <= r; ++k) {
          hp += w[k] * (pc[i - k * sx] + pc[i + k * sx] + pc[i - k * sy] +
                        pc[i + k * sy]);
          hz += w[k] * (qc[i - k] + qc[i + k]);
        }
        hp *= inv_h2;
        hz *= inv_h2;
        const real_t denom = m[i] * idt2 + damp[i] * i2dt;
        const real_t pp = p[i];  // p[t-1]
        const real_t qp = q[i];  // q[t-1]
        p[i] = (ah[i] * hp + an[i] * hz +
                m[i] * idt2 * (real_t{2} * pc[i] - pp) + damp[i] * i2dt * pp) /
               denom;
        q[i] = (an[i] * hp + hz + m[i] * idt2 * (real_t{2} * qc[i] - qp) +
                damp[i] * i2dt * qp) /
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
        w_(stencil::folded_central(2, model.geom.space_order)),
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
    real_t* p = p_.at(t + 1).origin();  // the slice of p[t-1]
    const real_t* pc = p_.at(t).origin();
    real_t* q = q_.at(t + 1).origin();  // the slice of q[t-1]
    const real_t* qc = q_.at(t).origin();
    const real_t* m = model_.m.origin();
    const real_t* damp = model_.damp.origin();
    stencil::dispatch_radius(radius(), [&]<int R>() {
      update_block<R>(p, pc, q, qc, m, damp, ah_.origin(), an_.origin(), sx_,
                      sy_, box, w_.data(), radius(), inv_h2_, idt2_, i2dt_);
    });
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
      dt_(opts.dt > 0.0
              ? opts.dt
              : model.critical_dt(util::resolve_threads(opts.threads))),
      p_(vti_access_summary(model.geom.space_order).depth(),
         model.geom.extents, model.geom.radius(), real_t{0},
         util::resolve_threads(opts.threads)),
      q_(p_.slots(), model.geom.extents, model.geom.radius(), real_t{0},
         util::resolve_threads(opts.threads)),
      ah_(grid::Grid3<real_t>::uninitialized(model.geom.extents,
                                             model.geom.radius())),
      an_(grid::Grid3<real_t>::uninitialized(model.geom.extents,
                                             model.geom.radius())) {
  TEMPEST_REQUIRE(opts_.tiles.valid());
  const int threads = util::resolve_threads(opts.threads);
  TEMPEST_REQUIRE_MSG(grid::max_abs(model.theta, threads) == 0.0 &&
                          grid::max_abs(model.phi, threads) == 0.0,
                      "VTI requires an untilted model (theta == phi == 0); "
                      "use TTIPropagator for tilted media");
  // One pass on the propagator's workers writes every padded element of
  // the Thomsen factors; the halo takes eps = delta = 0, so ah = an = 1.
  const grid::Extents3& e = model.geom.extents;
  const int h = model.geom.radius();
  ah_.for_each_padded_row(threads, [&](int x, int y) {
    for (int z = -h; z < e.nz + h; ++z) {
      const bool inside = e.contains({x, y, z});
      const double eps = inside ? model_.epsilon(x, y, z) : 0.0;
      const double delta = inside ? model_.delta(x, y, z) : 0.0;
      ah_(x, y, z) = static_cast<real_t>(1.0 + 2.0 * eps);
      an_(x, y, z) = static_cast<real_t>(std::sqrt(1.0 + 2.0 * delta));
    }
  });
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
