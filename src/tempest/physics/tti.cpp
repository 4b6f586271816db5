#include "tempest/physics/tti.hpp"

#include <cmath>
#include <vector>

#include "tempest/core/engine.hpp"
#include "tempest/stencil/coefficients.hpp"
#include "tempest/util/error.hpp"

namespace tempest::physics {

analysis::AccessSummary tti_access_summary(int space_order) {
  return {.kernel = "tti",
          .field = "u",
          .radius = space_order / 2,
          .substeps = 1,
          .time_reads = {0, -1},
          .slots = 2,
          .write_radius = 0};
}

namespace {

/// Per-point rotated operator evaluation: all second derivatives of field f
/// at linear offset i, returning (laplacian_acc, Hz_acc) without the 1/h^2
/// factor. The mixed terms use the folded antisymmetric first-derivative
/// tensor product (the "cross" stencil).
struct RotatedDerivs {
  real_t lap;
  real_t hz;
};

/// w2: folded second-derivative weights w2[0..r]; w1: folded
/// first-derivative weights w1[1..r] (stencil::folded_central). R = 0 reads
/// `radius`.
template <int R>
inline RotatedDerivs rotated_derivs(
    const real_t* __restrict f, std::ptrdiff_t i, std::ptrdiff_t sx,
    std::ptrdiff_t sy, const real_t* __restrict w2,
    const real_t* __restrict w1, int radius, real_t cxx, real_t cyy,
    real_t czz, real_t cxy, real_t cxz, real_t cyz) {
  const int r = R > 0 ? R : radius;
  real_t d2x = w2[0] * f[i];
  real_t d2y = d2x;
  real_t d2z = d2x;
#pragma GCC unroll 8
  for (int k = 1; k <= r; ++k) {
    d2x += w2[k] * (f[i - k * sx] + f[i + k * sx]);
    d2y += w2[k] * (f[i - k * sy] + f[i + k * sy]);
    d2z += w2[k] * (f[i - k] + f[i + k]);
  }
  real_t dxy = real_t{0}, dxz = real_t{0}, dyz = real_t{0};
  // Unrolled like the k loop, so the caller's z loop is the one GCC
  // vectorizes (otherwise it vectorizes the b loop as a reduction).
#pragma GCC unroll 8
  for (int a = 1; a <= r; ++a) {
    const std::ptrdiff_t ax = a * sx;
    const std::ptrdiff_t ay = a * sy;
#pragma GCC unroll 8
    for (int b = 1; b <= r; ++b) {
      const real_t wab = w1[a] * w1[b];
      const std::ptrdiff_t by = b * sy;
      dxy += wab * (f[i + ax + by] - f[i + ax - by] - f[i - ax + by] +
                    f[i - ax - by]);
      dxz += wab * (f[i + ax + b] - f[i + ax - b] - f[i - ax + b] +
                    f[i - ax - b]);
      dyz += wab * (f[i + ay + b] - f[i + ay - b] - f[i - ay + b] +
                    f[i - ay - b]);
    }
  }
  RotatedDerivs out;
  out.lap = d2x + d2y + d2z;
  out.hz = cxx * d2x + cyy * d2y + czz * d2z +
           real_t{2} * (cxy * dxy + cxz * dxz + cyz * dyz);
  return out;
}

/// Parameter-pointer bundle shared by the kernels (all fields share one set
/// of strides).
struct TTIFields {
  const real_t* m;
  const real_t* damp;
  const real_t* cxx;
  const real_t* cyy;
  const real_t* czz;
  const real_t* cxy;
  const real_t* cxz;
  const real_t* cyz;
  const real_t* ah;
  const real_t* an;
};

/// TTI block update, in place: `p` and `q` hold p[t-1] and q[t-1] and
/// receive p[t+1] and q[t+1], each element loaded and then stored at its
/// own point. R > 0 is the radius at compile time; R = 0 reads `radius`
/// (see stencil::dispatch_radius).
template <int R>
void update_block(real_t* __restrict p, const real_t* __restrict pc,
                  real_t* __restrict q, const real_t* __restrict qc,
                  const TTIFields& f, std::ptrdiff_t sx, std::ptrdiff_t sy,
                  const grid::Box3& b, const real_t* __restrict w2,
                  const real_t* __restrict w1, int radius, real_t inv_h2,
                  real_t idt2, real_t i2dt) {
  for (int x = b.x.lo; x < b.x.hi; ++x) {
    for (int y = b.y.lo; y < b.y.hi; ++y) {
      const std::ptrdiff_t row = x * sx + y * sy;
#pragma omp simd
      for (int z = b.z.lo; z < b.z.hi; ++z) {
        const std::ptrdiff_t i = row + z;
        const RotatedDerivs dp = rotated_derivs<R>(
            pc, i, sx, sy, w2, w1, radius, f.cxx[i], f.cyy[i], f.czz[i],
            f.cxy[i], f.cxz[i], f.cyz[i]);
        const RotatedDerivs dq = rotated_derivs<R>(
            qc, i, sx, sy, w2, w1, radius, f.cxx[i], f.cyy[i], f.czz[i],
            f.cxy[i], f.cxz[i], f.cyz[i]);
        const real_t hperp_p = (dp.lap - dp.hz) * inv_h2;
        const real_t hz_q = dq.hz * inv_h2;
        const real_t denom = f.m[i] * idt2 + f.damp[i] * i2dt;
        const real_t pp = p[i];  // p[t-1]
        const real_t qp = q[i];  // q[t-1]
        p[i] = (f.ah[i] * hperp_p + f.an[i] * hz_q +
                f.m[i] * idt2 * (real_t{2} * pc[i] - pp) +
                f.damp[i] * i2dt * pp) /
               denom;
        q[i] = (f.an[i] * hperp_p + hz_q +
                f.m[i] * idt2 * (real_t{2} * qc[i] - qp) +
                f.damp[i] * i2dt * qp) /
               denom;
      }
    }
  }
}

/// PhysicsKernel adapter: coupled p/q two-slot buffers updated in place,
/// source injected into both, receivers measure p.
class TTIKernel {
 public:
  static constexpr int kSubstepsPerStep = 1;
  static constexpr int kFirstStep = 1;

  TTIKernel(const TTIModel& model, grid::TimeBuffer<real_t>& p,
            grid::TimeBuffer<real_t>& q, const TTIFields& f, double dt)
      : model_(model),
        p_(p),
        q_(q),
        f_(f),
        w2_(stencil::folded_central(2, model.geom.space_order)),
        w1_(stencil::folded_central(1, model.geom.space_order)),
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
    return tti_access_summary(model_.geom.space_order);
  }

  void apply(int t, const grid::Box3& box) {
    real_t* p = p_.at(t + 1).origin();  // the slice of p[t-1]
    const real_t* pc = p_.at(t).origin();
    real_t* q = q_.at(t + 1).origin();  // the slice of q[t-1]
    const real_t* qc = q_.at(t).origin();
    stencil::dispatch_radius(radius(), [&]<int R>() {
      update_block<R>(p, pc, q, qc, f_, sx_, sy_, box, w2_.data(), w1_.data(),
                      radius(), inv_h2_, idt2_, i2dt_);
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
  TTIFields f_;
  std::vector<real_t> w2_, w1_;
  real_t inv_h2_, idt2_, i2dt_, dt2_;
  std::ptrdiff_t sx_, sy_;
};

static_assert(core::engine::PhysicsKernel<TTIKernel>);
// The header's Checkpointable base must name this kernel's first step.
static_assert(
    std::derived_from<TTIPropagator,
                      core::engine::Checkpointable<
                          TTIPropagator, TTIKernel::kFirstStep>>);

/// A coefficient grid of the model's shape, allocated unwritten: the
/// constructor's row pass writes every element.
grid::Grid3<real_t> unwritten(const TTIModel& model) {
  return grid::Grid3<real_t>::uninitialized(model.geom.extents,
                                            model.geom.radius());
}

}  // namespace

TTIPropagator::TTIPropagator(const TTIModel& model, PropagatorOptions opts)
    : model_(model),
      opts_(opts),
      dt_(opts.dt > 0.0
              ? opts.dt
              : model.critical_dt(util::resolve_threads(opts.threads))),
      p_(tti_access_summary(model.geom.space_order).depth(),
         model.geom.extents, model.geom.radius(), real_t{0},
         util::resolve_threads(opts.threads)),
      q_(p_.slots(), model.geom.extents, model.geom.radius(), real_t{0},
         util::resolve_threads(opts.threads)),
      cxx_(unwritten(model)),
      cyy_(unwritten(model)),
      czz_(unwritten(model)),
      cxy_(unwritten(model)),
      cxz_(unwritten(model)),
      cyz_(unwritten(model)),
      ah_(unwritten(model)),
      an_(unwritten(model)) {
  TEMPEST_REQUIRE(model.geom.space_order >= 2 &&
                  model.geom.space_order % 2 == 0);
  TEMPEST_REQUIRE(opts_.tiles.valid());
  // Precompute the symmetry-axis dyad n n^T and the Thomsen factors once:
  // n = (sin t cos f, sin t sin f, cos t) with tilt t and azimuth f. One
  // pass on the propagator's workers writes every padded element; the halo
  // takes n = 0 and eps = delta = 0, so the dyad is 0 there and ah = an = 1.
  const grid::Extents3& e = model.geom.extents;
  const int h = model.geom.radius();
  const int threads = util::resolve_threads(opts.threads);
  cxx_.for_each_padded_row(threads, [&](int x, int y) {
    for (int z = -h; z < e.nz + h; ++z) {
      double nx = 0, ny = 0, nz = 0, eps = 0, delta = 0;
      if (e.contains({x, y, z})) {
        const double t = model_.theta(x, y, z);
        const double f = model_.phi(x, y, z);
        nx = std::sin(t) * std::cos(f);
        ny = std::sin(t) * std::sin(f);
        nz = std::cos(t);
        eps = model_.epsilon(x, y, z);
        delta = model_.delta(x, y, z);
      }
      cxx_(x, y, z) = static_cast<real_t>(nx * nx);
      cyy_(x, y, z) = static_cast<real_t>(ny * ny);
      czz_(x, y, z) = static_cast<real_t>(nz * nz);
      cxy_(x, y, z) = static_cast<real_t>(nx * ny);
      cxz_(x, y, z) = static_cast<real_t>(nx * nz);
      cyz_(x, y, z) = static_cast<real_t>(ny * nz);
      ah_(x, y, z) = static_cast<real_t>(1.0 + 2.0 * eps);
      an_(x, y, z) = static_cast<real_t>(std::sqrt(1.0 + 2.0 * delta));
    }
  });
}

RunStats TTIPropagator::run_from(int t_begin, Schedule sched,
                                 const sparse::SparseTimeSeries& src,
                                 sparse::SparseTimeSeries* rec,
                                 const StepCallback& on_step) {
  const TTIFields f{model_.m.origin(),  model_.damp.origin(), cxx_.origin(),
                    cyy_.origin(),      czz_.origin(),        cxy_.origin(),
                    cxz_.origin(),      cyz_.origin(),        ah_.origin(),
                    an_.origin()};
  TTIKernel kernel(model_, p_, q_, f, dt_);
  core::engine::ScheduleExecutor executor(kernel, opts_);
  return executor.run_from(t_begin, sched, src, rec, on_step);
}

}  // namespace tempest::physics
