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
          .write_radius = 0};
}

namespace {

/// Folded weights: second derivative (w2[0..R], symmetric) and first
/// derivative (w1[1..R], antisymmetric, centre weight zero).
struct TTIWeights {
  std::vector<real_t> w2;
  std::vector<real_t> w1;
};

TTIWeights folded_weights(int space_order) {
  const stencil::Coeffs c2 = stencil::central(2, space_order);
  const stencil::Coeffs c1 = stencil::central(1, space_order);
  const int r = stencil::radius_for_order(space_order);
  TTIWeights w;
  w.w2.resize(static_cast<std::size_t>(r) + 1);
  w.w1.resize(static_cast<std::size_t>(r) + 1);
  for (int k = 0; k <= r; ++k) {
    w.w2[static_cast<std::size_t>(k)] =
        static_cast<real_t>(c2.weights[static_cast<std::size_t>(r + k)]);
    w.w1[static_cast<std::size_t>(k)] =
        static_cast<real_t>(c1.weights[static_cast<std::size_t>(r + k)]);
  }
  return w;
}

/// Per-point rotated operator evaluation: all second derivatives of field f
/// at linear offset i, returning (laplacian_acc, Hz_acc) without the 1/h^2
/// factor. The mixed terms use the folded antisymmetric first-derivative
/// tensor product (the "cross" stencil).
template <int R>
struct RotatedDerivs {
  real_t lap;
  real_t hz;
};

template <int R>
inline RotatedDerivs<R> rotated_derivs(
    const real_t* __restrict f, std::ptrdiff_t i, std::ptrdiff_t sx,
    std::ptrdiff_t sy, const real_t* __restrict w2,
    const real_t* __restrict w1, real_t cxx, real_t cyy, real_t czz,
    real_t cxy, real_t cxz, real_t cyz) {
  real_t d2x = w2[0] * f[i];
  real_t d2y = d2x;
  real_t d2z = d2x;
#pragma GCC unroll 8
  for (int k = 1; k <= R; ++k) {
    d2x += w2[k] * (f[i - k * sx] + f[i + k * sx]);
    d2y += w2[k] * (f[i - k * sy] + f[i + k * sy]);
    d2z += w2[k] * (f[i - k] + f[i + k]);
  }
  real_t dxy = real_t{0}, dxz = real_t{0}, dyz = real_t{0};
  for (int a = 1; a <= R; ++a) {
    const std::ptrdiff_t ax = a * sx;
    const std::ptrdiff_t ay = a * sy;
    for (int b = 1; b <= R; ++b) {
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
  RotatedDerivs<R> out;
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

template <int R>
void update_block(real_t* __restrict pn, const real_t* __restrict pc,
                  const real_t* __restrict pp, real_t* __restrict qn,
                  const real_t* __restrict qc, const real_t* __restrict qp,
                  const TTIFields& f, std::ptrdiff_t sx, std::ptrdiff_t sy,
                  const grid::Box3& b, const real_t* __restrict w2,
                  const real_t* __restrict w1, real_t inv_h2, real_t idt2,
                  real_t i2dt) {
  for (int x = b.x.lo; x < b.x.hi; ++x) {
    for (int y = b.y.lo; y < b.y.hi; ++y) {
      const std::ptrdiff_t row = x * sx + y * sy;
#pragma omp simd
      for (int z = b.z.lo; z < b.z.hi; ++z) {
        const std::ptrdiff_t i = row + z;
        const RotatedDerivs<R> dp = rotated_derivs<R>(
            pc, i, sx, sy, w2, w1, f.cxx[i], f.cyy[i], f.czz[i], f.cxy[i],
            f.cxz[i], f.cyz[i]);
        const RotatedDerivs<R> dq = rotated_derivs<R>(
            qc, i, sx, sy, w2, w1, f.cxx[i], f.cyy[i], f.czz[i], f.cxy[i],
            f.cxz[i], f.cyz[i]);
        const real_t hperp_p = (dp.lap - dp.hz) * inv_h2;
        const real_t hz_q = dq.hz * inv_h2;
        const real_t denom = f.m[i] * idt2 + f.damp[i] * i2dt;
        pn[i] = (f.ah[i] * hperp_p + f.an[i] * hz_q +
                 f.m[i] * idt2 * (real_t{2} * pc[i] - pp[i]) +
                 f.damp[i] * i2dt * pp[i]) /
                denom;
        qn[i] = (f.an[i] * hperp_p + hz_q +
                 f.m[i] * idt2 * (real_t{2} * qc[i] - qp[i]) +
                 f.damp[i] * i2dt * qp[i]) /
                denom;
      }
    }
  }
}

/// Runtime-radius fallback (same arithmetic/summation order).
void update_block_generic(real_t* pn, const real_t* pc, const real_t* pp,
                          real_t* qn, const real_t* qc, const real_t* qp,
                          const TTIFields& f, std::ptrdiff_t sx,
                          std::ptrdiff_t sy, const grid::Box3& b,
                          const real_t* w2, const real_t* w1, int radius,
                          real_t inv_h2, real_t idt2, real_t i2dt) {
  auto derivs = [&](const real_t* fld, std::ptrdiff_t i, real_t cxx,
                    real_t cyy, real_t czz, real_t cxy, real_t cxz,
                    real_t cyz, real_t& lap, real_t& hz) {
    real_t d2x = w2[0] * fld[i], d2y = d2x, d2z = d2x;
    for (int k = 1; k <= radius; ++k) {
      d2x += w2[k] * (fld[i - k * sx] + fld[i + k * sx]);
      d2y += w2[k] * (fld[i - k * sy] + fld[i + k * sy]);
      d2z += w2[k] * (fld[i - k] + fld[i + k]);
    }
    real_t dxy = 0, dxz = 0, dyz = 0;
    for (int a = 1; a <= radius; ++a) {
      for (int b2 = 1; b2 <= radius; ++b2) {
        const real_t wab = w1[a] * w1[b2];
        const std::ptrdiff_t ax = a * sx, ay = a * sy, by = b2 * sy;
        dxy += wab * (fld[i + ax + by] - fld[i + ax - by] -
                      fld[i - ax + by] + fld[i - ax - by]);
        dxz += wab * (fld[i + ax + b2] - fld[i + ax - b2] -
                      fld[i - ax + b2] + fld[i - ax - b2]);
        dyz += wab * (fld[i + ay + b2] - fld[i + ay - b2] -
                      fld[i - ay + b2] + fld[i - ay - b2]);
      }
    }
    lap = d2x + d2y + d2z;
    hz = cxx * d2x + cyy * d2y + czz * d2z +
         real_t{2} * (cxy * dxy + cxz * dxz + cyz * dyz);
  };

  for (int x = b.x.lo; x < b.x.hi; ++x) {
    for (int y = b.y.lo; y < b.y.hi; ++y) {
      const std::ptrdiff_t row = x * sx + y * sy;
      for (int z = b.z.lo; z < b.z.hi; ++z) {
        const std::ptrdiff_t i = row + z;
        real_t lap_p, hz_p, lap_q, hz_q_raw;
        derivs(pc, i, f.cxx[i], f.cyy[i], f.czz[i], f.cxy[i], f.cxz[i],
               f.cyz[i], lap_p, hz_p);
        derivs(qc, i, f.cxx[i], f.cyy[i], f.czz[i], f.cxy[i], f.cxz[i],
               f.cyz[i], lap_q, hz_q_raw);
        const real_t hperp_p = (lap_p - hz_p) * inv_h2;
        const real_t hz_q = hz_q_raw * inv_h2;
        const real_t denom = f.m[i] * idt2 + f.damp[i] * i2dt;
        pn[i] = (f.ah[i] * hperp_p + f.an[i] * hz_q +
                 f.m[i] * idt2 * (real_t{2} * pc[i] - pp[i]) +
                 f.damp[i] * i2dt * pp[i]) /
                denom;
        qn[i] = (f.an[i] * hperp_p + hz_q +
                 f.m[i] * idt2 * (real_t{2} * qc[i] - qp[i]) +
                 f.damp[i] * i2dt * qp[i]) /
                denom;
      }
    }
  }
}

/// PhysicsKernel adapter: coupled p/q three-slot buffers, source injected
/// into both, receivers measure p.
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
        w_(folded_weights(model.geom.space_order)),
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
    real_t* pn = p_.at(t + 1).origin();
    const real_t* pc = p_.at(t).origin();
    const real_t* pp = p_.at(t - 1).origin();
    real_t* qn = q_.at(t + 1).origin();
    const real_t* qc = q_.at(t).origin();
    const real_t* qp = q_.at(t - 1).origin();
    switch (radius()) {
      case 1:
        update_block<1>(pn, pc, pp, qn, qc, qp, f_, sx_, sy_, box,
                        w_.w2.data(), w_.w1.data(), inv_h2_, idt2_, i2dt_);
        break;
      case 2:
        update_block<2>(pn, pc, pp, qn, qc, qp, f_, sx_, sy_, box,
                        w_.w2.data(), w_.w1.data(), inv_h2_, idt2_, i2dt_);
        break;
      case 4:
        update_block<4>(pn, pc, pp, qn, qc, qp, f_, sx_, sy_, box,
                        w_.w2.data(), w_.w1.data(), inv_h2_, idt2_, i2dt_);
        break;
      case 6:
        update_block<6>(pn, pc, pp, qn, qc, qp, f_, sx_, sy_, box,
                        w_.w2.data(), w_.w1.data(), inv_h2_, idt2_, i2dt_);
        break;
      default:
        update_block_generic(pn, pc, pp, qn, qc, qp, f_, sx_, sy_, box,
                             w_.w2.data(), w_.w1.data(), radius(), inv_h2_,
                             idt2_, i2dt_);
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
  TTIFields f_;
  TTIWeights w_;
  real_t inv_h2_, idt2_, i2dt_, dt2_;
  std::ptrdiff_t sx_, sy_;
};

static_assert(core::engine::PhysicsKernel<TTIKernel>);
// The header's Checkpointable base must name this kernel's first step.
static_assert(
    std::derived_from<TTIPropagator,
                      core::engine::Checkpointable<
                          TTIPropagator, TTIKernel::kFirstStep>>);

}  // namespace

TTIPropagator::TTIPropagator(const TTIModel& model, PropagatorOptions opts)
    : model_(model),
      opts_(opts),
      dt_(opts.dt > 0.0 ? opts.dt : model.critical_dt()),
      p_(3, model.geom.extents, model.geom.radius()),
      q_(3, model.geom.extents, model.geom.radius()),
      cxx_(model.geom.extents, model.geom.radius(), real_t{0}),
      cyy_(model.geom.extents, model.geom.radius(), real_t{0}),
      czz_(model.geom.extents, model.geom.radius(), real_t{0}),
      cxy_(model.geom.extents, model.geom.radius(), real_t{0}),
      cxz_(model.geom.extents, model.geom.radius(), real_t{0}),
      cyz_(model.geom.extents, model.geom.radius(), real_t{0}),
      ah_(model.geom.extents, model.geom.radius(), real_t{1}),
      an_(model.geom.extents, model.geom.radius(), real_t{1}) {
  TEMPEST_REQUIRE(model.geom.space_order >= 2 &&
                  model.geom.space_order % 2 == 0);
  TEMPEST_REQUIRE(opts_.tiles.valid());
  // Precompute the symmetry-axis dyad n n^T and the Thomsen factors once:
  // n = (sin t cos f, sin t sin f, cos t) with tilt t and azimuth f.
  cxx_.for_each_interior([&](int x, int y, int z) {
    const double t = model_.theta(x, y, z);
    const double f = model_.phi(x, y, z);
    const double nx = std::sin(t) * std::cos(f);
    const double ny = std::sin(t) * std::sin(f);
    const double nz = std::cos(t);
    cxx_(x, y, z) = static_cast<real_t>(nx * nx);
    cyy_(x, y, z) = static_cast<real_t>(ny * ny);
    czz_(x, y, z) = static_cast<real_t>(nz * nz);
    cxy_(x, y, z) = static_cast<real_t>(nx * ny);
    cxz_(x, y, z) = static_cast<real_t>(nx * nz);
    cyz_(x, y, z) = static_cast<real_t>(ny * nz);
    ah_(x, y, z) =
        static_cast<real_t>(1.0 + 2.0 * model_.epsilon(x, y, z));
    an_(x, y, z) =
        static_cast<real_t>(std::sqrt(1.0 + 2.0 * model_.delta(x, y, z)));
  });
}

RunStats TTIPropagator::run(Schedule sched,
                            const sparse::SparseTimeSeries& src,
                            sparse::SparseTimeSeries* rec,
                            const StepCallback& on_step) {
  if (rec != nullptr) rec->zero();
  p_.fill(real_t{0});
  q_.fill(real_t{0});
  return run_from(TTIKernel::kFirstStep, sched, src, rec, on_step);
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
