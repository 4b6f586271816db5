#include "tempest/physics/elastic.hpp"

#include <vector>

#include "tempest/core/engine.hpp"
#include "tempest/stencil/coefficients.hpp"
#include "tempest/util/error.hpp"

namespace tempest::physics {

analysis::AccessSummary elastic_access_summary(int space_order) {
  // Two dependent half-updates per timestep, each reaching ±radius: the
  // per-timestep dependence distance the time tiler must cover is doubled.
  return {.kernel = "elastic",
          .field = "u",
          .radius = 2 * (space_order / 2),
          .substeps = 2,
          .time_reads = {0},
          .write_radius = 0};
}

namespace {

/// Folded staggered-derivative weights ws[1..R]: with g a field staggered by
/// +1/2 relative to the evaluation grid,
///   D+ g(i) = sum_k ws[k] (g[i+k]   - g[i+1-k])   (result at i + 1/2)
///   D- g(i) = sum_k ws[k] (g[i+k-1] - g[i-k])     (result at i)
std::vector<real_t> folded_staggered(int space_order) {
  const stencil::Coeffs c = stencil::staggered_first(space_order);
  const int r = stencil::radius_for_order(space_order);
  std::vector<real_t> ws(static_cast<std::size_t>(r) + 1, real_t{0});
  for (int k = 1; k <= r; ++k) {
    // Weight of the sample at offset +k - 1/2 from the evaluation point.
    ws[static_cast<std::size_t>(k)] =
        static_cast<real_t>(c.weights[static_cast<std::size_t>(r + k - 1)]);
  }
  return ws;
}

struct ElasticFields {
  real_t* vx;
  real_t* vy;
  real_t* vz;
  real_t* txx;
  real_t* tyy;
  real_t* tzz;
  real_t* txy;
  real_t* txz;
  real_t* tyz;
  const real_t* lam;
  const real_t* mu;
  const real_t* b;
  const real_t* damp;
};

/// Velocity half-update: v += dt * b * div(tau), with the point-local sponge
/// factor (1 - damp dt) applied multiplicatively.
template <int R>
void v_block(const ElasticFields& f, std::ptrdiff_t sx, std::ptrdiff_t sy,
             const grid::Box3& blk, const real_t* __restrict w, real_t inv_h,
             real_t dt) {
  for (int x = blk.x.lo; x < blk.x.hi; ++x) {
    for (int y = blk.y.lo; y < blk.y.hi; ++y) {
      const std::ptrdiff_t row = x * sx + y * sy;
#pragma omp simd
      for (int z = blk.z.lo; z < blk.z.hi; ++z) {
        const std::ptrdiff_t i = row + z;
        real_t dxx = 0, dxy = 0, dxz = 0;  // terms of div tau, row x
        real_t dyx = 0, dyy = 0, dyz = 0;  // row y
        real_t dzx = 0, dzy = 0, dzz = 0;  // row z
#pragma GCC unroll 8
        for (int k = 1; k <= R; ++k) {
          const std::ptrdiff_t kx = k * sx, ky = k * sy;
          const std::ptrdiff_t kx1 = (k - 1) * sx, ky1 = (k - 1) * sy;
          // vx at (i+1/2): D+x txx, D-y txy, D-z txz
          dxx += w[k] * (f.txx[i + kx] - f.txx[i + sx - kx]);
          dxy += w[k] * (f.txy[i + ky1] - f.txy[i - ky]);
          dxz += w[k] * (f.txz[i + k - 1] - f.txz[i - k]);
          // vy at (j+1/2): D-x txy, D+y tyy, D-z tyz
          dyx += w[k] * (f.txy[i + kx1] - f.txy[i - kx]);
          dyy += w[k] * (f.tyy[i + ky] - f.tyy[i + sy - ky]);
          dyz += w[k] * (f.tyz[i + k - 1] - f.tyz[i - k]);
          // vz at (k+1/2): D-x txz, D-y tyz, D+z tzz
          dzx += w[k] * (f.txz[i + kx1] - f.txz[i - kx]);
          dzy += w[k] * (f.tyz[i + ky1] - f.tyz[i - ky]);
          dzz += w[k] * (f.tzz[i + k] - f.tzz[i + 1 - k]);
        }
        const real_t fac = real_t{1} - f.damp[i] * dt;
        const real_t bdt = f.b[i] * dt * inv_h;
        f.vx[i] = f.vx[i] * fac + bdt * (dxx + dxy + dxz);
        f.vy[i] = f.vy[i] * fac + bdt * (dyx + dyy + dyz);
        f.vz[i] = f.vz[i] * fac + bdt * (dzx + dzy + dzz);
      }
    }
  }
}

/// Stress half-update: tau += dt (lam tr(grad v) I + mu (grad v + grad v^T)).
template <int R>
void tau_block(const ElasticFields& f, std::ptrdiff_t sx, std::ptrdiff_t sy,
               const grid::Box3& blk, const real_t* __restrict w,
               real_t inv_h, real_t dt) {
  for (int x = blk.x.lo; x < blk.x.hi; ++x) {
    for (int y = blk.y.lo; y < blk.y.hi; ++y) {
      const std::ptrdiff_t row = x * sx + y * sy;
#pragma omp simd
      for (int z = blk.z.lo; z < blk.z.hi; ++z) {
        const std::ptrdiff_t i = row + z;
        real_t exx = 0, eyy = 0, ezz = 0;        // D- of v at integer points
        real_t vxy = 0, vyx = 0;                 // D+ cross terms
        real_t vxz = 0, vzx = 0, vyz = 0, vzy = 0;
#pragma GCC unroll 8
        for (int k = 1; k <= R; ++k) {
          const std::ptrdiff_t kx = k * sx, ky = k * sy;
          const std::ptrdiff_t kx1 = (k - 1) * sx, ky1 = (k - 1) * sy;
          exx += w[k] * (f.vx[i + kx1] - f.vx[i - kx]);
          eyy += w[k] * (f.vy[i + ky1] - f.vy[i - ky]);
          ezz += w[k] * (f.vz[i + k - 1] - f.vz[i - k]);
          vxy += w[k] * (f.vx[i + ky] - f.vx[i + sy - ky]);  // D+y vx
          vyx += w[k] * (f.vy[i + kx] - f.vy[i + sx - kx]);  // D+x vy
          vxz += w[k] * (f.vx[i + k] - f.vx[i + 1 - k]);     // D+z vx
          vzx += w[k] * (f.vz[i + kx] - f.vz[i + sx - kx]);  // D+x vz
          vyz += w[k] * (f.vy[i + k] - f.vy[i + 1 - k]);     // D+z vy
          vzy += w[k] * (f.vz[i + ky] - f.vz[i + sy - ky]);  // D+y vz
        }
        const real_t fac = real_t{1} - f.damp[i] * dt;
        const real_t lam = f.lam[i] * dt * inv_h;
        const real_t mu2 = real_t{2} * f.mu[i] * dt * inv_h;
        const real_t mu = f.mu[i] * dt * inv_h;
        const real_t tr = exx + eyy + ezz;
        f.txx[i] = f.txx[i] * fac + lam * tr + mu2 * exx;
        f.tyy[i] = f.tyy[i] * fac + lam * tr + mu2 * eyy;
        f.tzz[i] = f.tzz[i] * fac + lam * tr + mu2 * ezz;
        f.txy[i] = f.txy[i] * fac + mu * (vxy + vyx);
        f.txz[i] = f.txz[i] * fac + mu * (vxz + vzx);
        f.tyz[i] = f.tyz[i] * fac + mu * (vyz + vzy);
      }
    }
  }
}

/// Radius dispatch shared by both half-updates.
template <typename F1, typename F2, typename F4, typename F6, typename FG>
void dispatch_radius(int radius, F1&& f1, F2&& f2, F4&& f4, F6&& f6,
                     FG&& fg) {
  switch (radius) {
    case 1: f1(); break;
    case 2: f2(); break;
    case 4: f4(); break;
    case 6: f6(); break;
    default: fg(); break;
  }
}

/// Runtime-radius fallbacks reuse the templates with R passed as a loop
/// bound via a large instantiation guard: define a generic copy instead.
void v_block_generic(const ElasticFields& f, std::ptrdiff_t sx,
                     std::ptrdiff_t sy, const grid::Box3& blk,
                     const real_t* w, int radius, real_t inv_h, real_t dt) {
  for (int x = blk.x.lo; x < blk.x.hi; ++x) {
    for (int y = blk.y.lo; y < blk.y.hi; ++y) {
      const std::ptrdiff_t row = x * sx + y * sy;
      for (int z = blk.z.lo; z < blk.z.hi; ++z) {
        const std::ptrdiff_t i = row + z;
        real_t divx = 0, divy = 0, divz = 0;
        for (int k = 1; k <= radius; ++k) {
          const std::ptrdiff_t kx = k * sx, ky = k * sy;
          const std::ptrdiff_t kx1 = (k - 1) * sx, ky1 = (k - 1) * sy;
          divx += w[k] * (f.txx[i + kx] - f.txx[i + sx - kx]) +
                  w[k] * (f.txy[i + ky1] - f.txy[i - ky]) +
                  w[k] * (f.txz[i + k - 1] - f.txz[i - k]);
          divy += w[k] * (f.txy[i + kx1] - f.txy[i - kx]) +
                  w[k] * (f.tyy[i + ky] - f.tyy[i + sy - ky]) +
                  w[k] * (f.tyz[i + k - 1] - f.tyz[i - k]);
          divz += w[k] * (f.txz[i + kx1] - f.txz[i - kx]) +
                  w[k] * (f.tyz[i + ky1] - f.tyz[i - ky]) +
                  w[k] * (f.tzz[i + k] - f.tzz[i + 1 - k]);
        }
        const real_t fac = real_t{1} - f.damp[i] * dt;
        const real_t bdt = f.b[i] * dt * inv_h;
        f.vx[i] = f.vx[i] * fac + bdt * divx;
        f.vy[i] = f.vy[i] * fac + bdt * divy;
        f.vz[i] = f.vz[i] * fac + bdt * divz;
      }
    }
  }
}

void tau_block_generic(const ElasticFields& f, std::ptrdiff_t sx,
                       std::ptrdiff_t sy, const grid::Box3& blk,
                       const real_t* w, int radius, real_t inv_h, real_t dt) {
  for (int x = blk.x.lo; x < blk.x.hi; ++x) {
    for (int y = blk.y.lo; y < blk.y.hi; ++y) {
      const std::ptrdiff_t row = x * sx + y * sy;
      for (int z = blk.z.lo; z < blk.z.hi; ++z) {
        const std::ptrdiff_t i = row + z;
        real_t exx = 0, eyy = 0, ezz = 0, vxy = 0, vyx = 0, vxz = 0, vzx = 0,
               vyz = 0, vzy = 0;
        for (int k = 1; k <= radius; ++k) {
          const std::ptrdiff_t kx = k * sx, ky = k * sy;
          const std::ptrdiff_t kx1 = (k - 1) * sx, ky1 = (k - 1) * sy;
          exx += w[k] * (f.vx[i + kx1] - f.vx[i - kx]);
          eyy += w[k] * (f.vy[i + ky1] - f.vy[i - ky]);
          ezz += w[k] * (f.vz[i + k - 1] - f.vz[i - k]);
          vxy += w[k] * (f.vx[i + ky] - f.vx[i + sy - ky]);
          vyx += w[k] * (f.vy[i + kx] - f.vy[i + sx - kx]);
          vxz += w[k] * (f.vx[i + k] - f.vx[i + 1 - k]);
          vzx += w[k] * (f.vz[i + kx] - f.vz[i + sx - kx]);
          vyz += w[k] * (f.vy[i + k] - f.vy[i + 1 - k]);
          vzy += w[k] * (f.vz[i + ky] - f.vz[i + sy - ky]);
        }
        const real_t fac = real_t{1} - f.damp[i] * dt;
        const real_t lam = f.lam[i] * dt * inv_h;
        const real_t mu2 = real_t{2} * f.mu[i] * dt * inv_h;
        const real_t mu = f.mu[i] * dt * inv_h;
        const real_t tr = exx + eyy + ezz;
        f.txx[i] = f.txx[i] * fac + lam * tr + mu2 * exx;
        f.tyy[i] = f.tyy[i] * fac + lam * tr + mu2 * eyy;
        f.tzz[i] = f.tzz[i] * fac + lam * tr + mu2 * ezz;
        f.txy[i] = f.txy[i] * fac + mu * (vxy + vyx);
        f.txz[i] = f.txz[i] * fac + mu * (vxz + vzx);
        f.tyz[i] = f.tyz[i] * fac + mu * (vyz + vzy);
      }
    }
  }
}

/// PhysicsKernel adapter: two substeps per timestep (velocity then stress),
/// first-order in time so every field is a single flat grid. The source is
/// explosive (diagonal stresses); receivers record vz.
class ElasticKernel {
 public:
  static constexpr int kSubstepsPerStep = 2;
  static constexpr int kFirstStep = 0;

  ElasticKernel(const ElasticModel& model, grid::Grid3<real_t>& vx,
                grid::Grid3<real_t>& vy, grid::Grid3<real_t>& vz,
                grid::Grid3<real_t>& txx, grid::Grid3<real_t>& tyy,
                grid::Grid3<real_t>& tzz, grid::Grid3<real_t>& txy,
                grid::Grid3<real_t>& txz, grid::Grid3<real_t>& tyz,
                double dt)
      : model_(model),
        vx_(vx),
        vy_(vy),
        vz_(vz),
        txx_(txx),
        tyy_(tyy),
        tzz_(tzz),
        f_{vx.origin(),        vy.origin(),        vz.origin(),
           txx.origin(),       tyy.origin(),       tzz.origin(),
           txy.origin(),       txz.origin(),       tyz.origin(),
           model.lam.origin(), model.mu.origin(),  model.b.origin(),
           model.damp.origin()},
        w_(folded_staggered(model.geom.space_order)),
        inv_h_(static_cast<real_t>(1.0 / model.geom.spacing)),
        dt_(static_cast<real_t>(dt)),
        sx_(vx.stride_x()),
        sy_(vx.stride_y()) {
    TEMPEST_REQUIRE(model.lam.stride_x() == sx_);
  }

  [[nodiscard]] const grid::Extents3& extents() const {
    return model_.geom.extents;
  }
  [[nodiscard]] int radius() const { return model_.geom.radius(); }
  [[nodiscard]] analysis::AccessSummary access_summary() const {
    return elastic_access_summary(model_.geom.space_order);
  }

  /// One half-step block: even substeps update v, odd update tau. The
  /// substep index is what the temporal schedules skew over (slope = radius
  /// per half-step == the paper's shifted wavefront angle for staggered
  /// multi-grid updates).
  void apply(int h, const grid::Box3& box) {
    const real_t* w = w_.data();
    if ((h & 1) == 0) {
      dispatch_radius(
          radius(),
          [&] { v_block<1>(f_, sx_, sy_, box, w, inv_h_, dt_); },
          [&] { v_block<2>(f_, sx_, sy_, box, w, inv_h_, dt_); },
          [&] { v_block<4>(f_, sx_, sy_, box, w, inv_h_, dt_); },
          [&] { v_block<6>(f_, sx_, sy_, box, w, inv_h_, dt_); },
          [&] {
            v_block_generic(f_, sx_, sy_, box, w, radius(), inv_h_, dt_);
          });
    } else {
      dispatch_radius(
          radius(),
          [&] { tau_block<1>(f_, sx_, sy_, box, w, inv_h_, dt_); },
          [&] { tau_block<2>(f_, sx_, sy_, box, w, inv_h_, dt_); },
          [&] { tau_block<4>(f_, sx_, sy_, box, w, inv_h_, dt_); },
          [&] { tau_block<6>(f_, sx_, sy_, box, w, inv_h_, dt_); },
          [&] {
            tau_block_generic(f_, sx_, sy_, box, w, radius(), inv_h_, dt_);
          });
    }
  }

  /// Explosive source: injected equally into the three diagonal stresses,
  /// scaled by dt (the time integration factor of the first-order system).
  [[nodiscard]] real_t inject_scale(int, int, int) const { return dt_; }
  [[nodiscard]] core::engine::FieldRefs inject_fields(int) {
    return {{&txx_, &tyy_, &tzz_}, 3};
  }
  [[nodiscard]] const grid::Grid3<real_t>& gather_field(int) const {
    return vz_;
  }
  [[nodiscard]] core::engine::HealthFields health_fields(int) {
    return {{{{"vx", &vx_}, {"vy", &vy_}, {"vz", &vz_}}}, 3};
  }

 private:
  const ElasticModel& model_;
  grid::Grid3<real_t>& vx_;
  grid::Grid3<real_t>& vy_;
  grid::Grid3<real_t>& vz_;
  grid::Grid3<real_t>& txx_;
  grid::Grid3<real_t>& tyy_;
  grid::Grid3<real_t>& tzz_;
  ElasticFields f_;
  std::vector<real_t> w_;
  real_t inv_h_, dt_;
  std::ptrdiff_t sx_, sy_;
};

static_assert(core::engine::PhysicsKernel<ElasticKernel>);
// The header's Checkpointable base must name this kernel's first step.
static_assert(
    std::derived_from<ElasticPropagator,
                      core::engine::Checkpointable<
                          ElasticPropagator, ElasticKernel::kFirstStep>>);

}  // namespace

ElasticPropagator::ElasticPropagator(const ElasticModel& model,
                                     PropagatorOptions opts)
    : model_(model),
      opts_(opts),
      dt_(opts.dt > 0.0 ? opts.dt : model.critical_dt()),
      vx_(model.geom.extents, model.geom.radius(), real_t{0}),
      vy_(model.geom.extents, model.geom.radius(), real_t{0}),
      vz_(model.geom.extents, model.geom.radius(), real_t{0}),
      txx_(model.geom.extents, model.geom.radius(), real_t{0}),
      tyy_(model.geom.extents, model.geom.radius(), real_t{0}),
      tzz_(model.geom.extents, model.geom.radius(), real_t{0}),
      txy_(model.geom.extents, model.geom.radius(), real_t{0}),
      txz_(model.geom.extents, model.geom.radius(), real_t{0}),
      tyz_(model.geom.extents, model.geom.radius(), real_t{0}) {
  TEMPEST_REQUIRE(model.geom.space_order >= 2 &&
                  model.geom.space_order % 2 == 0);
  TEMPEST_REQUIRE(opts_.tiles.valid());
}

RunStats ElasticPropagator::run(Schedule sched,
                                const sparse::SparseTimeSeries& src,
                                sparse::SparseTimeSeries* rec,
                                const StepCallback& on_step) {
  if (rec != nullptr) rec->zero();
  for (auto* g : {&vx_, &vy_, &vz_, &txx_, &tyy_, &tzz_, &txy_, &txz_, &tyz_})
    g->fill(real_t{0});
  return run_from(ElasticKernel::kFirstStep, sched, src, rec, on_step);
}

RunStats ElasticPropagator::run_from(int t_begin, Schedule sched,
                                     const sparse::SparseTimeSeries& src,
                                     sparse::SparseTimeSeries* rec,
                                     const StepCallback& on_step) {
  ElasticKernel kernel(model_, vx_, vy_, vz_, txx_, tyy_, tzz_, txy_, txz_,
                       tyz_, dt_);
  core::engine::ScheduleExecutor executor(kernel, opts_);
  return executor.run_from(t_begin, sched, src, rec, on_step);
}

}  // namespace tempest::physics
