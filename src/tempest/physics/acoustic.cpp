#include "tempest/physics/acoustic.hpp"

#include <vector>

#include "tempest/core/engine.hpp"
#include "tempest/stencil/coefficients.hpp"
#include "tempest/util/align.hpp"
#include "tempest/util/error.hpp"

namespace tempest::physics {

analysis::AccessSummary acoustic_access_summary(int space_order) {
  return {.kernel = "acoustic",
          .field = "u",
          .radius = space_order / 2,
          .substeps = 1,
          .time_reads = {0, -1},
          .slots = 2,
          .write_radius = 0};
}

namespace {

/// The hot kernel: damped acoustic update of one space block at one
/// timestep, in place: `u` holds u[t-1] and receives u[t+1], each element
/// loaded and then stored at its own point. R > 0 is the radius at compile
/// time, so the neighbour loop fully unrolls inside the vectorized z loop;
/// R = 0 reads `radius` (see stencil::dispatch_radius). Pointers are
/// interior origins; all fields share one halo and therefore one set of
/// strides.
template <int R>
void update_block(real_t* __restrict u, const real_t* __restrict uc,
                  const real_t* __restrict m, const real_t* __restrict dmp,
                  std::ptrdiff_t sx, std::ptrdiff_t sy, const grid::Box3& b,
                  const real_t* __restrict w, int radius, real_t inv_h2,
                  real_t idt2, real_t i2dt) {
  const int r = R > 0 ? R : radius;
  for (int x = b.x.lo; x < b.x.hi; ++x) {
    for (int y = b.y.lo; y < b.y.hi; ++y) {
      const std::ptrdiff_t row = x * sx + y * sy;
      const real_t* __restrict ucr = uc + row;
      const real_t* __restrict mr = m + row;
      const real_t* __restrict dr = dmp + row;
      real_t* __restrict ur = u + row;
#pragma omp simd
      for (int z = b.z.lo; z < b.z.hi; ++z) {
        real_t acc = real_t{3} * w[0] * ucr[z];
#pragma GCC unroll 8
        for (int k = 1; k <= r; ++k) {
          acc += w[k] * (ucr[z - k] + ucr[z + k] + ucr[z - k * sy] +
                         ucr[z + k * sy] + ucr[z - k * sx] + ucr[z + k * sx]);
        }
        const real_t lap = acc * inv_h2;
        const real_t up = ur[z];  // u[t-1]
        const real_t num = lap + mr[z] * idt2 * (real_t{2} * ucr[z] - up) +
                           dr[z] * i2dt * up;
        ur[z] = num / (mr[z] * idt2 + dr[z] * i2dt);
      }
    }
  }
}

/// PhysicsKernel adapter for the engine: two-slot time buffer updated in
/// place, single injection/gather field u, `dt^2 / m` injection scaling.
/// A non-null `block` (a compiled update) replaces the AOT template for
/// every box.
class AcousticKernel {
 public:
  static constexpr int kSubstepsPerStep = 1;
  static constexpr int kFirstStep = 1;

  AcousticKernel(const AcousticModel& model, grid::TimeBuffer<real_t>& u,
                 double dt, AcousticBlockFn* block)
      : model_(model),
        u_(u),
        block_(block),
        w_(stencil::folded_central(2, model.geom.space_order)),
        inv_h2_(static_cast<real_t>(
            1.0 / (model.geom.spacing * model.geom.spacing))),
        idt2_(static_cast<real_t>(1.0 / (dt * dt))),
        i2dt_(static_cast<real_t>(1.0 / (2.0 * dt))),
        dt2_(static_cast<real_t>(dt * dt)),
        sx_(u.at(0).stride_x()),
        sy_(u.at(0).stride_y()) {
    TEMPEST_REQUIRE(model.m.stride_x() == sx_ && model.m.stride_y() == sy_);
    // The generated block's vectorization contract: every array it reads
    // is 64-byte aligned Grid3 storage (grid::allocate_storage). Grids
    // guarantee this by construction; assert it where the pointers cross
    // the C ABI so a layout change fails loudly instead of silently
    // de-optimizing the SIMD loop.
    TEMPEST_REQUIRE_MSG(
        block_ == nullptr ||
            (util::is_aligned(u.slot(0).raw()) &&
             util::is_aligned(u.slot(1).raw()) &&
             util::is_aligned(model.m.raw()) &&
             util::is_aligned(model.damp.raw())),
        "field allocations lost their 64-byte alignment");
  }

  [[nodiscard]] const grid::Extents3& extents() const {
    return model_.geom.extents;
  }
  [[nodiscard]] int radius() const { return model_.geom.radius(); }
  [[nodiscard]] analysis::AccessSummary access_summary() const {
    return acoustic_access_summary(model_.geom.space_order);
  }

  void apply(int t, const grid::Box3& box) {
    real_t* u = u_.at(t + 1).origin();  // the slice of u[t-1]
    const real_t* uc = u_.at(t).origin();
    const real_t* m = model_.m.origin();
    const real_t* dmp = model_.damp.origin();
    if (block_ != nullptr) {
      block_(u, uc, m, dmp, sx_, sy_, box.x.lo, box.x.hi, box.y.lo, box.y.hi,
             box.z.lo, box.z.hi, inv_h2_, idt2_, i2dt_);
      return;
    }
    stencil::dispatch_radius(radius(), [&]<int R>() {
      update_block<R>(u, uc, m, dmp, sx_, sy_, box, w_.data(), radius(),
                      inv_h2_, idt2_, i2dt_);
    });
  }

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
    return {{{{"u", &u_.at(t)}}}, 1};
  }

 private:
  const AcousticModel& model_;
  grid::TimeBuffer<real_t>& u_;
  AcousticBlockFn* block_;
  std::vector<real_t> w_;
  real_t inv_h2_, idt2_, i2dt_, dt2_;
  std::ptrdiff_t sx_, sy_;
};

static_assert(core::engine::PhysicsKernel<AcousticKernel>);
// The header's Checkpointable base must name this kernel's first step.
static_assert(
    std::derived_from<AcousticPropagator,
                      core::engine::Checkpointable<
                          AcousticPropagator, AcousticKernel::kFirstStep>>);

}  // namespace

AcousticPropagator::AcousticPropagator(const AcousticModel& model,
                                       PropagatorOptions opts)
    : AcousticPropagator(model, opts, nullptr) {}

AcousticPropagator::AcousticPropagator(const AcousticModel& model,
                                       PropagatorOptions opts,
                                       AcousticBlockFn* block)
    : model_(model),
      opts_(opts),
      dt_(opts.dt > 0.0
              ? opts.dt
              : model.critical_dt(util::resolve_threads(opts.threads))),
      u_(acoustic_access_summary(model.geom.space_order).depth(),
         model.geom.extents, model.geom.radius(), real_t{0},
         util::resolve_threads(opts.threads)),
      block_(block) {
  TEMPEST_REQUIRE(model.geom.space_order >= 2 &&
                  model.geom.space_order % 2 == 0);
  TEMPEST_REQUIRE(opts_.tiles.valid());
  TEMPEST_REQUIRE_MSG(model.vp.halo() == model.geom.radius(),
                      "model fields must carry halo == stencil radius");
}

RunStats AcousticPropagator::run_from(int t_begin, Schedule sched,
                                      const sparse::SparseTimeSeries& src,
                                      sparse::SparseTimeSeries* rec,
                                      const StepCallback& on_step) {
  AcousticKernel kernel(model_, u_, dt_, block_);
  core::engine::ScheduleExecutor executor(kernel, opts_);
  return executor.run_from(t_begin, sched, src, rec, on_step);
}

}  // namespace tempest::physics
