// The engine executes the tile plan it proves: a recording PhysicsKernel
// sees exactly TilePlan::ops() of the plan the run's geometry defines, and
// the pre-run gates (schedule legality, write radius) throw before the
// first block is computed. A temporally blocked shot allocates no
// grid-sized precompute buffer, and a model build no field beyond its own.

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <vector>

#include "tempest/core/engine.hpp"
#include "tempest/core/tile_plan.hpp"
#include "tempest/physics/acoustic.hpp"
#include "tempest/physics/model.hpp"
#include "tempest/sparse/survey.hpp"
#include "tempest/sparse/wavelet.hpp"

namespace an = tempest::analysis;
namespace ph = tempest::physics;
namespace tc = tempest::core;
namespace eng = tempest::core::engine;
namespace tg = tempest::grid;
namespace sp = tempest::sparse;
using tempest::real_t;

namespace {

/// A kernel that computes nothing and records every (substep, box) the
/// executor hands it. S substeps per timestep; the first computable step
/// follows the physics convention (1 for S = 1, 0 for S = 2).
template <int S>
struct RecordingKernel {
  static constexpr int kSubstepsPerStep = S;
  static constexpr int kFirstStep = S == 1 ? 1 : 0;

  tg::Extents3 e;
  int r = 1;
  an::AccessSummary summary;
  tg::Grid3<real_t> field;
  std::vector<tc::ScheduleOp> applied;

  RecordingKernel(tg::Extents3 extents, int radius)
      : e(extents), r(radius), field(extents, radius) {
    summary.kernel = "recording";
    summary.radius = S * radius;  // per-timestep reach, as elastic declares
    summary.substeps = S;
  }

  [[nodiscard]] const tg::Extents3& extents() const { return e; }
  [[nodiscard]] int radius() const { return r; }
  void apply(int s, const tg::Box3& box) { applied.push_back({s, box}); }
  eng::FieldRefs inject_fields(int) { return {{&field}, 1}; }
  [[nodiscard]] const tg::Grid3<real_t>& gather_field(int) const {
    return field;
  }
  [[nodiscard]] real_t inject_scale(int, int, int) const { return 1; }
  eng::HealthFields health_fields(int) { return {}; }
  [[nodiscard]] an::AccessSummary access_summary() const { return summary; }
};

constexpr tg::Extents3 kE{20, 18, 6};
constexpr int kRadius = 1;
constexpr int kNt = 11;
constexpr tc::TileSpec kTiles{4, 8, 8, 4, 4};

eng::ExecutionOptions serial_options() {
  eng::ExecutionOptions opts;
  opts.tiles = kTiles;
  opts.threads = 1;
  return opts;
}

template <int S>
std::vector<tc::ScheduleOp> run(RecordingKernel<S>& kernel,
                                eng::Schedule sched) {
  const eng::ExecutionOptions opts = serial_options();
  const sp::SparseTimeSeries src(sp::single_center_source(kE), kNt);
  eng::ScheduleExecutor<RecordingKernel<S>> exec(kernel, opts);
  (void)exec.run_from(RecordingKernel<S>::kFirstStep, sched, src, nullptr,
                      {});
  return kernel.applied;
}

/// The plan the engine's geometry defines, built independently of it, in
/// substep units: one band per substep in the spec's blocks (SpaceBlocked)
/// or in one whole-domain block (Reference); S * tile_t substeps per band
/// and slope = radius per substep (Wavefront, Diamond).
template <int S>
tc::TilePlan expected_plan(eng::Schedule sched) {
  const int first = S * RecordingKernel<S>::kFirstStep;
  const int height = S * kTiles.tile_t;
  if (sched == eng::Schedule::Reference) {
    return tc::TilePlan::space_blocked(kE, first, S * kNt,
                                       {1, kE.nx, kE.ny, kE.nx, kE.ny});
  }
  if (sched == eng::Schedule::SpaceBlocked) {
    return tc::TilePlan::space_blocked(kE, first, S * kNt, kTiles);
  }
  if (sched == eng::Schedule::Wavefront) {
    tc::TileSpec spec = kTiles;
    spec.tile_t = height;
    return tc::TilePlan::wavefront(kE, first, S * kNt, kRadius, spec);
  }
  return tc::TilePlan::diamond(
      kE, first, S * kNt, kRadius,
      {height, std::max(kTiles.tile_x, 2 * kRadius * height), kTiles.block_x,
       kTiles.block_y});
}

template <int S>
void expect_runs_plan(eng::Schedule sched) {
  RecordingKernel<S> kernel(kE, kRadius);
  const std::vector<tc::ScheduleOp> applied = run(kernel, sched);
  const std::vector<tc::ScheduleOp> expected = expected_plan<S>(sched).ops();
  ASSERT_FALSE(expected.empty());
  EXPECT_TRUE(applied == expected)
      << eng::to_string(sched) << " S=" << S << ": applied " << applied.size()
      << " blocks, the plan has " << expected.size();
}

/// The process's peak resident set so far, in bytes.
long long peak_bytes() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<long long>(ru.ru_maxrss) * 1024;  // KiB on Linux
}

/// Runs measure() in a forked child, so the peak resident set it reads is
/// its own rig's alone, and returns its result; nullopt when the child did
/// not finish.
std::optional<long long> in_child(const std::function<long long()>& measure) {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) return std::nullopt;
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(pipe_fds[0]);
    const long long value = measure();
    const bool sent =
        ::write(pipe_fds[1], &value, sizeof value) == sizeof value;
    ::_exit(sent ? 0 : 1);
  }
  ::close(pipe_fds[1]);
  long long value = -1;
  const bool received =
      pid > 0 && ::read(pipe_fds[0], &value, sizeof value) == sizeof value;
  ::close(pipe_fds[0]);
  int status = 0;
  if (pid < 0 || ::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0 || !received) {
    return std::nullopt;
  }
  return value;
}

}  // namespace

TEST(EnginePlan, ReferenceRunsExactlyThePlanOps) {
  expect_runs_plan<1>(eng::Schedule::Reference);
  expect_runs_plan<2>(eng::Schedule::Reference);
}

TEST(EnginePlan, SpaceBlockedRunsExactlyThePlanOps) {
  expect_runs_plan<1>(eng::Schedule::SpaceBlocked);
  expect_runs_plan<2>(eng::Schedule::SpaceBlocked);
}

TEST(EnginePlan, WavefrontRunsExactlyThePlanOps) {
  expect_runs_plan<1>(eng::Schedule::Wavefront);
  expect_runs_plan<2>(eng::Schedule::Wavefront);
}

TEST(EnginePlan, DiamondRunsExactlyThePlanOps) {
  expect_runs_plan<1>(eng::Schedule::Diamond);
  expect_runs_plan<2>(eng::Schedule::Diamond);
}

TEST(EnginePlan, DeclaredRadiusBeyondTheSkewThrowsBeforeAnyBlock) {
  for (const eng::Schedule sched :
       {eng::Schedule::Wavefront, eng::Schedule::Diamond}) {
    RecordingKernel<1> kernel(kE, kRadius);
    kernel.summary.radius = kRadius + 1;  // reach outruns slope = radius()
    EXPECT_THROW((void)run(kernel, sched), an::ScheduleLegalityError)
        << eng::to_string(sched);
    EXPECT_TRUE(kernel.applied.empty()) << eng::to_string(sched);
  }
}

TEST(EnginePlan, ScatteredWritesThrowBeforeAnyBlock) {
  for (const eng::Schedule sched :
       {eng::Schedule::Wavefront, eng::Schedule::Diamond}) {
    RecordingKernel<1> kernel(kE, kRadius);
    kernel.summary.write_radius = 1;
    EXPECT_THROW((void)run(kernel, sched), tempest::util::PreconditionError)
        << eng::to_string(sched);
    EXPECT_TRUE(kernel.applied.empty()) << eng::to_string(sched);
  }
}


TEST(EngineMemory, WavefrontShotAllocatesNoGridSizedPrecompute) {
  // A small wavefront shot first faults in the code and allocator state
  // the path needs. On the 160^3 rig the space-blocked shot then sets the
  // peak of the fields; the wavefront shot on the same propagator may add
  // its precompute, tile plan and gather stage, all O(sites + nx*ny), but
  // no buffer of a byte per grid point. Building the dense probe, SM/SID
  // and RM/RID reference volumes instead grows it by about 13 B per point.
  const tg::Extents3 e{160, 160, 160};
  const std::optional<long long> grown = in_child([&] {
    const auto rig = [](const tg::Extents3& extents) {
      const ph::Geometry g{extents, 10.0, /*space_order=*/4, /*nbl=*/10};
      return ph::make_acoustic_homogeneous(g, 1.5);
    };
    const int nt = 4;
    ph::PropagatorOptions opts;
    opts.tiles = {2, 32, 32, 8, 8};
    opts.threads = 1;
    const auto shot = [&](ph::AcousticPropagator& prop, ph::Schedule sched) {
      const tg::Extents3& x = prop.model().geom.extents;
      sp::SparseTimeSeries src(sp::single_center_source(x, 0.4), nt);
      src.broadcast_signature(sp::ricker(nt, prop.dt(), 0.010));
      sp::SparseTimeSeries rec(sp::receiver_line(x, 64), nt);
      (void)prop.run(sched, src, &rec);
    };
    {
      const ph::AcousticModel small = rig({32, 32, 32});
      ph::AcousticPropagator warm(small, opts);
      shot(warm, ph::Schedule::Wavefront);
    }
    const ph::AcousticModel model = rig(e);
    ph::AcousticPropagator prop(model, opts);
    shot(prop, ph::Schedule::SpaceBlocked);
    const long long before = peak_bytes();
    shot(prop, ph::Schedule::Wavefront);
    return peak_bytes() - before;
  });
  ASSERT_TRUE(grown.has_value()) << "the measuring child did not finish";
  EXPECT_LT(*grown, static_cast<long long>(e.size()))
      << "the wavefront shot grew the peak RSS by "
      << static_cast<double>(*grown) / static_cast<double>(e.size())
      << " B per grid point";
}

TEST(EngineMemory, SecondOrderPropagatorHoldsTwoSlices) {
  // The acoustic update stores u[t+1] over u[t-1], so the propagator's
  // construction and a shot grow the peak by the two slices of u. A modulo
  // buffer of time_order + 1 slices would take it to three.
  const ph::Geometry g{{160, 160, 160}, 10.0, /*space_order=*/4, 10};
  const std::optional<long long> grown = in_child([&] {
    ph::PropagatorOptions opts;
    opts.threads = 1;
    const int nt = 4;
    const auto shot = [&](const ph::AcousticModel& model) {
      ph::AcousticPropagator prop(model, opts);
      const tg::Extents3& x = model.geom.extents;
      sp::SparseTimeSeries src(sp::single_center_source(x, 0.4), nt);
      src.broadcast_signature(sp::ricker(nt, prop.dt(), 0.010));
      sp::SparseTimeSeries rec(sp::receiver_line(x, 16), nt);
      (void)prop.run(ph::Schedule::SpaceBlocked, src, &rec);
    };
    // Fault in the run's code and allocator state on a small model.
    shot(ph::make_acoustic_homogeneous({{24, 24, 24}, 10.0, 4, 4}, 1.5));
    const ph::AcousticModel model = ph::make_acoustic_homogeneous(g, 1.5);
    const long long before = peak_bytes();
    shot(model);
    return peak_bytes() - before;
  });
  ASSERT_TRUE(grown.has_value()) << "the measuring child did not finish";
  const double field =
      static_cast<double>(tg::Grid3<real_t>(g.extents, g.radius())
                              .padded_size() *
                          sizeof(real_t));
  EXPECT_LT(static_cast<double>(*grown), 2.5 * field)
      << "constructing and running the propagator grew the peak RSS by "
      << static_cast<double>(*grown) / field << " fields";
}

TEST(EngineMemory, ModelBuildPeaksAtItsOwnFields) {
  // make_acoustic_layered allocates vp, m and damp and writes each once: the
  // peak grows by three fields. A throwaway m, or a second copy of any
  // field, would take it to four.
  const ph::Geometry g{{160, 160, 160}, 10.0, /*space_order=*/4, 10};
  const std::optional<long long> grown = in_child([&] {
    // Fault in the builder's code and allocator state on a small model.
    (void)ph::make_acoustic_layered({{24, 24, 24}, 10.0, 4, 4});
    const long long before = peak_bytes();
    const ph::AcousticModel model = ph::make_acoustic_layered(g);
    return peak_bytes() - before;
  });
  ASSERT_TRUE(grown.has_value()) << "the measuring child did not finish";
  const double field =
      static_cast<double>(tg::Grid3<real_t>(g.extents, g.radius())
                              .padded_size() *
                          sizeof(real_t));
  EXPECT_LT(static_cast<double>(*grown), 3.5 * field)
      << "the model build grew the peak RSS by "
      << static_cast<double>(*grown) / field << " fields";
}
