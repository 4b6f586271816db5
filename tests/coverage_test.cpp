// Cross-cutting coverage: edge cases and behaviours that the per-module
// suites don't reach — step callbacks on every schedule, anisotropic
// extents, reflective boundaries, interpreter physics, generated-code
// variants, IR pass orderings, and trace/cachesim scaling.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "tempest/cachesim/instrumented_acoustic.hpp"
#include "tempest/codegen/jit.hpp"
#include "tempest/core/tile_plan.hpp"
#include "tempest/dsl/interpreter.hpp"
#include "tempest/dsl/operator.hpp"
#include "tempest/dsl/passes.hpp"
#include "tempest/physics/acoustic.hpp"
#include "tempest/sparse/survey.hpp"
#include "tempest/sparse/wavelet.hpp"

namespace ph = tempest::physics;
namespace sp = tempest::sparse;
namespace tg = tempest::grid;
namespace tc = tempest::core;
namespace dsl = tempest::dsl;
namespace cg = tempest::codegen;
namespace cs = tempest::cachesim;
using tempest::real_t;

namespace {

ph::AcousticModel small_model(tg::Extents3 e, int so = 4, int nbl = 4) {
  ph::Geometry g{e, 10.0, so, nbl};
  return ph::make_acoustic_layered(g, 1.5, 3.0, 3);
}

sp::SparseTimeSeries center_src(const ph::AcousticModel& m, int nt,
                                double f0 = 0.02) {
  sp::SparseTimeSeries src(
      sp::single_center_source(m.geom.extents, 0.4), nt);
  src.broadcast_signature(sp::ricker(nt, m.critical_dt(), f0));
  return src;
}

}  // namespace

TEST(Snapshots, CallbackFiresOncePerTimestep) {
  const auto model = small_model({16, 14, 12});
  const int nt = 12;
  const auto src = center_src(model, nt);
  ph::AcousticPropagator p(model);
  std::vector<int> steps;
  p.run(ph::Schedule::SpaceBlocked, src, nullptr,
        [&](int t_done) { steps.push_back(t_done); });
  ASSERT_EQ(static_cast<int>(steps.size()), nt - 1);
  for (int i = 0; i < nt - 1; ++i) EXPECT_EQ(steps[static_cast<std::size_t>(i)], i + 2);
}

TEST(Snapshots, CallbackSeesCurrentWavefield) {
  const auto model = small_model({16, 14, 12});
  // High peak frequency so the wavelet actually rings inside the short run
  // (t0 = 1.5/f0 ~ 30 ms ~ step 14 of 20).
  const int nt = 20;
  const auto src = center_src(model, nt, /*f0=*/0.05);
  ph::AcousticPropagator p(model);
  std::vector<tg::Grid3<real_t>> snaps;
  p.run(ph::Schedule::SpaceBlocked, src, nullptr,
        [&](int t_done) { snaps.push_back(p.wavefield(t_done)); });
  // The final snapshot equals the final wavefield.
  EXPECT_EQ(tg::max_abs_diff(snaps.back(), p.wavefield(nt)), 0.0);
  // Energy grows from (near-)zero ICs as the source rings: the first
  // snapshot carries only the Ricker's tiny pre-onset tail.
  EXPECT_LT(tg::max_abs(snaps.front()), 1e-3 * tg::max_abs(snaps.back()));
}

// Under temporal blocking the callback runs at the band ends of the run's
// tile plan, in order, ending at nt; there the wavefield is exactly the
// space-blocked run's wavefield at the same step.
TEST(Snapshots, CallbackRunsAtBandEndsUnderTemporalBlocking) {
  const auto model = small_model({16, 14, 12});
  const int nt = 20;
  const auto src = center_src(model, nt, /*f0=*/0.05);
  ph::PropagatorOptions opts;
  opts.tiles = tc::TileSpec{5, 8, 8, 4, 4};

  std::map<int, tg::Grid3<real_t>> want;
  ph::AcousticPropagator base(model, opts);
  base.run(ph::Schedule::SpaceBlocked, src, nullptr,
           [&](int t_done) { want.emplace(t_done, base.wavefield(t_done)); });

  const tg::Extents3 e = model.geom.extents;
  const int radius = model.geom.radius();
  tc::DiamondSpec dspec;
  dspec.height = opts.tiles.tile_t;
  dspec.width = std::max(opts.tiles.tile_x, 2 * radius * dspec.height);
  dspec.block_x = opts.tiles.block_x;
  dspec.block_y = opts.tiles.block_y;
  for (const ph::Schedule sched :
       {ph::Schedule::Wavefront, ph::Schedule::Diamond}) {
    SCOPED_TRACE(ph::to_string(sched));
    // Acoustic takes one substep per step and starts at step 1.
    const tc::TilePlan plan =
        sched == ph::Schedule::Wavefront
            ? tc::TilePlan::wavefront(e, 1, nt, radius, opts.tiles)
            : tc::TilePlan::diamond(e, 1, nt, radius, dspec);
    std::vector<int> band_ends;
    for (const tc::TileBand& band : plan.bands) band_ends.push_back(band.te);
    ASSERT_GE(band_ends.size(), 3u);
    ASSERT_EQ(band_ends.back(), nt);

    ph::AcousticPropagator p(model, opts);
    std::vector<int> seen;
    p.run(sched, src, nullptr, [&](int t_done) {
      seen.push_back(t_done);
      EXPECT_EQ(tg::max_abs_diff(p.wavefield(t_done), want.at(t_done)), 0.0)
          << "t_done=" << t_done;
    });
    EXPECT_EQ(seen, band_ends);
  }
}

TEST(Acoustic, StronglyAnisotropicExtentsUnderAllSchedules) {
  // nx >> ny >> nz stresses tile clipping on every axis.
  const auto model = small_model({40, 12, 6});
  const int nt = 14;
  const auto src = center_src(model, nt);
  ph::AcousticPropagator base(model);
  base.run(ph::Schedule::SpaceBlocked, src, nullptr);
  const auto u_base = base.wavefield(nt);

  for (auto sched : {ph::Schedule::Wavefront, ph::Schedule::Diamond}) {
    ph::PropagatorOptions opts;
    opts.tiles = tc::TileSpec{5, 16, 8, 8, 4};
    ph::AcousticPropagator p(model, opts);
    p.run(sched, src, nullptr);
    EXPECT_EQ(tg::max_abs_diff(u_base, p.wavefield(nt)), 0.0)
        << ph::to_string(sched);
  }
}

TEST(Acoustic, ReflectiveBoundariesConserveMoreEnergy) {
  // nbl = 0: rigid (Dirichlet) box. Energy decays far slower than with the
  // sponge, and the schedules still agree.
  ph::Geometry g{{20, 20, 20}, 10.0, 4, 0};
  const auto model = ph::make_acoustic_homogeneous(g, 1.5);
  const int nt = 60;
  sp::SparseTimeSeries src(sp::single_center_source(g.extents, 0.5), nt);
  src.broadcast_signature(sp::ricker(nt, model.critical_dt(), 0.02));

  ph::AcousticPropagator p(model);
  p.run(ph::Schedule::SpaceBlocked, src, nullptr);
  const auto u_base = p.wavefield(nt);
  EXPECT_GT(tg::max_abs(u_base), 0.0);

  p.run(ph::Schedule::Wavefront, src, nullptr);
  EXPECT_EQ(tg::max_abs_diff(u_base, p.wavefield(nt)), 0.0);
}

TEST(Interpreter, DampingTermActuallyDamps) {
  // Interpret the same equation with and without the damp term on a model
  // with a strong sponge: the undamped run must retain more energy.
  const tg::Extents3 e{14, 14, 14};
  ph::Geometry g{e, 10.0, 4, 5};
  const auto model = ph::make_acoustic_homogeneous(g, 1.5);
  const double dt = model.critical_dt();
  const int nt = 40;
  sp::SparseTimeSeries src(sp::single_center_source(e, 0.5), nt);
  src.broadcast_signature(sp::ricker(nt, dt, 0.025));

  dsl::Grid grid{e, g.spacing};
  dsl::TimeFunction u("u", grid, 4, 2);
  const dsl::Eq damped = dsl::solve(
      dsl::param("m") * u.dt2() + dsl::param("damp") * u.dt() - u.laplace(),
      u.forward());
  const dsl::Eq undamped =
      dsl::solve(dsl::param("m") * u.dt2() - u.laplace(), u.forward());

  dsl::Interpreter di(damped, model, dt);
  dsl::Interpreter ui(undamped, model, dt);
  const double e_damped =
      tg::max_abs(di.run(src, sp::InterpKind::Trilinear));
  const double e_undamped =
      tg::max_abs(ui.run(src, sp::InterpKind::Trilinear));
  EXPECT_GT(e_undamped, e_damped * 1.2);
}

TEST(Interpreter, WindowedSincInjectionSupported) {
  const tg::Extents3 e{12, 12, 12};
  ph::Geometry g{e, 10.0, 4, 2};
  const auto model = ph::make_acoustic_homogeneous(g, 1.5);
  const double dt = model.critical_dt();
  sp::SparseTimeSeries src(sp::single_center_source(e, 0.5), 8);
  src.broadcast_signature(sp::ricker(8, dt, 0.03));
  dsl::Grid grid{e, g.spacing};
  dsl::TimeFunction u("u", grid, 4, 2);
  const dsl::Eq eq = dsl::solve(
      dsl::param("m") * u.dt2() - u.laplace(), u.forward());
  dsl::Interpreter in(eq, model, dt);
  const auto field = in.run(src, sp::InterpKind::WindowedSinc);
  EXPECT_GT(tg::max_abs(field), 0.0);
}

TEST(Passes, TimeTileWorksWithoutSparseFusion) {
  // The tiling pass applies to the plain Listing 1 nest too (no sources).
  namespace ir = dsl::ir;
  ir::Node root = dsl::passes::build_timestepping("A(t,x,y,z)", false, false);
  dsl::passes::time_tile(root, 4);
  const auto order = ir::loop_order(root);
  const std::vector<std::string> expected{"tt", "xs", "ys", "t", "x", "y",
                                          "z"};
  EXPECT_EQ(order, expected);
}

TEST(Passes, FusionWithoutReceiversLeavesNoZ3Loop) {
  namespace ir = dsl::ir;
  ir::Node root = dsl::passes::build_timestepping("A(t,x,y,z)", true, false);
  dsl::passes::precompute_and_fuse(root);
  EXPECT_NE(ir::find_loop(root, "z2"), nullptr);
  EXPECT_EQ(ir::find_loop(root, "z3"), nullptr);
}

TEST(Passes, StageTextsDiffer) {
  dsl::Grid g{{16, 16, 16}, 10.0};
  dsl::TimeFunction u("u", g, 4, 2);
  const dsl::Eq eq = dsl::solve(
      dsl::param("m") * u.dt2() - u.laplace(), u.forward());
  dsl::SparseTimeFunction s("src", sp::single_center_source({16, 16, 16}),
                            8);
  dsl::Operator op({eq}, {s.inject(u, dsl::param("x"))}, {}, {});
  const auto s0 = op.ccode_stage(0);
  const auto s1 = op.ccode_stage(1);
  const auto s2 = op.ccode_stage(2);
  const auto s3 = op.ccode_stage(3);
  EXPECT_NE(s0, s1);
  EXPECT_NE(s1, s2);
  EXPECT_NE(s2, s3);
  EXPECT_NE(s1.find("SM[x, y, z2]"), std::string::npos);
  EXPECT_EQ(s2.find("SM[x, y, z2]"), std::string::npos);  // compressed away
}

TEST(Codegen, HighOrderWeightsEmitted) {
  cg::KernelSpec spec;
  spec.space_order = 12;
  const std::string code = cg::emit_acoustic_c(spec);
  // O(2,12) reaches +-6 points (on the hoisted restrict row pointer).
  EXPECT_NE(code.find("ucr[z + 6]"), std::string::npos);
  EXPECT_NE(code.find("ucr[z - 6*sx]"), std::string::npos);
  // The inner loop carries the vectorization pragma and hint.
  EXPECT_NE(code.find("#pragma omp simd simdlen("), std::string::npos);
}

TEST(Codegen, CustomFlagsRespected) {
  // Extra flags ride on $CC: a definition passed there reaches the compile.
  struct RestoreCc {
    bool was_set;
    std::string value;
    ~RestoreCc() {
      if (was_set) {
        ::setenv("CC", value.c_str(), 1);
      } else {
        ::unsetenv("CC");
      }
    }
  };
  const char* cc = std::getenv("CC");
  const RestoreCc restore{cc != nullptr, cc != nullptr ? cc : ""};
  const std::string compiler =
      restore.value.empty() ? std::string("cc") : restore.value;
  ::setenv("CC", (compiler + " -DTEMPEST_TWO=2").c_str(), 1);
  cg::JitModule mod("int tempest_two(void) { return TEMPEST_TWO; }",
                    "tempest_two");
  EXPECT_EQ(mod.as<int(void)>()(), 2);
}

TEST(Codegen, ModuleIsMovable) {
  cg::JitModule a("int tempest_seven(void) { return 7; }", "tempest_seven");
  cg::JitModule b = std::move(a);
  EXPECT_EQ(b.as<int(void)>()(), 7);
  cg::JitModule c("int tempest_nine(void) { return 9; }", "tempest_nine");
  c = std::move(b);
  EXPECT_EQ(c.as<int(void)>()(), 7);
}

TEST(Trace, AccessCountGrowsWithSpaceOrder) {
  const cs::CacheConfig l1{8 * 1024, 8, 64};
  const cs::CacheConfig l2{64 * 1024, 8, 64};
  const cs::CacheConfig l3{512 * 1024, 16, 64};
  double bytes_so4 = 0, bytes_so8 = 0;
  for (int so : {4, 8}) {
    cs::TraceConfig cfg;
    cfg.extents = {16, 16, 16};
    cfg.space_order = so;
    cfg.t_begin = 1;
    cfg.t_end = 3;
    cfg.tiles = tc::TileSpec{2, 8, 8, 4, 4};
    cs::CacheHierarchy h(l1, l2, l3);
    (void)cs::replay_acoustic_trace(cfg, h);
    (so == 4 ? bytes_so4 : bytes_so8) = h.traffic().l1_bytes;
  }
  // Per point: (6R + 4) loads + 1 store of 4 bytes.
  const double expected_ratio = (6.0 * 4 + 5) / (6.0 * 2 + 5);
  EXPECT_NEAR(bytes_so8 / bytes_so4, expected_ratio, 0.01);
}

TEST(Trace, UpdateCountIndependentOfSchedule) {
  const cs::CacheConfig tiny{8 * 1024, 8, 64};
  for (bool wavefront : {false, true}) {
    cs::TraceConfig cfg;
    cfg.extents = {12, 10, 8};
    cfg.space_order = 4;
    cfg.t_begin = 2;
    cfg.t_end = 7;
    cfg.tiles = tc::TileSpec{3, 6, 6, 3, 3};
    cfg.wavefront = wavefront;
    cs::CacheHierarchy h(tiny, tiny, tiny);
    EXPECT_EQ(cs::replay_acoustic_trace(cfg, h), 5ll * 12 * 10 * 8);
  }
}

TEST(Schedules, DiamondAndWavefrontAgreeOnAcoustic) {
  const auto model = small_model({24, 18, 14});
  const int nt = 16;
  const auto src = center_src(model, nt);

  ph::PropagatorOptions opts;
  opts.tiles = tc::TileSpec{4, 16, 16, 8, 8};
  ph::AcousticPropagator p(model, opts);
  p.run(ph::Schedule::Wavefront, src, nullptr);
  const auto u_wf = p.wavefield(nt);
  p.run(ph::Schedule::Diamond, src, nullptr);
  EXPECT_EQ(tg::max_abs_diff(u_wf, p.wavefield(nt)), 0.0);
}
