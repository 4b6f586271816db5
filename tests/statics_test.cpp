// Golden-diagnostic tests for the analysis::statics layer — one test per
// verdict the interval abstract interpretation, the von Neumann/CFL
// stability proof, the IR linter and the tile-interference race prover can
// return — plus negative tests proving the gates reject: a statically
// unstable dt and an out-of-halo read must fail at Operator construction,
// at propagator construction and at JIT compile, each with a structured
// diagnostic naming the offending bound / offset / tile pair.

#include <gtest/gtest.h>

#include <limits>

#include "tempest/analysis/statics/interference.hpp"
#include "tempest/analysis/statics/interval.hpp"
#include "tempest/analysis/statics/lint.hpp"
#include "tempest/analysis/statics/stability.hpp"
#include "tempest/analysis/statics/verify.hpp"
#include "tempest/codegen/jit.hpp"
#include "tempest/core/tile_plan.hpp"
#include "tempest/dsl/kernel.hpp"
#include "tempest/dsl/operator.hpp"
#include "tempest/grid/time_buffer.hpp"
#include "tempest/physics/acoustic.hpp"
#include "tempest/sparse/survey.hpp"
#include "tempest/sparse/wavelet.hpp"

namespace statics = tempest::analysis::statics;
namespace an = tempest::analysis;
namespace dsl = tempest::dsl;
namespace ph = tempest::physics;
namespace sp = tempest::sparse;
namespace tg = tempest::grid;
namespace cg = tempest::codegen;
using statics::Interval;
using tempest::real_t;

namespace {

/// The acoustic family equation lowered through the DSL frontend — the
/// same tree the sweep tools verify, at a controllable dt.
dsl::LoweredKernel lower_acoustic(int space_order, double dt,
                                  const char* damp_name = "damp") {
  dsl::Grid g;
  dsl::TimeFunction u("u", g, space_order, 2);
  const dsl::Eq eq = dsl::solve(dsl::param("m") * u.dt2() +
                                    dsl::param(damp_name) * u.dt() -
                                    u.laplace(),
                                u.forward());
  return dsl::lower_kernel(eq, space_order, /*spacing=*/10.0, dt,
                           "statics-test");
}

/// First diagnostic with the given code, or nullptr.
const an::Diagnostic* find_code(const std::vector<an::Diagnostic>& ds,
                                const std::string& code) {
  for (const an::Diagnostic& d : ds) {
    if (d.code == code) return &d;
  }
  return nullptr;
}

bool message_of(const std::vector<an::Diagnostic>& ds,
                const std::string& code, const std::string& needle) {
  const an::Diagnostic* d = find_code(ds, code);
  return d != nullptr && d->message.find(needle) != std::string::npos;
}

ph::AcousticModel small_model(int space_order = 4) {
  tg::Extents3 e{20, 18, 16};
  ph::Geometry geom{e, 10.0, space_order, 4};
  return ph::make_acoustic_layered(geom, 1.5, 3.0, 3);
}

sp::SparseTimeSeries center_source(const ph::AcousticModel& model, int nt) {
  sp::SparseTimeSeries src(
      sp::single_center_source(model.geom.extents, 0.4), nt);
  src.broadcast_signature(sp::ricker(nt, model.critical_dt(), 0.015));
  return src;
}

}  // namespace

// ---------------------------------------------------------------- intervals

TEST(Interval, LatticeArithmetic) {
  EXPECT_EQ(Interval::point(2) + Interval::point(3), Interval::point(5));
  EXPECT_EQ(Interval(1, 2) * Interval(-3, 4), Interval(-6, 8));
  EXPECT_EQ(Interval(-1, 2) - Interval(0, 1), Interval(-2, 2));
  EXPECT_EQ(Interval(4, 6) / Interval(2, 2), Interval(2, 3));
  EXPECT_EQ(statics::hull(Interval::point(1), Interval::point(5)),
            Interval(1, 5));
  // A divisor spanning zero yields top (and the interpreter diagnoses it).
  EXPECT_EQ(Interval(1, 2) / Interval(-1, 1), Interval::top());
  // The 0 * inf convention: an exactly-zero factor annihilates.
  EXPECT_EQ(Interval::point(0) * Interval::top(), Interval::point(0));
  // Inverted endpoints collapse to top rather than an empty interval.
  EXPECT_EQ(Interval(2, 1), Interval::top());
  EXPECT_TRUE(Interval(1, 2).bounded());
  EXPECT_FALSE(Interval::top().bounded());
  EXPECT_EQ(Interval(-3, 2).mag(), 3.0);
  EXPECT_TRUE(Interval(0, 1).contains(0.0));
}

TEST(Interval, EvalWalksTheTree) {
  namespace ir = dsl::ir;
  const statics::BoundEnv env = statics::conventional_bounds();
  // 2 * vp with vp in [1.5, 4.5].
  EXPECT_EQ(statics::eval(*ir::bin('*', ir::cnst(2.0), ir::pref("vp")), env),
            Interval(3, 9));
}

TEST(Intervals, LoweredAcousticCleanUnderConventionalBounds) {
  const dsl::LoweredKernel lk = lower_acoustic(4, 0.5);
  const statics::IntervalReport report =
      statics::interpret(lk, statics::conventional_bounds());
  EXPECT_TRUE(report.clean()) << report.str();
  EXPECT_EQ(report.unbounded_inputs, 0);
  EXPECT_TRUE(report.value.bounded()) << report.value.str();
}

TEST(Intervals, DivisorSpanningZeroIsAnError) {
  namespace ir = dsl::ir;
  dsl::LoweredKernel lk;
  lk.name = "div-test";
  lk.update = ir::bin('/', ir::cnst(1.0), ir::pref("damp"));
  const statics::IntervalReport report =
      statics::interpret(lk, statics::conventional_bounds());
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(message_of(report.diagnostics, "possible-div-by-zero",
                         "divisor damp spans [0, 1]"))
      << report.str();
}

TEST(Intervals, UndeclaredInputIsNotedAndMakesTheUpdateUnbounded) {
  namespace ir = dsl::ir;
  dsl::LoweredKernel lk;
  lk.update = ir::bin('*', ir::pref("mystery"), ir::cnst(2.0));
  const statics::IntervalReport report = statics::interpret(lk, {});
  EXPECT_EQ(report.unbounded_inputs, 1);
  EXPECT_TRUE(
      message_of(report.diagnostics, "unbounded-input", "'mystery'"))
      << report.str();
  EXPECT_TRUE(message_of(report.diagnostics, "unbounded-update",
                         "undeclared input bounds"))
      << report.str();
  EXPECT_FALSE(report.clean());
}

TEST(Intervals, UnboundedGrowthWithBoundedInputsIsFatal) {
  namespace ir = dsl::ir;
  dsl::LoweredKernel lk;
  lk.update = ir::bin('+', ir::pref("p"), ir::cnst(1.0));
  statics::BoundEnv env;
  env["p"] = Interval(1.0, std::numeric_limits<double>::infinity());
  const statics::IntervalReport report = statics::interpret(lk, env);
  EXPECT_EQ(report.unbounded_inputs, 0);
  EXPECT_TRUE(message_of(report.diagnostics, "unbounded-update",
                         "although every input is bounded"))
      << report.str();
}

TEST(Intervals, ConstantSubtreeReportedAsFoldLint) {
  namespace ir = dsl::ir;
  dsl::LoweredKernel lk;
  // (2 + 3) * m: the constant child is maximal under a non-constant parent.
  lk.update = ir::bin('*', ir::bin('+', ir::cnst(2.0), ir::cnst(3.0)),
                      ir::pref("m"));
  const statics::IntervalReport report =
      statics::interpret(lk, statics::conventional_bounds());
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.foldable_subtrees, 1);
  EXPECT_EQ(report.foldable_ops, 1);
  EXPECT_TRUE(message_of(report.diagnostics, "const-foldable",
                         "always evaluates to 5"))
      << report.str();
}

TEST(Intervals, EmptyUpdateIsAnError) {
  const dsl::LoweredKernel lk;  // update == nullptr
  const statics::IntervalReport report = statics::interpret(lk, {});
  EXPECT_NE(find_code(report.diagnostics, "empty-update"), nullptr);
  EXPECT_FALSE(report.clean());
}

// ---------------------------------------------------------------- stability

TEST(Stability, CriticalDtSitsInsideTheBoundWithHeadroom) {
  const statics::StabilityVerdict v =
      statics::check_acoustic_stability(1.0, 10.0, 4, Interval(1.5, 4.5));
  EXPECT_TRUE(v.stable()) << v.str();
  // so=4: S1 = 16/3, bound = 2h / (vp_max * sqrt(3 S1)) = 20 / (4.5 * 4).
  EXPECT_NEAR(v.bound, 20.0 / (4.5 * 4.0), 1e-12);
  EXPECT_NE(find_code(v.diagnostics, "cfl-headroom"), nullptr);
}

TEST(Stability, UnstableDtNamesTheViolatedBound) {
  const statics::StabilityVerdict v =
      statics::check_acoustic_stability(3.0, 10.0, 4, Interval(1.5, 4.5));
  EXPECT_FALSE(v.stable());
  EXPECT_TRUE(message_of(v.diagnostics, "unstable-dt",
                         "exceeds the von Neumann bound"))
      << v.str();
  EXPECT_TRUE(message_of(v.diagnostics, "unstable-dt", "vp_max=4.5"));
  EXPECT_THROW(statics::require_stable(v, "test"),
               statics::StaticVerificationError);
}

TEST(Stability, DegenerateSpecsAreRejectedNotMisjudged) {
  EXPECT_NE(find_code(statics::check_acoustic_stability(0.0, 10.0, 4,
                                                        Interval(1.5, 4.5))
                          .diagnostics,
                      "invalid-spec"),
            nullptr);
  EXPECT_NE(find_code(statics::check_acoustic_stability(1.0, 10.0, 3,
                                                        Interval(1.5, 4.5))
                          .diagnostics,
                      "invalid-spec"),
            nullptr);
  // An unbounded or non-positive velocity interval admits no bound at all.
  EXPECT_NE(find_code(statics::check_acoustic_stability(1.0, 10.0, 4,
                                                        Interval::top())
                          .diagnostics,
                      "unbound-velocity"),
            nullptr);
  EXPECT_NE(find_code(statics::check_bound(1.0, 0.0, 4.5, 10.0, 4, "tti")
                          .diagnostics,
                      "invalid-spec"),
            nullptr);
}

TEST(Stability, OrderTwoBoundIsTheLoosest) {
  // S1 grows with the space order, so the construction-time so=2 floor can
  // never falsely reject a dt that a higher order would admit.
  const double b2 =
      statics::check_acoustic_stability(0.1, 10.0, 2, Interval(1.5, 4.5))
          .bound;
  const double b4 =
      statics::check_acoustic_stability(0.1, 10.0, 4, Interval(1.5, 4.5))
          .bound;
  const double b8 =
      statics::check_acoustic_stability(0.1, 10.0, 8, Interval(1.5, 4.5))
          .bound;
  EXPECT_GT(b2, b4);
  EXPECT_GT(b4, b8);
}

// --------------------------------------------------------------------- lint

TEST(Lint, LoweredAcousticIsClean) {
  const dsl::LoweredKernel lk = lower_acoustic(4, 0.5);
  statics::LintOptions opts;
  opts.resolvable = {"m", "damp"};
  const statics::LintReport lint = statics::lint_kernel(lk, opts);
  EXPECT_TRUE(lint.clean()) << lint.str();
}

TEST(Lint, OutOfHaloReadNamesTheOffendingLoad) {
  dsl::LoweredKernel lk = lower_acoustic(4, 0.5);
  const int r = lk.radius();
  ASSERT_EQ(r, 2);
  lk.update = dsl::ir::bin('+', lk.update,
                           dsl::ir::load(lk.field, 0, r + 3, 0, 0));
  statics::LintOptions opts;
  opts.declared_radius = r;
  const statics::LintReport lint = statics::lint_kernel(lk, opts);
  EXPECT_FALSE(lint.clean());
  EXPECT_TRUE(message_of(lint.diagnostics, "out-of-halo-read", "u[t][x+5]"))
      << lint.str();
  EXPECT_TRUE(message_of(lint.diagnostics, "out-of-halo-read",
                         "declared halo radius is 2"));
  // The same load also escapes the access hull the legality proof uses.
  EXPECT_TRUE(message_of(lint.diagnostics, "footprint-mismatch",
                         "outside the declared hull"))
      << lint.str();
}

TEST(Lint, UnboundParamListsTheResolvableNames) {
  const dsl::LoweredKernel lk = lower_acoustic(4, 0.5, "eta");
  statics::LintOptions opts;
  opts.resolvable = {"m", "damp", "vp"};
  const statics::LintReport lint = statics::lint_kernel(lk, opts);
  EXPECT_FALSE(lint.clean());
  EXPECT_TRUE(message_of(lint.diagnostics, "unbound-param", "'eta'"))
      << lint.str();
  EXPECT_TRUE(message_of(lint.diagnostics, "unbound-param", "damp"));
  // An empty resolvable list disables the check (callers without bindings).
  opts.resolvable.clear();
  EXPECT_TRUE(statics::lint_kernel(lk, opts).clean());
}

TEST(Lint, MultiplyByZeroIsDeadCode) {
  namespace ir = dsl::ir;
  dsl::LoweredKernel lk;
  lk.update = ir::bin('+', ir::pref("m"),
                      ir::bin('*', ir::cnst(0.0), ir::pref("damp")));
  const statics::LintReport lint = statics::lint_kernel(lk, {});
  EXPECT_TRUE(lint.clean());
  EXPECT_NE(find_code(lint.diagnostics, "dead-subexpression"), nullptr)
      << lint.str();
}

TEST(Lint, DuplicateSubtreesReportedAsCseOpportunity) {
  namespace ir = dsl::ir;
  const dsl::ir::ExprPtr dup = ir::bin('*', ir::pref("m"), ir::pref("damp"));
  dsl::LoweredKernel lk;
  lk.update = ir::bin('+', dup, dup);
  const statics::LintReport lint = statics::lint_kernel(lk, {});
  EXPECT_TRUE(lint.clean());
  EXPECT_GE(lint.duplicate_subtrees, 1);
  EXPECT_GE(lint.duplicate_ops, 1);
  EXPECT_NE(find_code(lint.diagnostics, "cse-opportunity"), nullptr)
      << lint.str();
}

TEST(Lint, DeclaredButNeverLoadedHullIsDeadAccess) {
  dsl::LoweredKernel lk = lower_acoustic(4, 0.5);
  dsl::ir::Access ghost;
  ghost.field = lk.field;
  ghost.is_write = false;
  ghost.time = -2;  // the acoustic update reads t and t-1 only
  ghost.x = ghost.y = ghost.z = dsl::ir::Subscript::range(-2, 2);
  lk.accesses.push_back(ghost);
  const statics::LintReport lint = statics::lint_kernel(lk, {});
  EXPECT_TRUE(lint.clean());
  EXPECT_TRUE(message_of(lint.diagnostics, "dead-access", "t-2"))
      << lint.str();
}

// --------------------------------------------------------------- interference

TEST(Interference, EveryScheduleFamilyProvenRaceFreeForAcoustic) {
  const an::AccessSummary summary = ph::acoustic_access_summary(4);
  const int slope = summary.radius;
  const std::vector<an::ScheduleDescriptor> schedules = {
      an::ScheduleDescriptor::reference(),
      an::ScheduleDescriptor::space_blocked(),
      an::ScheduleDescriptor::wavefront(slope),
      an::ScheduleDescriptor::fused(slope),
      an::ScheduleDescriptor::diamond(slope)};
  for (const an::ScheduleDescriptor& sched : schedules) {
    const statics::InterferenceReport report = statics::prove_race_free(
        statics::TileModel::from_summary(summary, sched, 64, 64, 192, 192,
                                         /*receivers=*/true));
    EXPECT_TRUE(report.race_free()) << report.str();
    EXPECT_GT(report.tasks, 0) << sched.str();
  }
  // The wavefront staircase leaves genuinely unordered pairs — the proof
  // checked real obligations rather than a fully serialised DAG.
  const statics::InterferenceReport wf = statics::prove_race_free(
      statics::TileModel::from_summary(
          summary, an::ScheduleDescriptor::wavefront(slope), 64, 64, 192,
          192, true));
  EXPECT_GT(wf.unordered_pairs, 0);
}

TEST(Interference, UndershotSkewSlopeNamesTheInterferingTilePair) {
  statics::TileModel tm;
  tm.schedule = an::ScheduleDescriptor::wavefront(/*slope=*/1, /*tile_t=*/8);
  tm.radius = 2;  // reads reach 2 per substep, the band only skews by 1
  const statics::InterferenceReport report = statics::prove_race_free(tm);
  EXPECT_FALSE(report.race_free());
  EXPECT_GT(report.conflicts, 0);
  EXPECT_TRUE(message_of(report.diagnostics, "tile-interference", "tile("))
      << report.str();
  EXPECT_THROW(statics::require_race_free(report),
               statics::TileInterferenceError);
}

namespace {

/// acoustic-wtb-large's band phases: bands start at substep 1 every 8
/// substeps, slope 2 (SO 4), 32x32 tiles — on a 96x96 domain.
tempest::core::TilePlan wtb_phase_plan() {
  return tempest::core::TilePlan::wavefront({96, 96, 1}, 1, 64, /*slope=*/2,
                                            {8, 32, 32, 8, 8});
}

statics::Footprint acoustic_footprint() {
  const an::AccessSummary summary = ph::acoustic_access_summary(4);
  return {summary.radius, 1, summary.time_reads, /*receivers=*/true};
}

}  // namespace

TEST(Interference, ProvesEveryBandOfTheExecutedWavefrontPlan) {
  const tempest::core::TilePlan plan = wtb_phase_plan();
  ASSERT_EQ(plan.bands.size(), 8u);
  int tasks = 0;
  for (const tempest::core::TileBand& band : plan.bands) {
    tasks += static_cast<int>(band.tasks.size());
  }
  const statics::InterferenceReport report =
      statics::prove_race_free(plan, acoustic_footprint());
  EXPECT_TRUE(report.race_free()) << report.str();
  // Every task of every band was enumerated: a lattice cap fails here.
  EXPECT_EQ(report.tasks, tasks);
  EXPECT_GT(report.unordered_pairs, 0);
}

TEST(Interference, DroppedStaircaseEdgeNamesTheTilePair) {
  tempest::core::TilePlan plan = wtb_phase_plan();
  tempest::core::TileBand& band = plan.bands.at(1);
  band.dag.remove_edge(/*tile(0,1)=*/1, /*tile(1,1)=*/band.nj + 1);
  const statics::InterferenceReport report =
      statics::prove_race_free(plan, acoustic_footprint());
  EXPECT_FALSE(report.race_free());
  EXPECT_TRUE(message_of(report.diagnostics, "tile-interference",
                         "tile(0,1) and tile(1,1)"))
      << report.str();
}

TEST(Interference, DiamondValleyMissingAPeakEdgeIsRejected) {
  tempest::core::TilePlan plan = tempest::core::TilePlan::diamond(
      {96, 96, 1}, 1, 64, /*slope=*/2, {8, 32, 8, 8});
  ASSERT_TRUE(statics::prove_race_free(plan, acoustic_footprint()).race_free());
  tempest::core::TileBand& band = plan.bands.at(2);
  band.dag.remove_edge(/*peak(2)=*/2, /*valley(1)=*/band.nj + 1);
  const statics::InterferenceReport report =
      statics::prove_race_free(plan, acoustic_footprint());
  EXPECT_FALSE(report.race_free());
  EXPECT_TRUE(message_of(report.diagnostics, "tile-interference",
                         "peak(2) and valley(1)"))
      << report.str();
}

// ------------------------------------------------------------------- facade

TEST(Verify, CombinedReportRejectsUnstableDtAndAllowUnstableDemotesIt) {
  const dsl::LoweredKernel lk = lower_acoustic(4, 3.0);
  statics::StaticsOptions opts;
  opts.bounds = statics::conventional_bounds();
  opts.resolvable = {"m", "damp", "vp"};
  const statics::StaticsReport report = statics::verify_statics(lk, opts);
  EXPECT_FALSE(report.ok()) << report.str();
  EXPECT_TRUE(message_of(report.diagnostics(), "unstable-dt",
                         "exceeds the von Neumann bound"));
  EXPECT_THROW(statics::require_static_ok(report),
               statics::StaticVerificationError);

  opts.allow_unstable = true;
  const statics::StaticsReport allowed = statics::verify_statics(lk, opts);
  EXPECT_TRUE(allowed.ok()) << allowed.str();
  EXPECT_TRUE(message_of(allowed.diagnostics(), "unstable-dt",
                         "allow_unstable"))
      << allowed.str();
}

TEST(Verify, ThrownErrorCarriesTheReport) {
  const dsl::LoweredKernel lk = lower_acoustic(4, 3.0);
  statics::StaticsOptions opts;
  opts.bounds = statics::conventional_bounds();
  try {
    statics::require_static_ok(statics::verify_statics(lk, opts));
    FAIL() << "unstable dt was not rejected";
  } catch (const statics::StaticVerificationError& e) {
    EXPECT_GT(e.report().errors(), 0);
    EXPECT_NE(std::string(e.what()).find("von Neumann"), std::string::npos);
  }
}

TEST(Verify, ModelBoundsScanTheConcreteGrids) {
  const ph::AcousticModel model = small_model();
  const statics::BoundEnv env = statics::model_bounds(model, {});
  ASSERT_TRUE(env.count("vp"));
  EXPECT_NEAR(env.at("vp").lo, 1.5, 1e-6);
  EXPECT_NEAR(env.at("vp").hi, 3.0, 1e-6);
  ASSERT_TRUE(env.count("damp"));
  EXPECT_GE(env.at("damp").lo, 0.0);
  // The halo is storage, not data: interiors only, so vp.lo stays positive.
  EXPECT_GT(statics::grid_interval(model.vp).lo, 0.0);
}

// -------------------------------------------------------------------- gates

TEST(Gates, OperatorConstructionRejectsStaticallyUnstableDt) {
  dsl::Grid g;
  dsl::TimeFunction u("u", g, 4, 2);
  const dsl::Eq eq = dsl::solve(dsl::param("m") * u.dt2() +
                                    dsl::param("damp") * u.dt() -
                                    u.laplace(),
                                u.forward());
  dsl::OperatorOptions opts;
  opts.dt = 5.0;  // so=2 floor bound at h=10, vp_max=4.5 is ~1.28 ms
  opts.spacing = 10.0;
  opts.declared_bounds = statics::conventional_bounds();
  EXPECT_THROW(dsl::Operator({eq}, {}, {}, opts),
               statics::StaticVerificationError);
  // Deliberate divergence experiments opt out; every other gate remains.
  opts.allow_unstable = true;
  EXPECT_NO_THROW(dsl::Operator({eq}, {}, {}, opts));
}

TEST(Gates, OperatorConstructionRejectsDivergentGenericUpdate) {
  dsl::Grid g;
  dsl::TimeFunction u("u", g, 4, 2);
  // Generic class (the dt2 coefficient is not the acoustic model's own):
  // eta in [0, 1] can vanish, so the lowered update divides by zero.
  const dsl::Eq eq =
      dsl::solve(dsl::param("eta") * u.dt2() - u.laplace(), u.forward());
  dsl::OperatorOptions opts;
  opts.declared_bounds["u"] = Interval(-1.0, 1.0);
  opts.declared_bounds["eta"] = Interval(0.0, 1.0);
  try {
    const dsl::Operator op({eq}, {}, {}, opts);
    FAIL() << "possible-div-by-zero update was not rejected";
  } catch (const statics::StaticVerificationError& e) {
    EXPECT_NE(find_code(e.report().diagnostics(), "possible-div-by-zero"),
              nullptr);
  }
  // A strictly positive declared bound discharges the obligation.
  opts.declared_bounds["eta"] = Interval(0.1, 1.0);
  EXPECT_NO_THROW(dsl::Operator({eq}, {}, {}, opts));
}

TEST(Gates, OperatorApplyRejectsUnstableDtAgainstTheConcreteModel) {
  dsl::Grid g;
  dsl::TimeFunction u("u", g, 4, 2);
  const dsl::Eq eq = dsl::solve(dsl::param("m") * u.dt2() +
                                    dsl::param("damp") * u.dt() -
                                    u.laplace(),
                                u.forward());
  dsl::OperatorOptions opts;
  opts.dt = 3.0;  // sharp so=4 bound at vp_max=3.0 is 20/12 ~ 1.67 ms
  const dsl::Operator op({eq}, {}, {}, opts);  // no declared bounds: passes
  const ph::AcousticModel model = small_model();
  const sp::SparseTimeSeries src = center_source(model, 4);
  EXPECT_THROW((void)op.apply(model, src), statics::StaticVerificationError);
}

TEST(Gates, DslPropagatorRejectsUnstableDtUnlessAllowed) {
  dsl::Grid g;
  dsl::TimeFunction u("u", g, 4, 2);
  const dsl::Eq eq = dsl::solve(dsl::param("m") * u.dt2() +
                                    dsl::param("damp") * u.dt() -
                                    u.laplace(),
                                u.forward());
  const ph::AcousticModel model = small_model();
  ph::PropagatorOptions popts;
  popts.dt = 3.0;
  EXPECT_THROW(dsl::DslPropagator(eq, model, popts),
               statics::StaticVerificationError);
  popts.allow_unstable = true;
  EXPECT_NO_THROW(dsl::DslPropagator(eq, model, popts));
}

TEST(Gates, DslKernelRefusesACorruptedTree) {
  const ph::AcousticModel model = small_model();
  dsl::LoweredKernel lk = lower_acoustic(4, 0.5);
  lk.update = dsl::ir::bin(
      '+', lk.update, dsl::ir::load(lk.field, 0, lk.radius() + 3, 0, 0));
  tg::TimeBuffer<real_t> u(3, model.geom.extents, model.geom.radius());
  try {
    dsl::DslKernel k(lk, model, {}, u, 0.5);
    FAIL() << "out-of-halo tree was not refused";
  } catch (const statics::StaticVerificationError& e) {
    EXPECT_NE(find_code(e.report().diagnostics(), "out-of-halo-read"),
              nullptr);
  }
}

TEST(Gates, JitAcousticRefusesAStaticallyUnstableSpecBeforeCompiling) {
  const ph::AcousticModel model = small_model();
  cg::KernelSpec spec;
  ph::PropagatorOptions opts;
  opts.dt = 5.0;  // far beyond the so=4 bound for this model
  // Throws before any compiler invocation: a diverging spec is a caller
  // bug, not a toolchain failure, so no fallback either.
  EXPECT_THROW(cg::JitAcoustic(model, spec, opts),
               statics::StaticVerificationError);
  opts.allow_unstable = true;  // the deliberate-divergence opt-out
  EXPECT_NO_THROW(cg::JitAcoustic(model, spec, opts));
}

TEST(Gates, JitDslRefusesACorruptedTreeBeforeCompiling) {
  const ph::AcousticModel model = small_model();
  dsl::LoweredKernel lk = lower_acoustic(4, 0.5);
  lk.update = dsl::ir::bin(
      '+', lk.update, dsl::ir::load(lk.field, 0, lk.radius() + 3, 0, 0));
  cg::KernelSpec spec;
  spec.kernel = lk.name;
  ph::PropagatorOptions opts;
  opts.dt = 0.5;
  try {
    cg::JitDsl jit(lk, model, spec, opts);
    FAIL() << "out-of-halo tree was not refused at JIT compile";
  } catch (const statics::StaticVerificationError& e) {
    EXPECT_NE(find_code(e.report().diagnostics(), "out-of-halo-read"),
              nullptr);
    EXPECT_NE(find_code(e.report().diagnostics(), "footprint-mismatch"),
              nullptr);
  }
}
