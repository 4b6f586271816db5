// Integration tests for the crash-tolerant survey runtime.
//
// The mid-shot kill-and-resume matrix covers all four physics kernels
// (acoustic, TTI, VTI, elastic): a run killed at a checkpoint mid-shot and
// resumed in a fresh propagator must reproduce the uninterrupted gather
// *bitwise* — the property the process-level chaos harness then proves
// across real SIGKILLs. The survey-level tests exercise the degradation
// ladder (an injected persistent JIT fault completes on the AOT rung,
// reported as degraded — never failed), journal re-entry after a dead
// process, and watchdog-driven quarantine when every rung is too slow.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "tempest/io/io.hpp"
#include "tempest/jobs/chaos.hpp"
#include "tempest/jobs/queue.hpp"
#include "tempest/jobs/survey.hpp"
#include "tempest/obs/metrics.hpp"
#include "tempest/physics/acoustic.hpp"
#include "tempest/physics/elastic.hpp"
#include "tempest/physics/tti.hpp"
#include "tempest/physics/vti.hpp"
#include "tempest/resilience/checkpoint.hpp"
#include "tempest/resilience/fault.hpp"
#include "tempest/sparse/survey.hpp"
#include "tempest/sparse/wavelet.hpp"
#include "tempest/trace/trace.hpp"

namespace jb = tempest::jobs;
namespace ob = tempest::obs;
namespace ph = tempest::physics;
namespace rs = tempest::resilience;
namespace sp = tempest::sparse;
namespace tg = tempest::grid;
namespace tr = tempest::trace;

namespace {

/// Fault plan hygiene: no injected fault may leak into the next test.
class SurveyRuntime : public ::testing::Test {
 protected:
  void SetUp() override { rs::fault::reset(); }
  void TearDown() override { rs::fault::reset(); }
};

class TempDir {
 public:
  TempDir() {
    path_ = "/tmp/tempest_survey_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++);
    std::filesystem::remove_all(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  static int counter_;
  std::string path_;
};
int TempDir::counter_ = 0;

/// Thrown from a step callback to model the process dying mid-run.
struct KillSignal {};

/// The S4 contract, uniform across the propagator family: kill a barrier
/// run at `kill_at` right after saving a checkpoint, resume in a *fresh*
/// propagator (the restarted process), and require the recorded gather to
/// match the uninterrupted run bit for bit.
template <typename Propagator, typename Model>
void expect_kill_resume_bitwise(const Model& model, int nt, int kill_at) {
  const tg::Extents3 e = model.geom.extents;
  sp::SparseTimeSeries src(sp::single_center_source(e, 0.4), nt);
  src.broadcast_signature(sp::ricker(nt, model.critical_dt(), 0.02));
  const sp::SparseTimeSeries rec_proto(sp::receiver_line(e, 4, 0.15, 3), nt);

  Propagator ref(model);
  auto rec_ref = rec_proto;
  ref.run(ph::Schedule::SpaceBlocked, src, &rec_ref);

  rs::Fingerprint fp;
  fp.add(e.nx).add(e.ny).add(e.nz).add(model.geom.space_order).add(nt);

  TempDir dir;
  std::filesystem::create_directories(dir.path());
  rs::Checkpointer ckpt(dir.path() + "/shot.tpck");
  {
    Propagator first(model);
    auto rec = rec_proto;
    EXPECT_THROW(
        first.run(ph::Schedule::SpaceBlocked, src, &rec,
                  [&](int t_done) {
                    if (t_done == kill_at) {
                      ckpt.save(first.capture(t_done, fp.value(), &rec));
                      throw KillSignal{};  // the process "dies" here
                    }
                  }),
        KillSignal);
  }

  Propagator resumed(model);
  const auto ck = ckpt.try_load(fp.value());
  ASSERT_TRUE(ck.has_value());
  EXPECT_EQ(ck->step, kill_at);
  ASSERT_TRUE(ck->has_rec);
  resumed.restore(*ck);
  auto rec_resumed = ck->rec;
  resumed.run_from(ck->step, ph::Schedule::SpaceBlocked, src, &rec_resumed);

  for (int t = 0; t < nt; ++t) {
    for (int r = 0; r < rec_ref.npoints(); ++r) {
      ASSERT_EQ(rec_ref.at(t, r), rec_resumed.at(t, r))
          << "t=" << t << " r=" << r;
    }
  }
}

}  // namespace

// --- S4: the kill-and-resume matrix across all four physics kernels. ---

TEST_F(SurveyRuntime, AcousticKillResumeGatherBitwise) {
  ph::Geometry g{{16, 14, 12}, 10.0, 4, /*nbl=*/4};
  expect_kill_resume_bitwise<ph::AcousticPropagator>(
      ph::make_acoustic_layered(g, 1.5, 3.0, 3), /*nt=*/20, /*kill_at=*/11);
}

TEST_F(SurveyRuntime, TTIKillResumeGatherBitwise) {
  ph::Geometry g{{14, 13, 12}, 20.0, 4, /*nbl=*/4};
  expect_kill_resume_bitwise<ph::TTIPropagator>(
      ph::make_tti_layered(g, 1.5, 3.0, 3), /*nt=*/18, /*kill_at=*/9);
}

TEST_F(SurveyRuntime, VTIKillResumeGatherBitwise) {
  ph::Geometry g{{14, 12, 12}, 20.0, 4, /*nbl=*/4};
  ph::TTIModel model = ph::make_tti_layered(g, 1.5, 3.0, 3);
  model.theta.fill(0.0f);  // untilted: a genuine VTI medium
  model.phi.fill(0.0f);
  expect_kill_resume_bitwise<ph::VTIPropagator>(model, /*nt=*/18,
                                                /*kill_at=*/10);
}

TEST_F(SurveyRuntime, ElasticKillResumeGatherBitwise) {
  ph::Geometry g{{14, 12, 10}, 10.0, 4, /*nbl=*/4};
  expect_kill_resume_bitwise<ph::ElasticPropagator>(
      ph::make_elastic_layered(g, 1.5, 3.0, 3), /*nt=*/16, /*kill_at=*/7);
}

// --- Acceptance: an injected persistent JIT fault completes the shot via
// the degradation ladder and is reported as degraded, not failed. ---

TEST_F(SurveyRuntime, PersistentJitFaultDegradesShotsNotSurvey) {
  TempDir dir;
  rs::fault::plan().fail_jit_compiles = 1000;  // a broken toolchain
  ::setenv("TEMPEST_JIT_RETRIES", "1", 1);     // keep the test fast

  jb::SurveySpec spec;
  spec.n = 16;
  spec.nt = 12;
  spec.n_shots = 2;
  spec.space_order = 4;
  spec.physics = "acoustic";
  spec.schedule = ph::Schedule::Wavefront;
  spec.use_jit = true;  // rung 0 = JIT wavefront, rung 1 = AOT wavefront
  spec.jobs_dir = dir.path();
  spec.ckpt_every = 4;
  spec.health_every = 0;
  spec.retry.max_attempts = 2;
  spec.retry.base_ms = 0.1;

  const jb::SurveyReport report = jb::run_survey(spec);
  ::unsetenv("TEMPEST_JIT_RETRIES");

  EXPECT_EQ(report.done, 2);
  EXPECT_EQ(report.quarantined, 0);
  EXPECT_EQ(report.degraded, 2);  // every shot fell back to the AOT rung
  for (const jb::ShotReport& s : report.shots) {
    EXPECT_EQ(s.state, "done");
    EXPECT_TRUE(s.degraded);
    EXPECT_GE(s.level, 1);  // below the JIT rung
    EXPECT_GE(s.attempts, spec.retry.max_attempts);  // transients retried
    EXPECT_TRUE(std::filesystem::exists(jb::shot_gather_path(spec, s.shot)));
  }
}

// --- The +jit rung with a working toolchain: every shot runs on the
// compiled block, on the same engine as the AOT wavefront rung, and its
// gathers agree with that rung's to rounding. ---

TEST_F(SurveyRuntime, JitRungRunsEveryShotOnTheCompiledKernel) {
  jb::SurveySpec spec;
  spec.n = 16;
  spec.nt = 12;
  spec.n_shots = 2;
  spec.space_order = 4;
  spec.physics = "acoustic";
  spec.schedule = ph::Schedule::Wavefront;
  spec.ckpt_every = 4;
  spec.health_every = 4;

  TempDir jit_dir;
  spec.use_jit = true;
  spec.jobs_dir = jit_dir.path();
  tr::set_enabled(true);
  tr::reset();
  const jb::SurveyReport report = jb::run_survey(spec);
  const long long compiles = tr::value(tr::Counter::JitCompiles);
  tr::set_enabled(false);
  EXPECT_EQ(report.done, 2);
  EXPECT_EQ(report.degraded, 0);
  for (const jb::ShotReport& s : report.shots) {
    EXPECT_EQ(s.state, "done");
    EXPECT_EQ(s.level, 0);
    EXPECT_EQ(s.level_name, "wavefront+jit");
  }
#if !defined(TEMPEST_TRACE_DISABLED)
  EXPECT_GT(compiles, 0);
#else
  (void)compiles;
#endif

  TempDir aot_dir;
  jb::SurveySpec aot_spec = spec;
  aot_spec.use_jit = false;
  aot_spec.jobs_dir = aot_dir.path();
  const jb::SurveyReport aot = jb::run_survey(aot_spec);
  ASSERT_EQ(aot.done, 2);
  for (int shot = 0; shot < spec.n_shots; ++shot) {
    SCOPED_TRACE("shot " + std::to_string(shot));
    const sp::SparseTimeSeries want =
        tempest::io::load_gather(jb::shot_gather_path(aot_spec, shot));
    const sp::SparseTimeSeries got =
        tempest::io::load_gather(jb::shot_gather_path(spec, shot));
    ASSERT_EQ(got.nt(), want.nt());
    ASSERT_EQ(got.npoints(), want.npoints());
    double peak = 0.0;
    double diff = 0.0;
    for (int t = 0; t < want.nt(); ++t) {
      for (int r = 0; r < want.npoints(); ++r) {
        peak = std::max(peak, std::abs(static_cast<double>(want.at(t, r))));
        diff = std::max(diff, std::abs(static_cast<double>(got.at(t, r)) -
                                       want.at(t, r)));
      }
    }
    ASSERT_GT(peak, 0.0);
    EXPECT_LE(diff, 1e-5 * peak);
  }
}

// run_survey turns the histograms on for itself and must hand the caller's
// setting back on every exit, a survey that throws included.
TEST_F(SurveyRuntime, RunSurveyRestoresHistogramSwitchWhenItThrows) {
  jb::SurveySpec spec;
  spec.n = 8;
  spec.nt = 4;
  spec.n_shots = 1;
  spec.physics = "no-such-physics";
  for (const bool before : {false, true}) {
    TempDir dir;
    spec.jobs_dir = dir.path();
    ob::set_enabled(before);
    EXPECT_THROW(static_cast<void>(jb::run_survey(spec)),
                 tempest::util::PreconditionError);
    EXPECT_EQ(ob::enabled(), before);
  }
  ob::set_enabled(false);
}

// --- Journal re-entry: a journal left by a dead process is replayed, the
// interrupted shot re-runs, and the gathers match a clean run bitwise. ---

TEST_F(SurveyRuntime, RecoveredJournalReentersAndMatchesCleanRun) {
  jb::SurveySpec spec;
  spec.n = 16;
  spec.nt = 12;
  spec.n_shots = 2;
  spec.space_order = 4;
  spec.schedule = ph::Schedule::SpaceBlocked;
  spec.ckpt_every = 4;
  spec.health_every = 0;

  // The clean run: ground truth.
  TempDir clean;
  spec.jobs_dir = clean.path();
  const jb::SurveyReport ref = jb::run_survey(spec);
  ASSERT_EQ(ref.done, 2);
  EXPECT_FALSE(ref.recovered);

  // Fabricate a dead process: a journal whose shot 0 is left Running.
  TempDir dirty;
  std::filesystem::create_directories(dirty.path());
  {
    jb::JobQueue q(dirty.path() + "/journal.tpj", jb::survey_fingerprint(spec),
                   spec.n_shots);
    q.mark_started(0, 1, 0);
  }

  spec.jobs_dir = dirty.path();
  const jb::SurveyReport resumed = jb::run_survey(spec);
  EXPECT_TRUE(resumed.recovered);
  EXPECT_EQ(resumed.done, 2);

  for (int s = 0; s < spec.n_shots; ++s) {
    spec.jobs_dir = clean.path();
    const std::string a = jb::shot_gather_path(spec, s);
    spec.jobs_dir = dirty.path();
    const std::string b = jb::shot_gather_path(spec, s);
    EXPECT_TRUE(jb::files_identical(a, b)) << "shot " << s;
  }
}

// --- Watchdog: when every rung misses the per-step deadline the shot is
// quarantined with diagnostics — the survey completes, reporting it. ---

TEST_F(SurveyRuntime, ImpossibleWatchdogDeadlineQuarantines) {
  TempDir dir;
  jb::SurveySpec spec;
  spec.n = 14;
  spec.nt = 8;
  spec.n_shots = 1;
  spec.space_order = 4;
  // Barrier schedule: the watchdog is active on every rung of its ladder
  // (space-blocked, then reference).
  spec.schedule = ph::Schedule::SpaceBlocked;
  spec.jobs_dir = dir.path();
  spec.ckpt_every = 4;
  spec.health_every = 0;
  spec.watchdog_ms = 1e-7;  // no real step can beat this deadline
  spec.retry.base_ms = 0.1;

  const jb::SurveyReport report = jb::run_survey(spec);
  EXPECT_EQ(report.done, 0);
  EXPECT_EQ(report.quarantined, 1);
  ASSERT_EQ(report.shots.size(), 1u);
  EXPECT_EQ(report.shots[0].state, "quarantined");
  EXPECT_NE(report.shots[0].detail.find("ladder exhausted"),
            std::string::npos)
      << report.shots[0].detail;
  // A quarantined survey keeps its journal for the rerun to skip Done
  // shots and preserve the diagnostics.
  EXPECT_TRUE(std::filesystem::exists(dir.path() + "/journal.tpj"));
}
