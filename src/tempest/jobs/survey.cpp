#include "tempest/jobs/survey.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <type_traits>

#include "tempest/codegen/jit.hpp"
#include "tempest/io/io.hpp"
#include "tempest/jobs/runner.hpp"
#include "tempest/jobs/watchdog.hpp"
#include "tempest/obs/metrics.hpp"
#include "tempest/obs/openmetrics.hpp"
#include "tempest/obs/recorder.hpp"
#include "tempest/physics/acoustic.hpp"
#include "tempest/physics/elastic.hpp"
#include "tempest/physics/tti.hpp"
#include "tempest/physics/vti.hpp"
#include "tempest/resilience/checkpoint.hpp"
#include "tempest/resilience/fault.hpp"
#include "tempest/sparse/survey.hpp"
#include "tempest/sparse/wavelet.hpp"
#include "tempest/util/log.hpp"
#include "tempest/util/timer.hpp"

namespace tempest::jobs {

namespace {

using physics::Schedule;

/// Versioned framing of the per-shot checkpoint aux blob (see
/// resilience::aux_pack_versioned): magic "TPSS", layout version 1. Bump
/// the version when ShotAux changes layout — an old blob is then rejected
/// as a typed io::CorruptFileError instead of being reinterpreted.
constexpr std::uint32_t kShotAuxMagic = 0x54505353u;  // "TPSS"
constexpr std::uint32_t kShotAuxVersion = 1;
constexpr const char* kShotAuxName = "shot-state";

/// Which attempt wrote the checkpoint. The per-shot checkpoint fingerprint
/// already encodes shot/level/schedule; this blob carries the same facts
/// readably so a mismatch diagnoses itself (and exercises the versioned
/// framing end to end).
struct ShotAux {
  std::int32_t shot = 0;
  std::int32_t level = 0;
  std::int32_t sched = 0;
  std::int32_t jit = 0;
};

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string shot_ckpt_path(const SurveySpec& spec, int shot) {
  return spec.jobs_dir + "/shot_" + std::to_string(shot) + ".tpck";
}

/// A checkpoint is only resumable by the exact (shot, rung) that wrote it:
/// resuming a wavefront shot's state under the space-blocked rung (or vice
/// versa) would splice two schedules' rounding histories into one gather.
std::uint64_t shot_fingerprint(std::uint64_t base, int shot,
                               const SurveyRung& rung, int level) {
  resilience::Fingerprint fp;
  fp.add(base).add(shot).add(level).add(static_cast<int>(rung.sched));
  fp.add(rung.jit ? 1 : 0);
  return fp.value();
}

/// Arms the flight recorder around one attempt: a fresh (truncated) black
/// box under the live name, installed as the process-wide black box, with
/// job-state bookends. Destruction detects how the attempt ended — a
/// throw unwinding through the scope notes "attempt.fail" so the dead
/// shot's last record names its failure mode; the file itself is retained
/// or recycled later by the Runner outcome hook (and simply left behind
/// when the process is SIGKILL'd, which is the whole point).
class BlackboxScope {
 public:
  BlackboxScope(const SurveySpec& spec, const Attempt& a)
      : shot_(a.job), level_(a.level) {
    obs::FlightRecorder::Options o;
    o.shot = static_cast<std::uint32_t>(a.job);
    rec_ = obs::FlightRecorder::create(blackbox_live_path(spec, a.job), o);
    if (rec_ != nullptr) {
      obs::install_blackbox(rec_.get());
      obs::note_job_state("attempt.start", a.job, a.level);
    }
  }
  ~BlackboxScope() {
    if (rec_ != nullptr) {
      obs::note_job_state(
          std::uncaught_exceptions() > 0 ? "attempt.fail" : "attempt.done",
          shot_, level_);
      obs::uninstall_blackbox();
    }
  }
  BlackboxScope(const BlackboxScope&) = delete;
  BlackboxScope& operator=(const BlackboxScope&) = delete;

 private:
  std::unique_ptr<obs::FlightRecorder> rec_;
  int shot_ = 0;
  int level_ = 0;
};

/// Runner outcome hook: success recycles the live black box, a degrade or
/// quarantine retains it under a name carrying the verdict (and the rung
/// it died on, for degrades — one kept file per failed rung). A transient
/// failure leaves the live file in place for the retry to truncate.
void retain_or_recycle_blackbox(const SurveySpec& spec, const Attempt& a,
                                const std::string& outcome) {
  const std::string live = blackbox_live_path(spec, a.job);
  std::error_code ec;
  if (outcome == "done") {
    std::filesystem::remove(live, ec);
  } else if (outcome == "degraded" || outcome == "quarantined") {
    std::string kept = spec.jobs_dir + "/blackbox/shot_" +
                       std::to_string(a.job) + "." + outcome;
    if (outcome == "degraded") kept += "_l" + std::to_string(a.level);
    kept += ".tfbr";
    std::filesystem::rename(live, kept, ec);
  }
}

/// Turns the latency histograms on (from empty) for one survey and puts
/// the caller's setting back on every exit, a throw included.
class HistogramScope {
 public:
  HistogramScope() : was_enabled_(obs::enabled()) {
    obs::reset_metrics();
    obs::set_enabled(true);
  }
  ~HistogramScope() { obs::set_enabled(was_enabled_); }
  HistogramScope(const HistogramScope&) = delete;
  HistogramScope& operator=(const HistogramScope&) = delete;

 private:
  bool was_enabled_;
};

/// The rung's propagator: the generated kernel for a +jit rung, else the
/// AOT propagator of the survey's physics.
template <typename Propagator, typename Model>
Propagator make_propagator(const Model& model,
                           const physics::PropagatorOptions& opts,
                           const SurveySpec& spec) {
  if constexpr (std::is_same_v<Propagator, codegen::JitAcoustic>) {
    codegen::KernelSpec kspec;
    kspec.space_order = spec.space_order;
    Propagator prop(model, kspec, opts);
    // The +jit rung exists to run the compiled kernel: a toolchain failure
    // (the propagator fell back to the AOT template) is raised as the
    // transient JitCompileError, so the Runner retries with backoff and,
    // once the budget is spent, degrades the shot to the AOT rung below.
    if (!prop.compiled()) throw codegen::JitCompileError(prop.compile_error());
    return prop;
  } else {
    return Propagator(model, opts);
  }
}

/// One attempt of one shot, generic over the uniform propagator surface
/// (run/run_from/state_view/restore). Throws on failure; the Runner's
/// classify() decides retry vs degrade vs quarantine.
template <typename Propagator, typename Model>
AttemptResult run_shot(const Model& model, const SurveySpec& spec,
                       const std::vector<SurveyRung>& ladder,
                       std::uint64_t base_fp, const Attempt& a) {
  const SurveyRung& rung = ladder.at(static_cast<std::size_t>(a.level));
  const BlackboxScope blackbox(spec, a);
  const int n = spec.n;
  const int nt = spec.nt;

  physics::PropagatorOptions opts;
  opts.tiles = core::TileSpec{8, 64, 64, 8, 8};
  opts.health.check_every = spec.health_every;
  Propagator prop = make_propagator<Propagator>(model, opts, spec);
  // The model's critical dt: the constructor scanned the velocity for it.
  const auto wavelet = sparse::ricker(nt, prop.dt(), 0.008);

  // Shots march along x at 1/4 .. 3/4 of the line, off-the-grid.
  const double fx =
      0.25 + 0.5 * a.job / std::max(1, spec.n_shots - 1);
  sparse::SparseTimeSeries src(
      {{fx * (n - 1) + 0.37, 0.5 * (n - 1) + 0.61, 0.1 * (n - 1) + 0.43}},
      nt);
  src.broadcast_signature(wavelet);
  const sparse::CoordList rec_coords =
      sparse::receiver_carpet(model.geom.extents, 16, 8);
  sparse::SparseTimeSeries gather(rec_coords, nt);

  const std::uint64_t fp = shot_fingerprint(base_fp, a.job, rung, a.level);
  resilience::Checkpointer ckpt(shot_ckpt_path(spec, a.job));

  // Mid-shot resume, on every rung: the engine calls on_step wherever a
  // whole timestep exists (every step under a barrier, every band end under
  // temporal blocking), and a resumed run reproduces the uninterrupted one
  // bitwise under the rung's schedule.
  int t_start = Propagator::kFirstStep;
  bool resumed = false;
  try {
    if (const auto resume = ckpt.try_load(fp)) {
      const auto* blob = resume->find_aux(kShotAuxName);
      if (blob == nullptr) {
        throw io::CorruptFileError(ckpt.path(),
                                   "shot checkpoint lacks its " +
                                       std::string(kShotAuxName) + " blob");
      }
      const auto aux = resilience::aux_unpack_versioned<ShotAux>(
          ckpt.path(), *blob, kShotAuxMagic, kShotAuxVersion);
      if (aux.shot == a.job && aux.level == a.level) {
        prop.restore(*resume);
        if (resume->has_rec) gather = resume->rec;
        t_start = resume->step;
        resumed = true;
        util::info("shot " + std::to_string(a.job) + ": resuming from step " +
                   std::to_string(t_start));
      } else {
        ckpt.remove_all();  // another attempt's leftovers
      }
    }
  } catch (const resilience::CheckpointMismatchError&) {
    // A different rung/config wrote it; it cannot seed this attempt.
    ckpt.remove_all();
  } catch (const io::CorruptFileError& e) {
    util::warn(std::string("discarding unusable shot checkpoint: ") +
               e.what());
    ckpt.remove_all();
  }

  Watchdog wd(spec.watchdog_ms, now_ms);
  ShotAux aux;
  aux.shot = a.job;
  aux.level = a.level;
  aux.sched = static_cast<std::int32_t>(rung.sched);
  aux.jit = rung.jit ? 1 : 0;
  const resilience::AuxBlob aux_blob{
      kShotAuxName,
      resilience::aux_pack_versioned(kShotAuxMagic, kShotAuxVersion, aux)};
  // Save at the first callback that reaches the next multiple of
  // ckpt_every: every multiple on a barrier rung, the first band end at or
  // past it on a temporally blocked one.
  const auto next_multiple = [&](int t) {
    return (t / spec.ckpt_every + 1) * spec.ckpt_every;
  };
  int ckpt_due = spec.ckpt_every > 0 ? next_multiple(t_start) : nt;
  const auto on_step = [&](int t) {
    wd.beat(t);
    if (t < ckpt_due || t >= nt) return;
    ckpt_due = next_multiple(t);
    // Save the live slices and gather, no copy.
    resilience::CheckpointView ck = prop.state_view(t, fp, &gather);
    ck.aux = {&aux_blob, 1};
    try {
      ckpt.save(ck);
    } catch (const util::PreconditionError& e) {
      // A failed save is an environment problem (disk full, injected
      // fault), not a physics problem: retryable, and the rotated previous
      // checkpoint still covers the shot.
      throw util::TransientError(
          std::string("checkpoint save failed: ") + e.what());
    }
  };

  wd.start(t_start);
  const physics::RunStats stats =
      resumed ? prop.run_from(t_start, rung.sched, src, &gather, on_step)
              : prop.run(rung.sched, src, &gather, on_step);

  // Commit the gather atomically *before* the Done record is journaled:
  // once the queue says done, the bytes are on disk under their final name.
  const std::string out = shot_gather_path(spec, a.job);
  const std::string tmp = out + ".tmp";
  io::save_gather(tmp, gather);
  if (std::rename(tmp.c_str(), out.c_str()) != 0) {
    throw util::TransientError("cannot commit gather to '" + out + "'");
  }
  ckpt.remove_all();

  AttemptResult res;
  res.seconds = stats.seconds + stats.precompute_seconds;
  res.detail = rung.name;
  obs::record_ns(obs::Metric::ShotSeconds,
                 static_cast<std::int64_t>(res.seconds * 1e9));
  return res;
}

std::vector<LadderRung> runner_ladder(const std::vector<SurveyRung>& rungs) {
  std::vector<LadderRung> out;
  out.reserve(rungs.size());
  for (const SurveyRung& r : rungs) out.push_back(LadderRung{r.name});
  return out;
}

template <typename Propagator, typename Model>
int drive(const Model& model, const SurveySpec& spec,
          const std::vector<SurveyRung>& ladder, std::uint64_t base_fp,
          JobQueue& queue, const util::BackoffPolicy& policy) {
  Runner runner(queue, runner_ladder(ladder), policy,
                [&](const Attempt& a) {
                  if constexpr (std::is_same_v<Propagator,
                                               physics::AcousticPropagator>) {
                    if (ladder.at(static_cast<std::size_t>(a.level)).jit) {
                      return run_shot<codegen::JitAcoustic>(
                          model, spec, ladder, base_fp, a);
                    }
                  }
                  return run_shot<Propagator>(model, spec, ladder, base_fp,
                                              a);
                });
  runner.set_on_outcome([&spec](const Attempt& a, const char* outcome) {
    retain_or_recycle_blackbox(spec, a, outcome);
  });
  return runner.run();
}

}  // namespace

std::vector<SurveyRung> degradation_ladder(Schedule requested, bool use_jit) {
  std::vector<SurveyRung> ladder;
  const auto push = [&](Schedule s, bool jit) {
    for (const SurveyRung& r : ladder) {
      if (r.sched == s && r.jit == jit) return;
    }
    SurveyRung rung;
    rung.sched = s;
    rung.jit = jit;
    rung.name = std::string(physics::to_string(s)) + (jit ? "+jit" : "");
    ladder.push_back(std::move(rung));
  };
  if (use_jit) push(requested, true);
  push(requested, false);
  push(Schedule::SpaceBlocked, false);
  push(Schedule::Reference, false);
  return ladder;
}

std::uint64_t survey_fingerprint(const SurveySpec& spec) {
  resilience::Fingerprint fp;
  for (const char c : spec.physics) fp.add(static_cast<int>(c));
  fp.add(spec.n).add(spec.nt).add(spec.n_shots).add(spec.space_order);
  fp.add(static_cast<int>(spec.schedule));
  fp.add(spec.use_jit ? 1 : 0);
  return fp.value();
}

std::string shot_gather_path(const SurveySpec& spec, int shot) {
  return spec.jobs_dir + "/shot_" + std::to_string(shot) + ".tpg";
}

std::string blackbox_live_path(const SurveySpec& spec, int shot) {
  return spec.jobs_dir + "/blackbox/shot_" + std::to_string(shot) + ".tfbr";
}

SurveyReport run_survey(const SurveySpec& spec) {
  TEMPEST_REQUIRE(spec.n_shots > 0 && spec.nt >= 2 && spec.n >= 8);
  // Let the chaos harness arm its kill point in a child it spawned.
  resilience::fault::arm_kill_from_env();
  std::filesystem::create_directories(spec.jobs_dir + "/blackbox");
  const HistogramScope histograms;

  const std::uint64_t base_fp = survey_fingerprint(spec);
  const bool jit_rung = spec.use_jit && spec.physics == "acoustic";
  const std::vector<SurveyRung> ladder =
      degradation_ladder(spec.schedule, jit_rung);
  JobQueue queue(spec.jobs_dir + "/journal.tpj", base_fp, spec.n_shots);
  if (queue.recovered()) {
    util::info("recovered a journal with interrupted shots; re-entering");
  }
  const util::BackoffPolicy policy =
      util::BackoffPolicy::from_env("TEMPEST_JOB", spec.retry);

  util::Timer total;
  const physics::Geometry geom{{spec.n, spec.n, spec.n}, 10.0,
                               spec.space_order, 10};
  if (spec.physics == "acoustic") {
    const physics::AcousticModel model =
        physics::make_acoustic_layered(geom, 1.5, 4.0, 6);
    drive<physics::AcousticPropagator>(model, spec, ladder, base_fp, queue,
                                       policy);
  } else if (spec.physics == "tti" || spec.physics == "vti") {
    physics::TTIModel model = physics::make_tti_layered(geom, 1.5, 4.0, 6);
    if (spec.physics == "vti") {
      model.theta.fill(0.0f);  // untilted: a genuine VTI medium
      model.phi.fill(0.0f);
    }
    if (spec.physics == "vti") {
      drive<physics::VTIPropagator>(model, spec, ladder, base_fp, queue,
                                    policy);
    } else {
      drive<physics::TTIPropagator>(model, spec, ladder, base_fp, queue,
                                    policy);
    }
  } else if (spec.physics == "elastic") {
    const physics::ElasticModel model =
        physics::make_elastic_layered(geom, 1.5, 4.0, 6);
    drive<physics::ElasticPropagator>(model, spec, ladder, base_fp, queue,
                                      policy);
  } else {
    TEMPEST_REQUIRE_MSG(false, "unknown physics '" + spec.physics +
                                   "' (expected acoustic, tti, vti or "
                                   "elastic)");
  }

  SurveyReport report;
  report.physics = spec.physics;
  report.requested_schedule = physics::to_string(spec.schedule);
  report.size = spec.n;
  report.steps = spec.nt;
  report.n_shots = spec.n_shots;
  report.recovered = queue.recovered();
  report.total_seconds = total.seconds();
  for (int i = 0; i < queue.n_jobs(); ++i) {
    const JobInfo& j = queue.job(i);
    ShotReport row;
    row.shot = i;
    row.state = to_string(j.state);
    row.attempts = j.attempts;
    row.level = j.level;
    row.level_name = ladder.at(static_cast<std::size_t>(j.level)).name;
    row.degraded = j.degraded;
    row.seconds = j.seconds;
    row.detail = j.detail;
    report.shots.push_back(std::move(row));
  }
  report.latency = obs::snapshot_metrics();
  if (!spec.openmetrics.empty()) obs::write_openmetrics(spec.openmetrics);
  finalize_aggregates(report);
  if (!spec.survey_json.empty()) {
    write_survey_json(spec.survey_json, report);
  }

  // The chaos harness sizes its kill plan from this: total progress ticks
  // of an uninterrupted run.
  {
    std::ofstream p(spec.jobs_dir + "/progress.txt", std::ios::trunc);
    p << resilience::fault::progress_count() << "\n";
  }

  // Only a fully successful survey retires its journal; quarantined shots
  // keep it (and their diagnostics) for the operator.
  if (report.done == spec.n_shots) {
    queue.remove_journal();
  }
  return report;
}

}  // namespace tempest::jobs
