#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tempest/jobs/report.hpp"
#include "tempest/physics/propagator.hpp"
#include "tempest/util/backoff.hpp"

namespace tempest::jobs {

/// Everything that defines a multi-shot survey run. The fingerprint of the
/// physics-relevant fields gates journal and checkpoint reuse: a resumed
/// run with different flags is rejected, never silently blended.
struct SurveySpec {
  int n = 64;           ///< cubic grid edge
  int nt = 80;          ///< timesteps per shot
  int n_shots = 3;
  int space_order = 8;
  std::string physics = "acoustic";  ///< acoustic | tti | vti | elastic
  physics::Schedule schedule = physics::Schedule::Wavefront;  ///< rung 0

  /// Start the ladder with a JIT-compiled generated kernel (acoustic only):
  /// the shot runs on codegen::JitAcoustic, the generated per-box update on
  /// the same engine, so a broken toolchain surfaces as a retryable
  /// JitCompileError and — when retries exhaust — degrades the shot to the
  /// AOT rung instead of failing the survey.
  bool use_jit = false;

  std::string jobs_dir = "survey_jobs";  ///< journal + checkpoints + gathers
  /// Checkpoint cadence (steps, 0 = off): a shot saves at the first step
  /// callback that reaches each multiple — the multiple itself on barrier
  /// rungs, the first band end at or past it on temporally blocked ones.
  int ckpt_every = 20;
  int health_every = 8;    ///< NaN/blow-up scan cadence (0 = off)
  /// Watchdog deadline per timestep (0 = off): a beat covering k steps
  /// (one per barrier step, tile_t per band end) is allowed k × this.
  double watchdog_ms = 0.0;

  /// Shot retry policy; run_survey() applies $TEMPEST_JOB_RETRIES /
  /// $TEMPEST_JOB_RETRY_BASE_MS on top (environment wins).
  util::BackoffPolicy retry{};

  std::string survey_json;  ///< BENCH_survey.json path ("" = skip)
  std::string openmetrics;  ///< OpenMetrics textfile path ("" = skip)
};

/// The live black box of shot `shot` while an attempt is running (and the
/// file a SIGKILL leaves behind): <jobs_dir>/blackbox/shot_<k>.tfbr.
[[nodiscard]] std::string blackbox_live_path(const SurveySpec& spec,
                                             int shot);

/// One rung of the survey degradation ladder: a schedule, optionally with
/// the JIT-compiled kernel in front of it.
struct SurveyRung {
  physics::Schedule sched = physics::Schedule::Reference;
  bool jit = false;
  std::string name;
};

/// The ladder for a requested schedule: the requested rung first (twice
/// when `use_jit` — JIT then AOT), then space-blocked, then reference,
/// without duplicates. Every shot starts at rung 0 and steps down on
/// degrade-class failures.
[[nodiscard]] std::vector<SurveyRung> degradation_ladder(
    physics::Schedule requested, bool use_jit);

/// Order-sensitive hash of every spec field a resumed run must match.
[[nodiscard]] std::uint64_t survey_fingerprint(const SurveySpec& spec);

/// Final gather of shot `k`: <jobs_dir>/shot_<k>.tpg, written atomically
/// (tmp + rename) before the shot's Done record is journaled.
[[nodiscard]] std::string shot_gather_path(const SurveySpec& spec, int shot);

/// Run (or resume) the survey described by `spec`. Creates jobs_dir,
/// replays its journal when one exists, re-enters interrupted shots from
/// their mid-shot checkpoints on every rung (resumed gathers match an
/// uninterrupted run bitwise), and drives every shot to Done or
/// Quarantined under the retry/degradation policy. Every rung runs the same
/// step callback: it beats the watchdog and saves on the ckpt_every rule.
/// On full success the journal and checkpoints are removed; the gathers
/// and the report remain.
///
/// Telemetry: every attempt runs under a crash-persistent flight recorder
/// at <jobs_dir>/blackbox/shot_<k>.tfbr (retained on degrade/quarantine,
/// recycled on success), and the latency histograms are collected
/// survey-wide for the report. The histogram switch is turned on for the
/// survey and restored on every exit, a throw included.
SurveyReport run_survey(const SurveySpec& spec);

}  // namespace tempest::jobs
