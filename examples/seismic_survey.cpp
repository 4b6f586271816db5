// Seismic survey: a multi-shot forward-modelling run, the workload that
// motivates the paper (the forward half of FWI/RTM) — now a thin CLI over
// the crash-tolerant tempest::jobs survey runtime.
//
// Every shot is a journaled job: its state transitions are appended to a
// CRC-framed write-ahead journal under --jobs-dir before they are acted
// on, every shot checkpoints its full propagation state every --ckpt-every
// steps (two rotated generations; under wavefront and diamond at the first
// band end past each multiple), and a killed run restarted with the same
// flags resumes exactly where it died — finished shots are skipped, the
// in-flight shot re-enters mid-run from its checkpoint on any schedule,
// and the final gathers are bit-identical to an uninterrupted run.
//
// Failures are classified, not fatal: transient faults (JIT compile
// hiccups, checkpoint I/O errors) are retried with exponential backoff
// (--retries / --retry-base-ms, or $TEMPEST_JOB_RETRIES /
// $TEMPEST_JOB_RETRY_BASE_MS); slow or numerically diverging shots step
// down a degradation ladder (requested schedule -> space-blocked ->
// reference, JIT -> AOT) and are reported as degraded; deterministic
// rejections (illegal schedule, bad config) are quarantined with
// diagnostics and never retried.
//
// Build & run:  ./build/examples/seismic_survey [--size=160] [--steps=160]
//               [--shots=3] [--physics=acoustic|tti|vti|elastic]
//               [--schedule=reference|space-blocked|wavefront|diamond]
//               [--jobs-dir=survey_jobs] [--ckpt-every=40]
//               [--health-every=8] [--watchdog-ms=0] [--jit]
//               [--retries=3] [--retry-base-ms=50]
//               [--survey-json=BENCH_survey.json] [--out=gather.csv]
//               [--trace=survey_trace.json] [--metrics=survey_metrics.csv]
//               [--openmetrics=survey.om]
//
// --survey-json writes the machine-readable tempest-survey-v2 report
// (shots/hour, p50/p99 shot latency, per-shot outcomes, latency
// histograms). --out exports the last shot's gather as CSV for plotting.
// Exit status is nonzero when any shot was quarantined.
//
// Observability is always on: every attempt runs under a crash-persistent
// flight recorder (<jobs-dir>/blackbox/shot_<k>.tfbr, decode with
// tools/blackbox_dump), the report carries the survey-wide latency
// histograms, and --openmetrics exports the counters and histograms as an
// OpenMetrics textfile for Prometheus scraping. --trace/--metrics add the
// Chrome trace and the flat metrics of the same spans.

#include <cstdio>
#include <iostream>
#include <string>

#include "tempest/io/io.hpp"
#include "tempest/jobs/survey.hpp"
#include "tempest/trace/trace.hpp"
#include "tempest/util/cli.hpp"

int main(int argc, char** argv) {
  using namespace tempest;
  const util::Cli cli(argc, argv);
  jobs::SurveySpec spec;
  spec.n = static_cast<int>(cli.get_int("size", 160));
  spec.nt = static_cast<int>(cli.get_int("steps", 160));
  spec.n_shots = static_cast<int>(cli.get_int("shots", 3));
  spec.space_order = static_cast<int>(cli.get_int("so", 8));
  spec.physics = cli.get("physics", "acoustic");
  spec.schedule = physics::schedule_from_string(cli.get("schedule", "wavefront"));
  spec.use_jit = cli.get_flag("jit");
  spec.jobs_dir = cli.get("jobs-dir", "survey_jobs");
  spec.ckpt_every = static_cast<int>(cli.get_int("ckpt-every", 40));
  spec.health_every = static_cast<int>(cli.get_int("health-every", 8));
  spec.watchdog_ms = cli.get_double("watchdog-ms", 0.0);
  spec.retry.max_attempts = static_cast<int>(cli.get_int("retries", 3));
  spec.retry.base_ms = cli.get_double("retry-base-ms", 50.0);
  spec.survey_json = cli.get("survey-json", "");
  spec.openmetrics = cli.get("openmetrics", "");
  const std::string out_csv = cli.get("out", "");
  const trace::Session trace_session(cli.get("trace", ""),
                                     cli.get("metrics", ""));

  std::cout << spec.n_shots << " shots, grid " << spec.n << "^3, "
            << spec.nt << " steps, physics " << spec.physics
            << ", schedule " << physics::to_string(spec.schedule)
            << ", jobs dir " << spec.jobs_dir << "\n";

  const jobs::SurveyReport report = jobs::run_survey(spec);

  for (const jobs::ShotReport& s : report.shots) {
    std::cout << "shot " << s.shot << ": " << s.state << " on '"
              << s.level_name << "' after " << s.attempts << " attempt(s), "
              << s.seconds << " s" << (s.degraded ? " [degraded]" : "");
    if (s.state != "done") std::cout << " — " << s.detail;
    std::cout << "\n";
  }
  std::cout << "\nsurvey: " << report.done << "/" << report.n_shots
            << " shots done (" << report.degraded << " degraded, "
            << report.quarantined << " quarantined) in "
            << report.total_seconds << " s — " << report.shots_per_hour
            << " shots/hour, shot latency p50 " << report.p50_shot_seconds
            << " s / p99 " << report.p99_shot_seconds << " s\n";

  if (!out_csv.empty() && report.done > 0) {
    // Export the last completed shot's gather for plotting.
    for (int i = report.n_shots - 1; i >= 0; --i) {
      if (report.shots[static_cast<std::size_t>(i)].state != "done") continue;
      const auto gather = io::load_gather(jobs::shot_gather_path(spec, i));
      // Time column in timesteps (dt is model-dependent).
      io::save_gather_csv(out_csv, gather, 1.0);
      std::cout << "shot " << i << " gather written to " << out_csv << "\n";
      break;
    }
  }
  return report.quarantined == 0 ? 0 : 2;
}
