#pragma once

#include <string>
#include <vector>

#include "tempest/obs/histogram.hpp"
#include "tempest/obs/metrics.hpp"

namespace tempest::jobs {

/// Final per-shot row of the survey report, straight from the job queue.
struct ShotReport {
  int shot = 0;
  std::string state;       ///< done | quarantined | pending (aborted run)
  int attempts = 0;        ///< Started records across all levels
  int level = 0;           ///< final degradation-ladder level
  std::string level_name;  ///< ladder rung the shot finished (or died) on
  bool degraded = false;   ///< finished below the requested rung
  double seconds = 0.0;    ///< wall-clock of the winning attempt
  std::string detail;      ///< diagnostics from the last recorded event
};

/// Machine-readable survey summary, schema "tempest-survey-v2": the
/// per-shot rows, the throughput aggregates and a "latency_histograms"
/// object with the full fixed-layout bucket contents of every obs metric.
/// p50/p99 come from the ShotSeconds histogram under the shared
/// obs::Histogram quantile rule (inclusive upper bound of the first bucket
/// whose cumulative count reaches ceil(q*N), clamped to the observed
/// [min, max]; an upward bias of at most one bucket width, <= 12.5%
/// relative). Histogram-derived quantiles are what a fleet aggregator can
/// merge across surveys without the raw samples.
struct SurveyReport {
  std::string physics;
  std::string requested_schedule;
  int size = 0;
  int steps = 0;
  int n_shots = 0;
  bool recovered = false;  ///< this run resumed a dead process's journal
  double total_seconds = 0.0;
  int done = 0;
  int degraded = 0;
  int quarantined = 0;
  double shots_per_hour = 0.0;  ///< completed shots over total wall-clock
  double p50_shot_seconds = 0.0;
  double p99_shot_seconds = 0.0;
  obs::MetricSnapshot latency{};  ///< survey-wide metric histograms
  std::vector<ShotReport> shots;
};

/// Fill the throughput/latency aggregates from the per-shot rows,
/// `total_seconds` and `latency`: shots/hour counts Done shots against the
/// whole run's wall-clock; p50/p99 come from the ShotSeconds histogram (see
/// the SurveyReport comment for the quantile rule).
void finalize_aggregates(SurveyReport& report);

/// Write the schema-versioned BENCH_survey.json sink
/// (scripts/bench_check.py validates it in CI).
void write_survey_json(const std::string& path, const SurveyReport& report);

}  // namespace tempest::jobs
