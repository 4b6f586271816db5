#include "tempest/jobs/report.hpp"

#include <fstream>

#include "tempest/util/error.hpp"
#include "tempest/util/json.hpp"

namespace tempest::jobs {

void finalize_aggregates(SurveyReport& report) {
  report.done = 0;
  report.degraded = 0;
  report.quarantined = 0;
  for (const ShotReport& s : report.shots) {
    if (s.state == "done") {
      report.done += 1;
      report.degraded += s.degraded ? 1 : 0;
    } else if (s.state == "quarantined") {
      report.quarantined += 1;
    }
  }
  // Quantiles from the shared histogram (see report.hpp for the rule) —
  // the same numbers any fleet-level aggregator derives from the exported
  // buckets.
  const obs::Histogram& h =
      report.latency[static_cast<std::size_t>(obs::Metric::ShotSeconds)];
  report.p50_shot_seconds = static_cast<double>(h.quantile(0.50)) / 1e9;
  report.p99_shot_seconds = static_cast<double>(h.quantile(0.99)) / 1e9;
  report.shots_per_hour =
      report.total_seconds > 0.0
          ? static_cast<double>(report.done) * 3600.0 / report.total_seconds
          : 0.0;
}

void write_survey_json(const std::string& path, const SurveyReport& report) {
  std::ofstream os(path);
  TEMPEST_REQUIRE_MSG(os.good(), "cannot open '" + path + "' for write");
  util::JsonWriter w(os);
  w.begin_object();
  w.field("schema", "tempest-survey-v2");
  w.field("physics", report.physics);
  w.field("requested_schedule", report.requested_schedule);
  w.field("size", report.size);
  w.field("steps", report.steps);
  w.field("shots", report.n_shots);
  w.field("recovered", report.recovered);
  w.field("total_seconds", report.total_seconds);
  w.field("done", report.done);
  w.field("degraded", report.degraded);
  w.field("quarantined", report.quarantined);
  w.field("shots_per_hour", report.shots_per_hour);
  w.field("p50_shot_seconds", report.p50_shot_seconds);
  w.field("p99_shot_seconds", report.p99_shot_seconds);
  // Each histogram is exported as cumulative le-buckets in seconds (only
  // the occupied ones; cumulative counts are non-decreasing by
  // construction and the final entry always equals "count").
  w.key("latency_histograms");
  w.begin_object();
  for (int m = 0; m < obs::kNumMetrics; ++m) {
    const obs::Histogram& h = report.latency[static_cast<std::size_t>(m)];
    w.key(obs::to_string(static_cast<obs::Metric>(m)));
    w.begin_object();
    w.field("count", static_cast<unsigned long long>(h.count()));
    w.field("sum_seconds", static_cast<double>(h.sum()) / 1e9);
    w.field("min_seconds", static_cast<double>(h.min()) / 1e9);
    w.field("max_seconds", static_cast<double>(h.max()) / 1e9);
    w.key("buckets");
    w.begin_array();
    unsigned long long cum = 0;
    for (int i = 0; i < obs::Histogram::kNumBuckets; ++i) {
      const std::uint64_t n = h.bucket_count(i);
      if (n == 0) continue;
      cum += n;
      w.begin_object();
      w.field("le", static_cast<double>(obs::Histogram::bucket_upper(i)) / 1e9);
      w.field("count", cum);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.key("shot_reports");
  w.begin_array();
  for (const ShotReport& s : report.shots) {
    w.begin_object();
    w.field("shot", s.shot);
    w.field("state", s.state);
    w.field("attempts", s.attempts);
    w.field("level", s.level);
    w.field("level_name", s.level_name);
    w.field("degraded", s.degraded);
    w.field("seconds", s.seconds);
    w.field("detail", s.detail);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os.flush();
  TEMPEST_REQUIRE_MSG(os.good(), "writing '" + path + "' failed");
}

}  // namespace tempest::jobs
