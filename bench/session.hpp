#pragma once

// Machine-readable bench harness: every driver (fig9/fig10/fig11/table1 +
// the four micro benches) funnels its measurements through a
// bench::Session, which emits a schema-versioned BENCH_<name>.json next
// to the human-readable ASCII/CSV tables. Successive PRs diff these files
// to track the perf trajectory (ROADMAP "fast as the hardware allows").
//
// Flags: --json=FILE (or bare --json for the default BENCH_<name>.json);
// --openmetrics=FILE (or bare --openmetrics for BENCH_<name>.om) exports
// the same measurement window as an OpenMetrics textfile — trace counters,
// obs latency histograms, PMU gauges — for Prometheus-style ingestion.
// The JSON carries: the driver config, an environment fingerprint, PMU
// availability (with the captured errno reason when degraded), per-case
// wall times for *every* repetition plus min/median, trace work-counter
// deltas, PMU samples, derived rates (model GFLOP/s, measured bandwidth
// and arithmetic intensity), roofline ceilings/points, and
// model-vs-measured validation verdicts. Reps are timed with the trace
// gate off unless --trace/--metrics turned it on; each case records which
// (`reps_traced`) and how many reps its counter deltas cover
// (`counter_reps`, see measure_case).
//
// Schema: "tempest-bench-v1". scripts/bench_check.py validates emitted
// files in CI; bump the schema string on breaking changes.

#include <algorithm>
#include <ctime>
#include <deque>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "tempest/grid/grid3.hpp"
#include "tempest/obs/metrics.hpp"
#include "tempest/obs/openmetrics.hpp"
#include "tempest/perf/calibrate.hpp"
#include "tempest/perf/pmu.hpp"
#include "tempest/perf/report.hpp"
#include "tempest/perf/roofline.hpp"
#include "tempest/physics/propagator.hpp"
#include "tempest/trace/trace.hpp"
#include "tempest/util/cli.hpp"
#include "tempest/util/json.hpp"
#include "tempest/util/log.hpp"

namespace bench {

inline constexpr const char* kBenchSchema = "tempest-bench-v1";

/// One measured benchmark case (one table row / figure point).
struct CaseResult {
  std::string name;
  std::map<std::string, std::string> tags;  ///< kernel, schedule, so, ...
  std::vector<double> rep_seconds;          ///< every repetition, in order
  long long point_updates = 0;              ///< per repetition
  double precompute_seconds = 0.0;
  tempest::trace::CounterSnapshot counters{};  ///< delta, see counter_reps
  bool reps_traced = false;  ///< timed reps ran with the trace gate on
  int counter_reps = 0;      ///< reps the counter deltas cover
  tempest::perf::pmu::Sample pmu{};            ///< delta across all reps
  std::map<std::string, double> derived;       ///< gflops, measured_ai, ...

  [[nodiscard]] double min_s() const {
    double m = 0.0;
    for (const double s : rep_seconds) m = (m == 0.0 || s < m) ? s : m;
    return m;
  }
  [[nodiscard]] double median_s() const {
    if (rep_seconds.empty()) return 0.0;
    std::vector<double> sorted = rep_seconds;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t n = sorted.size();
    return n % 2 == 1 ? sorted[n / 2]
                      : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
  }
  [[nodiscard]] double total_s() const {
    double t = 0.0;
    for (const double s : rep_seconds) t += s;
    return t;
  }
};

/// Result row captured from a google-benchmark run (micro benches).
struct BenchmarkRun {
  std::string name;
  double real_s = 0.0;  ///< real time per iteration
  long long iterations = 0;
  std::map<std::string, double> counters;
};

class Session {
 public:
  /// `bench_name` names the driver (fig11_roofline, micro_stencil, ...).
  /// JSON is emitted only when --json was given; bare `--json` selects
  /// BENCH_<bench_name>.json. Construct *early* — before the first
  /// parallel region starts the worker pool — so the inherit-scope PMU
  /// group observes the worker threads too.
  Session(std::string bench_name, const tempest::util::Cli& cli)
      : name_(std::move(bench_name)),
        group_(tempest::perf::pmu::Scope::Process) {
    if (cli.has("json")) {
      json_path_ = cli.get("json", "");
      if (json_path_.empty()) json_path_ = "BENCH_" + name_ + ".json";
    }
    if (cli.has("openmetrics")) {
      openmetrics_path_ = cli.get("openmetrics", "");
      if (openmetrics_path_.empty()) {
        openmetrics_path_ = "BENCH_" + name_ + ".om";
      }
      tempest::obs::reset_metrics();
      tempest::obs::set_enabled(true);
    }
    start_ = group_.read();
  }

  ~Session() { write(); }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  [[nodiscard]] bool active() const { return !json_path_.empty(); }
  [[nodiscard]] const tempest::perf::pmu::CounterGroup& group() const {
    return group_;
  }

  void add_config(const std::string& key, std::string value) {
    config_.emplace_back(key, std::move(value));
  }
  void add_config(const std::string& key, long long value) {
    add_config(key, std::to_string(value));
  }
  void add_config(const std::string& key, int value) {
    add_config(key, std::to_string(value));
  }
  void add_config(const std::string& key, bool value) {
    add_config(key, std::string(value ? "true" : "false"));
  }

  /// The returned reference stays valid for the Session's lifetime (the
  /// drivers hold a case across later add_case calls — deque storage).
  CaseResult& add_case(CaseResult c) {
    cases_.push_back(std::move(c));
    return cases_.back();
  }

  void set_roofline(const tempest::perf::Roofline& r) {
    ceilings_ = r.ceilings();
    points_ = r.points();
    have_roofline_ = true;
  }

  void add_validation(tempest::perf::TrafficValidation v) {
    validations_.push_back(std::move(v));
  }

  void add_benchmark_run(BenchmarkRun run) {
    benchmark_runs_.push_back(std::move(run));
  }

  /// Emit the JSON and OpenMetrics sinks now (also called from the
  /// destructor; idempotent).
  void write() {
    if (written_) return;
    written_ = true;
    if (!openmetrics_path_.empty()) {
      tempest::obs::OpenMetricsOptions om;
      const tempest::perf::pmu::Sample delta = group_.read() - start_;
      om.pmu = &delta;
      if (tempest::obs::write_openmetrics(openmetrics_path_, om)) {
        tempest::util::info("bench: wrote " + openmetrics_path_);
      } else {
        tempest::util::warn("bench: cannot write " + openmetrics_path_);
      }
    }
    if (!active()) return;
    std::ofstream os(json_path_);
    if (!os) {
      tempest::util::warn("bench: cannot write " + json_path_);
      return;
    }
    write_json(os);
    if (os) {
      tempest::util::info("bench: wrote " + json_path_);
    } else {
      tempest::util::warn("bench: short write to " + json_path_);
    }
  }

 private:
  void write_json(std::ostream& os) const {
    namespace pmu = tempest::perf::pmu;
    using tempest::util::JsonWriter;
    JsonWriter w(os);
    w.begin_object();
    w.field("schema", kBenchSchema);
    w.field("name", name_);
    w.field("timestamp", timestamp_utc());

    w.key("env");
    w.begin_object();
    w.field("fingerprint", tempest::perf::host_fingerprint());
    w.field("hardware_concurrency",
            static_cast<long long>(std::thread::hardware_concurrency()));
#if defined(__unix__) || defined(__APPLE__)
    w.field("page_size", static_cast<long long>(sysconf(_SC_PAGESIZE)));
#endif
    // Grids of 2 MiB or more ask for transparent huge pages; whether they
    // get them is this mode's call, so it rides beside every number.
    w.field("thp_mode", tempest::grid::huge_page_mode());
#if defined(__VERSION__)
    w.field("compiler", __VERSION__);
#endif
#if defined(NDEBUG)
    w.field("assertions", false);
#else
    w.field("assertions", true);
#endif
#if defined(TEMPEST_TRACE_DISABLED)
    w.field("trace_instrumentation", false);
#else
    w.field("trace_instrumentation", true);
#endif
    w.end_object();

    const pmu::Availability& avail = pmu::availability();
    w.key("pmu");
    w.begin_object();
    w.field("available", avail.any);
    w.field("hardware", avail.hardware);
    w.field("reason", avail.reason);
    w.key("process_delta");
    write_sample(w, group_.read() - start_);
    w.end_object();

    w.key("config");
    w.begin_object();
    for (const auto& [k, v] : config_) w.field(k, v);
    w.end_object();

    w.key("cases");
    w.begin_array();
    for (const CaseResult& c : cases_) {
      w.begin_object();
      w.field("name", c.name);
      w.key("tags");
      w.begin_object();
      for (const auto& [k, v] : c.tags) w.field(k, v);
      w.end_object();
      w.key("reps_s");
      w.begin_array();
      for (const double s : c.rep_seconds) w.value(s);
      w.end_array();
      w.field("min_s", c.min_s());
      w.field("median_s", c.median_s());
      w.field("reps_traced", c.reps_traced);
      w.field("counter_reps", static_cast<long long>(c.counter_reps));
      w.field("point_updates", c.point_updates);
      w.field("precompute_s", c.precompute_seconds);
      w.key("counters");
      w.begin_object();
      for (int i = 0; i < tempest::trace::kNumCounters; ++i) {
        w.field(tempest::trace::to_string(
                    static_cast<tempest::trace::Counter>(i)),
                c.counters[static_cast<std::size_t>(i)]);
      }
      w.end_object();
      w.key("pmu");
      write_sample(w, c.pmu);
      w.key("derived");
      w.begin_object();
      for (const auto& [k, v] : c.derived) w.field(k, v);
      w.end_object();
      w.end_object();
    }
    w.end_array();

    if (have_roofline_) {
      w.key("roofline");
      w.begin_object();
      w.key("ceilings");
      w.begin_object();
      w.field("peak_gflops", ceilings_.peak_gflops);
      w.field("l1_gbps", ceilings_.l1_gbps);
      w.field("l2_gbps", ceilings_.l2_gbps);
      w.field("l3_gbps", ceilings_.l3_gbps);
      w.field("dram_gbps", ceilings_.dram_gbps);
      w.end_object();
      w.key("points");
      w.begin_array();
      for (const auto& p : points_) {
        w.begin_object();
        w.field("name", p.name);
        w.field("ai", p.ai);
        w.field("gflops", p.gflops);
        w.end_object();
      }
      w.end_array();
      w.end_object();
    }

    w.key("validation");
    w.begin_array();
    for (const auto& v : validations_) {
      w.begin_object();
      w.field("name", v.name);
      w.field("predicted_bytes", v.predicted_bytes);
      w.field("measured_bytes", v.measured_bytes);
      w.field("ratio", v.ratio);
      w.field("warn_ratio", v.warn_ratio);
      w.field("fail_ratio", v.fail_ratio);
      w.field("verdict", tempest::perf::to_string(v.verdict));
      w.end_object();
    }
    w.end_array();

    if (!benchmark_runs_.empty()) {
      w.key("benchmark_runs");
      w.begin_array();
      for (const BenchmarkRun& r : benchmark_runs_) {
        w.begin_object();
        w.field("name", r.name);
        w.field("real_s", r.real_s);
        w.field("iterations", r.iterations);
        w.key("counters");
        w.begin_object();
        for (const auto& [k, v] : r.counters) w.field(k, v);
        w.end_object();
        w.end_object();
      }
      w.end_array();
    }

    w.end_object();
  }

  static void write_sample(tempest::util::JsonWriter& w,
                           const tempest::perf::pmu::Sample& s) {
    namespace pmu = tempest::perf::pmu;
    w.begin_object();
    w.field("valid_mask", static_cast<long long>(s.valid_mask));
    w.key("values");
    w.begin_object();
    for (int i = 0; i < pmu::kNumEvents; ++i) {
      const pmu::Event e = static_cast<pmu::Event>(i);
      if (s.valid(e)) w.field(pmu::to_string(e), s[e]);
    }
    w.end_object();
    w.end_object();
  }

  static std::string timestamp_utc() {
    const std::time_t now = std::time(nullptr);
    std::tm tm{};
#if defined(_WIN32)
    gmtime_s(&tm, &now);
#else
    gmtime_r(&now, &tm);
#endif
    char buf[32];
    std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
    return buf;
  }

  std::string name_;
  std::string json_path_;
  std::string openmetrics_path_;
  tempest::perf::pmu::CounterGroup group_;
  tempest::perf::pmu::Sample start_{};
  std::vector<std::pair<std::string, std::string>> config_;
  std::deque<CaseResult> cases_;
  tempest::perf::MachineCeilings ceilings_{};
  std::vector<tempest::perf::RooflinePoint> points_;
  bool have_roofline_ = false;
  std::vector<tempest::perf::TrafficValidation> validations_;
  std::vector<BenchmarkRun> benchmark_runs_;
  bool written_ = false;
};

/// Run `run_once` (returning physics::RunStats) `reps` times, recording
/// every repetition's wall time plus the PMU delta of the timed window.
/// This is the one spelling of "best-of-N" the drivers share: min is the
/// headline (least-perturbed) number, median and the full rep list ride in
/// the JSON for noise analysis.
///
/// Reps are timed as the trace gate finds them: off by default, so rep
/// times carry no span overhead. A JSON session then takes the work
/// counters from one extra untimed rep with the gate on (counter_reps 1).
/// When --trace/--metrics already turned the gate on, the timed reps are
/// traced and their own counter deltas are kept (counter_reps == reps).
template <typename RunFn>
CaseResult measure_case(Session& session, std::string name,
                        std::map<std::string, std::string> tags, int reps,
                        RunFn&& run_once) {
  using namespace tempest;
  CaseResult c;
  c.name = std::move(name);
  c.tags = std::move(tags);
  c.reps_traced = trace::enabled();
  trace::CounterSnapshot before = trace::snapshot();
  {
    const perf::pmu::PmuRegion region(session.group());
    for (int i = 0; i < std::max(1, reps); ++i) {
      const physics::RunStats s = run_once();
      c.rep_seconds.push_back(s.seconds);
      c.point_updates = s.point_updates;
      c.precompute_seconds = s.precompute_seconds;
    }
    c.pmu = region.delta();
  }
  if (c.reps_traced) {
    c.counter_reps = static_cast<int>(c.rep_seconds.size());
  } else if (session.active()) {
    trace::set_enabled(true);
    before = trace::snapshot();
    (void)run_once();
    trace::set_enabled(false);
    c.counter_reps = 1;
  }
  const trace::CounterSnapshot after = trace::snapshot();
  for (int i = 0; i < trace::kNumCounters; ++i) {
    c.counters[static_cast<std::size_t>(i)] =
        after[static_cast<std::size_t>(i)] -
        before[static_cast<std::size_t>(i)];
  }
  return c;
}

/// The RunStats of the fastest repetition, reconstructed from a
/// CaseResult (what the legacy best_of() returned).
[[nodiscard]] inline tempest::physics::RunStats best_stats(
    const CaseResult& c) {
  tempest::physics::RunStats s;
  s.seconds = c.min_s();
  s.precompute_seconds = c.precompute_seconds;
  s.point_updates = c.point_updates;
  return s;
}

}  // namespace bench
