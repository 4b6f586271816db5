// The repository benchmark: one program, four workloads, end-to-end metrics
// from an untraced run and a per-layer time budget from a separate traced
// run. perfbench/README.md documents every workload and metric, and which
// end-to-end metric each layer metric should move.
//
// Usage:
//   tempest_bench --workload=NAME [--seed=N] [--seconds=S] [--json=FILE]
//                 [--work-dir=DIR] [--traced [--trace-out=FILE]] [--smoke]
//
// Load model: a closed loop with one caller. Each shot starts when the
// previous one returns, which is how a survey runs. Every parallel region
// uses kThreads workers. The seed generates the source and receiver
// positions; the program only receives the resulting coordinates.
//
// Untraced, tempest_bench reports gpts, shot_s, setup_s and peak_rss_mb. A
// timed shot counts only when its gather is finite, bitwise equal to the
// first timed shot, and within kRelTolerance of an oracle schedule.
//
// --traced calls each layer's public functions on the workload's own
// inputs, harvests the program's existing spans and counters around a few
// traced shots, and prints the time budget
//   shot_s             = pre-loop layers + core.loop_s + bench.unaccounted_s
//   threads * loop_s   = stencil + inject + interp + reduce + ckpt + idle.
// End-to-end numbers come only from the untraced run.
//
// --json writes the whole result: every metric with its unit, samples, n
// and quartiles, the checks and (traced) the budget. perfbench/run.py
// turns it into the benchmark's one-line result. --trace-out writes the
// benchmark's own spans (workload -> phase -> layer call) as Chrome JSON.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "tempest/analysis/statics/interference.hpp"
#include "tempest/cachesim/instrumented_acoustic.hpp"
#include "tempest/codegen/emit.hpp"
#include "tempest/core/compress.hpp"
#include "tempest/core/precompute.hpp"
#include "tempest/core/tile_graph.hpp"
#include "tempest/io/io.hpp"
#include "tempest/jobs/survey.hpp"
#include "tempest/obs/metrics.hpp"
#include "tempest/perf/calibrate.hpp"
#include "tempest/perf/metrics.hpp"
#include "tempest/physics/acoustic.hpp"
#include "tempest/resilience/checkpoint.hpp"
#include "tempest/resilience/health.hpp"
#include "tempest/sparse/operators.hpp"
#include "tempest/sparse/survey.hpp"
#include "tempest/sparse/wavelet.hpp"
#include "tempest/trace/trace.hpp"
#include "tempest/util/cli.hpp"
#include "tempest/util/json.hpp"
#include "tempest/util/rng.hpp"
#include "tempest/util/threads.hpp"
#include "tempest/util/timer.hpp"

namespace {

using namespace tempest;
using physics::Schedule;
namespace fs = std::filesystem;

constexpr const char* kSchema = "tempest-perfbench-v1";

/// Half of the host's four vCPUs. At four workers one wavefront shot's
/// median varied by a third across processes; at two it stays within a
/// few percent.
constexpr int kThreads = 2;
constexpr int kSetups = 3;     ///< set-ups per run; setup_s is their median
constexpr int kTracedReps = 2;  ///< traced (and untraced) shots per traced run
constexpr int kMaxReps = 1000;
constexpr double kRelTolerance = 1e-5;
constexpr double kMiB = 1024.0 * 1024.0;

volatile long long g_sink = 0;  ///< keeps probe results observable

// ------------------------------------------------------------ statistics

/// Linearly interpolated quantile of `v` (q in [0, 1]).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  std::string unit;
  std::vector<double> samples;
};

/// Named metrics in insertion order; a metric's value is its median.
class MetricSet {
 public:
  void add(const std::string& name, const std::string& unit,
           std::vector<double> samples) {
    items_.push_back({name, unit, std::move(samples)});
  }
  void add(const std::string& name, const std::string& unit, double value) {
    add(name, unit, std::vector<double>{value});
  }
  [[nodiscard]] double value(const std::string& name) const {
    for (const Metric& m : items_) {
      if (m.name == name) return median(m.samples);
    }
    return 0.0;
  }
  [[nodiscard]] const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

/// One line of the time budget: `total` split into named terms plus the
/// remainder nothing named accounts for.
struct BudgetLine {
  std::string total_name;
  double total = 0.0;
  std::vector<std::pair<std::string, double>> terms;
  std::string remainder_name;

  [[nodiscard]] double remainder() const {
    double r = total;
    for (const auto& t : terms) r -= t.second;
    return r;
  }
};

struct Outcome {
  int attempted = 0;
  int failed = 0;
  bool checked = false;  ///< the oracle comparison ran
  double max_rel_err = std::numeric_limits<double>::infinity();
  MetricSet metrics;
  std::vector<BudgetLine> budget;

  [[nodiscard]] bool correct() const {
    return checked && attempted > 0 && failed == 0;
  }
};

// ------------------------------------------------------------- own spans

/// The benchmark's own spans (workload -> phase -> layer call), kept in
/// memory and written as Chrome trace JSON at exit.
class SpanLog {
 public:
  int begin(const char* name) {
    spans_.push_back({name, now_us(), 0.0,
                      stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void end(int id) {
    spans_[static_cast<std::size_t>(id)].end_us = now_us();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  bool write_chrome(const std::string& path,
                    const std::string& workload) const {
    std::ofstream os(path);
    if (!os) return false;
    util::JsonWriter w(os);
    w.begin_object();
    w.key("traceEvents");
    w.begin_array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      w.begin_object();
      w.field("name", s.name);
      w.field("cat", "bench");
      w.field("ph", "X");
      w.field("pid", 1);
      w.field("tid", 0);
      w.field("ts", s.start_us);
      w.field("dur", s.end_us - s.start_us);
      w.key("args");
      w.begin_object();
      w.field("id", static_cast<long long>(i));
      w.field("parent", s.parent);
      w.field("workload", workload);
      w.end_object();
      w.end_object();
    }
    w.end_array();
    w.field("displayTimeUnit", "ms");
    w.end_object();
    return static_cast<bool>(os);
  }

 private:
  struct Span {
    const char* name;
    double start_us;
    double end_us;
    int parent;
  };
  [[nodiscard]] double now_us() const { return clock_.seconds() * 1e6; }

  util::Timer clock_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class Scope {
 public:
  Scope(SpanLog& log, const char* name) : log_(log), id_(log.begin(name)) {}
  ~Scope() { log_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

/// Time `reps` calls of `fn`, each under its own span.
template <typename Fn>
std::vector<double> time_reps(SpanLog& log, const char* name, int reps,
                              Fn&& fn) {
  std::vector<double> out;
  for (int i = 0; i < reps; ++i) {
    const Scope span(log, name);
    util::Timer t;
    fn();
    out.push_back(t.seconds());
  }
  return out;
}

// -------------------------------------------------------------- workloads

struct Workload {
  std::string name;
  bool survey = false;  ///< jobs::run_survey instead of Propagator::run
  int n = 0;            ///< cubic extent, absorbing sponge included
  int so = 4;
  int nt = 0;           ///< timesteps per shot
  Schedule sched = Schedule::Wavefront;
  Schedule oracle = Schedule::SpaceBlocked;
  core::TileSpec tiles{8, 32, 32, 8, 8};
  bool dense = false;    ///< dense_volume sources + receiver carpet
  int n_sources = 1;
  int carpet = 0;        ///< receiver carpet edge (dense)
  int n_receivers = 128;  ///< receiver line length (otherwise)
  int shots = 0;         ///< shots per survey
  int ckpt_every = 0;
  int health_every = 0;
};

/// The four workloads; --smoke shrinks every size so the whole set runs in
/// seconds while exercising the same code paths and checks.
std::vector<Workload> workloads(bool smoke) {
  // Five live fields of 320^3 floats are 2.3x the 300 MiB LLC, so the
  // stencil streams from DRAM, where temporal blocking pays.
  Workload wtb;
  wtb.name = "acoustic-wtb-large";
  wtb.n = smoke ? 40 : 320;
  wtb.nt = smoke ? 16 : 64;
  wtb.sched = Schedule::Wavefront;
  wtb.oracle = Schedule::SpaceBlocked;

  Workload sb = wtb;
  sb.name = "acoustic-sb-large";
  sb.sched = Schedule::SpaceBlocked;
  sb.oracle = Schedule::Wavefront;

  // An LLC-resident grid made this workload's throughput swing twice as
  // much with the load of other guests on the host as a 256^3 one.
  Workload dense;
  dense.name = "dense-sources-diamond";
  dense.n = smoke ? 32 : 256;
  dense.nt = smoke ? 24 : 128;
  dense.sched = Schedule::Diamond;
  dense.oracle = Schedule::SpaceBlocked;
  dense.dense = true;
  dense.n_sources = smoke ? 64 : 8192;
  dense.carpet = smoke ? 4 : 32;

  Workload survey;
  survey.name = "survey-ckpt";
  survey.survey = true;
  survey.n = smoke ? 24 : 96;
  survey.so = 8;
  survey.nt = smoke ? 24 : 96;
  survey.sched = Schedule::SpaceBlocked;
  survey.oracle = Schedule::Reference;
  survey.tiles = core::TileSpec{8, 64, 64, 8, 8};  // run_survey's own tiles
  survey.shots = smoke ? 2 : 4;
  survey.ckpt_every = smoke ? 8 : 16;
  survey.health_every = smoke ? 4 : 8;

  return {wtb, sb, dense, survey};
}

bool temporally_blocked(Schedule s) {
  return s == Schedule::Wavefront || s == Schedule::Diamond;
}

physics::Geometry geometry(const Workload& w) {
  return {{w.n, w.n, w.n}, 10.0, w.so, 10};
}

physics::PropagatorOptions propagator_options(const Workload& w,
                                              int threads) {
  physics::PropagatorOptions o;
  o.tiles = w.tiles;
  o.threads = threads;
  o.health.check_every = w.health_every;
  return o;
}

long long point_updates(const Workload& w) {
  return static_cast<long long>(w.nt - 1) * w.n * w.n * w.n;
}

struct Inputs {
  sparse::SparseTimeSeries src;
  sparse::SparseTimeSeries rec;
};

/// Move every position to a seeded place inside its own grid cell: the
/// seed changes every interpolation weight but not which grid points a
/// position touches, so the work per shot does not depend on the seed.
sparse::CoordList jitter(sparse::CoordList coords, util::SplitMix64& rng) {
  for (sparse::Coord3& c : coords) {
    c.x = std::floor(c.x) + 0.05 + 0.9 * rng.uniform();
    c.y = std::floor(c.y) + 0.05 + 0.9 * rng.uniform();
    c.z = std::floor(c.z) + 0.05 + 0.9 * rng.uniform();
  }
  return coords;
}

Inputs make_inputs(const Workload& w, double dt, std::uint64_t seed) {
  const grid::Extents3 e{w.n, w.n, w.n};
  sparse::CoordList src_xyz;
  sparse::CoordList rec_xyz;
  if (w.survey) {
    // run_survey's first shot. SurveySpec takes no geometry, so the survey
    // is the same for every seed.
    src_xyz = {{0.25 * (w.n - 1) + 0.37, 0.5 * (w.n - 1) + 0.61,
                0.1 * (w.n - 1) + 0.43}};
    rec_xyz = sparse::receiver_carpet(e, 16, 8);
  } else {
    util::SplitMix64 rng(seed);
    src_xyz = w.dense ? sparse::dense_volume(e, w.n_sources, seed, 10)
                      : jitter(sparse::single_center_source(e), rng);
    rec_xyz = jitter(w.dense ? sparse::receiver_carpet(e, w.carpet, w.carpet)
                             : sparse::receiver_line(e, w.n_receivers),
                     rng);
  }
  Inputs in{sparse::SparseTimeSeries(std::move(src_xyz), w.nt),
            sparse::SparseTimeSeries(std::move(rec_xyz), w.nt)};
  in.src.broadcast_signature(
      sparse::ricker(w.nt, dt, w.survey ? 0.008 : 0.010));
  return in;
}

/// Model, propagator and inputs of one workload. The propagator refers to
/// the model, which lives on the heap so the rig can move.
struct Rig {
  std::unique_ptr<physics::AcousticModel> model;
  std::unique_ptr<physics::AcousticPropagator> prop;
  Inputs in;
};

/// The set-up a user pays before the first shot (model build, propagator
/// construction, source and receiver series), done kSetups times with only
/// one rig alive at a time. Returns the last rig.
Rig set_up(const Workload& w, std::uint64_t seed, SpanLog& log,
           std::vector<double>& model_s, std::vector<double>& ctor_s) {
  std::optional<Rig> rig;
  for (int i = 0; i < kSetups; ++i) {
    rig.reset();
    const Scope span(log, "setup");
    Rig r;
    {
      const Scope s(log, "physics.model");
      util::Timer t;
      r.model = std::make_unique<physics::AcousticModel>(
          w.survey ? physics::make_acoustic_layered(geometry(w), 1.5, 4.0, 6)
                   : physics::make_acoustic_layered(geometry(w)));
      model_s.push_back(t.seconds());
    }
    {
      const Scope s(log, "physics.ctor");
      util::Timer t;
      r.prop = std::make_unique<physics::AcousticPropagator>(
          *r.model, propagator_options(w, kThreads));
      r.in = make_inputs(w, r.prop->dt(), seed);
      ctor_s.push_back(t.seconds());
    }
    rig.emplace(std::move(r));
  }
  return std::move(*rig);
}

// ----------------------------------------------------------------- checks

bool all_finite(const sparse::SparseTimeSeries& s) {
  for (int t = 0; t < s.nt(); ++t) {
    for (const real_t v : s.step(t)) {
      if (!std::isfinite(v)) return false;
    }
  }
  return true;
}

bool bitwise_equal(const sparse::SparseTimeSeries& a,
                   const sparse::SparseTimeSeries& b) {
  if (a.nt() != b.nt() || a.npoints() != b.npoints()) return false;
  for (int t = 0; t < a.nt(); ++t) {
    if (std::memcmp(a.step(t).data(), b.step(t).data(),
                    a.step(t).size_bytes()) != 0) {
      return false;
    }
  }
  return true;
}

/// max|got - oracle| / max|oracle| (+inf when the shapes differ).
double relative_error(const sparse::SparseTimeSeries& got,
                      const sparse::SparseTimeSeries& oracle) {
  if (got.nt() != oracle.nt() || got.npoints() != oracle.npoints()) {
    return std::numeric_limits<double>::infinity();
  }
  double err = 0.0;
  double scale = 0.0;
  for (int t = 0; t < got.nt(); ++t) {
    for (int p = 0; p < got.npoints(); ++p) {
      err = std::max(err, std::abs(static_cast<double>(got.at(t, p)) -
                                   oracle.at(t, p)));
      scale = std::max(scale, std::abs(static_cast<double>(oracle.at(t, p))));
    }
  }
  if (err == 0.0) return 0.0;
  return scale > 0.0 ? err / scale : std::numeric_limits<double>::infinity();
}

/// The per-rep checks of one output stream: every rep must be finite and
/// bitwise equal to the first passing rep; the first rep is compared with
/// the oracle once, at the end.
class OutputCheck {
 public:
  bool record(const sparse::SparseTimeSeries& got) {
    if (!all_finite(got)) return false;
    if (!first_) {
      first_ = got;
    } else if (!bitwise_equal(got, *first_)) {
      return false;
    }
    ++passed_;
    return true;
  }
  [[nodiscard]] const std::optional<sparse::SparseTimeSeries>& first() const {
    return first_;
  }
  [[nodiscard]] int passed() const { return passed_; }

 private:
  std::optional<sparse::SparseTimeSeries> first_;
  int passed_ = 0;
};

/// Fold one stream's oracle comparison into the outcome: when the first rep
/// misses the oracle, every rep that matched it bitwise fails too.
void settle(Outcome& out, const OutputCheck& check,
            const sparse::SparseTimeSeries* oracle) {
  const double err = (check.first() && oracle != nullptr)
                         ? relative_error(*check.first(), *oracle)
                         : std::numeric_limits<double>::infinity();
  out.max_rel_err = out.checked ? std::max(out.max_rel_err, err) : err;
  out.checked = true;
  if (!(err <= kRelTolerance)) out.failed += check.passed();
}

bool keep_going(int reps, const util::Timer& phase, double seconds,
                bool smoke) {
  const int min_reps = smoke ? 1 : 3;
  return reps < min_reps || (phase.seconds() < seconds && reps < kMaxReps);
}

// ------------------------------------------------------------ shot runs

struct ShotResult {
  bool ok = false;
  double wall_s = 0.0;  ///< Propagator::run as its caller sees it
  physics::RunStats stats;
};

ShotResult run_shot(Rig& rig, Schedule sched, OutputCheck* check) {
  ShotResult r;
  try {
    util::Timer t;
    r.stats = rig.prop->run(sched, rig.in.src, &rig.in.rec);
    r.wall_s = t.seconds();
    r.ok = check == nullptr || check->record(rig.in.rec);
  } catch (const std::exception& e) {
    std::cerr << "tempest_bench: shot failed: " << e.what() << "\n";
  }
  return r;
}

sparse::SparseTimeSeries oracle_gather(Rig& rig, Schedule oracle) {
  sparse::SparseTimeSeries ref(rig.in.rec.coords(), rig.in.rec.nt());
  rig.prop->run(oracle, rig.in.src, &ref);
  return ref;
}

struct SurveyResult {
  double wall_s = 0.0;
  jobs::SurveyReport report;
  /// Per shot; empty for a shot that did not finish.
  std::vector<std::optional<sparse::SparseTimeSeries>> gathers;
};

jobs::SurveySpec survey_spec(const Workload& w, const fs::path& dir,
                             Schedule sched, int ckpt_every) {
  jobs::SurveySpec spec;
  spec.n = w.n;
  spec.nt = w.nt;
  spec.n_shots = w.shots;
  spec.space_order = w.so;
  spec.schedule = sched;
  spec.use_jit = false;  // the JIT writes outside the working directory
  spec.jobs_dir = dir.string();
  spec.ckpt_every = ckpt_every;
  spec.health_every = w.health_every;
  return spec;
}

/// One survey in a fresh jobs directory, which is removed afterwards.
SurveyResult survey_once(const jobs::SurveySpec& spec) {
  fs::remove_all(spec.jobs_dir);
  SurveyResult r;
  util::Timer t;
  r.report = jobs::run_survey(spec);
  r.wall_s = t.seconds();
  for (int k = 0; k < spec.n_shots; ++k) {
    const bool done =
        static_cast<std::size_t>(k) < r.report.shots.size() &&
        r.report.shots[static_cast<std::size_t>(k)].state == "done";
    if (done) {
      r.gathers.emplace_back(io::load_gather(jobs::shot_gather_path(spec, k)));
    } else {
      r.gathers.emplace_back();
    }
  }
  fs::remove_all(spec.jobs_dir);
  return r;
}

double survey_loop_seconds(const SurveyResult& r) {
  double s = 0.0;
  for (const jobs::ShotReport& shot : r.report.shots) s += shot.seconds;
  return s;
}

/// Check every shot of one survey; returns the number of passing shots.
int check_survey(const SurveyResult& r, std::vector<OutputCheck>& checks) {
  int ok = 0;
  for (std::size_t k = 0; k < checks.size(); ++k) {
    if (r.gathers[k] && checks[k].record(*r.gathers[k])) ++ok;
  }
  return ok;
}

void settle_survey(Outcome& out, const Workload& w, const fs::path& dir,
                   const std::vector<OutputCheck>& checks) {
  const SurveyResult ref =
      survey_once(survey_spec(w, dir, w.oracle, /*ckpt_every=*/0));
  for (std::size_t k = 0; k < checks.size(); ++k) {
    settle(out, checks[k], ref.gathers[k] ? &*ref.gathers[k] : nullptr);
  }
}

// ------------------------------------------------------- untraced runs

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool smoke = false;
  fs::path work;
};

std::vector<double> sum(const std::vector<double>& a,
                        const std::vector<double>& b) {
  std::vector<double> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

Outcome untraced_shots(const Workload& w, const RunConfig& cfg,
                       SpanLog& log) {
  Outcome out;
  std::vector<double> model_s;
  std::vector<double> ctor_s;
  Rig rig = set_up(w, cfg.seed, log, model_s, ctor_s);
  {
    const Scope span(log, "warm-up");
    run_shot(rig, w.sched, nullptr);
  }
  // Set-up plus one shot. Later shots can only add heap fragmentation,
  // whose amount depends on how many shots fit in the run.
  out.metrics.add("peak_rss_mb", "MiB", peak_rss_mib());
  OutputCheck check;
  std::vector<double> wall;
  std::vector<double> gpts;
  const util::Timer phase;
  while (keep_going(out.attempted, phase, cfg.seconds, cfg.smoke)) {
    const Scope span(log, "shot");
    ++out.attempted;
    const ShotResult r = run_shot(rig, w.sched, &check);
    if (!r.ok) {
      ++out.failed;
      continue;
    }
    wall.push_back(r.wall_s);
    gpts.push_back(r.stats.gpoints_per_s());
  }
  {
    const Scope span(log, "oracle");
    const sparse::SparseTimeSeries ref = oracle_gather(rig, w.oracle);
    settle(out, check, &ref);
  }
  out.metrics.add("gpts", "GPts/s", gpts);
  out.metrics.add("shot_s", "s", wall);
  out.metrics.add("setup_s", "s", sum(model_s, ctor_s));
  return out;
}

Outcome untraced_survey(const Workload& w, const RunConfig& cfg,
                        SpanLog& log) {
  Outcome out;
  std::vector<double> model_s;
  std::vector<double> ctor_s;
  // The survey's own set-up, measured from outside with the calls
  // run_survey makes; freed before the surveys run.
  set_up(w, cfg.seed, log, model_s, ctor_s);

  const fs::path dir = cfg.work / "survey";
  const jobs::SurveySpec spec = survey_spec(w, dir, w.sched, w.ckpt_every);
  {
    const Scope span(log, "warm-up");
    survey_once(spec);
  }
  out.metrics.add("peak_rss_mb", "MiB", peak_rss_mib());
  std::vector<OutputCheck> checks(static_cast<std::size_t>(w.shots));
  std::vector<double> shot_s;
  std::vector<double> gpts;
  int surveys = 0;
  const util::Timer phase;
  while (keep_going(surveys, phase, cfg.seconds, cfg.smoke)) {
    const Scope span(log, "survey");
    ++surveys;
    out.attempted += w.shots;
    try {
      const SurveyResult r = survey_once(spec);
      const int ok = check_survey(r, checks);
      out.failed += w.shots - ok;
      shot_s.push_back(r.wall_s / w.shots);
      if (ok == w.shots) {
        gpts.push_back(static_cast<double>(point_updates(w)) * w.shots /
                       survey_loop_seconds(r) / 1e9);
      }
    } catch (const std::exception& e) {
      std::cerr << "tempest_bench: survey failed: " << e.what() << "\n";
      out.failed += w.shots;
    }
  }
  {
    const Scope span(log, "oracle");
    settle_survey(out, w, dir, checks);
  }
  out.metrics.add("gpts", "GPts/s", gpts);
  out.metrics.add("shot_s", "s", shot_s);
  out.metrics.add("setup_s", "s", sum(model_s, ctor_s));
  return out;
}

// ----------------------------------------------------------- traced run

/// What the program's own spans and counters say about one shot.
struct Harvest {
  double stencil_s = 0.0;  ///< thread-seconds inside stencil blocks
  double inject_s = 0.0;
  double interp_s = 0.0;
  double reduce_s = 0.0;
  double ckpt_write_s = 0.0;
  long long ckpt_writes = 0;
  trace::CounterSnapshot counters{};

  void scale(double f) {
    stencil_s *= f;
    inject_s *= f;
    interp_s *= f;
    reduce_s *= f;
    ckpt_write_s *= f;
  }
};

void reset_telemetry() {
  trace::reset();
  obs::reset_metrics();
}

void set_telemetry(bool on) {
  trace::set_enabled(on);
  obs::set_enabled(on);
}

/// Sum the existing inject / interp / interp.reduce spans, the stencil
/// block latencies (obs TileSeconds, recorded on the worker that ran the
/// block under every schedule) and the checkpoint writes since the last
/// reset_telemetry().
Harvest harvest() {
  Harvest h;
  for (const trace::Event& e : trace::events()) {
    const double s = static_cast<double>(e.dur_ns) * 1e-9;
    if (std::strcmp(e.name, "inject") == 0) {
      h.inject_s += s;
    } else if (std::strcmp(e.name, "interp") == 0) {
      h.interp_s += s;
    } else if (std::strcmp(e.name, "interp.reduce") == 0) {
      h.reduce_s += s;
    }
  }
  const obs::Histogram tiles = obs::metric_histogram(obs::Metric::TileSeconds);
  h.stencil_s = static_cast<double>(tiles.sum()) * 1e-9;
  const obs::Histogram ck =
      obs::metric_histogram(obs::Metric::CheckpointWriteSeconds);
  h.ckpt_write_s = static_cast<double>(ck.sum()) * 1e-9;
  h.ckpt_writes = static_cast<long long>(ck.count());
  h.counters = trace::snapshot();
  return h;
}

/// Per-shot numbers of the traced phase. For the survey every value is the
/// survey's total divided by its shot count.
struct LoopStats {
  std::vector<double> wall;         ///< traced shot wall time
  std::vector<double> loop;         ///< traced RunStats::seconds
  std::vector<double> precompute;   ///< traced RunStats::precompute_seconds
  std::vector<double> loop_plain;   ///< untraced RunStats::seconds
  std::vector<double> gpts_plain;   ///< untraced throughput
  std::vector<Harvest> harvest;
  std::vector<double> remainder;    ///< survey wall minus its shots' time
  long long attempts = 0;
  long long degraded = 0;
  long long quarantined = 0;
};

LoopStats traced_shots(const Workload& w, Rig& rig, SpanLog& log,
                       Outcome& out) {
  LoopStats ls;
  OutputCheck check;
  {
    const Scope span(log, "warm-up");
    run_shot(rig, w.sched, nullptr);
  }
  for (int i = 0; i < 2 * kTracedReps; ++i) {
    const bool traced = i >= kTracedReps;
    const Scope span(log, traced ? "shot.traced" : "shot");
    if (traced) reset_telemetry();
    set_telemetry(traced);
    ++out.attempted;
    const ShotResult r = run_shot(rig, w.sched, &check);
    set_telemetry(false);
    if (!r.ok) {
      ++out.failed;
      continue;
    }
    if (traced) {
      ls.wall.push_back(r.wall_s);
      ls.loop.push_back(r.stats.seconds);
      ls.precompute.push_back(r.stats.precompute_seconds);
      ls.harvest.push_back(harvest());
    } else {
      ls.loop_plain.push_back(r.stats.seconds);
      ls.gpts_plain.push_back(r.stats.gpoints_per_s());
    }
  }
  reset_telemetry();
  const Scope span(log, "oracle");
  const sparse::SparseTimeSeries ref = oracle_gather(rig, w.oracle);
  settle(out, check, &ref);
  return ls;
}

LoopStats traced_surveys(const Workload& w, const RunConfig& cfg,
                         SpanLog& log, Outcome& out) {
  LoopStats ls;
  const fs::path dir = cfg.work / "survey";
  const jobs::SurveySpec spec = survey_spec(w, dir, w.sched, w.ckpt_every);
  std::vector<OutputCheck> checks(static_cast<std::size_t>(w.shots));
  {
    const Scope span(log, "warm-up");
    survey_once(spec);
  }
  const double per_shot = 1.0 / w.shots;
  for (int i = 0; i < 2 * kTracedReps; ++i) {
    const bool traced = i >= kTracedReps;
    const Scope span(log, traced ? "survey.traced" : "survey");
    if (traced) reset_telemetry();
    trace::set_enabled(traced);  // run_survey owns the obs gate
    out.attempted += w.shots;
    try {
      const SurveyResult r = survey_once(spec);
      trace::set_enabled(false);
      const int ok = check_survey(r, checks);
      out.failed += w.shots - ok;
      if (ok != w.shots) continue;
      const double loop = survey_loop_seconds(r);
      if (traced) {
        ls.wall.push_back(r.wall_s * per_shot);
        ls.loop.push_back(loop * per_shot);
        ls.precompute.push_back(0.0);
        ls.remainder.push_back((r.wall_s - loop) * per_shot);
        Harvest h = harvest();
        h.scale(per_shot);
        ls.harvest.push_back(h);
        for (const jobs::ShotReport& s : r.report.shots) {
          ls.attempts += s.attempts;
        }
        ls.degraded += r.report.degraded;
        ls.quarantined += r.report.quarantined;
      } else {
        ls.loop_plain.push_back(loop * per_shot);
        ls.gpts_plain.push_back(static_cast<double>(point_updates(w)) /
                                (loop * per_shot) / 1e9);
      }
    } catch (const std::exception& e) {
      trace::set_enabled(false);
      std::cerr << "tempest_bench: survey failed: " << e.what() << "\n";
      out.failed += w.shots;
    }
  }
  reset_telemetry();
  const Scope span(log, "oracle");
  settle_survey(out, w, dir, checks);
  return ls;
}

/// Probes of the sparse precompute (paper Listings 2-5) on the workload's
/// own sources and receivers.
void probe_precompute(const Workload& w, const Rig& rig, SpanLog& log,
                      MetricSet& m) {
  const grid::Extents3 e{w.n, w.n, w.n};
  const auto kind = sparse::InterpKind::Trilinear;
  core::SourceMasks masks;
  core::DecomposedReceivers drec;
  m.add("core.masks_s", "s", time_reps(log, "core.masks", 3, [&] {
          masks = core::build_source_masks(e, rig.in.src, kind);
        }));
  m.add("core.decompose_src_s", "s",
        time_reps(log, "core.decompose_src", 3, [&] {
          g_sink = g_sink +
                   core::decompose_sources(masks, rig.in.src, kind).npts();
        }));
  m.add("core.decompose_rec_s", "s",
        time_reps(log, "core.decompose_rec", 3, [&] {
          drec = core::decompose_receivers(e, rig.in.rec, kind);
        }));
  m.add("core.compress_s", "s", time_reps(log, "core.compress", 3, [&] {
          const core::CompressedSparse src(masks.sm, masks.sid);
          const core::CompressedSparse rec(drec.rm, drec.rid);
          g_sink = g_sink + src.total_entries() + rec.total_entries();
        }));
  m.add("core.npts_src", "count", masks.npts);
  m.add("core.npts_rec", "count", drec.npts);
  const double bytes =
      static_cast<double>(masks.sm.padded_size() + drec.rm.padded_size()) +
      static_cast<double>(masks.sid.padded_size() + drec.rid.padded_size()) *
          sizeof(int);
  m.add("core.precompute_mib", "MiB", bytes / kMiB);
}

/// Probes of the schedule machinery at the workload's geometry. Barrier
/// workloads derive no tile graph; for them the graph and race probes
/// price the wavefront graph at the same tiles.
void probe_schedule(const Workload& w, SpanLog& log, MetricSet& m) {
  const grid::Extents3 e{w.n, w.n, w.n};
  const int radius = w.so / 2;
  const int tile_t = std::max(1, w.tiles.tile_t);
  const bool diamond = w.sched == Schedule::Diamond;
  const analysis::AccessSummary summary =
      physics::acoustic_access_summary(w.so);
  const analysis::ScheduleDescriptor descr =
      diamond ? analysis::ScheduleDescriptor::diamond(radius, tile_t)
              : analysis::ScheduleDescriptor::wavefront(radius, tile_t);

  core::engine::TileGraph graph;
  m.add("core.tilegraph_s", "s", time_reps(log, "core.tilegraph", 3, [&] {
          graph = core::engine::TileGraph::derive(summary, descr, true, true,
                                                  w.tiles, true);
        }));

  // The model the engine's pre-run gate proves (see core/engine.hpp).
  analysis::statics::TileModel tm;
  tm.schedule = descr;
  tm.tile_x = w.tiles.tile_x;
  tm.tile_y = w.tiles.tile_y;
  tm.nx = e.nx;
  tm.ny = e.ny;
  tm.radius = radius;
  tm.time_reads = summary.time_reads;
  tm.receivers = true;
  m.add("analysis.race_proof_s", "s",
        time_reps(log, "analysis.race_proof", 3, [&] {
          g_sink = g_sink +
                   analysis::statics::prove_race_free(tm).unordered_pairs;
        }));

  // The schedule's iteration machinery with an empty block body.
  const auto empty = [](int, const grid::Box3&) {};
  m.add("core.tiler_overhead_s", "s",
        time_reps(log, "core.tiler_overhead", 3, [&] {
          if (w.sched == Schedule::Wavefront) {
            core::engine::run_wavefront_tasks(e, 1, w.nt, radius, w.tiles,
                                              graph, kThreads, empty);
          } else if (diamond) {
            core::DiamondSpec d;
            d.height = tile_t;
            d.width = std::max(w.tiles.tile_x, 2 * radius * d.height);
            d.block_x = w.tiles.block_x;
            d.block_y = w.tiles.block_y;
            core::engine::run_diamond_tasks(e, 1, w.nt, radius, d, kThreads,
                                            empty);
          } else {
            const auto blocks = grid::decompose_xy(
                grid::Box3::whole(e), w.tiles.block_x, w.tiles.block_y);
            for (int t = 1; t < w.nt; ++t) {
              util::parallel_for(static_cast<int>(blocks.size()), kThreads,
                                 [](int) {});
            }
          }
        }));
}

/// Probes of the barrier schedules' sparse operator set-up.
void probe_sparse(const Workload& w, const Rig& rig, SpanLog& log,
                  MetricSet& m) {
  const grid::Extents3 e{w.n, w.n, w.n};
  const auto kind = sparse::InterpKind::Trilinear;
  sparse::SupportCache src_cache;
  sparse::ColorSets colors;
  m.add("sparse.support_cache_s", "s",
        time_reps(log, "sparse.support_cache", 3, [&] {
          src_cache = sparse::SupportCache(rig.in.src, kind, e);
          const sparse::SupportCache rec_cache(rig.in.rec, kind, e);
          g_sink = g_sink + static_cast<long long>(rec_cache.per_point.size());
        }));
  m.add("sparse.colors_s", "s", time_reps(log, "sparse.colors", 3, [&] {
          colors = sparse::ColorSets(src_cache, e);
        }));
  m.add("sparse.color_layers", "count", colors.colors());
}

void probe_codegen(const Workload& w, SpanLog& log, MetricSet& m) {
  codegen::KernelSpec spec;
  spec.space_order = w.so;
  spec.wavefront = temporally_blocked(w.sched);
  spec.tiles = w.tiles;
  m.add("codegen.emit_s", "s", time_reps(log, "codegen.emit", 3, [&] {
          g_sink = g_sink + static_cast<long long>(
                                codegen::emit_acoustic_c(spec).size());
        }));
}

/// fig11's scaled replay: the workload's schedule and tile height on a 48^3
/// grid through a cache hierarchy scaled to keep the working-set:L3 and
/// L2:L3 ratios. Diamond has no replay; it is priced as wavefront.
double modelled_dram_bytes_per_point(const Workload& w, bool smoke,
                                     SpanLog& log) {
  const Scope span(log, "cachesim.replay");
  const int sim = smoke ? 16 : 48;
  const double fields_bytes = 5.0 * sim * sim * sim * 4.0;
  auto pow2_cache = [](double target_bytes, int ways) {
    std::uint64_t sets = 1;
    while (static_cast<double>(2 * sets) * ways * 64 <= target_bytes) sets *= 2;
    return cachesim::CacheConfig{sets * static_cast<std::uint64_t>(ways) * 64,
                                 ways, 64};
  };
  cachesim::TraceConfig trace;
  trace.extents = {sim, sim, sim};
  trace.space_order = w.so;
  trace.t_begin = 1;
  trace.t_end = 1 + (smoke ? 2 : 8);
  const int sim_tile = std::max(8, sim / 4);
  trace.tiles = core::TileSpec{w.tiles.tile_t, sim_tile, sim_tile,
                               w.tiles.block_x, w.tiles.block_y};
  trace.wavefront = temporally_blocked(w.sched);
  cachesim::CacheHierarchy hierarchy(
      cachesim::CacheConfig{32 * 1024, 8, 64},
      pow2_cache(fields_bytes / 1.35 / 128, 8),
      pow2_cache(fields_bytes / 1.35, 16));
  const long long updates = cachesim::replay_acoustic_trace(trace, hierarchy);
  return hierarchy.traffic().dram_bytes / static_cast<double>(updates);
}

/// Checkpoint, health-scan and gather-save probes on the rig's state after
/// its last shot.
void probe_state(const Workload& w, Rig& rig, const RunConfig& cfg,
                 SpanLog& log, MetricSet& m) {
  const int step = w.nt - 1;
  const resilience::Checkpointer ckpt((cfg.work / "probe.tpck").string());
  double save_s = 0.0;
  {
    const resilience::Checkpoint ck =
        rig.prop->capture(step, 0x7e57, &rig.in.rec);
    const Scope span(log, "resilience.ckpt_save");
    util::Timer t;
    ckpt.save(ck);
    save_s = t.seconds();
  }
  const double mib = static_cast<double>(fs::file_size(ckpt.path())) / kMiB;
  double load_s = 0.0;
  {
    const Scope span(log, "resilience.ckpt_load");
    util::Timer t;
    g_sink = g_sink + ckpt.load().step;
    load_s = t.seconds();
  }
  ckpt.remove_all();
  m.add("resilience.ckpt_save_s", "s", save_s);
  m.add("resilience.ckpt_load_s", "s", load_s);
  m.add("resilience.ckpt_mib", "MiB", mib);

  resilience::HealthMonitor monitor(resilience::HealthPolicy{1});
  m.add("resilience.health_scan_s", "s",
        time_reps(log, "resilience.health_scan", 3, [&] {
          monitor.check(rig.prop->wavefield(step), "u", step);
        }));

  const std::string gather = (cfg.work / "probe.tpg").string();
  m.add("io.gather_save_s", "s", time_reps(log, "io.gather_save", 3, [&] {
          io::save_gather(gather, rig.in.rec);
        }));
  fs::remove(gather);
}

/// Loop time of a short run on one worker over kThreads times the same run
/// on kThreads workers.
double parallel_efficiency(const Workload& w, Rig& rig, SpanLog& log) {
  const Scope span(log, "util.parallel_eff");
  const int nt = std::min(w.nt, 2 * w.tiles.tile_t + 1);
  sparse::SparseTimeSeries src(rig.in.src.coords(), nt);
  for (int t = 0; t < nt; ++t) {
    std::copy(rig.in.src.step(t).begin(), rig.in.src.step(t).end(),
              src.step(t).begin());
  }
  sparse::SparseTimeSeries rec(rig.in.rec.coords(), nt);
  auto best_loop = [&](physics::AcousticPropagator& prop) {
    double best = std::numeric_limits<double>::infinity();
    for (int i = 0; i < 2; ++i) {
      best = std::min(best, prop.run(w.sched, src, &rec).seconds);
    }
    return best;
  };
  const double many = best_loop(*rig.prop);
  physics::AcousticPropagator serial(*rig.model, propagator_options(w, 1));
  const double one = best_loop(serial);
  return one / (kThreads * many);
}

std::vector<double> per_shot(const std::vector<Harvest>& hs,
                             double Harvest::*field) {
  std::vector<double> out;
  for (const Harvest& h : hs) out.push_back(h.*field);
  return out;
}

std::vector<double> counter(const std::vector<Harvest>& hs, trace::Counter c,
                            double scale = 1.0) {
  std::vector<double> out;
  for (const Harvest& h : hs) {
    out.push_back(static_cast<double>(h.counters[static_cast<std::size_t>(c)]) *
                  scale);
  }
  return out;
}

Outcome traced(const Workload& w, const RunConfig& cfg, SpanLog& log) {
  Outcome out;
  MetricSet& m = out.metrics;

  // Machine ceilings first, before the workload's fields exist. The triad
  // array is four times the 300 MiB LLC.
  double triad = 0.0;
  double fma = 0.0;
  {
    const Scope span(log, "perf.triad");
    triad = perf::triad_bandwidth_gbps(
        cfg.smoke ? std::size_t{16} << 20 : std::size_t{1200} << 20, 2);
  }
  {
    const Scope span(log, "perf.fma");
    fma = perf::fma_peak_gflops(2);
  }

  std::vector<double> model_s;
  std::vector<double> ctor_s;
  Rig rig = set_up(w, cfg.seed, log, model_s, ctor_s);
  m.add("physics.model_s", "s", model_s);
  m.add("physics.ctor_s", "s", ctor_s);
  probe_precompute(w, rig, log, m);
  probe_schedule(w, log, m);
  probe_sparse(w, rig, log, m);
  probe_codegen(w, log, m);
  const double dram_bpp = modelled_dram_bytes_per_point(w, cfg.smoke, log);

  const LoopStats ls = w.survey ? traced_surveys(w, cfg, log, out)
                                : traced_shots(w, rig, log, out);
  // The survey's rig never ran: its state is zero, but its size and layout
  // are those of the survey's shots, which is what the probes price.
  probe_state(w, rig, cfg, log, m);
  m.add("util.parallel_eff", "ratio", parallel_efficiency(w, rig, log));

  // In-situ layer times of the traced shots.
  m.add("core.loop_s", "s", ls.loop);
  m.add("core.precompute_s", "s", ls.precompute);
  m.add("core.shot_s", "s", ls.wall);
  m.add("physics.stencil_busy_s", "s",
        per_shot(ls.harvest, &Harvest::stencil_s));
  m.add("sparse.inject_busy_s", "s", per_shot(ls.harvest, &Harvest::inject_s));
  m.add("sparse.interp_busy_s", "s", per_shot(ls.harvest, &Harvest::interp_s));
  m.add("core.reduce_s", "s", per_shot(ls.harvest, &Harvest::reduce_s));
  m.add("obs.ckpt_write_sum_s", "s",
        per_shot(ls.harvest, &Harvest::ckpt_write_s));
  std::vector<double> ckpt_saves;
  std::vector<double> idle;
  std::vector<double> halo_ratio;
  for (std::size_t i = 0; i < ls.harvest.size(); ++i) {
    const Harvest& h = ls.harvest[i];
    ckpt_saves.push_back(static_cast<double>(h.ckpt_writes) /
                         std::max(1, w.shots));
    idle.push_back(kThreads * ls.loop[i] - h.stencil_s - h.inject_s -
                   h.interp_s - h.reduce_s - h.ckpt_write_s);
    const auto cells = static_cast<double>(
        h.counters[static_cast<std::size_t>(trace::Counter::CellsUpdated)]);
    const auto halo = static_cast<double>(
        h.counters[static_cast<std::size_t>(trace::Counter::HaloCellsTouched)]);
    halo_ratio.push_back(cells > 0.0 ? halo / cells : 0.0);
  }
  m.add("resilience.ckpt_saves", "count", ckpt_saves);
  m.add("util.idle_s", "s", idle);
  const double counter_scale = w.survey ? 1.0 / w.shots : 1.0;
  m.add("core.cells", "count",
        counter(ls.harvest, trace::Counter::CellsUpdated, counter_scale));
  m.add("core.blocks", "count",
        counter(ls.harvest, trace::Counter::BlocksExecuted, counter_scale));
  m.add("core.tiles", "count",
        counter(ls.harvest, trace::Counter::TilesExecuted, counter_scale));
  m.add("core.bands", "count",
        counter(ls.harvest, trace::Counter::BandsExecuted, counter_scale));
  m.add("core.halo_ratio", "ratio", halo_ratio);
  m.add("sparse.injected", "count",
        counter(ls.harvest, trace::Counter::SourcesInjected, counter_scale));
  m.add("sparse.interpolated", "count",
        counter(ls.harvest, trace::Counter::ReceiversInterpolated,
                counter_scale));
  m.add("jobs.attempts", "count", static_cast<double>(ls.attempts));
  m.add("jobs.degraded", "count", static_cast<double>(ls.degraded));
  m.add("jobs.quarantined", "count", static_cast<double>(ls.quarantined));
  m.add("jobs.remainder_s", "s", ls.remainder);

  // Roofline: modelled traffic, measured rate and measured ceilings.
  const double flops = perf::acoustic_flops_per_point(w.so);
  const double ai = flops / dram_bpp;
  const double gflops = median(ls.gpts_plain) * flops;
  m.add("cachesim.dram_bytes_per_pt", "B/pt", dram_bpp);
  m.add("perf.flops_per_pt", "flop/pt", flops);
  m.add("perf.ai", "flop/B", ai);
  m.add("perf.gflops", "GFLOP/s", gflops);
  m.add("perf.triad_gbps", "GB/s", triad);
  m.add("perf.fma_gflops", "GFLOP/s", fma);
  m.add("perf.roof_frac", "ratio", gflops / std::min(fma, triad * ai));
  m.add("trace.overhead_frac", "ratio",
        median(ls.loop) / median(ls.loop_plain) - 1.0);

  // The budget. Pre-loop terms are the layers run() executes before its
  // time loop; for the survey they are the per-shot shares of what
  // run_survey does around its shots.
  BudgetLine shot;
  shot.total_name = "core.shot_s";
  shot.total = median(ls.wall);
  if (w.survey) {
    shot.terms = {
        {"core.loop_s", median(ls.loop)},
        {"physics.model_s", m.value("physics.model_s") / w.shots},
        {"physics.ctor_s", m.value("physics.ctor_s")},
        {"io.gather_save_s", m.value("io.gather_save_s")}};
  } else if (temporally_blocked(w.sched)) {
    shot.terms = {{"core.tilegraph_s", m.value("core.tilegraph_s")},
                  {"analysis.race_proof_s", m.value("analysis.race_proof_s")},
                  {"core.precompute_s", median(ls.precompute)},
                  {"core.loop_s", median(ls.loop)}};
  } else {
    shot.terms = {{"sparse.support_cache_s", m.value("sparse.support_cache_s")},
                  {"sparse.colors_s", m.value("sparse.colors_s")},
                  {"core.loop_s", median(ls.loop)}};
  }
  shot.remainder_name = "bench.unaccounted_s";
  m.add("bench.unaccounted_s", "s", shot.remainder());

  BudgetLine loop;
  loop.total_name = "threads*core.loop_s";
  loop.total = kThreads * median(ls.loop);
  loop.terms = {{"physics.stencil_busy_s", m.value("physics.stencil_busy_s")},
                {"sparse.inject_busy_s", m.value("sparse.inject_busy_s")},
                {"sparse.interp_busy_s", m.value("sparse.interp_busy_s")},
                {"core.reduce_s", m.value("core.reduce_s")},
                {"obs.ckpt_write_sum_s", m.value("obs.ckpt_write_sum_s")}};
  loop.remainder_name = "util.idle_s";
  out.budget = {shot, loop};
  return out;
}

// ---------------------------------------------------------------- output

void write_metric(util::JsonWriter& w, const Metric& m) {
  w.key(m.name);
  w.begin_object();
  w.field("value", median(m.samples));
  w.field("unit", m.unit);
  w.field("n", static_cast<long long>(m.samples.size()));
  w.field("q1", quantile(m.samples, 0.25));
  w.field("q3", quantile(m.samples, 0.75));
  w.key("samples");
  w.begin_array();
  for (const double s : m.samples) w.value(s);
  w.end_array();
  w.end_object();
}

void write_document(std::ostream& os, const Workload& wl, const RunConfig& cfg,
                    bool traced_run, const Outcome& out) {
  util::JsonWriter w(os);
  w.begin_object();
  w.field("schema", kSchema);
  w.field("workload", wl.name);
  w.field("seed", static_cast<long long>(cfg.seed));
  w.field("seconds", cfg.seconds);
  w.field("traced", traced_run);
  w.field("smoke", cfg.smoke);
  w.field("threads", kThreads);
  w.field("task_backend", util::to_string(util::select_backend(kThreads)));
  w.key("config");
  w.begin_object();
  w.field("n", wl.n);
  w.field("space_order", wl.so);
  w.field("steps", wl.nt);
  w.field("schedule", physics::to_string(wl.sched));
  w.field("oracle", physics::to_string(wl.oracle));
  w.field("tiles", std::to_string(wl.tiles.tile_t) + "x" +
                       std::to_string(wl.tiles.tile_x) + "x" +
                       std::to_string(wl.tiles.tile_y) + "/" +
                       std::to_string(wl.tiles.block_x) + "x" +
                       std::to_string(wl.tiles.block_y));
  w.field("sources", wl.survey ? 1 : wl.n_sources);
  w.field("receivers", wl.survey   ? 16 * 8
                       : wl.dense  ? wl.carpet * wl.carpet
                                   : wl.n_receivers);
  if (wl.survey) {
    w.field("shots", wl.shots);
    w.field("ckpt_every", wl.ckpt_every);
    w.field("health_every", wl.health_every);
  }
  w.end_object();
  w.field("correct", out.correct());
  w.field("attempted", out.attempted);
  w.field("failed", out.failed);
  w.key("checks");
  w.begin_object();
  w.field("oracle_ran", out.checked);
  w.field("max_rel_err", out.max_rel_err);
  w.field("tolerance", kRelTolerance);
  w.field("bitwise_vs_oracle", out.checked && out.max_rel_err == 0.0);
  w.end_object();
  w.key("metrics");
  w.begin_object();
  for (const Metric& m : out.metrics.items()) write_metric(w, m);
  w.end_object();
  if (!out.budget.empty()) {
    w.key("budget");
    w.begin_array();
    for (const BudgetLine& b : out.budget) {
      w.begin_object();
      w.field("total", b.total_name);
      w.field("total_s", b.total);
      w.key("terms");
      w.begin_object();
      for (const auto& [name, s] : b.terms) w.field(name, s);
      w.end_object();
      w.field("remainder", b.remainder_name);
      w.field("remainder_s", b.remainder());
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
}

void print_summary(const Workload& wl, const Outcome& out) {
  std::cerr << "== " << wl.name << ": attempted " << out.attempted
            << ", failed " << out.failed << ", max rel err vs oracle "
            << out.max_rel_err << (out.correct() ? " (correct)" : " (WRONG)")
            << "\n";
  for (const Metric& m : out.metrics.items()) {
    std::cerr << "  " << m.name << " = " << median(m.samples) << " " << m.unit
              << " (n=" << m.samples.size() << ")\n";
  }
  for (const BudgetLine& b : out.budget) {
    std::cerr << "  budget: " << b.total_name << " " << b.total << " s =";
    for (const auto& [name, s] : b.terms) {
      std::cerr << " " << name << " " << s << " +";
    }
    std::cerr << " " << b.remainder_name << " " << b.remainder() << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const bool smoke = cli.get_flag("smoke");
  const std::string name = cli.get("workload", "");
  const std::vector<Workload> all = workloads(smoke);
  const auto it = std::find_if(all.begin(), all.end(), [&](const Workload& w) {
    return w.name == name;
  });
  if (it == all.end()) {
    std::cerr << "tempest_bench: unknown --workload '" << name << "'; one of:";
    for (const Workload& w : all) std::cerr << " " << w.name;
    std::cerr << "\n";
    return 2;
  }
  const Workload& wl = *it;

  RunConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  cfg.seconds = cli.get_double("seconds", 10.0);
  cfg.smoke = smoke;
  cfg.work = cli.get("work-dir", "tempest_bench_work");
  const bool traced_run = cli.get_flag("traced");
  fs::create_directories(cfg.work);

  // Pin every parallel region of the process, the survey's included.
  setenv("TEMPEST_THREADS", std::to_string(kThreads).c_str(), 1);
#ifdef _OPENMP
  omp_set_num_threads(kThreads);
#endif

  SpanLog log;
  Outcome out;
  {
    const Scope span(log, wl.name.c_str());
    try {
      out = traced_run ? traced(wl, cfg, log)
            : wl.survey ? untraced_survey(wl, cfg, log)
                        : untraced_shots(wl, cfg, log);
    } catch (const std::exception& e) {
      std::cerr << "tempest_bench: " << wl.name << " aborted: " << e.what()
                << "\n";
      return 1;
    }
  }
  print_summary(wl, out);

  const std::string json = cli.get("json", "");
  if (!json.empty()) {
    std::ofstream os(json);
    write_document(os, wl, cfg, traced_run, out);
    if (!os) {
      std::cerr << "tempest_bench: cannot write " << json << "\n";
      return 1;
    }
  }
  const std::string trace_out = cli.get("trace-out", "");
  if (!trace_out.empty() && !log.write_chrome(trace_out, wl.name)) {
    std::cerr << "tempest_bench: cannot write " << trace_out << "\n";
    return 1;
  }
  return 0;
}
