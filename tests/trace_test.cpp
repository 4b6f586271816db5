// tempest::trace unit tests: counter/span semantics, the disabled-mode
// no-op guarantee, sink well-formedness (a real JSON parse of the Chrome
// trace, not a substring grep), and a generous overhead regression bound.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "tempest/physics/acoustic.hpp"
#include "tempest/sparse/survey.hpp"
#include "tempest/sparse/wavelet.hpp"
#include "tempest/trace/trace.hpp"
#include "tempest/util/threads.hpp"

namespace tr = tempest::trace;

namespace {

/// Minimal recursive-descent JSON reader — just enough structure to prove
/// the Chrome-trace sink emits something a real tracer will load. Values
/// are kept only where the assertions need them.
class JsonReader {
 public:
  explicit JsonReader(std::string text) : s_(std::move(text)) {}

  /// Parses the whole document; returns false on any syntax error.
  bool parse() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

  /// Every string that appeared as the value of key `k` somewhere.
  [[nodiscard]] std::vector<std::string> strings_for(
      const std::string& k) const {
    auto it = by_key_.find(k);
    return it == by_key_.end() ? std::vector<std::string>{} : it->second;
  }

  [[nodiscard]] int objects_in_array(const std::string& key) const {
    auto it = array_sizes_.find(key);
    return it == array_sizes_.end() ? -1 : it->second;
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array("");
      case '"': { std::string out; return string(&out); }
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    if (!consume('{')) return false;
    skip_ws();
    if (consume('}')) return true;
    while (true) {
      skip_ws();
      std::string key;
      if (!string(&key)) return false;
      skip_ws();
      if (!consume(':')) return false;
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == '"') {
        std::string val;
        if (!string(&val)) return false;
        by_key_[key].push_back(val);
      } else if (pos_ < s_.size() && s_[pos_] == '[') {
        if (!array(key)) return false;
      } else {
        if (!value()) return false;
      }
      skip_ws();
      if (consume(',')) continue;
      return consume('}');
    }
  }

  bool array(const std::string& key) {
    if (!consume('[')) return false;
    skip_ws();
    int n = 0;
    if (!consume(']')) {
      while (true) {
        skip_ws();
        if (!value()) return false;
        ++n;
        skip_ws();
        if (consume(',')) continue;
        if (consume(']')) break;
        return false;
      }
    }
    if (!key.empty()) array_sizes_[key] = n;
    return true;
  }

  bool string(std::string* out) {
    if (!consume('"')) return false;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      out->push_back(s_[pos_++]);
    }
    return consume('"');
  }

  bool number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '-' || s_[pos_] == '+')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  bool consume(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  const std::string s_;
  std::size_t pos_ = 0;
  std::map<std::string, std::vector<std::string>> by_key_;
  std::map<std::string, int> array_sizes_;
};

bool contains(const std::vector<std::string>& v, const std::string& s) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

/// A small traced acoustic run exercising every per-timestep phase.
void traced_acoustic_run() {
  using namespace tempest;
  const grid::Extents3 e{18, 16, 14};
  const int nt = 10;
  physics::Geometry g{e, 10.0, 4, /*nbl=*/4};
  const physics::AcousticModel model =
      physics::make_acoustic_layered(g, 1.5, 3.0, 3);
  sparse::SparseTimeSeries src(sparse::single_center_source(e, 0.4), nt);
  src.broadcast_signature(sparse::ricker(nt, model.critical_dt(), 0.015));
  sparse::SparseTimeSeries rec(sparse::receiver_line(e, 4, 0.15, 3), nt);

  physics::PropagatorOptions opts;
  opts.tiles = core::TileSpec{4, 8, 8, 4, 4};
  physics::AcousticPropagator prop(model, opts);
  prop.run(physics::Schedule::Wavefront, src, &rec);
  prop.run(physics::Schedule::SpaceBlocked, src, &rec);
}

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tr::set_enabled(false);
    tr::reset();
  }
  void TearDown() override {
    tr::set_enabled(false);
    tr::reset();
  }
};

}  // namespace

TEST_F(TraceTest, CountersAccumulateAndSnapshot) {
  tr::set_enabled(true);
  tr::count(tr::Counter::CellsUpdated, 10);
  tr::count(tr::Counter::CellsUpdated, 32);
  tr::count(tr::Counter::CheckpointBytes, 7);
  EXPECT_EQ(tr::value(tr::Counter::CellsUpdated), 42);
  EXPECT_EQ(tr::value(tr::Counter::CheckpointBytes), 7);
  EXPECT_EQ(tr::value(tr::Counter::JitCompiles), 0);

  const tr::CounterSnapshot snap = tr::snapshot();
  EXPECT_EQ(snap[static_cast<int>(tr::Counter::CellsUpdated)], 42);

  tr::reset();
  EXPECT_EQ(tr::value(tr::Counter::CellsUpdated), 0);
}

TEST_F(TraceTest, DisabledModeIsSemanticallyInert) {
  ASSERT_FALSE(tr::enabled());
  tr::count(tr::Counter::CellsUpdated, 1000);
  {
    tr::ScopedSpan span("ignored", "test");
  }
  EXPECT_EQ(tr::value(tr::Counter::CellsUpdated), 0);
  EXPECT_TRUE(tr::events().empty());
}

TEST_F(TraceTest, SpanRecordsNameCategoryAndArg) {
  tr::set_enabled(true);
  {
    tr::ScopedSpan span("phase", "compute", 17);
  }
  const std::vector<tr::Event> ev = tr::events();
  ASSERT_EQ(ev.size(), 1u);
  EXPECT_STREQ(ev[0].name, "phase");
  EXPECT_STREQ(ev[0].cat, "compute");
  EXPECT_TRUE(ev[0].has_arg);
  EXPECT_EQ(ev[0].arg, 17);
  EXPECT_GE(ev[0].dur_ns, 0);
}

TEST_F(TraceTest, EventsAreSortedByStartAcrossSpans) {
  tr::set_enabled(true);
  for (int i = 0; i < 8; ++i) {
    tr::ScopedSpan span("tick", "test", i);
  }
  const std::vector<tr::Event> ev = tr::events();
  ASSERT_EQ(ev.size(), 8u);
  for (std::size_t i = 1; i < ev.size(); ++i) {
    EXPECT_LE(ev[i - 1].ts_ns, ev[i].ts_ns);
  }
}

// Chrome timestamps keep the nanosecond far from reset(): a span starting
// more than a second in reads back its exact ts and dur from the JSON.
TEST_F(TraceTest, ChromeTraceTimestampsKeepNanosecondsPastOneSecond) {
  tr::set_enabled(true);
  std::this_thread::sleep_for(std::chrono::milliseconds(1001));
  {
    tr::ScopedSpan span("late", "test");
  }
  const std::vector<tr::Event> ev = tr::events();
  ASSERT_EQ(ev.size(), 1u);
  ASSERT_GE(ev[0].ts_ns, 1'000'000'000);

  std::ostringstream os;
  tr::write_chrome_trace(os);
  const std::string json = os.str();
  // "<key>":<integer us>.<three fraction digits>, read back as ns.
  const auto read_ns = [&json](const std::string& key) -> long long {
    const std::size_t at = json.find(key);
    if (at == std::string::npos) return -1;
    const std::size_t begin = at + key.size();
    const std::string num =
        json.substr(begin, json.find_first_of(",}", begin) - begin);
    const std::size_t dot = num.find('.');
    if (dot == std::string::npos || num.size() - dot != 4) return -2;
    return std::stoll(num.substr(0, dot)) * 1000 +
           std::stoll(num.substr(dot + 1));
  };
  EXPECT_EQ(read_ns("\"ts\":"), ev[0].ts_ns) << json;
  EXPECT_EQ(read_ns("\"dur\":"), ev[0].dur_ns) << json;
}

TEST_F(TraceTest, CounterNamesAreUniqueAndNonEmpty) {
  std::vector<std::string> names;
  for (int c = 0; c < tr::kNumCounters; ++c) {
    names.emplace_back(tr::to_string(static_cast<tr::Counter>(c)));
    EXPECT_FALSE(names.back().empty());
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

#if !defined(TEMPEST_TRACE_DISABLED)

// Golden-structure test: the Chrome trace of a real instrumented run must
// parse as JSON and carry the per-timestep phase spans the ISSUE promises.
TEST_F(TraceTest, ChromeTraceOfInstrumentedRunParsesAndHasPhaseSpans) {
  tr::set_enabled(true);
  tr::reset();
  traced_acoustic_run();
  tr::set_enabled(false);

  std::ostringstream os;
  tr::write_chrome_trace(os);
  const std::string json = os.str();

  JsonReader reader(json);
  ASSERT_TRUE(reader.parse()) << "Chrome trace is not valid JSON:\n"
                              << json.substr(0, 400);

  const std::vector<std::string> names = reader.strings_for("name");
  for (const char* want :
       {"stencil", "inject", "interp", "wavefront.band"}) {
    EXPECT_TRUE(contains(names, want)) << "missing span name " << want;
  }
  // Complete events only, and at least one per recorded span name.
  const std::vector<std::string> phases = reader.strings_for("ph");
  ASSERT_FALSE(phases.empty());
  for (const std::string& ph : phases) EXPECT_EQ(ph, "X");
  EXPECT_EQ(reader.objects_in_array("traceEvents"),
            static_cast<int>(phases.size()));
}

TEST_F(TraceTest, MetricsSinksCarryEveryCounter) {
  tr::set_enabled(true);
  tr::count(tr::Counter::CellsUpdated, 123);
  {
    tr::ScopedSpan span("phase", "compute");
  }
  tr::set_enabled(false);

  std::ostringstream csv;
  tr::write_metrics_csv(csv);
  const std::string csv_text = csv.str();
  for (int c = 0; c < tr::kNumCounters; ++c) {
    EXPECT_NE(csv_text.find(tr::to_string(static_cast<tr::Counter>(c))),
              std::string::npos);
  }
  EXPECT_NE(csv_text.find("counter,cells_updated,123"), std::string::npos);
  EXPECT_NE(csv_text.find("span_count,phase,1"), std::string::npos);

  std::ostringstream js;
  tr::write_metrics_json(js);
  JsonReader reader(js.str());
  EXPECT_TRUE(reader.parse()) << js.str();
}

TEST_F(TraceTest, SessionWritesBothSinksOnDestruction) {
  const std::string trace_path = ::testing::TempDir() + "trace_test_out.json";
  const std::string metrics_path = ::testing::TempDir() + "trace_test_out.csv";
  {
    tr::Session session(trace_path, metrics_path);
    tr::count(tr::Counter::CellsUpdated, 5);
    tr::ScopedSpan span("phase", "compute");
  }
  std::ifstream tf(trace_path);
  ASSERT_TRUE(tf.is_open());
  std::stringstream trace_text;
  trace_text << tf.rdbuf();
  JsonReader reader(trace_text.str());
  EXPECT_TRUE(reader.parse());

  std::ifstream mf(metrics_path);
  ASSERT_TRUE(mf.is_open());
  std::string metrics_text((std::istreambuf_iterator<char>(mf)),
                           std::istreambuf_iterator<char>());
  EXPECT_NE(metrics_text.find("cells_updated"), std::string::npos);

  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());
}

// Overhead regression: disabled-mode instrumentation is one relaxed load +
// branch per call site. The bounds are deliberately generous (orders of
// magnitude above the expected cost) — they catch accidental heavy-weight
// regressions (a lock or an allocation on the disabled path), not cycle
// drift between CI machines.
TEST_F(TraceTest, DisabledModeOverheadIsBounded) {
  ASSERT_FALSE(tr::enabled());
  constexpr int kIters = 1'000'000;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) {
    TEMPEST_TRACE_COUNT(CellsUpdated, i);
    TEMPEST_TRACE_SPAN("noop", "test");
  }
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  EXPECT_EQ(tr::value(tr::Counter::CellsUpdated), 0);
  EXPECT_LT(ms, 1000.0) << "disabled-mode instrumentation cost exploded";
}

TEST_F(TraceTest, EnabledCounterOverheadIsBounded) {
  tr::set_enabled(true);
  constexpr int kIters = 1'000'000;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) {
    TEMPEST_TRACE_COUNT(CellsUpdated, 1);
  }
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  EXPECT_EQ(tr::value(tr::Counter::CellsUpdated), kIters);
  EXPECT_LT(ms, 2000.0) << "enabled-mode counter cost exploded";
}

#endif  // !defined(TEMPEST_TRACE_DISABLED)

#if !defined(TEMPEST_TRACE_DISABLED)
// --- Concurrent-span / thread-count invariance regression ----------------
//
// The task-parallel engine records counters and spans from short-lived
// worker threads (the pool backend spawns a fresh team per band). The trace
// layer must (a) never lose a retired worker's counts, and (b) produce a
// metrics sink whose deterministic rows — counters and span counts — are
// byte-identical whether the instrumented region ran on 1 thread or an
// oversubscribed 8. span_ms rows are wall-clock and excluded by contract.

namespace {

/// The deterministic subset of the metrics CSV: `counter,...` and
/// `span_count,...` rows, in sink order.
std::string deterministic_rows(const std::string& csv) {
  std::istringstream is(csv);
  std::ostringstream out;
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("counter,", 0) == 0 || line.rfind("span_count,", 0) == 0) {
      out << line << '\n';
    }
  }
  return out.str();
}

/// An instrumented parallel workload: `threads` workers record spans and
/// counters through a 10-node staircase chain (i depends on i-1 and i-2,
/// the same two-predecessor shape the engine's tile graphs generate).
void traced_workload(int threads) {
  tempest::util::TaskDag dag(10);
  for (int i = 1; i < 10; ++i) dag.add_edge(i - 1, i);
  for (int i = 2; i < 10; ++i) dag.add_edge(i - 2, i);
  dag.run(threads, [](int node) {
    TEMPEST_TRACE_SPAN_ARG("worker.task", "test", node);
    TEMPEST_TRACE_COUNT(CellsUpdated, 100 + node);
    TEMPEST_TRACE_COUNT(BlocksExecuted, 2);
  });
}

std::string metrics_csv_of_workload(int threads) {
  tr::reset();
  tr::set_enabled(true);
  traced_workload(threads);
  std::ostringstream os;
  tr::write_metrics_csv(os);
  tr::set_enabled(false);
  return os.str();
}

}  // namespace

TEST_F(TraceTest, CountersSurviveWorkerThreadExit) {
  tr::set_enabled(true);
  // Pool workers outlive run() and keep their thread_local buffers between
  // regions. Totals must include what they recorded.
  tempest::util::TaskDag dag(16);
  dag.run(/*threads=*/4, [](int) { TEMPEST_TRACE_COUNT(CellsUpdated, 5); });
  EXPECT_EQ(tr::value(tr::Counter::CellsUpdated), 16 * 5);
  // A second region on the same workers must add to the first, not replace.
  dag.run(/*threads=*/4, [](int) { TEMPEST_TRACE_COUNT(CellsUpdated, 5); });
  EXPECT_EQ(tr::value(tr::Counter::CellsUpdated), 2 * 16 * 5);
}

TEST_F(TraceTest, SpansSurviveWorkerThreadExit) {
  tr::set_enabled(true);
  traced_workload(/*threads=*/8);
  EXPECT_EQ(tr::events().size(), 10u)
      << "spans recorded on pool workers were dropped";
}

TEST_F(TraceTest, ExitedThreadIsMergedOnFlush) {
  tr::set_enabled(true);
  // A thread of the caller's own that records and exits before the flush:
  // its thread_local buffer is gone, and the registry must have folded its
  // counters and spans into the retired totals.
  std::thread t([] {
    TEMPEST_TRACE_SPAN_ARG("exited.thread", "test", 1);
    TEMPEST_TRACE_COUNT(CellsUpdated, 7);
  });
  t.join();
  EXPECT_EQ(tr::value(tr::Counter::CellsUpdated), 7);
  const std::vector<tr::Event> events = tr::events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "exited.thread");
  // A second aggregation reads the merged totals, not a second copy.
  EXPECT_EQ(tr::value(tr::Counter::CellsUpdated), 7);
  EXPECT_EQ(tr::events().size(), 1u);
}

TEST_F(TraceTest, MetricsV1RowsAreThreadCountInvariant) {
  const std::string serial = metrics_csv_of_workload(/*threads=*/1);
  const std::string parallel = metrics_csv_of_workload(/*threads=*/8);
  EXPECT_EQ(deterministic_rows(serial), deterministic_rows(parallel));
  // And not vacuously: the workload must actually have produced rows.
  // 10 tasks, each adding 100 + node: 10 * 100 + (0 + 1 + ... + 9) = 1045.
  EXPECT_NE(deterministic_rows(serial).find("counter,cells_updated,1045"),
            std::string::npos);
  EXPECT_NE(deterministic_rows(serial).find("span_count,worker.task,10"),
            std::string::npos);
}
#endif  // !defined(TEMPEST_TRACE_DISABLED)

// --- Crash flush -----------------------------------------------------------
//
// A Session must leave parseable sinks behind even when the process dies
// abnormally: the fatal-signal hook flushes before the default disposition
// re-raises. The regression forks a child that SIGABRTs itself inside an
// armed Session and asserts the parent can load the trace it left behind.

#if (defined(__unix__) || defined(__APPLE__)) && \
    !defined(TEMPEST_TRACE_DISABLED)
TEST_F(TraceTest, CrashedSessionLeavesParseableTraceBehind) {
  const std::string trace_path =
      ::testing::TempDir() + "trace_crash_out.json";
  const std::string metrics_path =
      ::testing::TempDir() + "trace_crash_out.csv";
  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: die by SIGABRT mid-span, the way a TEMPEST_REQUIRE failure or
    // a libc abort would. No explicit flush — the hooks must do it.
    tr::Session session(trace_path, metrics_path);
    tr::count(tr::Counter::CellsUpdated, 21);
    tr::ScopedSpan span("doomed.phase", "test");
    std::abort();
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGABRT);

  std::ifstream tf(trace_path);
  ASSERT_TRUE(tf.is_open()) << "crashed session left no trace file";
  std::string text((std::istreambuf_iterator<char>(tf)),
                   std::istreambuf_iterator<char>());
  JsonReader reader(text);
  EXPECT_TRUE(reader.parse()) << "crash-flushed trace is not valid JSON:\n"
                              << text.substr(0, 400);

  std::ifstream mf(metrics_path);
  ASSERT_TRUE(mf.is_open()) << "crashed session left no metrics file";
  std::string metrics((std::istreambuf_iterator<char>(mf)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(metrics.find("counter,cells_updated,21"), std::string::npos);

  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());
}

TEST_F(TraceTest, CrashFlushNowIsIdempotentAndDisarmsWithSession) {
  const std::string trace_path =
      ::testing::TempDir() + "trace_flushnow_out.json";
  {
    tr::Session session(trace_path, "");
    tr::count(tr::Counter::CellsUpdated, 5);
    tr::crash_flush_now();  // first call writes...
    tr::crash_flush_now();  // ...second is a no-op
    std::ifstream tf(trace_path);
    ASSERT_TRUE(tf.is_open());
  }
  // The destructor saw the sinks already written and must not re-arm:
  // another flush after the Session is gone writes nothing new.
  std::remove(trace_path.c_str());
  tr::crash_flush_now();
  std::ifstream tf(trace_path);
  EXPECT_FALSE(tf.is_open());
}
#endif  // unix && !TEMPEST_TRACE_DISABLED
