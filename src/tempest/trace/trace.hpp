#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "tempest/obs/metrics.hpp"

namespace tempest::trace {

/// The telemetry runtime: one span type, one per-thread registry and one
/// gate word feed every sink.
///
/// Two primitives:
///   * monotonic counters — exact work accounting (cells updated, sources
///     injected, ...) accumulated in thread-local buffers. The counters are
///     the runtime's ground truth of *what a schedule did*, and the
///     cross-schedule equivalence tests assert on them (every legal schedule
///     must update exactly the same number of cells as the reference sweep);
///   * scoped spans — named wall-clock intervals (one per space block,
///     wavefront band, autotune trial, JIT compile, ...). A span may name an
///     obs::Metric; its one close then feeds three sinks:
///       - the Chrome `trace_event` buffer (trace::set_enabled);
///       - that metric's latency histogram (obs::set_enabled);
///       - the flight recorder's enter/exit records (obs::install_blackbox).
///
/// Cost model: one relaxed atomic word holds a bit per live sink, read once
/// per span and once per count(). A zero word (the default) makes each a
/// load and a branch — unmeasurable next to a stencil block. Counters
/// accumulate whenever the word is nonzero. Compiling with
/// TEMPEST_TRACE_DISABLED (CMake -DTEMPEST_TRACE=OFF) removes even that:
/// the instrumentation macros expand to nothing. It is the only compile-out
/// switch; the sinks and the obs calls stay.
///
/// Sinks drain the thread-local buffers; call them from serial code (after
/// the parallel run), not from inside an instrumented region.

/// The monotonic work counters. Semantics (schedule-independent, so that
/// any two legal schedules of the same problem agree):
///   CellsUpdated          grid cells written by a stencil kernel application
///                         (elastic counts each half-step sweep; TTI counts
///                         the coupled p/q update as one cell)
///   SourcesInjected       grid-point updates applied by source injection
///                         (naive and fused paths agree whenever no two
///                         sources share a support grid point — the fused
///                         path pre-sums shared support contributions)
///   ReceiversInterpolated weight applications (receiver, support point)
///                         performed by receiver interpolation
///   BlocksExecuted        space blocks handed to a kernel
///   TilesExecuted         tiles (wavefront), triangles (diamond), blocks
///                         (space-blocked; reference: one per substep)
///   BandsExecuted         completed time bands; one per substep on barriers
///   HaloCellsTouched      analytic cross-stencil halo footprint of executed
///                         blocks (2R per face pair), a locality proxy
///   CheckpointBytes       bytes persisted by the checkpointer
///   AutotuneTrials        tile configurations measured by the autotuner
///   JitCompiles           JIT compiler invocations (including retries)
enum class Counter : int {
  CellsUpdated = 0,
  SourcesInjected,
  ReceiversInterpolated,
  BlocksExecuted,
  TilesExecuted,
  BandsExecuted,
  HaloCellsTouched,
  CheckpointBytes,
  AutotuneTrials,
  JitCompiles,
};
inline constexpr int kNumCounters = 10;

[[nodiscard]] const char* to_string(Counter c);

/// The bits of the gate word, one per sink. Each subsystem's switch owns
/// one bit: trace::set_enabled the event buffer, obs::set_enabled the
/// latency histograms, obs::install_blackbox the flight recorder.
enum Sink : unsigned {
  kEventSink = 1u << 0,
  kHistogramSink = 1u << 1,
  kRecorderSink = 1u << 2,
};

/// Set (on) or clear the `bits` of the gate word.
void set_sinks(unsigned bits, bool on);

/// The event-buffer bit. Off by default; while off, spans buffer no Event.
[[nodiscard]] bool enabled();
void set_enabled(bool on);

/// Add `delta` to counter `c` on this thread (no-op while the gate word is
/// zero); with the recorder bit on, the delta is also recorded there.
void count(Counter c, long long delta);

/// Aggregate value of `c` across all threads since the last reset().
[[nodiscard]] long long value(Counter c);

/// All counters at once (index by static_cast<int>(Counter)).
using CounterSnapshot = std::array<long long, kNumCounters>;
[[nodiscard]] CounterSnapshot snapshot();

/// Zero every counter and drop every recorded span on every thread, and
/// restart the trace clock. The histograms have their own reset
/// (obs::reset_metrics).
void reset();

/// Optional span enrichment: an installed enricher is sampled at span
/// start and end, and the per-slot deltas ride in the recorded Event (and
/// from there into the sinks). The sampler runs on the span's thread —
/// tempest::perf::pmu uses this to attach per-thread hardware-counter
/// deltas to every instrumented span. slot_names/sample must have static
/// storage duration; install/clear from serial code only.
inline constexpr int kMaxSpanSlots = 12;
struct SpanEnricher {
  int n_slots = 0;                          ///< <= kMaxSpanSlots
  const char* const* slot_names = nullptr;  ///< n_slots entries
  void (*sample)(std::int64_t out[]) = nullptr;  ///< cumulative values
};

/// Install (or clear, with nullptr) the span enrichment hook.
void set_span_enricher(const SpanEnricher* enricher);
[[nodiscard]] const SpanEnricher* span_enricher();

/// One completed span. Names/categories are string literals at the call
/// sites (never freed, never copied on the hot path).
struct Event {
  const char* name;
  const char* cat;
  int tid;               ///< small sequential id of the recording thread
  std::int64_t ts_ns;    ///< start, ns since the last reset()
  std::int64_t dur_ns;   ///< duration in ns
  std::int64_t arg;      ///< optional argument (timestep, band end, ...)
  bool has_arg;
  int n_slots = 0;       ///< enrichment slot count (0: not enriched)
  const char* const* slot_names = nullptr;  ///< static storage
  std::array<std::int64_t, kMaxSpanSlots> slots{};  ///< per-slot deltas
};

/// RAII span over [construction, destruction). The gate word is read once,
/// at construction; the close feeds the sinks that were live then: an Event
/// (event bit), one sample of `metric` (histogram bit, spans naming a
/// metric only) and an enter/exit record pair (recorder bit). Prefer the
/// TEMPEST_TRACE_SPAN* macros, which compile out.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, const char* cat)
      : ScopedSpan(name, cat, 0, false, kNoMetric) {}
  ScopedSpan(const char* name, const char* cat, std::int64_t arg)
      : ScopedSpan(name, cat, arg, true, kNoMetric) {}
  ScopedSpan(const char* name, const char* cat, obs::Metric metric)
      : ScopedSpan(name, cat, 0, false, static_cast<int>(metric)) {}
  ScopedSpan(const char* name, const char* cat, std::int64_t arg,
             obs::Metric metric)
      : ScopedSpan(name, cat, arg, true, static_cast<int>(metric)) {}
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  static constexpr int kNoMetric = -1;
  ScopedSpan(const char* name, const char* cat, std::int64_t arg,
             bool has_arg, int metric);

  const char* name_;
  const char* cat_;
  std::int64_t arg_;
  bool has_arg_;
  int metric_;             ///< obs::Metric index, or kNoMetric
  unsigned sinks_;         ///< gate bits this span feeds (0: inert)
  std::int64_t start_ns_ = 0;
  const SpanEnricher* enricher_ = nullptr;  ///< non-null: sampled at start
  std::array<std::int64_t, kMaxSpanSlots> slot_start_{};
};

/// Snapshot of every span recorded since the last reset(), across all
/// threads, sorted by start time. Call from serial code.
[[nodiscard]] std::vector<Event> events();

/// Chrome trace_event JSON ("X" complete events + an `otherData` object
/// carrying the counter totals). Loadable in Perfetto / chrome://tracing.
/// `ts` and `dur` are microseconds printed with a three-digit fraction, so
/// every timestamp keeps its nanosecond.
void write_chrome_trace(std::ostream& os);

/// Flat metrics, schema version 2: a `schema_version` marker, every counter
/// total and per-span-name count/total-ms aggregates (total ms with six
/// decimals, exact to the nanosecond), as CSV (`kind,name,value` rows) or a
/// JSON object. Spans that carried enrichment slots add per-span-name
/// per-slot totals (CSV rows `span_pmu_<slot>,<span>,<total>`, JSON `"pmu"`
/// objects).
void write_metrics_csv(std::ostream& os);
void write_metrics_json(std::ostream& os);

/// Flag-driven session for the example/bench binaries: enables tracing when
/// either path is non-empty, and writes the requested sinks (Chrome trace
/// JSON to `trace_path`, metrics to `metrics_path`) on destruction.
///
/// Crash flush: constructing a Session opens both sink files and arms a
/// best-effort crash hook (std::atexit plus fatal-signal handlers for
/// SIGABRT/SIGSEGV/SIGBUS/SIGFPE/SIGILL, installed only where no other
/// handler is present so sanitizer runtimes keep theirs). If the process
/// dies before the destructor runs, the hook writes every counter and the
/// spans completed so far — a truncated-but-valid trace instead of nothing.
/// The hook is async-signal-safe: it takes no lock, allocates nothing and
/// renders through a fixed buffer with write(2), using the same formatting
/// as the clean path. The flush is idempotent: a clean destructor pass
/// disarms it.
class Session {
 public:
  Session(const std::string& trace_path, const std::string& metrics_path);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

 private:
  bool armed_ = false;  ///< a sink path was given: the files are open
};

/// Write the armed Session's sinks immediately if they have not been
/// written yet (no-op otherwise), through the lock-free crash path.
/// Exposed for the crash-flush regression test; called automatically from
/// the atexit/signal hooks.
void crash_flush_now();

}  // namespace tempest::trace

// Instrumentation macros: the only spelling used at call sites, so that
// -DTEMPEST_TRACE=OFF (which defines TEMPEST_TRACE_DISABLED) removes the
// instrumentation entirely.
#define TEMPEST_TRACE_CONCAT_IMPL(a, b) a##b
#define TEMPEST_TRACE_CONCAT(a, b) TEMPEST_TRACE_CONCAT_IMPL(a, b)

#if defined(TEMPEST_TRACE_DISABLED)
#define TEMPEST_TRACE_SPAN(name, cat) ((void)0)
#define TEMPEST_TRACE_SPAN_ARG(name, cat, arg) ((void)0)
#define TEMPEST_TRACE_SPAN_METRIC(name, cat, metric) ((void)0)
#define TEMPEST_TRACE_SPAN_ARG_METRIC(name, cat, arg, metric) ((void)0)
#define TEMPEST_TRACE_COUNT(counter, n) ((void)0)
#else
#define TEMPEST_TRACE_SPAN(name, cat)                                       \
  ::tempest::trace::ScopedSpan TEMPEST_TRACE_CONCAT(tempest_trace_span_,    \
                                                    __LINE__)(name, cat)
#define TEMPEST_TRACE_SPAN_ARG(name, cat, arg)                              \
  ::tempest::trace::ScopedSpan TEMPEST_TRACE_CONCAT(tempest_trace_span_,    \
                                                    __LINE__)(              \
      name, cat, static_cast<std::int64_t>(arg))
// A span that also times obs::Metric::metric (e.g. TileSeconds).
#define TEMPEST_TRACE_SPAN_METRIC(name, cat, metric)                        \
  ::tempest::trace::ScopedSpan TEMPEST_TRACE_CONCAT(tempest_trace_span_,    \
                                                    __LINE__)(              \
      name, cat, ::tempest::obs::Metric::metric)
#define TEMPEST_TRACE_SPAN_ARG_METRIC(name, cat, arg, metric)               \
  ::tempest::trace::ScopedSpan TEMPEST_TRACE_CONCAT(tempest_trace_span_,    \
                                                    __LINE__)(              \
      name, cat, static_cast<std::int64_t>(arg),                            \
      ::tempest::obs::Metric::metric)
#define TEMPEST_TRACE_COUNT(counter, n)                                     \
  ::tempest::trace::count(::tempest::trace::Counter::counter,               \
                          static_cast<long long>(n))
#endif
