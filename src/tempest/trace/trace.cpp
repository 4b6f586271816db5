#include "tempest/trace/trace.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <ostream>
#include <type_traits>

#include "tempest/obs/recorder.hpp"

namespace tempest::trace {

namespace {

/// Per-thread buffer: counter accumulators, completed spans and the latency
/// histograms. The recording thread is the only writer of `events` and
/// `hist`; `mu` serialises those writes against the serial-phase sinks that
/// drain them. Counters are relaxed atomics so the sinks can read them
/// without the lock.
struct ThreadState {
  std::array<std::atomic<long long>, kNumCounters> counters{};
  std::vector<Event> events;
  obs::MetricSnapshot hist;
  std::mutex mu;
  int tid = 0;
};

/// Registry of every thread that ever recorded. States are shared_ptr so a
/// thread exiting does not invalidate its (still unread) buffer.
///
/// The worker pool's threads live as long as the process, but any other
/// thread that records (a caller's own std::thread, a test's) may exit
/// first, so "every thread that ever recorded" is unbounded over a long
/// run. Exited threads' buffers are therefore *merged on flush*: any
/// aggregation pass folds the counters, events and histograms of dead
/// threads into the `retired` accumulators and drops their states, keeping
/// the registry bounded by the number of *live* threads while totals stay
/// exactly thread-count-invariant (a thread's counts survive it).
struct Registry {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadState>> states;
  int next_tid = 0;
  std::array<long long, kNumCounters> retired_counters{};
  std::vector<Event> retired_events;
  obs::MetricSnapshot retired_hist;
};

Registry& registry() {
  static Registry r;
  return r;
}

/// Fold the buffers of exited threads into the retired accumulators.
/// Caller holds r.mu. A state whose only owner is the registry belongs to
/// a thread whose thread_local handle has been destroyed — no new writes
/// can arrive, so the merge is race-free.
void compact_locked(Registry& r) {
  auto dead_begin = std::partition(
      r.states.begin(), r.states.end(),
      [](const std::shared_ptr<ThreadState>& s) { return s.use_count() > 1; });
  for (auto it = dead_begin; it != r.states.end(); ++it) {
    ThreadState& s = **it;
    const std::lock_guard<std::mutex> state_lock(s.mu);
    for (int c = 0; c < kNumCounters; ++c) {
      r.retired_counters[static_cast<std::size_t>(c)] +=
          s.counters[static_cast<std::size_t>(c)].load(
              std::memory_order_relaxed);
    }
    r.retired_events.insert(r.retired_events.end(), s.events.begin(),
                            s.events.end());
    for (int m = 0; m < obs::kNumMetrics; ++m) {
      r.retired_hist[static_cast<std::size_t>(m)].merge(
          s.hist[static_cast<std::size_t>(m)]);
    }
  }
  r.states.erase(dead_begin, r.states.end());
}

ThreadState& local_state() {
  thread_local std::shared_ptr<ThreadState> state = [] {
    auto s = std::make_shared<ThreadState>();
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mu);
    s->tid = r.next_tid++;
    r.states.push_back(s);
    return s;
  }();
  return *state;
}

/// Counter totals: the retired ones plus every live thread's. Reads only
/// relaxed atomics, so the crash path calls it without the registry lock.
CounterSnapshot sum_counters(const Registry& r) {
  CounterSnapshot out = r.retired_counters;
  for (const auto& s : r.states) {
    for (int c = 0; c < kNumCounters; ++c) {
      out[static_cast<std::size_t>(c)] +=
          s->counters[static_cast<std::size_t>(c)].load(
              std::memory_order_relaxed);
    }
  }
  return out;
}

/// The gate word: one Sink bit per live sink.
std::atomic<unsigned> g_sinks{0};
std::atomic<std::int64_t> g_epoch_ns{0};
std::atomic<const SpanEnricher*> g_enricher{nullptr};

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t now_ns() { return steady_ns() - g_epoch_ns.load(std::memory_order_relaxed); }

// ------------------------------------------------------------------ sinks
//
// One renderer serves the clean sinks and the crash flush. It formats into
// a fixed buffer and never allocates, so the fatal-signal handler runs the
// same code as a Session's destructor.

/// Sink output: a fixed buffer drained to an ostream or, for a Session's
/// files, to a file descriptor with write(2).
class Out {
 public:
  explicit Out(std::ostream& os) : os_(&os) {}
  explicit Out(int fd) : fd_(fd) {}
  ~Out() { flush(); }
  Out(const Out&) = delete;
  Out& operator=(const Out&) = delete;

  Out& operator<<(char c) {
    if (n_ == sizeof(buf_)) flush();
    buf_[n_++] = c;
    return *this;
  }
  Out& operator<<(const char* s) {
    for (; *s != '\0'; ++s) *this << *s;
    return *this;
  }
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, char> &&
             !std::is_same_v<T, bool>)
  Out& operator<<(T v) {
    return fixed(static_cast<long long>(v), 0);
  }

  /// v / 10^decimals, printed with exactly `decimals` fraction digits.
  Out& fixed(long long v, int decimals) {
    char digits[24];
    int n = 0;
    unsigned long long u = v < 0 ? 0ULL - static_cast<unsigned long long>(v)
                                 : static_cast<unsigned long long>(v);
    do {
      digits[n++] = static_cast<char>('0' + u % 10);
      u /= 10;
    } while (u != 0 || n <= decimals);
    if (v < 0) *this << '-';
    while (n > 0) {
      if (n == decimals) *this << '.';
      *this << digits[--n];
    }
    return *this;
  }

  /// JSON string escape for names (call-site literals, but keep it correct).
  Out& json_string(const char* s) {
    *this << '"';
    for (; *s != '\0'; ++s) {
      const char c = *s;
      switch (c) {
        case '"': *this << "\\\""; break;
        case '\\': *this << "\\\\"; break;
        case '\n': *this << "\\n"; break;
        case '\t': *this << "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            *this << "\\u00" << "0123456789abcdef"[(c >> 4) & 0xf]
                  << "0123456789abcdef"[c & 0xf];
          } else {
            *this << c;
          }
      }
    }
    return *this << '"';
  }

  void flush() {
    const char* p = buf_;
    std::size_t left = n_;
    n_ = 0;
    if (os_ != nullptr) {
      os_->write(p, static_cast<std::streamsize>(left));
      return;
    }
    while (left > 0) {
      const ssize_t w = ::write(fd_, p, left);
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) return;
      p += w;
      left -= static_cast<std::size_t>(w);
    }
  }

 private:
  char buf_[4096];
  std::size_t n_ = 0;
  std::ostream* os_ = nullptr;
  int fd_ = -1;
};

/// The counter totals as the members of a JSON object.
void render_counters_json(Out& out, const CounterSnapshot& counters) {
  for (int c = 0; c < kNumCounters; ++c) {
    if (c != 0) out << ',';
    out.json_string(to_string(static_cast<Counter>(c)))
        << ':' << counters[static_cast<std::size_t>(c)];
  }
}

/// An event source for the renderers: calls fn(event) for every event.
auto each_of(const std::vector<Event>& evs) {
  return [&evs](const auto& fn) {
    for (const Event& e : evs) fn(e);
  };
}

template <typename EachEvent>
void render_chrome_trace(Out& out, const EachEvent& each,
                         const CounterSnapshot& counters) {
  out << "{\"traceEvents\":[";
  bool first = true;
  each([&](const Event& e) {
    if (!first) out << ',';
    first = false;
    out << "\n{\"name\":";
    out.json_string(e.name);
    out << ",\"cat\":";
    out.json_string(e.cat);
    // Chrome trace timestamps are microseconds; the three-digit fraction
    // keeps the nanosecond at any distance from reset().
    out << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << e.tid << ",\"ts\":";
    out.fixed(e.ts_ns, 3) << ",\"dur\":";
    out.fixed(e.dur_ns, 3);
    if (e.has_arg || e.n_slots > 0) {
      out << ",\"args\":{";
      bool first_arg = true;
      if (e.has_arg) {
        out << "\"t\":" << e.arg;
        first_arg = false;
      }
      for (int i = 0; i < e.n_slots; ++i) {
        if (!first_arg) out << ',';
        first_arg = false;
        out.json_string(e.slot_names[i]) << ':'
                                         << e.slots[static_cast<std::size_t>(i)];
      }
      out << '}';
    }
    out << '}';
  });
  out << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{";
  render_counters_json(out, counters);
  out << "}}\n";
}

/// Per-span-name aggregate used by the flat metrics sinks.
struct SpanAggregate {
  const char* name = nullptr;
  long long count = 0;
  std::int64_t total_ns = 0;
  int n_slots = 0;  ///< >0 when at least one span carried enrichment
  const char* const* slot_names = nullptr;
  std::array<std::int64_t, kMaxSpanSlots> slots{};
};

/// Fold `each`'s events into `aggs` by name, sorted by name. With
/// grow == false (the crash path) `aggs` never reallocates: names beyond
/// the capacity reserved at arm time are dropped.
template <typename EachEvent>
void aggregate_spans(const EachEvent& each, std::vector<SpanAggregate>& aggs,
                     bool grow) {
  aggs.clear();
  each([&](const Event& e) {
    auto it = std::find_if(aggs.begin(), aggs.end(),
                           [&](const SpanAggregate& a) {
                             return a.name == e.name ||
                                    std::strcmp(a.name, e.name) == 0;
                           });
    if (it == aggs.end()) {
      if (!grow && aggs.size() == aggs.capacity()) return;
      aggs.push_back(SpanAggregate{e.name});
      it = aggs.end() - 1;
    }
    it->count += 1;
    it->total_ns += e.dur_ns;
    if (e.n_slots > 0) {
      it->n_slots = e.n_slots;
      it->slot_names = e.slot_names;
      for (int i = 0; i < e.n_slots; ++i) {
        it->slots[static_cast<std::size_t>(i)] +=
            e.slots[static_cast<std::size_t>(i)];
      }
    }
  });
  std::sort(aggs.begin(), aggs.end(),
            [](const SpanAggregate& a, const SpanAggregate& b) {
              return std::strcmp(a.name, b.name) < 0;
            });
}

/// The metrics sink in two parts. The head carries the schema marker and
/// every counter row and reads only counter totals; the tail carries the
/// span rows. The crash flush writes the head before it reads any event.
void render_metrics_head(Out& out, bool csv, const CounterSnapshot& counters) {
  if (!csv) {
    out << "{\"schema_version\":2,\"counters\":{";
    render_counters_json(out, counters);
    out << "},\"spans\":{";
    return;
  }
  out << "kind,name,value\nschema,version,2\n";
  for (int c = 0; c < kNumCounters; ++c) {
    out << "counter," << to_string(static_cast<Counter>(c)) << ','
        << counters[static_cast<std::size_t>(c)] << '\n';
  }
}

void render_metrics_spans(Out& out, bool csv,
                          const std::vector<SpanAggregate>& aggs) {
  bool first = true;
  for (const SpanAggregate& a : aggs) {
    if (csv) {
      out << "span_count," << a.name << ',' << a.count << '\n';
      out << "span_ms," << a.name << ',';
      out.fixed(a.total_ns, 6) << '\n';
      for (int i = 0; i < a.n_slots; ++i) {
        out << "span_pmu_" << a.slot_names[i] << ',' << a.name << ','
            << a.slots[static_cast<std::size_t>(i)] << '\n';
      }
      continue;
    }
    if (!first) out << ',';
    first = false;
    out.json_string(a.name) << ":{\"count\":" << a.count << ",\"total_ms\":";
    out.fixed(a.total_ns, 6);
    if (a.n_slots > 0) {
      out << ",\"pmu\":{";
      for (int i = 0; i < a.n_slots; ++i) {
        if (i != 0) out << ',';
        out.json_string(a.slot_names[i])
            << ':' << a.slots[static_cast<std::size_t>(i)];
      }
      out << '}';
    }
    out << '}';
  }
  if (!csv) out << "}}\n";
}

void write_metrics(std::ostream& os, bool csv) {
  const std::vector<Event> evs = events();
  std::vector<SpanAggregate> aggs;
  aggregate_spans(each_of(evs), aggs, /*grow=*/true);
  Out out(os);
  render_metrics_head(out, csv, snapshot());
  render_metrics_spans(out, csv, aggs);
}

}  // namespace

const char* to_string(Counter c) {
  switch (c) {
    case Counter::CellsUpdated: return "cells_updated";
    case Counter::SourcesInjected: return "sources_injected";
    case Counter::ReceiversInterpolated: return "receivers_interpolated";
    case Counter::BlocksExecuted: return "blocks_executed";
    case Counter::TilesExecuted: return "tiles_executed";
    case Counter::BandsExecuted: return "bands_executed";
    case Counter::HaloCellsTouched: return "halo_cells_touched";
    case Counter::CheckpointBytes: return "checkpoint_bytes";
    case Counter::AutotuneTrials: return "autotune_trials";
    case Counter::JitCompiles: return "jit_compiles";
  }
  return "?";
}

void set_sinks(unsigned bits, bool on) {
  if (on) {
    g_sinks.fetch_or(bits, std::memory_order_relaxed);
  } else {
    g_sinks.fetch_and(~bits, std::memory_order_relaxed);
  }
}

bool enabled() {
  return (g_sinks.load(std::memory_order_relaxed) & kEventSink) != 0;
}

void set_enabled(bool on) { set_sinks(kEventSink, on); }

void count(Counter c, long long delta) {
  if (delta == 0) return;
  const unsigned sinks = g_sinks.load(std::memory_order_relaxed);
  if (sinks == 0) return;
  local_state().counters[static_cast<std::size_t>(c)].fetch_add(
      delta, std::memory_order_relaxed);
  if ((sinks & kRecorderSink) != 0) {
    if (obs::FlightRecorder* r = obs::installed_blackbox()) {
      r->record(obs::kCounterDelta, to_string(c), delta, 0);
    }
  }
}

long long value(Counter c) {
  return snapshot()[static_cast<std::size_t>(c)];
}

CounterSnapshot snapshot() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  compact_locked(r);
  return sum_counters(r);
}

void reset() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& s : r.states) {
    const std::lock_guard<std::mutex> state_lock(s->mu);
    for (auto& c : s->counters) c.store(0, std::memory_order_relaxed);
    s->events.clear();
  }
  r.retired_counters.fill(0);
  r.retired_events.clear();
  g_epoch_ns.store(steady_ns(), std::memory_order_relaxed);
}

ScopedSpan::ScopedSpan(const char* name, const char* cat, std::int64_t arg,
                       bool has_arg, int metric)
    : name_(name), cat_(cat), arg_(arg), has_arg_(has_arg), metric_(metric),
      sinks_(g_sinks.load(std::memory_order_relaxed) &
             (metric == kNoMetric ? ~unsigned{kHistogramSink} : ~0u)) {
  if (sinks_ == 0) return;
  if ((sinks_ & kEventSink) != 0) {
    enricher_ = g_enricher.load(std::memory_order_acquire);
    if (enricher_ != nullptr) enricher_->sample(slot_start_.data());
  }
  if ((sinks_ & kRecorderSink) != 0) {
    if (obs::FlightRecorder* r = obs::installed_blackbox()) {
      r->record(obs::kSpanEnter, name_, arg_, has_arg_ ? 1 : 0);
    }
  }
  start_ns_ = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (sinks_ == 0) return;
  const std::int64_t dur = now_ns() - start_ns_;
  if ((sinks_ & kRecorderSink) != 0) {
    if (obs::FlightRecorder* r = obs::installed_blackbox()) {
      r->record(obs::kSpanExit, name_, dur, 0);
    }
  }
  const bool buffer = (sinks_ & kEventSink) != 0;
  const bool sample = (sinks_ & kHistogramSink) != 0;
  if (!buffer && !sample) return;
  Event ev{name_, cat_, 0, start_ns_, dur, arg_, has_arg_};
  if (enricher_ != nullptr) {
    std::array<std::int64_t, kMaxSpanSlots> now{};
    enricher_->sample(now.data());
    ev.n_slots = std::min(enricher_->n_slots, kMaxSpanSlots);
    ev.slot_names = enricher_->slot_names;
    for (int i = 0; i < ev.n_slots; ++i) {
      ev.slots[static_cast<std::size_t>(i)] =
          std::max<std::int64_t>(0, now[static_cast<std::size_t>(i)] -
                                        slot_start_[static_cast<std::size_t>(i)]);
    }
  }
  ThreadState& s = local_state();
  const std::lock_guard<std::mutex> lock(s.mu);
  if (sample) s.hist[static_cast<std::size_t>(metric_)].record(dur);
  if (buffer) {
    ev.tid = s.tid;
    s.events.push_back(ev);
  }
}

void set_span_enricher(const SpanEnricher* enricher) {
  g_enricher.store(enricher, std::memory_order_release);
}

const SpanEnricher* span_enricher() {
  return g_enricher.load(std::memory_order_acquire);
}

std::vector<Event> events() {
  std::vector<Event> out;
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  compact_locked(r);
  out = r.retired_events;
  for (const auto& s : r.states) {
    const std::lock_guard<std::mutex> state_lock(s->mu);
    out.insert(out.end(), s->events.begin(), s->events.end());
  }
  std::sort(out.begin(), out.end(), [](const Event& a, const Event& b) {
    return a.ts_ns != b.ts_ns ? a.ts_ns < b.ts_ns : a.tid < b.tid;
  });
  return out;
}

void write_chrome_trace(std::ostream& os) {
  const std::vector<Event> evs = events();
  Out out(os);
  render_chrome_trace(out, each_of(evs), snapshot());
}

void write_metrics_csv(std::ostream& os) { write_metrics(os, /*csv=*/true); }

void write_metrics_json(std::ostream& os) { write_metrics(os, /*csv=*/false); }

namespace {

/// `.csv` paths get the CSV sink, everything else JSON.
bool is_csv(const std::string& path) {
  return path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
}

/// Distinct span names the crash flush can aggregate without allocating.
constexpr std::size_t kCrashSpanNames = 256;

/// The armed Session's sinks: both files are open from arm time on, and
/// the aggregate table is reserved then, so a flush from a signal handler
/// needs no lock, no allocation and no open(2).
struct CrashFlush {
  int trace_fd = -1;
  int metrics_fd = -1;
  bool metrics_csv = false;
  std::vector<SpanAggregate> aggs;
  std::atomic<bool> flushed{true};  ///< true: nothing (left) to write
  bool hooks_installed = false;
};

CrashFlush& crash_flush_state() {
  static CrashFlush cf;
  return cf;
}

int open_sink(const std::string& path) {
  if (path.empty()) return -1;
  return ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
}

/// Empty a Session sink file for a fresh render.
void rewind_sink(int fd) {
  ::lseek(fd, 0, SEEK_SET);
  static_cast<void>(::ftruncate(fd, 0));
}

/// Render both sinks into the Session's files, replacing any earlier flush.
/// Order matters on the crash path, where other threads may still be
/// appending events: the counter rows (relaxed atomics only) reach the
/// metrics file before any event buffer is read, then the span rows, then
/// the trace.
template <typename EachEvent>
void write_session_sinks(CrashFlush& cf, const EachEvent& each,
                         const CounterSnapshot& counters, bool grow) {
  if (cf.metrics_fd >= 0) {
    rewind_sink(cf.metrics_fd);
    Out out(cf.metrics_fd);
    render_metrics_head(out, cf.metrics_csv, counters);
    out.flush();
    aggregate_spans(each, cf.aggs, grow);
    render_metrics_spans(out, cf.metrics_csv, cf.aggs);
  }
  if (cf.trace_fd >= 0) {
    rewind_sink(cf.trace_fd);
    Out out(cf.trace_fd);
    render_chrome_trace(out, each, counters);
  }
}

void crash_signal_handler(int sig) {
  // The flushed exchange in crash_flush_now() makes a double fault inside
  // the flush fall straight through to the re-raise.
  crash_flush_now();
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

/// Install the atexit + fatal-signal hooks, once per process. A signal
/// handler is installed only where the current disposition is the default
/// one — sanitizer runtimes (ASan's SEGV machinery) and application
/// handlers keep theirs.
void install_crash_hooks() {
  CrashFlush& cf = crash_flush_state();
  if (cf.hooks_installed) return;
  cf.hooks_installed = true;
  std::atexit([] { crash_flush_now(); });
  const int fatal[] = {SIGABRT, SIGSEGV, SIGBUS, SIGFPE, SIGILL};
  for (const int sig : fatal) {
    struct sigaction current {};
    if (sigaction(sig, nullptr, &current) != 0) continue;
    const bool is_default = (current.sa_flags & SA_SIGINFO) == 0 &&
                            current.sa_handler == SIG_DFL;
    if (!is_default) continue;
    struct sigaction action {};
    action.sa_handler = crash_signal_handler;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0;
    sigaction(sig, &action, nullptr);
  }
}

}  // namespace

void crash_flush_now() {
  CrashFlush& cf = crash_flush_state();
  if (cf.flushed.exchange(true, std::memory_order_acq_rel)) return;
  // No lock: the registry is walked as it stands, in buffer order,
  // unsorted. The counter rows are exact; the span rows and the trace are
  // best-effort when other threads are still appending (a racing append
  // can be missed, or reallocate a buffer under the walk).
  const Registry& r = registry();
  const auto each_unlocked = [&r](const auto& fn) {
    for (const Event& e : r.retired_events) fn(e);
    for (const auto& s : r.states) {
      for (const Event& e : s->events) fn(e);
    }
  };
  write_session_sinks(cf, each_unlocked, sum_counters(r), /*grow=*/false);
}

Session::Session(const std::string& trace_path,
                 const std::string& metrics_path) {
  if (trace_path.empty() && metrics_path.empty()) return;
  armed_ = true;
  reset();
  set_enabled(true);
  CrashFlush& cf = crash_flush_state();
  cf.trace_fd = open_sink(trace_path);
  cf.metrics_fd = open_sink(metrics_path);
  cf.metrics_csv = is_csv(metrics_path);
  cf.aggs.reserve(kCrashSpanNames);
  install_crash_hooks();
  cf.flushed.store(false, std::memory_order_release);
}

Session::~Session() {
  if (!armed_) return;
  // Disarm the crash hook before writing: the destructor pass is the
  // complete one, and a subsequent atexit flush must not overwrite it.
  CrashFlush& cf = crash_flush_state();
  cf.flushed.store(true, std::memory_order_release);
  const std::vector<Event> evs = events();
  write_session_sinks(cf, each_of(evs), snapshot(), /*grow=*/true);
  for (int* fd : {&cf.trace_fd, &cf.metrics_fd}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
}

}  // namespace tempest::trace

// The obs metric store is the same per-thread registry: a histogram sample
// lives next to the counters and events of the thread that recorded it,
// and one compaction retires all three.
namespace tempest::obs {

bool enabled() {
  return (trace::g_sinks.load(std::memory_order_relaxed) &
          trace::kHistogramSink) != 0;
}

void set_enabled(bool on) { trace::set_sinks(trace::kHistogramSink, on); }

void record_ns(Metric m, std::int64_t ns) {
  if (!enabled()) return;
  trace::ThreadState& s = trace::local_state();
  const std::lock_guard<std::mutex> lock(s.mu);
  s.hist[static_cast<std::size_t>(m)].record(ns);
}

MetricSnapshot snapshot_metrics() {
  trace::Registry& r = trace::registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  trace::compact_locked(r);
  MetricSnapshot out = r.retired_hist;
  for (const auto& s : r.states) {
    const std::lock_guard<std::mutex> state_lock(s->mu);
    for (int m = 0; m < kNumMetrics; ++m) {
      out[static_cast<std::size_t>(m)].merge(
          s->hist[static_cast<std::size_t>(m)]);
    }
  }
  return out;
}

Histogram metric_histogram(Metric m) {
  return snapshot_metrics()[static_cast<std::size_t>(m)];
}

void reset_metrics() {
  trace::Registry& r = trace::registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& s : r.states) {
    const std::lock_guard<std::mutex> state_lock(s->mu);
    for (auto& h : s->hist) h.clear();
  }
  for (auto& h : r.retired_hist) h.clear();
}

}  // namespace tempest::obs
