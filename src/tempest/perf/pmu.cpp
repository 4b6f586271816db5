#include "tempest/perf/pmu.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>

#include "tempest/util/log.hpp"

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/syscall.h>
#include <unistd.h>
#define TEMPEST_PMU_LINUX 1
#endif

#include "tempest/trace/trace.hpp"

namespace tempest::perf::pmu {

namespace {

std::atomic<OpenHook> g_open_hook{nullptr};

/// Bumped by reset_for_testing(); thread-local caches compare against it.
std::atomic<std::uint64_t> g_generation{0};

const char* errno_name(int e) {
  switch (e) {
    case EACCES: return "EACCES";
    case EPERM: return "EPERM";
    case ENOSYS: return "ENOSYS";
    case ENOENT: return "ENOENT";
    case ENODEV: return "ENODEV";
    case EINVAL: return "EINVAL";
    case EMFILE: return "EMFILE";
    case EBUSY: return "EBUSY";
    default: return "errno";
  }
}

std::string describe_errno(int e) {
  return std::string(errno_name(e)) + " (" + std::strerror(e) + ")";
}

#if defined(TEMPEST_PMU_LINUX)

long open_event_fd(perf_event_attr* attr, int pid, int cpu, int group_fd,
                   unsigned long flags) {
  if (const OpenHook hook = g_open_hook.load(std::memory_order_acquire)) {
    return hook(attr, pid, cpu, group_fd, flags);
  }
  return syscall(__NR_perf_event_open, attr, pid, cpu, group_fd, flags);
}

struct EventSpec {
  std::uint32_t type;
  std::uint64_t config;
};

EventSpec event_spec(Event e) {
  constexpr std::uint64_t l1d_read_access =
      PERF_COUNT_HW_CACHE_L1D | (PERF_COUNT_HW_CACHE_OP_READ << 8) |
      (PERF_COUNT_HW_CACHE_RESULT_ACCESS << 16);
  constexpr std::uint64_t l1d_read_miss =
      PERF_COUNT_HW_CACHE_L1D | (PERF_COUNT_HW_CACHE_OP_READ << 8) |
      (PERF_COUNT_HW_CACHE_RESULT_MISS << 16);
  constexpr std::uint64_t ll_read_access =
      PERF_COUNT_HW_CACHE_LL | (PERF_COUNT_HW_CACHE_OP_READ << 8) |
      (PERF_COUNT_HW_CACHE_RESULT_ACCESS << 16);
  constexpr std::uint64_t ll_read_miss =
      PERF_COUNT_HW_CACHE_LL | (PERF_COUNT_HW_CACHE_OP_READ << 8) |
      (PERF_COUNT_HW_CACHE_RESULT_MISS << 16);
  switch (e) {
    case Event::Cycles:
      return {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES};
    case Event::Instructions:
      return {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS};
    case Event::StalledCycles:
      return {PERF_TYPE_HARDWARE, PERF_COUNT_HW_STALLED_CYCLES_BACKEND};
    case Event::L1dLoads: return {PERF_TYPE_HW_CACHE, l1d_read_access};
    case Event::L1dMisses: return {PERF_TYPE_HW_CACHE, l1d_read_miss};
    case Event::LlcLoads: return {PERF_TYPE_HW_CACHE, ll_read_access};
    case Event::LlcMisses: return {PERF_TYPE_HW_CACHE, ll_read_miss};
    case Event::TaskClock:
      return {PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK};
    case Event::PageFaults:
      return {PERF_TYPE_SOFTWARE, PERF_COUNT_SW_PAGE_FAULTS};
  }
  return {PERF_TYPE_SOFTWARE, PERF_COUNT_SW_DUMMY};
}

/// Open one counting fd for `e`, or -1 with errno preserved. Kernel and
/// hypervisor cycles are excluded so the open succeeds at
/// perf_event_paranoid <= 2 without privileges.
int open_one(Event e, Scope scope) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  const EventSpec spec = event_spec(e);
  attr.size = sizeof(attr);
  attr.type = spec.type;
  attr.config = spec.config;
  attr.disabled = 0;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  attr.inherit = scope == Scope::Process ? 1 : 0;
  attr.read_format =
      PERF_FORMAT_TOTAL_TIME_ENABLED | PERF_FORMAT_TOTAL_TIME_RUNNING;
  const long fd = open_event_fd(&attr, /*pid=*/0, /*cpu=*/-1,
                                /*group_fd=*/-1, /*flags=*/0);
  return static_cast<int>(fd);
}

#else  // !TEMPEST_PMU_LINUX

int open_one(Event, Scope) {
  errno = ENOSYS;
  return -1;
}

#endif

struct ProbeCache {
  std::mutex mu;
  std::optional<Availability> cached;
  std::uint64_t generation = 0;
  bool warned = false;
};

ProbeCache& probe_cache() {
  static ProbeCache c;
  return c;
}

Availability probe() {
  Availability a;
  for (int i = 0; i < kNumEvents; ++i) {
    const Event e = static_cast<Event>(i);
    errno = 0;
    const int fd = open_one(e, Scope::Thread);
    if (fd >= 0) {
      a.any = true;
      if (!is_software(e)) a.hardware = true;
#if defined(TEMPEST_PMU_LINUX)
      close(fd);
#endif
    } else if (a.reason.empty()) {
      a.reason = std::string(to_string(e)) + ": " + describe_errno(errno);
    }
  }
  return a;
}

}  // namespace

const char* to_string(Event e) {
  switch (e) {
    case Event::Cycles: return "cycles";
    case Event::Instructions: return "instructions";
    case Event::StalledCycles: return "stalled_cycles";
    case Event::L1dLoads: return "l1d_loads";
    case Event::L1dMisses: return "l1d_misses";
    case Event::LlcLoads: return "llc_loads";
    case Event::LlcMisses: return "llc_misses";
    case Event::TaskClock: return "task_clock_ns";
    case Event::PageFaults: return "page_faults";
  }
  return "?";
}

double Sample::ipc() const {
  if (!valid(Event::Instructions) || !valid(Event::Cycles)) return 0.0;
  const long long cycles = (*this)[Event::Cycles];
  return cycles > 0
             ? static_cast<double>((*this)[Event::Instructions]) /
                   static_cast<double>(cycles)
             : 0.0;
}

double Sample::l2_bytes(int line_bytes) const {
  if (!valid(Event::L1dMisses)) return 0.0;
  return static_cast<double>((*this)[Event::L1dMisses]) * line_bytes;
}

double Sample::dram_bytes(int line_bytes) const {
  if (!valid(Event::LlcMisses)) return 0.0;
  return static_cast<double>((*this)[Event::LlcMisses]) * line_bytes;
}

Sample operator-(const Sample& a, const Sample& b) {
  Sample out;
  out.valid_mask = a.valid_mask & b.valid_mask;
  for (int i = 0; i < kNumEvents; ++i) {
    if ((out.valid_mask >> i) & 1u) {
      // Multiplex scaling can make estimates wobble by a count or two
      // between reads; clamp so deltas are never negative.
      out.value[static_cast<std::size_t>(i)] = std::max(
          0ll, a.value[static_cast<std::size_t>(i)] -
                   b.value[static_cast<std::size_t>(i)]);
    }
  }
  return out;
}

const Availability& availability() {
  ProbeCache& c = probe_cache();
  const std::lock_guard<std::mutex> lock(c.mu);
  const std::uint64_t gen = g_generation.load(std::memory_order_acquire);
  if (!c.cached || c.generation != gen) {
    c.cached = probe();
    c.generation = gen;
    if (!c.cached->hardware && !c.warned) {
      c.warned = true;
      util::warn(
          "pmu: hardware counters unavailable (" +
          (c.cached->reason.empty() ? std::string("no failure captured")
                                    : c.cached->reason) +
          "); " +
          (c.cached->any
               ? "falling back to software events (task-clock, page-faults)"
               : "all samples will be zeroed and flagged unavailable"));
    }
  }
  return *c.cached;
}

CounterGroup::CounterGroup(Scope scope) {
  fd_.fill(-1);
  // One probe (and at most one warning) per process before any group
  // floods the log with per-event failures.
  (void)availability();
  for (int i = 0; i < kNumEvents; ++i) {
    const int fd = open_one(static_cast<Event>(i), scope);
    if (fd >= 0) {
      fd_[static_cast<std::size_t>(i)] = fd;
      open_mask_ |= 1u << i;
    }
  }
}

CounterGroup::~CounterGroup() { close_all(); }

CounterGroup::CounterGroup(CounterGroup&& other) noexcept
    : fd_(other.fd_), open_mask_(other.open_mask_) {
  other.fd_.fill(-1);
  other.open_mask_ = 0;
}

CounterGroup& CounterGroup::operator=(CounterGroup&& other) noexcept {
  if (this != &other) {
    close_all();
    fd_ = other.fd_;
    open_mask_ = other.open_mask_;
    other.fd_.fill(-1);
    other.open_mask_ = 0;
  }
  return *this;
}

void CounterGroup::close_all() {
#if defined(TEMPEST_PMU_LINUX)
  for (int& fd : fd_) {
    if (fd >= 0) close(fd);
    fd = -1;
  }
#endif
  open_mask_ = 0;
}

Sample CounterGroup::read() const {
  Sample s;
#if defined(TEMPEST_PMU_LINUX)
  for (int i = 0; i < kNumEvents; ++i) {
    const int fd = fd_[static_cast<std::size_t>(i)];
    if (fd < 0) continue;
    // read_format = VALUE | TOTAL_TIME_ENABLED | TOTAL_TIME_RUNNING.
    std::uint64_t buf[3] = {0, 0, 0};
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < static_cast<ssize_t>(sizeof(buf))) continue;
    double v = static_cast<double>(buf[0]);
    // Scale for multiplexing: the kernel ran this counter buf[2] of
    // buf[1] ns; extrapolate to the full enabled window.
    if (buf[2] > 0 && buf[2] < buf[1]) {
      v *= static_cast<double>(buf[1]) / static_cast<double>(buf[2]);
    } else if (buf[2] == 0 && buf[1] > 0) {
      // Never scheduled: no information, leave the event invalid.
      continue;
    }
    s.value[static_cast<std::size_t>(i)] = static_cast<long long>(v);
    s.valid_mask |= 1u << i;
  }
#endif
  return s;
}

const CounterGroup& thread_group() {
  thread_local std::unique_ptr<CounterGroup> group;
  thread_local std::uint64_t gen = ~std::uint64_t{0};
  const std::uint64_t want = g_generation.load(std::memory_order_acquire);
  if (!group || gen != want) {
    group = std::make_unique<CounterGroup>(Scope::Thread);
    gen = want;
  }
  return *group;
}

namespace {

/// trace::SpanEnricher sampler: cumulative per-thread counter values in
/// Event order. Runs on the span's thread, so the thread-local group is
/// the right scope.
void sample_for_trace(std::int64_t out[]) {
  const Sample s = thread_group().read();
  for (int i = 0; i < kNumEvents; ++i) {
    out[i] = s.valid(static_cast<Event>(i))
                 ? s.value[static_cast<std::size_t>(i)]
                 : 0;
  }
}

const char* const kSlotNames[kNumEvents] = {
    "cycles",      "instructions", "stalled_cycles",
    "l1d_loads",   "l1d_misses",   "llc_loads",
    "llc_misses",  "task_clock_ns", "page_faults",
};

const trace::SpanEnricher kEnricher{kNumEvents, kSlotNames,
                                    &sample_for_trace};

std::atomic<bool> g_enrich{false};

}  // namespace

void enable_span_enrichment() {
  trace::set_span_enricher(&kEnricher);
  g_enrich.store(true, std::memory_order_release);
}

void disable_span_enrichment() {
  trace::set_span_enricher(nullptr);
  g_enrich.store(false, std::memory_order_release);
}

bool span_enrichment_enabled() {
  return g_enrich.load(std::memory_order_acquire);
}

void set_open_hook_for_testing(OpenHook hook) {
  g_open_hook.store(hook, std::memory_order_release);
}

void reset_for_testing() {
  g_generation.fetch_add(1, std::memory_order_acq_rel);
  ProbeCache& c = probe_cache();
  const std::lock_guard<std::mutex> lock(c.mu);
  c.cached.reset();
  c.warned = false;
}

}  // namespace tempest::perf::pmu
