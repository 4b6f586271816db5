#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace tempest::perf::pmu {

/// Zero-dependency Linux `perf_event_open` backend: the measured
/// counterpart of the modelled quantities elsewhere in `perf/` (flop
/// formulas, cache-simulator traffic, calibration ceilings). The paper's
/// evaluation reads GFLOP/s and per-level memory traffic off hardware
/// counters (Intel Advisor); this module is that substitution.
///
/// Design rules:
///   * graceful, observable degradation — on kernels or containers where
///     `perf_event_open` is denied (EACCES under perf_event_paranoid),
///     absent (ENOSYS), or has no PMU behind it (ENOENT/ENODEV on most
///     VMs), the subsystem logs `unavailable(<event>: <errno>)` exactly
///     once and every region yields zeroed samples whose `valid_mask`
///     says so. Never a crash, never silent garbage;
///   * per-event availability — a machine without a hardware PMU still
///     serves the software events (task-clock, page-faults), so samples
///     carry a validity bit per event rather than one global flag;
///   * multiplex correctness — more events than hardware counters makes
///     the kernel time-slice them; reads are scaled by
///     time_enabled/time_running so deltas stay unbiased.
///
/// Counters are opened per *scope*: `Scope::Thread` counts the calling
/// thread only (what the trace-span enrichment uses, one group per
/// thread), `Scope::Process` additionally inherits into threads spawned
/// after the open (open it before the first parallel region starts the
/// worker pool and a whole parallel run is counted).

/// The counter set. Hardware events mirror the quantities the paper's
/// figures rest on (cycles/instructions for GFLOP/s context, cache
/// loads+misses for per-level traffic); the software events always exist
/// on Linux and keep the subsystem useful on PMU-less machines.
enum class Event : int {
  Cycles = 0,      ///< PERF_COUNT_HW_CPU_CYCLES
  Instructions,    ///< PERF_COUNT_HW_INSTRUCTIONS
  StalledCycles,   ///< PERF_COUNT_HW_STALLED_CYCLES_BACKEND
  L1dLoads,        ///< HW_CACHE L1D read accesses
  L1dMisses,       ///< HW_CACHE L1D read misses
  LlcLoads,        ///< HW_CACHE LL read accesses
  LlcMisses,       ///< HW_CACHE LL read misses (the DRAM-traffic proxy)
  TaskClock,       ///< PERF_COUNT_SW_TASK_CLOCK (ns, software)
  PageFaults,      ///< PERF_COUNT_SW_PAGE_FAULTS (software)
};
inline constexpr int kNumEvents = 9;

[[nodiscard]] const char* to_string(Event e);
[[nodiscard]] constexpr bool is_software(Event e) {
  return e == Event::TaskClock || e == Event::PageFaults;
}

/// One reading (or delta) of the event set. `valid_mask` bit i is set iff
/// event i was actually measured; unmeasured slots are zero. Consumers
/// must check validity before deriving rates — a zero LlcMisses on a
/// PMU-less VM means "unknown", not "perfect cache".
struct Sample {
  std::array<long long, kNumEvents> value{};
  std::uint32_t valid_mask = 0;

  [[nodiscard]] bool valid(Event e) const {
    return (valid_mask >> static_cast<int>(e)) & 1u;
  }
  [[nodiscard]] long long operator[](Event e) const {
    return value[static_cast<std::size_t>(e)];
  }
  [[nodiscard]] bool any() const { return valid_mask != 0; }
  [[nodiscard]] bool hardware() const {
    constexpr std::uint32_t sw_mask =
        (1u << static_cast<int>(Event::TaskClock)) |
        (1u << static_cast<int>(Event::PageFaults));
    return (valid_mask & ~sw_mask) != 0;
  }

  /// Instructions per cycle; 0 when either event is unmeasured.
  [[nodiscard]] double ipc() const;
  /// Measured line traffic at a hierarchy boundary: misses x line size.
  /// l2_bytes approximates L1<->L2 fill traffic, dram_bytes the LLC<->DRAM
  /// fill traffic (write-backs are not counted: a known, documented
  /// undercount the validation tolerances absorb).
  [[nodiscard]] double l2_bytes(int line_bytes = 64) const;
  [[nodiscard]] double dram_bytes(int line_bytes = 64) const;
};

/// Per-event difference a - b; the result is valid where both inputs are.
[[nodiscard]] Sample operator-(const Sample& a, const Sample& b);

/// Whether this process can open counters at all, probed once and cached.
struct Availability {
  bool any = false;       ///< at least one event (incl. software) opens
  bool hardware = false;  ///< at least one hardware event opens
  std::string reason;     ///< first failure, e.g. "cycles: ENOENT (...)";
                          ///< empty when every event opened
};

/// Probe result for this process. The first call probes (and logs a
/// one-line warning if degraded); later calls return the cached answer.
[[nodiscard]] const Availability& availability();

enum class Scope {
  Thread,   ///< count the calling thread only
  Process,  ///< + inherit into threads spawned after the open
};

/// A set of opened counter fds. Events that fail to open are simply
/// absent from `open_mask()`; a group where nothing opened is inert and
/// read() returns an all-invalid Sample.
class CounterGroup {
 public:
  explicit CounterGroup(Scope scope = Scope::Thread);
  ~CounterGroup();
  CounterGroup(const CounterGroup&) = delete;
  CounterGroup& operator=(const CounterGroup&) = delete;
  CounterGroup(CounterGroup&& other) noexcept;
  CounterGroup& operator=(CounterGroup&& other) noexcept;

  [[nodiscard]] std::uint32_t open_mask() const { return open_mask_; }
  [[nodiscard]] bool any_open() const { return open_mask_ != 0; }

  /// Cumulative multiplex-scaled counts since the group opened.
  /// Monotonically non-decreasing per valid event.
  [[nodiscard]] Sample read() const;

 private:
  void close_all();

  std::array<int, kNumEvents> fd_{};
  std::uint32_t open_mask_ = 0;
};

/// The calling thread's cached Scope::Thread group (opened lazily on
/// first use; reopened after reset_for_testing()).
[[nodiscard]] const CounterGroup& thread_group();

/// RAII measurement region: snapshots the group at construction,
/// `delta()` returns counts accrued since then. Usable standalone around
/// any code region; nests freely (inner regions simply observe a
/// sub-window of the same monotonic counters).
class PmuRegion {
 public:
  /// Measure on the calling thread's cached group.
  PmuRegion() : PmuRegion(thread_group()) {}
  /// Measure on an explicit group (e.g. a Scope::Process group).
  explicit PmuRegion(const CounterGroup& group)
      : group_(&group), start_(group.read()) {}

  [[nodiscard]] Sample delta() const { return group_->read() - start_; }

 private:
  const CounterGroup* group_;
  Sample start_;
};

/// Opt-in trace::Span enrichment: installs a sampler so every recorded
/// span carries the per-thread counter deltas of its interval into the
/// Chrome-trace and metrics sinks (schema v2). Call from serial code.
void enable_span_enrichment();
void disable_span_enrichment();
[[nodiscard]] bool span_enrichment_enabled();

/// --- test shims -----------------------------------------------------
/// Replacement for the raw perf_event_open syscall; `attr` points at a
/// struct perf_event_attr. Return the fd, or -1 with errno set. Pass
/// nullptr to restore the real syscall. Tests use this to simulate
/// EACCES/ENOSYS without touching kernel state.
using OpenHook = long (*)(void* attr, int pid, int cpu, int group_fd,
                          unsigned long flags);
void set_open_hook_for_testing(OpenHook hook);

/// Drop the cached availability probe and every thread's cached group so
/// the next use re-probes (tests flip hooks between scenarios).
void reset_for_testing();

}  // namespace tempest::perf::pmu
