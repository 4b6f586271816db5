#pragma once

// Thread-count policy and the one executor every parallel region runs on.
//
// Thread policy: one knob, `TEMPEST_THREADS`. An explicit request (CLI flag,
// ExecutionOptions::threads) wins; otherwise the environment variable;
// otherwise std::thread::hardware_concurrency(). A resolved count of 1
// always means the deterministic serial path: no other thread takes part.
//
// Executor: parallel_for and TaskDag::run both run on one process-wide pool
// of std::thread workers, so every build — the ThreadSanitizer preset
// included — runs the same executor:
//   * the pool starts on the first region with more than one thread and
//     grows to the largest worker count any region has asked for; between
//     regions its workers park on a condition variable (no spinning). It is
//     never destroyed, so no worker's thread_local state is torn down
//     during static destruction;
//   * a region runs on exactly min(threads, n) participants, the caller
//     included; surplus workers stay parked;
//   * regions started from different threads run one after another, and a
//     region started inside a region body runs serially on the calling
//     thread;
//   * a region started in a fork() child runs serially on the calling
//     thread: the child has none of the pool's workers, so a
//     pthread_atfork child handler marks the process and every later
//     region there takes the serial path.
//
// Floating-point mode: every participant computes under the caller's
// fp_mode() word for the whole region and gets its own word back
// afterwards, so a body computes under the same rounding and subnormal
// handling on every thread. Without that, a mode set after the pool's
// workers started would apply to the caller's iterations only, and results
// would differ between 1 and 2 threads.

#include <functional>
#include <vector>

namespace tempest::util {

/// The calling thread's floating-point control word: the x86 MXCSR
/// (rounding mode, exception masks, flush-to-zero, denormals-are-zero).
/// 0 on a target without SSE, where FpModeScope does nothing.
[[nodiscard]] unsigned fp_mode();

/// MXCSR flush-to-zero (bit 15) | denormals-are-zero (bit 6): results
/// below FLT_MIN are written as zero, and subnormal inputs read as zero.
inline constexpr unsigned kFlushSubnormals = 0x8040u;

/// Installs `word` as the calling thread's fp_mode() and restores the
/// previous word when the scope ends, a throw included.
class FpModeScope {
 public:
  explicit FpModeScope(unsigned word);
  ~FpModeScope();
  FpModeScope(const FpModeScope&) = delete;
  FpModeScope& operator=(const FpModeScope&) = delete;

 private:
  unsigned saved_;
};

/// $TEMPEST_THREADS as util::env_int reads it, or 0 when unset or invalid.
[[nodiscard]] int env_threads();

/// The worker count a parallel region should use: `requested` when >= 1,
/// else $TEMPEST_THREADS, else std::thread::hardware_concurrency() (1 when
/// that is unknown).
[[nodiscard]] int resolve_threads(int requested = 0);

/// Which substrate a TaskDag/parallel_for invocation will use for a given
/// resolved worker count.
enum class TaskBackend {
  Serial,  ///< threads <= 1: plain loops, bitwise-reference order
  Pool,    ///< the process's persistent worker pool
};

[[nodiscard]] const char* to_string(TaskBackend b);
[[nodiscard]] TaskBackend select_backend(int threads);

/// Run fn(i) for every i in [0, n). threads <= 1 runs the serial loop in
/// ascending order; otherwise the iterations execute concurrently on the
/// pool, each participant taking the next unclaimed index, and fn must be
/// race-free across iterations. Exceptions from fn are rethrown (first one
/// wins; no new iteration starts after it).
void parallel_for(int n, int threads, const std::function<void(int)>& fn);

/// A static task DAG. Nodes are dense ints [0, size); edges always point
/// from a lower to a higher node id, so ascending node order is a
/// topological order and the serial path is simply `for (i) body(i)` — the
/// bitwise-deterministic reference schedule. A node may have any number of
/// predecessors.
class TaskDag {
 public:
  TaskDag() = default;
  explicit TaskDag(int n);

  /// Add edge pred -> succ (pred must complete before succ starts).
  /// Requires pred < succ: the graph stays acyclic by construction.
  void add_edge(int pred, int succ);

  /// Drop edge pred -> succ if present (seeded wrong-by-construction
  /// fixtures for the race prover).
  void remove_edge(int pred, int succ);

  [[nodiscard]] int size() const { return n_; }
  [[nodiscard]] const std::vector<int>& preds(int node) const;

  /// Execute body(node) for every node honoring every edge. threads <= 1:
  /// serial ascending order; otherwise the pool's participants take ready
  /// nodes off one shared list, or, when the graph has no edge (left),
  /// claim indices as parallel_for does. Exceptions are rethrown after the
  /// graph drains (remaining bodies are skipped, first exception wins).
  void run(int threads, const std::function<void(int)>& body) const;

 private:
  int n_ = 0;
  std::vector<std::vector<int>> preds_;
  std::vector<std::vector<int>> succs_;
};

}  // namespace tempest::util
