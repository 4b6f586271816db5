#pragma once

// Thread-count policy and the task-graph execution substrate shared by the
// parallel schedules.
//
// Thread policy: one knob, `TEMPEST_THREADS`. An explicit request (CLI flag,
// ExecutionOptions::threads) wins; otherwise the environment variable;
// otherwise the OpenMP default when the runtime is linked, else 1. A
// resolved count of 1 always means the deterministic serial path — no
// parallel runtime is entered at all.
//
// Execution substrate: TaskDag is a static DAG of coarse tasks (wavefront
// tiles, diamond triangles, color layers) with two parallel backends that
// honor exactly the same edges:
//   * OpenMP tasks with `depend` clauses (the default when the OpenMP
//     runtime is present). Nodes carry at most two predecessors — the
//     engine's tile graphs are generated so the staircase set suffices —
//     which maps onto fixed-arity OpenMP 4.5 depend lists;
//   * a portable std::thread topological pool using only standard C++
//     synchronization. This is the backend the ThreadSanitizer preset
//     exercises: GCC's libgomp is not TSan-instrumented (its barriers are
//     invisible to the race detector, drowning real reports in false
//     positives), so the tsan build compiles without the OpenMP runtime
//     (keeping -fopenmp-simd) and proves race-freedom of the task bodies —
//     the code that could actually race — through this pool.
// Both backends run the same bodies under the same dependence edges, so a
// race TSan can see in the pool is a race the OpenMP schedule has too.
//
// Floating-point mode: every parallel region (parallel_for, TaskDag::run)
// installs its caller's fp_mode() word in each worker for the whole region
// and gives the worker its own word back afterwards, so a body computes
// under the same rounding and subnormal handling on every thread. Without
// that, a mode set after the OpenMP runtime created its threads would
// apply to the caller's iterations only, and results would differ between
// 1 and 2 threads.

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

/// True when compiled against the OpenMP *runtime* (-fopenmp). The tsan
/// preset builds with -fopenmp-simd only: simd pragmas still vectorize,
/// but this returns false and the pool backend takes over.
[[nodiscard]] bool openmp_runtime();

/// $TEMPEST_THREADS parsed (clamped to >= 1), or 0 when unset/invalid.
[[nodiscard]] int env_threads();

/// The worker count a parallel region should use: `requested` when >= 1,
/// else $TEMPEST_THREADS, else the OpenMP runtime default, else 1.
[[nodiscard]] int resolve_threads(int requested = 0);

/// Which substrate a TaskDag/parallel_for invocation will use for a given
/// resolved worker count.
enum class TaskBackend {
  Serial,  ///< threads == 1: plain loops, bitwise-reference order
  OpenMP,  ///< OpenMP tasks / parallel-for (runtime present)
  Pool,    ///< std::thread topological pool (OpenMP runtime absent)
};

[[nodiscard]] const char* to_string(TaskBackend b);
[[nodiscard]] TaskBackend select_backend(int threads);

/// Run fn(i) for every i in [0, n). threads <= 1 runs the serial loop in
/// ascending order; otherwise the iterations execute concurrently (OpenMP
/// parallel-for or a transient std::thread team) and fn must be race-free
/// across iterations, each worker under the caller's fp_mode(). Exceptions
/// from fn are rethrown (first one wins).
void parallel_for(int n, int threads, const std::function<void(int)>& fn);

/// A static task DAG executed under the selected backend. Nodes are dense
/// ints [0, size); edges always point from a lower to a higher node id, so
/// ascending node order is a topological order and the serial backend is
/// simply `for (i) body(i)` — the bitwise-deterministic reference schedule.
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

  /// Largest predecessor-list length — the OpenMP backend requires <= 2
  /// (fixed-arity depend clauses; the engine's generators guarantee it).
  [[nodiscard]] int max_preds() const;

  /// Execute body(node) for every node honoring every edge, each worker
  /// under the caller's fp_mode(). threads <= 1: serial ascending order.
  /// Exceptions are rethrown after the graph drains (remaining bodies are
  /// skipped, first exception wins).
  void run(int threads, const std::function<void(int)>& body) const;

 private:
  void run_omp(int threads, const std::function<void(int)>& body) const;
  void run_pool(int threads, const std::function<void(int)>& body) const;

  int n_ = 0;
  std::vector<std::vector<int>> preds_;
  std::vector<std::vector<int>> succs_;
};

}  // namespace tempest::util
