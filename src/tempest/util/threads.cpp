#include "tempest/util/threads.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#ifdef _OPENMP
#include <omp.h>
#endif

#if defined(__SSE__)
#include <xmmintrin.h>
#endif

#include "tempest/util/error.hpp"

namespace tempest::util {

bool openmp_runtime() {
#ifdef _OPENMP
  return true;
#else
  return false;
#endif
}

int env_threads() {
  const char* env = std::getenv("TEMPEST_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  const long v = std::strtol(env, nullptr, 10);
  if (v < 1) return 0;
  return static_cast<int>(v);
}

int resolve_threads(int requested) {
  if (requested >= 1) return requested;
  const int env = env_threads();
  if (env >= 1) return env;
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

const char* to_string(TaskBackend b) {
  switch (b) {
    case TaskBackend::Serial: return "serial";
    case TaskBackend::OpenMP: return "openmp";
    case TaskBackend::Pool: return "pool";
  }
  return "?";
}

TaskBackend select_backend(int threads) {
  if (threads <= 1) return TaskBackend::Serial;
  return openmp_runtime() ? TaskBackend::OpenMP : TaskBackend::Pool;
}

namespace {

void set_fp_mode(unsigned word) {
#if defined(__SSE__)
  _mm_setcsr(word);
#else
  (void)word;
#endif
}

/// First-exception capture shared by the parallel executors: bodies run
/// under no-throw workers (std::thread would terminate), the first
/// exception is kept and rethrown on the calling thread after the join.
class ExceptionSlot {
 public:
  void capture() {
    if (armed_.exchange(true, std::memory_order_acq_rel)) return;
    ptr_ = std::current_exception();
    ready_.store(true, std::memory_order_release);
  }
  [[nodiscard]] bool armed() const {
    return armed_.load(std::memory_order_acquire);
  }
  void rethrow() {
    if (!armed_.load(std::memory_order_acquire)) return;
    while (!ready_.load(std::memory_order_acquire)) std::this_thread::yield();
    std::rethrow_exception(ptr_);
  }

 private:
  std::atomic<bool> armed_{false};
  std::atomic<bool> ready_{false};
  std::exception_ptr ptr_;
};

}  // namespace

unsigned fp_mode() {
#if defined(__SSE__)
  return _mm_getcsr();
#else
  return 0;
#endif
}

FpModeScope::FpModeScope(unsigned word) : saved_(fp_mode()) {
  set_fp_mode(word);
}

FpModeScope::~FpModeScope() { set_fp_mode(saved_); }

void parallel_for(int n, int threads, const std::function<void(int)>& fn) {
  if (n <= 0) return;
  const int workers = std::min(threads, n);
  if (workers <= 1) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  ExceptionSlot error;
  const unsigned mode = fp_mode();
#ifdef _OPENMP
#pragma omp parallel num_threads(workers)
  {
    const FpModeScope fp(mode);
#pragma omp for schedule(dynamic)
    for (int i = 0; i < n; ++i) {
      if (error.armed()) continue;
      try {
        fn(i);
      } catch (...) {
        error.capture();
      }
    }
  }
#else
  std::atomic<int> next{0};
  auto worker = [&] {
    const FpModeScope fp(mode);
    for (;;) {
      const int i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n || error.armed()) return;
      try {
        fn(i);
      } catch (...) {
        error.capture();
      }
    }
  };
  std::vector<std::thread> team;
  team.reserve(static_cast<std::size_t>(workers) - 1);
  for (int w = 1; w < workers; ++w) team.emplace_back(worker);
  worker();
  for (std::thread& t : team) t.join();
#endif
  error.rethrow();
}

TaskDag::TaskDag(int n) : n_(n) {
  TEMPEST_REQUIRE(n >= 0);
  preds_.resize(static_cast<std::size_t>(n));
  succs_.resize(static_cast<std::size_t>(n));
}

void TaskDag::add_edge(int pred, int succ) {
  TEMPEST_REQUIRE(pred >= 0 && succ < n_);
  TEMPEST_REQUIRE_MSG(pred < succ,
                      "task edges must point forward (pred < succ) so "
                      "ascending node order stays topological");
  preds_[static_cast<std::size_t>(succ)].push_back(pred);
  succs_[static_cast<std::size_t>(pred)].push_back(succ);
}

void TaskDag::remove_edge(int pred, int succ) {
  TEMPEST_REQUIRE(pred >= 0 && pred < n_ && succ >= 0 && succ < n_);
  std::erase(preds_[static_cast<std::size_t>(succ)], pred);
  std::erase(succs_[static_cast<std::size_t>(pred)], succ);
}

const std::vector<int>& TaskDag::preds(int node) const {
  return preds_[static_cast<std::size_t>(node)];
}

int TaskDag::max_preds() const {
  std::size_t m = 0;
  for (const auto& p : preds_) m = std::max(m, p.size());
  return static_cast<int>(m);
}

void TaskDag::run(int threads, const std::function<void(int)>& body) const {
  if (n_ == 0) return;
  const int workers = std::min(threads, n_);
  switch (select_backend(workers)) {
    case TaskBackend::Serial:
      for (int i = 0; i < n_; ++i) body(i);
      return;
    case TaskBackend::OpenMP:
      run_omp(workers, body);
      return;
    case TaskBackend::Pool:
      run_pool(workers, body);
      return;
  }
}

void TaskDag::run_omp(int threads, const std::function<void(int)>& body) const {
#ifdef _OPENMP
  TEMPEST_REQUIRE_MSG(max_preds() <= 2,
                      "the OpenMP task backend expresses at most two "
                      "predecessors per node (fixed-arity depend clauses); "
                      "generate a staircase-reduced graph");
  // One sentinel byte per node: tasks depend on the *addresses*, never the
  // values. All tasks bound to the parallel region complete at the implicit
  // barrier ending the single construct, so the vector outlives them.
  std::vector<char> sentinel(static_cast<std::size_t>(n_), 0);
  [[maybe_unused]] char* dep = sentinel.data();  // named only by depend()
  ExceptionSlot error;
  const unsigned mode = fp_mode();
#pragma omp parallel num_threads(threads) default(shared)
  {
    // Open before the single construct: its closing barrier, where every
    // task of the region has completed, comes before the scope restores.
    const FpModeScope fp(mode);
#pragma omp single
    {
      for (int i = 0; i < n_; ++i) {
        const auto& p = preds_[static_cast<std::size_t>(i)];
        const int a = p.empty() ? 0 : p[0];
        const int b = p.size() < 2 ? 0 : p[1];
        switch (p.size()) {
          case 0:
#pragma omp task depend(out : dep[i]) firstprivate(i) default(shared)
            {
              if (!error.armed()) {
                try {
                  body(i);
                } catch (...) {
                  error.capture();
                }
              }
            }
            break;
          case 1:
#pragma omp task depend(in : dep[a]) depend(out : dep[i]) \
    firstprivate(i, a) default(shared)
            {
              if (!error.armed()) {
                try {
                  body(i);
                } catch (...) {
                  error.capture();
                }
              }
            }
            break;
          default:
#pragma omp task depend(in : dep[a], dep[b]) depend(out : dep[i]) \
    firstprivate(i, a, b) default(shared)
            {
              if (!error.armed()) {
                try {
                  body(i);
                } catch (...) {
                  error.capture();
                }
              }
            }
            break;
        }
      }
    }
  }
  error.rethrow();
#else
  run_pool(threads, body);
#endif
}

void TaskDag::run_pool(int threads, const std::function<void(int)>& body) const {
  std::vector<int> indeg(static_cast<std::size_t>(n_), 0);
  for (int i = 0; i < n_; ++i) {
    indeg[static_cast<std::size_t>(i)] =
        static_cast<int>(preds_[static_cast<std::size_t>(i)].size());
  }
  std::mutex m;
  std::condition_variable cv;
  std::vector<int> ready;
  for (int i = 0; i < n_; ++i) {
    if (indeg[static_cast<std::size_t>(i)] == 0) ready.push_back(i);
  }
  int remaining = n_;
  ExceptionSlot error;
  const unsigned mode = fp_mode();

  auto worker = [&] {
    const FpModeScope fp(mode);
    std::unique_lock<std::mutex> lk(m);
    for (;;) {
      cv.wait(lk, [&] { return !ready.empty() || remaining == 0; });
      if (ready.empty()) return;  // remaining == 0: drained
      const int task = ready.back();
      ready.pop_back();
      lk.unlock();
      if (!error.armed()) {
        try {
          body(task);
        } catch (...) {
          error.capture();
        }
      }
      lk.lock();
      --remaining;
      for (const int s : succs_[static_cast<std::size_t>(task)]) {
        if (--indeg[static_cast<std::size_t>(s)] == 0) ready.push_back(s);
      }
      if (remaining == 0 || !ready.empty()) cv.notify_all();
    }
  };

  std::vector<std::thread> team;
  team.reserve(static_cast<std::size_t>(threads) - 1);
  for (int w = 1; w < threads; ++w) team.emplace_back(worker);
  worker();
  for (std::thread& t : team) t.join();
  error.rethrow();
}

}  // namespace tempest::util
