#include "tempest/util/threads.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>

#include <pthread.h>

#if defined(__SSE__)
#include <xmmintrin.h>
#endif

#include "tempest/util/env.hpp"
#include "tempest/util/error.hpp"

namespace tempest::util {

int env_threads() { return env_int("TEMPEST_THREADS").value_or(0); }

int resolve_threads(int requested) {
  if (requested >= 1) return requested;
  if (const int env = env_threads(); env >= 1) return env;
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

const char* to_string(TaskBackend b) {
  return b == TaskBackend::Serial ? "serial" : "pool";
}

TaskBackend select_backend(int threads) {
  return threads <= 1 ? TaskBackend::Serial : TaskBackend::Pool;
}

namespace {

void set_fp_mode(unsigned word) {
#if defined(__SSE__)
  _mm_setcsr(word);
#else
  (void)word;
#endif
}

/// True while this thread runs a region's participant loop: a region it
/// starts then runs serially, on this thread.
thread_local bool t_in_region = false;

/// True in a fork() child: only the forking thread survives a fork, so no
/// worker of the pool exists there, and a region that waited for one would
/// wait forever.
std::atomic<bool> g_forked{false};

[[maybe_unused]] const int g_atfork_registered = ::pthread_atfork(
    nullptr, nullptr, [] { g_forked.store(true, std::memory_order_relaxed); });

/// The process's worker threads (see the header for the contract).
class Pool {
 public:
  static Pool& get() {
    static Pool* const pool = new Pool;  // never destroyed
    return *pool;
  }

  /// Runs job() on the calling thread and on `helpers` workers; returns once
  /// every one of them has returned.
  void run(int helpers, const std::function<void()>& job) {
    const std::lock_guard<std::mutex> one_region_at_a_time(region_);
    {
      const std::lock_guard<std::mutex> lk(mu_);
      for (int w = static_cast<int>(workers_.size()); w < helpers; ++w) {
        workers_.emplace_back(&Pool::park, this, w);
      }
      job_ = &job;
      helpers_ = helpers;
      busy_ = helpers;
      ++generation_;
    }
    wake_.notify_all();
    job();
    std::unique_lock<std::mutex> lk(mu_);
    done_.wait(lk, [&] { return busy_ == 0; });
  }

 private:
  /// Worker `index`: waits for each region that asks for more than `index`
  /// helpers, runs its job, and reports back.
  void park(int index) {
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      wake_.wait(lk, [&] { return generation_ != seen && index < helpers_; });
      seen = generation_;
      const std::function<void()>& job = *job_;
      lk.unlock();
      job();
      lk.lock();
      if (--busy_ == 0) done_.notify_one();
    }
  }

  std::mutex region_;             ///< held for the whole of one region
  std::mutex mu_;                 ///< guards every field below
  std::condition_variable wake_;  ///< workers park here between regions
  std::condition_variable done_;  ///< the region's caller waits here
  std::vector<std::thread> workers_;  ///< never joined: the pool never dies
  const std::function<void()>* job_ = nullptr;
  std::uint64_t generation_ = 0;  ///< regions started so far
  int helpers_ = 0;               ///< workers the current region runs on
  int busy_ = 0;                  ///< of those, the ones not done yet
};

/// Participants a region over n items runs on: min(threads, n), or 1 on a
/// thread that is already running a region body or in a fork() child.
int participants(int threads, int n) {
  if (t_in_region || g_forked.load(std::memory_order_relaxed)) return 1;
  return std::min(threads, n);
}

/// One parallel region: every participant runs the same loop under the
/// caller's fp_mode(), and the first exception a body throws is rethrown
/// on the caller once all have returned.
class Region {
 public:
  void run(int team, const std::function<void()>& loop) {
    const unsigned mode = fp_mode();
    Pool::get().run(team - 1, [&]() noexcept {
      const FpModeScope fp(mode);
      t_in_region = true;
      loop();
      t_in_region = false;
    });
    if (failed()) std::rethrow_exception(error_);
  }

  /// body(i), unless a body of this region has already thrown.
  void call(const std::function<void(int)>& body, int i) {
    if (failed()) return;
    try {
      body(i);
    } catch (...) {
      if (!failed_.exchange(true)) error_ = std::current_exception();
    }
  }

  [[nodiscard]] bool failed() const { return failed_.load(); }

 private:
  std::atomic<bool> failed_{false};
  std::exception_ptr error_;  ///< written once, by the first thrower
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
  const int team = participants(threads, n);
  if (team <= 1) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<int> next{0};
  Region region;
  region.run(team, [&] {
    for (int i; (i = next.fetch_add(1, std::memory_order_relaxed)) < n;) {
      region.call(fn, i);
    }
  });
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

void TaskDag::run(int threads, const std::function<void(int)>& body) const {
  // A graph without edges needs no ready list: parallel_for's atomic index
  // claim costs a region about half what the list's mutex and condition
  // variable do.
  if (std::ranges::all_of(succs_, [](const auto& s) { return s.empty(); })) {
    parallel_for(n_, threads, body);
    return;
  }
  const int team = participants(threads, n_);
  if (team <= 1) {
    for (int i = 0; i < n_; ++i) body(i);
    return;
  }
  // The in-degree walk: a node becomes ready when its last predecessor
  // completes. `ready` never holds more than every node, so no push_back
  // allocates inside the region.
  std::vector<int> indeg(static_cast<std::size_t>(n_));
  std::vector<int> ready;
  ready.reserve(static_cast<std::size_t>(n_));
  for (int i = 0; i < n_; ++i) {
    const std::size_t k = static_cast<std::size_t>(i);
    indeg[k] = static_cast<int>(preds_[k].size());
    if (indeg[k] == 0) ready.push_back(i);
  }
  int remaining = n_;
  std::mutex m;
  std::condition_variable cv;
  Region region;
  region.run(team, [&] {
    std::unique_lock<std::mutex> lk(m);
    for (;;) {
      cv.wait(lk, [&] { return !ready.empty() || remaining == 0; });
      if (ready.empty()) return;  // remaining == 0: drained
      const int task = ready.back();
      ready.pop_back();
      lk.unlock();
      region.call(body, task);
      lk.lock();
      --remaining;
      for (const int s : succs_[static_cast<std::size_t>(task)]) {
        if (--indeg[static_cast<std::size_t>(s)] == 0) ready.push_back(s);
      }
      if (remaining == 0 || !ready.empty()) cv.notify_all();
    }
  });
}

}  // namespace tempest::util
