#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "tempest/util/align.hpp"
#include "tempest/util/backoff.hpp"
#include "tempest/util/cli.hpp"
#include "tempest/util/crc32.hpp"
#include "tempest/util/env.hpp"
#include "tempest/util/error.hpp"
#include "tempest/util/rng.hpp"
#include "tempest/util/table.hpp"
#include "tempest/util/threads.hpp"
#include "tempest/util/timer.hpp"

namespace tu = tempest::util;

TEST(Require, ThrowsOnViolation) {
  EXPECT_THROW(TEMPEST_REQUIRE(1 == 2), tu::PreconditionError);
  EXPECT_NO_THROW(TEMPEST_REQUIRE(1 == 1));
  try {
    TEMPEST_REQUIRE_MSG(false, "custom detail");
    FAIL() << "should have thrown";
  } catch (const tu::PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("custom detail"), std::string::npos);
  }
}

TEST(Require, MessageNamesExpressionAndLocation) {
  // The diagnostic must be self-contained: expression text, source
  // file:line, and — for the _MSG form — the caller's detail after a dash.
  try {
    TEMPEST_REQUIRE(2 + 2 == 5);
    FAIL() << "should have thrown";
  } catch (const tu::PreconditionError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("precondition failed: (2 + 2 == 5)"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("util_test.cpp:"), std::string::npos) << msg;
  }
  try {
    TEMPEST_REQUIRE_MSG(1 > 3, "tile wider than the domain");
    FAIL() << "should have thrown";
  } catch (const tu::PreconditionError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("(1 > 3)"), std::string::npos) << msg;
    EXPECT_NE(msg.find("— tile wider than the domain"), std::string::npos)
        << msg;
  }
}

TEST(Require, IsACatchableLogicError) {
  // Consumers that cannot include tempest headers still catch std::.
  EXPECT_THROW(TEMPEST_REQUIRE(false), std::logic_error);
  EXPECT_THROW(TEMPEST_REQUIRE_MSG(false, "x"), std::exception);
}

TEST(AlignedVector, StorageIsAligned) {
  tu::aligned_vector<float> v(1000, 1.0f);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % tu::kAlignment, 0u);
  tu::aligned_vector<double> w(3);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(w.data()) % tu::kAlignment, 0u);
}

TEST(AlignedVector, AllocatorEqualityAndRebind) {
  tu::AlignedAllocator<float> a;
  tu::AlignedAllocator<double> b;
  EXPECT_TRUE(a == tu::AlignedAllocator<float>(b));
}

TEST(Rng, Deterministic) {
  tu::SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, UniformInRange) {
  tu::SplitMix64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = rng.uniform(3.0, 5.0);
    EXPECT_GE(v, 3.0);
    EXPECT_LT(v, 5.0);
    EXPECT_LT(rng.below(10), 10u);
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  tu::SplitMix64 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_EQ(same, 0);
}

TEST(Timer, MeasuresElapsed) {
  tu::Timer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(t.seconds(), 0.0);
  const double ms = t.milliseconds();
  EXPECT_GE(ms, 0.0);
}

TEST(Cli, ParsesAllForms) {
  const char* argv[] = {"prog",      "--size=128", "--steps=50",
                        "--verbose", "pos1",       "--ratio=0.5"};
  tu::Cli cli(6, argv);
  EXPECT_EQ(cli.get_int("size", 0), 128);
  EXPECT_EQ(cli.get_int("steps", 0), 50);
  EXPECT_TRUE(cli.get_flag("verbose"));
  EXPECT_FALSE(cli.get_flag("quiet"));
  EXPECT_DOUBLE_EQ(cli.get_double("ratio", 0.0), 0.5);
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
  EXPECT_EQ(cli.program(), "prog");
}

TEST(Cli, Fallbacks) {
  const char* argv[] = {"prog"};
  tu::Cli cli(1, argv);
  EXPECT_EQ(cli.get("missing", "dflt"), "dflt");
  EXPECT_EQ(cli.get_int("missing", 7), 7);
  EXPECT_TRUE(cli.get_flag("missing", true));
}

TEST(Cli, IntList) {
  const char* argv[] = {"prog", "--so=4,8,12"};
  tu::Cli cli(2, argv);
  const auto so = cli.get_int_list("so", {2});
  ASSERT_EQ(so.size(), 3u);
  EXPECT_EQ(so[0], 4);
  EXPECT_EQ(so[1], 8);
  EXPECT_EQ(so[2], 12);
  EXPECT_EQ(cli.get_int_list("missing", {2, 4}).size(), 2u);
}

TEST(Table, AsciiAndCsv) {
  tu::Table t({"name", "value"});
  t.add_row({"alpha", tu::Table::num(1.5, 2)});
  t.add_row({"beta", "2"});
  EXPECT_EQ(t.rows(), 2u);

  std::ostringstream ascii;
  t.print_ascii(ascii);
  EXPECT_NE(ascii.str().find("alpha"), std::string::npos);
  EXPECT_NE(ascii.str().find("1.50"), std::string::npos);

  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_EQ(csv.str(), "name,value\nalpha,1.50\nbeta,2\n");
}

TEST(Table, RejectsWrongArity) {
  tu::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), tu::PreconditionError);
}

// --- Environment knobs ----------------------------------------------------
//
// None of these starts a thread: the knobs are read, never used.

namespace {

/// The malformed values every integer knob must read as unset.
constexpr std::array<const char*, 8> kNotAPositiveInt = {
    "", "0", "-3", "3x", "99999999999", "1e10", " 4", "+4"};

}  // namespace

TEST(Env, IntegerKnobsAcceptOnlyWholePositiveDecimals) {
  const char* name = "TEMPEST_TEST_ENV_INT";
  ASSERT_EQ(::setenv(name, "4", 1), 0);
  EXPECT_EQ(tu::env_int(name).value_or(0), 4);
  ASSERT_EQ(::setenv(name, "2147483647", 1), 0);
  EXPECT_EQ(tu::env_int(name).value_or(0), 2147483647);
  for (const char* bad : kNotAPositiveInt) {
    ASSERT_EQ(::setenv(name, bad, 1), 0);
    EXPECT_FALSE(tu::env_int(name).has_value()) << '"' << bad << '"';
  }
  ASSERT_EQ(::unsetenv(name), 0);
  EXPECT_FALSE(tu::env_int(name).has_value());
}

TEST(Env, RealKnobsAcceptOnlyWholePositiveFiniteNumbers) {
  const char* name = "TEMPEST_TEST_ENV_REAL";
  ASSERT_EQ(::setenv(name, "12.5", 1), 0);
  EXPECT_DOUBLE_EQ(tu::env_double(name).value_or(0.0), 12.5);
  for (const char* bad : {"", "0", "-1", "inf", "nan", "1e999", "2x", " 3"}) {
    ASSERT_EQ(::setenv(name, bad, 1), 0);
    EXPECT_FALSE(tu::env_double(name).has_value()) << '"' << bad << '"';
  }
  ASSERT_EQ(::unsetenv(name), 0);
  EXPECT_FALSE(tu::env_double(name).has_value());
}

TEST(Env, ThreadAndRetryKnobsFallBackOnMalformedValues) {
  ASSERT_EQ(::setenv("TEMPEST_THREADS", "4", 1), 0);
  ASSERT_EQ(::setenv("TEMPEST_TEST_RETRIES", "4", 1), 0);
  EXPECT_EQ(tu::env_threads(), 4);
  EXPECT_EQ(tu::resolve_threads(0), 4);
  EXPECT_EQ(tu::BackoffPolicy::from_env("TEMPEST_TEST").max_attempts, 4);
  tu::BackoffPolicy def;
  def.max_attempts = 2;
  for (const char* bad : kNotAPositiveInt) {
    ASSERT_EQ(::setenv("TEMPEST_THREADS", bad, 1), 0);
    ASSERT_EQ(::setenv("TEMPEST_TEST_RETRIES", bad, 1), 0);
    EXPECT_EQ(tu::env_threads(), 0) << '"' << bad << '"';
    EXPECT_GE(tu::resolve_threads(0), 1) << '"' << bad << '"';
    EXPECT_EQ(tu::BackoffPolicy::from_env("TEMPEST_TEST", def).max_attempts,
              2)
        << '"' << bad << '"';
  }
  ASSERT_EQ(::unsetenv("TEMPEST_THREADS"), 0);
  ASSERT_EQ(::unsetenv("TEMPEST_TEST_RETRIES"), 0);
}

// --- Thread policy + task-graph substrate --------------------------------

TEST(Threads, SelectBackendMatchesRuntime) {
  EXPECT_EQ(tu::select_backend(1), tu::TaskBackend::Serial);
  EXPECT_EQ(tu::select_backend(0), tu::TaskBackend::Serial);
  EXPECT_EQ(tu::select_backend(2), tu::TaskBackend::Pool);
  EXPECT_EQ(tu::select_backend(4), tu::TaskBackend::Pool);
  EXPECT_STREQ(tu::to_string(tu::TaskBackend::Serial), "serial");
  EXPECT_STREQ(tu::to_string(tu::TaskBackend::Pool), "pool");
}

TEST(Threads, ParallelForCoversEveryIndexExactlyOnce) {
  for (const int n : {1, 2, 3, 97}) {
    for (const int threads : {1, 2, 3, 8}) {
      std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
      tu::parallel_for(n, threads,
                       [&](int i) { hits[static_cast<std::size_t>(i)]++; });
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
            << "i=" << i << " n=" << n << " threads=" << threads;
      }
    }
  }
}

// Participant k of T starts at the front of its slice [k*n/T, (k+1)*n/T).
// Each participant's first body holds until all T have entered one, so no
// participant can reach another's slice before every one has claimed from
// its own: the first indices are exactly the slice starts.
TEST(Threads, ParallelForStartsEachParticipantOnItsOwnSlice) {
  constexpr int kN = 97;
  for (const int threads : {2, 3}) {
    std::mutex m;
    std::condition_variable cv;
    std::set<std::thread::id> entered;
    std::set<int> firsts;
    bool timed_out = false;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    tu::parallel_for(kN, threads, [&](int i) {
      std::unique_lock<std::mutex> lk(m);
      if (!entered.insert(std::this_thread::get_id()).second) return;
      firsts.insert(i);
      cv.notify_all();
      const auto all_in = [&] {
        return entered.size() == static_cast<std::size_t>(threads);
      };
      if (!cv.wait_until(lk, deadline, all_in)) timed_out = true;
    });
    ASSERT_FALSE(timed_out) << "threads=" << threads
                            << ": not every participant entered a body";
    std::set<int> starts;
    for (int k = 0; k < threads; ++k) starts.insert(k * kN / threads);
    EXPECT_EQ(firsts, starts) << "threads=" << threads;
  }
}

// The caller (participant 0) holds its first body until every other index
// has run, and the others start only once it is in: they must drain the
// rest of its slice, and every index still runs exactly once.
TEST(Threads, ParallelForDrainsASlowParticipantsSlice) {
  constexpr int kN = 97;
  const std::thread::id caller = std::this_thread::get_id();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  const auto wait_for = [&](const auto& ready) {
    while (!ready() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  std::vector<std::atomic<int>> runs(kN);
  std::atomic<int> done{0};
  std::atomic<int> caller_first{-1};
  std::atomic<int> caller_bodies{0};
  tu::parallel_for(kN, 3, [&](int i) {
    if (std::this_thread::get_id() != caller) {
      wait_for([&] { return caller_first.load() >= 0; });
    } else if (caller_bodies.fetch_add(1) == 0) {
      caller_first.store(i);
      wait_for([&] { return done.load() == kN - 1; });
    }
    runs[static_cast<std::size_t>(i)].fetch_add(1);
    done.fetch_add(1);
  });
  EXPECT_EQ(done.load(), kN);
  EXPECT_EQ(caller_first.load(), 0);
  EXPECT_EQ(caller_bodies.load(), 1);
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(runs[static_cast<std::size_t>(i)].load(), 1) << "i=" << i;
  }
}

TEST(Threads, ParallelForPropagatesException) {
  for (const int threads : {1, 8}) {
    EXPECT_THROW(
        tu::parallel_for(16, threads,
                         [](int i) {
                           if (i == 7) throw std::runtime_error("boom");
                         }),
        std::runtime_error)
        << "threads=" << threads;
  }
}

namespace {

/// A staircase DAG matching the engine's wavefront tile graphs: node
/// (ix, iy) on an ni x nj grid depends on (ix-1, iy) and (ix, iy-1).
tu::TaskDag staircase(int ni, int nj) {
  tu::TaskDag dag(ni * nj);
  for (int ix = 0; ix < ni; ++ix) {
    for (int iy = 0; iy < nj; ++iy) {
      const int node = ix * nj + iy;
      if (ix > 0) dag.add_edge((ix - 1) * nj + iy, node);
      if (iy > 0) dag.add_edge(ix * nj + (iy - 1), node);
    }
  }
  return dag;
}

}  // namespace

TEST(TaskDag, HonorsStaircaseEdgesAtEveryThreadCount) {
  const int ni = 5, nj = 4;
  const tu::TaskDag dag = staircase(ni, nj);
  for (const int threads : {1, 2, 8}) {
    std::vector<std::atomic<int>> done(static_cast<std::size_t>(ni * nj));
    std::atomic<bool> violated{false};
    dag.run(threads, [&](int node) {
      for (const int p : dag.preds(node)) {
        if (done[static_cast<std::size_t>(p)].load() == 0) {
          violated.store(true);
        }
      }
      done[static_cast<std::size_t>(node)].store(1);
    });
    EXPECT_FALSE(violated.load()) << "threads=" << threads;
    for (int i = 0; i < ni * nj; ++i) {
      EXPECT_EQ(done[static_cast<std::size_t>(i)].load(), 1) << "node " << i;
    }
  }
}

TEST(TaskDag, SerialRunIsAscendingNodeOrder) {
  const tu::TaskDag dag = staircase(3, 3);
  std::vector<int> order;
  dag.run(1, [&](int node) { order.push_back(node); });
  ASSERT_EQ(order.size(), 9u);
  for (int i = 0; i < 9; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(TaskDag, RejectsBackwardEdge) {
  tu::TaskDag dag(4);
  EXPECT_THROW(dag.add_edge(2, 1), tu::PreconditionError);
  EXPECT_THROW(dag.add_edge(1, 1), tu::PreconditionError);
  EXPECT_THROW(dag.add_edge(0, 4), tu::PreconditionError);
}

TEST(TaskDag, PropagatesExceptionFromTaskBody) {
  const tu::TaskDag dag = staircase(4, 4);
  for (const int threads : {1, 8}) {
    EXPECT_THROW(dag.run(threads,
                         [](int node) {
                           if (node == 5) throw std::runtime_error("boom");
                         }),
                 std::runtime_error)
        << "threads=" << threads;
  }
}

TEST(TaskDag, HonorsFourPredecessorsAtEveryThreadCount) {
  // Node 4 waits for all of 0..3 and node 5 for 4: more predecessors than
  // the staircase ever needs, which the executor must honour all the same.
  tu::TaskDag dag(6);
  for (int p = 0; p < 4; ++p) dag.add_edge(p, 4);
  dag.add_edge(4, 5);
  ASSERT_EQ(dag.preds(4).size(), 4u);
  for (const int threads : {1, 2, 8}) {
    std::vector<std::atomic<int>> done(6);
    std::atomic<bool> violated{false};
    dag.run(threads, [&](int node) {
      // Long enough that a missing edge would let node 4 overtake one.
      if (node < 4) std::this_thread::sleep_for(std::chrono::milliseconds(2));
      for (const int p : dag.preds(node)) {
        if (done[static_cast<std::size_t>(p)].load() == 0) violated = true;
      }
      done[static_cast<std::size_t>(node)].store(1);
    });
    EXPECT_FALSE(violated.load()) << "threads=" << threads;
    for (int i = 0; i < 6; ++i) {
      EXPECT_EQ(done[static_cast<std::size_t>(i)].load(), 1)
          << "node " << i << " threads=" << threads;
    }
  }
}

TEST(TaskDag, EdgelessGraphsRunEveryNodeOnceAndRethrow) {
  // A graph with no edge, built so or left so by remove_edge, takes
  // parallel_for's slice claims under the same contract.
  for (const int n : {1, 2, 3, 97}) {
    tu::TaskDag edgeless(n);
    tu::TaskDag pruned(n);
    if (n > 1) {
      pruned.add_edge(0, n - 1);
      pruned.remove_edge(0, n - 1);
      ASSERT_TRUE(pruned.preds(n - 1).empty());
    }
    for (const tu::TaskDag* dag : {&edgeless, &pruned}) {
      const char* name = dag == &edgeless ? "edgeless" : "pruned";
      for (const int threads : {1, 2, 3, 8}) {
        std::vector<std::atomic<int>> runs(static_cast<std::size_t>(n));
        dag->run(threads, [&](int node) {
          runs[static_cast<std::size_t>(node)].fetch_add(1);
        });
        for (int i = 0; i < n; ++i) {
          EXPECT_EQ(runs[static_cast<std::size_t>(i)].load(), 1)
              << name << " node " << i << " n=" << n
              << " threads=" << threads;
        }
        EXPECT_THROW(dag->run(threads,
                              [n](int node) {
                                if (node == n / 2) {
                                  throw std::runtime_error("boom");
                                }
                              }),
                     std::runtime_error)
            << name << " n=" << n << " threads=" << threads;
      }
    }
  }
}

// --- The worker pool ------------------------------------------------------

namespace {

/// The distinct threads that ran the bodies of one region.
class ThreadIds {
 public:
  void note() {
    const std::lock_guard<std::mutex> lk(m_);
    ids_.insert(std::this_thread::get_id());
  }
  [[nodiscard]] std::size_t count() const { return ids_.size(); }

 private:
  std::mutex m_;
  std::set<std::thread::id> ids_;
};

void nap() { std::this_thread::sleep_for(std::chrono::milliseconds(1)); }

}  // namespace

TEST(Pool, SurplusWorkersStayParked) {
  ThreadIds wide;
  tu::parallel_for(64, 8, [&](int) {
    wide.note();
    nap();
  });
  EXPECT_GT(wide.count(), 1u);

  ThreadIds loop;
  tu::parallel_for(64, 2, [&](int) {
    loop.note();
    nap();
  });
  EXPECT_LE(loop.count(), 2u);

  ThreadIds graph;
  tu::TaskDag(64).run(2, [&](int) {
    graph.note();
    nap();
  });
  EXPECT_LE(graph.count(), 2u);
}

TEST(Pool, NestedRegionsRunSeriallyOnTheCallingThread) {
  const auto nested = [](const char* where) {
    const std::thread::id self = std::this_thread::get_id();
    std::vector<int> order;
    std::atomic<bool> moved{false};
    tu::parallel_for(16, 8, [&](int i) {
      if (std::this_thread::get_id() != self) moved = true;
      order.push_back(i);  // unsynchronized: only safe when serial
    });
    EXPECT_FALSE(moved.load()) << where;
    ASSERT_EQ(order.size(), 16u) << where;
    for (int i = 0; i < 16; ++i) {
      EXPECT_EQ(order[static_cast<std::size_t>(i)], i) << where;
    }
  };
  tu::TaskDag(8).run(4, [&](int) { nested("in a TaskDag body"); });
  tu::parallel_for(8, 4, [&](int) { nested("in a parallel_for body"); });
}

TEST(Pool, RegionAfterAThrowingRegionCoversEveryIndex) {
  for (const int threads : {2, 8}) {
    EXPECT_THROW(tu::parallel_for(64, threads,
                                  [](int i) {
                                    if (i == 3) throw std::runtime_error("x");
                                  }),
                 std::runtime_error);
    EXPECT_THROW(staircase(4, 4).run(threads,
                                     [](int node) {
                                       if (node == 2) {
                                         throw std::runtime_error("x");
                                       }
                                     }),
                 std::runtime_error);
    std::vector<std::atomic<int>> hits(97);
    tu::parallel_for(97, threads,
                     [&](int i) { hits[static_cast<std::size_t>(i)]++; });
    for (int i = 0; i < 97; ++i) {
      EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
          << "i=" << i << " threads=" << threads;
    }
    std::vector<std::atomic<int>> nodes(16);
    staircase(4, 4).run(threads,
                        [&](int n) { nodes[static_cast<std::size_t>(n)]++; });
    for (int n = 0; n < 16; ++n) {
      EXPECT_EQ(nodes[static_cast<std::size_t>(n)].load(), 1)
          << "node " << n << " threads=" << threads;
    }
  }
}

TEST(Pool, ForkedChildRunsRegionsSerially) {
  // The pool is up in the parent, and its workers do not survive a fork: a
  // child that waited for them would hang until the alarm kills it.
  std::atomic<int> warm{0};
  tu::parallel_for(64, 2, [&](int) { warm++; });
  ASSERT_EQ(warm.load(), 64);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::alarm(10);
    const std::thread::id self = std::this_thread::get_id();
    std::array<int, 64> hits{};
    bool on_caller = true;
    tu::parallel_for(64, 2, [&](int i) {
      hits[static_cast<std::size_t>(i)]++;
      on_caller = on_caller && std::this_thread::get_id() == self;
    });
    tu::TaskDag(8).run(2, [&](int i) { hits[static_cast<std::size_t>(i)]++; });
    const bool every_index_ran =
        std::all_of(hits.begin(), hits.begin() + 8,
                    [](int h) { return h == 2; }) &&
        std::all_of(hits.begin() + 8, hits.end(),
                    [](int h) { return h == 1; });
    ::_exit(every_index_ran && on_caller ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_FALSE(WIFSIGNALED(status))
      << "the child died by signal " << WTERMSIG(status);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "the child's regions did not each run every index on its thread";
}

namespace {

/// fp_mode() without its status flags (MXCSR bits 0-5), which record what
/// earlier operations raised: the mode a body computes under.
unsigned fp_control() { return tu::fp_mode() & ~0x3Fu; }

/// The fp_control() each of 64 bodies of a 4-thread parallel_for and of a
/// 4-thread TaskDag::run read on entry, and how many threads ran them.
struct RegionModes {
  std::vector<unsigned> words;
  std::size_t threads = 0;
};

RegionModes modes_in_regions() {
  constexpr int kBodies = 64;
  RegionModes out;
  out.words.assign(2 * kBodies, 0);
  std::mutex m;
  std::set<std::thread::id> ids;
  const auto body = [&](int slot) {
    out.words[static_cast<std::size_t>(slot)] = fp_control();
    {
      const std::lock_guard<std::mutex> lk(m);
      ids.insert(std::this_thread::get_id());
    }
    // Long enough that every worker of the team takes some bodies.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  tu::parallel_for(kBodies, 4, body);
  tu::TaskDag(kBodies).run(4, [&](int node) { body(kBodies + node); });
  out.threads = ids.size();
  return out;
}

}  // namespace

// Workers compute under their caller's floating-point mode for the whole
// region and get their own back afterwards. The runtime's threads exist
// before the caller changes its mode, so only the region can carry it.
TEST(Threads, WorkersAdoptTheCallersFloatingPointMode) {
  if (tu::fp_mode() == 0) GTEST_SKIP() << "no floating-point control word";
  const unsigned deflt = fp_control();
  for (const unsigned w : modes_in_regions().words) EXPECT_EQ(w, deflt);
  {
    constexpr unsigned kRoundTowardZero = 0x6000u;  // MXCSR RC = 0b11
    const tu::FpModeScope rz(tu::fp_mode() | kRoundTowardZero);
    const unsigned caller = fp_control();
    ASSERT_NE(caller, deflt);
    const RegionModes inside = modes_in_regions();
    EXPECT_GT(inside.threads, 1u);
    for (std::size_t i = 0; i < inside.words.size(); ++i) {
      EXPECT_EQ(inside.words[i], caller) << "body " << i;
    }
  }
  EXPECT_EQ(fp_control(), deflt);
  const RegionModes after = modes_in_regions();
  for (std::size_t i = 0; i < after.words.size(); ++i) {
    EXPECT_EQ(after.words[i], deflt) << "body " << i;
  }
}

namespace {

/// The byte-at-a-time CRC-32 the library used before slicing-by-16: the
/// reference every accelerated value must reproduce.
std::uint32_t crc32_bytewise(const unsigned char* p, std::size_t n) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

/// TEMPEST_PROPERTY_SEED replays a reported failure; fixed default.
std::uint64_t crc_property_seed() {
  const char* env = std::getenv("TEMPEST_PROPERTY_SEED");
  if (env != nullptr && *env != '\0') return std::strtoull(env, nullptr, 0);
  return 20261017u;
}

}  // namespace

TEST(Crc32, CheckValue) {
  EXPECT_EQ(tu::crc32("123456789", 9), 0xCBF43926u);
}

TEST(Crc32, EmptyInputIsZero) {
  EXPECT_EQ(tu::crc32(nullptr, 0), 0u);
  tu::Crc32 c;
  c.update(nullptr, 0);
  EXPECT_EQ(c.value(), 0u);
}

namespace {

enum class CrcPath { Slicing, Fold };

/// The running state advanced over `n` bytes on one path alone: slicing-by-16
/// throughout, or the carry-less fold over the 16-byte multiple of a run of
/// at least kCrc32FoldMin bytes and slicing for the rest, as update() splits
/// a run when the CPU has PCLMULQDQ.
std::uint32_t crc_on(CrcPath path, std::uint32_t state, const unsigned char* p,
                     std::size_t n) {
  if (path == CrcPath::Fold && n >= tu::detail::kCrc32FoldMin) {
    const std::size_t body = n & ~std::size_t{15};
    state = tu::detail::crc32_fold(state, p, body);
    p += body;
    n -= body;
  }
  return tu::detail::crc32_slice16(state, p, n);
}

std::uint32_t crc_on(CrcPath path, const unsigned char* p, std::size_t n) {
  return crc_on(path, 0xFFFFFFFFu, p, n) ^ 0xFFFFFFFFu;
}

/// One path against the bytewise reference on the check value, every length
/// 0..300 at every start offset 0..15, a 300-byte stream updated in two
/// pieces cut at every point, and a buffer the size of a survey checkpoint.
void expect_path_matches_reference(CrcPath path) {
  EXPECT_EQ(crc_on(path, reinterpret_cast<const unsigned char*>("123456789"),
                   9),
            0xCBF43926u);

  tu::SplitMix64 rng(crc_property_seed());
  std::vector<unsigned char> buf(300 + 16);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng.next());
  for (std::size_t len = 0; len <= 300; ++len) {
    for (std::size_t off = 0; off < 16; ++off) {
      ASSERT_EQ(crc_on(path, buf.data() + off, len),
                crc32_bytewise(buf.data() + off, len))
          << "len=" << len << " off=" << off;
    }
  }
  const std::uint32_t whole = crc32_bytewise(buf.data(), 300);
  for (std::size_t cut = 0; cut <= 300; ++cut) {
    const std::uint32_t head = crc_on(path, 0xFFFFFFFFu, buf.data(), cut);
    ASSERT_EQ(crc_on(path, head, buf.data() + cut, 300 - cut) ^ 0xFFFFFFFFu,
              whole)
        << "cut at " << cut;
  }

  // 12.9 MiB, the size of one survey-ckpt checkpoint, and not a multiple of
  // 16, so the fold hands a tail to slicing.
  std::vector<unsigned char> big(13526631);
  for (unsigned char& b : big) b = static_cast<unsigned char>(rng.next());
  EXPECT_EQ(crc_on(path, big.data(), big.size()),
            crc32_bytewise(big.data(), big.size()));
}

}  // namespace

TEST(Crc32, SlicingPathMatchesBytewiseReference) {
  expect_path_matches_reference(CrcPath::Slicing);
}

TEST(Crc32, FoldPathMatchesBytewiseReference) {
  if (!tu::detail::crc32_fold_available()) {
    GTEST_SKIP() << "this CPU lacks PCLMULQDQ, so the carry-less fold never "
                    "runs here; slicing-by-16 serves every input";
  }
  expect_path_matches_reference(CrcPath::Fold);
}

// Every length 0..4096 at a random start offset 0..15 (all sixteen offsets
// up to 64 bytes, where the 16-byte body and the tail meet), fed through
// up to three random update() splits, must equal the bytewise reference.
TEST(Crc32, MatchesBytewiseReferenceAcrossLengthsOffsetsAndSplits) {
  const std::uint64_t seed = crc_property_seed();
  SCOPED_TRACE(::testing::Message() << "seed=" << seed
                                    << " (replay: TEMPEST_PROPERTY_SEED="
                                    << seed << ")");
  tu::SplitMix64 rng(seed);
  constexpr std::size_t kMaxLen = 4096;
  std::vector<unsigned char> buf(kMaxLen + 16);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng.next());

  const auto check = [&](std::size_t len, std::size_t offset) {
    const unsigned char* p = buf.data() + offset;
    const std::uint32_t want = crc32_bytewise(p, len);
    ASSERT_EQ(tu::crc32(p, len), want) << "len=" << len << " off=" << offset;
    std::vector<std::size_t> cuts{0, len};
    const auto n_cuts = rng.below(4);
    for (std::uint64_t i = 0; i < n_cuts; ++i) {
      cuts.push_back(static_cast<std::size_t>(rng.below(len + 1)));
    }
    std::sort(cuts.begin(), cuts.end());
    tu::Crc32 c;
    for (std::size_t i = 1; i < cuts.size(); ++i) {
      c.update(p + cuts[i - 1], cuts[i] - cuts[i - 1]);
    }
    ASSERT_EQ(c.value(), want) << "len=" << len << " off=" << offset
                               << " split into " << cuts.size() - 1;
  };
  for (std::size_t len = 0; len <= kMaxLen && !HasFatalFailure(); ++len) {
    if (len <= 64) {
      for (std::size_t off = 0; off < 16; ++off) check(len, off);
    } else {
      check(len, static_cast<std::size_t>(rng.below(16)));
    }
  }
}
