#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "tempest/util/align.hpp"
#include "tempest/util/cli.hpp"
#include "tempest/util/crc32.hpp"
#include "tempest/util/error.hpp"
#include "tempest/util/rng.hpp"
#include "tempest/util/stats.hpp"
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

TEST(Stats, SummaryOfKnownSeries) {
  const double xs[] = {4.0, 1.0, 3.0, 2.0};
  const tu::Summary s = tu::summarize(xs);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  EXPECT_NEAR(s.stddev, 1.2909944487358056, 1e-12);
  EXPECT_EQ(s.count, 4u);
}

TEST(Stats, OddMedianAndEmpty) {
  const double xs[] = {5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(tu::summarize(xs).median, 3.0);
  const tu::Summary empty = tu::summarize({});
  EXPECT_EQ(empty.count, 0u);
  EXPECT_DOUBLE_EQ(empty.mean, 0.0);
}

TEST(Stats, RelErr) {
  EXPECT_DOUBLE_EQ(tu::rel_err(1.0, 1.0), 0.0);
  EXPECT_NEAR(tu::rel_err(1.0, 1.1), 0.1 / 1.1, 1e-12);
  EXPECT_DOUBLE_EQ(tu::rel_err(0.0, 0.0), 0.0);
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

// --- Thread policy + task-graph substrate --------------------------------

TEST(Threads, SelectBackendMatchesRuntime) {
  EXPECT_EQ(tu::select_backend(1), tu::TaskBackend::Serial);
  EXPECT_EQ(tu::select_backend(0), tu::TaskBackend::Serial);
  const tu::TaskBackend multi = tu::select_backend(4);
  if (tu::openmp_runtime()) {
    EXPECT_EQ(multi, tu::TaskBackend::OpenMP);
  } else {
    EXPECT_EQ(multi, tu::TaskBackend::Pool);
  }
  EXPECT_STRNE(tu::to_string(multi), tu::to_string(tu::TaskBackend::Serial));
}

TEST(Threads, ParallelForCoversEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 8}) {
    std::vector<std::atomic<int>> hits(97);
    tu::parallel_for(97, threads,
                     [&](int i) { hits[static_cast<std::size_t>(i)]++; });
    for (int i = 0; i < 97; ++i) {
      EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
          << "i=" << i << " threads=" << threads;
    }
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
/// (ix, iy) on an ni x nj grid depends on (ix-1, iy) and (ix, iy-1) —
/// the worst-case two-predecessor shape the OpenMP backend supports.
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
  EXPECT_EQ(dag.max_preds(), 2);
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
