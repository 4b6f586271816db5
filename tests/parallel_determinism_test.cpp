// Thread-count invariance of the task-parallel schedule executor: every
// physics kernel (plus the JIT-compiled acoustic block, so the TSan lane
// drives generated code through the pool backend too) x {space-blocked,
// wavefront, diamond} must produce
// *byte-identical* wavefields and receiver gathers — and exactly equal work
// counters — at 1, 2, and 8 worker threads. This is the determinism half of
// the task-parallel engine's contract (the race-freedom half is the TSan
// lane over these same tests, `scripts/check.sh --tsan`):
//   * stencil tiles have disjoint write footprints and the TileGraph's
//     staircase edges serialize every cross-tile dependence, so field
//     updates are the same arithmetic in a compatible order;
//   * receiver gathers are staged per (timestep, compressed point) and
//     reduced in ascending point order at each band barrier, replacing the
//     order-nondeterministic atomic accumulation;
//   * source injection scatters layer-by-layer through the ColorSets
//     partition, reproducing the serial per-grid-point accumulation order;
//   * every worker computes under the run's floating-point mode (the
//     caller's word with subnormals flushed; the FlushedRun cases).
// Float addition does not commute bitwise, so EXPECT_EQ (not NEAR) on every
// artifact is the whole point: a schedule that merely "converges" at 8
// threads fails this suite.
//
// 8 threads on any host (CI runners here have 1-2 cores) oversubscribes the
// team; the determinism guarantee must not depend on real parallelism.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "tempest/codegen/jit.hpp"
#include "tempest/obs/metrics.hpp"
#include "tempest/physics/acoustic.hpp"
#include "tempest/physics/elastic.hpp"
#include "tempest/physics/tti.hpp"
#include "tempest/physics/vti.hpp"
#include "tempest/resilience/fault.hpp"
#include "tempest/resilience/health.hpp"
#include "tempest/sparse/survey.hpp"
#include "tempest/sparse/wavelet.hpp"
#include "tempest/trace/trace.hpp"
#include "tempest/util/threads.hpp"

namespace cg = tempest::codegen;
namespace ph = tempest::physics;
namespace sp = tempest::sparse;
namespace tg = tempest::grid;
namespace tc = tempest::core;
namespace tr = tempest::trace;
namespace tu = tempest::util;
namespace obs = tempest::obs;
namespace rs = tempest::resilience;
using tempest::real_t;

namespace {

struct Case {
  const char* kernel;  // "acoustic" | "jit" | "tti" | "vti" | "elastic"
  ph::Schedule schedule;
};

const char* schedule_name(ph::Schedule s) {
  switch (s) {
    case ph::Schedule::Reference: return "reference";
    case ph::Schedule::SpaceBlocked: return "spaceblocked";
    case ph::Schedule::Wavefront: return "wavefront";
    case ph::Schedule::Diamond: return "diamond";
  }
  return "?";
}

std::ostream& operator<<(std::ostream& os, const Case& c) {
  return os << c.kernel << '/' << schedule_name(c.schedule);
}

struct Artifacts {
  std::vector<tg::Grid3<real_t>> fields;
  sp::SparseTimeSeries rec;
  tr::CounterSnapshot counters{};
  obs::MetricSnapshot latency{};
};

Artifacts run_cell(const Case& c, int threads) {
  Artifacts out;
  tr::set_enabled(true);
  tr::reset();
  obs::reset_metrics();
  obs::set_enabled(true);
  ph::PropagatorOptions opts;
  opts.tiles = tc::TileSpec{4, 8, 8, 4, 4};
  opts.threads = threads;

  if (std::string(c.kernel) == "acoustic" || std::string(c.kernel) == "jit") {
    const tg::Extents3 e{20, 18, 16};
    const int nt = 12;
    ph::Geometry g{e, 10.0, /*space_order=*/4, /*nbl=*/4};
    const ph::AcousticModel model = ph::make_acoustic_layered(g, 1.5, 3.0, 3);
    sp::SparseTimeSeries src(sp::single_center_source(e, 0.4), nt);
    src.broadcast_signature(sp::ricker(nt, model.critical_dt(), 0.015));
    out.rec = sp::SparseTimeSeries(sp::receiver_line(e, 5, 0.15, 3), nt);
    if (std::string(c.kernel) == "jit") {
      cg::JitAcoustic prop(model, cg::KernelSpec{}, opts);
      EXPECT_TRUE(prop.compiled()) << prop.compile_error();
      prop.run(c.schedule, src, &out.rec);
      out.fields.push_back(prop.wavefield(nt));
    } else {
      ph::AcousticPropagator prop(model, opts);
      prop.run(c.schedule, src, &out.rec);
      out.fields.push_back(prop.wavefield(nt));
    }
  } else if (std::string(c.kernel) == "tti") {
    const tg::Extents3 e{16, 14, 12};
    const int nt = 12;
    ph::Geometry g{e, 20.0, 4, /*nbl=*/4};
    const ph::TTIModel model = ph::make_tti_layered(g, 1.5, 3.0, 3);
    sp::SparseTimeSeries src(sp::single_center_source(e, 0.4), nt);
    src.broadcast_signature(sp::ricker(nt, model.critical_dt(), 0.015));
    out.rec = sp::SparseTimeSeries(sp::receiver_line(e, 4, 0.15, 3), nt);
    ph::TTIPropagator prop(model, opts);
    prop.run(c.schedule, src, &out.rec);
    out.fields.push_back(prop.wavefield_p(nt));
    out.fields.push_back(prop.wavefield_q(nt));
  } else if (std::string(c.kernel) == "vti") {
    const tg::Extents3 e{16, 14, 12};
    const int nt = 12;
    ph::Geometry g{e, 20.0, 4, /*nbl=*/4};
    ph::TTIModel model = ph::make_tti_layered(g, 1.5, 3.0, 3);
    model.theta.fill(0.0f);
    model.phi.fill(0.0f);
    sp::SparseTimeSeries src(sp::single_center_source(e, 0.4), nt);
    src.broadcast_signature(sp::ricker(nt, model.critical_dt(), 0.015));
    out.rec = sp::SparseTimeSeries(sp::receiver_line(e, 4, 0.15, 3), nt);
    ph::VTIPropagator prop(model, opts);
    prop.run(c.schedule, src, &out.rec);
    out.fields.push_back(prop.wavefield_p(nt));
    out.fields.push_back(prop.wavefield_q(nt));
  } else {
    const tg::Extents3 e{16, 14, 12};
    const int nt = 12;
    ph::Geometry g{e, 10.0, 4, /*nbl=*/4};
    const ph::ElasticModel model = ph::make_elastic_layered(g, 1.5, 3.0, 3);
    sp::SparseTimeSeries src(sp::single_center_source(e, 0.4), nt);
    src.broadcast_signature(sp::ricker(nt, model.critical_dt(), 0.015));
    out.rec = sp::SparseTimeSeries(sp::receiver_line(e, 4, 0.15, 3), nt);
    ph::ElasticPropagator prop(model, opts);
    prop.run(c.schedule, src, &out.rec);
    out.fields.push_back(prop.vz());
    out.fields.push_back(prop.tzz());
    out.fields.push_back(prop.txy());
  }

  out.counters = tr::snapshot();
  out.latency = obs::snapshot_metrics();
  obs::set_enabled(false);
  tr::set_enabled(false);
  return out;
}

}  // namespace

class ParallelDeterminism : public ::testing::TestWithParam<Case> {};

TEST_P(ParallelDeterminism, BitIdenticalAtAnyThreadCount) {
  const Case& c = GetParam();
  const Artifacts serial = run_cell(c, /*threads=*/1);

  for (const int threads : {2, 8}) {
    const Artifacts got = run_cell(c, threads);

    ASSERT_EQ(serial.fields.size(), got.fields.size());
    for (std::size_t i = 0; i < serial.fields.size(); ++i) {
      EXPECT_EQ(tg::max_abs_diff(serial.fields[i], got.fields[i]), 0.0)
          << GetParam() << " field " << i << " at " << threads << " threads";
    }

    // Receiver gathers must also be *bitwise* equal — the staged
    // band-barrier reduction runs in serial point order regardless of
    // which thread sampled each column.
    ASSERT_EQ(serial.rec.nt(), got.rec.nt());
    ASSERT_EQ(serial.rec.npoints(), got.rec.npoints());
    for (int t = 0; t < serial.rec.nt(); ++t) {
      for (int r = 0; r < serial.rec.npoints(); ++r) {
        EXPECT_EQ(serial.rec.at(t, r), got.rec.at(t, r))
            << GetParam() << " t=" << t << " r=" << r << " at " << threads
            << " threads";
      }
    }

    // Work accounting is exact, not statistical: the same tiles, blocks,
    // bands, injections and interpolations happen at every thread count.
    for (int i = 0; i < tr::kNumCounters; ++i) {
      EXPECT_EQ(serial.counters[static_cast<std::size_t>(i)],
                got.counters[static_cast<std::size_t>(i)])
          << GetParam() << " counter "
          << tr::to_string(static_cast<tr::Counter>(i)) << " at " << threads
          << " threads";
    }

    // The obs latency histograms shard per thread and merge on snapshot;
    // the *sample counts* (one per tile / substep / band) are as exact as
    // the work counters at every thread count. Only the duration values
    // themselves are wall-clock and excluded by contract.
    for (int m = 0; m < obs::kNumMetrics; ++m) {
      EXPECT_EQ(serial.latency[static_cast<std::size_t>(m)].count(),
                got.latency[static_cast<std::size_t>(m)].count())
          << GetParam() << " metric "
          << obs::to_string(static_cast<obs::Metric>(m)) << " at " << threads
          << " threads";
    }
  }

#if !defined(TEMPEST_TRACE_DISABLED)
  // The counter oracle must have teeth.
  EXPECT_GT(serial.counters[static_cast<std::size_t>(
                static_cast<int>(tr::Counter::CellsUpdated))],
            0)
      << GetParam();
  // And so must the histogram oracle: every schedule executes tiles.
  EXPECT_GT(
      serial.latency[static_cast<std::size_t>(obs::Metric::TileSeconds)]
          .count(),
      0u)
      << GetParam();
#endif
}

#if !defined(TEMPEST_TRACE_DISABLED)
// Full-bucket invariance through the real shard registry: when the recorded
// *values* are deterministic (not wall-clock), the merged histogram must be
// equal bucket-for-bucket no matter how the samples were partitioned across
// worker threads — merge is element-wise addition, so aggregation order
// cannot show through.
TEST(ObsHistogramDeterminism, ShardedRecordingIsThreadCountInvariant) {
  constexpr int kTasks = 64;
  const auto run = [](int threads) {
    obs::reset_metrics();
    obs::set_enabled(true);
    tu::TaskDag dag(kTasks);
    for (int i = 1; i < kTasks; ++i) dag.add_edge(i - 1, i);
    dag.run(threads, [](int node) {
      // Deterministic per-node durations spanning several octaves.
      obs::record_ns(obs::Metric::TileSeconds,
                     static_cast<std::int64_t>(node + 1) * 1000);
      obs::record_ns(obs::Metric::BandSeconds,
                     std::int64_t{1} << (node % 30));
    });
    const obs::MetricSnapshot snap = obs::snapshot_metrics();
    obs::set_enabled(false);
    obs::reset_metrics();
    return snap;
  };

  const obs::MetricSnapshot serial = run(1);
  ASSERT_EQ(
      serial[static_cast<std::size_t>(obs::Metric::TileSeconds)].count(),
      static_cast<std::uint64_t>(kTasks));
  for (const int threads : {2, 8}) {
    const obs::MetricSnapshot got = run(threads);
    for (int m = 0; m < obs::kNumMetrics; ++m) {
      EXPECT_EQ(serial[static_cast<std::size_t>(m)],
                got[static_cast<std::size_t>(m)])
          << obs::to_string(static_cast<obs::Metric>(m)) << " at " << threads
          << " threads";
    }
  }
}
#endif  // !defined(TEMPEST_TRACE_DISABLED)

namespace {

std::vector<Case> cases() {
  std::vector<Case> out;
  for (const char* kernel : {"acoustic", "jit", "tti", "vti", "elastic"}) {
    for (const ph::Schedule s : {ph::Schedule::SpaceBlocked,
                                 ph::Schedule::Wavefront,
                                 ph::Schedule::Diamond}) {
      out.push_back({kernel, s});
    }
  }
  return out;
}

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  return std::string(info.param.kernel) + "_" +
         schedule_name(info.param.schedule);
}

}  // namespace

INSTANTIATE_TEST_SUITE_P(AllKernels, ParallelDeterminism,
                         ::testing::ValuesIn(cases()), case_name);

namespace {

/// One shot shaped like a survey shot (jobs/survey.cpp): SO 8, 10-point
/// sponge, six-layer 1.5–4.0 km/s model, one off-the-grid Ricker source at
/// a quarter of the line, a 16x8 receiver carpet and a health scan every 8
/// steps; smaller, and on tiles that give the blocked schedules several
/// tasks per band. Long enough that, with gradual underflow, the
/// stencil's tail ahead of the wavefront leaves subnormal cells in the
/// live slices.
struct SurveyShot {
  static constexpr int kN = 40;
  static constexpr int kNt = 48;

  ph::AcousticModel model = ph::make_acoustic_layered(
      ph::Geometry{{kN, kN, kN}, 10.0, /*space_order=*/8, /*nbl=*/10}, 1.5,
      4.0, 6);
  sp::SparseTimeSeries src{
      {{0.25 * (kN - 1) + 0.37, 0.5 * (kN - 1) + 0.61, 0.1 * (kN - 1) + 0.43}},
      kNt};
  sp::SparseTimeSeries rec{sp::receiver_carpet(model.geom.extents, 16, 8),
                           kNt};

  SurveyShot() {
    src.broadcast_signature(sp::ricker(kNt, model.critical_dt(), 0.008));
  }

  [[nodiscard]] ph::PropagatorOptions options(int threads) const {
    ph::PropagatorOptions opts;
    opts.tiles = tc::TileSpec{4, 16, 16, 8, 8};
    opts.threads = threads;
    opts.health.check_every = 8;
    return opts;
  }
};

std::size_t count_subnormal(const std::vector<real_t>& v) {
  std::size_t count = 0;
  for (const real_t x : v) count += std::fpclassify(x) == FP_SUBNORMAL ? 1 : 0;
  return count;
}

std::vector<real_t> cells(const tg::Grid3<real_t>& g) {
  return {g.raw(), g.raw() + g.padded_size()};
}

bool same_bits(const std::vector<real_t>& a, const std::vector<real_t>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(real_t)) == 0;
}

std::vector<real_t> samples(const sp::SparseTimeSeries& s) {
  std::vector<real_t> out;
  for (int t = 0; t < s.nt(); ++t) {
    out.insert(out.end(), s.step(t).begin(), s.step(t).end());
  }
  return out;
}

}  // namespace

// Every run computes with subnormals flushed (FTZ|DAZ on every thread,
// DESIGN §6.1): no live cell and no gather sample is subnormal under any
// schedule or thread count, the runs stay bitwise equal, and the caller's
// floating-point mode is the same after run() as before it.
TEST(FlushedRun, NoSubnormalsAnyScheduleAndCallerModeKept) {
  const SurveyShot shot;
  std::vector<real_t> first_u;
  for (const ph::Schedule sched :
       {ph::Schedule::Reference, ph::Schedule::SpaceBlocked,
        ph::Schedule::Wavefront, ph::Schedule::Diamond}) {
    std::vector<real_t> first_rec;
    for (const int threads : {1, 2}) {
      ph::AcousticPropagator prop(shot.model, shot.options(threads));
      sp::SparseTimeSeries rec = shot.rec;
      const unsigned mode = tu::fp_mode();
      prop.run(sched, shot.src, &rec);
      EXPECT_EQ(tu::fp_mode(), mode) << schedule_name(sched);

      const std::string where = std::string(schedule_name(sched)) + " at " +
                                std::to_string(threads) + " threads";
      const rs::CheckpointView live = prop.state_view(SurveyShot::kNt, 0);
      for (const tg::Grid3<real_t>* slice : live.slots) {
        EXPECT_EQ(count_subnormal(cells(*slice)), 0u)
            << "live slice, " << where;
      }
      const std::vector<real_t> gather = samples(rec);
      EXPECT_EQ(count_subnormal(gather), 0u) << "gather, " << where;

      // One source: the wavefield is bit-exact across schedules; gathers
      // order their reduction per schedule, so they match across threads.
      const std::vector<real_t> u = cells(prop.wavefield(SurveyShot::kNt));
      if (first_u.empty()) first_u = u;
      EXPECT_TRUE(same_bits(u, first_u)) << "wavefield, " << where;
      if (first_rec.empty()) first_rec = gather;
      EXPECT_TRUE(same_bits(gather, first_rec)) << "gather, " << where;
    }
  }
}

TEST(FlushedRun, CallerModeKeptWhenTheRunThrows) {
  const SurveyShot shot;
  for (const ph::Schedule sched :
       {ph::Schedule::SpaceBlocked, ph::Schedule::Wavefront}) {
    // Step 17 ends a wave-front band (tile_t 4 from t = 1), where the
    // blocked schedule scans; the barrier schedule scans at step 24.
    rs::fault::plan().poison_wavefield_at_step = 17;
    ph::AcousticPropagator prop(shot.model, shot.options(2));
    const unsigned mode = tu::fp_mode();
    EXPECT_THROW(prop.run(sched, shot.src), rs::NumericalHealthError)
        << schedule_name(sched);
    rs::fault::reset();
    EXPECT_EQ(tu::fp_mode(), mode) << schedule_name(sched);
  }
}

// A wave-front run killed at a band end and resumed at another thread count
// continues the uninterrupted serial run bit for bit: at a band end every
// earlier timestep is complete and its receiver rows are reduced, whichever
// worker computed each tile.
TEST(ResumeAcrossThreads, WavefrontKilledAtBandEndResumesAt2Threads) {
  const SurveyShot shot;
  ph::AcousticPropagator ref(shot.model, shot.options(1));
  sp::SparseTimeSeries rec_ref = shot.rec;
  ref.run(ph::Schedule::Wavefront, shot.src, &rec_ref);

  struct Killed {};
  std::optional<rs::Checkpoint> saved;
  {
    // Killed at the band end at or past step 24 (4-step bands from step 1
    // end at 5, 9, ..., 25), on an oversubscribed 8-thread pool.
    ph::AcousticPropagator first(shot.model, shot.options(8));
    sp::SparseTimeSeries rec = shot.rec;
    EXPECT_THROW(first.run(ph::Schedule::Wavefront, shot.src, &rec,
                           [&](int t_done) {
                             if (t_done < 24) return;
                             saved.emplace(first.capture(t_done, 0, &rec));
                             throw Killed{};
                           }),
                 Killed);
  }
  ASSERT_TRUE(saved.has_value());
  EXPECT_EQ(saved->step, 25);

  ph::AcousticPropagator resumed(shot.model, shot.options(2));
  resumed.restore(*saved);
  sp::SparseTimeSeries rec = saved->rec;
  resumed.run_from(saved->step, ph::Schedule::Wavefront, shot.src, &rec);

  EXPECT_TRUE(same_bits(samples(rec), samples(rec_ref)));
  const auto want = ref.state_view(SurveyShot::kNt, 0).slots;
  const auto got = resumed.state_view(SurveyShot::kNt, 0).slots;
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(same_bits(cells(*want[i]), cells(*got[i]))) << "slice " << i;
  }
}

// The executor must honour $TEMPEST_THREADS when no explicit count is
// given, and an explicit request must win over the environment.
TEST(ThreadResolution, EnvAndExplicitPrecedence) {
  ASSERT_EQ(::setenv("TEMPEST_THREADS", "3", 1), 0);
  EXPECT_EQ(tu::env_threads(), 3);
  EXPECT_EQ(tu::resolve_threads(0), 3);
  EXPECT_EQ(tu::resolve_threads(5), 5);  // explicit beats env
  ASSERT_EQ(::setenv("TEMPEST_THREADS", "not-a-number", 1), 0);
  EXPECT_EQ(tu::env_threads(), 0);  // malformed: ignored
  ASSERT_EQ(::unsetenv("TEMPEST_THREADS"), 0);
  EXPECT_EQ(tu::env_threads(), 0);
  EXPECT_GE(tu::resolve_threads(0), 1);
}
