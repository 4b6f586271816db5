#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "tempest/autotune/autotune.hpp"
#include "tempest/codegen/jit.hpp"
#include "tempest/core/tile_plan.hpp"
#include "tempest/dsl/kernel.hpp"
#include "tempest/io/io.hpp"
#include "tempest/obs/metrics.hpp"
#include "tempest/obs/recorder.hpp"
#include "tempest/physics/acoustic.hpp"
#include "tempest/physics/vti.hpp"
#include "tempest/resilience/checkpoint.hpp"
#include "tempest/resilience/fault.hpp"
#include "tempest/resilience/health.hpp"
#include "tempest/sparse/survey.hpp"
#include "tempest/sparse/wavelet.hpp"
#include "tempest/trace/trace.hpp"
#include "tempest/util/crc32.hpp"
#include "tempest/util/rng.hpp"
#include "tempest/util/threads.hpp"

namespace at = tempest::autotune;
namespace cg = tempest::codegen;
namespace dsl = tempest::dsl;
namespace io = tempest::io;
namespace ob = tempest::obs;
namespace ph = tempest::physics;
namespace rs = tempest::resilience;
namespace sp = tempest::sparse;
namespace tc = tempest::core;
namespace tg = tempest::grid;
namespace tr = tempest::trace;
using tempest::real_t;

namespace {

/// Every test in this binary may arm the process-global fault plan; the
/// fixture guarantees no fault leaks into the next test.
class FaultInjection : public ::testing::Test {
 protected:
  void SetUp() override { rs::fault::reset(); }
  void TearDown() override { rs::fault::reset(); }
};

class TempFile {
 public:
  // ctest runs each TEST as its own process, so the counter alone is not
  // unique — qualify with the pid.
  explicit TempFile(const char* suffix)
      : path_(std::string("/tmp/tempest_fault_test_") +
              std::to_string(::getpid()) + "_" + std::to_string(counter_++) +
              suffix) {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
    std::remove((path_ + ".1").c_str());
  }
  ~TempFile() {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
    std::remove((path_ + ".1").c_str());
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  static int counter_;
  std::string path_;
};
int TempFile::counter_ = 0;

struct Setup {
  ph::AcousticModel model;
  sp::SparseTimeSeries src;
  sp::SparseTimeSeries rec;
  int nt;
};

Setup make_setup(tg::Extents3 e, int nt, int n_rec) {
  ph::Geometry g{e, 10.0, 4, /*nbl=*/4};
  Setup s{ph::make_acoustic_layered(g, 1.5, 3.0, 3),
          sp::SparseTimeSeries(sp::single_center_source(e, 0.4), nt),
          sp::SparseTimeSeries(
              n_rec > 0 ? sp::receiver_line(e, n_rec, 0.15, 3)
                        : sp::CoordList{},
              nt),
          nt};
  s.src.broadcast_signature(sp::ricker(nt, s.model.critical_dt(), 0.02));
  return s;
}

/// Thrown from a step callback to model the process dying mid-run.
struct KillSignal {};

/// A small synthetic checkpoint (no propagator involved).
rs::Checkpoint make_checkpoint(int step, std::uint64_t fp, real_t seed) {
  rs::Checkpoint ck;
  ck.fingerprint = fp;
  ck.step = step;
  for (int s = 0; s < 3; ++s) {
    tg::Grid3<real_t> g({6, 5, 4}, 2, real_t{0});
    g(1, 2, 3) = seed + static_cast<real_t>(s);
    ck.slots.push_back(std::move(g));
  }
  return ck;
}

}  // namespace

// --- Acceptance: mid-run kill + restart reproduces the gather bitwise. ---

TEST_F(FaultInjection, KilledRunResumesFromCheckpointBitwise) {
  const tg::Extents3 e{18, 16, 14};
  auto s = make_setup(e, 24, 4);

  ph::AcousticPropagator ref(s.model);
  auto rec_ref = s.rec;
  ref.run(ph::Schedule::SpaceBlocked, s.src, &rec_ref);
  const auto u_ref = ref.wavefield(s.nt);

  rs::Fingerprint fp;
  fp.add(e.nx).add(e.ny).add(e.nz).add(s.model.geom.space_order).add(s.nt);

  TempFile file(".tpck");
  rs::Checkpointer ckpt(file.path());
  const int kill_at = 13;
  {
    ph::AcousticPropagator first(s.model);
    auto rec = s.rec;
    EXPECT_THROW(
        first.run(ph::Schedule::SpaceBlocked, s.src, &rec,
                  [&](int t_done) {
                    if (t_done == kill_at) {
                      ckpt.save(first.capture(t_done, fp.value(), &rec));
                      throw KillSignal{};  // the process "dies" here
                    }
                  }),
        KillSignal);
  }

  // A fresh propagator models the restarted process.
  ph::AcousticPropagator resumed(s.model);
  const auto ck = ckpt.try_load(fp.value());
  ASSERT_TRUE(ck.has_value());
  EXPECT_EQ(ck->step, kill_at);
  ASSERT_TRUE(ck->has_rec);
  resumed.restore(*ck);
  auto rec_resumed = ck->rec;
  resumed.run_from(ck->step, ph::Schedule::SpaceBlocked, s.src, &rec_resumed);

  EXPECT_EQ(tg::max_abs_diff(u_ref, resumed.wavefield(s.nt)), 0.0);
  for (int t = 0; t < s.nt; ++t) {
    for (int r = 0; r < rec_ref.npoints(); ++r) {
      ASSERT_EQ(rec_ref.at(t, r), rec_resumed.at(t, r))
          << "t=" << t << " r=" << r;
    }
  }
}

// Same contract for the coupled two-field VTI system: the checkpoint carries
// the p slices then the q slices, and a resumed run is bitwise identical.
TEST_F(FaultInjection, KilledVTIRunResumesFromCheckpointBitwise) {
  const tg::Extents3 e{16, 14, 12};
  const int nt = 20;
  ph::Geometry g{e, 20.0, 4, /*nbl=*/4};
  ph::TTIModel model = ph::make_tti_layered(g, 1.5, 3.0, 3);
  model.theta.fill(0.0f);  // untilted: a genuine VTI medium
  model.phi.fill(0.0f);
  sp::SparseTimeSeries src(sp::single_center_source(e, 0.4), nt);
  src.broadcast_signature(sp::ricker(nt, model.critical_dt(), 0.02));
  const sp::SparseTimeSeries rec_proto(sp::receiver_line(e, 4, 0.15, 3), nt);

  ph::VTIPropagator ref(model);
  auto rec_ref = rec_proto;
  ref.run(ph::Schedule::SpaceBlocked, src, &rec_ref);
  const auto p_ref = ref.wavefield_p(nt);
  const auto q_ref = ref.wavefield_q(nt);

  rs::Fingerprint fp;
  fp.add(e.nx).add(e.ny).add(e.nz).add(model.geom.space_order).add(nt);

  TempFile file(".tpck");
  rs::Checkpointer ckpt(file.path());
  const int kill_at = 11;
  {
    ph::VTIPropagator first(model);
    auto rec = rec_proto;
    EXPECT_THROW(
        first.run(ph::Schedule::SpaceBlocked, src, &rec,
                  [&](int t_done) {
                    if (t_done == kill_at) {
                      ckpt.save(first.capture(t_done, fp.value(), &rec));
                      throw KillSignal{};  // the process "dies" here
                    }
                  }),
        KillSignal);
  }

  ph::VTIPropagator resumed(model);
  const auto ck = ckpt.try_load(fp.value());
  ASSERT_TRUE(ck.has_value());
  EXPECT_EQ(ck->step, kill_at);
  EXPECT_EQ(ck->slots.size(), 4u);  // two p slices + two q slices
  ASSERT_TRUE(ck->has_rec);
  resumed.restore(*ck);
  auto rec_resumed = ck->rec;
  resumed.run_from(ck->step, ph::Schedule::SpaceBlocked, src, &rec_resumed);

  EXPECT_EQ(tg::max_abs_diff(p_ref, resumed.wavefield_p(nt)), 0.0);
  EXPECT_EQ(tg::max_abs_diff(q_ref, resumed.wavefield_q(nt)), 0.0);
  for (int t = 0; t < nt; ++t) {
    for (int r = 0; r < rec_ref.npoints(); ++r) {
      ASSERT_EQ(rec_ref.at(t, r), rec_resumed.at(t, r))
          << "t=" << t << " r=" << r;
    }
  }
}

// --- Acceptance: an injected NaN is caught within check_every steps and
// the error names the field and the timestep. ---

TEST_F(FaultInjection, InjectedNaNDetectedWithinCadence) {
  auto s = make_setup({16, 14, 12}, 20, 0);
  ph::PropagatorOptions opts;
  opts.health.check_every = 3;
  const int poison_at = 10;
  rs::fault::plan().poison_wavefield_at_step = poison_at;

  ph::AcousticPropagator prop(s.model, opts);
  try {
    prop.run(ph::Schedule::SpaceBlocked, s.src, nullptr);
    FAIL() << "the poisoned wavefield must fail the health check";
  } catch (const rs::NumericalHealthError& err) {
    EXPECT_EQ(err.field(), "u");
    EXPECT_GE(err.step(), poison_at);
    EXPECT_LT(err.step(), poison_at + opts.health.check_every);
    const std::string msg = err.what();
    EXPECT_NE(msg.find("field 'u'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("timestep " + std::to_string(err.step())),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("grid point"), std::string::npos) << msg;
  }
}

TEST_F(FaultInjection, ReferenceScheduleAlsoMonitored) {
  auto s = make_setup({12, 12, 12}, 14, 0);
  ph::PropagatorOptions opts;
  opts.health.check_every = 1;
  rs::fault::plan().poison_wavefield_at_step = 7;
  ph::AcousticPropagator prop(s.model, opts);
  try {
    prop.run(ph::Schedule::Reference, s.src, nullptr);
    FAIL() << "expected NumericalHealthError";
  } catch (const rs::NumericalHealthError& err) {
    EXPECT_EQ(err.step(), 7);  // cadence 1: caught the step it appeared
  }
}

TEST_F(FaultInjection, AbsoluteAmplitudeLimitTriggersBlowupDiagnosis) {
  auto s = make_setup({14, 12, 10}, 16, 0);
  ph::PropagatorOptions opts;
  opts.health.check_every = 2;
  opts.health.absolute_limit = 1e-12;  // any real signal exceeds this
  ph::AcousticPropagator prop(s.model, opts);
  try {
    prop.run(ph::Schedule::SpaceBlocked, s.src, nullptr);
    FAIL() << "expected blow-up detection";
  } catch (const rs::NumericalHealthError& err) {
    EXPECT_NE(std::string(err.what()).find("energy blow-up"),
              std::string::npos);
    EXPECT_NE(std::string(err.what()).find("CFL"), std::string::npos);
  }
}

// --- Health scans under temporal blocking fire at band boundaries. ---

TEST_F(FaultInjection, WavefrontScansAtBandBoundaries) {
  const int nt = 22;
  const tg::Extents3 e{16, 14, 12};
  const tc::TileSpec tiles{4, 8, 8, 4, 4};
  // The bands of the plan the engine runs for this SO 4 propagator (slope =
  // radius 2); its band hook fires at each band end.
  const auto bands =
      tc::TilePlan::wavefront(e, 1, nt, /*slope=*/2, tiles).bands;
  ASSERT_FALSE(bands.empty());
  EXPECT_EQ(bands.front().t0, 1);
  EXPECT_EQ(bands.back().te, nt);
  for (std::size_t i = 1; i < bands.size(); ++i) {
    EXPECT_EQ(bands[i].t0, bands[i - 1].te);  // contiguous bands
  }

  auto s = make_setup(e, nt, 0);
  ph::PropagatorOptions opts;
  opts.tiles = tiles;
  opts.health.check_every = 1;
  // Poison exactly at a band boundary: the band hook both injects and scans
  // there, so detection is deterministic at that step.
  const int boundary = bands[1].te;
  rs::fault::plan().poison_wavefield_at_step = boundary;

  ph::AcousticPropagator prop(s.model, opts);
  try {
    prop.run(ph::Schedule::Wavefront, s.src, nullptr);
    FAIL() << "expected NumericalHealthError at the band boundary";
  } catch (const rs::NumericalHealthError& err) {
    EXPECT_EQ(err.field(), "u");
    EXPECT_EQ(err.step(), boundary);
  }
}

// --- The health scan: one vector max per row against the scalar walk. ---

namespace {

/// The scalar walk HealthMonitor::check made before it took one vector max
/// per row — the oracle for max|u| and for the first non-finite point.
struct ScalarScan {
  double max_abs = 0.0;
  int bad_x = -1, bad_y = -1, bad_z = -1;
  double bad_v = 0.0;
};

ScalarScan scalar_scan(const tg::Grid3<real_t>& field) {
  const auto& e = field.extents();
  ScalarScan s;
  for (int x = 0; x < e.nx && s.bad_x < 0; ++x) {
    for (int y = 0; y < e.ny && s.bad_x < 0; ++y) {
      for (int z = 0; z < e.nz; ++z) {
        const double v = static_cast<double>(field(x, y, z));
        if (!std::isfinite(v)) {
          s.bad_x = x;
          s.bad_y = y;
          s.bad_z = z;
          s.bad_v = v;
          break;
        }
        const double a = std::fabs(v);
        if (a > s.max_abs) s.max_abs = a;
      }
    }
  }
  return s;
}

/// The scalar walk's message for its first non-finite point.
std::string non_finite_message(const ScalarScan& s, int step) {
  std::ostringstream os;
  os << "numerical health check failed: non-finite value ("
     << (std::isnan(s.bad_v) ? "nan" : "inf") << ") in field 'u' at timestep "
     << step << ", first at grid point (" << s.bad_x << ", " << s.bad_y
     << ", " << s.bad_z
     << ") — the wavefield is corrupt; check dt against the CFL limit and "
        "the source amplitudes";
  return os.str();
}

/// A seeded interior of ±0, subnormals, ordinary values and values near
/// FLT_MAX (only ±0 and subnormals when `tiny`), inside a NaN halo the scan
/// must never read.
tg::Grid3<real_t> seeded_field(tg::Extents3 e, std::uint64_t seed, bool tiny) {
  tempest::util::SplitMix64 rng(seed);
  tg::Grid3<real_t> g(e, 2, std::numeric_limits<real_t>::quiet_NaN());
  for (int x = 0; x < e.nx; ++x) {
    for (int y = 0; y < e.ny; ++y) {
      for (int z = 0; z < e.nz; ++z) {
        const std::uint64_t r = rng.next();
        const std::uint32_t sign = (r & 1u) != 0 ? 0x80000000u : 0u;
        std::uint32_t mag = 0;
        switch ((r >> 1) % (tiny ? 2 : 4)) {
          case 0: mag = 0; break;
          case 1: mag = 1 + static_cast<std::uint32_t>((r >> 8) % 0x7FFFFFu);
            break;  // subnormal
          case 2: mag = 0x3F800000u - static_cast<std::uint32_t>(
                            (r >> 8) % 0x01000000u);
            break;  // ordinary, below 1
          default: mag = 0x7F7FFFFFu - static_cast<std::uint32_t>(
                             (r >> 8) % 4096u);  // near FLT_MAX
        }
        g(x, y, z) = std::bit_cast<real_t>(sign | mag);
      }
    }
  }
  return g;
}

/// No amplitude limit and no history, so check() only measures.
rs::HealthPolicy measure_only() {
  rs::HealthPolicy p;
  p.check_every = 1;
  p.absolute_limit = std::numeric_limits<double>::infinity();
  return p;
}

// 37 z points: a vector body and a remainder at every SIMD width up to 16.
const tg::Extents3 kScanExtents[] = {{1, 1, 1}, {3, 2, 16}, {4, 3, 37},
                                     {2, 5, 64}};

}  // namespace

TEST(HealthScan, MaxMatchesTheScalarWalkBitForBit) {
  const unsigned caller = tempest::util::fp_mode();
  for (const unsigned mode : {caller, caller | tempest::util::kFlushSubnormals}) {
    const tempest::util::FpModeScope scope(mode);
    for (const tg::Extents3& e : kScanExtents) {
      for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        for (const bool tiny : {false, true}) {
          const tg::Grid3<real_t> field = seeded_field(e, seed, tiny);
          const ScalarScan want = scalar_scan(field);
          rs::HealthMonitor monitor(measure_only());
          monitor.check(field, "u", 1);
          EXPECT_EQ(std::bit_cast<std::uint64_t>(monitor.last_max()),
                    std::bit_cast<std::uint64_t>(want.max_abs))
              << "mode " << std::hex << mode << std::dec << ", extents "
              << e.nx << "x" << e.ny << "x" << e.nz << ", seed " << seed
              << (tiny ? ", subnormals only" : "") << ": " << monitor.last_max()
              << " vs " << want.max_abs;
        }
      }
    }
  }
}

TEST(HealthScan, FirstNonFinitePointAndMessageMatchTheScalarWalk) {
  struct Plant {
    int x, y, z;
    real_t v;
  };
  const real_t nan = std::numeric_limits<real_t>::quiet_NaN();
  const real_t inf = std::numeric_limits<real_t>::infinity();
  const tg::Extents3 e{4, 3, 37};
  const std::vector<std::vector<Plant>> cases = {
      {{1, 2, 0, nan}},                  // first z of a row
      {{1, 2, 36, inf}},                 // last z of a row
      {{2, 0, 33, -inf}},                // the vector remainder
      {{0, 0, 0, -nan}},                 // the very first point
      {{3, 1, 5, nan}, {0, 2, 20, inf}},  // two rows: the earlier one
      {{2, 1, 30, nan}, {2, 1, 10, inf}},  // one row: the lower z
  };
  const unsigned caller = tempest::util::fp_mode();
  for (const unsigned mode : {caller, caller | tempest::util::kFlushSubnormals}) {
    const tempest::util::FpModeScope scope(mode);
    for (std::size_t c = 0; c < cases.size(); ++c) {
      tg::Grid3<real_t> field = seeded_field(e, 40 + c, false);
      rs::HealthMonitor monitor(measure_only());
      monitor.check(field, "u", 3);
      const double before = monitor.last_max();
      for (const Plant& p : cases[c]) field(p.x, p.y, p.z) = p.v;
      const ScalarScan want = scalar_scan(field);
      ASSERT_GE(want.bad_x, 0);
      try {
        monitor.check(field, "u", 7);
        ADD_FAILURE() << "case " << c << ": a non-finite value went unseen";
      } catch (const rs::NumericalHealthError& err) {
        EXPECT_EQ(std::string(err.what()), non_finite_message(want, 7))
            << "case " << c << ", mode " << std::hex << mode;
        EXPECT_EQ(err.step(), 7);
      }
      EXPECT_EQ(std::bit_cast<std::uint64_t>(monitor.last_max()),
                std::bit_cast<std::uint64_t>(before))
          << "case " << c << ": a failed check must keep the history";
    }
  }
}

// --- Checkpoint atomicity and validation. ---

TEST_F(FaultInjection, TornWriteLeavesPreviousCheckpointIntact) {
  TempFile file(".tpck");
  rs::Checkpointer ckpt(file.path());
  ckpt.save(make_checkpoint(5, 42, real_t{1.5}));
  ASSERT_TRUE(ckpt.exists());

  // Simulated kill mid-write: the temp file is partially written, the
  // rename never happens.
  rs::fault::plan().fail_checkpoint_writes = 1;
  EXPECT_THROW(ckpt.save(make_checkpoint(9, 42, real_t{2.5})),
               tempest::util::PreconditionError);

  const rs::Checkpoint survivor = ckpt.load();
  EXPECT_EQ(survivor.step, 5);
  ASSERT_EQ(survivor.slots.size(), 3u);
  EXPECT_EQ(survivor.slots[0](1, 2, 3), real_t{1.5});
}

namespace {

/// The suffixes of every file in `path`'s directory whose name begins with
/// `path`'s ("" for `path` itself), sorted.
std::vector<std::string> files_named_after(const std::string& path) {
  const std::filesystem::path p(path);
  const std::string base = p.filename().string();
  std::vector<std::string> out;
  for (const auto& entry :
       std::filesystem::directory_iterator(p.parent_path())) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(base, 0) == 0) out.push_back(name.substr(base.size()));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// A complete checkpoint of `step` left under `path`.tmp, as a save leaves
/// it just before its renames.
void leave_complete_tmp(const std::string& path, int step) {
  rs::Checkpointer(path + ".tmp").save(make_checkpoint(step, 42, real_t{9}));
}

}  // namespace

// save() writes .tmp, unlinks .1, renames the live file to .1 and renames
// .tmp into place. A kill after the unlink leaves the live file and a
// complete .tmp; a kill between the renames leaves .1 and a complete .tmp.
// Each state must resume from the generation it still holds, and the next
// save must restore two generations.
TEST_F(FaultInjection, RotationCrashWindowsKeepOneCompleteGeneration) {
  for (const bool between_renames : {false, true}) {
    SCOPED_TRACE(between_renames ? "killed between the renames"
                                 : "killed after the unlink");
    TempFile file(".tpck");
    rs::Checkpointer ckpt(file.path());
    ckpt.save(make_checkpoint(4, 42, real_t{1}));
    if (between_renames) {
      ASSERT_EQ(std::rename(file.path().c_str(),
                            ckpt.previous_path().c_str()),
                0);
    }
    leave_complete_tmp(file.path(), 8);
    EXPECT_EQ(files_named_after(file.path()),
              (std::vector<std::string>{between_renames ? ".1" : "",
                                        ".tmp"}));

    const auto back = ckpt.try_load(42);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->step, 4);
    EXPECT_EQ(back->slots[0](1, 2, 3), real_t{1});

    ckpt.save(make_checkpoint(12, 42, real_t{3}));
    EXPECT_EQ(files_named_after(file.path()),
              (std::vector<std::string>{"", ".1"}));
    EXPECT_EQ(ckpt.load().step, 12);
    EXPECT_EQ(rs::Checkpointer(ckpt.previous_path()).load().step, 4);
  }
}

TEST_F(FaultInjection, ThreeSavesLeaveExactlyTwoGenerations) {
  TempFile file(".tpck");
  rs::Checkpointer ckpt(file.path());
  for (const int step : {16, 32, 48}) {
    ckpt.save(make_checkpoint(step, 42, static_cast<real_t>(step)));
  }
  EXPECT_EQ(files_named_after(file.path()),
            (std::vector<std::string>{"", ".1"}));
  EXPECT_EQ(ckpt.load().step, 48);
  const rs::Checkpoint prev = rs::Checkpointer(ckpt.previous_path()).load();
  EXPECT_EQ(prev.step, 32);
  EXPECT_EQ(prev.slots[0](1, 2, 3), real_t{32});
}

#if !defined(TEMPEST_TRACE_DISABLED)
// CheckpointBytes counts what the writer emitted whenever any telemetry
// sink is live: a default survey runs with the histograms and the black
// box on and tracing off, and must still report its checkpoint volume.
TEST_F(FaultInjection, CheckpointBytesCountedUnderHistogramOrRecorderBit) {
  TempFile file(".tpck");
  TempFile box(".tfbr");
  rs::Checkpointer ckpt(file.path());
  ASSERT_FALSE(tr::enabled());
  tr::reset();
  ob::set_enabled(true);  // histogram bit only
  ckpt.save(make_checkpoint(3, 42, real_t{1}));
  ob::set_enabled(false);
  EXPECT_EQ(tr::value(tr::Counter::CheckpointBytes),
            static_cast<long long>(std::filesystem::file_size(file.path())));

  tr::reset();
  auto rec = ob::FlightRecorder::create(box.path(), {});
  ASSERT_NE(rec, nullptr);
  ob::install_blackbox(rec.get());  // recorder bit only
  ckpt.save(make_checkpoint(4, 42, real_t{2}));
  ob::uninstall_blackbox();
  EXPECT_EQ(tr::value(tr::Counter::CheckpointBytes),
            static_cast<long long>(std::filesystem::file_size(file.path())));
  tr::reset();
  ob::reset_metrics();
}
#endif  // !defined(TEMPEST_TRACE_DISABLED)

TEST_F(FaultInjection, TruncatedCheckpointIsDetected) {
  TempFile file(".tpck");
  rs::Checkpointer ckpt(file.path());
  ckpt.save(make_checkpoint(7, 42, real_t{1}));

  std::string bytes;
  {
    std::ifstream is(file.path(), std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(is)),
                 std::istreambuf_iterator<char>());
  }
  {
    std::ofstream os(file.path(), std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_THROW((void)ckpt.load(), io::CorruptFileError);
  // A damaged checkpoint must not stop a fresh run: try_load degrades to
  // "no checkpoint" with a warning.
  EXPECT_FALSE(ckpt.try_load(42).has_value());
}

TEST_F(FaultInjection, FlippedByteFailsTheCrc) {
  TempFile file(".tpck");
  rs::Checkpointer ckpt(file.path());
  ckpt.save(make_checkpoint(7, 42, real_t{1}));

  std::string bytes;
  {
    std::ifstream is(file.path(), std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(is)),
                 std::istreambuf_iterator<char>());
  }
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  {
    std::ofstream os(file.path(), std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  try {
    (void)ckpt.load();
    FAIL() << "bit rot must fail the CRC";
  } catch (const io::CorruptFileError& err) {
    EXPECT_NE(std::string(err.what()).find("CRC mismatch"),
              std::string::npos);
  }
}

TEST_F(FaultInjection, CorruptNewestCheckpointFallsBackToRotated) {
  TempFile file(".tpck");
  rs::Checkpointer ckpt(file.path());
  ckpt.save(make_checkpoint(5, 42, real_t{1}));
  ckpt.save(make_checkpoint(9, 42, real_t{2}));  // rotates step 5 to ".1"

  // Bit rot in the newest generation.
  std::string bytes;
  {
    std::ifstream is(file.path(), std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(is)),
                 std::istreambuf_iterator<char>());
  }
  bytes[bytes.size() / 3] = static_cast<char>(bytes[bytes.size() / 3] ^ 0x20);
  {
    std::ofstream os(file.path(), std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  // load() (newest only) refuses; try_load() serves the rotated
  // predecessor instead of stranding the run with zero checkpoints.
  EXPECT_THROW((void)ckpt.load(), io::CorruptFileError);
  const auto back = ckpt.try_load(42);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->step, 5);
  EXPECT_EQ(back->slots[0](1, 2, 3), real_t{1});

  // The resumed run's next save must keep the good step-5 generation as
  // its fallback, not rotate the corrupt file over it.
  ckpt.save(make_checkpoint(13, 42, real_t{3}));
  EXPECT_EQ(ckpt.load().step, 13);
  EXPECT_EQ(rs::Checkpointer(ckpt.previous_path()).load().step, 5);

  // Both generations damaged: a warning and a fresh start, not a crash,
  // and no corrupt generation left behind for the next restart to re-read.
  for (const std::string& gen : {ckpt.path(), ckpt.previous_path()}) {
    std::ofstream(gen, std::ios::binary | std::ios::trunc) << "junk";
  }
  EXPECT_FALSE(ckpt.try_load(42).has_value());
  EXPECT_FALSE(std::filesystem::exists(ckpt.path()));
  EXPECT_FALSE(std::filesystem::exists(ckpt.previous_path()));
}

namespace {

/// A 49-byte TPCK with a valid CRC whose one slice declares 2^20 points per
/// axis: 2^62 bytes, which no allocator can satisfy, in a file that holds
/// none of them.
void write_lying_extents_checkpoint(const std::string& path) {
  std::vector<std::uint8_t> b;
  const auto put = [&b](const auto& v) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
    b.insert(b.end(), p, p + sizeof(v));
  };
  put(std::uint32_t{0x5450434Bu});  // "TPCK"
  put(std::uint32_t{1});
  put(std::uint64_t{42});                    // fingerprint
  put(std::int32_t{9});                      // step
  put(std::int32_t{1});                      // one slice
  for (int axis = 0; axis < 3; ++axis) put(std::int32_t{1 << 20});
  put(std::int32_t{0});                      // halo
  put(std::uint8_t{0});                      // no gather
  put(std::uint32_t{0});                     // no aux blobs
  put(tempest::util::crc32(b.data(), b.size()));
  ASSERT_EQ(b.size(), 49u);
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(reinterpret_cast<const char*>(b.data()),
           static_cast<std::streamsize>(b.size()));
}

}  // namespace

TEST_F(FaultInjection, LyingExtentsAreCorruptNotAnAllocation) {
  TempFile file(".tpck");
  write_lying_extents_checkpoint(file.path());
  try {
    (void)rs::Checkpointer(file.path()).load();
    FAIL() << "a checkpoint declaring more bytes than it holds must throw";
  } catch (const io::CorruptFileError& err) {
    EXPECT_NE(std::string(err.what()).find("time slice declares"),
              std::string::npos)
        << err.what();
  }
}

TEST_F(FaultInjection, LyingExtentsFallBackToRotated) {
  TempFile file(".tpck");
  rs::Checkpointer ckpt(file.path());
  ckpt.save(make_checkpoint(5, 42, real_t{1}));
  ckpt.save(make_checkpoint(9, 42, real_t{2}));  // rotates step 5 to ".1"
  write_lying_extents_checkpoint(file.path());
  const auto back = ckpt.try_load(42);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->step, 5);
  EXPECT_EQ(back->slots[0](1, 2, 3), real_t{1});
}

TEST_F(FaultInjection, RemoveAllClearsEveryGeneration) {
  TempFile file(".tpck");
  rs::Checkpointer ckpt(file.path());
  ckpt.save(make_checkpoint(3, 42, real_t{1}));
  ckpt.save(make_checkpoint(6, 42, real_t{2}));
  ASSERT_TRUE(ckpt.exists());
  std::ifstream prev(ckpt.previous_path());
  ASSERT_TRUE(prev.good());  // the rotation left a predecessor
  prev.close();

  ckpt.remove_all();
  EXPECT_FALSE(ckpt.exists());
  EXPECT_FALSE(std::ifstream(ckpt.previous_path()).good());
  EXPECT_FALSE(ckpt.try_load(42).has_value());
}

TEST_F(FaultInjection, FingerprintMismatchRefusesToResume) {
  TempFile file(".tpck");
  rs::Checkpointer ckpt(file.path());
  ckpt.save(make_checkpoint(7, /*fp=*/111, real_t{1}));
  EXPECT_THROW((void)ckpt.try_load(/*expected=*/222),
               rs::CheckpointMismatchError);
  // The right fingerprint still loads.
  EXPECT_TRUE(ckpt.try_load(111).has_value());
  // No checkpoint at all is a clean "start fresh".
  TempFile none(".tpck");
  EXPECT_FALSE(rs::Checkpointer(none.path()).try_load(111).has_value());
}

TEST_F(FaultInjection, GeometryMismatchRejectedOnRestore) {
  auto small = make_setup({12, 10, 8}, 8, 0);
  ph::AcousticPropagator donor(small.model);
  donor.run(ph::Schedule::SpaceBlocked, small.src, nullptr);
  const rs::Checkpoint ck = donor.capture(4, 1);

  auto other = make_setup({16, 14, 12}, 8, 0);
  ph::AcousticPropagator recipient(other.model);
  try {
    recipient.restore(ck);
    FAIL() << "restoring a foreign-geometry checkpoint must throw";
  } catch (const rs::CheckpointMismatchError& err) {
    const std::string msg = err.what();
    EXPECT_NE(msg.find("12x10x8"), std::string::npos) << msg;
    EXPECT_NE(msg.find("16x14x12"), std::string::npos) << msg;
  }
}

TEST_F(FaultInjection, AuxiliaryBlobsRoundTrip) {
  TempFile file(".tpck");
  rs::Checkpointer ckpt(file.path());
  auto ck = make_checkpoint(3, 9, real_t{4});
  ck.aux.emplace_back("image", std::vector<std::uint8_t>{1, 2, 3, 4, 5});
  ck.aux.emplace_back("meta", std::vector<std::uint8_t>{});
  ckpt.save(ck);

  const rs::Checkpoint back = ckpt.load();
  const auto* image = back.find_aux("image");
  ASSERT_NE(image, nullptr);
  EXPECT_EQ(*image, (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));
  const auto* meta = back.find_aux("meta");
  ASSERT_NE(meta, nullptr);
  EXPECT_TRUE(meta->empty());
  EXPECT_EQ(back.find_aux("missing"), nullptr);
}

// --- JIT resilience: transient failures retry, persistent failures fall
// back to the AOT template or the DslKernel tape in the same engine and
// still produce the right physics. ---

TEST_F(FaultInjection, TransientCompilerFailureIsRetried) {
  rs::fault::plan().fail_jit_compiles = 1;
  cg::JitModule mod("int tempest_retry_probe(void) { return 7; }",
                    "tempest_retry_probe");
  EXPECT_EQ(mod.as<int(void)>()(), 7);
  EXPECT_EQ(rs::fault::plan().fail_jit_compiles, 0);  // fault was consumed
}

TEST_F(FaultInjection, JitRetryBudgetComesFromEnvironment) {
  // A bigger budget absorbs more consecutive failures...
  ::setenv("TEMPEST_JIT_RETRIES", "3", 1);
  rs::fault::plan().fail_jit_compiles = 2;
  {
    cg::JitModule mod("int tempest_env_probe(void) { return 11; }",
                      "tempest_env_probe");
    EXPECT_EQ(mod.as<int(void)>()(), 11);
  }
  EXPECT_EQ(rs::fault::plan().fail_jit_compiles, 0);

  // ...and a budget of one turns any failure into a typed, retryable
  // JitCompileError (transient in the jobs taxonomy).
  ::setenv("TEMPEST_JIT_RETRIES", "1", 1);
  rs::fault::plan().fail_jit_compiles = 2;
  EXPECT_THROW(cg::JitModule("int tempest_env_probe2(void) { return 0; }",
                             "tempest_env_probe2"),
               cg::JitCompileError);
  ::unsetenv("TEMPEST_JIT_RETRIES");
}

TEST_F(FaultInjection, PersistentCompilerFailureFallsBackToInterpreter) {
  const tg::Extents3 e{10, 9, 8};
  ph::Geometry g{e, 10.0, 4, 2};
  const auto model = ph::make_acoustic_layered(g, 1.5, 3.0, 2);
  const int nt = 8;
  sp::SparseTimeSeries src(sp::single_center_source(e, 0.4), nt);
  src.broadcast_signature(sp::ricker(nt, model.critical_dt(), 0.03));
  dsl::Grid grid;
  dsl::TimeFunction u("u", grid, 4, 2);
  const dsl::Eq eq = dsl::solve(dsl::param("m") * u.dt2() +
                                    dsl::param("damp") * u.dt() - u.laplace(),
                                u.forward());

  cg::KernelSpec spec;
  spec.space_order = 4;
  for (const int threads : {1, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ph::PropagatorOptions popts;
    popts.threads = threads;
    // Both the first attempt and its retry fail: a persistently broken
    // toolchain.
    rs::fault::plan().fail_jit_compiles = 1000;
    cg::JitAcoustic jit(model, spec, popts);
    cg::JitDsl jit_dsl(eq, model, spec, popts);
    rs::fault::reset();
    ASSERT_FALSE(jit.compiled());
    ASSERT_FALSE(jit_dsl.compiled());
    EXPECT_NE(jit.compile_error().find("fault injection"), std::string::npos);
    jit.run(ph::Schedule::SpaceBlocked, src, nullptr);
    jit_dsl.run(ph::Schedule::SpaceBlocked, src, nullptr);

    // The fallbacks are the AOT template and the tape: the same bits as
    // the propagators that own them, at any thread count.
    ph::PropagatorOptions serial;
    serial.threads = 1;
    ph::AcousticPropagator direct(model, serial);
    direct.run(ph::Schedule::SpaceBlocked, src, nullptr);
    const auto& u_direct = direct.wavefield(nt);
    ASSERT_GT(tg::max_abs(u_direct), 0.0);
    EXPECT_EQ(tg::max_abs_diff(jit.wavefield(nt), u_direct), 0.0);
    dsl::DslPropagator tape(eq, model, serial);
    tape.run(ph::Schedule::SpaceBlocked, src, nullptr);
    EXPECT_EQ(tg::max_abs_diff(jit_dsl.wavefield(nt), tape.wavefield(nt)),
              0.0);
  }
}

// --- Autotuner: one pathological trial must not abort the sweep. ---

TEST_F(FaultInjection, AutotuneSkipsFailingTrials) {
  const std::vector<tc::TileSpec> specs = {{4, 8, 8, 4, 4},
                                           {4, 16, 16, 4, 4},
                                           {4, 32, 32, 8, 8},
                                           {4, 64, 64, 8, 8}};
  auto measure = [](const tc::TileSpec& spec) -> double {
    if (spec.tile_x == 8) throw std::runtime_error("simulated trial crash");
    if (spec.tile_x == 16) return std::numeric_limits<double>::quiet_NaN();
    return spec.tile_x == 32 ? 0.5 : 1.5;
  };
  const at::SweepResult res = at::sweep(specs, measure, /*repeats=*/2);
  EXPECT_EQ(res.best.spec.tile_x, 32);
  ASSERT_EQ(res.evaluated.size(), 4u);
  EXPECT_TRUE(res.evaluated[0].failed);
  EXPECT_NE(res.evaluated[0].error.find("simulated trial crash"),
            std::string::npos);
  EXPECT_TRUE(res.evaluated[1].failed);
  EXPECT_NE(res.evaluated[1].error.find("non-finite"), std::string::npos);
  EXPECT_FALSE(res.evaluated[2].failed);
  EXPECT_FALSE(res.evaluated[3].failed);

  auto all_fail = [](const tc::TileSpec&) -> double {
    throw std::runtime_error("boom");
  };
  EXPECT_THROW((void)at::sweep(specs, all_fail),
               tempest::util::PreconditionError);
}
