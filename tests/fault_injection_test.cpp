#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
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
  EXPECT_EQ(ck->slots.size(), 6u);  // three p slices + three q slices
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

  // Both generations damaged: a warning and a fresh start, not a crash.
  std::ofstream(ckpt.previous_path(), std::ios::binary | std::ios::trunc)
      << "junk";
  EXPECT_FALSE(ckpt.try_load(42).has_value());
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
