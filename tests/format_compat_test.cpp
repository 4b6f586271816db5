// On-disk compatibility of the four binary formats. tests/data holds a
// TPCK checkpoint, a TPJL journal, a TFBR black box and a TPG1 gather
// written by an earlier build (tests/data/README.md lists how). This build
// must decode each one, and must re-encode the checkpoint, the journal and
// the gather byte for byte. The checkpoint holds the three-slice layout of
// the acoustic buffer before it leapfrogged in place: restore() must seed
// the two-slot buffer from it, and save(capture(...)) and the zero-copy
// state_view() path must write the same bytes. Together these pin every
// format — framing, field order and CRC values — against silent drift.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "tempest/codegen/jit.hpp"
#include "tempest/dsl/kernel.hpp"
#include "tempest/io/io.hpp"
#include "tempest/jobs/journal.hpp"
#include "tempest/obs/recorder.hpp"
#include "tempest/physics/acoustic.hpp"
#include "tempest/physics/elastic.hpp"
#include "tempest/physics/tti.hpp"
#include "tempest/physics/vti.hpp"
#include "tempest/resilience/checkpoint.hpp"
#include "tempest/sparse/survey.hpp"
#include "tempest/sparse/wavelet.hpp"

namespace cg = tempest::codegen;
namespace dsl = tempest::dsl;
namespace io = tempest::io;
namespace jb = tempest::jobs;
namespace ob = tempest::obs;
namespace ph = tempest::physics;
namespace rs = tempest::resilience;
namespace sp = tempest::sparse;
namespace tg = tempest::grid;
using tempest::real_t;

namespace {

std::string fixture(const char* name) {
  return std::string(TEMPEST_TEST_DATA_DIR) + "/" + name;
}

/// Scratch path removed (with checkpoint rotation siblings) on scope exit.
class TempFile {
 public:
  // ctest runs each TEST as its own process, so the counter alone is not
  // unique — qualify with the pid.
  explicit TempFile(const char* suffix)
      : path_(std::string("/tmp/tempest_compat_test_") +
              std::to_string(::getpid()) + "_" + std::to_string(counter_++) +
              suffix) {}
  ~TempFile() {
    for (const char* ext : {"", ".1", ".tmp"}) {
      std::remove((path_ + ext).c_str());
    }
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  static int counter_;
  std::string path_;
};
int TempFile::counter_ = 0;

// The fixture checkpoint: acoustic, 6^3 interior, space order 4 (halo 2),
// saved after step 5 with a 4-receiver gather and two aux blobs.
constexpr std::uint64_t kFixtureFingerprint = 0x5445535446495855ull;
constexpr std::uint32_t kCounterMagic = 0x54505854u;  // "TPXT"

ph::AcousticModel fixture_model() {
  const ph::Geometry g{{6, 6, 6}, 10.0, 4, /*nbl=*/2};
  return ph::make_acoustic_layered(g, 1.5, 3.0, 2);
}

}  // namespace

TEST(FormatCompat, CheckpointFixtureDecodes) {
  const rs::Checkpoint ck =
      rs::Checkpointer(fixture("acoustic_6cube_step5.tpck")).load();
  EXPECT_EQ(ck.fingerprint, kFixtureFingerprint);
  EXPECT_EQ(ck.step, 5);
  ASSERT_EQ(ck.slots.size(), 3u);
  for (const auto& s : ck.slots) {
    EXPECT_EQ(s.extents(), (tg::Extents3{6, 6, 6}));
    EXPECT_EQ(s.halo(), 2);
  }
  EXPECT_GT(tg::max_abs_diff(ck.slots[0], tg::Grid3<real_t>({6, 6, 6}, 2)),
            0.0)
      << "the fixture must hold a live wavefield, not zeros";
  ASSERT_TRUE(ck.has_rec);
  EXPECT_EQ(ck.rec.npoints(), 4);
  EXPECT_EQ(ck.rec.nt(), 8);
  EXPECT_EQ(ck.rec.coords()[1].x, 3.5);
  ASSERT_EQ(ck.aux.size(), 2u);
  EXPECT_EQ(rs::aux_unpack_versioned<std::int64_t>("counter", ck.aux[0].second,
                                                   kCounterMagic, 1),
            -42);
  EXPECT_EQ(ck.aux[1].first, "empty");
  EXPECT_TRUE(ck.aux[1].second.empty());
}

TEST(FormatCompat, CheckpointReencodesByteForByte) {
  const std::string path = fixture("acoustic_6cube_step5.tpck");
  const std::vector<std::uint8_t> want = io::read_file(path);
  const rs::Checkpoint ck = rs::Checkpointer(path).load();
  const ph::AcousticModel model = fixture_model();
  ph::AcousticPropagator prop(model);
  prop.restore(ck);

  const auto written = [](const auto& state) {
    TempFile out(".tpck");
    rs::Checkpointer(out.path()).save(state);
    return io::read_file(out.path());
  };
  // The loaded checkpoint itself writes the fixture's bytes.
  EXPECT_EQ(written(ck), want) << "owning checkpoint";

  // The fixture holds the three-slice layout (slice t mod 3 holds u[t]);
  // the two-slot propagator keeps exactly its step-5 and step-4 slices.
  rs::Checkpoint copy = prop.capture(ck.step, ck.fingerprint, &ck.rec);
  ASSERT_EQ(copy.slots.size(), 2u);
  for (const int t : {ck.step, ck.step - 1}) {
    const tg::Grid3<real_t>& got = copy.slots[static_cast<std::size_t>(t % 2)];
    const tg::Grid3<real_t>& old = ck.slots[static_cast<std::size_t>(t % 3)];
    ASSERT_EQ(got.padded_size(), old.padded_size());
    EXPECT_EQ(std::memcmp(got.raw(), old.raw(),
                          got.padded_size() * sizeof(real_t)),
              0)
        << "slice of step " << t;
  }

  // A two-slot checkpoint the propagator writes itself: an owning copy, a
  // zero-copy view and the loaded file all write the same bytes.
  copy.aux = ck.aux;
  const std::vector<std::uint8_t> own = written(copy);
  rs::CheckpointView view = prop.state_view(ck.step, ck.fingerprint, &ck.rec);
  view.aux = ck.aux;
  EXPECT_EQ(written(view), own) << "save(state_view(...))";
  TempFile out(".tpck");
  rs::Checkpointer(out.path()).save(copy);
  EXPECT_EQ(written(rs::Checkpointer(out.path()).load()), own)
      << "save(load(...))";
}

TEST(FormatCompat, CheckpointOfAnotherSliceCountIsRefused) {
  const rs::Checkpoint fixture_ck =
      rs::Checkpointer(fixture("acoustic_6cube_step5.tpck")).load();
  const ph::AcousticModel model = fixture_model();
  ph::AcousticPropagator prop(model);
  for (const std::size_t n : {1u, 4u}) {
    rs::Checkpoint ck = fixture_ck;
    ck.slots.resize(n, ck.slots.front());
    try {
      prop.restore(ck);
      ADD_FAILURE() << n << " slices must not restore";
    } catch (const rs::CheckpointMismatchError& err) {
      const std::string msg = err.what();
      EXPECT_NE(msg.find("holds " + std::to_string(n) + " slices"),
                std::string::npos)
          << msg;
      EXPECT_NE(msg.find("needs 2 of"), std::string::npos) << msg;
    }
  }
}

TEST(FormatCompat, JournalFixtureReplaysAndReencodesByteForByte) {
  const std::string path = fixture("survey_3shots.tpj");
  bool torn = true;
  const std::vector<jb::Record> records = jb::Journal(path).replay(&torn);
  EXPECT_FALSE(torn);
  ASSERT_EQ(records.size(), 10u);
  EXPECT_EQ(records.front().type, jb::RecordType::Plan);
  EXPECT_EQ(records.front().fingerprint, 0x0123456789abcdefull);
  EXPECT_EQ(records.front().detail, "3 shots");
  EXPECT_EQ(records[4].type, jb::RecordType::Done);
  EXPECT_EQ(records[4].seconds, 1.25);
  EXPECT_EQ(records[6].type, jb::RecordType::Degraded);
  EXPECT_EQ(records[6].level, 1);
  EXPECT_EQ(records.back().type, jb::RecordType::Quarantined);
  EXPECT_EQ(records.back().detail, "energy blow-up at timestep 3");

  const std::vector<std::uint8_t> want = io::read_file(path);
  TempFile rewritten(".tpj");
  jb::Journal(rewritten.path()).rewrite(records);
  EXPECT_EQ(io::read_file(rewritten.path()), want) << "rewrite()";
  TempFile appended(".tpj");
  jb::Journal j(appended.path());
  for (const jb::Record& r : records) j.append(r);
  EXPECT_EQ(io::read_file(appended.path()), want) << "append()";
}

TEST(FormatCompat, BlackboxFixtureDecodes) {
  const std::string path = fixture("shot_3.tfbr");
  std::string error;
  EXPECT_TRUE(ob::verify_blackbox(path, &error)) << error;
  const ob::BlackboxContents box = ob::read_blackbox(path);
  EXPECT_EQ(box.geom.lanes, 1u);
  EXPECT_EQ(box.geom.lane_capacity, 8u);
  EXPECT_EQ(box.geom.name_capacity, 8u);  // the recorder's minimum
  EXPECT_EQ(box.geom.shot, 3u);
  EXPECT_EQ(box.total_recorded, 11u);
  EXPECT_EQ(box.torn_slots, 0u);
  // Eleven records into an eight-slot ring: seq 1-3 were overwritten.
  ASSERT_EQ(box.events.size(), 8u);
  for (std::size_t i = 0; i < box.events.size(); ++i) {
    EXPECT_EQ(box.events[i].seq, 4 + i);
  }
  for (int k = 0; k < 3; ++k) {
    const ob::BlackboxEvent& enter = box.events[2 * k];
    const ob::BlackboxEvent& exit = box.events[2 * k + 1];
    EXPECT_EQ(enter.kind, ob::kSpanEnter);
    EXPECT_EQ(enter.name, "checkpoint.save");
    EXPECT_EQ(enter.a, k + 1);
    EXPECT_EQ(exit.kind, ob::kSpanExit);
    EXPECT_EQ(exit.a, 1000 * (k + 1));
  }
  EXPECT_EQ(box.events[6].kind, ob::kCounterDelta);
  EXPECT_EQ(box.events[6].name, "shot");
  EXPECT_EQ(box.events[6].a, 7);
  EXPECT_EQ(box.events[7].kind, ob::kHealth);
  EXPECT_EQ(box.events[7].name, "u");
  EXPECT_EQ(box.events[7].b, 16);
  EXPECT_TRUE(box.open_spans.empty());
}

TEST(FormatCompat, GatherFixtureDecodesAndReencodesByteForByte) {
  const std::string path = fixture("shot_gather.tpg");
  const sp::SparseTimeSeries g = io::load_gather(path);
  ASSERT_EQ(g.nt(), 5);
  ASSERT_EQ(g.npoints(), 3);
  EXPECT_EQ(g.coords(), (sp::CoordList{{0.1, 2.2, 3.3},
                                       {1.0 / 3.0, 4.7, 0.45},
                                       {5.55, 0.01, 2.9}}));
  for (int t = 0; t < g.nt(); ++t) {
    for (int r = 0; r < g.npoints(); ++r) {
      EXPECT_EQ(g.at(t, r), static_cast<real_t>(0.1 * (t + 1) - 0.25 * r))
          << "t=" << t << " r=" << r;
    }
  }
  TempFile out(".tpg");
  io::save_gather(out.path(), g);
  EXPECT_EQ(io::read_file(out.path()), io::read_file(path));
}

namespace {

/// Every gather sample, bitwise (a helper so a mismatch names the sample).
void expect_same_gather(const sp::SparseTimeSeries& got,
                        const sp::SparseTimeSeries& want) {
  ASSERT_EQ(got.nt(), want.nt());
  ASSERT_EQ(got.npoints(), want.npoints());
  for (int t = 0; t < want.nt(); ++t) {
    for (int r = 0; r < want.npoints(); ++r) {
      ASSERT_EQ(got.at(t, r), want.at(t, r)) << "t=" << t << " r=" << r;
    }
  }
}

// Every propagator's one slot list drives both save paths. At the same
// barrier the zero-copy view and the owning copy write identical bytes
// holding the gather of that instant, and resuming from the file in a
// fresh propagator finishes the run bit for bit — so the slot list holds
// the whole state — after its view re-encodes the same bytes.
template <typename Make>
void expect_view_matches_capture(const Make& make) {
  constexpr int kNt = 6;
  constexpr int kAt = 3;
  auto prop = make();
  const tg::Extents3 e = prop.model().geom.extents;
  sp::SparseTimeSeries src(sp::single_center_source(e, 0.4), kNt);
  src.broadcast_signature(sp::ricker(kNt, prop.dt(), 0.05));
  sp::SparseTimeSeries rec(sp::receiver_line(e, 3, 0.15, 3), kNt);
  sp::SparseTimeSeries rec_at_cut = rec;
  TempFile via_view(".tpck");
  TempFile via_copy(".tpck");
  const rs::AuxBlob aux{"tag", {1, 2, 3}};
  prop.run(ph::Schedule::SpaceBlocked, src, &rec, [&](int t) {
    if (t != kAt) return;
    rs::CheckpointView view = prop.state_view(t, 77, &rec);
    view.aux = {&aux, 1};
    rs::Checkpointer(via_view.path()).save(view);
    rs::Checkpoint copy = prop.capture(t, 77, &rec);
    copy.aux.push_back(aux);
    rs::Checkpointer(via_copy.path()).save(copy);
    rec_at_cut = rec;
  });
  const std::vector<std::uint8_t> bytes = io::read_file(via_view.path());
  EXPECT_EQ(io::read_file(via_copy.path()), bytes);

  const rs::Checkpoint loaded = rs::Checkpointer(via_view.path()).load();
  EXPECT_EQ(loaded.step, kAt);
  ASSERT_TRUE(loaded.has_rec);
  expect_same_gather(loaded.rec, rec_at_cut);
  ASSERT_EQ(loaded.aux.size(), 1u);
  EXPECT_EQ(loaded.aux[0], aux);

  auto fresh = make();
  fresh.restore(loaded);
  rs::CheckpointView again = fresh.state_view(loaded.step, 77, &loaded.rec);
  again.aux = loaded.aux;
  TempFile round_trip(".tpck");
  rs::Checkpointer(round_trip.path()).save(again);
  EXPECT_EQ(io::read_file(round_trip.path()), bytes);

  sp::SparseTimeSeries resumed = loaded.rec;
  fresh.run_from(loaded.step, ph::Schedule::SpaceBlocked, src, &resumed);
  expect_same_gather(resumed, rec);
}

}  // namespace

TEST(CheckpointView, MatchesCaptureForEveryPropagator) {
  const ph::Geometry g{{10, 9, 8}, 10.0, 4, /*nbl=*/2};
  const ph::AcousticModel acoustic = ph::make_acoustic_layered(g, 1.5, 3.0, 2);
  const ph::TTIModel tti = ph::make_tti_layered(g);
  ph::TTIModel vti = ph::make_tti_layered(g);
  vti.theta.fill(0.0f);
  vti.phi.fill(0.0f);
  const ph::ElasticModel elastic = ph::make_elastic_layered(g);
  dsl::Grid grid;
  dsl::TimeFunction u("u", grid, 4, 2);
  const dsl::Eq eq = dsl::solve(dsl::param("m") * u.dt2() +
                                    dsl::param("damp") * u.dt() - u.laplace(),
                                u.forward());
  {
    SCOPED_TRACE("acoustic");
    expect_view_matches_capture(
        [&] { return ph::AcousticPropagator(acoustic); });
  }
  {
    SCOPED_TRACE("tti");
    expect_view_matches_capture([&] { return ph::TTIPropagator(tti); });
  }
  {
    SCOPED_TRACE("vti");
    expect_view_matches_capture([&] { return ph::VTIPropagator(vti); });
  }
  {
    SCOPED_TRACE("elastic");
    expect_view_matches_capture(
        [&] { return ph::ElasticPropagator(elastic); });
  }
  {
    SCOPED_TRACE("dsl");
    expect_view_matches_capture(
        [&] { return dsl::DslPropagator(eq, acoustic); });
  }
  {
    SCOPED_TRACE("jit");
    expect_view_matches_capture([&] {
      cg::JitAcoustic jit(acoustic, cg::KernelSpec{});
      EXPECT_TRUE(jit.compiled()) << jit.compile_error();
      return jit;
    });
  }
  {
    SCOPED_TRACE("jit-dsl");
    expect_view_matches_capture([&] {
      cg::JitDsl jit(eq, acoustic, cg::KernelSpec{});
      EXPECT_TRUE(jit.compiled()) << jit.compile_error();
      return jit;
    });
  }
}

TEST(CheckpointView, RejectsAStepBeforeTheFirst) {
  const ph::AcousticModel model = fixture_model();
  const ph::AcousticPropagator prop(model);
  EXPECT_THROW((void)prop.state_view(0, 1), tempest::util::PreconditionError);
}

namespace {

/// A propagator's two-slot state at step kAt, re-laid out as the three
/// slices per time buffer every second-order propagator wrote before the
/// in-place leapfrog (slice t mod 3 holds step t; the slice of neither
/// step is NaN), must restore to exactly that state.
template <typename Make>
void expect_three_slice_layout_restores(const Make& make) {
  constexpr int kNt = 6;
  constexpr int kAt = 4;
  auto prop = make();
  const tg::Extents3 e = prop.model().geom.extents;
  sp::SparseTimeSeries src(sp::single_center_source(e, 0.4), kNt);
  src.broadcast_signature(sp::ricker(kNt, prop.dt(), 0.05));
  rs::Checkpoint want;
  prop.run(ph::Schedule::SpaceBlocked, src, nullptr, [&](int t) {
    if (t == kAt) want = prop.capture(t, 5);
  });
  ASSERT_EQ(want.slots.size() % 2, 0u);
  rs::Checkpoint legacy = want;
  legacy.slots.clear();
  const tg::Grid3<real_t>& g0 = want.slots.front();
  for (std::size_t b = 0; b < want.slots.size() / 2; ++b) {
    for (int i = 0; i < 3; ++i) {
      legacy.slots.emplace_back(g0.extents(), g0.halo(),
                                std::numeric_limits<real_t>::quiet_NaN());
    }
    for (const int t : {kAt, kAt - 1}) {
      legacy.slots[3 * b + static_cast<std::size_t>(t % 3)] =
          want.slots[2 * b + static_cast<std::size_t>(t % 2)];
    }
  }
  auto fresh = make();
  fresh.restore(legacy);
  const rs::Checkpoint got = fresh.capture(kAt, 5);
  ASSERT_EQ(got.slots.size(), want.slots.size());
  for (std::size_t i = 0; i < got.slots.size(); ++i) {
    EXPECT_EQ(std::memcmp(got.slots[i].raw(), want.slots[i].raw(),
                          got.slots[i].padded_size() * sizeof(real_t)),
              0)
        << "slice " << i;
  }
}

}  // namespace

TEST(FormatCompat, ThreeSliceLayoutRestoresIntoEveryTwoSlotBuffer) {
  const ph::Geometry g{{10, 9, 8}, 10.0, 4, /*nbl=*/2};
  const ph::AcousticModel acoustic = ph::make_acoustic_layered(g, 1.5, 3.0, 2);
  const ph::TTIModel tti = ph::make_tti_layered(g);
  ph::TTIModel vti = ph::make_tti_layered(g);
  vti.theta.fill(0.0f);
  vti.phi.fill(0.0f);
  {
    SCOPED_TRACE("acoustic");
    expect_three_slice_layout_restores(
        [&] { return ph::AcousticPropagator(acoustic); });
  }
  {
    SCOPED_TRACE("tti");
    expect_three_slice_layout_restores([&] { return ph::TTIPropagator(tti); });
  }
  {
    SCOPED_TRACE("vti");
    expect_three_slice_layout_restores([&] { return ph::VTIPropagator(vti); });
  }
}
