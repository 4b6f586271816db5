// On-disk compatibility of the three CRC-framed formats. tests/data holds a
// TPCK checkpoint, a TPJL journal and a TFBR black box written by an
// earlier build (tests/data/README.md lists how). This build must decode
// each one, and must re-encode the checkpoint and the journal byte for
// byte: the checkpoint both through save(capture(...)) and through the
// zero-copy state_view() path. Together these pin every format — framing,
// field order and CRC values — against silent drift.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
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
  // The loaded checkpoint itself, an owning copy of the restored state,
  // and a zero-copy view of it all write the fixture's bytes.
  EXPECT_EQ(written(ck), want) << "owning checkpoint";
  rs::Checkpoint copy = prop.capture(ck.step, ck.fingerprint, &ck.rec);
  copy.aux = ck.aux;
  EXPECT_EQ(written(copy), want) << "save(capture(...))";
  rs::CheckpointView view = prop.state_view(ck.step, ck.fingerprint, &ck.rec);
  view.aux = ck.aux;
  EXPECT_EQ(written(view), want) << "save(state_view(...))";
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
