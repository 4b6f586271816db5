// Cross-schedule equivalence matrix: {reference, space-blocked, wavefront,
// fused, diamond} x {acoustic, TTI, VTI, elastic} x space orders {4, 8}. Every
// legal schedule of the same problem must produce the same physics AND do
// the same amount of work — the tempest::trace counters are the work
// oracle (a schedule that skips or double-visits cells cannot match the
// reference sweep's CellsUpdated).
//
// "fused" is wavefront with tile_t = 1: temporal blocking degenerates to a
// per-timestep sweep that still runs the fused (decomposed + compressed)
// sparse operators, isolating the sparse-pipeline half of the paper from
// the temporal-blocking half.
//
// The single centre source keeps SourcesInjected comparable between the
// naive and fused paths: the fused decomposition pre-sums contributions
// where supports overlap, so per-grid-point update counts agree only when
// no two sources share a support point (see trace.hpp).

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "tempest/physics/acoustic.hpp"
#include "tempest/physics/elastic.hpp"
#include "tempest/physics/tti.hpp"
#include "tempest/physics/vti.hpp"
#include "tempest/sparse/survey.hpp"
#include "tempest/sparse/wavelet.hpp"
#include "tempest/trace/trace.hpp"

namespace ph = tempest::physics;
namespace sp = tempest::sparse;
namespace tg = tempest::grid;
namespace tc = tempest::core;
namespace tr = tempest::trace;
using tempest::real_t;

namespace {

enum class Variant { Reference, SpaceBlocked, Wavefront, Fused, Diamond };

const char* to_string(Variant v) {
  switch (v) {
    case Variant::Reference: return "reference";
    case Variant::SpaceBlocked: return "spaceblocked";
    case Variant::Wavefront: return "wavefront";
    case Variant::Fused: return "fused";
    case Variant::Diamond: return "diamond";
  }
  return "?";
}

struct Case {
  const char* kernel;  // "acoustic" | "tti" | "vti" | "elastic"
  Variant variant;
  int so;
};

std::ostream& operator<<(std::ostream& os, const Case& c) {
  return os << c.kernel << '/' << to_string(c.variant) << "/so" << c.so;
}

/// Everything one run produces that another schedule must reproduce.
struct Artifacts {
  std::vector<tg::Grid3<real_t>> fields;
  sp::SparseTimeSeries rec;
  tr::CounterSnapshot counters{};
};

ph::PropagatorOptions options_for(Variant v) {
  ph::PropagatorOptions opts;
  opts.tiles = v == Variant::Fused ? tc::TileSpec{1, 8, 8, 4, 4}
                                   : tc::TileSpec{4, 8, 8, 4, 4};
  return opts;
}

ph::Schedule schedule_for(Variant v) {
  switch (v) {
    case Variant::Reference: return ph::Schedule::Reference;
    case Variant::SpaceBlocked: return ph::Schedule::SpaceBlocked;
    case Variant::Diamond: return ph::Schedule::Diamond;
    default: return ph::Schedule::Wavefront;
  }
}

/// Run one (kernel, variant, order) cell of the matrix with the trace
/// counters armed, and collect the artifacts.
Artifacts run_cell(const Case& c) {
  Artifacts out;
  tr::set_enabled(true);
  tr::reset();
  const ph::PropagatorOptions opts = options_for(c.variant);
  const ph::Schedule sched = schedule_for(c.variant);

  if (std::string(c.kernel) == "acoustic") {
    const tg::Extents3 e{20, 18, 16};
    const int nt = 12;
    ph::Geometry g{e, 10.0, c.so, /*nbl=*/4};
    const ph::AcousticModel model = ph::make_acoustic_layered(g, 1.5, 3.0, 3);
    sp::SparseTimeSeries src(sp::single_center_source(e, 0.4), nt);
    src.broadcast_signature(sp::ricker(nt, model.critical_dt(), 0.015));
    out.rec = sp::SparseTimeSeries(sp::receiver_line(e, 5, 0.15, 3), nt);
    ph::AcousticPropagator prop(model, opts);
    prop.run(sched, src, &out.rec);
    out.fields.push_back(prop.wavefield(nt));
  } else if (std::string(c.kernel) == "tti") {
    const tg::Extents3 e{16, 14, 12};
    const int nt = 12;
    ph::Geometry g{e, 20.0, c.so, /*nbl=*/4};
    const ph::TTIModel model = ph::make_tti_layered(g, 1.5, 3.0, 3);
    sp::SparseTimeSeries src(sp::single_center_source(e, 0.4), nt);
    src.broadcast_signature(sp::ricker(nt, model.critical_dt(), 0.015));
    out.rec = sp::SparseTimeSeries(sp::receiver_line(e, 4, 0.15, 3), nt);
    ph::TTIPropagator prop(model, opts);
    prop.run(sched, src, &out.rec);
    out.fields.push_back(prop.wavefield_p(nt));
    out.fields.push_back(prop.wavefield_q(nt));
  } else if (std::string(c.kernel) == "vti") {
    const tg::Extents3 e{16, 14, 12};
    const int nt = 12;
    ph::Geometry g{e, 20.0, c.so, /*nbl=*/4};
    ph::TTIModel model = ph::make_tti_layered(g, 1.5, 3.0, 3);
    model.theta.fill(0.0f);  // untilted: a genuine VTI medium
    model.phi.fill(0.0f);
    sp::SparseTimeSeries src(sp::single_center_source(e, 0.4), nt);
    src.broadcast_signature(sp::ricker(nt, model.critical_dt(), 0.015));
    out.rec = sp::SparseTimeSeries(sp::receiver_line(e, 4, 0.15, 3), nt);
    ph::VTIPropagator prop(model, opts);
    prop.run(sched, src, &out.rec);
    out.fields.push_back(prop.wavefield_p(nt));
    out.fields.push_back(prop.wavefield_q(nt));
  } else {
    const tg::Extents3 e{16, 14, 12};
    const int nt = 12;
    ph::Geometry g{e, 10.0, c.so, /*nbl=*/4};
    const ph::ElasticModel model = ph::make_elastic_layered(g, 1.5, 3.0, 3);
    sp::SparseTimeSeries src(sp::single_center_source(e, 0.4), nt);
    src.broadcast_signature(sp::ricker(nt, model.critical_dt(), 0.015));
    out.rec = sp::SparseTimeSeries(sp::receiver_line(e, 4, 0.15, 3), nt);
    ph::ElasticPropagator prop(model, opts);
    prop.run(sched, src, &out.rec);
    out.fields.push_back(prop.vz());
    out.fields.push_back(prop.tzz());
    out.fields.push_back(prop.txy());
  }

  out.counters = tr::snapshot();
  tr::set_enabled(false);
  return out;
}

long long at(const tr::CounterSnapshot& s, tr::Counter c) {
  return s[static_cast<std::size_t>(static_cast<int>(c))];
}

}  // namespace

class ScheduleMatrix : public ::testing::TestWithParam<Case> {};

TEST_P(ScheduleMatrix, MatchesReferencePhysicsAndWork) {
  const Case& c = GetParam();
  const Case ref_case{c.kernel, Variant::Reference, c.so};
  const Artifacts ref = run_cell(ref_case);
  const Artifacts got = run_cell(c);

  // Wavefields: identical per-point arithmetic for a single source means
  // every schedule reproduces the reference field bit-exactly.
  ASSERT_EQ(ref.fields.size(), got.fields.size());
  for (std::size_t i = 0; i < ref.fields.size(); ++i) {
    EXPECT_EQ(tg::max_abs_diff(ref.fields[i], got.fields[i]), 0.0)
        << GetParam() << " field " << i;
  }

  // Gathers: the fused gather accumulates in compressed-column order, the
  // naive one per receiver, so the sums associate differently.
  double scale = 1e-20;
  for (int t = 0; t < ref.rec.nt(); ++t)
    for (int r = 0; r < ref.rec.npoints(); ++r)
      scale = std::max(scale,
                       std::fabs(static_cast<double>(ref.rec.at(t, r))));
  for (int t = 0; t < ref.rec.nt(); ++t)
    for (int r = 0; r < ref.rec.npoints(); ++r)
      EXPECT_NEAR(got.rec.at(t, r), ref.rec.at(t, r), 1e-5 * scale)
          << GetParam() << " t=" << t << " r=" << r;

  // Work accounting: every legal schedule performs exactly the same cell
  // updates, source-injection updates, and interpolation applications.
  EXPECT_EQ(at(got.counters, tr::Counter::CellsUpdated),
            at(ref.counters, tr::Counter::CellsUpdated))
      << GetParam();
  EXPECT_EQ(at(got.counters, tr::Counter::SourcesInjected),
            at(ref.counters, tr::Counter::SourcesInjected))
      << GetParam();
  EXPECT_EQ(at(got.counters, tr::Counter::ReceiversInterpolated),
            at(ref.counters, tr::Counter::ReceiversInterpolated))
      << GetParam();

#if !defined(TEMPEST_TRACE_DISABLED)
  // The oracle must have teeth: zero counts would make the equalities above
  // vacuous (e.g. when tracing failed to arm).
  EXPECT_GT(at(ref.counters, tr::Counter::CellsUpdated), 0) << GetParam();
  EXPECT_GT(at(ref.counters, tr::Counter::SourcesInjected), 0) << GetParam();
  EXPECT_GT(at(ref.counters, tr::Counter::ReceiversInterpolated), 0)
      << GetParam();
  // Every schedule executes a TilePlan, so every one counts its tasks and
  // bands.
  EXPECT_GT(at(got.counters, tr::Counter::TilesExecuted), 0) << GetParam();
  EXPECT_GT(at(got.counters, tr::Counter::BandsExecuted), 0) << GetParam();
#endif
}

namespace {

std::vector<Case> matrix_cases() {
  std::vector<Case> cases;
  for (const char* kernel : {"acoustic", "tti", "vti", "elastic"}) {
    for (const int so : {4, 8}) {
      for (const Variant v :
           {Variant::Reference, Variant::SpaceBlocked, Variant::Wavefront,
            Variant::Fused, Variant::Diamond}) {
        cases.push_back({kernel, v, so});
      }
    }
  }
  return cases;
}

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  return std::string(info.param.kernel) + "_" +
         to_string(info.param.variant) + "_so" +
         std::to_string(info.param.so);
}

}  // namespace

INSTANTIATE_TEST_SUITE_P(Matrix, ScheduleMatrix,
                         ::testing::ValuesIn(matrix_cases()), case_name);
