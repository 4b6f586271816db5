#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "tempest/core/tile_plan.hpp"
#include "tempest/grid/time_buffer.hpp"
#include "tempest/physics/acoustic.hpp"
#include "tempest/physics/elastic.hpp"
#include "tempest/sparse/survey.hpp"
#include "tempest/sparse/wavelet.hpp"

namespace tc = tempest::core;
namespace tg = tempest::grid;
namespace ph = tempest::physics;
namespace sp = tempest::sparse;
using tempest::real_t;

namespace {

struct Case {
  tg::Extents3 extents;
  int t_begin;
  int t_end;
  int radius;
  tc::DiamondSpec spec;
};

std::ostream& operator<<(std::ostream& os, const Case& c) {
  return os << c.extents << " t[" << c.t_begin << ',' << c.t_end
            << ") r=" << c.radius << " diamond(h=" << c.spec.height
            << ",w=" << c.spec.width << ")";
}

}  // namespace

class DiamondSchedule : public ::testing::TestWithParam<Case> {};

TEST_P(DiamondSchedule, IsLegalCoversEverythingOnce) {
  const Case& c = GetParam();
  const auto ops =
      tc::TilePlan::diamond(c.extents, c.t_begin, c.t_end, c.radius, c.spec)
          .ops();
  EXPECT_EQ(tc::validate_schedule(c.extents, c.t_begin, c.t_end, c.radius,
                                  ops),
            "")
      << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DiamondSchedule,
    ::testing::Values(
        Case{{16, 10, 4}, 1, 9, 1, {4, 8, 4, 4}},
        Case{{16, 10, 4}, 1, 9, 2, {2, 8, 4, 4}},
        Case{{24, 8, 4}, 1, 13, 2, {4, 16, 8, 8}},
        Case{{13, 9, 3}, 1, 11, 1, {3, 10, 4, 4}},   // odd extents
        Case{{8, 8, 2}, 0, 5, 2, {1, 4, 8, 8}},      // degenerate height 1
        Case{{40, 6, 2}, 1, 7, 3, {2, 12, 8, 8}},
        Case{{16, 10, 4}, 3, 4, 2, {4, 16, 8, 8}}));  // single timestep

TEST(DiamondSchedule, RejectsTooNarrowWidth) {
  const tg::Extents3 e{16, 8, 4};
  // width < 2*slope*height
  EXPECT_THROW(
      (void)tc::TilePlan::diamond(e, 1, 9, 2, tc::DiamondSpec{4, 8, 4, 4}),
      tempest::util::PreconditionError);
}

TEST(DiamondSchedule, UnderSlopedScheduleIsIllegal) {
  // Built with slope 1 but validated against radius 2: must violate.
  const tg::Extents3 e{24, 8, 4};
  const auto ops = tc::TilePlan::diamond(e, 1, 9, /*slope=*/1,
                                         tc::DiamondSpec{4, 16, 4, 4})
                       .ops();
  EXPECT_NE(tc::validate_schedule(e, 1, 9, /*radius=*/2, ops), "");
}

namespace {

/// Same toy stencil as wavefront_test: radius-1 damped averaging.
struct ToyStencil {
  tg::Extents3 e;
  tg::TimeBuffer<double> buf;

  explicit ToyStencil(tg::Extents3 extents)
      : e(extents), buf(3, extents, 1, 0.0) {
    for (int s : {0, 1}) {
      buf.slot(s).for_each_interior([&](int x, int y, int z) {
        buf.slot(s)(x, y, z) = 0.01 * (x + 1) * (s + 1) + 0.02 * y - 0.005 * z;
      });
    }
  }

  void block(int t, const tg::Box3& b) {
    auto& un = buf.at(t + 1);
    const auto& uc = buf.at(t);
    const auto& up = buf.at(t - 1);
    for (int x = b.x.lo; x < b.x.hi; ++x)
      for (int y = b.y.lo; y < b.y.hi; ++y)
        for (int z = b.z.lo; z < b.z.hi; ++z)
          un(x, y, z) =
              0.99 * uc(x, y, z) - 0.45 * up(x, y, z) +
              0.05 * (uc(x - 1, y, z) + uc(x + 1, y, z) + uc(x, y - 1, z) +
                      uc(x, y + 1, z) + uc(x, y, z - 1) + uc(x, y, z + 1));
  }
};

}  // namespace

TEST(DiamondNumerics, MatchesSpaceBlockedBitExact) {
  const tg::Extents3 e{18, 9, 5};
  const int nt = 12;
  const tc::TileSpec blocks{1, 64, 64, 4, 4};

  ToyStencil base(e);
  tc::execute(tc::TilePlan::space_blocked(e, 1, nt, blocks), 2,
              [&](int t, const tg::Box3& b) { base.block(t, b); });

  ToyStencil diam(e);
  tc::execute(
      tc::TilePlan::diamond(e, 1, nt, /*slope=*/1, tc::DiamondSpec{4, 10, 4, 4}),
      2, [&](int t, const tg::Box3& b) { diam.block(t, b); });

  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(tg::max_abs_diff(base.buf.slot(s), diam.buf.slot(s)), 0.0);
  }
}

TEST(DiamondAcoustic, MatchesBaselineWithSourcesAndReceivers) {
  const tg::Extents3 e{24, 20, 16};
  ph::Geometry g{e, 10.0, 4, 4};
  const auto model = ph::make_acoustic_layered(g, 1.5, 3.0, 3);
  const int nt = 20;
  sp::SparseTimeSeries src(sp::single_center_source(e, 0.4), nt);
  src.broadcast_signature(sp::ricker(nt, model.critical_dt(), 0.02));
  sp::SparseTimeSeries rec_base(sp::receiver_line(e, 4, 0.2, 4), nt);
  sp::SparseTimeSeries rec_diam = rec_base;

  ph::AcousticPropagator base(model);
  base.run(ph::Schedule::SpaceBlocked, src, &rec_base);
  const auto u_base = base.wavefield(nt);

  ph::PropagatorOptions opts;
  opts.tiles = tc::TileSpec{4, 16, 16, 4, 4};
  ph::AcousticPropagator diam(model, opts);
  diam.run(ph::Schedule::Diamond, src, &rec_diam);

  EXPECT_EQ(tg::max_abs_diff(u_base, diam.wavefield(nt)), 0.0);
  double scale = 1e-20;
  for (int t = 0; t < nt; ++t)
    for (int r = 0; r < rec_base.npoints(); ++r)
      scale = std::max(scale,
                       std::fabs(static_cast<double>(rec_base.at(t, r))));
  for (int t = 0; t < nt; ++t)
    for (int r = 0; r < rec_base.npoints(); ++r)
      EXPECT_NEAR(rec_diam.at(t, r), rec_base.at(t, r), 1e-5 * scale);
}

TEST(DiamondAcoustic, AutoWidensNarrowTiles) {
  // tile_x far below 2*radius*tile_t: the propagator widens the diamond
  // period instead of producing an illegal schedule.
  const tg::Extents3 e{24, 16, 12};
  ph::Geometry g{e, 10.0, 4, 4};
  const auto model = ph::make_acoustic_layered(g);
  const int nt = 12;
  sp::SparseTimeSeries src(sp::single_center_source(e, 0.4), nt);
  src.broadcast_signature(sp::ricker(nt, model.critical_dt(), 0.02));

  ph::AcousticPropagator base(model);
  base.run(ph::Schedule::SpaceBlocked, src, nullptr);
  const auto u_base = base.wavefield(nt);

  ph::PropagatorOptions opts;
  opts.tiles = tc::TileSpec{8, 4, 4, 4, 4};  // 4 << 2*2*8
  ph::AcousticPropagator diam(model, opts);
  diam.run(ph::Schedule::Diamond, src, nullptr);
  EXPECT_EQ(tg::max_abs_diff(u_base, diam.wavefield(nt)), 0.0);
}

TEST(DiamondElastic, StepCallbackRunsAtBandEnds) {
  // Two substeps per step: the callback sees the substep plan's band ends
  // divided by S = 2, in order, ending at nt, and the whole live state
  // there is the space-blocked run's state at that step, bit for bit.
  constexpr int S = 2;
  const tg::Extents3 e{16, 14, 12};
  ph::Geometry g{e, 10.0, 4, 4};
  const auto model = ph::make_elastic_layered(g, 1.5, 3.0, 3);
  const int nt = 14;
  sp::SparseTimeSeries src(sp::single_center_source(e, 0.4), nt);
  src.broadcast_signature(sp::ricker(nt, model.critical_dt(), 0.02));
  ph::PropagatorOptions opts;
  opts.tiles = tc::TileSpec{4, 8, 8, 4, 4};

  const auto live = [](const ph::ElasticPropagator& p, int t) {
    std::vector<tg::Grid3<real_t>> out;
    for (const tg::Grid3<real_t>* s : p.state_view(t, 0).slots) {
      out.push_back(*s);
    }
    return out;
  };
  std::map<int, std::vector<tg::Grid3<real_t>>> want;
  ph::ElasticPropagator base(model, opts);
  base.run(ph::Schedule::SpaceBlocked, src, nullptr,
           [&](int t_done) { want.emplace(t_done, live(base, t_done)); });

  tc::DiamondSpec dspec;
  dspec.height = S * opts.tiles.tile_t;
  dspec.width =
      std::max(opts.tiles.tile_x, 2 * model.geom.radius() * dspec.height);
  dspec.block_x = opts.tiles.block_x;
  dspec.block_y = opts.tiles.block_y;
  const tc::TilePlan plan =
      tc::TilePlan::diamond(e, 0, S * nt, model.geom.radius(), dspec);
  std::vector<int> band_ends;
  for (const tc::TileBand& band : plan.bands) band_ends.push_back(band.te / S);
  ASSERT_GE(band_ends.size(), 3u);
  ASSERT_EQ(band_ends.back(), nt);

  ph::ElasticPropagator p(model, opts);
  std::vector<int> seen;
  p.run(ph::Schedule::Diamond, src, nullptr, [&](int t_done) {
    seen.push_back(t_done);
    const auto got = live(p, t_done);
    const auto& ref = want.at(t_done);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(tg::max_abs_diff(got[i], ref[i]), 0.0)
          << "t_done=" << t_done << " slice " << i;
    }
  });
  EXPECT_EQ(seen, band_ends);
}
