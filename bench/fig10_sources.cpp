// Figure 10 reproduction: WTB speed-up for the isotropic acoustic operator
// (space order 4) as the number of off-the-grid sources grows, in the two
// corner-case geometries of Section IV.E:
//   (a) sources scattered sparsely over one x-y plane slice,
//   (b) sources densely and uniformly distributed over the whole volume.
//
// Paper shape to reproduce: gains are essentially flat with source count for
// the sparse-plane case, and erode — but do not vanish — for the dense case
// (paper: ~1.4x dense vs ~1.55x sparse at the largest counts).
//
// Usage: fig10_sources [--size=160] [--steps=N] [--counts=1,4,16,64,256,1024]
//                      [--reps=2] [--tiles=8,64,64] [--csv] [--full]
//                      [--json[=BENCH_fig10_sources.json]]

#include "common.hpp"
#include "tempest/core/precompute.hpp"

int main(int argc, char** argv) {
  using namespace bench;
  const util::Cli cli(argc, argv);
  const BaseConfig cfg = BaseConfig::parse(cli, /*default_size=*/256);
  Session session("fig10_sources", cli);
  const trace::Session trace_session(cfg.trace_path, cfg.metrics_path);
  const int so = 4;
  const int nt = steps_for_kernel("acoustic", cfg.full,
                                  cli.get_int("steps", 0));
  const auto counts = cli.get_int_list("counts", {1, 4, 16, 64, 256, 1024});
  const auto t = cli.get_int_list("tiles", {8, 64, 64});
  core::TileSpec tiles{static_cast<int>(t[0]),
                       static_cast<int>(t.size() > 1 ? t[1] : 64),
                       static_cast<int>(t.size() > 2 ? t[2] : 64), 8, 8};

  session.add_config("size", cfg.size);
  session.add_config("steps", nt);
  session.add_config("reps", cfg.reps);
  session.add_config("full", cfg.full);

  physics::Geometry geom{cfg.extents(), 10.0, so, cfg.nbl};
  const auto model = physics::make_acoustic_layered(geom);

  physics::PropagatorOptions opts;
  opts.tiles = tiles;
  physics::AcousticPropagator prop(model, opts);
  const double dt = prop.dt();
  const auto wavelet = sparse::ricker(nt, dt, 0.010);

  util::Table table({"geometry", "n_sources", "npts", "baseline_gpts",
                     "wtb_gpts", "speedup", "precompute_s"});

  for (const char* geometry : {"sparse-plane", "dense-volume"}) {
    for (long n : counts) {
      sparse::CoordList coords =
          std::string(geometry) == "sparse-plane"
              ? sparse::plane_scatter(geom.extents, static_cast<int>(n),
                                      /*seed=*/1234, 0.1, cfg.nbl)
              : sparse::dense_volume(geom.extents, static_cast<int>(n),
                                     /*seed=*/1234, cfg.nbl);
      sparse::SparseTimeSeries src(std::move(coords), nt);
      src.broadcast_signature(wavelet);
      sparse::SparseTimeSeries rec = make_receivers(geom.extents, nt);

      const int npts = core::build_affected_points(
                           geom.extents, src, sparse::InterpKind::Trilinear)
                           .npts;

      const std::string n_s = std::to_string(n);
      const CaseResult& base_c = measure(
          session, std::string(geometry) + "_n" + n_s + "_base",
          {{"geometry", geometry}, {"n_sources", n_s},
           {"schedule", "space_blocked"}},
          prop, physics::Schedule::SpaceBlocked, src, &rec, cfg.reps);
      const CaseResult& wave_c = measure(
          session, std::string(geometry) + "_n" + n_s + "_wtb",
          {{"geometry", geometry}, {"n_sources", n_s},
           {"schedule", "wavefront"}},
          prop, physics::Schedule::Wavefront, src, &rec, cfg.reps);
      const physics::RunStats base = best_stats(base_c);
      const physics::RunStats wave = best_stats(wave_c);
      std::cerr << "  " << geometry << " n=" << n << " npts=" << npts
                << ": " << base.gpoints_per_s() << " -> "
                << wave.gpoints_per_s() << " GPts/s (wtb min "
                << wave_c.min_s() << "s, median " << wave_c.median_s()
                << "s)\n";

      table.add_row({geometry, std::to_string(n), std::to_string(npts),
                     util::Table::num(base.gpoints_per_s(), 4),
                     util::Table::num(wave.gpoints_per_s(), 4),
                     util::Table::num(
                         wave.gpoints_per_s() / base.gpoints_per_s(), 3),
                     util::Table::num(wave.precompute_seconds, 3)});
    }
  }

  std::cout << "# Figure 10: acoustic SO4 speed-up over source count ("
            << cfg.size << "^3 grid)\n";
  emit(table, cfg.csv);
  return 0;
}
