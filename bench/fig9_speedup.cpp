// Figure 9 reproduction: throughput speed-up of wave-front temporal blocking
// over the spatially-blocked vectorized baseline, for isotropic acoustic,
// isotropic elastic and TTI at space orders 4, 8, 12.
//
// The paper reports two Azure VM architectures (Broadwell / Skylake); this
// harness measures one column on the host machine (substitution documented
// in DESIGN.md). The reproduced *shape*: clear gains at SO 4 (paper: up to
// ~1.6x acoustic), moderate at SO 8 (~1.13x+), near-parity at SO 12.
//
// Usage: fig9_speedup [--size=160] [--steps=N] [--so=4,8,12] [--reps=2]
//                     [--kernels=acoustic,elastic,tti] [--tiles=tt,tx,ty]
//                     [--threads=N] [--csv] [--full]
//                     [--json[=BENCH_fig9_speedup.json]]
//
// --threads=N runs both schedules task-parallel on N workers (0 = resolve
// from $TEMPEST_THREADS, else the hardware thread count). The resolved
// count, the engaged task backend and each case's tile shape ride in the
// JSON so multi-threaded numbers are never mistaken for serial ones —
// scripts/bench_check.py cross-checks those fields against each other.

#include <sstream>

#include "common.hpp"
#include "tempest/util/threads.hpp"

namespace {

using namespace bench;

struct Row {
  std::string kernel;
  int so;
  double base_gpts;
  double wave_gpts;
  double precompute_s;
};

core::TileSpec tiles_for(const util::Cli& cli, const std::string& kernel,
                         int so) {
  if (!cli.has("tiles")) return default_tiles(kernel, so);
  const auto t = cli.get_int_list("tiles", {8, 64, 64});
  core::TileSpec spec;
  spec.tile_t = static_cast<int>(t.size() > 0 ? t[0] : 8);
  spec.tile_x = static_cast<int>(t.size() > 1 ? t[1] : 64);
  spec.tile_y = static_cast<int>(t.size() > 2 ? t[2] : spec.tile_x);
  spec.block_x = 8;
  spec.block_y = 8;
  return spec;
}

std::string tile_shape_str(const core::TileSpec& t) {
  return std::to_string(t.tile_t) + "x" + std::to_string(t.tile_x) + "x" +
         std::to_string(t.tile_y);
}

template <typename Model, typename Propagator>
Row run_kernel(Session& session, const std::string& name, const Model& model,
               int so, int nt, const core::TileSpec& tiles, int threads,
               int reps) {
  physics::PropagatorOptions opts;
  opts.tiles = tiles;
  opts.threads = threads;
  Propagator prop(model, opts);

  sparse::SparseTimeSeries src =
      make_source(model.geom.extents, nt, prop.dt());
  sparse::SparseTimeSeries rec = make_receivers(model.geom.extents, nt);

  const std::string so_s = std::to_string(so);
  const std::string threads_s = std::to_string(threads);
  const std::string shape = tile_shape_str(tiles);
  const CaseResult& base =
      measure(session, name + "_so" + so_s + "_base",
              {{"kernel", name},
               {"so", so_s},
               {"schedule", "space_blocked"},
               {"threads", threads_s},
               {"tile_shape", shape}},
              prop, physics::Schedule::SpaceBlocked, src, &rec, reps);
  const CaseResult& wave =
      measure(session, name + "_so" + so_s + "_wtb",
              {{"kernel", name},
               {"so", so_s},
               {"schedule", "wavefront"},
               {"threads", threads_s},
               {"tile_shape", shape}},
              prop, physics::Schedule::Wavefront, src, &rec, reps);
  const physics::RunStats base_s = best_stats(base);
  const physics::RunStats wave_s = best_stats(wave);
  std::cerr << "  " << name << " O(" << (name == "elastic" ? 1 : 2) << ','
            << so << "): base " << base_s.gpoints_per_s()
            << " GPts/s (min " << base.min_s() << "s, median "
            << base.median_s() << "s), wtb " << wave_s.gpoints_per_s()
            << " GPts/s (min " << wave.min_s() << "s, median "
            << wave.median_s() << "s)\n";
  return Row{name, so, base_s.gpoints_per_s(), wave_s.gpoints_per_s(),
             wave_s.precompute_seconds};
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const BaseConfig cfg = BaseConfig::parse(cli, /*default_size=*/256);
  Session session("fig9_speedup", cli);
  const trace::Session trace_session(cfg.trace_path, cfg.metrics_path);
  const auto so_list = cli.get_int_list("so", {4, 8, 12});
  std::stringstream kernels_ss(
      cli.get("kernels", "acoustic,elastic,tti"));
  // Resolved once: 1 is the deterministic serial engine; anything above
  // engages the task backend reported alongside (bench_check.py rejects a
  // multi-thread document whose backend claims otherwise).
  const int threads = util::resolve_threads(cli.get_int("threads", 0));
  session.add_config("size", cfg.size);
  session.add_config("reps", cfg.reps);
  session.add_config("full", cfg.full);
  session.add_config("kernels", cli.get("kernels", "acoustic,elastic,tti"));
  session.add_config("threads", threads);
  session.add_config("task_backend",
                     std::string(util::to_string(util::select_backend(threads))));

  util::Table table({"kernel", "space_order", "baseline_gpts", "wtb_gpts",
                     "speedup", "precompute_s"});

  std::string kernel;
  while (std::getline(kernels_ss, kernel, ',')) {
    for (long so : so_list) {
      const int nt = steps_for_kernel(kernel, static_cast<int>(so), cfg.full,
                                      cli.get_int("steps", 0));
      physics::Geometry geom{cfg.extents(), kernel == "tti" ? 20.0 : 10.0,
                             static_cast<int>(so), cfg.nbl};
      Row row{};
      const core::TileSpec tiles =
          tiles_for(cli, kernel, static_cast<int>(so));
      if (kernel == "acoustic") {
        const auto model = physics::make_acoustic_layered(geom);
        row = run_kernel<physics::AcousticModel, physics::AcousticPropagator>(
            session, kernel, model, static_cast<int>(so), nt, tiles, threads,
            cfg.reps);
      } else if (kernel == "elastic") {
        const auto model = physics::make_elastic_layered(geom);
        row = run_kernel<physics::ElasticModel, physics::ElasticPropagator>(
            session, kernel, model, static_cast<int>(so), nt, tiles, threads,
            cfg.reps);
      } else if (kernel == "tti") {
        const auto model = physics::make_tti_layered(geom);
        row = run_kernel<physics::TTIModel, physics::TTIPropagator>(
            session, kernel, model, static_cast<int>(so), nt, tiles, threads,
            cfg.reps);
      } else {
        std::cerr << "unknown kernel: " << kernel << "\n";
        return 1;
      }
      table.add_row({row.kernel, std::to_string(row.so),
                     util::Table::num(row.base_gpts, 4),
                     util::Table::num(row.wave_gpts, 4),
                     util::Table::num(row.wave_gpts / row.base_gpts, 3),
                     util::Table::num(row.precompute_s, 3)});
    }
  }

  std::cout << "# Figure 9: WTB speed-up vs spatially-blocked baseline ("
            << cfg.size << "^3 grid)\n";
  emit(table, cfg.csv);
  return 0;
}
