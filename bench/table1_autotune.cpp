// Table I reproduction: optimal (tile_x, tile_y, block_x, block_y) shapes
// for the wave-front temporally blocked kernels after autotuning, per
// problem and space order.
//
// The paper swept the whole parameter space per (problem, order,
// architecture); the default here sweeps the symmetric subspace (the shape
// all but one of Table I's optima take) for tractable runtime, and
// --full-sweep enumerates asymmetric shapes exactly as the paper did.
//
// Usage: table1_autotune [--size=128] [--steps=N] [--so=4,8,12]
//                        [--kernels=acoustic,elastic,tti,vti]
//                        [--schedule=wavefront|diamond]
//                        [--tiles=32,64,128,256] [--blocks=4,8,16]
//                        [--tile-t=8] [--full-sweep] [--csv] [--full]
//                        [--json[=BENCH_table1_autotune.json]]
//
// --schedule picks which temporally blocked schedule the trial entry runs
// (both route through the same engine, so the same tile space applies).

#include <sstream>

#include "common.hpp"
#include "tempest/autotune/autotune.hpp"

namespace {

using namespace bench;

template <typename Model, typename Propagator>
tempest::autotune::SweepResult tune(const Model& model, int nt,
                                    const std::vector<core::TileSpec>& specs,
                                    int reps, physics::Schedule sched) {
  physics::PropagatorOptions opts;
  Propagator prop(model, opts);
  sparse::SparseTimeSeries src =
      make_source(model.geom.extents, nt, prop.dt());

  return tempest::autotune::sweep(
      specs,
      [&](const core::TileSpec& spec) {
        physics::PropagatorOptions o;
        o.tiles = spec;
        Propagator p(model, o);
        return p.run(sched, src, nullptr).seconds;
      },
      reps);
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const BaseConfig cfg = BaseConfig::parse(cli, /*default_size=*/192);
  Session session("table1_autotune", cli);
  const trace::Session trace_session(cfg.trace_path, cfg.metrics_path);
  const auto so_list = cli.get_int_list("so", {4, 8, 12});
  session.add_config("size", cfg.size);
  session.add_config("reps", cfg.reps);
  session.add_config("full_sweep", cli.get_flag("full-sweep"));
  const physics::Schedule sched =
      physics::schedule_from_string(cli.get("schedule", "wavefront"));
  session.add_config("schedule", std::string(physics::to_string(sched)));

  tempest::autotune::CandidateSpace space;
  space.symmetric = !cli.get_flag("full-sweep");
  {
    const auto t = cli.get_int_list("tiles", {32, 64, 128, 256});
    space.tile_sizes.assign(t.begin(), t.end());
    const auto b = cli.get_int_list("blocks", {4, 8, 16});
    space.block_sizes.assign(b.begin(), b.end());
    const auto tt = cli.get_int_list("tile-t", {8});
    space.tile_t.assign(tt.begin(), tt.end());
  }
  const auto specs = tempest::autotune::candidates(cfg.extents(), space);
  std::cerr << "sweeping " << specs.size() << " tile shapes per problem\n";

  util::Table table({"problem", "tile_x", "tile_y", "block_x", "block_y",
                     "tile_t", "best_s"});
  std::stringstream kernels_ss(cli.get("kernels", "acoustic,elastic,tti"));
  std::string kernel;
  while (std::getline(kernels_ss, kernel, ',')) {
    for (long so : so_list) {
      const int nt = steps_for_kernel(kernel, cfg.full,
                                      cli.get_int("steps", 0));
      physics::Geometry geom{
          cfg.extents(), (kernel == "tti" || kernel == "vti") ? 20.0 : 10.0,
          static_cast<int>(so), cfg.nbl};
      tempest::autotune::SweepResult result;
      std::string label;
      if (kernel == "acoustic") {
        label = "Acoustic O(2," + std::to_string(so) + ")";
        result = tune<physics::AcousticModel, physics::AcousticPropagator>(
            physics::make_acoustic_layered(geom), nt, specs, cfg.reps, sched);
      } else if (kernel == "elastic") {
        label = "Elastic O(1," + std::to_string(so) + ")";
        result = tune<physics::ElasticModel, physics::ElasticPropagator>(
            physics::make_elastic_layered(geom), nt, specs, cfg.reps, sched);
      } else if (kernel == "vti") {
        label = "VTI O(2," + std::to_string(so) + ")";
        physics::TTIModel model = physics::make_tti_layered(geom);
        model.theta.fill(0.0f);
        model.phi.fill(0.0f);
        result = tune<physics::TTIModel, physics::VTIPropagator>(
            model, nt, specs, cfg.reps, sched);
      } else {
        label = "TTI O(2," + std::to_string(so) + ")";
        result = tune<physics::TTIModel, physics::TTIPropagator>(
            physics::make_tti_layered(geom), nt, specs, cfg.reps, sched);
      }
      const core::TileSpec& b = result.best.spec;
      std::cerr << "  " << label << " -> tile " << b.tile_x << 'x' << b.tile_y
                << " block " << b.block_x << 'x' << b.block_y << " ("
                << result.best.seconds << " s)\n";

      // Record the winning shape (and the PMU evidence for *why* it won:
      // the best candidate should carry the lowest LLC-miss traffic).
      CaseResult c;
      c.name = label;
      c.tags = {{"kernel", kernel},
                {"so", std::to_string(so)},
                {"tile_x", std::to_string(b.tile_x)},
                {"tile_y", std::to_string(b.tile_y)},
                {"block_x", std::to_string(b.block_x)},
                {"block_y", std::to_string(b.block_y)},
                {"tile_t", std::to_string(b.tile_t)}};
      c.rep_seconds.push_back(result.best.seconds);
      c.reps_traced = trace::enabled();
      c.pmu = result.best.pmu;
      c.derived["candidates_evaluated"] =
          static_cast<double>(result.evaluated.size());
      if (c.pmu.valid(tempest::perf::pmu::Event::LlcMisses)) {
        c.derived["best_llc_misses"] = static_cast<double>(
            c.pmu[tempest::perf::pmu::Event::LlcMisses]);
      }
      session.add_case(std::move(c));
      table.add_row({label, std::to_string(b.tile_x),
                     std::to_string(b.tile_y), std::to_string(b.block_x),
                     std::to_string(b.block_y), std::to_string(b.tile_t),
                     util::Table::num(result.best.seconds, 3)});
    }
  }

  std::cout << "# Table I: optimal tile-block shapes after tuning WTB ("
            << cfg.size << "^3 grid)\n";
  emit(table, cfg.csv);
  return 0;
}
