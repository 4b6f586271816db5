// Figure 11 reproduction: cache-aware roofline for the isotropic acoustic
// kernel at space orders 4, 8, 12 — spatially-blocked baseline vs wave-front
// temporal blocking.
//
// Methodology (see DESIGN.md): machine ceilings come from microbenchmark
// calibration (cached in .tempest_ceilings.json per host fingerprint;
// --recalibrate forces a fresh run); per-kernel DRAM arithmetic intensity
// comes from replaying the kernel's exact address trace through the LRU
// cache simulator on a reduced grid with a proportionally scaled hierarchy;
// achieved GFLOP/s comes from a real timed run at bench scale with the
// analytic flop model. On machines with a hardware PMU the timed run also
// yields *measured* traffic (LLC / L1d miss x line size), giving measured
// bandwidth + AI columns and a model-vs-measured validation verdict per
// point; without one, those columns read 0/unavailable and the modelled
// numbers stand alone (exactly the degradation ISSUE.md requires).
//
// Paper shape to reproduce: the WTB points sit at *higher AI* than the
// baseline points (less DRAM traffic for the same flops) — at SO 4 breaking
// through the DRAM/L3 ceiling that caps the baseline — with the gap
// narrowing as the space order grows.
//
// Usage: fig11_roofline [--size=160] [--steps=N] [--so=4,8,12]
//                       [--sim-size=48] [--sim-steps=8] [--csv] [--full]
//                       [--recalibrate] [--json[=BENCH_fig11_roofline.json]]

#include "common.hpp"
#include "tempest/cachesim/instrumented_acoustic.hpp"
#include "tempest/perf/calibrate.hpp"
#include "tempest/perf/metrics.hpp"
#include "tempest/perf/report.hpp"
#include "tempest/perf/roofline.hpp"

int main(int argc, char** argv) {
  using namespace bench;
  const util::Cli cli(argc, argv);
  const BaseConfig cfg = BaseConfig::parse(cli, /*default_size=*/256);
  Session session("fig11_roofline", cli);
  const trace::Session trace_session(cfg.trace_path, cfg.metrics_path);
  const auto so_list = cli.get_int_list("so", {4, 8, 12});
  const int sim_size = static_cast<int>(cli.get_int("sim-size", 48));
  const int sim_steps = static_cast<int>(cli.get_int("sim-steps", 8));
  session.add_config("size", cfg.size);
  session.add_config("reps", cfg.reps);
  session.add_config("full", cfg.full);
  session.add_config("sim_size", sim_size);
  session.add_config("sim_steps", sim_steps);

  std::cerr << "calibrating machine ceilings (cached: .tempest_ceilings.json)"
            << "...\n";
  perf::Roofline roofline(perf::load_or_calibrate(
      /*quick=*/!cfg.full, /*force=*/cli.get_flag("recalibrate")));

  // Scaled-down hierarchy for the trace replay, preserving the *ratios*
  // that decide cache behaviour at bench scale: working-set:L3 ~= 1.35
  // (5 fields x 256^3 x 4B vs a 260 MB LLC) and L2:L3 ~= 1:128. Cache
  // geometry needs power-of-two set counts, so sizes round to the nearest
  // admissible value. The replay tile is likewise scaled so its live set
  // occupies the same fraction of the simulated L3 as the timed run's tile
  // does of the real one.
  const double fields_bytes = 5.0 * sim_size * sim_size * sim_size * 4.0;
  auto pow2_cache = [](double target_bytes, int ways) {
    std::uint64_t sets = 1;
    while (static_cast<double>(2 * sets) * ways * 64 <= target_bytes)
      sets *= 2;
    return cachesim::CacheConfig{sets * static_cast<std::uint64_t>(ways) * 64,
                                 ways, 64};
  };
  const cachesim::CacheConfig sl1{32 * 1024, 8, 64};
  const cachesim::CacheConfig sl2 = pow2_cache(fields_bytes / 1.35 / 128, 8);
  const cachesim::CacheConfig sl3 = pow2_cache(fields_bytes / 1.35, 16);
  const int sim_tile = std::max(8, sim_size / 4);

  util::Table table({"kernel", "schedule", "ai_dram", "gflops", "gpts",
                     "dram_roof_gflops", "ai_meas", "dram_gbps_meas",
                     "verdict"});

  for (long so : so_list) {
    const int nt = steps_for_kernel("acoustic", static_cast<int>(so),
                                    cfg.full, cli.get_int("steps", 0));
    physics::Geometry geom{cfg.extents(), 10.0, static_cast<int>(so),
                           cfg.nbl};
    const auto model = physics::make_acoustic_layered(geom);
    const double flops_pp =
        perf::acoustic_flops_per_point(static_cast<int>(so));

    for (bool wavefront : {false, true}) {
      // (1) Modelled DRAM/L2 traffic from the trace replay, per update.
      cachesim::TraceConfig trace;
      trace.extents = {sim_size, sim_size, sim_size};
      trace.space_order = static_cast<int>(so);
      trace.t_begin = 1;
      trace.t_end = 1 + sim_steps;
      trace.tiles = core::TileSpec{8, sim_tile, sim_tile, 8, 8};
      trace.wavefront = wavefront;
      cachesim::CacheHierarchy hierarchy(sl1, sl2, sl3);
      const long long sim_updates =
          cachesim::replay_acoustic_trace(trace, hierarchy);
      const double ai = static_cast<double>(sim_updates) * flops_pp /
                        hierarchy.traffic().dram_bytes;
      const double dram_bpp =
          hierarchy.traffic().dram_bytes / static_cast<double>(sim_updates);
      const double l2_bpp =
          hierarchy.traffic().l2_bytes / static_cast<double>(sim_updates);

      // (2) Achieved GFLOP/s (+ PMU traffic, where available) from a real
      // timed run.
      physics::PropagatorOptions opts;
      opts.tiles = core::TileSpec{8, 64, 64, 8, 8};
      physics::AcousticPropagator prop(model, opts);
      sparse::SparseTimeSeries src = make_source(geom.extents, nt, prop.dt());
      const std::string name = "acoustic-so" + std::to_string(so) +
                               (wavefront ? "-wtb" : "-baseline");
      CaseResult& c = measure(
          session, name,
          {{"kernel", "acoustic"}, {"so", std::to_string(so)},
           {"schedule", wavefront ? "wavefront" : "space_blocked"}},
          prop,
          wavefront ? physics::Schedule::Wavefront
                    : physics::Schedule::SpaceBlocked,
          src, nullptr, cfg.reps);
      const int nreps = static_cast<int>(c.rep_seconds.size());
      const physics::RunStats stats = best_stats(c);
      const double gflops =
          perf::gflops(stats.point_updates, flops_pp, stats.seconds);

      // The PMU window spans all reps: derive measured rates over the
      // total work and total wall time of that window.
      const long long total_updates = c.point_updates * nreps;
      const perf::DerivedRates rates =
          perf::derive_rates(total_updates, flops_pp, c.total_s(), c.pmu);

      // (3) Model-vs-measured: cachesim-predicted traffic scaled to the
      // timed run's update count vs PMU miss x line-size traffic.
      const perf::TrafficValidation vdram = perf::validate_traffic(
          name + "/dram", dram_bpp * static_cast<double>(total_updates),
          c.pmu.dram_bytes(), c.pmu.valid(perf::pmu::Event::LlcMisses));
      const perf::TrafficValidation vl2 = perf::validate_traffic(
          name + "/l2", l2_bpp * static_cast<double>(total_updates),
          c.pmu.l2_bytes(), c.pmu.valid(perf::pmu::Event::L1dMisses));
      session.add_validation(vdram);
      session.add_validation(vl2);

      c.derived["gflops_model"] = gflops;
      c.derived["ai_dram_model"] = ai;
      c.derived["dram_bytes_per_update_model"] = dram_bpp;
      c.derived["l2_bytes_per_update_model"] = l2_bpp;
      c.derived["measured_ai"] = rates.measured_ai;
      c.derived["measured_dram_gbps"] = rates.measured_dram_gbps;
      c.derived["measured_l2_gbps"] = rates.measured_l2_gbps;
      c.derived["ipc"] = rates.ipc;

      roofline.add_point({name, ai, gflops});
      if (rates.pmu_hardware) {
        roofline.add_point({name + "-measured", rates.measured_ai, gflops});
      }
      std::cerr << "  " << name << ": AI " << ai << ", " << gflops
                << " GFLOP/s (min " << c.min_s() << "s, median "
                << c.median_s() << "s); dram verdict "
                << perf::to_string(vdram.verdict) << " (ratio " << vdram.ratio
                << "), l2 verdict " << perf::to_string(vl2.verdict)
                << " (ratio " << vl2.ratio << ")\n";
      table.add_row({"acoustic-so" + std::to_string(so),
                     wavefront ? "wavefront" : "space-blocked",
                     util::Table::num(ai, 3), util::Table::num(gflops, 2),
                     util::Table::num(stats.gpoints_per_s(), 4),
                     util::Table::num(roofline.attainable_dram(ai), 2),
                     util::Table::num(rates.measured_ai, 3),
                     util::Table::num(rates.measured_dram_gbps, 2),
                     perf::to_string(vdram.verdict)});
    }
  }

  session.set_roofline(roofline);
  std::cout << "# Figure 11: cache-aware roofline, acoustic kernel ("
            << cfg.size << "^3 timed runs, " << sim_size
            << "^3 trace replay)\n";
  roofline.print(std::cout);
  emit(table, cfg.csv);
  return 0;
}
