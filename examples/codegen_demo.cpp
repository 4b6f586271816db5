// Code-generation demo: the Devito workflow taken all the way — emit the C
// update of one box for the acoustic operator (FD weights baked in as
// literals), compile it with the system C compiler at run time, load it,
// and run one wave-front shot with it on the engine, next to the library's
// ahead-of-time kernel and the DslKernel tape of the same equation: same
// schedule, tiles and threads ($TEMPEST_THREADS). Prints each kernel's
// compile seconds and GPts/s, and checks the JIT (to rounding) and the
// tape (bit for bit) against the AOT kernel.
//
// Build & run:  ./build/examples/codegen_demo [--size=96] [--steps=60]
//               [--so=4] [--show-source]

#include <iostream>
#include <sstream>
#include <string>

#include "tempest/codegen/jit.hpp"
#include "tempest/dsl/kernel.hpp"
#include "tempest/physics/acoustic.hpp"
#include "tempest/sparse/survey.hpp"
#include "tempest/sparse/wavelet.hpp"
#include "tempest/util/cli.hpp"
#include "tempest/util/table.hpp"
#include "tempest/util/threads.hpp"
#include "tempest/util/timer.hpp"

namespace {

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(4);
  os << v;
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tempest;
  const util::Cli cli(argc, argv);
  const int n = static_cast<int>(cli.get_int("size", 96));
  const int nt = static_cast<int>(cli.get_int("steps", 60));
  const int so = static_cast<int>(cli.get_int("so", 4));

  physics::Geometry geom{{n, n, n}, 10.0, so, 8};
  const auto model = physics::make_acoustic_layered(geom, 1.5, 3.0, 4);
  sparse::SparseTimeSeries src(sparse::single_center_source(geom.extents),
                               nt);
  src.broadcast_signature(sparse::ricker(nt, model.critical_dt(), 0.012));

  const physics::Schedule sched = physics::Schedule::Wavefront;
  physics::PropagatorOptions opts;
  opts.tiles = core::TileSpec{8, 32, 32, 8, 8};
  std::cout << "one " << physics::to_string(sched) << " shot, " << n << "^3 x "
            << nt << " steps, SO" << so << ", tiles 8/32x32/8x8, "
            << util::resolve_threads(opts.threads) << " thread(s)\n";

  util::Timer timer;
  physics::AcousticPropagator aot(model, opts);
  const double aot_build_s = timer.seconds();

  codegen::KernelSpec spec;
  spec.space_order = so;
  timer.reset();
  codegen::JitAcoustic jit(model, spec, opts);
  const double jit_build_s = timer.seconds();
  if (cli.get_flag("show-source")) {
    std::cout << "\n----- generated C -----\n"
              << jit.source_code() << "-----------------------\n";
  }

  dsl::Grid grid;
  dsl::TimeFunction u("u", grid, so, 2);
  const dsl::Eq eq = dsl::solve(dsl::param("m") * u.dt2() +
                                    dsl::param("damp") * u.dt() - u.laplace(),
                                u.forward());
  timer.reset();
  dsl::DslPropagator tape(eq, model, opts);
  const double tape_build_s = timer.seconds();

  const physics::RunStats aot_run = aot.run(sched, src);
  const physics::RunStats jit_run = jit.run(sched, src);
  const physics::RunStats tape_run = tape.run(sched, src);

  const auto& u_aot = aot.wavefield(nt);
  const double umax = grid::max_abs(u_aot);
  const double jit_diff = grid::max_abs_diff(u_aot, jit.wavefield(nt));
  const double tape_diff = grid::max_abs_diff(u_aot, tape.wavefield(nt));

  util::Table table({"kernel", "compile s", "run s", "GPts/s", "max|diff|/max"});
  table.add_row({"aot", fmt(aot_build_s), fmt(aot_run.seconds),
                 fmt(aot_run.gpoints_per_s()), "-"});
  table.add_row({jit.compiled() ? "jit" : "jit (fell back to aot)",
                 fmt(jit_build_s), fmt(jit_run.seconds),
                 fmt(jit_run.gpoints_per_s()), fmt(jit_diff / umax)});
  table.add_row({"tape", fmt(tape_build_s), fmt(tape_run.seconds),
                 fmt(tape_run.gpoints_per_s()), fmt(tape_diff / umax)});
  table.print_ascii(std::cout);
  std::cout << "compile s: constructor wall time (aot: nothing to build; "
               "jit: emit + cc + dlopen; tape: lowering + statics)\n";
  return umax > 0.0 && jit_diff < 1e-5 * umax && tape_diff == 0.0 ? 0 : 1;
}
