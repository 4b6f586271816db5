// ir_lint — the statics sweep CLI: runs the analysis::statics passes
// (interval abstract interpretation, von Neumann/CFL stability proof, IR
// lint, tile-interference race proof) over every kernel the repo ships —
// the four hand-written physics kernels by their declared access
// summaries, and the DSL-lowered kernels (dsl-acoustic and the
// Generic-class dsl-sponge) by their actual IR trees — under every
// schedule family.
//
// Exit code contract (how scripts/check.sh --analyze and the CI analyze
// job consume it):
//   * sweep mode: nonzero iff any statics pass reports an Error or any
//     schedule's interference proof finds a conflict — i.e. a false
//     positive of the verification layer on known-good kernels.
//   * --seeded mode: runs fixtures that are wrong *by construction*
//     (a dt beyond the stability bound, a load beyond the declared halo,
//     a wavefront band whose skew undershoots the stencil radius, a
//     wavefront plan with one staircase edge dropped, a two-slot in-place
//     buffer whose u[t-1] read reaches off-centre) and returns nonzero
//     iff any of them is NOT rejected — proving the gates
//     actually reject, with structured diagnostics naming the offending
//     bound / offset / tile pair.
//
// Usage: ir_lint [--csv] [--so=N[,N...]] [--seeded]

#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "tempest/analysis/statics/interference.hpp"
#include "tempest/analysis/statics/verify.hpp"
#include "tempest/dsl/expr.hpp"
#include "tempest/dsl/ir.hpp"
#include "tempest/dsl/lower.hpp"
#include "tempest/physics/acoustic.hpp"
#include "tempest/physics/elastic.hpp"
#include "tempest/physics/tti.hpp"
#include "tempest/physics/vti.hpp"
#include "tempest/util/table.hpp"

namespace {

namespace statics = tempest::analysis::statics;
namespace dsl = tempest::dsl;
using tempest::analysis::AccessSummary;
using tempest::analysis::Diagnostic;
using tempest::analysis::ScheduleDescriptor;

struct Entry {
  AccessSummary summary;
  std::optional<dsl::LoweredKernel> lowered;
};

std::vector<ScheduleDescriptor> schedules(int slope) {
  return {ScheduleDescriptor::reference(), ScheduleDescriptor::space_blocked(),
          ScheduleDescriptor::wavefront(slope), ScheduleDescriptor::fused(slope),
          ScheduleDescriptor::diamond(slope)};
}

dsl::LoweredKernel lower_dsl(const char* damp_name, const char* kernel,
                             int space_order, double dt) {
  dsl::Grid g;
  dsl::TimeFunction u("u", g, space_order, 2);
  const dsl::Eq eq = dsl::solve(dsl::param("m") * u.dt2() +
                                    dsl::param(damp_name) * u.dt() -
                                    u.laplace(),
                                u.forward());
  return dsl::lower_kernel(eq, space_order, /*spacing=*/10.0, dt, kernel);
}

std::vector<Entry> kernels_at(int so) {
  std::vector<Entry> out = {
      {tempest::physics::acoustic_access_summary(so), std::nullopt},
      {tempest::physics::tti_access_summary(so), std::nullopt},
      {tempest::physics::vti_access_summary(so), std::nullopt},
      {tempest::physics::elastic_access_summary(so), std::nullopt},
  };
  // dt = 0.5 ms at h = 10 m is stable at every swept order under the
  // conventional velocity interval: the sweep asserts *zero* errors.
  dsl::LoweredKernel ac = lower_dsl("damp", "dsl-acoustic", so, 0.5);
  dsl::LoweredKernel sp = lower_dsl("eta", "dsl-sponge", so, 0.5);
  out.push_back({ac.summary(), std::move(ac)});
  out.push_back({sp.summary(), std::move(sp)});
  return out;
}

int count_severity(const std::vector<Diagnostic>& ds,
                   Diagnostic::Severity sev) {
  int n = 0;
  for (const auto& d : ds) n += d.severity == sev ? 1 : 0;
  return n;
}

std::string first_error(const std::vector<Diagnostic>& ds) {
  for (const auto& d : ds) {
    if (d.severity == Diagnostic::Severity::Error) return d.code;
  }
  return "-";
}

/// Sweep mode: every kernel x every statics pass (x every schedule for the
/// interference proof). Returns the number of false positives.
int run_sweep(const std::vector<int>& orders, bool csv) {
  tempest::util::Table table({"kernel", "so", "pass", "subject", "verdict",
                              "errors", "notes", "first"});
  int false_positives = 0;

  auto add = [&](const std::string& kernel, int so, const char* pass,
                 const std::string& subject,
                 const std::vector<Diagnostic>& ds, bool ok) {
    if (!ok) ++false_positives;
    table.add_row({kernel, std::to_string(so), pass, subject,
                   ok ? "ok" : "REJECTED",
                   std::to_string(
                       count_severity(ds, Diagnostic::Severity::Error)),
                   std::to_string(
                       count_severity(ds, Diagnostic::Severity::Note)),
                   first_error(ds)});
  };

  for (const int so : orders) {
    for (const Entry& k : kernels_at(so)) {
      if (k.lowered) {
        statics::StaticsOptions opts;
        opts.bounds = statics::conventional_bounds(k.lowered->field);
        opts.resolvable = {"m", "damp", "vp", "eta"};
        opts.declared_radius = k.summary.radius;
        const statics::StaticsReport report =
            statics::verify_statics(*k.lowered, opts);
        add(k.summary.kernel, so, "intervals", "-",
            report.intervals.diagnostics, report.intervals.clean());
        add(k.summary.kernel, so, "stability", "-",
            report.stability.diagnostics, report.stability.stable());
        add(k.summary.kernel, so, "lint", "-", report.lint.diagnostics,
            report.lint.clean());
      }
      for (const ScheduleDescriptor& sched : schedules(k.summary.radius)) {
        const statics::InterferenceReport iref = statics::prove_race_free(
            statics::TileModel::from_summary(k.summary, sched,
                                             /*tile_x=*/64, /*tile_y=*/64,
                                             /*nx=*/192, /*ny=*/192,
                                             /*receivers=*/true));
        add(k.summary.kernel, so, "interference", sched.str(),
            iref.diagnostics, iref.race_free());
      }
    }
  }

  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print_ascii(std::cout);
  }
  if (false_positives > 0) {
    std::cerr << "ir_lint: " << false_positives
              << " false positive(s): the statics layer rejected a "
                 "known-good kernel/schedule\n";
    return 1;
  }
  std::cout << "ir_lint: " << table.rows()
            << " verdict(s), zero false positives\n";
  return 0;
}

/// Seeded mode: fixtures wrong by construction; each must be rejected with
/// a diagnostic carrying the expected code. Returns the number of
/// fixtures that slipped through.
int run_seeded() {
  int missed = 0;

  auto expect = [&](const char* fixture, const std::vector<Diagnostic>& ds,
                    const char* code) {
    bool found = false;
    for (const auto& d : ds) {
      if (d.severity == Diagnostic::Severity::Error && d.code == code) {
        found = true;
        std::cout << "seeded[" << fixture << "]: rejected as expected\n  "
                  << d.str() << "\n";
        break;
      }
    }
    if (!found) {
      ++missed;
      std::cerr << "seeded[" << fixture << "]: NOT rejected (expected error '"
                << code << "')\n";
      for (const auto& d : ds) std::cerr << "  " << d.str() << "\n";
    }
  };

  // 1. A dt far beyond the von Neumann bound (~1.1 ms at so=4, h=10,
  //    vp_max=4.5): the stability pass must name the bound it violates.
  {
    const dsl::LoweredKernel lk =
        lower_dsl("damp", "seeded-unstable", 4, /*dt=*/3.0);
    statics::StaticsOptions opts;
    opts.bounds = statics::conventional_bounds(lk.field);
    opts.resolvable = {"m", "damp", "vp"};
    expect("unstable-dt", statics::verify_statics(lk, opts).diagnostics(),
           "unstable-dt");
  }

  // 2. A lowered tree corrupted with a load beyond the declared halo (and
  //    beyond its own declared access hulls): the lint must name the
  //    offending offset on both counts.
  {
    dsl::LoweredKernel lk = lower_dsl("damp", "seeded-out-of-halo", 4, 0.5);
    lk.update = dsl::ir::bin(
        '+', lk.update,
        dsl::ir::load(lk.field, 0, lk.radius() + 3, 0, 0));
    statics::LintOptions lopts;
    lopts.declared_radius = lk.radius();
    const statics::LintReport lint = statics::lint_kernel(lk, lopts);
    expect("out-of-halo-read", lint.diagnostics, "out-of-halo-read");
    expect("footprint-mismatch", lint.diagnostics, "footprint-mismatch");
  }

  // 3. A wavefront band whose skew slope (1) undershoots the stencil
  //    radius (2): adjacent staircase-unordered tiles overlap, and the
  //    prover must name the interfering tile pair.
  {
    statics::TileModel tm;
    tm.schedule = ScheduleDescriptor::wavefront(/*slope=*/1, /*tile_t=*/8);
    tm.radius = 2;
    const statics::InterferenceReport iref = statics::prove_race_free(tm);
    expect("tile-interference", iref.diagnostics, "tile-interference");
  }

  // 4. The engine's wavefront band phases on acoustic-wtb-large's tiles
  //    (bands start at substep 1, slope 2, 8 substeps, 32x32 tiles; here a
  //    96x96 domain) with the staircase edge tile(0,1) -> tile(1,1) dropped
  //    from the second band: the prover must name that tile pair.
  {
    tempest::core::TilePlan plan = tempest::core::TilePlan::wavefront(
        {96, 96, 1}, 1, 64, /*slope=*/2, {8, 32, 32, 32, 32});
    tempest::core::TileBand& band = plan.bands.at(1);
    band.dag.remove_edge(/*tile(0,1)=*/1, /*tile(1,1)=*/band.nj + 1);
    const AccessSummary summary = tempest::physics::acoustic_access_summary(4);
    const statics::InterferenceReport iref = statics::prove_race_free(
        plan, {summary.radius, 1, summary.time_reads, /*receivers=*/true,
               summary.slots});
    expect("dropped-staircase-edge", iref.diagnostics, "tile-interference");
  }

  // 5. The acoustic kernel's two-slot buffer (u[t+1] stored over u[t-1])
  //    with its u[t-1] read reaching +-radius instead of the point (the
  //    summary's first read is the +-radius one, so the reads become
  //    {-1, 0}): on a wavefront band a neighbour tile's write lands on
  //    cells another tile still reads, and the prover must name that pair.
  {
    const AccessSummary summary = tempest::physics::acoustic_access_summary(4);
    statics::TileModel tm = statics::TileModel::from_summary(
        summary, ScheduleDescriptor::wavefront(summary.radius),
        /*tile_x=*/32, /*tile_y=*/32, /*nx=*/96, /*ny=*/96,
        /*receivers=*/true);
    tm.time_reads = {-1, 0};
    const statics::InterferenceReport iref = statics::prove_race_free(tm);
    expect("in-place-off-centre-history", iref.diagnostics,
           "tile-interference");
  }

  if (missed > 0) {
    std::cerr << "ir_lint --seeded: " << missed
              << " seeded fixture(s) were NOT rejected\n";
    return 1;
  }
  std::cout << "ir_lint --seeded: every seeded fixture rejected with the "
               "expected diagnostic\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool csv = false;
  bool seeded = false;
  std::vector<int> orders;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--csv") == 0) {
      csv = true;
    } else if (std::strcmp(argv[i], "--seeded") == 0) {
      seeded = true;
    } else if (std::strncmp(argv[i], "--so=", 5) == 0) {
      for (const char* p = argv[i] + 5; *p != '\0';) {
        orders.push_back(std::atoi(p));
        while (*p != '\0' && *p != ',') ++p;
        if (*p == ',') ++p;
      }
    } else {
      std::cerr << "usage: ir_lint [--csv] [--so=N[,N...]] [--seeded]\n";
      return 2;
    }
  }
  if (orders.empty()) orders = {4, 8};
  for (const int so : orders) {
    if (so < 2 || so % 2 != 0) {
      std::cerr << "ir_lint: --so must be positive even orders\n";
      return 2;
    }
  }
  return seeded ? run_seeded() : run_sweep(orders, csv);
}
