#include "tempest/analysis/legality.hpp"

#include <algorithm>
#include <sstream>

#include "tempest/dsl/passes.hpp"

namespace tempest::analysis {

const char* to_string(SchedKind k) {
  switch (k) {
    case SchedKind::Reference: return "reference";
    case SchedKind::SpaceBlocked: return "space-blocked";
    case SchedKind::Wavefront: return "wavefront";
    case SchedKind::Fused: return "fused";
    case SchedKind::Diamond: return "diamond";
  }
  return "?";
}

ScheduleDescriptor ScheduleDescriptor::reference() {
  return {SchedKind::Reference, 1, 1};
}
ScheduleDescriptor ScheduleDescriptor::space_blocked() {
  return {SchedKind::SpaceBlocked, 1, 1};
}
ScheduleDescriptor ScheduleDescriptor::wavefront(int slope, int tile_t) {
  TEMPEST_REQUIRE(slope > 0 && tile_t > 0);
  return {SchedKind::Wavefront, slope, tile_t};
}
ScheduleDescriptor ScheduleDescriptor::fused(int slope) {
  TEMPEST_REQUIRE(slope > 0);
  return {SchedKind::Fused, slope, 1};
}
ScheduleDescriptor ScheduleDescriptor::diamond(int slope, int height) {
  TEMPEST_REQUIRE(slope > 0 && height > 0);
  return {SchedKind::Diamond, slope, height};
}

std::vector<std::string> ScheduleDescriptor::tiled_dims() const {
  switch (kind) {
    case SchedKind::Wavefront:
    case SchedKind::Fused:
      return {"x", "y"};
    case SchedKind::Diamond:
      return {"x"};
    default:
      return {};
  }
}

std::string ScheduleDescriptor::str() const {
  std::ostringstream os;
  os << to_string(kind);
  if (time_tiled()) os << "(slope=" << slope << ", tile_t=" << tile_t << ')';
  return os.str();
}

std::string Diagnostic::str() const {
  std::ostringstream os;
  os << (severity == Severity::Error ? "error" : "note") << '[' << code
     << "] ";
  if (dst >= 0) {
    os << to_string(kind) << " S" << src << "->S" << dst << ' ' << field
       << ": ";
  } else {
    os << 'S' << src << ": ";
  }
  os << message;
  return os.str();
}

bool LegalityReport::legal() const { return errors() == 0; }

int LegalityReport::errors() const {
  return static_cast<int>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [](const Diagnostic& d) {
                      return d.severity == Diagnostic::Severity::Error;
                    }));
}

std::string LegalityReport::str() const {
  std::ostringstream os;
  os << schedule.str() << ": "
     << (legal() ? "LEGAL" : "ILLEGAL (" + std::to_string(errors()) +
                                 " violations)")
     << " — " << statements_checked << " statements, "
     << dependences_checked << " dependences\n";
  for (const Diagnostic& d : diagnostics) os << "  " << d.str() << '\n';
  return os.str();
}

ScheduleLegalityError::ScheduleLegalityError(LegalityReport report)
    : util::PreconditionError("illegal schedule rejected by "
                              "tempest::analysis:\n" +
                              report.str()),
      report_(std::move(report)) {}

namespace {

/// Per-statement tileability: under a time-tiled schedule every statement
/// inside the time loop must (a) sit inside a loop over each tiled
/// dimension so the tiling transformation has an axis to cut, and (b) keep
/// every access affine in the tiled dimensions — the probe/mask/decompose
/// property. The stage-0 `for s / for i` sparse loops fail both.
void check_tileable(const Statement& s, const ScheduleDescriptor& sched,
                    LegalityReport& out) {
  std::vector<std::string> missing_loops;
  std::vector<std::string> star_accesses;
  for (const std::string& dim : sched.tiled_dims()) {
    if (!s.inside_loop(dim)) missing_loops.push_back(dim);
    for (const Access& a : s.accesses) {
      if (!a.grid) continue;
      if (a.dist_star_in(dim)) star_accesses.push_back(a.str());
    }
  }
  if (missing_loops.empty() && star_accesses.empty()) return;
  Diagnostic d;
  d.code = "not-tileable";
  d.src = s.id;
  std::ostringstream os;
  os << to_string(s.cls) << " statement `" << s.text
     << "` cannot be assigned to a " << sched.str() << " tile:";
  if (!missing_loops.empty()) {
    os << " no enclosing loop over";
    for (const auto& dim : missing_loops) os << ' ' << dim;
    os << ';';
  }
  for (const auto& a : star_accesses) {
    os << " non-affine access " << a << ';';
  }
  d.message = os.str();
  out.diagnostics.push_back(std::move(d));
}

void check_dependence(const Dependence& dep, const ScheduleDescriptor& sched,
                      LegalityReport& out) {
  // A dependence spanning at least one full band crosses the global
  // barrier between bands and is respected regardless of distance.
  if (dep.dt >= sched.tile_t) {
    if (dep.dt > 0) {
      Diagnostic n;
      n.severity = Diagnostic::Severity::Note;
      n.code = "band-barrier";
      n.src = dep.src;
      n.dst = dep.dst;
      n.kind = dep.kind;
      n.field = dep.field;
      n.message = "dt=" + std::to_string(dep.dt) +
                  " >= tile_t=" + std::to_string(sched.tile_t) +
                  ": respected by the band barrier";
      out.diagnostics.push_back(std::move(n));
    }
    return;
  }
  for (const std::string& dim : sched.tiled_dims()) {
    const Extent& dist = dep.dist(dim);
    Diagnostic d;
    d.src = dep.src;
    d.dst = dep.dst;
    d.kind = dep.kind;
    d.field = dep.field;
    if (dist.star) {
      d.code = dep.dt == 0 ? "same-time-cross-tile" : "unbounded-distance";
      d.message = "distance in " + dim + " is statically unknowable (*) at "
                  "dt=" + std::to_string(dep.dt) + "; no " + sched.str() +
                  " tile shape bounds an off-the-grid access";
      out.diagnostics.push_back(std::move(d));
      continue;
    }
    const int reach = dist.max_abs();
    if (dep.dt == 0) {
      if (reach > 0) {
        d.code = "same-time-cross-tile";
        d.message = "same-timestep dependence with distance " + dist.str() +
                    " in " + dim + " crosses concurrent tiles of " +
                    sched.str();
        out.diagnostics.push_back(std::move(d));
      }
      continue;
    }
    if (reach > sched.slope * dep.dt) {
      d.code = "slope-exceeded";
      d.message = "distance " + dist.str() + " in " + dim + " at dt=" +
                  std::to_string(dep.dt) + " exceeds the skew slope*dt=" +
                  std::to_string(sched.slope * dep.dt) + " of " + sched.str();
      out.diagnostics.push_back(std::move(d));
    }
  }
}

}  // namespace

LegalityReport verify(const DependenceGraph& g,
                      const ScheduleDescriptor& sched) {
  LegalityReport out;
  out.schedule = sched;
  out.statements_checked = static_cast<int>(g.stmts.size());
  out.dependences_checked = static_cast<int>(g.deps.size());
  if (!sched.time_tiled()) {
    // Barrier schedules execute whole timesteps in program order: every
    // forward-in-time dependence is respected by construction, and the
    // nests the pipeline emits carry no backward dependences.
    return out;
  }
  for (const Statement& s : g.stmts) {
    if (!s.under_time_loop) continue;
    check_tileable(s, sched, out);
  }
  for (const Dependence& dep : g.deps) check_dependence(dep, sched, out);
  return out;
}

LegalityReport verify_nest(const dsl::ir::Node& root,
                           const AccessSummary& kernel,
                           const ScheduleDescriptor& sched) {
  return verify(build_dependences(root, kernel), sched);
}

LegalityReport verify_canonical(const AccessSummary& kernel, int stage,
                                bool sources, bool receivers,
                                const ScheduleDescriptor& sched) {
  TEMPEST_REQUIRE_MSG(stage >= 0 && stage <= 2,
                      "canonical analysis runs on the untiled stages");
  const std::string stmt = "A_" + kernel.kernel + "(t, x, y, z)";
  dsl::ir::Node root =
      dsl::passes::build_timestepping(stmt, sources, receivers);
  if (stage >= 1) dsl::passes::precompute_and_fuse(root);
  if (stage >= 2) dsl::passes::compress_iteration_space(root);
  return verify_nest(root, kernel, sched);
}

void require_legal(const LegalityReport& report) {
  if (!report.legal()) throw ScheduleLegalityError(report);
}

}  // namespace tempest::analysis
