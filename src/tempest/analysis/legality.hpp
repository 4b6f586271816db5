#pragma once

// Schedule-legality verification: the paper's Section II.A argument as a
// machine-checked pass. Given a lowered nest's dependence graph and a
// proposed space-time tiling, every dependence edge is tested against the
// tile geometry:
//
//  * a statement inside the time loop that cannot be assigned to a space
//    tile (it has no x/y loops, or its accesses have star extents in a
//    tiled dimension) makes the schedule illegal ("not-tileable") — the
//    stage-0 off-the-grid source/receiver loops;
//  * a dependence carried within a time band (0 < dt < tile_t) must have a
//    bounded spatial distance no larger than slope * dt in every tiled
//    dimension — star distances ("unbounded-distance") and affine
//    distances beyond the skew ("slope-exceeded") are violations;
//  * dependences spanning at least tile_t timesteps cross a band barrier
//    and are respected by construction, as are all dependences under the
//    barrier schedules (Reference, SpaceBlocked).
//
// The paper's Fig. 4b is then a theorem the verifier proves per operator:
// the naive nest with sparse operators is rejected for every temporal
// blocking family, and the precomputed/fused nest is accepted.

#include <string>
#include <vector>

#include "tempest/analysis/dependence.hpp"
#include "tempest/util/error.hpp"

namespace tempest::analysis {

/// The schedule families the verifier reasons about. Fused is wavefront
/// with tile_t = 1 (a per-timestep sweep that still needs every statement
/// tileable over x/y); Diamond tiles time and x, blocking y spatially
/// inside each band.
enum class SchedKind { Reference, SpaceBlocked, Wavefront, Fused, Diamond };

[[nodiscard]] const char* to_string(SchedKind k);

/// A proposed space-time tiling: the family, the skew slope in grid points
/// per time-loop iteration, and the band height in timesteps.
struct ScheduleDescriptor {
  SchedKind kind = SchedKind::Reference;
  int slope = 1;
  int tile_t = 1;

  [[nodiscard]] static ScheduleDescriptor reference();
  [[nodiscard]] static ScheduleDescriptor space_blocked();
  [[nodiscard]] static ScheduleDescriptor wavefront(int slope, int tile_t = 8);
  [[nodiscard]] static ScheduleDescriptor fused(int slope);
  [[nodiscard]] static ScheduleDescriptor diamond(int slope, int height = 8);

  [[nodiscard]] bool time_tiled() const {
    return kind == SchedKind::Wavefront || kind == SchedKind::Fused ||
           kind == SchedKind::Diamond;
  }

  /// Spatial dimensions the family tiles (z is never tiled — it is the
  /// contiguous SIMD dimension).
  [[nodiscard]] std::vector<std::string> tiled_dims() const;

  [[nodiscard]] std::string str() const;
};

/// One structured finding of the verifier. Errors make the schedule
/// illegal; Notes record accepted-but-noteworthy facts (e.g. a dependence
/// respected only by the band barrier).
struct Diagnostic {
  enum class Severity { Error, Note };

  Severity severity = Severity::Error;
  std::string code;   ///< "not-tileable" | "unbounded-distance" |
                      ///< "slope-exceeded" | "same-time-cross-tile"
  int src = -1;       ///< violating statement (source endpoint)
  int dst = -1;       ///< sink endpoint; -1 for per-statement findings
  DepKind kind = DepKind::Flow;  ///< meaningful when dst >= 0
  std::string field;
  std::string message;  ///< names the pair, the distance and the geometry

  [[nodiscard]] std::string str() const;
};

/// The verifier's verdict for one (nest, schedule) pair.
struct LegalityReport {
  ScheduleDescriptor schedule;
  int statements_checked = 0;
  int dependences_checked = 0;
  std::vector<Diagnostic> diagnostics;

  [[nodiscard]] bool legal() const;
  [[nodiscard]] int errors() const;
  [[nodiscard]] std::string str() const;
};

/// Thrown when a gate (operator build, JIT pre-compile, executor debug
/// assertion) encounters an illegal schedule; carries the full report.
class ScheduleLegalityError : public util::PreconditionError {
 public:
  explicit ScheduleLegalityError(LegalityReport report);
  [[nodiscard]] const LegalityReport& report() const { return report_; }

 private:
  LegalityReport report_;
};

/// Verify a dependence graph against a proposed schedule.
[[nodiscard]] LegalityReport verify(const DependenceGraph& g,
                                    const ScheduleDescriptor& sched);

/// Extract + build + verify a lowered nest in one call.
[[nodiscard]] LegalityReport verify_nest(const dsl::ir::Node& root,
                                         const AccessSummary& kernel,
                                         const ScheduleDescriptor& sched);

/// Build the canonical nest at a lowering stage (0 = Listing 1 naive,
/// 1 = precomputed+fused, 2 = compressed; see dsl::passes) for a kernel
/// summary and verify it. This is what the execution-side gates call: the
/// fused executor implements exactly the stage-2 nest.
[[nodiscard]] LegalityReport verify_canonical(const AccessSummary& kernel,
                                              int stage, bool sources,
                                              bool receivers,
                                              const ScheduleDescriptor& sched);

/// Throw ScheduleLegalityError when the report is not legal.
void require_legal(const LegalityReport& report);

}  // namespace tempest::analysis
