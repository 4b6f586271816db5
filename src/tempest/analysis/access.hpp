#pragma once

// Access analysis over the dsl::ir loop nests (the compiler half of the
// paper's Section II.A argument). Every Stmt node of a lowered nest is
// walked and turned into a set of *access descriptors*: which field is
// touched, read or write, and the offset of the touched location relative
// to the statement's iteration vector on each of the (t, x, y, z) axes.
//
// The offsets are the whole story. An affine stencil access has small
// constant offsets (±radius); a mask-guarded fused access has offset zero
// in the tiled x/y dimensions (indirection confined to the untiled z
// column); an off-the-grid sparse access indexes through `map(s, i)` /
// `SID`-style indirection and therefore has *unknown* ("star") offsets —
// the structural property that makes skewed/wave-front/diamond time tiling
// illegal until the probe → mask → decompose pipeline removes it.

#include <string>
#include <vector>

#include "tempest/dsl/ir.hpp"

namespace tempest::analysis {

/// How a statement touches memory, per the paper's taxonomy (Fig. 4b).
enum class AccessClass {
  AffineStencil,    ///< constant offsets bounded by the stencil radius
  MaskGuardedFused, ///< grid-aligned at (x, y); indirection only along z
  OffGridSparse,    ///< indirected through map()/coordinate tables: offsets
                    ///< unknowable at schedule time
  Precompute,       ///< prologue statement outside the time loop
};

[[nodiscard]] const char* to_string(AccessClass c);

/// Offset of an access on one axis, relative to the iteration vector: an
/// interval [lo, hi] of constants, or "star" (statically unknowable — the
/// non-affine case).
struct Extent {
  bool star = false;
  int lo = 0;
  int hi = 0;

  [[nodiscard]] static Extent affine(int off) { return {false, off, off}; }
  [[nodiscard]] static Extent range(int lo, int hi) { return {false, lo, hi}; }
  [[nodiscard]] static Extent unknown() { return {true, 0, 0}; }

  [[nodiscard]] int max_abs() const;
  [[nodiscard]] std::string str() const;

  friend bool operator==(const Extent&, const Extent&) = default;
};

/// One field access of one statement. `time` is always affine (every nest
/// the pipeline produces indexes time as t+k); the spatial extents may be
/// star. Axes that a field does not have (e.g. the receiver-trace array
/// `rec[t, r]` has no grid axes) are affine zero.
struct Access {
  std::string field;
  bool is_write = false;
  int time = 0;  ///< time-axis offset (the k of u[t+k, ...])
  Extent dx, dy, dz;
  bool grid = true;  ///< touches the 3-D grid (false: rec / src_dcmp tables)

  /// True when the offset along a named spatial dimension is star.
  [[nodiscard]] bool dist_star_in(const std::string& dim) const;

  [[nodiscard]] std::string str() const;
};

/// A statement of the nest with its extracted accesses and loop context.
struct Statement {
  int id = 0;              ///< index in execution order
  std::string text;
  std::string tag;         ///< the ir tag ("stencil", "inject-fused", ...)
  AccessClass cls = AccessClass::AffineStencil;
  std::vector<std::string> loops;  ///< enclosing loop dims, outermost first
  bool under_time_loop = false;
  std::vector<Access> accesses;

  /// True when the statement sits inside a loop over `dim` (so the space
  /// tiling transformation has an axis to cut).
  [[nodiscard]] bool inside_loop(const std::string& dim) const;
};

/// Slices a circular time buffer needs so that the write of t + write_dt
/// and every read t + k (k in time_reads) land in distinct slices: the
/// span of those offsets (the current slice counts when nothing is read).
[[nodiscard]] int slices_spanned(int write_dt,
                                 const std::vector<int>& time_reads);

/// What a physics kernel's stencil statement touches — declared by the
/// kernel itself (physics/*.cpp) so the verifier reasons about the *real*
/// dependency radius, not a guess. The IR prints the stencil as an opaque
/// call `A_<class>(t, x, y, z)`; this summary expands it: one write of
/// `field[t+1]` at the point, a ±radius read of `field[t + time_reads[0]]`
/// and point reads of the deeper history slices.
struct AccessSummary {
  std::string kernel = "acoustic";   ///< display name
  std::string field = "u";           ///< the wavefield the nest updates
  int radius = 2;                    ///< stencil radius (space_order / 2)
  int substeps = 1;                  ///< engine substeps per timestep
  std::vector<int> time_reads = {0, -1};  ///< slices read relative to t

  /// Slices of the kernel's time buffer. 0 keeps one per time offset the
  /// update spans (see depth()). A kernel that reads u[t-1] only at the
  /// point it writes stores u[t+1] over it — a leapfrog in place — and
  /// declares 2: the hand-written acoustic, TTI and VTI kernels. DSL
  /// kernels keep 0: their compiled block (dsl::DslBlockFn) takes u[t+1]
  /// and u[t-1] as separate restrict rows, and a hand-built LoweredKernel
  /// may load u[t-1] off the point.
  int slots = 0;

  /// Spatial radius of the kernel's *write* footprint around the iteration
  /// point. Every tempest kernel writes only the centre cell (0); the
  /// task-parallel tile executor requires it — a kernel scattering writes
  /// into its neighbourhood would make adjacent concurrent tiles race even
  /// though the read-side skew is satisfied, so engine::TileGraph rejects
  /// write_radius > 0 instead of scheduling tasks.
  int write_radius = 0;

  /// The time-buffer depth every layer models for this kernel: `slots`,
  /// or slices_spanned(1, time_reads) when that is 0. Each propagator
  /// sizes its grid::TimeBuffer from it.
  [[nodiscard]] int depth() const {
    return slots > 0 ? slots : slices_spanned(1, time_reads);
  }
};

/// Walk a lowered nest and extract every statement's accesses — purely
/// structurally. Statement ids follow execution order; an opaque stencil
/// statement (no typed access list attached) is expanded per the kernel
/// summary, every other statement carries its typed `ir::Access` list from
/// the lowering pass (indirected subscripts such as the `xs, ys, zs` of
/// `map(s, i)` arrive as star extents). The pseudocode text is never
/// parsed.
[[nodiscard]] std::vector<Statement> extract_accesses(
    const dsl::ir::Node& root, const AccessSummary& kernel);

/// Human/golden-test readable dump of the extracted accesses.
[[nodiscard]] std::string print_accesses(const std::vector<Statement>& stmts);

}  // namespace tempest::analysis
