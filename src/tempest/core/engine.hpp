#pragma once

// The schedule-execution engine: one generic time-loop core shared by every
// propagator. The paper's point (Section II.A) is that the probe -> mask ->
// decompose sparse precompute legalises *any* temporal-blocking schedule, so
// the schedule dispatch, the time-buffer walk, the sparse-operator wiring and
// every cross-cutting concern (trace spans, work counters, health scans,
// checkpoint semantics) live here exactly once. A physics module contributes
// only a PhysicsKernel: its field set, the per-block update and the sparse
// inject/interp bind points.
//
// Substep axis: a kernel declares kSubstepsPerStep (S). Second-order-in-time
// systems (acoustic, TTI, VTI) take S = 1; the first-order elastic system
// takes S = 2 (velocity then stress half-updates). Temporally blocked
// schedules tile the substep axis s = S*t + sub with slope = radius per
// substep — the paper's "shifted wave-front angle" for staggered multi-grid
// updates — and run the sparse operators after the last substep of each
// timestep.

#include <algorithm>
#include <array>
#include <concepts>
#include <cstdint>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "tempest/analysis/legality.hpp"
#include "tempest/analysis/statics/interference.hpp"
#include "tempest/config.hpp"
#include "tempest/core/compress.hpp"
#include "tempest/core/fused.hpp"
#include "tempest/core/precompute.hpp"
#include "tempest/core/tile_graph.hpp"
#include "tempest/core/tile_plan.hpp"
#include "tempest/core/wavefront.hpp"
#include "tempest/grid/blocks.hpp"
#include "tempest/grid/grid3.hpp"
#include "tempest/obs/recorder.hpp"
#include "tempest/resilience/checkpoint.hpp"
#include "tempest/resilience/fault.hpp"
#include "tempest/resilience/health.hpp"
#include "tempest/sparse/interp.hpp"
#include "tempest/sparse/operators.hpp"
#include "tempest/sparse/series.hpp"
#include "tempest/trace/trace.hpp"
#include "tempest/util/error.hpp"
#include "tempest/util/threads.hpp"
#include "tempest/util/timer.hpp"

namespace tempest::core::engine {

/// Execution schedule selector shared by all propagators.
enum class Schedule {
  Reference,     ///< un-blocked triple loop + naive sparse ops (validation)
  SpaceBlocked,  ///< the paper's baseline: vectorized spatial cache blocking
  Wavefront,     ///< the contribution: WTB with precomputed sparse operators
  Diamond,       ///< diamond/split temporal blocking: the alternative TB
                 ///< family the precompute scheme equally legalises
};

[[nodiscard]] constexpr const char* to_string(Schedule s) {
  switch (s) {
    case Schedule::Reference: return "reference";
    case Schedule::SpaceBlocked: return "space-blocked";
    case Schedule::Wavefront: return "wavefront";
    case Schedule::Diamond: return "diamond";
  }
  return "?";
}

/// CLI-facing inverse of to_string (accepts the underscore spelling too).
[[nodiscard]] inline Schedule schedule_from_string(const std::string& name) {
  if (name == "reference") return Schedule::Reference;
  if (name == "space-blocked" || name == "space_blocked" ||
      name == "spaceblocked") {
    return Schedule::SpaceBlocked;
  }
  if (name == "wavefront") return Schedule::Wavefront;
  if (name == "diamond") return Schedule::Diamond;
  TEMPEST_REQUIRE_MSG(false, "unknown schedule '" + name +
                                 "' (expected reference, space-blocked, "
                                 "wavefront or diamond)");
  return Schedule::Reference;  // unreachable
}

/// Wall-clock and throughput accounting for one propagation run.
struct RunStats {
  double seconds = 0.0;             ///< time loop only
  double precompute_seconds = 0.0;  ///< sparse-operator precompute (TB only)
  long long point_updates = 0;      ///< grid-point updates performed

  [[nodiscard]] double gpoints_per_s() const {
    return seconds > 0.0 ? static_cast<double>(point_updates) / seconds / 1e9
                         : 0.0;
  }
};

/// Called after timestep `t_done` is fully computed (stencil + sparse
/// operators). Only meaningful for schedules with a global time barrier —
/// under temporal blocking no instant exists at which a whole timestep is
/// complete (that is the very point of the paper), so passing a callback
/// with Wavefront/Diamond is rejected.
using StepCallback = std::function<void(int t_done)>;

/// Propagator tuning knobs shared by all kernels.
struct ExecutionOptions {
  core::TileSpec tiles{};
  sparse::InterpKind interp = sparse::InterpKind::Trilinear;
  double dt = 0.0;  ///< timestep (ms); 0 selects the model's critical dt

  /// Worker threads for the parallel schedules: 0 defers to
  /// $TEMPEST_THREADS, then to the OpenMP runtime default (1 when the
  /// runtime is absent). 1 always takes the deterministic serial path.
  /// Results are bitwise identical at every value — wavefront/diamond
  /// bands run as dependence-ordered tasks over disjoint tiles, gathers
  /// reduce in fixed point order at band barriers, and injection is
  /// color-partitioned — so this is purely a throughput knob.
  int threads = 0;

  /// Numerical health monitoring (NaN/Inf and energy blow-up scans).
  /// Disabled by default; when enabled, barrier schedules scan every
  /// `check_every` steps and temporally blocked schedules scan at time-band
  /// boundaries — the only instants a whole timestep exists under blocking.
  resilience::HealthPolicy health{};

  /// Run the analysis:: schedule-legality verifier before every temporally
  /// blocked execution (see analysis/legality.hpp): the canonical fused
  /// nest the executor implements, checked against the kernel's *declared*
  /// access summary and the engine's actual skew slope. Catches a kernel
  /// whose declared dependency radius outruns the wave-front skew before a
  /// single wrong cell is computed. Costs microseconds per run. Also gates
  /// the statics tile-interference prover: before a temporally blocked run
  /// starts, every unordered task pair of every band of the run's tile plan
  /// is proven to have disjoint write/write and write/read footprints (the
  /// race-freedom the TSan lane observes dynamically, as a pre-run theorem).
  bool verify_schedule = true;

  /// Let a spec whose dt exceeds the static von Neumann bound through the
  /// stability gates (deliberate divergence experiments). Every other
  /// statics check still runs.
  bool allow_unstable = false;
};

/// A kernel's injection targets for one timestep (e.g. p and q for the
/// coupled anisotropic systems, the three diagonal stresses for elastic).
struct FieldRefs {
  std::array<grid::Grid3<real_t>*, 4> field{};
  int count = 0;
};

/// A named wavefield the health monitor scans (and the fault-injection
/// hook poisons — always the first entry).
struct NamedField {
  const char* name = nullptr;
  grid::Grid3<real_t>* field = nullptr;
};

struct HealthFields {
  std::array<NamedField, 4> field{};
  int count = 0;
};

/// What a physics module must provide to route through the executor. The
/// executor owns the time loop and all bookkeeping; the kernel owns the
/// arithmetic and knows which grid each sparse operator binds to.
template <typename K>
concept PhysicsKernel =
    requires(K k, const K ck, int s, const grid::Box3& box) {
      /// Substeps per timestep: 1 for second-order-in-time systems, 2 for
      /// the first-order velocity–stress half-updates.
      { K::kSubstepsPerStep } -> std::convertible_to<int>;
      /// First computable timestep (1 when two back slices seed the scheme,
      /// 0 for first-order systems).
      { K::kFirstStep } -> std::convertible_to<int>;
      { ck.extents() } -> std::convertible_to<const grid::Extents3&>;
      { ck.radius() } -> std::convertible_to<int>;
      /// Hot update of one space block at substep s (= S*t + sub). Emits no
      /// counters — the executor accounts for the work.
      k.apply(s, box);
      /// Grids the source scatters into after timestep t's last substep.
      { k.inject_fields(s) } -> std::same_as<FieldRefs>;
      /// Grid receivers interpolate from after timestep t's last substep.
      { ck.gather_field(s) } -> std::convertible_to<const grid::Grid3<real_t>&>;
      /// Grid-point-local injection factor (Devito's `src * dt^2 / m`).
      { ck.inject_scale(s, s, s) } -> std::convertible_to<real_t>;
      /// Wavefields scanned after timestep t is complete.
      { k.health_fields(s) } -> std::same_as<HealthFields>;
      /// The kernel's declared access shape (dependency radius per
      /// timestep, history depth) for the schedule-legality verifier.
      { ck.access_summary() } -> std::convertible_to<analysis::AccessSummary>;
    };

/// The single generic time-loop core. Owns schedule dispatch, tile /
/// wavefront / diamond iteration, the sparse precompute wiring, the
/// canonical placement of trace spans and work counters, the HealthMonitor
/// scan points and the run_from resume semantics — for every PhysicsKernel.
template <PhysicsKernel Kernel>
class ScheduleExecutor {
 public:
  ScheduleExecutor(Kernel& kernel, const ExecutionOptions& opts)
      : k_(kernel), opts_(opts) {}

  /// Execute timesteps [t_begin, src.nt()). State for steps < t_begin must
  /// already be in the kernel's fields (zeroed for a fresh run, or seeded
  /// from a checkpoint captured at t_begin). A resumed run reproduces the
  /// uninterrupted one bitwise under the same schedule and options.
  RunStats run_from(int t_begin, Schedule sched,
                    const sparse::SparseTimeSeries& src,
                    sparse::SparseTimeSeries* rec,
                    const StepCallback& on_step) {
    constexpr int S = Kernel::kSubstepsPerStep;
    constexpr int first = Kernel::kFirstStep;
    static_assert(S >= 1);
    const int nt = src.nt();
    TEMPEST_REQUIRE(nt >= first + 1);
    TEMPEST_REQUIRE_MSG(t_begin >= first && t_begin < nt,
                        "resume step outside the simulated time range");
    TEMPEST_REQUIRE_MSG(
        !on_step ||
            (sched != Schedule::Wavefront && sched != Schedule::Diamond),
        "per-timestep callbacks need a schedule with a global time barrier "
        "(Reference or SpaceBlocked)");
    if (rec != nullptr) {
      TEMPEST_REQUIRE(rec->nt() >= nt);
    }

    resilience::HealthMonitor monitor(opts_.health);
    const grid::Extents3& e = k_.extents();
    const int radius = k_.radius();

    auto inj_scale = [this](int x, int y, int z) {
      return k_.inject_scale(x, y, z);
    };

    // Post-step resilience hook shared by all schedules: the deterministic
    // fault-injection site first (tests arm it; disarmed it is one int
    // compare), then the wavefield health scans. Barrier schedules gate the
    // scan on the policy cadence; temporally blocked schedules scan at every
    // band boundary, the only instants a whole timestep exists.
    auto health_point = [&](int t_done, bool cadence_gated) {
      // Chaos kill site: the progress tick is where the fault plan's
      // SIGKILL lands, so a killed run dies between fully-computed
      // timesteps (barrier) or bands (temporal blocking) — the same
      // instants a production `kill -9` would interrupt.
      resilience::fault::note_progress();
      const HealthFields hf = k_.health_fields(t_done);
      if (resilience::fault::consume_wavefield_poison(t_done) &&
          hf.count > 0) {
        (*hf.field[0].field)(e.nx / 2, e.ny / 2, e.nz / 2) =
            std::numeric_limits<real_t>::quiet_NaN();
      }
      if (monitor.enabled() && (!cadence_gated || monitor.due(t_done))) {
        for (int i = 0; i < hf.count; ++i) {
          monitor.check(*hf.field[i].field, hf.field[i].name, t_done);
          // Feed the scan result to the flight recorder: a post-mortem of
          // a diverging shot shows the amplitude ramp before the throw.
          TEMPEST_OBS_HEALTH(hf.field[i].name, t_done, monitor.last_max());
        }
      }
    };

    // One block of one substep: the unit every schedule hands to the kernel,
    // and the single place the stencil span (TileSeconds) and the stencil
    // work counters are emitted.
    auto substep_block = [&](int s, const grid::Box3& box) {
      TEMPEST_TRACE_SPAN_ARG_METRIC("stencil", "compute", s, TileSeconds);
      TEMPEST_TRACE_COUNT(CellsUpdated, box.volume());
      TEMPEST_TRACE_COUNT(HaloCellsTouched,
                          2 * radius *
                              (box.x.length() * box.y.length() +
                               box.y.length() * box.z.length() +
                               box.x.length() * box.z.length()));
      k_.apply(s, box);
    };

    RunStats stats;
    stats.point_updates = static_cast<long long>(nt - t_begin) *
                          static_cast<long long>(e.size());

    const int threads = util::resolve_threads(opts_.threads);

    if (sched == Schedule::Wavefront || sched == Schedule::Diamond) {
      // --- The paper's scheme: precompute, fuse, compress, time-tile. The
      // same precomputed structures legalise either temporal-blocking
      // family (wave-front or diamond). ---
      //
      // The executor implements the stage-2 (fused + compressed) nest and
      // skews by `radius` per substep — slope = S * radius per timestep.
      // TileGraph re-derives the nest's dependence distance vectors and
      // verifies them against the kernel's *declared* access shape (a
      // kernel whose real dependency reach exceeded the skew would silently
      // read stale halo cells; here it throws instead — unless
      // verify_schedule was explicitly disabled).
      const int tile_t = std::max(1, opts_.tiles.tile_t);
      const analysis::AccessSummary summary = k_.access_summary();
      const bool has_rec = rec != nullptr && rec->npoints() > 0;
      TileGraph::derive(summary,
                        sched == Schedule::Wavefront
                            ? analysis::ScheduleDescriptor::wavefront(
                                  S * radius, tile_t)
                            : analysis::ScheduleDescriptor::diamond(
                                  S * radius, tile_t),
                        /*sources=*/true, /*receivers=*/has_rec, opts_.tiles,
                        /*verify=*/opts_.verify_schedule);

      // The one tile plan of this run, in substep units: tile_t full steps
      // == S*tile_t substeps, skewed by `radius` grid points per substep.
      const core::TilePlan plan = [&] {
        if (sched == Schedule::Wavefront) {
          core::TileSpec spec = opts_.tiles;
          spec.tile_t = S * opts_.tiles.tile_t;
          return core::TilePlan::wavefront(e, S * t_begin, S * nt, radius,
                                           spec);
        }
        core::DiamondSpec dspec;
        dspec.height = S * opts_.tiles.tile_t;
        // The x period must accommodate the band's dependency cone.
        dspec.width = std::max(opts_.tiles.tile_x, 2 * radius * dspec.height);
        dspec.block_x = opts_.tiles.block_x;
        dspec.block_y = opts_.tiles.block_y;
        return core::TilePlan::diamond(e, S * t_begin, S * nt, radius, dspec);
      }();
      if (opts_.verify_schedule) {
        // Statics race prover over every band of the plan executed below:
        // no two tasks without a path in their band's DAG have overlapping
        // write/write or write/read footprints — including the
        // circular-buffer slot aliasing and the fused receiver gather's
        // in-rect read.
        analysis::statics::require_race_free(analysis::statics::prove_race_free(
            plan, {radius, 1, summary.time_reads, has_rec}));
      }
      // Affected points, src_dcmp and the packed columns come straight from
      // the interpolation supports: no grid-sized buffer (the dense
      // SM/SID volumes of Listings 2-5 are the tested reference only).
      util::Timer pre;
      const core::AffectedPoints src_pts =
          core::build_affected_points(e, src, opts_.interp);
      const core::DecomposedSource dcmp = core::decompose_sources(src_pts, src);
      const core::CompressedSparse& cs_src = src_pts.columns;

      core::AffectedPoints rec_pts;
      core::ReceiverStage stage;
      if (has_rec) {
        rec_pts = core::build_affected_points(e, *rec, opts_.interp);
        // Band-local staging for the deterministic parallel gather (see
        // fused.hpp): one row per in-flight timestep of a band.
        stage = core::ReceiverStage(std::max(1, opts_.tiles.tile_t),
                                    rec_pts.npts);
        stage.begin_band(t_begin);
      }
      const core::CompressedSparse& cs_rec = rec_pts.columns;
      stats.precompute_seconds = pre.seconds();

      // Substep block + the fused sparse operators after the timestep's
      // last substep (for S = 1 that is every substep, s == t). Runs on
      // task workers: injection writes only the block's own columns, the
      // gather *stages* per-point samples (each written by exactly one
      // tile) instead of accumulating into the shared receiver traces —
      // the accumulation happens in fixed point order at the band barrier,
      // which is what keeps every thread count bitwise identical.
      auto fused_block = [&](int s, const grid::Box3& box) {
        substep_block(s, box);
        if ((s + 1) % S != 0) return;
        const int t = s / S;
        {
          TEMPEST_TRACE_SPAN_ARG("inject", "sparse", t);
          const FieldRefs targets = k_.inject_fields(t);
          for (int i = 0; i < targets.count; ++i) {
            core::fused_inject(*targets.field[i], cs_src, dcmp, t, box.x,
                               box.y, inj_scale);
          }
        }
        if (has_rec && !cs_rec.empty()) {
          TEMPEST_TRACE_SPAN_ARG("interp", "sparse", t);
          core::fused_sample(k_.gather_field(t), cs_rec, stage.row(t), box.x,
                             box.y);
        }
      };

      // Completed-band hook (serial, after the band's task graph drains):
      // after substep band [.., se), every timestep < se/S is fully
      // computed and the newest slice is fully written. Reduce the staged
      // gather samples in ascending point-id order, then run the health
      // scan — the only instants a whole timestep exists under blocking.
      int reduced_upto = t_begin;
      auto on_band = [&](int se) {
        const int t_done = se / S;
        if (has_rec && !cs_rec.empty()) {
          TEMPEST_TRACE_SPAN_ARG("interp.reduce", "sparse", t_done);
          for (int t = reduced_upto; t < t_done; ++t) {
            core::reduce_receiver_stage(stage, rec_pts, t,
                                        rec->step(t).data());
          }
        }
        if (has_rec) stage.begin_band(t_done);
        reduced_upto = t_done;
        health_point(t_done, /*cadence_gated=*/false);
      };

      util::Timer timer;
      core::execute(plan, threads, fused_block, on_band);
      stats.seconds = timer.seconds();
      return stats;
    }

    // --- Barrier schedules. SpaceBlocked is the paper's baseline: spatial
    // blocking + per-timestep naive sparse operators through prebuilt
    // support caches. Reference is the unblocked sweep with uncached ops. ---
    const bool blocked = sched == Schedule::SpaceBlocked;
    sparse::SupportCache src_cache;
    sparse::SupportCache rec_cache;
    sparse::ColorSets src_colors;
    if (blocked) {
      src_cache = sparse::SupportCache(src, opts_.interp, e);
      // Conflict-free color sets (see sparse/operators.hpp): sites sharing
      // a support grid point land in different layers, ordered so the
      // parallel scatter reproduces the serial accumulation order bitwise.
      src_colors = sparse::ColorSets(src_cache, e);
      if (rec != nullptr && rec->npoints() > 0) {
        rec_cache = sparse::SupportCache(*rec, opts_.interp, e);
      }
    }

    util::Timer timer;
    const auto blocks =
        blocked ? grid::decompose_xy(grid::Box3::whole(e), opts_.tiles.block_x,
                                     opts_.tiles.block_y)
                : std::vector<grid::Box3>{grid::Box3::whole(e)};
    // Reference stays a strictly serial whole-domain sweep (the validation
    // baseline); SpaceBlocked parallelizes each substep's independent
    // blocks across the resolved worker count.
    const int block_threads = blocked ? threads : 1;
    for (int t = t_begin; t < nt; ++t) {
      // Under a barrier schedule the "band" is one full timestep including
      // its sparse operators and callbacks — the unit comparable to a
      // temporally blocked band in the exported histograms.
      TEMPEST_TRACE_SPAN_ARG_METRIC("step", "schedule", t, BandSeconds);
      TEMPEST_TRACE_COUNT(BlocksExecuted, S * blocks.size());
      // Substeps are dependent (stress reads the new velocity): each is a
      // full parallel sweep of its own.
      for (int sub = 0; sub < S; ++sub) {
        const int s = S * t + sub;
        TEMPEST_TRACE_SPAN_ARG_METRIC("substep", "schedule", s,
                                      SubstepSeconds);
        util::parallel_for(
            static_cast<int>(blocks.size()), block_threads,
            [&](int b) { substep_block(s, blocks[static_cast<std::size_t>(b)]); });
      }
      {
        TEMPEST_TRACE_SPAN_ARG("inject", "sparse", t);
        const FieldRefs targets = k_.inject_fields(t);
        for (int i = 0; i < targets.count; ++i) {
          if (blocked) {
            sparse::inject_colored(*targets.field[i], src, t, src_cache,
                                   src_colors, block_threads, inj_scale);
          } else {
            sparse::inject(*targets.field[i], src, t, opts_.interp,
                           inj_scale);
          }
        }
      }
      if (rec != nullptr && rec->npoints() > 0) {
        TEMPEST_TRACE_SPAN_ARG("interp", "sparse", t);
        if (blocked) {
          sparse::interpolate_cached(k_.gather_field(t), *rec, t, rec_cache,
                                     block_threads);
        } else {
          sparse::interpolate(k_.gather_field(t), *rec, t, opts_.interp);
        }
      }
      health_point(t + 1, /*cadence_gated=*/true);
      if (on_step) on_step(t + 1);
    }
    stats.seconds = timer.seconds();
    return stats;
  }

 private:
  Kernel& k_;
  const ExecutionOptions& opts_;
};

/// Flatten a kernel's state parts — time buffers (every slot, in slot
/// order) and single grids — into one slice list whose constness follows
/// the parts: the checkpoint order of that kernel's state.
template <typename... Parts>
[[nodiscard]] auto state_slices(Parts&... parts) {
  using Grid = std::conditional_t<(std::is_const_v<Parts> && ...),
                                  const grid::Grid3<real_t>,
                                  grid::Grid3<real_t>>;
  std::vector<Grid*> out;
  const auto add = [&out](auto& part) {
    if constexpr (requires { part.slots(); }) {
      for (int s = 0; s < part.slots(); ++s) out.push_back(&part.slot(s));
    } else {
      out.push_back(&part);
    }
  };
  (add(parts), ...);
  return out;
}

/// The checkpoint surface every propagator shares. `Derived` names its
/// state once, as a private `template <typename Self> static auto
/// state(Self& self)` returning state_slices(...) over its fields, and
/// befriends this base; `FirstStep` is its kernel's first timestep.
template <typename Derived, int FirstStep>
class Checkpointable {
 public:
  /// Zero-copy view of the live state after timestep `step` completed: the
  /// kernel's slices, the gather recorded so far (when `rec` is non-null)
  /// and the caller's config fingerprint; add aux blobs, then save() it.
  /// Call only at a global time barrier — from a StepCallback, which
  /// wavefront and diamond reject — and save before the callback returns:
  /// the view reads the slices the next timestep overwrites.
  [[nodiscard]] resilience::CheckpointView state_view(
      int step, std::uint64_t fingerprint,
      const sparse::SparseTimeSeries* rec = nullptr) const {
    TEMPEST_REQUIRE(step >= FirstStep);
    resilience::CheckpointView v;
    v.fingerprint = fingerprint;
    v.step = step;
    v.slots = Derived::state(static_cast<const Derived&>(*this));
    v.rec = rec;
    return v;
  }

  /// Owning snapshot: a copy of state_view(step, fingerprint, rec) that
  /// outlives the barrier. `step` is the next run_from()'s `t_begin`.
  [[nodiscard]] resilience::Checkpoint capture(
      int step, std::uint64_t fingerprint,
      const sparse::SparseTimeSeries* rec = nullptr) const {
    return resilience::Checkpoint(state_view(step, fingerprint, rec));
  }

  /// Seed the state slices from a checkpoint. Throws
  /// resilience::CheckpointMismatchError when the checkpoint's slice count
  /// or grid geometry does not match.
  void restore(const resilience::Checkpoint& ck) {
    const auto slices = Derived::state(static_cast<Derived&>(*this));
    const grid::Extents3& e = slices.front()->extents();
    const int halo = slices.front()->halo();
    if (ck.slots.size() != slices.size() ||
        ck.slots.front().extents() != e || ck.slots.front().halo() != halo) {
      std::ostringstream os;
      os << "checkpoint does not fit this propagator: it holds "
         << ck.slots.size() << " slices";
      if (!ck.slots.empty()) {
        const auto& ce = ck.slots.front().extents();
        os << " of " << ce.nx << "x" << ce.ny << "x" << ce.nz << " (halo "
           << ck.slots.front().halo() << ")";
      }
      os << ", this run needs " << slices.size() << " of " << e.nx << "x"
         << e.ny << "x" << e.nz << " (halo " << halo << ")";
      throw resilience::CheckpointMismatchError(os.str());
    }
    for (std::size_t i = 0; i < slices.size(); ++i) *slices[i] = ck.slots[i];
  }
};

}  // namespace tempest::core::engine
