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
// One time loop: every schedule builds one core::TilePlan and runs it
// through one core::execute call, so the plan that runs is the plan the
// race prover proves and cachesim replays.
//
// Substep axis: a kernel declares kSubstepsPerStep (S). Second-order-in-time
// systems (acoustic, TTI, VTI) take S = 1; the first-order elastic system
// takes S = 2 (velocity then stress half-updates). Temporally blocked
// schedules tile the substep axis s = S*t + sub with slope = radius per
// substep — the paper's "shifted wave-front angle" for staggered multi-grid
// updates. Every schedule runs the sparse operators after the last substep
// of each timestep: fused into that substep's blocks under temporal
// blocking, in the band hook of that substep's band otherwise.

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

/// Called at each instant where every timestep before `t_done` is fully
/// computed (stencil + sparse operators) and its receiver rows are reduced:
/// after every step on barrier schedules, after every time band under
/// wavefront and diamond (`t_done` is then the band end). The live slices
/// hold u[.. t_done] exactly as a barrier run holds them at `t_done`, so
/// the callback may snapshot or save them (Checkpointable::state_view)
/// before it returns; the next step overwrites them.
using StepCallback = std::function<void(int t_done)>;

/// Propagator tuning knobs shared by all kernels.
struct ExecutionOptions {
  core::TileSpec tiles{};
  sparse::InterpKind interp = sparse::InterpKind::Trilinear;
  double dt = 0.0;  ///< timestep (ms); 0 selects the model's critical dt

  /// Worker threads for the parallel schedules: 0 defers to
  /// $TEMPEST_THREADS, then to std::thread::hardware_concurrency().
  /// 1 always takes the deterministic serial path.
  /// Results are bitwise identical at every value — wavefront/diamond
  /// bands run as dependence-ordered tasks over disjoint tiles, gathers
  /// reduce in fixed point order at band barriers, injection is
  /// color-partitioned, and every worker computes under the run's
  /// floating-point mode — so this is purely a throughput knob.
  int threads = 0;

  /// Numerical health monitoring (NaN/Inf and energy blow-up scans).
  /// Disabled by default; when enabled, barrier schedules scan every
  /// `check_every` steps and temporally blocked schedules scan at time-band
  /// boundaries — the only instants a whole timestep exists under blocking.
  resilience::HealthPolicy health{};

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

/// The single generic time-loop core. Owns schedule dispatch, the one
/// tile plan every schedule executes, the sparse-operator wiring, the
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
  /// uninterrupted one bitwise under the same schedule and options. The run
  /// computes under the caller's fp_mode() with util::kFlushSubnormals
  /// added and leaves the caller's word as it found it.
  /// Every schedule is one core::execute of make_plan()'s plan with one
  /// block function and one band hook.
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
    if (rec != nullptr) {
      TEMPEST_REQUIRE(rec->nt() >= nt);
    }
    // The whole run computes with subnormals flushed to zero, on this
    // thread and on every worker (each parallel region adopts this word):
    // the stencil's subnormal tail ahead of the wavefront would otherwise
    // take a microcode assist per operation. The caller's word comes back
    // on return and on a throw (DESIGN §6.1).
    const util::FpModeScope flushed(util::fp_mode() | util::kFlushSubnormals);

    resilience::HealthMonitor monitor(opts_.health);
    const grid::Extents3& e = k_.extents();
    const int radius = k_.radius();
    const bool has_rec = rec != nullptr && rec->npoints() > 0;
    const bool fused =
        sched == Schedule::Wavefront || sched == Schedule::Diamond;

    auto inj_scale = [this](int x, int y, int z) {
      return k_.inject_scale(x, y, z);
    };

    // Post-step hook shared by all schedules, run wherever every timestep
    // before `t_done` is complete: the deterministic fault-injection site
    // first (tests arm it; disarmed it is one int compare), then the
    // wavefield health scans, then the caller's step callback. Barrier
    // schedules gate the scan on the policy cadence; temporally blocked
    // schedules scan at every band end, the only such instants they have.
    auto post_step = [&](int t_done, bool cadence_gated) {
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
      if (on_step) on_step(t_done);
    };

    const core::TilePlan plan = make_plan(sched, t_begin, nt, has_rec);

    RunStats stats;
    stats.point_updates = static_cast<long long>(nt - t_begin) *
                          static_cast<long long>(e.size());

    // The sparse operators' state. Fused: the paper's precompute, timed —
    // affected points, src_dcmp and the packed columns straight from the
    // interpolation supports, no grid-sized buffer (the dense SM/SID
    // volumes of Listings 2-5 are the tested reference only). SpaceBlocked:
    // support caches and conflict-free color sets (sparse/operators.hpp),
    // whose parallel scatter reproduces the serial accumulation order
    // bitwise. Reference: none, its operators are uncached.
    core::AffectedPoints src_pts, rec_pts;
    core::DecomposedSource dcmp;
    core::ReceiverStage stage;
    sparse::SupportCache src_cache, rec_cache;
    sparse::ColorSets src_colors;
    if (fused) {
      util::Timer pre;
      src_pts = core::build_affected_points(e, src, opts_.interp);
      dcmp = core::decompose_sources(src_pts, src);
      if (has_rec) {
        rec_pts = core::build_affected_points(e, *rec, opts_.interp);
        // Band-local staging for the deterministic parallel gather (see
        // fused.hpp): one row per in-flight timestep of a band.
        stage = core::ReceiverStage(opts_.tiles.tile_t, rec_pts.npts);
        stage.begin_band(t_begin);
      }
      stats.precompute_seconds = pre.seconds();
    } else if (sched == Schedule::SpaceBlocked) {
      src_cache = sparse::SupportCache(src, opts_.interp, e);
      src_colors = sparse::ColorSets(src_cache, e);
      if (has_rec) rec_cache = sparse::SupportCache(*rec, opts_.interp, e);
    }
    const core::CompressedSparse& cs_rec = rec_pts.columns;
    // Reference stays a strictly serial whole-domain sweep (the validation
    // baseline); every other schedule runs on the resolved worker count.
    const int threads =
        sched == Schedule::Reference ? 1 : util::resolve_threads(opts_.threads);

    // One block of one substep, the single place the stencil span
    // (TileSeconds) and work counters are emitted. Fused schedules follow a
    // timestep's last substep (for S = 1 every one) with the block's share
    // of the sparse operators: injection writes only the block's columns,
    // and the gather *stages* per-point samples (each written by exactly one
    // tile) that the band hook accumulates in fixed point order — which is
    // what keeps every thread count bitwise identical.
    auto block = [&](int s, const grid::Box3& box) {
      {
        TEMPEST_TRACE_SPAN_ARG_METRIC("stencil", "compute", s, TileSeconds);
        TEMPEST_TRACE_COUNT(CellsUpdated, box.volume());
        TEMPEST_TRACE_COUNT(HaloCellsTouched,
                            2 * radius *
                                (box.x.length() * box.y.length() +
                                 box.y.length() * box.z.length() +
                                 box.x.length() * box.z.length()));
        k_.apply(s, box);
      }
      if (!fused || (s + 1) % S != 0) return;
      const int t = s / S;
      {
        TEMPEST_TRACE_SPAN_ARG("inject", "sparse", t);
        const FieldRefs targets = k_.inject_fields(t);
        for (int i = 0; i < targets.count; ++i) {
          core::fused_inject(*targets.field[i], src_pts.columns, dcmp, t,
                             box.x, box.y, inj_scale);
        }
      }
      if (has_rec && !cs_rec.empty()) {
        TEMPEST_TRACE_SPAN_ARG("interp", "sparse", t);
        core::fused_sample(k_.gather_field(t), cs_rec, stage.row(t), box.x,
                           box.y);
      }
    };

    // Completed-band hook (serial, after the band's task graph drains):
    // every timestep < se/S is then fully computed. A fused band reduces its
    // staged gather samples in ascending point-id order; a barrier band that
    // ends a timestep runs that step's sparse operators. Then post_step.
    int reduced_upto = t_begin;
    auto on_band = [&](int se) {
      if (se % S != 0) return;  // a barrier band ending mid-step
      const int t_done = se / S;
      if (fused) {
        if (has_rec && !cs_rec.empty()) {
          TEMPEST_TRACE_SPAN_ARG("interp.reduce", "sparse", t_done);
          for (int t = reduced_upto; t < t_done; ++t) {
            core::reduce_receiver_stage(stage, rec_pts, t,
                                        rec->step(t).data());
          }
        }
        if (has_rec) stage.begin_band(t_done);
        reduced_upto = t_done;
        post_step(t_done, /*cadence_gated=*/false);
        return;
      }
      const int t = t_done - 1;
      const bool blocked = sched == Schedule::SpaceBlocked;
      {
        TEMPEST_TRACE_SPAN_ARG("inject", "sparse", t);
        const FieldRefs targets = k_.inject_fields(t);
        for (int i = 0; i < targets.count; ++i) {
          if (blocked) {
            sparse::inject_colored(*targets.field[i], src, t, src_cache,
                                   src_colors, threads, inj_scale);
          } else {
            sparse::inject(*targets.field[i], src, t, opts_.interp,
                           inj_scale);
          }
        }
      }
      if (has_rec) {
        TEMPEST_TRACE_SPAN_ARG("interp", "sparse", t);
        if (blocked) {
          sparse::interpolate_cached(k_.gather_field(t), *rec, t, rec_cache,
                                     threads);
        } else {
          sparse::interpolate(k_.gather_field(t), *rec, t, opts_.interp);
        }
      }
      post_step(t_done, /*cadence_gated=*/true);
    };

    util::Timer timer;
    core::execute(plan, threads, block, on_band);
    stats.seconds = timer.seconds();
    return stats;
  }

 private:
  /// The run's one tile plan over substeps [S*t_begin, S*nt). Barrier
  /// schedules take one band per substep, legal by construction: one
  /// whole-domain block (Reference) or the paper's Fig. 4a blocks
  /// (SpaceBlocked). Temporal bands are S*tile_t substeps skewed by
  /// `radius` per substep. TileGraph::derive first verifies the stage-2
  /// (fused + compressed) nest's dependence distances against the
  /// kernel's *declared* access shape, so a reach beyond the skew throws
  /// instead of reading stale halo cells; then the statics race prover
  /// shows that no two tasks without a path in their band's DAG overlap
  /// write/write or write/read — slot aliasing and the fused gather's
  /// in-rect read included.
  [[nodiscard]] core::TilePlan make_plan(Schedule sched, int t_begin, int nt,
                                         bool has_rec) const {
    constexpr int S = Kernel::kSubstepsPerStep;
    const grid::Extents3& e = k_.extents();
    const int radius = k_.radius();
    const core::TileSpec& tiles = opts_.tiles;
    const int s0 = S * t_begin;
    const int s1 = S * nt;
    if (sched == Schedule::Reference) {
      return core::TilePlan::space_blocked(e, s0, s1,
                                           {1, e.nx, e.ny, e.nx, e.ny});
    }
    if (sched == Schedule::SpaceBlocked) {
      return core::TilePlan::space_blocked(e, s0, s1, tiles);
    }
    const bool wavefront = sched == Schedule::Wavefront;
    const analysis::AccessSummary summary = k_.access_summary();
    TileGraph::derive(
        summary,
        wavefront
            ? analysis::ScheduleDescriptor::wavefront(S * radius, tiles.tile_t)
            : analysis::ScheduleDescriptor::diamond(S * radius, tiles.tile_t),
        /*sources=*/true, /*receivers=*/has_rec, tiles);
    const int height = S * tiles.tile_t;
    core::TileSpec spec = tiles;
    spec.tile_t = height;
    // A diamond's x period must accommodate the band's dependency cone.
    const core::TilePlan plan =
        wavefront ? core::TilePlan::wavefront(e, s0, s1, radius, spec)
                  : core::TilePlan::diamond(
                        e, s0, s1, radius,
                        {height, std::max(tiles.tile_x, 2 * radius * height),
                         tiles.block_x, tiles.block_y});
    analysis::statics::require_race_free(analysis::statics::prove_race_free(
        plan, {radius, 1, summary.time_reads, has_rec, summary.slots}));
    return plan;
  }

  Kernel& k_;
  const ExecutionOptions& opts_;
};

/// A kernel's state in checkpoint order: `slices` lists every slot of
/// each time buffer (in slot order) and each single grid; `depths` gives
/// each part's slot count, 0 for a single grid.
template <typename Grid>
struct StateSlices {
  std::vector<Grid*> slices;
  std::vector<int> depths;
};

/// Flatten a kernel's state parts — time buffers and single grids — into
/// one slice list whose constness follows the parts.
template <typename... Parts>
[[nodiscard]] auto state_slices(Parts&... parts) {
  using Grid = std::conditional_t<(std::is_const_v<Parts> && ...),
                                  const grid::Grid3<real_t>,
                                  grid::Grid3<real_t>>;
  StateSlices<Grid> out;
  const auto add = [&out](auto& part) {
    if constexpr (requires { part.slots(); }) {
      for (int s = 0; s < part.slots(); ++s) {
        out.slices.push_back(&part.slot(s));
      }
      out.depths.push_back(part.slots());
    } else {
      out.slices.push_back(&part);
      out.depths.push_back(0);
    }
  };
  (add(parts), ...);
  return out;
}

/// The run and checkpoint surface every propagator shares. `Derived` names
/// its state once, as a private `template <typename Self> static auto
/// state(Self& self)` returning state_slices(...) over its fields, and
/// befriends this base; `FirstStep` is its kernel's first timestep.
/// `Derived` supplies run_from(t_begin, sched, src, rec, on_step), which
/// executes timesteps [t_begin, src.nt()) on state already in its fields,
/// and options(), its ExecutionOptions.
template <typename Derived, int FirstStep>
class Checkpointable {
 public:
  static constexpr int kFirstStep = FirstStep;

  /// Propagate `src` for src.nt() timesteps from zero state, recording into
  /// `rec` if non-null (rec->nt() must be >= src.nt()): zeroes `rec` and
  /// every state slice, then run_from(FirstStep, ...). `on_step` is the
  /// StepCallback contract. A model passed at construction must outlive
  /// the propagator. The slices are zeroed on the run's own workers
  /// (options().threads resolved), as the constructor first touched them.
  RunStats run(Schedule sched, const sparse::SparseTimeSeries& src,
               sparse::SparseTimeSeries* rec = nullptr,
               const StepCallback& on_step = {}) {
    auto& self = static_cast<Derived&>(*this);
    if (rec != nullptr) rec->zero();
    const int threads = util::resolve_threads(self.options().threads);
    for (grid::Grid3<real_t>* slice : Derived::state(self).slices) {
      slice->fill(real_t{0}, threads);
    }
    return self.run_from(kFirstStep, sched, src, rec, on_step);
  }

  /// Zero-copy view of the live state after timestep `step` completed: the
  /// kernel's slices, the gather recorded so far (when `rec` is non-null)
  /// and the caller's config fingerprint; add aux blobs, then save() it.
  /// Call it from a StepCallback with `step` == t_done (any schedule) and
  /// save before the callback returns: the view reads the slices the next
  /// timestep overwrites.
  [[nodiscard]] resilience::CheckpointView state_view(
      int step, std::uint64_t fingerprint,
      const sparse::SparseTimeSeries* rec = nullptr) const {
    TEMPEST_REQUIRE(step >= FirstStep);
    resilience::CheckpointView v;
    v.fingerprint = fingerprint;
    v.step = step;
    v.slots = Derived::state(static_cast<const Derived&>(*this)).slices;
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

  /// Seed the state slices from a checkpoint. Also reads the layout
  /// written before time buffers took their depth from the kernel: every
  /// buffer then held three slices, slice t mod 3 holding u[t]; the slices
  /// of ck.step and ck.step - 1 go to their homes in a two-slot buffer.
  /// Throws resilience::CheckpointMismatchError when the checkpoint's
  /// slice count or grid geometry does not match.
  void restore(const resilience::Checkpoint& ck) {
    const auto state = Derived::state(static_cast<Derived&>(*this));
    const grid::Extents3& e = state.slices.front()->extents();
    const int halo = state.slices.front()->halo();
    std::size_t legacy = 0;
    for (const int d : state.depths) legacy += d > 0 ? 3 : 1;
    const bool fits =
        ck.slots.size() == state.slices.size() || ck.slots.size() == legacy;
    if (!fits || ck.slots.front().extents() != e ||
        ck.slots.front().halo() != halo) {
      std::ostringstream os;
      os << "checkpoint does not fit this propagator: it holds "
         << ck.slots.size() << " slices";
      if (!ck.slots.empty()) {
        const auto& ce = ck.slots.front().extents();
        os << " of " << ce.nx << "x" << ce.ny << "x" << ce.nz << " (halo "
           << ck.slots.front().halo() << ")";
      }
      os << ", this run needs " << state.slices.size() << " of " << e.nx
         << "x" << e.ny << "x" << e.nz << " (halo " << halo << ")";
      throw resilience::CheckpointMismatchError(os.str());
    }
    if (ck.slots.size() == state.slices.size()) {
      for (std::size_t i = 0; i < ck.slots.size(); ++i) {
        *state.slices[i] = ck.slots[i];
      }
      return;
    }
    const auto fold = [](int t, int n) {
      return static_cast<std::size_t>(((t % n) + n) % n);
    };
    std::size_t from = 0;
    std::size_t to = 0;
    for (const int d : state.depths) {
      if (d == 0) {
        *state.slices[to++] = ck.slots[from++];
        continue;
      }
      for (int back = 0; back < std::min(d, 3); ++back) {
        const int t = ck.step - back;
        *state.slices[to + fold(t, d)] = ck.slots[from + fold(t, 3)];
      }
      to += static_cast<std::size_t>(d);
      from += 3;
    }
  }
};

}  // namespace tempest::core::engine
