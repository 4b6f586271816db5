#include "tempest/analysis/statics/interference.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

namespace tempest::analysis::statics {

namespace {

/// One concrete footprint box: a circular-buffer slot and an x/y range
/// (z is never tiled, so it never separates tasks and is omitted).
struct Box {
  int slot = 0;
  int x0 = 0, x1 = 0;  ///< [x0, x1)
  int y0 = 0, y1 = 0;
  int t = 0;        ///< substep, for diagnostics
  bool read = false;

  /// Same cells in x/y, whatever the slot.
  [[nodiscard]] bool meets(const Box& o) const {
    return x0 < o.x1 && o.x0 < x1 && y0 < o.y1 && o.y0 < y1;
  }

  [[nodiscard]] bool overlaps(const Box& o) const {
    return slot == o.slot && meets(o);
  }

  [[nodiscard]] std::string str() const {
    std::ostringstream os;
    os << (read ? "reads" : "writes") << " slot " << slot << " x[" << x0
       << "," << x1 << ") y[" << y0 << "," << y1 << ") at substep t=" << t;
    return os.str();
  }
};

/// The footprint boxes of one task, enumerated from its plan steps: per
/// substep the write at slot t+write_dt over the rect, the stencil reads
/// over the rect grown by the halo radius, and (with receivers) the fused
/// gather's in-rect read of the freshly written slice. `hull` bounds them
/// all: two tasks whose hulls do not meet cannot conflict.
struct Task {
  std::vector<Box> writes;
  std::vector<Box> reads;
  Box hull{0, std::numeric_limits<int>::max(), std::numeric_limits<int>::min(),
           std::numeric_limits<int>::max(), std::numeric_limits<int>::min()};
};

Task footprints(const std::vector<core::TileStep>& steps, const Footprint& f,
                int slots) {
  const auto slot = [slots](int t) { return ((t % slots) + slots) % slots; };
  Task task;
  const auto add = [&task](std::vector<Box>& to, const Box& b) {
    task.hull.x0 = std::min(task.hull.x0, b.x0);
    task.hull.x1 = std::max(task.hull.x1, b.x1);
    task.hull.y0 = std::min(task.hull.y0, b.y0);
    task.hull.y1 = std::max(task.hull.y1, b.y1);
    to.push_back(b);
  };
  for (const core::TileStep& s : steps) {
    const int x0 = s.rect.x.lo;
    const int x1 = s.rect.x.hi;
    const int y0 = s.rect.y.lo;
    const int y1 = s.rect.y.hi;
    add(task.writes, {slot(s.t + f.write_dt), x0, x1, y0, y1, s.t, false});
    for (std::size_t i = 0; i < f.time_reads.size(); ++i) {
      const int g = i == 0 || f.slots == 0 ? f.radius : 0;
      add(task.reads, {slot(s.t + f.time_reads[i]), x0 - g, x1 + g, y0 - g,
                       y1 + g, s.t, true});
    }
    if (f.receivers) {
      add(task.reads, {slot(s.t + f.write_dt), x0, x1, y0, y1, s.t, true});
    }
  }
  return task;
}

/// ancestors[b][a]: the band DAG has a path a -> b. Edges point forward
/// (pred < succ), so one ascending pass closes the relation.
std::vector<std::vector<bool>> ancestors(const util::TaskDag& dag) {
  const auto n = static_cast<std::size_t>(dag.size());
  std::vector<std::vector<bool>> anc(n, std::vector<bool>(n, false));
  for (std::size_t b = 0; b < n; ++b) {
    for (const int p : dag.preds(static_cast<int>(b))) {
      const auto pred = static_cast<std::size_t>(p);
      for (std::size_t a = 0; a < pred; ++a) {
        if (anc[pred][a]) anc[b][a] = true;
      }
      anc[b][pred] = true;
    }
  }
  return anc;
}

Diagnostic conflict_diag(const std::string& where, const std::string& a,
                         const Box& wa, const std::string& b, const Box& fb) {
  Diagnostic d;
  d.severity = Diagnostic::Severity::Error;
  d.code = "tile-interference";
  d.message = where + ": " + a + " and " + b +
              " have no path in the band DAG, but " + a + " " + wa.str() +
              " while " + b + " " + fb.str() +
              " — concurrent tasks touch the same cells";
  return d;
}

/// The descriptor a plan's report is labelled with.
ScheduleDescriptor descriptor_of(const core::TilePlan& plan) {
  const int height =
      plan.bands.empty() ? 1 : plan.bands.front().te - plan.bands.front().t0;
  switch (plan.kind) {
    case core::TilePlan::Kind::Wavefront:
      return {SchedKind::Wavefront, plan.slope, height};
    case core::TilePlan::Kind::Diamond:
      return {SchedKind::Diamond, plan.slope, height};
    case core::TilePlan::Kind::SpaceBlocked: break;
  }
  return ScheduleDescriptor::space_blocked();
}

InterferenceReport prove(const core::TilePlan& plan, const Footprint& f,
                         const ScheduleDescriptor& sched) {
  InterferenceReport report;
  report.schedule = sched;
  const int slots =
      f.slots > 0 ? f.slots : slices_spanned(f.write_dt, f.time_reads);

  constexpr int kMaxDiagnostics = 6;
  for (const core::TileBand& band : plan.bands) {
    std::vector<Task> tasks;
    tasks.reserve(band.tasks.size());
    for (const auto& steps : band.tasks) {
      tasks.push_back(footprints(steps, f, slots));
    }
    report.tasks += static_cast<int>(tasks.size());
    const std::vector<std::vector<bool>> anc = ancestors(band.dag);
    const std::string where = sched.str() + " band [" +
                              std::to_string(band.t0) + "," +
                              std::to_string(band.te) + ")";

    for (std::size_t ai = 0; ai < tasks.size(); ++ai) {
      for (std::size_t bi = ai + 1; bi < tasks.size(); ++bi) {
        if (anc[bi][ai]) continue;
        ++report.unordered_pairs;
        if (!tasks[ai].hull.meets(tasks[bi].hull)) continue;
        const auto label = [&](std::size_t node) {
          return plan.task_label(band, static_cast<int>(node));
        };
        // The proof obligation: writes of either task disjoint from both
        // the writes and the reads of the other. One diagnostic per
        // pair/obligation is enough — the first overlap names the pair.
        const auto scan = [&](std::size_t w, std::size_t o,
                              const std::vector<Box>& other) {
          for (const Box& wb : tasks[w].writes) {
            for (const Box& ob : other) {
              if (!wb.overlaps(ob)) continue;
              ++report.conflicts;
              if (report.conflicts <= kMaxDiagnostics) {
                report.diagnostics.push_back(
                    conflict_diag(where, label(w), wb, label(o), ob));
              }
              return;
            }
          }
        };
        scan(ai, bi, tasks[bi].writes);  // write/write (symmetric, once)
        scan(ai, bi, tasks[bi].reads);   // a writes what b reads
        scan(bi, ai, tasks[ai].reads);   // b writes what a reads
      }
    }
  }
  if (report.conflicts > kMaxDiagnostics) {
    Diagnostic d;
    d.severity = Diagnostic::Severity::Note;
    d.code = "tile-interference";
    d.message = "... and " +
                std::to_string(report.conflicts - kMaxDiagnostics) +
                " further conflicting pair(s) suppressed";
    report.diagnostics.push_back(std::move(d));
  }
  if (report.race_free()) {
    Diagnostic d;
    d.severity = Diagnostic::Severity::Note;
    d.code = "race-free";
    d.message = std::to_string(report.tasks) + " task(s), " +
                std::to_string(report.unordered_pairs) +
                " unordered pair(s): all write/write and write/read "
                "footprints disjoint";
    report.diagnostics.push_back(std::move(d));
  }
  return report;
}

}  // namespace

TileModel TileModel::from_summary(const AccessSummary& summary,
                                  const ScheduleDescriptor& sched,
                                  int tile_x, int tile_y, int nx, int ny,
                                  bool receivers) {
  TileModel m;
  m.schedule = sched;
  m.tile_x = tile_x;
  m.tile_y = tile_y;
  m.nx = nx;
  m.ny = ny;
  m.radius = summary.radius;
  m.write_dt = 1;
  m.time_reads = summary.time_reads;
  m.receivers = receivers;
  m.slots = summary.slots;
  return m;
}

std::string InterferenceReport::str() const {
  std::ostringstream os;
  os << "interference[" << schedule.str() << "]: " << tasks << " task(s), "
     << unordered_pairs << " unordered pair(s), " << conflicts
     << " conflict(s) -> "
     << (race_free() ? "race-free" : "INTERFERENCE");
  for (const Diagnostic& d : diagnostics) os << "\n  " << d.str();
  return os.str();
}

InterferenceReport prove_race_free(const core::TilePlan& plan,
                                   const Footprint& footprint) {
  return prove(plan, footprint, descriptor_of(plan));
}

InterferenceReport prove_race_free(const TileModel& m) {
  const grid::Extents3 e{m.nx, m.ny, 1};
  const int slope = m.schedule.slope;
  const int height = std::max(1, m.schedule.tile_t);
  const core::TileSpec tiles{height, m.tile_x, m.tile_y, m.tile_x, m.tile_y};
  core::TilePlan plan;
  switch (m.schedule.kind) {
    case SchedKind::Reference:
      // One serial sweep: a single whole-domain task.
      plan = core::TilePlan::space_blocked(e, 0, 1,
                                           {1, m.nx, m.ny, m.nx, m.ny});
      break;
    case SchedKind::SpaceBlocked:
      plan = core::TilePlan::space_blocked(e, 0, 1, tiles);
      break;
    case SchedKind::Wavefront:
    case SchedKind::Fused:  // Fused is wavefront with tile_t = 1
      plan = core::TilePlan::wavefront(e, 0, height, slope, tiles);
      break;
    case SchedKind::Diamond:
      plan = core::TilePlan::diamond(
          e, 0, height, slope,
          {height, std::max(m.tile_x, 2 * slope * height), m.tile_x,
           m.tile_y});
      break;
  }
  return prove(plan, m, m.schedule);
}

namespace {

std::string interference_message(const InterferenceReport& report) {
  std::ostringstream os;
  os << "tile-interference: " << report.conflicts
     << " unordered tile pair(s) with overlapping footprints under "
     << report.schedule.str() << "\n"
     << report.str();
  return os.str();
}

}  // namespace

TileInterferenceError::TileInterferenceError(InterferenceReport report)
    : util::PreconditionError(interference_message(report)),
      report_(std::move(report)) {}

void require_race_free(const InterferenceReport& report) {
  if (!report.race_free()) throw TileInterferenceError(report);
}

}  // namespace tempest::analysis::statics
