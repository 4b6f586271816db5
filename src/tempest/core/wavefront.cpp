#include "tempest/core/wavefront.hpp"

#include <algorithm>
#include <sstream>
#include <string>

namespace tempest::core {

std::string validate_schedule(const grid::Extents3& e, int t_begin, int t_end,
                              int radius,
                              const std::vector<ScheduleOp>& ops) {
  // Sequence number of the op computing (t, x, y); ops always span full z,
  // so the check runs on x–y columns. -1 = not yet computed.
  const int nt = t_end - t_begin;
  if (nt <= 0) return ops.empty() ? "" : "ops scheduled for empty time range";
  const std::size_t plane = static_cast<std::size_t>(e.nx) *
                            static_cast<std::size_t>(e.ny);
  std::vector<long> seq(static_cast<std::size_t>(nt) * plane, -1);
  auto slot = [&](int t, int x, int y) -> long& {
    return seq[static_cast<std::size_t>(t - t_begin) * plane +
               static_cast<std::size_t>(x) * static_cast<std::size_t>(e.ny) +
               static_cast<std::size_t>(y)];
  };

  std::ostringstream err;

  // Pass 1: coverage and uniqueness.
  long n = 0;
  for (const ScheduleOp& op : ops) {
    if (op.t < t_begin || op.t >= t_end) {
      err << "op " << n << " has timestep " << op.t << " outside ["
          << t_begin << ", " << t_end << ")";
      return err.str();
    }
    if (op.box.z != grid::Range{0, e.nz}) {
      err << "op " << n << " does not span the full z extent";
      return err.str();
    }
    for (int x = op.box.x.lo; x < op.box.x.hi; ++x) {
      for (int y = op.box.y.lo; y < op.box.y.hi; ++y) {
        long& s = slot(op.t, x, y);
        if (s != -1) {
          err << "point (t=" << op.t << ", x=" << x << ", y=" << y
              << ") computed twice (ops " << s << " and " << n << ")";
          return err.str();
        }
        s = n;
      }
    }
    ++n;
  }
  for (int t = t_begin; t < t_end; ++t) {
    for (int x = 0; x < e.nx; ++x) {
      for (int y = 0; y < e.ny; ++y) {
        if (slot(t, x, y) == -1) {
          err << "point (t=" << t << ", x=" << x << ", y=" << y
              << ") never computed";
          return err.str();
        }
      }
    }
  }

  // Pass 2: direct flow dependencies. Op (t,p) reads the values produced by
  // ops (t-1, p+d), |d|_inf <= radius, and by op (t-2, p); transitivity of
  // the precedence order then also covers the circular-buffer
  // anti-dependencies (see wavefront_test for the argument spelled out).
  for (int t = t_begin + 1; t < t_end; ++t) {
    for (int x = 0; x < e.nx; ++x) {
      for (int y = 0; y < e.ny; ++y) {
        const long me = slot(t, x, y);
        for (int dx = -radius; dx <= radius; ++dx) {
          const int qx = x + dx;
          if (qx < 0 || qx >= e.nx) continue;
          for (int dy = -radius; dy <= radius; ++dy) {
            const int qy = y + dy;
            if (qy < 0 || qy >= e.ny) continue;
            if (slot(t - 1, qx, qy) >= me) {
              err << "flow dependency violated: (t=" << t << ", x=" << x
                  << ", y=" << y << ") ran before its input (t=" << t - 1
                  << ", x=" << qx << ", y=" << qy << ")";
              return err.str();
            }
          }
        }
        if (t - 2 >= t_begin && slot(t - 2, x, y) >= me) {
          err << "time-order-2 dependency violated at (t=" << t
              << ", x=" << x << ", y=" << y << ")";
          return err.str();
        }
      }
    }
  }
  return "";
}

}  // namespace tempest::core
