// Reverse-time migration (RTM): the application the paper is motivated by
// (Section I: "full-waveform inversion (FWI) and reverse time migration
// (RTM)"). A complete single-shot RTM:
//
//   1. model "observed" data through the *true* model (with a sharp, fast
//      reflector) — this modelling pass uses the paper's wave-front
//      temporally blocked schedule, RTM's hot loop;
//   2. forward-propagate the source through the *smooth* background model,
//      snapshotting the wavefield every few steps;
//   3. back-propagate the time-reversed residual data from the receivers
//      (the adjoint wavefield) and apply the zero-lag cross-correlation
//      imaging condition  I(x) = sum_t u_src(x,t) * u_rec(x,t).
//
// The image's strongest response should localise the reflector depth; the
// example prints the picked depth vs the true one and writes an (x,z) image
// slice as CSV.
//
// Build & run:  ./build/examples/rtm [--size=112] [--steps=220]
//               [--schedule=wavefront|diamond|space-blocked|reference]
//               [--stride=4] [--out=rtm_image.csv]
//               [--checkpoint=rtm.tpck] [--ckpt-every=50]
//               [--trace=rtm_trace.json] [--metrics=rtm_metrics.csv]
//               [--pmu] [--openmetrics=rtm.om]
//
// --trace writes a Chrome trace_event JSON (load in Perfetto or
// chrome://tracing) with per-timestep injection/stencil/interpolation
// spans; --metrics dumps the tempest::trace counters (CSV or JSON by
// extension). --pmu enriches every traced span with hardware-counter
// deltas (cycles, cache misses, ...) where the kernel allows
// perf_event_open, and prints a whole-run counter summary; on machines
// without a PMU it degrades to a one-line notice.
//
// --openmetrics writes the run's trace counters and obs latency histograms
// (tile and band timings, JIT compile latency) — plus the whole-run PMU
// deltas under --pmu — as an OpenMetrics textfile for node-exporter-style
// scraping.
//
// --schedule selects the execution schedule of the two modelling passes
// (any schedule is legal for any physics; wavefront is the default, diamond
// the alternative temporal-blocking family). The snapshotting forward pass
// and the imaging adjoint pass stay space-blocked: under temporal blocking
// the step callback runs only at band ends, and the imaging condition
// pairs forward step nt-1-tau with adjoint step tau, so the band ends of
// the two passes land on such a pair only when tile_t divides nt-3
// (acoustic's first step is 1). Imaging on --schedule needs its own design.
//
// With --checkpoint the adjoint/imaging pass — the long tail of the run —
// checkpoints its wavefield state and the partial image every --ckpt-every
// steps. A restarted run recomputes the deterministic modelling and forward
// passes, then resumes the adjoint pass where it died.

#include <cmath>
#include <cstdio>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <optional>
#include <vector>

#include "tempest/io/io.hpp"
#include "tempest/obs/metrics.hpp"
#include "tempest/obs/openmetrics.hpp"
#include "tempest/perf/pmu.hpp"
#include "tempest/physics/acoustic.hpp"
#include "tempest/resilience/checkpoint.hpp"
#include "tempest/sparse/survey.hpp"
#include "tempest/sparse/wavelet.hpp"
#include "tempest/trace/trace.hpp"
#include "tempest/util/cli.hpp"

int main(int argc, char** argv) {
  using namespace tempest;
  const util::Cli cli(argc, argv);
  const int n = static_cast<int>(cli.get_int("size", 96));
  // The record must cover the two-way travel time to the reflector
  // (~0.35*n cells deep): with dt ~1.4 ms the default 420 steps ≈ 590 ms.
  const int nt = static_cast<int>(cli.get_int("steps", 420));
  const int stride = static_cast<int>(cli.get_int("stride", 8));
  const physics::Schedule modelling_sched =
      physics::schedule_from_string(cli.get("schedule", "wavefront"));
  const std::string out = cli.get("out", "rtm_image.csv");
  const std::string ckpt_path = cli.get("checkpoint", "");
  const int ckpt_every = static_cast<int>(cli.get_int("ckpt-every", 50));
  const trace::Session trace_session(cli.get("trace", ""),
                                     cli.get("metrics", ""));
  const std::string openmetrics = cli.get("openmetrics", "");
  if (!openmetrics.empty()) {
    obs::reset_metrics();
    obs::set_enabled(true);
  }
  const bool use_pmu = cli.get_flag("pmu");
  std::optional<perf::pmu::PmuRegion> pmu_run;
  if (use_pmu) {
    const perf::pmu::Availability& avail = perf::pmu::availability();
    if (!avail.any) {
      std::cout << "PMU unavailable (" << avail.reason
                << "); continuing without hardware counters\n";
    } else {
      perf::pmu::enable_span_enrichment();
      pmu_run.emplace();  // whole-run window over this thread's counters
    }
  }

  const grid::Extents3 e{n, n, n};
  physics::Geometry geom{e, 10.0, 4, 10};
  const int reflector_z = static_cast<int>(0.45 * n);

  // Smooth background: gentle velocity gradient. True model: background
  // plus a sharp fast slab below reflector_z (the target to image).
  physics::AcousticModel smooth =
      physics::make_acoustic_layered(geom, 1.5, 2.0, 64);
  physics::AcousticModel truth =
      physics::make_acoustic_layered(geom, 1.5, 2.0, 64);
  truth.vp.for_each_interior([&](int x, int y, int z) {
    if (z >= reflector_z) {
      const real_t v = truth.vp(x, y, z) + 1.2f;
      truth.vp(x, y, z) = v;
      truth.m(x, y, z) = 1.0f / (v * v);
    }
  });

  // One shared dt keeps forward and adjoint time axes aligned.
  physics::PropagatorOptions opts;
  opts.dt = truth.critical_dt();
  opts.tiles = core::TileSpec{8, 32, 32, 8, 8};
  const double dt = opts.dt;

  sparse::SparseTimeSeries src(sparse::single_center_source(e, 0.08), nt);
  src.broadcast_signature(sparse::ricker(nt, dt, 0.012));
  const sparse::CoordList rec_coords = sparse::receiver_carpet(e, 12, 12);
  std::cout << "RTM: " << n << "^3 grid, " << nt << " steps, "
            << rec_coords.size() << " receivers, reflector at z="
            << reflector_z << "\n";

  // --- (1) observed data through the true model (temporally blocked by
  // default: the paper's win) ---
  sparse::SparseTimeSeries d_obs(rec_coords, nt);
  {
    physics::AcousticPropagator prop(truth, opts);
    const physics::RunStats s = prop.run(modelling_sched, src, &d_obs);
    std::cout << "observed-data modelling ("
              << physics::to_string(modelling_sched) << "): " << s.seconds
              << " s\n";
  }
  // Direct arrival removal: subtract data modelled in the smooth model so
  // only the reflection remains (standard practice).
  {
    sparse::SparseTimeSeries d_smooth(rec_coords, nt);
    physics::AcousticPropagator prop(smooth, opts);
    prop.run(modelling_sched, src, &d_smooth);
    for (int t = 0; t < nt; ++t)
      for (int r = 0; r < d_obs.npoints(); ++r)
        d_obs.at(t, r) -= d_smooth.at(t, r);
  }

  // --- (2) forward source wavefield in the smooth model, snapshotted ---
  std::vector<grid::Grid3<real_t>> snaps;
  snaps.reserve(static_cast<std::size_t>(nt / stride) + 1);
  {
    physics::AcousticPropagator prop(smooth, opts);
    const physics::RunStats s = prop.run(
        physics::Schedule::SpaceBlocked, src, nullptr, [&](int t_done) {
          if (t_done % stride == 0) snaps.push_back(prop.wavefield(t_done));
        });
    std::cout << "forward pass (snapshot every " << stride
              << " steps):        " << s.seconds << " s, " << snaps.size()
              << " snapshots\n";
  }

  // --- (3) adjoint wavefield + imaging condition ---
  // Back-propagation == forward propagation of the time-reversed residual
  // injected at the receiver positions.
  sparse::SparseTimeSeries adj_src(rec_coords, nt);
  for (int t = 0; t < nt; ++t)
    for (int r = 0; r < adj_src.npoints(); ++r)
      adj_src.at(t, r) = d_obs.at(nt - 1 - t, r);

  grid::Grid3<double> image(e, 0, 0.0);
  {
    // Passes 1–2 are deterministic and were just recomputed; only the
    // adjoint pass state (wavefield buffer + partial image) needs to
    // persist. The partial image rides in the checkpoint as an aux blob.
    resilience::Fingerprint fpb;
    fpb.add(n).add(nt).add(stride).add(geom.space_order).add(dt);
    const std::uint64_t fp = fpb.value();
    std::optional<resilience::Checkpointer> ckpt;
    if (!ckpt_path.empty()) ckpt.emplace(ckpt_path);

    // Versioned framing for the image aux blob: a stale layout (or a
    // truncated blob) is rejected as a typed CorruptFileError instead of
    // being memcpy'd into the accumulator.
    constexpr std::uint32_t kImageMagic = 0x54504D47u;  // "TPMG"
    constexpr std::uint32_t kImageVersion = 1;

    physics::AcousticPropagator prop(smooth, opts);
    int t_start = 1;
    if (ckpt) {
      if (auto resume = ckpt->try_load(fp)) {
        const auto* blob = resume->find_aux("image");
        const std::size_t want = image.padded_size() * sizeof(double);
        if (blob != nullptr) {
          try {
            const resilience::AuxView view = resilience::aux_unwrap_bytes(
                ckpt->path(), *blob, kImageMagic, kImageVersion);
            if (view.size == want) {
              std::memcpy(image.raw(), view.data, want);
              prop.restore(*resume);
              t_start = resume->step;
              std::cout << "resuming adjoint pass from step " << t_start
                        << "\n";
            }
          } catch (const io::CorruptFileError& err) {
            std::cerr << "ignoring checkpointed image: " << err.what()
                      << "\n";
          }
        }
      }
    }

    const auto imaging = [&](int tau) {
      const int t_fwd = nt - 1 - tau;  // forward time of this adjoint step
      if (t_fwd >= stride && t_fwd % stride == 0) {
        const auto& snap =
            snaps[static_cast<std::size_t>(t_fwd / stride) - 1];
        const auto& adj = prop.wavefield(tau);
        image.for_each_interior([&](int x, int y, int z) {
          image(x, y, z) += static_cast<double>(snap(x, y, z)) *
                            static_cast<double>(adj(x, y, z));
        });
      }
      if (ckpt && ckpt_every > 0 && tau % ckpt_every == 0 && tau < nt) {
        // Barrier callback: save the live wavefield slices, no copy.
        const resilience::AuxBlob image_blob{
            "image",
            resilience::aux_wrap_bytes(kImageMagic, kImageVersion,
                                       image.raw(),
                                       image.padded_size() * sizeof(double))};
        resilience::CheckpointView ck = prop.state_view(tau, fp);
        ck.aux = {&image_blob, 1};
        ckpt->save(ck);
      }
    };
    const physics::RunStats s =
        t_start > 1 ? prop.run_from(t_start, physics::Schedule::SpaceBlocked,
                                    adj_src, nullptr, imaging)
                    : prop.run(physics::Schedule::SpaceBlocked, adj_src,
                               nullptr, imaging);
    std::cout << "adjoint pass + imaging condition:   " << s.seconds
              << " s\n";
    // Done: a stale checkpoint (any generation) must not shadow the next
    // run.
    if (ckpt) ckpt->remove_all();
  }

  // Depth profile of |image| away from the source cone; pick the peak.
  std::vector<double> profile(static_cast<std::size_t>(e.nz), 0.0);
  image.for_each_interior([&](int x, int y, int z) {
    if (x > geom.nbl && x < e.nx - geom.nbl && y > geom.nbl &&
        y < e.ny - geom.nbl && z > n / 4) {
      profile[static_cast<std::size_t>(z)] += std::fabs(image(x, y, z));
    }
  });
  int z_peak = 0;
  for (int z = 0; z < e.nz; ++z)
    if (profile[static_cast<std::size_t>(z)] >
        profile[static_cast<std::size_t>(z_peak)])
      z_peak = z;
  std::cout << "\nimaged reflector depth: z = " << z_peak << " (true: z = "
            << reflector_z << ", error " << std::abs(z_peak - reflector_z)
            << " cells)\n";

  // (x,z) slice through the source y for plotting.
  grid::Grid3<real_t> image_f(e, 0, 0.0f);
  image.for_each_interior([&](int x, int y, int z) {
    image_f(x, y, z) = static_cast<real_t>(image(x, y, z));
  });
  io::save_slice_csv(out, image_f, e.ny / 2);
  std::cout << "image slice written to " << out << "\n";

  if (!openmetrics.empty()) {
    obs::OpenMetricsOptions om;
    perf::pmu::Sample pmu_sample;
    if (pmu_run) {
      pmu_sample = pmu_run->delta();
      om.pmu = &pmu_sample;
    }
    if (obs::write_openmetrics(openmetrics, om)) {
      std::cout << "OpenMetrics written to " << openmetrics << "\n";
    } else {
      std::cerr << "cannot write OpenMetrics to " << openmetrics << "\n";
    }
  }

  if (pmu_run) {
    const perf::pmu::Sample s = pmu_run->delta();
    std::cout << "\nwhole-run hardware counters:\n";
    for (int i = 0; i < perf::pmu::kNumEvents; ++i) {
      const auto ev = static_cast<perf::pmu::Event>(i);
      if (s.valid(ev)) {
        std::cout << "  " << perf::pmu::to_string(ev) << ": " << s[ev]
                  << "\n";
      }
    }
    if (s.valid(perf::pmu::Event::Cycles) &&
        s.valid(perf::pmu::Event::Instructions)) {
      std::cout << "  ipc: " << s.ipc() << "\n";
    }
    perf::pmu::disable_span_enrichment();
  }
  return 0;
}
