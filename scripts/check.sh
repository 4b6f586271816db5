#!/usr/bin/env sh
# Tier-1 verification: build + full test suite under the default (Release)
# preset, then again under the asan preset (-fsanitize=address,undefined).
# Usage:  scripts/check.sh [--fast | --skip-asan | --bench | --tidy |
#                           --ubsan | --tsan | --notrace | --analyze |
#                           --chaos]
#   --fast       build the default preset and run only the `unit`-labelled
#                tests (the PR fast lane); implies no asan pass
#   --skip-asan  full default-preset suite, skip the sanitizer pass
#   --bench      build the default preset, run the bench harnesses at
#                smoke-test sizes with --json, and schema-check the
#                emitted BENCH_*.json (works on PMU-less machines); then
#                build the repository benchmark (perfbench/) into
#                .bench_build and run its bench_smoke ctest, so an API
#                change that breaks tempest_bench fails here first
#   --chaos      build the asan preset and run the kill/corrupt/resume
#                chaos harness (tools/chaos_runner) with a fixed seed:
#                five SIGKILLs of a 3-shot survey, one checkpoint
#                bit-flip, final gathers must be bit-identical to an
#                uninterrupted run (every fired kill must also leave a
#                CRC-clean flight-recorder black box behind); then
#                SIGKILL a live survey directly and decode its .tfbr
#                with tools/blackbox_dump, resume it, and check the
#                box is recycled; finally run a journaled survey and
#                schema-check its BENCH_survey.json + OpenMetrics file
#   --tidy       run clang-tidy (bugprone + performance, see .clang-tidy)
#                over every library layer — engine, physics, analysis
#                (including the statics passes), dsl, codegen, jobs, obs,
#                util — plus the CLI tools; findings are errors (blocking
#                CI gate) — returns non-zero on any hit
#   --ubsan      full suite under the standalone UBSan preset
#                (-fsanitize=undefined,float-cast-overflow, no recovery)
#   --notrace    full suite under the notrace preset (-DTEMPEST_TRACE=OFF,
#                the one compile-out switch: the instrumentation macros
#                expand to nothing, every other code path is the default
#                build's)
#   --tsan       the `parallel`-labelled tests under the ThreadSanitizer
#                preset: no OpenMP runtime (libgomp is opaque to TSan),
#                task graphs run on the std::thread pool backend with the
#                same dependence edges, oversubscribed via
#                TEMPEST_THREADS=8 so races surface on any host
#   --analyze    build the schedule-legality verifier and the statics
#                sweep (tools/ir_lint) and run both as blocking gates:
#                every physics kernel — hand-written and DSL-lowered — x
#                schedule x sparse on/off x lowering stage through the
#                legality verifier, then the statics passes (interval
#                abstract interpretation, von Neumann/CFL proof, IR lint,
#                tile-interference race proof) over the same kernels and
#                schedules; both at space orders 4 and 8 so the DSL
#                lowering's structural summaries are exercised at more
#                than one radius. Non-zero when any verdict contradicts
#                the paper's legality theorem, when the statics layer
#                reports a false positive on a known-good kernel, or when
#                any of ir_lint's seeded-wrong fixtures (unstable dt,
#                out-of-halo load, undershot wavefront skew, wavefront
#                plan with a dropped staircase edge) is NOT rejected
set -eu

cd "$(dirname "$0")/.."

run_bench_smoke() {
  echo "==> configure (default)"
  cmake --preset default
  echo "==> build (default)"
  cmake --build --preset default -j "$(nproc)"
  echo "==> bench smoke (tiny sizes, --json)"
  out=build/bench_smoke
  mkdir -p "${out}"
  ( cd "${out}" &&
    ../bench/fig11_roofline --size=48 --steps=4 --so=4 --sim-size=24 \
      --sim-steps=2 --reps=2 --json=BENCH_fig11_roofline.json >/dev/null &&
    ../bench/fig9_speedup --size=40 --steps=3 --so=4 --kernels=acoustic \
      --reps=2 --json=BENCH_fig9_speedup.json >/dev/null &&
    TEMPEST_MICRO_SIZE=32 TEMPEST_MICRO_STEPS=2 \
      ../bench/micro_stencil --json=BENCH_micro_stencil.json >/dev/null &&
    TEMPEST_MICRO_SIZE=48 TEMPEST_MICRO_STEPS=4 \
      ../bench/micro_injection --json=BENCH_micro_injection.json \
      >/dev/null &&
    TEMPEST_MICRO_SIZE=48 TEMPEST_MICRO_STEPS=4 \
      ../bench/micro_precompute --json=BENCH_micro_precompute.json \
      >/dev/null &&
    TEMPEST_MICRO_SIZE=48 TEMPEST_MICRO_STEPS=2 \
      ../bench/micro_wavefront --json=BENCH_micro_wavefront.json \
      >/dev/null )
  if command -v python3 >/dev/null 2>&1; then
    echo "==> validate BENCH_*.json"
    python3 scripts/bench_check.py "${out}"/BENCH_*.json
  else
    echo "==> python3 not found; skipping JSON schema validation"
  fi
  echo "==> repository benchmark: build perfbench/ into .bench_build"
  cmake -S perfbench -B .bench_build/cmake -DCMAKE_BUILD_TYPE=Release
  cmake --build .bench_build/cmake --target tempest_bench -j "$(nproc)"
  echo "==> repository benchmark smoke (every workload at toy sizes)"
  ctest --test-dir .bench_build/cmake -R bench_smoke --output-on-failure
  echo "==> bench smoke passed"
}

run_chaos() {
  echo "==> configure (asan)"
  cmake --preset asan
  echo "==> build chaos_runner + seismic_survey + blackbox_dump (asan)"
  cmake --build --preset asan -j "$(nproc)" --target chaos_runner \
    --target seismic_survey --target blackbox_dump
  # detect_leaks=0: the worker dies by SIGKILL mid-run by design; leak
  # reports from killed children are the experiment, not a defect.
  asan_env="${ASAN_OPTIONS:-detect_leaks=0}"
  echo "==> chaos: 5 seeded kills + checkpoint corruption (space-blocked)"
  ASAN_OPTIONS="${asan_env}" build-asan/tools/chaos_runner \
    --size=20 --steps=36 --shots=3 --so=4 --schedule=space-blocked \
    --ckpt-every=6 --kills=5 --seed=7 --corrupt --dir=build-asan/chaos_sb
  echo "==> chaos: 5 seeded kills (wavefront, temporally blocked)"
  ASAN_OPTIONS="${asan_env}" build-asan/tools/chaos_runner \
    --size=20 --steps=36 --shots=3 --so=4 --schedule=wavefront \
    --kills=5 --seed=7 --dir=build-asan/chaos_wf
  echo "==> black box: SIGKILL a live survey, decode its flight recorder"
  rm -rf build-asan/chaos_bb
  # TEMPEST_CHAOS_KILL_AT arms resilience::fault::kill_after_progress inside
  # the survey itself: the process raises SIGKILL at the third progress tick,
  # so no flush or destructor runs — only the mmap'd recorder survives.
  TEMPEST_CHAOS_KILL_AT=3 ASAN_OPTIONS="${asan_env}" \
    build-asan/examples/seismic_survey \
    --size=20 --steps=30 --shots=2 --so=4 --jobs-dir=build-asan/chaos_bb \
    >/dev/null 2>&1 || true
  set -- build-asan/chaos_bb/blackbox/shot_*.tfbr
  if [ ! -e "$1" ]; then
    echo "chaos: SIGKILL'd survey left no black box in chaos_bb/blackbox" >&2
    exit 1
  fi
  ASAN_OPTIONS="${asan_env}" build-asan/tools/blackbox_dump --verify "$@"
  ASAN_OPTIONS="${asan_env}" build-asan/tools/blackbox_dump --tail=5 "$1"
  echo "==> black box: resume the killed survey; box must be recycled"
  ASAN_OPTIONS="${asan_env}" build-asan/examples/seismic_survey \
    --size=20 --steps=30 --shots=2 --so=4 --jobs-dir=build-asan/chaos_bb \
    >/dev/null
  if ls build-asan/chaos_bb/blackbox/shot_*.tfbr >/dev/null 2>&1; then
    echo "chaos: live black boxes remain after a successful resume" >&2
    exit 1
  fi
  echo "==> survey smoke + BENCH_survey.json / survey.om schema check"
  rm -rf build-asan/chaos_survey
  ASAN_OPTIONS="${asan_env}" build-asan/examples/seismic_survey \
    --size=20 --steps=30 --shots=3 --so=4 --jobs-dir=build-asan/chaos_survey \
    --survey-json=build-asan/chaos_survey/BENCH_survey.json \
    --openmetrics=build-asan/chaos_survey/survey.om >/dev/null
  if command -v python3 >/dev/null 2>&1; then
    python3 scripts/bench_check.py build-asan/chaos_survey/BENCH_survey.json \
      build-asan/chaos_survey/survey.om
  else
    echo "==> python3 not found; skipping JSON schema validation"
  fi
  echo "==> chaos checks passed"
}

run_preset() {
  preset="$1"
  shift
  echo "==> configure (${preset})"
  cmake --preset "${preset}"
  echo "==> build (${preset})"
  cmake --build --preset "${preset}" -j "$(nproc)"
  echo "==> test (${preset})"
  ctest --preset "${preset}" -j "$(nproc)" "$@"
}

run_tidy() {
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "==> clang-tidy not installed; cannot run the blocking tidy gate" >&2
    exit 1
  fi
  echo "==> configure (default, compile-commands export)"
  cmake --preset default -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  echo "==> clang-tidy (engine, physics, analysis+statics, dsl, codegen," \
       "jobs, obs, util, tools)"
  # Every library layer plus the CLI tools: the schedule-execution engine,
  # the kernels it drives, the legality verifier and the statics passes
  # that gate them, the typed-IR frontend + emitter, the survey jobs
  # runtime, the observability stack and the shared utilities; .clang-tidy
  # scopes the checks, promotes every warning to an error (blocking), and
  # pulls the matching headers in via HeaderFilterRegex.
  clang-tidy -p build \
    src/tempest/core/*.cpp src/tempest/physics/*.cpp \
    src/tempest/analysis/*.cpp src/tempest/analysis/statics/*.cpp \
    src/tempest/dsl/*.cpp src/tempest/codegen/*.cpp \
    src/tempest/jobs/*.cpp src/tempest/obs/*.cpp src/tempest/util/*.cpp \
    tools/*.cpp
  echo "==> tidy passed"
}

run_analyze() {
  echo "==> configure (default)"
  cmake --preset default >/dev/null
  echo "==> build schedule_verifier + ir_lint"
  cmake --build --preset default -j "$(nproc)" --target schedule_verifier \
    --target ir_lint
  echo "==> schedule-legality sweep (kernels x schedules x sparse x stages," \
       "space orders 4 and 8)"
  build/tools/schedule_verifier --so=4,8
  echo "==> statics sweep (intervals + CFL + lint + interference," \
       "space orders 4 and 8)"
  build/tools/ir_lint --so=4,8
  echo "==> statics seeded fixtures (must each be rejected)"
  build/tools/ir_lint --seeded
}

if [ "${1:-}" = "--bench" ]; then
  run_bench_smoke
  exit 0
fi

if [ "${1:-}" = "--tidy" ]; then
  run_tidy
  exit 0
fi

if [ "${1:-}" = "--analyze" ]; then
  run_analyze
  exit 0
fi

if [ "${1:-}" = "--chaos" ]; then
  run_chaos
  exit 0
fi

if [ "${1:-}" = "--ubsan" ]; then
  run_preset ubsan
  echo "==> ubsan suite passed"
  exit 0
fi

if [ "${1:-}" = "--notrace" ]; then
  run_preset notrace
  echo "==> notrace suite passed"
  exit 0
fi

if [ "${1:-}" = "--tsan" ]; then
  # halt_on_error: a single report must fail the run, not scroll past.
  # TEMPEST_THREADS=8 oversubscribes the pool so cross-thread interleavings
  # exist even on single-core runners.
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" TEMPEST_THREADS=8 \
    run_preset tsan -L parallel
  echo "==> tsan parallel-schedule checks passed"
  exit 0
fi

if [ "${1:-}" = "--fast" ]; then
  run_preset default -L unit
  echo "==> fast checks passed"
  exit 0
fi

run_preset default

if [ "${1:-}" != "--skip-asan" ]; then
  # The JIT compiles plain C helper objects that are dlopen()ed into the
  # sanitized process; suppress the expected ODR/leak noise from the
  # toolchain itself, not from tempest.
  ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=0}" run_preset asan
fi

echo "==> all checks passed"
