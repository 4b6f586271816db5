#!/usr/bin/env python3
"""Build tempest_bench from source, run one workload, print its result.

Usage (from the repository root):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                           [--save DIR]

The first run configures and builds the library and tempest_bench into
$CARGO_TARGET_DIR (default .bench_build); later runs only re-check the build.
Build output goes to standard error. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: every
end_to_end metric of BENCHMARK.json with --trace 0, every per_layer metric
with --trace 1. --save DIR also keeps tempest_bench's full result document
(samples, n, quartiles, checks, time budget) as
DIR/<workload>.<untraced|traced>.<seed>.json, the input perfbench/compare.py
reads.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(target):
    """Configure once, then build tempest_bench; returns its path."""
    build_dir = target / "cmake"
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "tempest_bench",
         "-j", jobs],
        stdout=sys.stderr, check=True)
    return build_dir / "tempest_bench"


def result_line(doc, bench, traced):
    """The one-line result: the metrics BENCHMARK.json lists for this mode."""
    metrics = {}
    for spec in bench["per_layer" if traced else "end_to_end"]:
        got = doc["metrics"].get(spec["name"])
        if got is None:
            raise ValueError(f"tempest_bench did not report {spec['name']}")
        if got["unit"] != spec["unit"]:
            raise ValueError(f"{spec['name']}: unit {got['unit']} is not "
                             f"{spec['unit']}")
        metrics[spec["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {"correct": doc["correct"], "attempted": doc["attempted"],
            "failed": doc["failed"], "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", type=Path)
    args = ap.parse_args()

    if not (ROOT / "src" / "tempest").is_dir():
        fail(f"no tempest sources under {ROOT / 'src'}; run from a checkout")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {args.workload!r}")

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    try:
        exe = build(target)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    work = target / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    doc_path = work / "result.json"
    cmd = [str(exe), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--work-dir={work}",
           f"--json={doc_path}"]
    if args.trace:
        cmd += ["--traced", f"--trace-out={work / 'trace.json'}"]
    try:
        subprocess.run(cmd, stdout=sys.stderr, check=True,
                       timeout=RUN_TIMEOUT_S)
        doc = json.loads(doc_path.read_text())
        line = result_line(doc, bench, bool(args.trace))
    except (OSError, ValueError, subprocess.SubprocessError) as e:
        fail(f"{args.workload}: {e}")

    if args.save:
        args.save.mkdir(parents=True, exist_ok=True)
        kind = "traced" if args.trace else "untraced"
        shutil.copy(doc_path,
                    args.save / f"{args.workload}.{kind}.{args.seed}.json")
    print(json.dumps(line))


if __name__ == "__main__":
    main()
