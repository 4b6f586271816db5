#!/usr/bin/env python3
"""bench_smoke: the whole benchmark at toy sizes, in a few seconds.

Usage: smoke_test.py PATH/TO/tempest_bench

Runs every workload of BENCHMARK.json with --smoke, untraced and traced,
including the oracle checks, and validates each result document: the output
is correct, every listed metric is present with its unit and a finite value,
the traced run carries its time budget and writes a loadable Chrome trace.
Then compare.py must accept two identical result sets and must exit non-zero
when one end-to-end metric is worsened beyond its bound.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
import run  # noqa: E402  (result_line: the benchmark's one-line result)


def expect(cond, what):
    if not cond:
        raise SystemExit(f"bench_smoke: FAILED: {what}")


def run_bench(exe, workload, traced, tmp):
    doc_path = tmp / f"{workload}.{'traced' if traced else 'untraced'}.1.json"
    cmd = [exe, f"--workload={workload}", "--smoke", "--seconds=0.05",
           f"--work-dir={tmp / 'work'}", f"--json={doc_path}"]
    if traced:
        cmd += ["--traced", f"--trace-out={tmp / 'trace.json'}"]
    subprocess.run(cmd, check=True, timeout=60, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL)
    return doc_path, json.loads(doc_path.read_text())


def main():
    exe = sys.argv[1]
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    with tempfile.TemporaryDirectory(dir=".") as t:
        tmp = Path(t)
        base = tmp / "base"
        base.mkdir()
        for w in bench["workloads"]:
            name = w["name"]
            for traced in (False, True):
                path, doc = run_bench(exe, name, traced, tmp)
                label = f"{name} ({'traced' if traced else 'untraced'})"
                expect(doc["correct"] and doc["failed"] == 0 and
                       doc["attempted"] >= 1, f"{label} output is correct")
                line = run.result_line(doc, bench, traced)
                for metric, m in line["metrics"].items():
                    expect(math.isfinite(m["value"]),
                           f"{label} {metric} is finite")
                if traced:
                    expect(len(doc["budget"]) == 2, f"{label} has a budget")
                    events = json.loads((tmp / "trace.json").read_text())
                    expect(events["traceEvents"], f"{label} wrote spans")
                else:
                    expect(all(m["value"] > 0
                               for m in line["metrics"].values()),
                           f"{label} end-to-end metrics are positive")
                    shutil.copy(path, base)

        compare = [sys.executable, str(HERE / "compare.py")]
        same = subprocess.run(compare + [str(base), str(base)],
                              stdout=subprocess.DEVNULL)
        expect(same.returncode == 0, "compare.py accepts identical sets")

        worse = tmp / "worse"
        shutil.copytree(base, worse)
        spec = next(s for s in bench["end_to_end"] if s["name"] == "shot_s")
        victim = next(worse.glob("*.json"))
        doc = json.loads(victim.read_text())
        doc["metrics"]["shot_s"]["value"] *= 1 + 2 * spec["bound"]
        victim.write_text(json.dumps(doc))
        regressed = subprocess.run(compare + [str(base), str(worse)],
                                   stdout=subprocess.DEVNULL)
        expect(regressed.returncode != 0,
               "compare.py rejects a shot_s worsened beyond its bound")
    print("bench_smoke: ok")


if __name__ == "__main__":
    main()
