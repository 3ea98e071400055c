"""Every metric of the locfine benchmark, by name and unit, in one command.

    python3 perfbench/report.py [--workload NAME ...] [--seed N] [--seconds S]

For each workload this runs ``run.py`` once untraced and twice traced (one
process at a time), prints the end-to-end metrics and then the per-layer
metrics, and asserts that the work counters of the two traced runs are
identical.  It exits 1 when a run fails, a verdict check could not run, a
verdict was wrong, or a work counter differs between the traced runs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402

# Counts of work done that later changes may cite exactly: they must repeat
# for a seed.
WORK_COUNTERS = ("covering.rounds", "covering.pairs_out", "formal.saturations",
                 "formal.judgments", "products.derivable_calls",
                 "frames.elements_built", "game.pieces")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{' '.join(cmd[1:])} exited with {proc.returncode}")
    sys.stderr.write(proc.stderr)
    return json.loads(lines[-1])


def show(title, result):
    print(f"{title}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {str(result['correct']).lower()}")
    for name, m in result["metrics"].items():
        print(f"  {name:<28} {m['value']:>16.6f} {m['unit']}")


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        default_seconds = json.load(fh)["run_seconds"]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=default_seconds)
    args = ap.parse_args(argv)
    ok = True
    for workload in args.workload or list(WORKLOADS):
        try:
            e2e = run(workload, args.seed, args.seconds, 0)
            traced = [run(workload, args.seed, args.seconds, 1) for _ in range(2)]
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"{workload}: {exc}")
            ok = False
            continue
        show(f"{workload} end to end", e2e)
        show(f"{workload} per layer", traced[0])
        for name in WORK_COUNTERS:
            a, b = (t["metrics"][name]["value"] for t in traced)
            if a != b:
                print(f"  work counter {name} differs between traced runs: {a} vs {b}")
                ok = False
        ok = ok and e2e["correct"] and all(t["correct"] for t in traced)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
