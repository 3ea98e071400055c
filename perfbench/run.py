"""locfine benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload coproduct --seed 1 --seconds 25 --trace 0

Run from the root of a locfine checkout; the library is imported from its
``src`` directory.  Set-up (imports, corpus generation, expected answers,
.cov files) is repeated SETUP_REPS times and its median reported.  Then one
client sends queries one after another and times each from call to verdict.
Each verdict is checked against the oracle's answer after its timer stops; a
query that raises, exits with the wrong code or disagrees counts as failed.

With ``--trace 0`` the first pass sends whole blocks until a third of
``--seconds`` has passed, and two more passes send the same queries again.
A query's latency is the median of its three timings, taken seconds apart:
on a shared machine a single timing can land in a burst of interference
from other processes, and the median of three ignores one such burst.  The
end-to-end metrics are reported.

With ``--trace 1`` a fixed number of blocks (so the work counters repeat
exactly for a seed) is sent untraced, under the span tracer, and untraced
again, and the per-layer metrics are reported.

Human-readable lines come first; the last line of standard output is one
JSON object.  Exit code 2 means the library could not be loaded, 3 that a
verdict check could not run; neither prints a result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_REPS = 5
PASSES = 3
MIN_SAMPLES = 100          # at least ten samples lie beyond the 90th percentile
CORPUS_HEADROOM = 1.5      # blocks generated, relative to the nominal need
TRACE_SHARE = 0.2          # share of --seconds one traced-run pass should take

sys.path.insert(0, HERE)
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class CheckError(Exception):
    """A verdict check could not run."""


def fresh_import():
    """Import locfine from the checkout's src, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "locfine" or n.startswith("locfine.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    lf = importlib.import_module("locfine")
    for sub in ("carrier", "covering", "frames", "products", "game", "formal", "cli"):
        importlib.import_module(f"locfine.{sub}")
    if not os.path.abspath(lf.__file__).startswith(SRC + os.sep):
        raise ImportError(f"locfine imported from {lf.__file__}, not from {SRC}")
    return lf


def send(query, tracer=None):
    """Time one query from call to verdict, then check the verdict."""
    if tracer is not None:
        tracer.recording = True
    t0 = perf_counter()
    try:
        verdict = query.run()
        error = None
    except Exception as exc:  # a failed query, not a failed benchmark
        verdict, error = None, f"{query.kind}: raised {exc!r}"
    latency = perf_counter() - t0
    if tracer is not None:
        tracer.recording = False
    if error is None:
        try:
            error = query.check(verdict)
        except Exception as exc:
            raise CheckError(f"{query.kind}: check raised {exc!r}") from exc
    return latency, error


def measure(blocks, seconds):
    """Median-of-PASSES latency of every query sent, and failures by query.

    The first pass sends whole blocks, cycling through the corpus, until
    seconds / PASSES have passed and at least MIN_SAMPLES queries were sent.
    The later passes send the same queries again in the same order.
    """
    sent, timings, failures = [], [], {}
    start = perf_counter()
    i = 0
    while perf_counter() - start < seconds / PASSES or len(sent) < MIN_SAMPLES:
        for query in blocks[i % len(blocks)]:
            latency, error = send(query)
            if error is not None:
                failures[len(sent)] = error
            sent.append(query)
            timings.append([latency])
        i += 1
    for _ in range(PASSES - 1):
        for idx, query in enumerate(sent):
            latency, error = send(query)
            if error is not None:
                failures.setdefault(idx, error)
            timings[idx].append(latency)
    return [statistics.median(t) for t in timings], failures


def one_pass(blocks, tracer=None):
    """Latencies and failures by query of one pass over the blocks."""
    latencies, failures = [], {}
    for block in blocks:
        for query in block:
            if tracer is not None:
                tracer.query_id = len(latencies)
            latency, error = send(query, tracer)
            if error is not None:
                failures[len(latencies)] = error
            latencies.append(latency)
    return latencies, failures


def final_checks(workload):
    try:
        return workload.finish()
    except Exception as exc:
        raise CheckError(f"{workload.name}: final check raised {exc!r}") from exc


def end_to_end(latencies, n_failed, setup_times):
    ms = [x * 1000.0 for x in latencies]
    p = statistics.quantiles(ms, n=10)
    n = len(ms)
    return {
        "queries_per_s": (n / sum(latencies), "1/s"),
        "latency_p50_ms": (p[4], "ms"),
        "latency_p90_ms": (p[8], "ms"),
        "ok_frac": ((n - n_failed) / n, "ratio"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }, {"samples": n, "beyond_p90": sum(1 for x in ms if x > p[8]),
        "failed_frac": n_failed / n}


def per_layer(tracer, traced, untraced):
    calls, self_s = tracer.layer_totals()
    c = tracer.counters
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (calls[layer], "count")
        out[f"{layer}.self_s"] = (self_s[layer], "s")
    rounds = c["covering.rounds"]
    derivable = c["products.derivable_calls"]
    pieces = c["game.pieces"]
    out.update({
        "covering.rounds": (rounds, "count"),
        "covering.pairs_out": (c["covering.pairs_out"], "count"),
        "covering.pairs_per_round": (c["covering.pairs_derived"] / rounds if rounds else 0.0,
                                     "pairs/round"),
        "frames.elements_built": (c["frames.elements_built"], "count"),
        "frames.table_cells": (c["frames.table_cells"], "count"),
        "frames.points_found": (c["frames.points_found"], "count"),
        "products.derivable_calls": (derivable, "count"),
        "products.memo_hit_ratio": (1.0 - len(tracer.distinct_targets) / derivable
                                    if derivable else 0.0, "ratio"),
        "products.locale_elements": (c["products.locale_elements"], "count"),
        "formal.saturations": (c["formal.saturations"], "count"),
        "formal.judgments": (c["formal.judgments"], "count"),
        "game.pieces": (pieces, "count"),
        "game.winning_ratio": (c["game.winning"] / pieces if pieces else 0.0, "ratio"),
        # Median over queries of traced / untraced time: one slow stretch on
        # a shared machine moves a ratio of totals, not this median.
        "trace.overhead_frac": (statistics.median(t / u for t, u in zip(traced, untraced)) - 1.0,
                                "ratio"),
    })
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description="locfine benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "locfine", "__init__.py")):
        print(f"perfbench: no locfine sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    cls = WORKLOADS[args.workload]
    if args.trace:
        n_blocks = max(1, int(TRACE_SHARE * args.seconds / cls.nominal_block_s))
    else:
        n_blocks = math.ceil(CORPUS_HEADROOM * args.seconds / PASSES / cls.nominal_block_s) + 1
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")

    setup_times = []
    workload = None
    try:
        for _ in range(SETUP_REPS):
            if workload is not None:
                workload.close()
            t0 = perf_counter()
            try:
                lf = fresh_import()
            except ImportError as exc:
                print(f"perfbench: cannot import locfine: {exc}", file=sys.stderr)
                return 2
            workload = cls(lf, args.seed, n_blocks, workdir)
            setup_times.append(perf_counter() - t0)
        gc.collect()

        if not args.trace:
            latencies, failures = measure(workload.blocks, args.seconds)
            failures = list(failures.values()) + final_checks(workload)
            metrics, extra = end_to_end(latencies, len(failures), setup_times)
            attempted = len(latencies)
        else:
            # Untraced passes before and after the traced one, so that the
            # first pass's warm-up does not count as tracing overhead.
            before, failures = one_pass(workload.blocks)
            tracer = Tracer(lf).install()
            try:
                traced, traced_failures = one_pass(workload.blocks, tracer)
            finally:
                tracer.uninstall()
            after, after_failures = one_pass(workload.blocks)
            untraced = [(a + b) / 2 for a, b in zip(before, after)]
            failures.update(traced_failures)
            failures.update(after_failures)
            failures = list(failures.values()) + final_checks(workload)
            metrics = per_layer(tracer, traced, untraced)
            attempted = len(untraced)
            extra = {"blocks": n_blocks, "spans": len(tracer.spans)}
            if tracer.missing:
                print("perfbench: not found, not traced: " + ", ".join(tracer.missing),
                      file=sys.stderr)
            os.makedirs(WORK, exist_ok=True)
            tracer.write(os.path.join(WORK, f"spans-{args.workload}-{args.seed}.csv"))
    except CheckError as exc:
        traceback.print_exc()
        print(f"perfbench: a verdict check could not run: {exc}", file=sys.stderr)
        return 3
    finally:
        if workload is not None:
            workload.close()

    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for key, value in extra.items():
        print(f"  {key:<28} {value}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
