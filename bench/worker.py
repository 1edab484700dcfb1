"""One benchmark run, in the process whose set-up is timed.

`run.py` starts this script with the package's `src` directory on the path
and the working directory set to a scratch directory. It builds the
workload's inputs, runs whole rounds of operations until the next round
would end after `--seconds`, checks the outputs, and prints one JSON object
on stdout. With `--trace 1` each round runs twice, untraced and then traced.

The first round is checked against the reference computations in
`checks`; every later round, traced or not, must reproduce its outputs.
Peak memory is read before the checks run, so it is the program's alone.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

from tracing import Tracer
from workloads import WORKLOADS


def run_round(ops, tracer: Tracer | None = None) -> dict:
    results, times = [], []
    if tracer is not None:
        tracer.install()
    cpu = os.times()
    start = perf_counter()
    try:
        for name, op in ops:
            began = perf_counter()
            try:
                ok, output = op()
            except Exception:
                print(f"operation {name} raised:", file=sys.stderr)
                traceback.print_exc()
                ok, output = False, None
            times.append(perf_counter() - began)
            results.append((ok, output))
    finally:
        wall = perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    now = os.times()
    return {
        "results": results,
        "times": times,
        "wall": wall,
        "cpu": now.user + now.system - cpu.user - cpu.system,
    }


def check_rounds(workload, rounds: list[dict]) -> list[str]:
    """Check the first round, then hold every later round to its outputs."""
    errors = []
    first = rounds[0]["results"]
    try:
        workload.check(first)
    except Exception as exc:  # a checker rejecting malformed output raises anything
        errors.append(f"{type(exc).__name__}: {exc}")
    digest = getattr(workload, "digest", lambda output: output)
    for number, later in enumerate(rounds[1:], start=2):
        for (ok0, out0), (ok, out) in zip(first, later["results"]):
            if ok != ok0 or (out is not None and out0 is not None and digest(out) != digest(out0)):
                errors.append(f"round {number} does not reproduce the outputs of round 1")
                break
    return errors


def per_layer(pairs: list[tuple[dict, dict, Tracer]]) -> tuple[dict, list[str]]:
    """Median over (untraced, traced) round pairs of every per-layer metric."""
    samples: dict[str, list] = {}
    missing = set()
    for plain, traced, tracer in pairs:
        values = tracer.metrics()
        values["process.cpu_s"] = plain["cpu"]
        values["trace.overhead_s"] = traced["wall"] - plain["wall"]
        missing.update(tracer.missing)
        for name, value in values.items():
            samples.setdefault(name, []).append(value)
    medians = {
        name: None if None in values else statistics.median(values)
        for name, values in samples.items()
    }
    return medians, sorted(missing)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed, Path.cwd())
    first_op = time.monotonic()

    rounds: list[dict] = []
    pairs: list[tuple[dict, dict, Tracer]] = []
    start = perf_counter()
    while True:
        plain = run_round(workload.ops())
        rounds.append(plain)
        if args.trace:
            tracer = Tracer()
            traced = run_round(workload.ops(), tracer)
            rounds.append(traced)
            pairs.append((plain, traced, tracer))
        elapsed = perf_counter() - start
        done = len(pairs) if args.trace else len(rounds)
        if elapsed + elapsed / done > args.seconds:
            break
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    errors = check_rounds(workload, rounds)
    plain_rounds = [p for p, _, _ in pairs] if args.trace else rounds
    report = {
        "first_op": first_op,
        "rounds": len(plain_rounds),
        "attempted": sum(len(r["results"]) for r in rounds),
        "failed": sum(not ok for r in rounds for ok, _ in r["results"]),
        "errors": errors,
        "wall_s": statistics.median(r["wall"] for r in plain_rounds),
        "op_p50_s": statistics.median(t for r in plain_rounds for t in r["times"]),
        "peak_rss_mb": peak_rss_kb / 1024,
    }
    if args.trace:
        report["per_layer"], report["missing"] = per_layer(pairs)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
