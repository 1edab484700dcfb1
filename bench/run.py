"""Benchmark entry point for caching_game.

    python3 bench/run.py --workload solve --seed 1 --seconds 25 --trace 0

Runs one workload (solve, best-response, script-scan or sweep) from the
root of a source checkout; nothing needs to be installed. With --trace 0
the last line of stdout is one JSON object holding the end-to-end metrics,
with --trace 1 it holds the per-layer metrics. Each run also writes that
object, with the run's check errors and missing trace hooks, to
bench/results/. The exit code is 0 when a run completes, whether or not its
outputs pass the checks ("correct" says that), and 1 or 2 when no result
could be made.

The run itself happens in a child process (worker.py), so that set-up is
timed from the moment that process starts.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import METRICS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
TIMEOUT_S = 170
WORKLOADS = ("solve", "best-response", "script-scan", "sweep")

END_TO_END_UNITS = {"wall_s": "s", "op_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    src = ROOT / "src"
    if not (src / "caching_game" / "__init__.py").is_file():
        print(f"error: no caching_game sources under {src}", file=sys.stderr)
        return 2

    RESULTS.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=RESULTS)
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    command = [sys.executable, str(BENCH / "worker.py")]
    command += ["--workload", args.workload, "--seed", str(args.seed)]
    command += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        started = time.monotonic()
        with subprocess.Popen(command, cwd=scratch, env=env, stdout=subprocess.PIPE, text=True) as proc:
            try:
                stdout, _ = proc.communicate(timeout=TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                print(f"error: the run took more than {TIMEOUT_S}s", file=sys.stderr)
                return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0 or not stdout.strip():
        print(f"error: the worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    report = json.loads(stdout.strip().splitlines()[-1])

    if args.trace:
        units = {name: unit for name, unit, _, _ in METRICS}
        values = {name: (-1 if value is None else value) for name, value in report["per_layer"].items()}
        if report["missing"]:
            print(f"missing trace hooks: {', '.join(report['missing'])}", file=sys.stderr)
    else:
        units = END_TO_END_UNITS
        values = {name: report[name] for name in units if name != "setup_s"}
        values["setup_s"] = report["first_op"] - started
    for error in report["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    result = {
        "correct": not report["errors"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = dict(result, rounds=report["rounds"], errors=report["errors"], missing=report.get("missing", []))
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
