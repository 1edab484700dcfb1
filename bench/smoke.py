"""Shows that every output check of the benchmark can fail.

    python3 bench/smoke.py

Each checker gets one honest output from a small instance, which it must
accept, and corrupted copies (a value off by 1/1000, one policy move
changed, a lattice count off by one), which it must reject. Prints one line
per case and exits 0 when every checker behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import re
import shutil
import sys
import tempfile
from fractions import Fraction as F
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RESULTS = BENCH / "results"
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

EPS = F(1, 1000)


def fmt(value: F) -> str:
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def bump_after(text: str, prefix: str) -> str:
    """Add 1/1000 to the first rational that follows `prefix` in text."""
    pattern = re.escape(prefix) + r"(\d+(?:/\d+)?)"
    return re.sub(pattern, lambda m: prefix + fmt(checks.parse_rational(m.group(1)) + EPS), text, count=1)


def redirect_first_move(policy: dict) -> None:
    """Send the policy's first move to the next location, to full depth."""
    move = policy["moves"][0]
    move["location"] = (move["location"] + 1) % policy["n"]
    move["to_step"] = policy["m"]


def solve_cases(scratch: Path):
    spec = dict(name="n4-h11/6-m6", n=4, k=2, h=F(11, 6), m=6, exact=True)
    argv = ["solve", "--n", "4", "--k", "2", "--h", "11/6", "--m", "6", "--cache-dir", str(scratch / "cache")]
    _, (_, cold, _) = workloads.run_cli(argv)
    _, (_, warm, note) = workloads.run_cli(argv)
    yield "solve", "honest report", True, lambda: checks.check_solve(spec, cold, warm, note)

    obj = json.loads(cold)
    obj["value"] = fmt(checks.parse_rational(obj["value"]) + EPS)
    bad = json.dumps(obj)
    yield "solve", "value off by 1/1000", False, lambda: checks.check_solve(spec, bad, bad, note)

    obj = json.loads(cold)
    top = max(obj["searcher_policies"], key=lambda e: checks.parse_rational(e["prob"]))
    redirect_first_move(top["policy"])
    moved = json.dumps(obj)
    yield "solve", "one policy move changed", False, lambda: checks.check_solve(spec, moved, moved, note)

    yield "solve", "warm report differs", False, lambda: checks.check_solve(spec, cold, bad, note)


def best_response_cases(scratch: Path):
    spec = next(s for s in workloads.BestResponse(1, scratch).specs if s["name"] == "n4-h3/2-m5 random")
    value, policy = workloads.bestresponse.best_response_value(*spec["args"])
    obj = policy.to_json_obj()
    yield "best-response", "honest result", True, lambda: checks.check_best_response(spec, value, obj)
    yield "best-response", "value off by 1/1000", False, lambda: checks.check_best_response(spec, value + EPS, obj)
    moved = json.loads(json.dumps(obj))
    redirect_first_move(moved)
    yield "best-response", "one policy move changed", False, lambda: checks.check_best_response(spec, value, moved)


def script_cases(scratch: Path):
    scan = workloads.ScriptScan(1, scratch)
    scan.names = ["lemma 2", "table"]
    results = [op() for _, op in scan.ops()]
    yield "script-scan", "honest reports", True, lambda: scan.check(results)

    (ok, (code, report, err)), table = results

    def with_report(text):
        return [(ok, (code, text, err)), table]

    for prefix, what in (("(m=6): ", "best response"), ("(scan m=60): ", "script minimum")):
        bad = with_report(bump_after(report, prefix))
        yield "script-scan", f"{what} off by 1/1000", False, lambda bad=bad: scan.check(bad)
    bad_table = [results[0], (True, bump_after(table[1], "computed "))]
    yield "script-scan", "table entry off by 1/1000", False, lambda: scan.check(bad_table)


class SmallSweep(workloads.Sweep):
    SMALL_N = range(4, 7)
    LARGE_N = (300,)
    WALKED = 10**6


def sweep_cases(scratch: Path):
    sweep = SmallSweep(1, scratch)
    results = [op() for _, op in sweep.ops()]
    yield "sweep", "honest points", True, lambda: sweep.check(results)

    def corrupt(index, which, position, change):
        out = [(ok, (list(points), list(counts))) for ok, (points, counts) in results]
        rows = out[index][1][which]
        h, y, v = rows[position]
        rows[position] = (h, y, change(v))
        return out

    cases = (
        ("split point off by 1/1000", corrupt(1, 0, 2, lambda v: v + EPS)),
        ("same-location point off by 1/1000", corrupt(0, 0, 0, lambda v: v + EPS)),
        ("small lattice count off by one", corrupt(2, 1, 1, lambda v: v + 1)),
        ("large lattice count off by one", corrupt(-1, 1, 0, lambda v: v + 1)),
        ("large split point off by 1/1000", corrupt(-1, 0, 0, lambda v: v + EPS)),
    )
    for what, bad in cases:
        yield "sweep", what, False, lambda bad=bad: sweep.check(bad)


def main() -> int:
    RESULTS.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="smoke-", dir=RESULTS))
    failures = 0
    try:
        for cases in (solve_cases, best_response_cases, script_cases, sweep_cases):
            for workload, what, honest, run in cases(scratch):
                try:
                    run()
                    accepted, reason = True, ""
                except checks.CheckError as exc:
                    accepted, reason = False, str(exc)
                ok = accepted == honest
                failures += not ok
                verdict = "accepted" if accepted else "rejected"
                print(f"{'ok  ' if ok else 'FAIL'} {workload}: {what} {verdict} {reason}".rstrip())
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("all checks behave" if not failures else f"{failures} check(s) misbehave")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
