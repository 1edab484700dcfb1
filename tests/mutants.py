"""Mutation check: each listed mutant of `src/` must be killed by its tests.

    python3 tests/mutants.py

A mutant is (file under `src/`, old text, new text, tests): it switches off
one check, or breaks one rule, that the program never trips on its own
inputs, so only a test that feeds it a wrong input can show it is there.
The script copies `src/`, `tests/` and `pyproject.toml` to a temporary
directory and runs every named test there once unmutated, where each must
pass. Then, for each mutant, it replaces the old text (which must occur
exactly once) by the new one, runs that mutant's tests, and requires every
one of them to fail. Prints one line per mutant and exits 0 when every
mutant is killed, 1 otherwise. Standard library only, besides the pytest
that runs the tests; it is not part of the test suite.

A test is named by its pytest node id. A name ending in `*` stands for
every parametrization of its function whose id starts with the rest, so
that an id holding a pinned value (a digest) need not be copied.

Each old text copies lines of `src/` verbatim: edit it together with the
lines it copies. `tests/test_mutants.py` checks, in the test suite, that
every old text still occurs exactly once.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600

SOLVER = "caching_game/solver.py"
DP = "caching_game/bestresponse.py"
FIRE = "tests/test_solver.py::TestCertificateChecksFire::"
SOLVE = "tests/test_cli.py::TestSolve::"
FOREIGN = SOLVE + "test_cache_entry_with_a_foreign_policy_or_bad_iterations_is_solved_again"
WALK = "tests/test_bestresponse.py::TestJumpReplay::"
ORACLE = "tests/test_bestresponse.py::TestAgainstListOracle::"

MUTANTS = [
    (
        "the LP's duality check is skipped",
        SOLVER,
        '        raise SolverError("duality gap in matrix game solution")',
        "        pass",
        [FIRE + "test_a_non_optimal_vertex_trips_the_duality_check"],
    ),
    (
        "a best response below the LP value is accepted",
        SOLVER,
        '            raise SolverError("best response below LP value")',
        "            pass",
        [FIRE + "test_a_best_response_one_unit_low_trips_its_check"],
    ),
    (
        "_certify accepts any Searcher mix",
        SOLVER,
        "    (weights,), den = _integer_rows([col_mix])",
        "    return\n    (weights,), den = _integer_rows([col_mix])",
        [FIRE + "test_weight_on_a_worse_column_trips_certify"],
    ),
    (
        "a cache entry for another request is served",
        SOLVER,
        "            if (sol.cfg, sol.grid) != (cfg, grid):",
        "            if False:",
        [
            SOLVE + "test_cache_entry_for_another_request_is_solved_again[another-config]",
            SOLVE + "test_cache_entry_for_another_request_is_solved_again[another-grid]",
        ],
    ),
    (
        "the loader keeps a policy for another game",
        SOLVER,
        "        if own != game:",
        "        if False:",
        [FOREIGN + "[policy-budget]", FOREIGN + "[policy-m]", FOREIGN + "[policy-n]"],
    ),
    (
        "the loader keeps any iterations value",
        SOLVER,
        "    if type(iterations) is not int or iterations < 1:",
        "    if False:",
        [FOREIGN + "[iterations-bool]", FOREIGN + "[iterations-zero]"],
    ),
    (
        "unfolded one-left states are memoized under dug alone",
        DP,
        """        if left == 1 and not self.fold:
            # unfolded, only a find reaches a one-left state and no move
            # leaves it, so it seldom recurs: settle it without an entry
            return self._last_object(dug, found, self.budget - sum(dug))
        key = _fold_key(dug, found) if self.fold else (dug, found)
""",
        """        key = _fold_key(dug, found) if self.fold else (dug, found) if left > 1 else dug
""",
        [
            "tests/test_bestresponse.py::TestAgainstListOracle::test_random_mixes",
            "tests/test_bestresponse.py::TestPolicyPins::test_policy_bytes_pinned[5-h0-6-random-*",
            "tests/test_bestresponse.py::TestMemoRule::test_unfolded_dp_keeps_no_one_left_state[n5-k2]",
        ],
    ),
    (
        "the walk's jump ignores the budget",
        DP,
        "            end = min(target, start + budget)",
        "            end = target",
        [
            "tests/test_solver.py::TestSolveGameSmall::test_known_values[2-2-h1-2-expected1]",
            WALK + "test_set_walk_equals_step_replay",
            WALK + "test_payoff_columns_equal_step_replay_counts",
        ],
    ),
    # Keeping split-off placements in the continuing set as well is an
    # equivalent mutant, so it is not listed: the dig front of such a copy
    # has passed an object it never reveals, so the copy is never found
    # whole and the win mask is unchanged.
    (
        "the walk charges a split-off group nothing for its dig",
        DP,
        "stack.append((next_dug, next_found, members, left - count, budget - t + start))",
        "stack.append((next_dug, next_found, members, left - count, budget))",
        [WALK + "test_set_walk_equals_step_replay", WALK + "test_payoff_columns_equal_step_replay_counts"],
    ),
    (
        "an unfolded DP skips twin moves too",
        DP,
        "            if self.fold and (dug[loc], found[loc]) in zip(dug[:loc], found[:loc]):",
        "            if (dug[loc], found[loc]) in zip(dug[:loc], found[:loc]):",
        [
            ORACLE + "test_stacked_pairs",
            ORACLE + "test_supports_past_64_and_1000_strategies",
            "tests/test_bestresponse.py::TestPolicyPins::test_policy_bytes_pinned[5-h0-6-random-*",
        ],
    ),
]


def run_tests(copy: Path, tests: list[str]) -> dict[str, str]:
    """Each named test's outcome (PASSED, FAILED or ERROR), by pytest's
    summary. A name ending in `*` is PASSED if every test it stands for
    passes, FAILED if none does and MIXED otherwise; it is missing if it
    stands for no test."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    node_ids = dict.fromkeys(test.partition("[")[0] if test.endswith("*") else test for test in tests)
    argv = [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", *node_ids]
    try:
        done = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {test: "TIMEOUT" for test in tests}
    ran = {}
    for line in done.stdout.splitlines():
        status, _, rest = line.partition(" ")
        if status in ("PASSED", "FAILED", "ERROR"):
            ran[rest.split(" - ")[0]] = status
    outcomes = {}
    for test in tests:
        if test.endswith("*"):
            statuses = {status for id_, status in ran.items() if id_.startswith(test[:-1])}
            if statuses:
                passed = "PASSED" in statuses
                outcomes[test] = "MIXED" if passed and len(statuses) > 1 else "PASSED" if passed else "FAILED"
        elif test in ran:
            outcomes[test] = ran[test]
    return outcomes


def main() -> int:
    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", copy / "tests", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)

        named = list(dict.fromkeys(test for *_, tests in MUTANTS for test in tests))
        baseline = run_tests(copy, named)
        unmutated_ok = True
        for test in named:
            if baseline.get(test) != "PASSED":
                print(f"unmutated: {test} {baseline.get(test, 'not run')}")
                unmutated_ok = False
        if not unmutated_ok:
            return 1

        killed = 0
        for name, file, old, new, tests in MUTANTS:
            path = copy / "src" / file
            source = path.read_text()
            if source.count(old) != 1:
                print(f"FAIL   {name}: its old text occurs {source.count(old)} times in {file}")
                continue
            path.write_text(source.replace(old, new))
            try:
                outcomes = run_tests(copy, tests)
            finally:
                path.write_text(source)
            survived = [test for test in tests if outcomes.get(test) not in ("FAILED", "ERROR", "TIMEOUT")]
            if survived:
                print(f"FAIL   {name}: survives {', '.join(survived)}")
            else:
                killed += 1
                print(f"killed {name} ({len(tests)} tests fail)")
    elapsed = time.perf_counter() - started
    print(f"{killed} of {len(MUTANTS)} mutants killed in {elapsed:.1f} s")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
