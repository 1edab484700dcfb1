"""The benchmark's four workloads.

A workload builds its inputs from the seed when it is constructed (that is
part of set-up), hands out one round of operations at a time, and checks a
round's outputs with `checks`. Every round runs the same operations, so
each round fails the same share of them.

Operations reach the package through `caching_game.cli.main` where a CLI
command serves them, and through public functions otherwise. They look the
function up on its module at call time, so the traced run sees them.
"""

from __future__ import annotations

import contextlib
import io
import random
from fractions import Fraction as F
from pathlib import Path

import checks
from caching_game import bestresponse, cli, strategies
from caching_game.core import GameConfig, HiderMixed, HiderPure
from caching_game.enumeration import Grid


def run_cli(argv: list[str]) -> tuple[bool, tuple[int, str, str]]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code == 0, (code, out.getvalue(), err.getvalue())


class Solve:
    """Exact double-oracle solves, each cold into a fresh cache, then warm."""

    # name, n, h, grid m, whether the grid reproduces the Table 1 value
    GAMES = (
        ("n4-h3/2-m8", 4, F(3, 2), 8, True),
        ("n4-h5/3-m6", 4, F(5, 3), 6, False),
        ("n4-h11/6-m6", 4, F(11, 6), 6, True),
        ("n4-h2-m5", 4, F(2), 5, True),
        ("n4-h11/5-m5", 4, F(11, 5), 5, False),
        ("n5-h2-m4", 5, F(2), 4, None),
    )

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.caches = 0
        games = list(self.GAMES)
        random.Random(seed).shuffle(games)
        self.specs = [dict(name=g[0], n=g[1], k=2, h=g[2], m=g[3], exact=g[4]) for g in games]

    def ops(self):
        self.caches += 1
        cache = str(self.workdir / f"cache-{self.caches}")
        out = []
        for spec in self.specs:
            argv = ["solve", "--n", str(spec["n"]), "--k", "2", "--h", str(spec["h"]), "--m", str(spec["m"])]
            argv += ["--cache-dir", cache]
            out.append((f"{spec['name']} cold", lambda argv=argv: run_cli(argv)))
            out.append((f"{spec['name']} warm", lambda argv=argv: run_cli(argv)))
        return out

    def check(self, results) -> None:
        for spec, cold, warm in zip(self.specs, results[::2], results[1::2]):
            if cold[0] and warm[0]:
                checks.check_solve(spec, cold[1][1], warm[1][1], warm[1][2])


class BestResponse:
    """Best responses to fixed Hider mixes over every grid strategy."""

    # name, n, h, grid m, whether the brute single-step oracle runs too
    GAMES = (
        ("n4-h3/2-m8", 4, F(3, 2), 8, False),
        ("n5-h2-m6", 5, F(2), 6, False),
        ("n4-h2-m6", 4, F(2), 6, False),
        ("n4-h3/2-m5", 4, F(3, 2), 5, True),
    )

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.specs = []
        for name, n, h, m, brute in self.GAMES:
            support = checks.placements(n, 2, m)
            hiders = [HiderPure(tuple(tuple(F(s, m) for s in loc) for loc in p)) for p in support]
            weights = [rng.randint(1, 1000) for _ in support]
            total = sum(weights)
            mixes = (("random", [F(w, total) for w in weights]), ("uniform", [F(1, len(support))] * len(support)))
            for kind, probs in mixes:
                self.specs.append(
                    dict(
                        name=f"{name} {kind}",
                        n=n,
                        m=m,
                        budget=checks.grid_budget(h, m),
                        brute=brute,
                        entries=list(zip(support, probs)),
                        args=(HiderMixed(tuple(zip(hiders, probs))), GameConfig(n, 2, h), Grid(m)),
                    )
                )

    def ops(self):
        return [(spec["name"], lambda args=spec["args"]: (True, bestresponse.best_response_value(*args))) for spec in self.specs]

    @staticmethod
    def digest(output):
        """What two rounds must agree on: the value and the policy's moves."""
        value, policy = output
        return value, policy.actions

    def check(self, results) -> None:
        for spec, (ok, output) in zip(self.specs, results):
            if ok:
                checks.check_best_response(spec, output[0], output[1].to_json_obj())


class ScriptScan:
    """verify-lemma 2-5 at scan m=60, and the 19-entry Searcher table report."""

    def __init__(self, seed: int, workdir: Path):
        self.names = ["lemma 2", "lemma 3", "lemma 4", "lemma 5", "table"]
        random.Random(seed).shuffle(self.names)

    def ops(self):
        out = []
        for name in self.names:
            if name == "table":
                out.append((name, lambda: (True, strategies.searcher_table_report(60))))
            else:
                argv = ["verify-lemma", name.split()[1], "--scan-m", "60"]
                out.append((name, lambda argv=argv: run_cli(argv)))
        return out

    def check(self, results) -> None:
        for name, (ok, output) in zip(self.names, results):
            if output is None:
                continue
            if name == "table":
                checks.check_table_report(output)
                continue
            lemma = int(name.split()[1])
            code, report, _ = output

            def rewin(sets, lemma=lemma):
                cfg = strategies.lemma_config(lemma)
                outcome = strategies.script_win_prob(strategies.lemma_script(lemma), HiderPure(sets), cfg)
                return outcome.win_probability

            checks.check_lemma(lemma, code, report, rewin)


class Sweep:
    """The criterion-4 grid beside a few large-n points."""

    SMALL_N = range(4, 51)
    SPLITS = range(1, 31)  # y = t/60
    LATTICE_SPLITS = (1, 10, 20, 30)
    LARGE_N = (10_000, 100_000)
    WALKED = 40  # small-n points checked against a walk or a brute count

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.large = [(n, F(rng.randrange(n // 2, n)), F(rng.choice(self.SPLITS), 60)) for n in self.LARGE_N]
        self.check_rng = random.Random(seed)

    @staticmethod
    def _small(n):
        points, counts = [], []
        for h_int in range(-(-n // 2), n):
            h = F(h_int)
            points.append((h, None, strategies.asymptotic_win_prob(n, h, "same-location")))
            for t in Sweep.SPLITS:
                y = F(t, 60)
                points.append((h, y, strategies.asymptotic_win_prob(n, h, ("split", y))))
            for t in Sweep.LATTICE_SPLITS:
                y = F(t, 60)
                counts.append((h, y, strategies.asymptotic_lattice_count(n, h, y)))
        return True, (points, counts)

    @staticmethod
    def _large(n, h, y):
        p = strategies.asymptotic_win_prob(n, h, ("split", y))
        return True, ([(h, y, p)], [(h, y, strategies.asymptotic_lattice_count(n, h, y))])

    def ops(self):
        out = [(f"n={n}", lambda n=n: self._small(n)) for n in self.SMALL_N]
        out += [(f"n={p[0]}", lambda p=p: self._large(*p)) for p in self.large]
        return out

    def check(self, results) -> None:
        sizes = list(self.SMALL_N) + [n for n, _, _ in self.large]
        walked = []
        for n, (ok, output) in zip(sizes, results):
            if not ok:
                continue
            points, counts = output
            for h, y, p in points:
                checks.check_sweep_point(n, h, y, p)
            if n in self.LARGE_N:
                (h, y, p), (_, _, count) = points[0], counts[0]
                checks.require(p == checks.large_split_prob(n, h, y), f"n={n} h={h} y={y}: {p}")
                checks.require(count == checks.large_lattice_count(n, h, y), f"lattice n={n} h={h} y={y}: {count}")
            elif n <= 30:
                walked += [(n, h, y, p, False) for h, y, p in points if y is not None]
                walked += [(n, h, y, c, True) for h, y, c in counts]
        for n, h, y, value, lattice in self.check_rng.sample(walked, min(self.WALKED, len(walked))):
            if lattice:
                want = checks.brute_lattice_count(n, h, y)
            else:
                want = checks.walk_split_prob(n, h, y)
            checks.require(value == want, f"n={n} h={h} y={y}: {value}, walked {want}")


WORKLOADS = {"solve": Solve, "best-response": BestResponse, "script-scan": ScriptScan, "sweep": Sweep}
