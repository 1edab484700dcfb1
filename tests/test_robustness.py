"""Seeded property tests of the program's edges: damaged cache entries and
random command lines.

A damaged cache entry either still parses as the solution of its own
request and is read back as a cache hit, or is a miss that is solved again;
a command line, well formed or not, ends in exit code 0, 1 or 2 and never in
a traceback.
"""

import json
import random

from caching_game.cli import main
from caching_game.core import GameConfig
from caching_game.enumeration import Grid
from caching_game.solver import solution_from_json, solution_to_json, solve_game

# What solve_game_cached treats as an unreadable entry.
MISS = (ValueError, KeyError, TypeError, AttributeError, RecursionError)

ODD_VALUES = (None, True, 0, -1, 3, 1.5, 10**30, "", "x", "1/0", "-1/2", [], {}, [[]], {"n": 2})


def _nodes(obj, path=()):
    """Every (path, value) below obj, obj itself included."""
    yield path, obj
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _nodes(value, path + (i,))


def _replace(obj, path, value):
    if not path:
        return value
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return obj


def mutate(rng, text):
    """One seeded damage to the canonical text, and its kind."""
    kind = rng.choice(("truncate", "flip", "delete key", "wrong type", "deep nesting"))
    if kind == "truncate":
        return kind, text[: rng.randrange(len(text))]
    if kind == "flip":
        at = rng.randrange(len(text))
        return kind, text[:at] + chr(ord(text[at]) ^ 1 << rng.randrange(7)) + text[at + 1 :]
    obj = json.loads(text)
    nodes = list(_nodes(obj))
    if kind == "delete key":
        node = rng.choice([n for _, n in nodes if isinstance(n, dict) and n])
        del node[rng.choice(sorted(node))]
        return kind, json.dumps(obj)
    path, _ = rng.choice(nodes)
    if kind == "wrong type":
        return kind, json.dumps(_replace(obj, path, rng.choice(ODD_VALUES)))
    depth = rng.choice((5_000, 100_000))
    marker = "__nested__"
    nested = json.dumps(_replace(obj, path, marker))
    return kind, nested.replace(f'"{marker}"', "[" * depth + "]" * rng.randrange(2) * depth)


def test_damaged_cache_entries_parse_or_are_solved_again(capsys, tmp_path):
    argv = ["solve", "--n", "2", "--k", "2", "--h", "1", "--m", "2", "--cache-dir", str(tmp_path)]
    text = solution_to_json(solve_game(GameConfig(2, 2, 1), Grid(2)))
    assert main(argv) == 0
    assert capsys.readouterr().out == text
    (path,) = tmp_path.iterdir()
    request = (GameConfig(2, 2, 1), Grid(2))
    rng = random.Random(16001)
    missed = set()
    foreign = 0
    for _ in range(2000):
        kind, damaged = mutate(rng, text)
        path.write_text(damaged)
        try:
            sol = solution_from_json(damaged)
        except MISS:
            missed.add(kind)
        else:
            if (sol.cfg, sol.grid) == request:
                # tampered with but still a solution of this request: its
                # bytes are not checked here, but it must be read back as a
                # cache hit
                assert main(argv) == 0, (kind, damaged[:200])
                assert "cache hit" in capsys.readouterr().err
                continue
            # a solution of another request is a miss too
            foreign += 1
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, out) == (0, text), (kind, damaged[:200])
        assert "unreadable cache entry" in err
        assert path.read_text() == text
    assert missed == {"truncate", "flip", "delete key", "wrong type", "deep nesting"}
    assert foreign == 2


def _solve_argv(rng):
    return [
        "solve",
        "--n", rng.choice(("0", "1", "2", "3", "4", "x")),
        "--k", rng.choice(("0", "1", "2", "-1", "2.0")),
        "--h", rng.choice(("1", "3/2", "2", "7/3", "0", "-1", "4", "1/0", "x", "")),
        "--m", rng.choice(("0", "1", "2", "3", "4", "-2", "m")),
    ]


def _verify_lemma_argv(rng):
    argv = ["verify-lemma", rng.choice(("2", "3", "4", "5", "0", "1", "6", "-1", "x"))]
    if rng.random() < 0.7:
        argv += ["--scan-m", rng.choice(("1", "2", "4", "0", "-1", "1001", "y"))]
    return argv


def _asymptotic_argv(rng):
    argv = [
        "asymptotic",
        "--n", rng.choice(("-1", "0", "1", "2", "3", "4", "10", "n")),
        "--h", rng.choice(("1", "3/2", "2", "7", "0", "-1", "10", "1/0", "h")),
    ]
    if rng.random() < 0.6:
        argv += ["--y", rng.choice(("1/3", "1/2", "0", "3/5", "1", "-1/4", "1/0", "y"))]
    return argv


def _proposition_argv(rng):
    values = ("-1", "0", "1", "2", "3", "4", "z")
    return ["proposition", "--n", rng.choice(values), "--k", rng.choice(values)]


def _enumerate_argv(rng):
    values = ("-1", "0", "1", "2", "3", "q")
    argv = ["enumerate", "--n", rng.choice(values), "--k", rng.choice(values)]
    argv += ["--m", rng.choice(values)]
    if rng.random() < 0.5:
        argv.append("--reduce")
    return argv


SUBCOMMANDS = (_solve_argv, _verify_lemma_argv, _asymptotic_argv, _proposition_argv, _enumerate_argv)


def test_random_command_lines_exit_cleanly(capsys, tmp_path):
    rng = random.Random(16002)
    codes = set()
    for _ in range(400):
        argv = rng.choice(SUBCOMMANDS)(rng)
        roll = rng.random()
        if roll < 0.1 and len(argv) > 2:
            del argv[rng.randrange(1, len(argv))]  # a missing or stray token
        elif roll < 0.15:
            argv.append("--bogus")
        elif roll < 0.25:
            argv += ["--out", str(tmp_path / rng.choice(("out.txt", "missing/out.txt")))]
        if argv[0] == "solve":
            argv += ["--cache-dir", str(tmp_path / "cache")]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        _, err = capsys.readouterr()
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        codes.add(code)
    assert codes == {0, 1, 2}
