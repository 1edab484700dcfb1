"""Per-layer spans and counters, recorded from outside the package.

`Tracer.install` replaces module-level functions of `caching_game` with
wrappers that time each call as a span and count the work crossing that
boundary; `uninstall` puts the originals back. A span's self time is its
duration minus the time of the spans it encloses. Spans are aggregated in
memory per name.

Some boundaries are private names. A name that is gone is reported as a
missing hook, and every metric that needs it reads as missing, so a
refactor of the package cannot break the traced run.
"""

from __future__ import annotations

import importlib
from time import perf_counter

# (module, attribute, span name). A span name of None counts calls only,
# under the enclosing span, for functions too hot to time one by one.
HOOKS = (
    ("cli", "main", "cli"),
    ("cli", "solve_game_cached", "solver.cached"),
    ("cli", "solution_to_json", "solver.json"),
    ("cli", "best_response_value", "bestresponse"),
    ("cli", "script_min_win_prob", "strategies.scan"),
    ("solver", "solve_game", "solver.solve_game"),
    ("solver", "solution_to_json", "solver.json"),
    ("solver", "enumerate_grid_hiders", "enumeration"),
    ("solver", "relabelings", "core.relabelings"),
    ("solver", "solve_matrix_game", "solver.lp"),
    ("solver", "_payoff_column", "solver.payoff"),
    ("solver", "best_response_value", "bestresponse"),
    ("solver", "_certify", "solver.certify"),
    ("bestresponse", "best_response_value", "bestresponse"),
    ("bestresponse", "_BestResponse", None),
    ("strategies", "table_class_min", "strategies.table"),
    ("strategies", "_win_prob", None),
    ("strategies", "_win_prob_fixed", None),
    ("strategies", "asymptotic_win_prob", "strategies.sweep"),
    ("strategies", "asymptotic_lattice_count", "strategies.lattice"),
)

# (metric, unit, better, hooks it needs). process.cpu_s and
# trace.overhead_s come from the worker, not from spans.
METRICS = (
    ("enumeration.s", "s", "lower", ("solver.enumerate_grid_hiders",)),
    ("enumeration.rows", "count", "lower", ("solver.enumerate_grid_hiders",)),
    ("core.relabelings_s", "s", "lower", ("solver.relabelings",)),
    ("solver.lp_s", "s", "lower", ("solver.solve_matrix_game",)),
    ("solver.lp_calls", "count", "lower", ("solver.solve_matrix_game",)),
    ("solver.lp_cells", "count", "lower", ("solver.solve_matrix_game",)),
    ("solver.do_iterations", "count", "lower", ("solver.solve_game", "solver.best_response_value")),
    ("solver.payoff_s", "s", "lower", ("solver._payoff_column",)),
    ("solver.payoff_columns", "count", "lower", ("solver._payoff_column",)),
    ("solver.certify_s", "s", "lower", ("solver._certify",)),
    (
        "solver.loop_self_s",
        "s",
        "lower",
        (
            "solver.solve_game",
            "solver.enumerate_grid_hiders",
            "solver.relabelings",
            "solver.solve_matrix_game",
            "solver._payoff_column",
            "solver.best_response_value",
            "solver._certify",
        ),
    ),
    ("solver.cache_load_s", "s", "lower", ("cli.solve_game_cached", "solver.solve_game")),
    ("solver.cache_store_s", "s", "lower", ("cli.solve_game_cached", "solver.solve_game", "solver.solution_to_json")),
    ("solver.json_bytes", "bytes", "lower", ("cli.solution_to_json", "solver.solution_to_json")),
    ("bestresponse.s", "s", "lower", ("bestresponse.best_response_value",)),
    ("bestresponse.calls", "count", "lower", ("bestresponse.best_response_value",)),
    ("bestresponse.support", "count", "lower", ("bestresponse.best_response_value",)),
    ("bestresponse.folded_calls", "count", "higher", ("bestresponse.best_response_value", "bestresponse._BestResponse")),
    ("bestresponse.policy_states", "count", "lower", ("bestresponse.best_response_value", "bestresponse._BestResponse")),
    ("strategies.scan_s", "s", "lower", ("cli.script_min_win_prob",)),
    ("strategies.scan_evals", "count", "lower", ("cli.script_min_win_prob", "strategies._win_prob")),
    ("strategies.table_s", "s", "lower", ("strategies.table_class_min",)),
    ("strategies.table_evals", "count", "lower", ("strategies.table_class_min", "strategies._win_prob_fixed")),
    ("strategies.sweep_s", "s", "lower", ("strategies.asymptotic_win_prob",)),
    ("strategies.sweep_points", "count", "higher", ("strategies.asymptotic_win_prob",)),
    ("strategies.sweep_loop_iters", "count", "lower", ("strategies.asymptotic_win_prob", "strategies.asymptotic_lattice_count")),
    ("strategies.lattice_s", "s", "lower", ("strategies.asymptotic_lattice_count",)),
    ("cli.self_s", "s", "lower", ("cli.main",)),
    ("process.cpu_s", "s", "lower", ()),
    ("trace.overhead_s", "s", "lower", ()),
)

CALLS, SECONDS, SELF_SECONDS = 0, 1, 2

# Metrics read off a span's totals; every other metric is a counter.
FROM_SPANS = {
    "enumeration.s": ("enumeration", SECONDS),
    "core.relabelings_s": ("core.relabelings", SECONDS),
    "solver.lp_s": ("solver.lp", SECONDS),
    "solver.lp_calls": ("solver.lp", CALLS),
    "solver.payoff_s": ("solver.payoff", SECONDS),
    "solver.payoff_columns": ("solver.payoff", CALLS),
    "solver.certify_s": ("solver.certify", SECONDS),
    "solver.loop_self_s": ("solver.solve_game", SELF_SECONDS),
    "bestresponse.s": ("bestresponse", SECONDS),
    "bestresponse.calls": ("bestresponse", CALLS),
    "strategies.scan_s": ("strategies.scan", SECONDS),
    "strategies.table_s": ("strategies.table", SECONDS),
    "strategies.sweep_s": ("strategies.sweep", SECONDS),
    "strategies.sweep_points": ("strategies.sweep", CALLS),
    "strategies.lattice_s": ("strategies.lattice", SECONDS),
    "cli.self_s": ("cli", SELF_SECONDS),
}

# Hot functions counted under one enclosing span: hook -> (span, counter).
_COUNTED = {
    "strategies._win_prob": ("strategies.scan", "strategies.scan_evals"),
    "strategies._win_prob_fixed": ("strategies.table", "strategies.table_evals"),
}


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # open spans: [name, {child name: seconds}]
        self.spans: dict[str, list[float]] = {}  # name -> [calls, seconds, self seconds]
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._installed: list[tuple] = []
        self.last_dp = None

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, span in HOOKS:
            module = importlib.import_module(f"caching_game.{module_name}")
            hook = f"{module_name}.{attr}"
            original = getattr(module, attr, None)
            if not callable(original):
                self.missing.append(hook)
                continue
            if hook == "bestresponse._BestResponse":
                wrapper = self._capture_dp(original)
            elif span is None:
                wrapper = self._count(original, *_COUNTED[hook])
            else:
                wrapper = self._span(original, span)
            setattr(module, attr, wrapper)
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    # -- wrappers ------------------------------------------------------------

    def _span(self, fn, name):
        after = _AFTER.get(name)

        def wrapper(*args, **kwargs):
            frame = [name, {}]
            self.stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = perf_counter() - start
                self.stack.pop()
                total = self.spans.setdefault(name, [0, 0.0, 0.0])
                total[0] += 1
                total[1] += seconds
                total[2] += seconds - sum(frame[1].values())
                if self.stack:
                    children = self.stack[-1][1]
                    children[name] = children.get(name, 0.0) + seconds
            if after is not None:
                after(self, args, kwargs, result, frame[1], seconds)
            return result

        return wrapper

    def _count(self, fn, span, counter):
        def wrapper(*args, **kwargs):
            if self.stack and self.stack[-1][0] == span:
                self.add(counter)
            return fn(*args, **kwargs)

        return wrapper

    def _capture_dp(self, cls):
        def factory(*args, **kwargs):
            self.last_dp = cls(*args, **kwargs)
            return self.last_dp

        return factory

    def add(self, counter: str, amount: float = 1) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    # -- reading -------------------------------------------------------------

    def metrics(self) -> dict[str, float | None]:
        """Per-layer metrics of everything traced so far; None if missing."""
        out = {}
        for name, _, _, hooks in METRICS:
            if not hooks:
                continue  # measured by the worker
            if any(hook in self.missing for hook in hooks):
                out[name] = None
            elif name in FROM_SPANS:
                span, field = FROM_SPANS[name]
                out[name] = self.spans.get(span, (0, 0.0, 0.0))[field]
            else:
                out[name] = self.counts.get(name, 0)
        return out


def _after_cached(tracer, args, kwargs, result, children, seconds):
    if "solver.solve_game" in children:
        tracer.add("solver.cache_store_s", seconds - children["solver.solve_game"])
    else:
        tracer.add("solver.cache_load_s", seconds)


def _after_json(tracer, args, kwargs, result, children, seconds):
    tracer.add("solver.json_bytes", len(result.encode()))


def _after_enumeration(tracer, args, kwargs, result, children, seconds):
    tracer.add("enumeration.rows", len(result))


def _after_lp(tracer, args, kwargs, result, children, seconds):
    matrix = args[0] if args else kwargs["matrix"]
    tracer.add("solver.lp_cells", len(matrix) * len(matrix[0]))


def _after_best_response(tracer, args, kwargs, result, children, seconds):
    mu = args[0] if args else kwargs["mu"]
    tracer.add("bestresponse.support", len(mu.entries))
    if tracer.stack and tracer.stack[-1][0] == "solver.solve_game":
        tracer.add("solver.do_iterations")
    dp, tracer.last_dp = tracer.last_dp, None
    if dp is None:
        return
    fold = getattr(dp, "fold", None)
    memo = getattr(dp, "memo", None)
    if fold is None or memo is None:
        if "bestresponse._BestResponse" not in tracer.missing:
            tracer.missing.append("bestresponse._BestResponse")
        return
    tracer.add("bestresponse.folded_calls", int(bool(fold)))
    tracer.add("bestresponse.policy_states", len(memo))


def _after_sweep(tracer, args, kwargs, result, children, seconds):
    hider = args[2] if len(args) > 2 else kwargs.get("hider")
    if hider != "same-location":
        tracer.add("strategies.sweep_loop_iters", args[0])


def _after_lattice(tracer, args, kwargs, result, children, seconds):
    tracer.add("strategies.sweep_loop_iters", args[0])


_AFTER = {
    "solver.cached": _after_cached,
    "solver.json": _after_json,
    "enumeration": _after_enumeration,
    "solver.lp": _after_lp,
    "bestresponse": _after_best_response,
    "strategies.sweep": _after_sweep,
    "strategies.lattice": _after_lattice,
}
