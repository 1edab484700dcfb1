"""The benchmark's trace hooks still find what they wrap in the package.

A hooked name that is gone shows up in a traced benchmark run only as a
missing layer; these tests fail on it instead.
"""

import importlib
import importlib.util
from fractions import Fraction as F
from pathlib import Path

from caching_game import bestresponse
from caching_game.core import GameConfig, HiderMixed, make_hider
from caching_game.enumeration import Grid
from caching_game.strategies import lemma_config, lemma_hider

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_resolves_to_a_callable():
    hooks = _load_tracing().HOOKS
    assert hooks
    for module_name, attr, _ in hooks:
        module = importlib.import_module(f"caching_game.{module_name}")
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_best_response_dp_has_fold_and_memo(monkeypatch):
    built = []
    original = bestresponse._BestResponse

    def capture(*args, **kwargs):
        built.append(original(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(bestresponse, "_BestResponse", capture)
    bestresponse.best_response_value(
        lemma_hider(2), lemma_config(2), Grid(6), extract_policy=False
    )
    asymmetric = HiderMixed.uniform([make_hider((F(1, 2), F(1)), ())])
    bestresponse.best_response_value(asymmetric, GameConfig(2, 2, F(3, 2)), Grid(2))
    assert [dp.fold for dp in built] == [True, False]
    assert all(isinstance(dp.memo, dict) and dp.memo for dp in built)
