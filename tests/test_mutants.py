"""The mutation check (tests/mutants.py) still names lines and tests that exist.

The check itself runs outside the test suite; this only catches the drift
that would make it report a surviving mutant when nothing regressed.
"""

import ast

import pytest

import mutants


@pytest.mark.parametrize("name, file, old, new, tests", mutants.MUTANTS, ids=[m[0] for m in mutants.MUTANTS])
def test_each_mutant_names_one_source_text_and_defined_tests(name, file, old, new, tests):
    assert (mutants.ROOT / "src" / file).read_text().count(old) == 1
    for test in tests:
        path, *parts = test.partition("[")[0].split("::")
        tree = ast.parse((mutants.ROOT / path).read_text())
        defined = {node.name for node in ast.walk(tree) if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
        assert set(parts) <= defined, test
