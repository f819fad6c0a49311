import os
import subprocess
import sys
from pathlib import Path

import pytest

import mbqcflow
from mbqcflow import bounds, errors, oracle, simulate

LAYERS = ("gf2", "graph", "flow", "cones", "pattern", "pauli", "simulate", "oracle", "bounds")


def fresh_python(code: str) -> str:
    src = str(Path(mbqcflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
        check=True,
    )
    return proc.stdout.strip()


def test_every_public_name_resolves():
    for name in mbqcflow.__all__:
        assert getattr(mbqcflow, name) is not None, name


def test_star_import_and_unknown_names():
    namespace = {}
    exec("from mbqcflow import *", namespace)
    assert set(mbqcflow.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        mbqcflow.no_such_name


def test_import_loads_no_layer():
    assert fresh_python(
        "import mbqcflow, sys; print(sorted(m for m in sys.modules if m.startswith('mbqcflow')))"
    ) == "['mbqcflow']"


def test_one_public_read_loads_every_layer():
    # The bench tracer looks each traced module up in sys.modules after
    # the worker has read one public name.
    loaded = fresh_python(
        "import mbqcflow, sys; mbqcflow.OpenGraph; "
        f"print([m for m in {LAYERS!r} if 'mbqcflow.' + m in sys.modules])"
    )
    assert loaded == repr(list(LAYERS))


def test_budget_defaults_are_defined_once():
    assert oracle.DEFAULT_DENSE_LIMIT is errors.DEFAULT_DENSE_LIMIT == 14
    assert simulate.DEFAULT_DENSE_LIMIT is errors.DEFAULT_DENSE_LIMIT
    assert oracle.DEFAULT_BRANCH_BUDGET is errors.DEFAULT_BRANCH_BUDGET == 2**14
    assert simulate.DEFAULT_TERM_BUDGET is errors.DEFAULT_TERM_BUDGET == 2**22
    assert bounds.DEFAULT_ORDERING_BUDGET is errors.DEFAULT_ORDERING_BUDGET == 20
    assert bounds.DEFAULT_TREE_BUDGET is errors.DEFAULT_TREE_BUDGET == 16
