"""The names the benchmark harness looks up on the package.

``perfbench/spans.py`` wraps layer functions at the module attributes
their callers read, and ``perfbench/worker.py`` warms up both oracle
routes by position.  A rename that breaks either would otherwise only
show when the benchmark runs.
"""

import importlib.util
from pathlib import Path

import pytest

import mfbslq
from mfbslq import build_tree, realize, solve_oracle

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _wrap_points():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAP_POINTS


@pytest.mark.parametrize("module_name, attr, span", _wrap_points())
def test_wrap_point_exists(module_name, attr, span):
    module = getattr(mfbslq, module_name)
    assert callable(getattr(module, attr)), f"{module_name}.{attr} ({span})"


def test_oracle_routes_by_position(s1):
    tree = build_tree(s1.horizon, 3)
    coeffs = realize(s1, tree)
    for method in ("dense", "sparse"):
        assert solve_oracle(tree, coeffs, method).method == method
