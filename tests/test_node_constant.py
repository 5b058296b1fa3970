"""Noise-independent data stored once per level.

A level whose node axis has length 1 stands for the same value on every
node.  Realization stores ``constant`` and ``time_table`` coefficients that
way, and every solver broadcasts them.  These tests solve each shipped
problem from its realized coefficients and from a copy with every field
materialised to 2^k nodes per level, and require the same answers.
"""

import json

import numpy as np
import pytest

from mfbslq import build_tree, load_spec, realize, solve_meanfield_bsde, solve_oracle
from mfbslq.bsde import implicit_steps
from mfbslq.multipliers import eta_dimension
from mfbslq.outer import run_pipeline
from conftest import (CORPUS, FIELDS, corpus_path, materialised, probe_route,
                      tile_realize)

DEPTH = 6
# specs whose twelve coefficients are all noise-independent
DETERMINISTIC = ("s1", "m1", "d2")


def mixed_bars_spec():
    """m1_random with a walk-dependent A_bar beside constant B_bar and C_bar,
    so per-node stacks of one- and 2^k-node levels meet in one block."""
    doc = json.loads(corpus_path("m1_random").read_text())
    doc["dynamics"]["A_bar"] = {"form": "affine_tanh_W", "m0": 0.5, "m1": 0.1}
    return load_spec(json.dumps(doc))


def _assert_close(got, want, tol):
    got, want = np.asarray(got, float), np.asarray(want, float)
    assert np.abs(got - want).max() <= tol * max(1.0, float(np.abs(want).max()))


@pytest.mark.parametrize("route", ["probe", "gmres"])
@pytest.mark.parametrize("name", CORPUS + ("mixed_bars",))
def test_materialised_coefficients_give_the_same_solution(corpus, monkeypatch,
                                                          name, route):
    # "gmres" is the pipeline's outer solve; "probe" swaps in the dense
    # solve of the probed system, the referee, so probe_operators is held
    # to the same answers on compact and materialised coefficients
    spec = corpus[name] if name in corpus else mixed_bars_spec()
    if route == "probe":
        probe_route(monkeypatch)
    compact = run_pipeline(spec, DEPTH)
    tree = compact.tree
    widths = {len(level) for f in FIELDS for level in getattr(compact.coeffs, f)[1:]}
    assert 1 in widths
    assert (len(widths) > 1) == (name not in DETERMINISTIC)

    tile_realize(monkeypatch)
    full = run_pipeline(spec, DEPTH)
    for f in FIELDS:
        assert [len(v) for v in getattr(full.coeffs, f)] == [
            tree.n_nodes(k) for k in range(DEPTH)]

    # the outer solve spends the base column and one per GMRES product: on
    # these data, functions of W(t_k) stored compact or materialised, the
    # preconditioner is the lattice problem's system, the system itself, and
    # one product suffices.  The probed solve spends the base column and 2d
    # impulse columns
    d = eta_dimension(tree, compact.coeffs)
    for res in (compact, full):
        products = res.outer.columns - 1
        assert products == (2 * d if route == "probe" else 1)
        assert res.outer.relative_residual <= 1e-12
    _assert_close(compact.constrained.eta, full.constrained.eta, 1e-12)
    _assert_close(compact.cost, full.cost, 1e-12)
    for a, b in zip(compact.constrained.u, full.constrained.u):
        _assert_close(a, b, 1e-12)
    assert abs(compact.multiplier_residual - full.multiplier_residual) <= 1e-12
    for a, b in zip(compact.riccati.sigma, full.riccati.sigma):
        _assert_close(np.broadcast_to(a, b.shape), b, 1e-12)
    if name in DETERMINISTIC:
        assert all(len(s) == 1 for s in compact.riccati.sigma)
        assert compact.riccati.newton_nodes == DEPTH
    # materialised, every level is wide: Newton runs on its k + 1 lattice nodes
    assert full.riccati.newton_nodes == DEPTH * (DEPTH + 1) // 2

    sparse = []
    for coeffs in (compact.coeffs, full.coeffs):
        assert solve_oracle(tree, coeffs, "dense").certified
        sparse.append(solve_oracle(tree, coeffs))
        assert sparse[-1].certified
    for a, b in zip(sparse[0].u, sparse[1].u):
        _assert_close(a, b, 1e-12)


@pytest.mark.parametrize("name", CORPUS)
def test_level_means_of_one_node_levels(corpus, name):
    # a one-node level and its tiled copy give the same mean-closing matrix,
    # its smallest singular value and the same level means
    spec = corpus[name]
    tree = build_tree(spec.horizon, DEPTH)
    compact = realize(spec, tree)
    full = materialised(tree, compact)
    steps, full_steps = implicit_steps(tree, compact), implicit_steps(tree, full)
    for a, b in zip(steps.closings, full_steps.closings):
        _assert_close(a, b, 1e-14)
    assert steps.min_closing_sv == pytest.approx(full_steps.min_closing_sv, rel=1e-14)

    rng = np.random.default_rng(3)
    controls = [rng.standard_normal((tree.n_nodes(k), spec.m)) for k in range(DEPTH)]
    sol = solve_meanfield_bsde(tree, compact, controls)
    full_sol = solve_meanfield_bsde(tree, full, controls)
    for field in ("y_mean", "z_mean", "u_mean"):
        _assert_close(getattr(sol, field), getattr(full_sol, field), 1e-13)


def test_deterministic_riccati_runs_on_one_node_per_level(d2):
    # d2 at the benchmark depth: Sigma stays at one node on every level
    res = run_pipeline(d2, 13)
    assert [len(s) for s in res.riccati.sigma] == [1] * 14
    assert res.report()["diagnostics"]["riccati_nodes"] == 13
