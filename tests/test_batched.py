"""Column-stacked sweeps agree with one-column solves.

Every sweep takes a trailing column axis; a single vector runs as one
column.  These tests solve a stack of columns once and each column on its
own, on every shipped problem at depth 5, and require the same numbers up
to rounding.
"""

import numpy as np
import pytest

from mfbslq import (build_tree, cost_gradient, evaluate_cost, realize,
                    solve_forward_sde, solve_meanfield_bsde, solve_riccati)
from mfbslq.multipliers import (column_blocks, eta_dimension, probe_operators,
                                solve_constrained_problem, solve_decoupled)
from mfbslq.oracle import stack_controls
from mfbslq.outer import assemble_outer_quadratic
from conftest import CORPUS, workspace

DEPTH = 5
COLUMNS = 5


def _setup(corpus, name):
    spec = corpus[name]
    tree = build_tree(spec.horizon, DEPTH)
    coeffs = realize(spec, tree)
    return tree, coeffs, solve_riccati(tree, coeffs)


def _assert_close(batched, single, rel):
    scale = max(1.0, float(np.abs(single).max()))
    assert np.abs(batched - single).max() <= rel * scale


@pytest.mark.parametrize("name", CORPUS)
def test_decoupled_columns_match_single_solves(corpus, name):
    tree, coeffs, ric = _setup(corpus, name)
    d = eta_dimension(tree, coeffs)
    rng = np.random.default_rng(11)
    lam = rng.standard_normal((d, COLUMNS))
    eta = rng.standard_normal((d, COLUMNS))
    batched = solve_decoupled(tree, coeffs, ric, lam, eta)
    for j in range(COLUMNS):
        single = solve_decoupled(tree, coeffs, ric, lam[:, j], eta[:, j])
        for field in ("phi", "vtheta", "x", "u", "y", "z"):
            for b_lv, s_lv in zip(getattr(batched, field), getattr(single, field)):
                assert b_lv.shape == s_lv.shape + (COLUMNS,)
                _assert_close(b_lv[..., j], s_lv, 1e-12)
        _assert_close(batched.means[:, j], single.means, 1e-12)
        _assert_close(batched.coupling[:, j], single.coupling, 1e-12)


@pytest.mark.parametrize("name", CORPUS)
def test_meanfield_columns_match_single_solves(corpus, name):
    tree, coeffs, _ = _setup(corpus, name)
    rng = np.random.default_rng(12)
    controls = [rng.standard_normal((tree.n_nodes(k), coeffs.m, COLUMNS))
                for k in range(DEPTH)]
    batched = solve_meanfield_bsde(tree, coeffs, controls)
    for j in range(COLUMNS):
        single = solve_meanfield_bsde(tree, coeffs, [u[..., j] for u in controls])
        for b_lv, s_lv in zip(batched.y, single.y):
            _assert_close(b_lv[..., j], s_lv, 1e-12)
        for b_lv, s_lv in zip(batched.z, single.z):
            _assert_close(b_lv[..., j], s_lv, 1e-12)
        for mean in ("y_mean", "z_mean", "u_mean"):
            _assert_close(getattr(batched, mean)[..., j], getattr(single, mean), 1e-12)


@pytest.mark.parametrize("name", CORPUS)
def test_gradient_columns_match_single_gradients(corpus, name):
    tree, coeffs, _ = _setup(corpus, name)
    rng = np.random.default_rng(14)
    controls = [rng.standard_normal((tree.n_nodes(k), coeffs.m, COLUMNS))
                for k in range(DEPTH)]
    batched = cost_gradient(tree, coeffs, controls)
    for j in range(COLUMNS):
        single = cost_gradient(tree, coeffs, [u[..., j] for u in controls])
        for b_lv, s_lv in zip(batched, single):
            assert b_lv.shape == s_lv.shape + (COLUMNS,)
            _assert_close(b_lv[..., j], s_lv, 1e-12)


@pytest.mark.parametrize("name", CORPUS)
def test_outer_quadratic_matches_per_column_directions(corpus, name):
    tree, coeffs, ric = _setup(corpus, name)
    quad = assemble_outer_quadratic(tree, coeffs, ric)
    d = eta_dimension(tree, coeffs)
    ws = workspace(tree, coeffs, ric)
    ops = probe_operators(tree, coeffs, ws)
    base = solve_constrained_problem(tree, coeffs, ws, ops, np.zeros(d)).u
    columns = []
    for j in range(d):
        u = solve_constrained_problem(tree, coeffs, ws, ops, np.eye(d)[j]).u
        columns.append([a - b for a, b in zip(u, base)])
    # reference: one single-column gradient per direction.  The cost is
    # u' H u + 2 l' u + J(0), so with a zero terminal value the gradient at
    # a direction is 2 H times it, and the gradient at the base is
    # 2 (H base + l)
    flat = np.stack([stack_controls(c) for c in columns], axis=1)
    zero = np.zeros_like(coeffs.xi)
    hess = np.empty((d, d))
    for j, direction in enumerate(columns):
        state = solve_meanfield_bsde(tree, coeffs, direction, terminal=zero)
        hess[:, j] = 0.5 * flat.T @ stack_controls(
            cost_gradient(tree, coeffs, direction, state))
    lin = 0.5 * flat.T @ stack_controls(cost_gradient(tree, coeffs, base))
    const = evaluate_cost(tree, coeffs, base)
    scale = max(1.0, float(np.abs(hess).max()))
    assert np.abs(quad.hessian - hess).max() <= 1e-10 * scale
    assert np.abs(quad.linear - lin).max() <= 1e-10 * scale
    assert abs(quad.constant - const) <= 1e-10 * max(1.0, abs(const))

    # the reference against plain cost evaluations of single controls
    for j in (0, d // 2, d - 1):
        up = evaluate_cost(tree, coeffs, [b + c for b, c in zip(base, columns[j])])
        dn = evaluate_cost(tree, coeffs, [b - c for b, c in zip(base, columns[j])])
        scale = max(1.0, abs(const))
        assert abs((up + dn) / 2 - const - hess[j, j]) <= 1e-9 * scale
        assert abs((up - dn) / 2 - 2 * lin[j]) <= 1e-9 * scale


@pytest.mark.parametrize("name", CORPUS)
def test_solve_lambda_matrix_matches_column_loop(corpus, name):
    tree, coeffs, ric = _setup(corpus, name)
    ops = probe_operators(tree, coeffs, workspace(tree, coeffs, ric))
    rhs = np.random.default_rng(13).standard_normal((ops.L.shape[0], COLUMNS))
    stacked = ops.solve_lambda(rhs)
    assert stacked.shape == rhs.shape
    for j in range(COLUMNS):
        _assert_close(stacked[:, j], ops.solve_lambda(rhs[:, j]), 1e-12)


def test_forward_sde_keeps_trailing_shape():
    tree = build_tree(1.0, DEPTH)
    x0 = np.array([[1.0, -2.0, 0.5], [0.0, 3.0, 1.0]])   # dim 2, 3 columns
    mix = np.array([[0.3, -0.1], [0.2, 0.4]])

    def drift(k, x):
        return np.einsum("ab,jb...->ja...", mix, x)

    def diffusion(k, x):
        return 0.5 * x + 1.0

    levels = solve_forward_sde(tree, x0, drift, diffusion)
    for k, level in enumerate(levels):
        assert level.shape == (tree.n_nodes(k), 2, 3)
    for j in range(3):
        single = solve_forward_sde(tree, x0[:, j], drift, diffusion)
        for b_lv, s_lv in zip(levels, single):
            assert s_lv.shape == b_lv.shape[:2]
            _assert_close(b_lv[..., j], s_lv, 1e-14)


def test_column_blocks_cover_every_column_once():
    for count in (1, 15, 16, 17, 66, 132):
        blocks = column_blocks(count)
        covered = np.concatenate([np.arange(count)[b] for b in blocks])
        assert np.array_equal(covered, np.arange(count))
        assert max(b.stop - b.start for b in blocks) <= 16
