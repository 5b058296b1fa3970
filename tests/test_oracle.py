"""Direct quadratic-program solver: exact optima, gradients, convexity.

Frozen reference values (hand-derived before the tests were written):

* two-step scalar problem, B = N = R = 1, everything else zero, terminal
  value W(T): optimal cost 5/6, root control 0, level-one controls
  -(2/3) sqrt(0.5) after an up move and +(2/3) sqrt(0.5) after a down move,
  martingale field 2/3 at the root;
* one-step problem with terminal weight g on Y(0) and constant terminal
  value c (everything else zero, dt = 1): minimize u^2 + g (c + u)^2, so
  the optimum is u = -g c / (1 + g) with cost g c^2 / (1 + g).
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from mfbslq import (NumericsError, SizeCapError, StepSizeError, build_tree,
                    load_spec, oracle, realize, solve_meanfield_bsde, validate_h1_h2)
from mfbslq.bsde import MeanfieldBsdeSolution
from mfbslq.cli import CHECK_COST_GAP
from mfbslq.oracle import (DENSE_SIZE_CAP, control_dimension, control_error, cost_gradient,
                           cost_of_solution, directional_derivative,
                           directional_derivative_fd, evaluate_cost,
                           gradient_dual_norm, solve_oracle, unstack_controls,
                           weighted_hessian_eigenvalues, weighted_inner,
                           weighted_norm, zero_controls)
from mfbslq.outer import run_pipeline
from conftest import (count_calls, materialised, scalar_spec, singular_mean_doc,
                      singular_step_doc, vector_control_doc)

WALK_TERMINAL = {"form": "affine_in_WT", "g0": 0.0, "g1": 1.0}


def _setup(spec, nt):
    tree = build_tree(spec.horizon, nt)
    return tree, realize(spec, tree)


# ---------------------------------------------------------------------------
# frozen exact optima


def test_two_step_walk_problem_exact_optimum():
    tree, coeffs = _setup(scalar_spec(terminal=WALK_TERMINAL), 2)
    sol = solve_oracle(tree, coeffs)
    h = math.sqrt(0.5)
    assert abs(sol.cost - 5.0 / 6.0) <= 1e-12
    assert abs(sol.u[0][0, 0]) <= 1e-12
    assert abs(sol.u[1][0, 0] + (2.0 / 3.0) * h) <= 1e-12
    assert abs(sol.u[1][1, 0] - (2.0 / 3.0) * h) <= 1e-12
    assert sol.certified

    fields = solve_meanfield_bsde(tree, coeffs, sol.u)
    assert abs(fields.z[0][0, 0] - 2.0 / 3.0) <= 1e-12
    assert abs(cost_of_solution(tree, coeffs, sol.u, fields) - sol.cost) <= 1e-12


def test_one_step_terminal_weight_exact_optimum():
    g, c = 2.0, 3.0
    spec = scalar_spec(G=g, terminal={"form": "poly_in_WT", "coeffs": [c]})
    tree, coeffs = _setup(spec, 1)
    sol = solve_oracle(tree, coeffs)
    assert abs(sol.u[0][0, 0] + g * c / (1.0 + g)) <= 1e-12
    assert abs(sol.cost - g * c * c / (1.0 + g)) <= 1e-12


def test_pipeline_matches_terminal_weight_optimum():
    # with state-independent dynamics (A = C = Q = 0) the optimal control is
    # the deterministic constant -g c / (1 + g) at every depth, and the
    # decoupled pipeline reproduces it to machine precision
    from mfbslq.outer import run_pipeline
    g, c = 2.0, 3.0
    spec = scalar_spec(G=g, terminal={"form": "poly_in_WT", "coeffs": [c]})
    for nt in (1, 2, 8):
        res = run_pipeline(spec, nt, with_oracle=True)
        assert res.oracle_control_error <= 1e-12
        assert abs(res.cost - g * c * c / (1.0 + g)) <= 1e-12
        for k in range(nt):
            assert np.abs(res.constrained.u[k] + g * c / (1.0 + g)).max() <= 1e-12


def test_zero_terminal_gives_zero_solution(m1):
    import dataclasses
    from mfbslq.model import Coefficient
    spec = dataclasses.replace(
        m1, terminal=Coefficient("poly_in_WT", {"coeffs": [np.zeros(1)]}))
    tree, coeffs = _setup(spec, 4)
    sol = solve_oracle(tree, coeffs)
    assert sol.cost <= 1e-18
    for k in range(4):
        assert np.abs(sol.u[k]).max() <= 1e-12


# ---------------------------------------------------------------------------
# route agreement


def test_dense_and_sparse_routes_agree(corpus):
    # m1_random has node-dependent A and N, so its KKT pivots differ per node
    for spec in corpus.values():
        tree, coeffs = _setup(spec, 6)
        dense = solve_oracle(tree, coeffs, method="dense")
        sparse = solve_oracle(tree, coeffs, method="sparse")
        assert dense.method == "dense" and sparse.method == "sparse"
        assert control_error(tree, sparse.u, dense.u) <= 1e-8
        assert abs(dense.cost - sparse.cost) <= 1e-9 * (1 + abs(dense.cost))
        assert dense.certified and sparse.certified


def test_vector_state_and_control_routes_agree():
    spec = load_spec(json.dumps(vector_control_doc()))
    tree, compact = _setup(spec, 6)
    assert validate_h1_h2(compact, spec.delta).ok
    assert compact.A[5].shape == (32, 2, 2) and compact.N[5].shape == (32, 2, 2)
    # materialised, A_bar, B_bar and C_bar are full width too, so the KKT
    # tail update runs its node-varying branch on 2 x 2 blocks
    tiled = materialised(tree, compact)
    assert tiled.A_bar[5].shape == (32, 2, 2) and tiled.B_bar[5].shape == (32, 2, 2)
    dense = solve_oracle(tree, compact, method="dense")
    sparse = [solve_oracle(tree, coeffs) for coeffs in (compact, tiled)]
    for sol in sparse:
        assert control_error(tree, sol.u, dense.u) <= 1e-8
        assert sol.certified
    assert control_error(tree, sparse[1].u, sparse[0].u) <= 1e-12


def test_singular_control_weight_is_refused_as_a_kkt_pivot(m1_random):
    # N pivots the u rows of every KKT block; H2 keeps it >= delta I, but
    # solve_oracle takes the coefficients as given
    tree, coeffs = _setup(m1_random, 5)
    weights = [level.copy() for level in coeffs.N]
    assert weights[3].shape == (8, 1, 1)
    weights[3][5] = 0.0
    with pytest.raises(StepSizeError, match="KKT pivot .*level 3"):
        solve_oracle(tree, dataclasses.replace(coeffs, N=weights))


def test_sparse_default_and_dense_size_cap(s1):
    # the default route is sparse; the dense route and the dense Hessian
    # refuse a tree above the cap before solving anything
    tree, coeffs = _setup(s1, 4)
    assert solve_oracle(tree, coeffs).method == "sparse"
    deep, deep_coeffs = _setup(s1, 15)
    assert control_dimension(deep, deep_coeffs.m) > DENSE_SIZE_CAP
    with pytest.raises(SizeCapError):
        solve_oracle(deep, deep_coeffs, method="dense")
    with pytest.raises(SizeCapError):
        weighted_hessian_eigenvalues(deep, deep_coeffs)


def test_sparse_oracle_solves_the_state_twice(m1_random, monkeypatch):
    # one sweep at the returned control serves both the cost and the
    # certificate's gradient; the other sets the scale, at the zero control
    tree, coeffs = _setup(m1_random, 5)
    calls = count_calls(monkeypatch, oracle, "solve_meanfield_bsde")
    sol = solve_oracle(tree, coeffs)
    assert len(calls) == 2
    assert sol.cost == evaluate_cost(tree, coeffs, sol.u)


def test_singular_step_raises_typed_errors():
    # I - dt A is exactly zero on level 2: the KKT pivots there are singular
    # and the adjoint step cannot be inverted; both are refused by name.
    # A_bar = 1/dt on level 2 leaves the pivots regular but makes the
    # mean-closing matrix (and with it the KKT tail) singular.
    tree = build_tree(1.0, 4)
    zero = zero_controls(tree, 1)
    sol = MeanfieldBsdeSolution([np.zeros((tree.n_nodes(k), 1)) for k in range(5)],
                                zero, np.zeros((5, 1)), np.zeros((4, 1)),
                                np.zeros((4, 1)))
    for doc, oracle_error, step_error in (
            (singular_step_doc(), "KKT pivot .*level 2", "I - dt A .*level 2"),
            (singular_mean_doc(), "mean-closing .*level 2", "mean-closing .*level 2")):
        coeffs = realize(load_spec(json.dumps(doc)), tree)
        with pytest.raises(StepSizeError, match=oracle_error):
            solve_oracle(tree, coeffs)
        with pytest.raises(StepSizeError, match=step_error):
            cost_gradient(tree, coeffs, zero, sol)
        with pytest.raises(StepSizeError, match=step_error):
            evaluate_cost(tree, coeffs, zero)


def test_singular_kkt_tail_is_a_numerics_error(monkeypatch):
    # with the up-front mean-closing check bypassed, A_bar = 1/dt on level 2
    # reaches the tail solve, whose matrix is then exactly singular
    tree = build_tree(1.0, 4)
    coeffs = realize(load_spec(json.dumps(singular_mean_doc())), tree)
    monkeypatch.setattr(oracle, "implicit_steps", lambda *args: None)
    with pytest.raises(NumericsError, match="KKT tail .*singular"):
        solve_oracle(tree, coeffs)


def _closing_spec(closing: float):
    """The 4-level singular_mean_doc with A_bar = (1 - closing) / dt on
    level 2, so the mean-closing matrix there is ``closing``."""
    doc = singular_mean_doc()
    doc["dynamics"]["A_bar"]["values"][2] = 4.0 * (1.0 - closing)
    return load_spec(json.dumps(doc))


def test_near_singular_kkt_tail_is_a_numerics_error(monkeypatch):
    # a mean-closing matrix of 1e-8 (the up-front check, bypassed here,
    # refuses it) leaves the tail regular, LAPACK would solve it, but its
    # smallest singular value is about 1e-16 and its condition number about
    # 3e16, above 1 / machine epsilon
    tree = build_tree(1.0, 4)
    coeffs = realize(_closing_spec(1e-8), tree)
    monkeypatch.setattr(oracle, "implicit_steps", lambda *args: None)
    with pytest.raises(NumericsError, match="KKT tail .*singular.*condition number"):
        solve_oracle(tree, coeffs)


def test_ill_conditioned_kkt_tail_the_pipeline_accepts_is_solved():
    # The tail's smallest singular value goes like the square of the
    # mean-closing matrix's: a closing of 1.2e-6 passes its own check
    # (> 1e-6) and leaves the tail at about 1.9e-12, condition number about
    # 2e12.  The oracle still solves it, certified, to the dense route's
    # controls, and the pipeline's cost is not below the oracle's.
    spec, tree = _closing_spec(1.2e-6), build_tree(1.0, 4)
    coeffs = realize(spec, tree)
    sparse = solve_oracle(tree, coeffs)
    assert sparse.certified
    assert sparse.min_kkt_tail_sv < 1e-11
    dense = solve_oracle(tree, coeffs, method="dense")
    assert control_error(tree, sparse.u, dense.u) <= 1e-12
    result = run_pipeline(spec, 4, with_oracle=True)
    assert result.oracle.certified
    assert result.oracle_cost_gap >= CHECK_COST_GAP


# ---------------------------------------------------------------------------
# gradients


def test_gradient_certificate_on_corpus(corpus):
    for name, spec in corpus.items():
        tree, coeffs = _setup(spec, 6)
        sol = solve_oracle(tree, coeffs)
        grad = cost_gradient(tree, coeffs, sol.u)
        base = gradient_dual_norm(tree, cost_gradient(
            tree, coeffs, zero_controls(tree, coeffs.m)))
        assert gradient_dual_norm(tree, grad) <= 1e-9 * (1 + base), name


def test_analytic_matches_finite_difference(corpus):
    rng = np.random.default_rng(17)
    for spec in corpus.values():
        tree, coeffs = _setup(spec, 5)
        d = control_dimension(tree, coeffs.m)
        u = unstack_controls(rng.standard_normal(d), tree, coeffs.m)
        v = unstack_controls(rng.standard_normal(d), tree, coeffs.m)
        da = directional_derivative(tree, coeffs, u, v)
        df = directional_derivative_fd(tree, coeffs, u, v)
        assert abs(da - df) <= 1e-6 * (1 + abs(da))


def test_gradient_pairs_with_directions(m1):
    # cost_gradient is the raw Euclidean gradient: its plain dot product with
    # any direction equals the exact directional derivative, here the
    # unit-step central difference (J(u + v) - J(u - v)) / 2, exact for a
    # quadratic cost; rescaling by the level weights turns it into the
    # weighted-space representative whose weighted norm is gradient_dual_norm
    tree, coeffs = _setup(m1, 4)
    rng = np.random.default_rng(19)
    d = control_dimension(tree, coeffs.m)
    u = unstack_controls(rng.standard_normal(d), tree, coeffs.m)
    grad = cost_gradient(tree, coeffs, u)
    riesz = [g / (tree.dt * tree.node_probability(k))
             for k, g in enumerate(grad)]
    for _ in range(3):
        v = unstack_controls(rng.standard_normal(d), tree, coeffs.m)
        up = evaluate_cost(tree, coeffs, [a + b for a, b in zip(u, v)])
        dn = evaluate_cost(tree, coeffs, [a - b for a, b in zip(u, v)])
        rhs = (up - dn) / 2
        plain = sum(float(np.sum(g * vk)) for g, vk in zip(grad, v))
        assert abs(plain - rhs) <= 1e-10 * (1 + abs(rhs))
        assert abs(weighted_inner(tree, riesz, v) - rhs) <= 1e-10 * (1 + abs(rhs))
    assert abs(weighted_norm(tree, riesz)
               - gradient_dual_norm(tree, grad)) <= 1e-12 * (
        1 + gradient_dual_norm(tree, grad))


# ---------------------------------------------------------------------------
# convexity geometry


def test_hessian_normalization_without_state_feedback():
    # B = 0 decouples the state from the control entirely; with N = 1 the
    # weighted Hessian spectrum is exactly {2}
    spec = scalar_spec(B=0.0, Q=1.0, terminal=WALK_TERMINAL)
    tree, coeffs = _setup(spec, 4)
    eigs = weighted_hessian_eigenvalues(tree, coeffs)
    assert np.abs(eigs - 2.0).max() <= 1e-11


def test_cost_is_strictly_convex_along_segments(m1):
    tree, coeffs = _setup(m1, 4)
    rng = np.random.default_rng(23)
    d = control_dimension(tree, coeffs.m)
    ua = unstack_controls(rng.standard_normal(d), tree, coeffs.m)
    ub = unstack_controls(rng.standard_normal(d), tree, coeffs.m)
    mid = [0.5 * (a + b) for a, b in zip(ua, ub)]
    diff = [a - b for a, b in zip(ua, ub)]
    gap = (0.5 * evaluate_cost(tree, coeffs, ua)
           + 0.5 * evaluate_cost(tree, coeffs, ub)
           - evaluate_cost(tree, coeffs, mid))
    assert gap >= 0.25 * 0.5 * weighted_inner(tree, diff, diff)


def test_weighted_norm_consistency(s1):
    tree, coeffs = _setup(s1, 3)
    u = [np.ones((tree.n_nodes(k), 1)) for k in range(3)]
    # || 1 ||_w^2 = sum_k dt * sum_j p_k = T
    assert abs(weighted_norm(tree, u) - 1.0) <= 1e-14
    assert control_error(tree, u, u) == 0.0
    zero = zero_controls(tree, 1)
    assert control_error(tree, zero, zero) == 0.0
