"""Forward SDE stepping and the controlled mean-field backward equation."""

import json

import numpy as np
import pytest

from mfbslq import (StepSizeError, build_tree, load_spec, realize, solve_forward_sde,
                   solve_meanfield_bsde, solve_riccati)
from mfbslq.bsde import checked_inverse
from mfbslq.multipliers import build_workspace
from conftest import scalar_spec, singular_mean_doc, singular_step_doc


def _zero_controls(tree, m):
    return [np.zeros((tree.n_nodes(k), m)) for k in range(tree.n_steps)]


# ---------------------------------------------------------------------------
# forward stepping


def test_forward_unit_diffusion_gives_negated_walk():
    # integrating dX = -1 dW from 0 must reproduce -W at every node, and
    # dX = 1 dW the walk itself
    tree = build_tree(1.0, 4)
    for sign in (-1.0, 1.0):
        levels = solve_forward_sde(
            tree, np.zeros(1),
            drift=lambda k, x: np.zeros_like(x),
            diffusion=lambda k, x: np.full_like(x, sign),
        )
        for k in range(5):
            assert np.allclose(levels[k][:, 0], sign * tree.brownian(k))


def test_forward_constant_drift():
    tree = build_tree(2.0, 4)
    levels = solve_forward_sde(
        tree, np.array([1.0]),
        drift=lambda k, x: np.full_like(x, 3.0),
        diffusion=lambda k, x: np.zeros_like(x),
    )
    for k in range(5):
        assert np.allclose(levels[k], 1.0 + 3.0 * tree.times[k])


def test_forward_linear_drift_matches_exponential_euler():
    # dX = -a X ds integrates to the explicit Euler product (1 - a dt)^k
    tree = build_tree(1.0, 8)
    a = 0.7
    levels = solve_forward_sde(
        tree, np.array([1.0]),
        drift=lambda k, x: -a * x,
        diffusion=lambda k, x: np.zeros_like(x),
    )
    for k in range(9):
        assert np.allclose(levels[k], (1.0 - a * tree.dt) ** k)


# ---------------------------------------------------------------------------
# backward equation


def test_zero_data_zero_solution():
    spec = scalar_spec()
    tree = build_tree(1.0, 4)
    coeffs = realize(spec, tree)
    sol = solve_meanfield_bsde(tree, coeffs, _zero_controls(tree, 1))
    for k in range(5):
        assert np.allclose(sol.y[k], 0.0)
    assert np.allclose(sol.y_mean, 0.0)
    assert np.allclose(sol.z_mean, 0.0)


def test_plain_martingale_terminal_walk():
    # no coefficients at all: Y is the martingale closing W(T), so Y_k = W_k
    # and the representation integrand is identically one
    spec = scalar_spec(terminal={"form": "affine_in_WT", "g0": 0.0, "g1": 1.0})
    tree = build_tree(1.0, 5)
    coeffs = realize(spec, tree)
    sol = solve_meanfield_bsde(tree, coeffs, _zero_controls(tree, 1))
    for k in range(6):
        assert np.allclose(sol.y[k][:, 0], tree.brownian(k))
    for k in range(5):
        assert np.allclose(sol.z[k], 1.0)
    assert np.allclose(sol.y_mean, 0.0)


def test_control_source_accumulates():
    # A = C = 0: Y_k = E_k[Y_{k+1}] + dt * u, so constant u integrates linearly
    spec = scalar_spec()
    tree = build_tree(1.0, 4)
    coeffs = realize(spec, tree)
    controls = [np.ones((tree.n_nodes(k), 1)) for k in range(4)]
    sol = solve_meanfield_bsde(tree, coeffs, controls)
    for k in range(5):
        assert np.allclose(sol.y[k], 1.0 - tree.times[k])


def test_reported_means_are_exact(m1):
    tree = build_tree(1.0, 6)
    coeffs = realize(m1, tree)
    rng = np.random.default_rng(3)
    controls = [rng.standard_normal((tree.n_nodes(k), 1)) for k in range(6)]
    sol = solve_meanfield_bsde(tree, coeffs, controls)
    for k in range(7):
        assert np.allclose(sol.y_mean[k], tree.expect(sol.y[k]), atol=1e-13)
    for k in range(6):
        assert np.allclose(sol.z_mean[k], tree.expect(sol.z[k]), atol=1e-13)
        assert np.allclose(sol.u_mean[k], tree.expect(controls[k]), atol=1e-13)


def test_scheme_recursion_holds_nodewise(m1, d2):
    # the solution must satisfy its own implicit one-step recursion exactly,
    # with the self-consistent level means on the right-hand side
    for spec in (m1, d2):
        tree = build_tree(1.0, 5)
        coeffs = realize(spec, tree)
        rng = np.random.default_rng(4)
        controls = [rng.standard_normal((tree.n_nodes(k), coeffs.m))
                    for k in range(5)]
        sol = solve_meanfield_bsde(tree, coeffs, controls)
        eye = np.eye(coeffs.n)
        for k in range(5):
            zk = tree.z_from_next(sol.y[k + 1])
            assert np.allclose(sol.z[k], zk)
            lhs = np.einsum("jab,jb->ja", eye[None] - tree.dt * coeffs.A[k],
                            sol.y[k])
            rhs = tree.cond_expect(sol.y[k + 1]) + tree.dt * (
                np.einsum("jab,jb->ja", coeffs.B[k], controls[k])
                + np.einsum("jab,jb->ja", coeffs.C[k], zk)
                + coeffs.A_bar[k] @ sol.y_mean[k]
                + coeffs.B_bar[k] @ sol.u_mean[k]
                + coeffs.C_bar[k] @ sol.z_mean[k]
            )
            assert np.allclose(lhs, rhs, atol=1e-12)


def test_mean_coupling_changes_solution(m1):
    # the mean terms must actually feed back: solving with the couplings
    # zeroed must give a different Y
    tree = build_tree(1.0, 4)
    coeffs = realize(m1, tree)
    controls = _zero_controls(tree, 1)
    sol = solve_meanfield_bsde(tree, coeffs, controls)

    from conftest import barred_zero_spec
    plain = realize(barred_zero_spec("m1"), tree)
    sol0 = solve_meanfield_bsde(tree, plain, controls)
    assert not np.allclose(sol.y[0], sol0.y[0])


def test_terminal_override():
    spec = scalar_spec(terminal={"form": "affine_in_WT", "g0": 5.0, "g1": 0.0})
    tree = build_tree(1.0, 3)
    coeffs = realize(spec, tree)
    custom = np.full((8, 1), 2.0)
    sol = solve_meanfield_bsde(tree, coeffs, _zero_controls(tree, 1),
                               terminal=custom)
    assert np.allclose(sol.y[0], 2.0)


# ---------------------------------------------------------------------------
# singular one-step matrices


def test_singular_implicit_step_raises_step_size_error():
    # A = I/dt on level 2 makes both I - dt A (backward step) and
    # I + dt (Sigma Q - A) (multiplier step, Q = 0) exactly zero there
    tree = build_tree(1.0, 4)
    coeffs = realize(load_spec(json.dumps(singular_step_doc())), tree)
    assert np.all(tree.dt * coeffs.A[2] == 1.0)
    with pytest.raises(StepSizeError, match=r"I - dt A .*level 2.*0\.000e\+00"):
        solve_meanfield_bsde(tree, coeffs, _zero_controls(tree, 1))
    with pytest.raises(StepSizeError, match=r"Sigma Q - A.*level 2"):
        ric = solve_riccati(tree, coeffs)
        build_workspace(tree, coeffs, ric.sigma, ric.phi)
    # A_bar = I/dt on level 2 makes the mean-closing matrix exactly zero there
    coeffs = realize(load_spec(json.dumps(singular_mean_doc())), tree)
    with pytest.raises(StepSizeError, match=r"mean-closing .*level 2.*0\.000e\+00"):
        solve_meanfield_bsde(tree, coeffs, _zero_controls(tree, 1))


@pytest.mark.parametrize("mats", [np.zeros((2, 1, 1)), np.full((3, 2, 2), np.nan),
                                  np.full((1, 1, 1), np.inf),
                                  # 1 x 1 stacks, inverted by division
                                  np.array([[[2.0]], [[0.0]], [[-3.0]]]),
                                  np.array([[[1.0]], [[-1e-7]]]),
                                  np.full((1, 1, 1), 1e-7),
                                  np.array([[[np.nan]], [[1.0]]]),
                                  np.full((4, 1, 1), -np.inf),
                                  # singular 2 x 2 stacks, as the KKT pivots of
                                  # a vector state can be
                                  np.array([[[1.0, 0.0], [0.0, 0.0]]]),
                                  np.array([[[1.0, 1.0], [1.0, 1.0]]]),
                                  # 3 x 3: eigvalsh does not converge on NaN
                                  np.full((2, 3, 3), np.nan)])
def test_checked_inverse_refuses_singular_or_non_finite(mats):
    with pytest.raises(StepSizeError, match="I \\+ S R .*level 3"):
        checked_inverse(mats, "I + S R", 3)


def test_scalar_checked_inverse_matches_the_eigenvalue_route():
    # 1 x 1 stacks: 1/x and |x| are the LAPACK inverse and the singular
    # value sqrt(min eig(M'M)) of the general route
    rng = np.random.default_rng(3)
    for nodes in (1, 2, 1024):
        mats = rng.standard_normal((nodes, 1, 1)) * rng.uniform(1e-3, 1e3, (nodes, 1, 1))
        inv, min_sv = checked_inverse(mats, "M", 0)
        route = float(np.sqrt(max(float(np.linalg.eigvalsh(
            np.swapaxes(mats, 1, 2) @ mats)[:, 0].min()), 0.0)))
        assert np.array_equal(inv, np.linalg.inv(mats))
        assert abs(min_sv - route) <= 1e-15 * route


def test_checked_inverse_reports_smallest_singular_value():
    mats = np.array([[[2.0, 0.0], [0.0, 0.5]], [[3.0, 0.0], [0.0, 4.0]]])
    inv, min_sv = checked_inverse(mats, "M", 0)
    assert np.allclose(inv @ mats, np.eye(2))
    assert min_sv == pytest.approx(0.5, rel=1e-12)
