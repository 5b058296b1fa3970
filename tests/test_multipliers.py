"""Multiplier-driven decoupled solves, probing, and the outer linear system.

Frozen values below were derived by hand before the tests were written, for
the two-step scalar problem (B = N = R = 1, everything else zero, terminal
value W(T), dt = 1/2, h = sqrt(1/2)):

* sigma_k = (2 - k) dt; centered conditioners (1 + 3/4)^{-1} = 4/7 at
  level 0 and (1 + 1/4)^{-1} = 4/5 at level 1
* phi_k = -W(t_k); integrand of phi identically -1
* adjoint x: 0 at the root; -(4/7) h, +(4/7) h at level 1;
  -(48/35) h, (8/35) h, -(8/35) h, (48/35) h at level 2
* controls u = x; martingale fields z = [4/7] and [4/5, 4/5]
* y: 0 at the root; (5/7) h, -(5/7) h; terminal W(T) exactly

and for four-step source cases on the same base problem: a constant control
multiplier of one gives phi_k = T - t_k and u = -1 everywhere; a constant
state multiplier q gives x_k = -q t_k.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from mfbslq import (InfeasibleEtaError, NumericsError, build_tree, load_spec,
                    realize, solve_riccati)
from mfbslq import multipliers
from mfbslq.multipliers import (build_workspace, constrained_solution_at,
                                decoupling_residual, eta_dimension,
                                mean_cost_weights, pack_blocks,
                                picard_cross_check, probe_operators,
                                riccati_control, solve_constrained_problem,
                                solve_decoupled, solve_outer_system,
                                split_blocks)
from mfbslq.outer import run_pipeline
from conftest import (barred_zero_spec, corpus_path, materialised, probed_solve,
                      scalar_spec)

WALK_TERMINAL = {"form": "affine_in_WT", "g0": 0.0, "g1": 1.0}


def _setup(spec, nt):
    tree = build_tree(spec.horizon, nt)
    coeffs = realize(spec, tree)
    return tree, coeffs, solve_riccati(tree, coeffs)


# ---------------------------------------------------------------------------
# frozen two-step fields


def test_two_step_zero_multiplier_fields():
    tree, coeffs, ric = _setup(scalar_spec(terminal=WALK_TERMINAL), 2)
    h = math.sqrt(0.5)
    d = eta_dimension(tree, coeffs)
    sol = solve_decoupled(tree, coeffs, ric, np.zeros(d), np.zeros(d))

    assert np.allclose(sol.phi[0], 0.0, atol=1e-14)
    assert np.allclose(sol.phi[1][:, 0], [-h, h], atol=1e-14)
    assert np.allclose(sol.phi[2][:, 0], [-2 * h, 0.0, 0.0, 2 * h], atol=1e-14)
    for k in range(2):
        assert np.allclose(sol.vtheta[k], -1.0, atol=1e-14)

    assert np.allclose(sol.x[0], 0.0, atol=1e-14)
    assert np.allclose(sol.x[1][:, 0], [-4 * h / 7, 4 * h / 7], atol=1e-14)
    assert np.allclose(sol.x[2][:, 0],
                       [-48 * h / 35, 8 * h / 35, -8 * h / 35, 48 * h / 35],
                       atol=1e-14)

    assert np.allclose(sol.u[0], 0.0, atol=1e-14)
    assert np.allclose(sol.u[1][:, 0], [-4 * h / 7, 4 * h / 7], atol=1e-14)
    assert np.allclose(sol.z[0][:, 0], [4.0 / 7.0], atol=1e-14)
    assert np.allclose(sol.z[1][:, 0], [0.8, 0.8], atol=1e-14)

    assert np.allclose(sol.y[0], 0.0, atol=1e-14)
    assert np.allclose(sol.y[1][:, 0], [5 * h / 7, -5 * h / 7], atol=1e-14)
    assert np.allclose(sol.y[2][:, 0], coeffs.xi[:, 0], atol=1e-14)

    alpha, beta, gamma = split_blocks(sol.means, tree, coeffs)
    assert np.allclose(alpha, 0.0, atol=1e-14)
    assert np.allclose(beta[:, 0], [4.0 / 7.0, 0.8], atol=1e-14)
    assert np.allclose(gamma, 0.0, atol=1e-14)
    assert np.allclose(sol.coupling, 0.0, atol=1e-14)


def test_constant_control_multiplier_source():
    # lam3 = 1 shifts the control by -1 and charges phi at unit rate
    tree, coeffs, ric = _setup(scalar_spec(), 4)
    zeros = np.zeros((4, 1))
    lam = pack_blocks(zeros, zeros, np.ones((4, 1)))
    sol = solve_decoupled(tree, coeffs, ric, lam, np.zeros(lam.size))
    for k in range(5):
        assert np.allclose(sol.phi[k], 1.0 - tree.times[k], atol=1e-13)
        assert np.allclose(sol.x[k], 0.0, atol=1e-13)
    for k in range(4):
        assert np.allclose(sol.vtheta[k], 0.0, atol=1e-13)
        assert np.allclose(sol.u[k], -1.0, atol=1e-13)
        assert np.allclose(sol.z[k], 0.0, atol=1e-13)


def test_constant_state_multiplier_source():
    q = 0.7
    tree, coeffs, ric = _setup(scalar_spec(), 4)
    zeros = np.zeros((4, 1))
    lam = pack_blocks(np.full((4, 1), q), zeros, zeros)
    sol = solve_decoupled(tree, coeffs, ric, lam, np.zeros(lam.size))
    for k in range(5):
        assert np.allclose(sol.x[k], -q * tree.times[k], atol=1e-13)
    for k in range(4):
        assert np.allclose(sol.u[k], -q * tree.times[k], atol=1e-13)
        assert np.allclose(sol.z[k], 0.0, atol=1e-13)


def test_zero_multipliers_reproduce_plain_feedback():
    # with no mean coupling, the zero-multiplier decoupled control is the
    # plain Riccati feedback
    tree, coeffs, ric = _setup(scalar_spec(terminal=WALK_TERMINAL), 4)
    d = eta_dimension(tree, coeffs)
    sol = solve_decoupled(tree, coeffs, ric, np.zeros(d), np.zeros(d))
    feedback = riccati_control(tree, coeffs, ric)
    for k in range(4):
        assert np.allclose(sol.u[k], feedback[k], atol=1e-13)


# ---------------------------------------------------------------------------
# probing and linearity


def test_probed_operators_reproduce_solves(m1):
    tree, coeffs, ric = _setup(m1, 3)
    ops = probe_operators(tree, coeffs, ric)
    d = eta_dimension(tree, coeffs)
    rng = np.random.default_rng(11)
    for _ in range(3):
        lam = rng.standard_normal(d)
        eta = rng.standard_normal(d)
        sol = solve_decoupled(tree, coeffs, ric, lam, eta)
        want_means = ops.p_xi + ops.P_eta @ eta + ops.L @ lam
        want_coupling = ops.q_xi + ops.Q_eta @ eta + ops.M @ lam
        assert np.abs(sol.means - want_means).max() <= 1e-10
        assert np.abs(sol.coupling - want_coupling).max() <= 1e-10


def test_workspace_cache_reused(m1):
    tree, coeffs, ric = _setup(m1, 3)
    ws1 = build_workspace(tree, coeffs, ric)
    ws2 = build_workspace(tree, coeffs, ric)
    assert ws1 is ws2


def test_mean_cost_weights_blocks(m1):
    tree, coeffs, ric = _setup(m1, 2)
    weights = mean_cost_weights(tree, coeffs)
    # state, martingale, control mean weights are the constants 1, 1/2, 1
    assert np.allclose(weights, np.diag([1.0, 1.0, 0.5, 0.5, 1.0, 1.0]))


# ---------------------------------------------------------------------------
# the outer linear system


def test_outer_system_solves_first_order_conditions(m1):
    tree, coeffs, ric = _setup(m1, 4)
    ops = probe_operators(tree, coeffs, ric)
    eta, lam = solve_outer_system(tree, coeffs, ric)[:2]

    weights = mean_cost_weights(tree, coeffs)
    eye = np.eye(eta.size)
    block1 = (eye - ops.P_eta) @ eta - ops.L @ lam - ops.p_xi
    block2 = (weights - ops.Q_eta) @ eta - (eye + ops.M) @ lam - ops.q_xi
    assert np.abs(block1).max() <= 1e-9
    assert np.abs(block2).max() <= 1e-9

    # the solution is a fixed point: feasible means and multipliers equal to
    # mean-cost gradient minus mean-coupling feedback
    sol = solve_decoupled(tree, coeffs, ric, lam, eta)
    assert np.abs(sol.means - eta).max() <= 1e-8
    assert np.abs(weights @ eta - sol.coupling - lam).max() <= 1e-8


def test_outer_system_collapses_without_coupling():
    spec = barred_zero_spec("m1")
    tree, coeffs, ric = _setup(spec, 4)
    eta, lam = solve_outer_system(tree, coeffs, ric)[:2]
    assert np.abs(lam).max() <= 1e-12
    ops = probe_operators(tree, coeffs, ric)
    assert np.allclose(eta, ops.p_xi, atol=1e-12)

    final = constrained_solution_at(tree, coeffs, ric, lam, eta)
    feedback = riccati_control(tree, coeffs, ric)
    for k in range(4):
        assert np.abs(final.u[k] - feedback[k]).max() <= 1e-10


def test_singular_outer_system_is_a_numerics_error(m1_random, monkeypatch):
    # every linear response reads means = eta and couplings = 0 (P_eta = I,
    # L = 0): the feasibility rows of the node-mean system, the
    # preconditioner, are zero, and its build refuses it
    tree, coeffs, ric = _setup(m1_random, 3)
    monkeypatch.setattr(multipliers, "linear_response",
                        lambda tree, coeffs, ric, lam, eta: (eta, 0.0 * eta))
    monkeypatch.setattr(multipliers, "_gmres", _refuse("GMRES must not start"))
    with pytest.raises(NumericsError, match="node-mean problem is singular"):
        solve_outer_system(tree, coeffs, ric)


def _refuse(what):
    def refuse(*args, **kwargs):
        raise AssertionError(what)
    return refuse


def test_krylov_route_matches_probed_solve(corpus):
    # compact and materialised coefficients: the preconditioned GMRES solve
    # agrees with the dense solve of the probed system on every spec
    for name, spec in corpus.items():
        tree = build_tree(spec.horizon, 5)
        compact = realize(spec, tree)
        for coeffs in (compact, materialised(tree, compact)):
            ric = solve_riccati(tree, coeffs)
            got = solve_outer_system(tree, coeffs, ric)
            eta, lam = probed_solve(tree, coeffs, ric)
            assert 2 <= got.columns <= 9, name
            assert np.abs(got.eta - eta).max() <= 1e-10, name
            assert np.abs(got.lam - lam).max() <= 1e-10, name
            assert got.relative_residual <= 1e-12, name


def test_route_rule(d2, m1_random):
    # the linear part follows the level-mean recursion exactly when every
    # array it reads has one node per level: node-constant d2 does at every
    # depth, its tiled copy and m1_random do not
    for nt in (8, 13):
        tree = build_tree(d2.horizon, nt)
        compact = realize(d2, tree)
        tiled = materialised(tree, compact)
        for coeffs, varying in ((compact, False), (tiled, True),
                                (realize(m1_random, tree), True)):
            ric = solve_riccati(tree, coeffs)
            assert build_workspace(tree, coeffs, ric).one_node == (not varying)


@pytest.mark.parametrize("name", ["s1", "m1", "d2"])
@pytest.mark.parametrize("nt", [5, 13])
def test_mean_path_matches_full_sweeps(corpus, monkeypatch, name, nt):
    # node-constant data: the level-mean recursion gives the means and
    # couplings of full zero-terminal sweeps, without running one
    tree, coeffs, ric = _setup(corpus[name], nt)
    d = eta_dimension(tree, coeffs)
    rng = np.random.default_rng(nt)
    lam, eta = rng.standard_normal((2, d, 3))
    zero = dataclasses.replace(coeffs, xi=np.zeros_like(coeffs.xi))
    full = solve_decoupled(tree, zero, ric, lam, eta)
    assert len(full.x[-1]) == tree.n_nodes(nt)

    monkeypatch.setattr(multipliers, "forward_levels",
                        _refuse("the mean path must not sweep the tree"))
    means, coupling = multipliers.linear_response(tree, coeffs, ric, lam, eta)
    for got, want in ((means, full.means), (coupling, full.coupling)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_full_width_response_matches_full_sweeps(m1_random):
    # node-varying data: the linear part, reduced level by level, gives the
    # means and couplings of full zero-terminal sweeps, in column blocks
    tree, coeffs, ric = _setup(m1_random, 5)
    d = eta_dimension(tree, coeffs)
    lam, eta = np.random.default_rng(4).standard_normal((2, d, 20))
    zero = dataclasses.replace(coeffs, xi=np.zeros_like(coeffs.xi))
    full = solve_decoupled(tree, zero, ric, lam, eta)
    means, coupling = multipliers.linear_response(tree, coeffs, ric, lam, eta)
    for got, want in ((means, full.means), (coupling, full.coupling)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def harsh_random_spec():
    """m1_random with strongly walk-dependent A, C and N."""
    doc = json.loads(corpus_path("m1_random").read_text())
    doc["dynamics"]["A"] = {"form": "affine_tanh_W", "m0": 0.1, "m1": 1.0}
    doc["dynamics"]["C"] = {"form": "affine_tanh_W", "m0": 0.2, "m1": 0.5}
    doc["cost"]["N"] = {"form": "tanh_poly_W", "coeffs": [1.0, 0.5, 1.0]}
    return load_spec(json.dumps(doc))


@pytest.mark.parametrize("nt", [4, 8, 12, 16])
def test_preconditioned_gmres_products_do_not_grow_with_depth(m1_random, nt):
    # the node-mean preconditioner leaves a few products at every depth on
    # node-varying data (the unpreconditioned solve took 31 to 33)
    for name, spec in (("m1_random", m1_random), ("harsh", harsh_random_spec())):
        tree, coeffs, ric = _setup(spec, nt)
        sol = solve_outer_system(tree, coeffs, ric)
        assert sol.columns - 1 <= 8, name
        assert sol.relative_residual <= 1e-12, name


def test_deep_random_residuals_meet_the_krylov_tolerance(m1_random):
    # the preconditioned solve overshoots its 1e-12 relative stopping test,
    # so the absolute residuals of the returned answer stay below 1e-12
    report = run_pipeline(m1_random, 16).report()
    assert max(report["constraint_residuals"].values()) <= 1e-12
    assert report["multiplier_residual"] <= 1e-12


def test_krylov_product_cap_is_a_numerics_error(m1_random, monkeypatch):
    tree, coeffs, ric = _setup(m1_random, 4)
    real = multipliers._gmres
    monkeypatch.setattr(multipliers, "_gmres",
                        lambda product, rhs, cap: real(product, rhs, 1))
    with pytest.raises(NumericsError, match=r"after 1 products.*tolerance"):
        solve_outer_system(tree, coeffs, ric)


def test_gmres_solves_small_nonsymmetric_systems():
    rng = np.random.default_rng(3)
    mat = np.eye(6) + 0.3 * rng.standard_normal((6, 6))
    rhs = rng.standard_normal(6)
    sol, products, residual = multipliers._gmres(lambda v: mat @ v, rhs, 12)
    assert np.abs(sol - np.linalg.solve(mat, rhs)).max() <= 1e-12
    assert products <= 6 and residual <= 1e-12
    # a zero right-hand side needs no product
    sol, products, residual = multipliers._gmres(lambda v: mat @ v, np.zeros(6), 12)
    assert products == 0 and residual == 0.0 and not sol.any()
    # a direction the operator annihilates: refused as singular
    singular = np.diag([0.0, 1.0])
    with pytest.raises(NumericsError, match="singular"):
        multipliers._gmres(lambda v: singular @ v, np.array([1.0, 0.0]), 4)


# ---------------------------------------------------------------------------
# certification


def test_constrained_solution_meets_certificate(m1, d2):
    # B = 0 with mean coupling: the multipliers steer only the control
    # means, so at depth 3 L has rank 3 of 9 and lam comes from the
    # rank-truncated least-squares path
    no_control = scalar_spec(B=0.0, A=0.2, A_bar=0.5, B_bar=0.3, C=0.2,
                             C_bar=0.4, Q=1.0, Q_bar=0.5, R_bar=0.5, N_bar=0.5,
                             terminal=WALK_TERMINAL)
    for spec, nt, rank in ((m1, 4, 12), (d2, 4, 20), (no_control, 3, 3)):
        tree, coeffs, ric = _setup(spec, nt)
        ops = probe_operators(tree, coeffs, ric)
        assert np.linalg.matrix_rank(ops.L) == rank
        rng = np.random.default_rng(5)
        d = eta_dimension(tree, coeffs)
        eye = np.eye(d)
        for _ in range(2):
            # a feasible target: the self-consistent means produced by a
            # random multiplier, eta = (I - P_eta)^{-1} (p_xi + L lam)
            lam = rng.standard_normal(d)
            eta = np.linalg.solve(eye - ops.P_eta, ops.p_xi + ops.L @ lam)
            sol = solve_constrained_problem(tree, coeffs, ric, eta)
            assert np.abs(sol.constraint_residual).max() <= 1e-8


def test_inconsistent_multiplier_pair_rejected():
    spec = barred_zero_spec("m1")
    tree, coeffs, ric = _setup(spec, 3)
    ops = probe_operators(tree, coeffs, ric)
    bad_eta = ops.p_xi + 1.0  # not the means the zero multiplier produces
    with pytest.raises(InfeasibleEtaError):
        constrained_solution_at(tree, coeffs, ric, np.zeros(bad_eta.size),
                                bad_eta)


# ---------------------------------------------------------------------------
# consistency diagnostics


def test_decoupling_residual_decays(m1):
    values = []
    for nt in (4, 8):
        tree, coeffs, ric = _setup(m1, nt)
        eta, lam = solve_outer_system(tree, coeffs, ric)[:2]
        sol = constrained_solution_at(tree, coeffs, ric, lam, eta)
        res = decoupling_residual(tree, coeffs, ric, sol)
        assert res["combined"] > 0.0
        assert res["combined"] >= max(res["y_recursion"], res["z_defect"]) / 2
        values.append(res["combined"])
    assert values[1] < values[0]


def test_picard_alternation_agrees_on_short_horizon(m1):
    spec = dataclasses.replace(m1, horizon=0.25)
    tree, coeffs, ric = _setup(spec, 4)
    eta, lam = solve_outer_system(tree, coeffs, ric)[:2]
    sol = constrained_solution_at(tree, coeffs, ric, lam, eta)
    report = picard_cross_check(tree, coeffs, ric, sol)
    assert report["converged"]
    assert report["y_diff"] <= 10 * tree.dt
    assert report["x_diff"] <= 10 * tree.dt


# ---------------------------------------------------------------------------
# layout helpers


def test_block_layout_roundtrip(d2):
    tree, coeffs, _ = _setup(d2, 3)
    assert eta_dimension(tree, coeffs) == 3 * (2 * 2 + 1)
    rng = np.random.default_rng(6)
    a = rng.standard_normal((3, 2))
    b = rng.standard_normal((3, 2))
    g = rng.standard_normal((3, 1))
    vec = pack_blocks(a, b, g)
    a2, b2, g2 = split_blocks(vec, tree, coeffs)
    assert np.allclose(a, a2) and np.allclose(b, b2) and np.allclose(g, g2)
