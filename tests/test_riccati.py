"""Backward stochastic Riccati recursion.

Reference values: a hand-solvable linear-growth case, a closed-form scalar
flow (Riccati ODE with constant coefficients, solved by the tanh formula),
an inline Runge-Kutta integrator for the matrix-valued deterministic flow.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from mfbslq import (RiccatiError, StepSizeError, build_tree, load_spec, realize,
                    riccati, solve_riccati)
from mfbslq.bsde import control_weight_inverses
from conftest import corpus_path, scalar_spec, scalar_spec_doc, vector_control_doc


def test_linear_growth_exact():
    # Q = 0, A = C = 0, B = N = 1: each backward step adds exactly dt
    spec = scalar_spec(B=1.0, N=1.0, R=1.0)
    for nt in (7, 16):
        tree = build_tree(1.0, nt)
        ric = solve_riccati(tree, realize(spec, tree))
        for k in range(nt + 1):
            expected = (nt - k) * tree.dt
            assert np.abs(ric.sigma[k] - expected).max() <= 1e-12
        assert ric.symmetry_defect <= 1e-12
        for k in range(nt):
            assert np.abs(ric.phi[k]).max() <= 1e-12


def _rk4(rhs, y0, steps, total):
    h = total / steps
    y = y0
    for _ in range(steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def test_scalar_flow_against_closed_form():
    # A = 1, Q = 1, B = N = 1, C = 0: backward-time flow s' = 2s - s^2 + 1,
    # s(0) = 0, with closed form s = 1 + sqrt(2) tanh(sqrt(2) t + atanh(-1/sqrt(2)))
    rhs = lambda s: 2 * s - s * s + 1.0
    ref = _rk4(rhs, 0.0, 4096, 1.0)
    closed = 1.0 + math.sqrt(2) * math.tanh(math.sqrt(2) + math.atanh(-1 / math.sqrt(2)))
    assert abs(ref - closed) < 1e-12

    spec = scalar_spec(A=1.0, Q=1.0, B=1.0, N=1.0, R=1.0)
    tree = build_tree(1.0, 16)
    ric = solve_riccati(tree, realize(spec, tree))
    assert abs(float(ric.sigma[0][0, 0, 0]) - ref) <= 2 * tree.dt


def test_matrix_flow_against_rk4(d2):
    # deterministic coefficients: the recursion is an implicit Euler
    # discretization of the matrix flow below; initial value must land
    # within 2 dt of a fine Runge-Kutta reference
    tree = build_tree(1.0, 16)
    coeffs = realize(d2, tree)
    A = coeffs.A[0][0]
    Q = coeffs.Q[0][0]
    C = coeffs.C[0][0]
    R = coeffs.R[0][0]
    BNB = coeffs.B[0][0] @ np.linalg.solve(coeffs.N[0][0], coeffs.B[0][0].T)
    eye = np.eye(2)

    def rhs(s):
        cond = np.linalg.solve(eye + s @ R, s)
        return A @ s + s @ A.T - s @ Q @ s + BNB + C @ cond @ C.T

    ref = _rk4(rhs, np.zeros((2, 2)), 2048, 1.0)
    got = ric0 = solve_riccati(tree, coeffs).sigma[0][0]
    assert np.abs(got - ref).max() <= 2 * tree.dt
    assert np.allclose(ric0, ric0.T, atol=1e-12)


def test_solution_structure_and_guards(m1, m1_random):
    # deterministic coefficients keep the pair at one node per level; random
    # A and N widen every level below the root (the terminal level is zero).
    # They are functions of W(t_k), so Newton runs on k + 1 lattice nodes of
    # level k, 1 + 2 + ... + 6 = 21 in all, and the pair is returned there
    tree = build_tree(1.0, 6)
    for spec, random_coeffs in ((m1, False), (m1_random, True)):
        ric = solve_riccati(tree, realize(spec, tree))
        for k in range(7):
            nodes = k + 1 if random_coeffs and k < 6 else 1
            assert ric.sigma[k].shape == (nodes, 1, 1)
        assert ric.newton_nodes == (21 if random_coeffs else 6)
        assert ric.symmetry_defect <= 1e-10
        assert ric.min_sigma_eig >= -1e-12
        assert ric.min_conditioner_sv > 0.5
        assert ric.newton_iterations <= 20
        phi_max = max(np.abs(p).max() for p in ric.phi)
        if random_coeffs:
            # node-dependent coefficients make the pair genuinely stochastic
            assert phi_max > 1e-6
        else:
            assert phi_max <= 1e-12


def test_martingale_consistency(m1_random):
    # the recursion must reproduce sigma_k from its children:
    # sigma_k + dt * drift(sigma_k, phi_k) = E_k[sigma_{k+1}], and phi is the
    # representation integrand of sigma_{k+1}, on the tree's nodes
    tree = build_tree(1.0, 5)
    coeffs = realize(m1_random, tree)
    ric = solve_riccati(tree, coeffs)
    for k in range(5):
        assert np.allclose(tree.gather(ric.phi[k], k),
                           tree.z_from_next(tree.gather(ric.sigma[k + 1], k + 1)),
                           atol=1e-12)


def test_newton_tolerance_enforced(m1, monkeypatch):
    tree = build_tree(1.0, 3)
    coeffs = realize(m1, tree)
    monkeypatch.setattr(riccati, "_MAX_NEWTON", 0)
    with pytest.raises(RiccatiError):
        solve_riccati(tree, coeffs)


def test_stalled_line_search_names_the_missing_root():
    # a depth-3 node_table drift on m1_random's document, off the lattice:
    # on level 1, node 1, no step from E_1[Sigma_2] lowers the residual, so
    # the refusal names the level, the node and the root it did not find
    doc = json.loads(corpus_path("m1_random").read_text())
    doc["dynamics"]["A"] = {"form": "node_table", "values": [
        [-3.6629216506525037], [-4.982869457216688, 1.0823202114363608],
        [6.7512207504535455, -1.1879895052321676, 2.0998702548501145, 4.25334430440538]]}
    spec = load_spec(json.dumps(doc))
    tree = build_tree(spec.horizon, 3)
    coeffs = realize(spec, tree)
    assert coeffs.on_lattice(tree) is None
    with pytest.raises(RiccatiError, match=(
            r"^Newton line search stalled at level 1, node 1 \(residual 1\.025e-01\): "
            r"no root of the implicit step was found near E_1\[Sigma_2\] at this "
            r"level and node; a finer time grid may help$")):
        solve_riccati(tree, coeffs)


def test_singular_conditioner_raises_step_size_error():
    # B = N = 1 and nothing else: sigma_k = (4 - k) dt exactly, so with
    # R = -2 the conditioner I + Sigma R is exactly zero on level 2
    tree = build_tree(1.0, 4)
    coeffs = realize(scalar_spec(R=-2.0), tree)
    with pytest.raises(StepSizeError, match=r"I \+ Sigma R .*level 2"):
        solve_riccati(tree, coeffs)


def test_conditioner_sv_is_the_checked_value(m1_random):
    # the reported smallest singular value of I + Sigma R is the one the
    # Newton step's checked inverse saw on the accepted iterate
    tree = build_tree(1.0, 5)
    coeffs = realize(m1_random, tree)
    ric = solve_riccati(tree, coeffs)
    exact = min(float(np.linalg.svd(np.eye(1)[None] + tree.gather(s, k) @ r,
                                    compute_uv=False).min())
                for k, (s, r) in enumerate(zip(ric.sigma, coeffs.R)))
    assert ric.min_conditioner_sv == pytest.approx(exact, rel=1e-12)


def test_singular_newton_matrix_raises_riccati_error():
    # n = 1, so the Newton step is one division per node.  With Q = C = 0 and
    # deterministic data the Newton matrix is 1 - 2 dt A: A = 2 on level 2
    # (dt = 1/4) makes it exactly zero there, while the residual is not
    tree = build_tree(1.0, 4)
    doc = scalar_spec_doc()
    doc["dynamics"]["A"] = {"form": "time_table", "values": [0.0, 0.0, 2.0, 0.0]}
    coeffs = realize(load_spec(json.dumps(doc)), tree)
    with pytest.raises(RiccatiError,
                       match=r"^singular Newton matrix at level 2: Singular matrix$"):
        solve_riccati(tree, coeffs)
    # a non-finite coefficient is refused by its residual, before any Newton
    # matrix is formed from it
    A = [level.copy() for level in coeffs.A]
    A[2][...] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(
            RiccatiError, match=r"^Riccati residual is not finite at level 2, node 0$"):
        solve_riccati(tree, dataclasses.replace(coeffs, A=A))


def test_singular_newton_matrix_on_a_vector_state():
    # n = m = 2 with Q = C = 0, B = N = R = I and deterministic data, so
    # Phi = V = 0 and the Newton matrix is I - dt (A(x)I + I(x)A), diagonal
    # for a diagonal A: A = diag(2, 0) on level 2 (dt = 1/4) makes its
    # Sigma_11 entry 1 - 2 dt 2 exactly zero, and LAPACK refuses it
    tree = build_tree(1.0, 4)
    zero, eye = [[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]
    doc = scalar_spec_doc()
    doc.update(n=2, m=2, terminal={"form": "affine_in_WT", "g0": [0.0, 0.0],
                                   "g1": [0.0, 0.0]})
    for block in (doc["dynamics"], doc["cost"]):
        for entry in block.values():
            if isinstance(entry, dict):   # the scalar doc's constant 0 or 1
                entry["value"] = eye if entry["value"] else zero
    doc["cost"]["G"] = zero
    doc["dynamics"]["A"] = {"form": "time_table",
                            "values": [zero, zero, [[2.0, 0.0], [0.0, 0.0]], zero]}
    coeffs = realize(load_spec(json.dumps(doc)), tree)
    with pytest.raises(RiccatiError,
                       match=r"^singular Newton matrix at level 2: Singular matrix$"):
        solve_riccati(tree, coeffs)


def test_vector_pair_meets_the_newton_tolerance_on_every_node():
    # n = m = 2 with node-varying A and N: every level's Sigma, gathered to
    # the tree from the lattice it is solved on, solves its implicit step to
    # the Newton tolerance on every node, and the step, taken in the
    # upper-triangle coordinates, keeps Sigma exactly symmetric
    spec = load_spec(json.dumps(vector_control_doc()))
    tree = build_tree(spec.horizon, 6)
    coeffs = realize(spec, tree)
    ric = solve_riccati(tree, coeffs)
    assert ric.symmetry_defect == 0.0
    n_inv = control_weight_inverses(coeffs)
    for k in range(6):
        assert ric.sigma[k].shape == (k + 1, 2, 2)
        sig, B = tree.gather(ric.sigma[k], k), coeffs.B[k]
        assert sig.shape == (tree.n_nodes(k), 2, 2)
        BNB = B @ (n_inv[k] @ B.swapaxes(-1, -2))
        res = riccati._residual(sig, tree.cond_expect(tree.gather(ric.sigma[k + 1], k + 1)),
                                tree.gather(ric.phi[k], k), coeffs.A[k], coeffs.Q[k], BNB,
                                coeffs.C[k], coeffs.R[k], tree.dt, k)[0]
        tol = riccati._NEWTON_TOL * (1.0 + np.linalg.norm(sig, axis=(1, 2)))
        assert (np.linalg.norm(res, axis=(1, 2)) <= tol).all(), k


@pytest.mark.parametrize("n", (1, 2, 3))
@pytest.mark.parametrize("nodes", (1, 7))
def test_newton_matrix_matches_the_kronecker_referee(n, nodes):
    # the Newton matrix formed on the symmetric unit matrices is the
    # n^2 x n^2 Kronecker form restricted by the duplication matrix
    from referees import kron_newton_matrix
    rng = np.random.default_rng(10 * n + nodes)
    P, V = rng.standard_normal((2, nodes, n, n))
    basis = riccati._symmetric_units(n)
    p = len(basis[0])
    for dt in (1.0 / 16, 0.5):
        got = riccati._newton_matrix(P, V, dt, basis)
        want = kron_newton_matrix(P, V, dt)
        assert got.shape == want.shape == (nodes, p, p)
        assert np.abs(got - want).max() <= 1e-15 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("nt", (4, 6, 8, 13))
def test_newton_converges_quadratically(corpus, nt):
    # the exact Newton matrix, started at E_k[Sigma_{k+1}], needs at most four
    # iterations on every level (one that drops the -V(x)V term takes 4-6)
    specs = {name: corpus[name] for name in ("d2", "m1", "m1_random")}
    specs["vector"] = load_spec(json.dumps(vector_control_doc()))
    for name, spec in specs.items():
        tree = build_tree(spec.horizon, nt)
        assert solve_riccati(tree, realize(spec, tree)).newton_iterations <= 4, name


def test_nan_residual_raises_riccati_error(m1):
    # Sigma_4 = 0, so A = +inf on level 3 makes A Sigma = inf * 0 = NaN in the
    # starting residual there; it must not pass as converged (Sigma_3 = 0)
    tree = build_tree(1.0, 4)
    coeffs = realize(m1, tree)
    A = [level.copy() for level in coeffs.A]
    A[3][...] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(
            RiccatiError, match=r"not finite at level 3, node 0"):
        solve_riccati(tree, dataclasses.replace(coeffs, A=A))


def test_singular_control_weight_is_refused(m1):
    # H2 asks N >= delta I only; solve_riccati takes the coefficients as
    # given and inverts N through its checked per-level inverse
    tree = build_tree(1.0, 4)
    coeffs = realize(m1, tree)
    N = [level.copy() for level in coeffs.N]
    N[2][...] = 0.0
    with pytest.raises(StepSizeError, match=r"^control weight N .* at level 2:"):
        solve_riccati(tree, dataclasses.replace(coeffs, N=N))
