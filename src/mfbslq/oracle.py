"""Independent certification of optimal controls by direct quadratic programming.

This module never touches the Riccati/multiplier pipeline.  It treats the
discrete problem as the finite-dimensional convex program it is: the cost
is evaluated by actually solving the controlled mean-field BSDE, the
optimizer is found by factoring the sparse KKT system of the full
discretization (sparse LU plus a Schur complement on the level means), and
optimality is certified with an exact discrete adjoint gradient that is
computed independently of the solve.  A dense route, which assembles the
reduced Hessian from unit-impulse responses, runs only when asked for and
serves as a cross-check of the sparse one on small trees.

Every evaluation of the cost goes through one function, the per-level
Gram matrix of its bilinear form over (control, solved state) pairs
(:func:`_level_gram`): the cost of a control, a directional derivative, the
dense route's reduced Hessian and the pipeline's outer quadratic are all
read off such a matrix.  The last three stack their directions as columns
of one backward sweep (:func:`reduced_quadratic`) and add each level's
share as the sweep produces it.

Controls are lists of per-level arrays (2**k, m).  The natural geometry is
the weighted l2 product <u, v> = sum_k dt 2^{-k} sum_j u_kj . v_kj, which
is the quadrature of E int |u|^2; gradients are reported in the norm dual
to it so tolerances are mesh-independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from ._errors import ConvexityError, NumericsError, SizeCapError
from .bsde import (MeanfieldBsdeSolution, meanfield_levels, solve_forward_sde,
                   solve_meanfield_bsde)
from .model import CoefficientSet
from .tree import ScenarioTree, _mm, _mv, _t

DENSE_SIZE_CAP = 20000


# ---------------------------------------------------------------------------
# control stacking and weighted geometry


def zero_controls(tree: ScenarioTree, m: int) -> list:
    return [np.zeros((tree.n_nodes(k), m)) for k in range(tree.n_steps)]


def stack_controls(controls: list) -> np.ndarray:
    return np.concatenate([lv.ravel() for lv in controls])


def unstack_controls(vec: np.ndarray, tree: ScenarioTree, m: int) -> list:
    out, pos = [], 0
    for k in range(tree.n_steps):
        cnt = tree.n_nodes(k)
        out.append(vec[pos: pos + cnt * m].reshape(cnt, m))
        pos += cnt * m
    return out


def control_dimension(tree: ScenarioTree, m: int) -> int:
    return ((1 << tree.n_steps) - 1) * m


def control_weights(tree: ScenarioTree, m: int) -> np.ndarray:
    """Stacked diagonal of the weighted l2 product (dt * node probability)."""
    return np.concatenate([
        np.full(tree.n_nodes(k) * m, tree.dt * tree.node_probability(k))
        for k in range(tree.n_steps)
    ])


def weighted_inner(tree: ScenarioTree, u: list, v: list) -> float:
    total = 0.0
    for k in range(tree.n_steps):
        total += tree.dt * tree.node_probability(k) * float(np.sum(u[k] * v[k]))
    return total


def weighted_norm(tree: ScenarioTree, u: list) -> float:
    return float(np.sqrt(weighted_inner(tree, u, u)))


def control_error(tree: ScenarioTree, u: list, reference: list) -> float:
    diff = [a - b for a, b in zip(u, reference)]
    return weighted_norm(tree, diff) / max(weighted_norm(tree, reference), 1e-300)


# ---------------------------------------------------------------------------
# cost


def _flat(levels: np.ndarray) -> np.ndarray:
    """(nodes, dim, c) -> (nodes * dim, c), a view of a contiguous stack."""
    return levels.reshape(-1, levels.shape[-1])


def _level_gram(tree: ScenarioTree, coeffs: CoefficientSet, k: int,
                left: tuple, right: tuple) -> np.ndarray:
    """Level k's share of the Gram matrix of the cost's bilinear form.

    ``left`` and ``right`` are (y, z, u, y_mean, z_mean, u_mean) at level k,
    each a column stack (columns on the last axis, one (control, solved
    state) pair per column).  Entry [a, b] pairs the node terms Q, R, N
    weighted by dt 2^-k, the level-mean terms weighted by dt and, on level
    0, the G term on Y(0); summed over the levels, entry [a, a] is the cost
    of pair a.  Each node term is one GEMM, flat(left)' @ flat(W right).
    """
    y, z, u, y_mean, z_mean, u_mean = left
    y_r, z_r, u_r, y_mean_r, z_mean_r, u_mean_r = right
    qb, rb, nb = coeffs.mean_weights(k)
    gram = tree.dt * (y_mean.T @ qb @ y_mean_r + z_mean.T @ rb @ z_mean_r
                      + u_mean.T @ nb @ u_mean_r)
    w = tree.dt * tree.node_probability(k)
    for lhs, weight, rhs in ((y, coeffs.Q[k], y_r), (z, coeffs.R[k], z_r),
                             (u, coeffs.N[k], u_r)):
        gram += w * (_flat(lhs).T @ _flat(_mm(weight, rhs)))
    if k == 0:
        gram += y[0].T @ coeffs.G @ y_r[0]
    return gram


def cost_of_solution(tree: ScenarioTree, coeffs: CoefficientSet, controls: list,
                     sol: MeanfieldBsdeSolution) -> float:
    """Quadrature of the cost functional on an already-solved state."""
    total = 0.0
    for k in range(tree.n_steps):
        level = (sol.y[k][..., None], sol.z[k][..., None], controls[k][..., None],
                 sol.y_mean[k][:, None], sol.z_mean[k][:, None],
                 sol.u_mean[k][:, None])
        total += float(_level_gram(tree, coeffs, k, level, level)[0, 0])
    return total


def reduced_quadratic(tree: ScenarioTree, coeffs: CoefficientSet, base: list,
                      directions: list) -> tuple:
    """The cost on the affine family base + sum_j t_j directions[j].

    ``base[k]`` has shape (2**k, m) and ``directions[k]`` (2**k, m, c), one
    direction per column.  Returns (hessian, linear, constant) with
    J(t) = t' hessian t + 2 linear' t + constant.  The base is solved with
    the real terminal value and the directions with a zero one, so the
    states are exactly affine in t.  The two backward sweeps run in
    lockstep and each level's Gram share is added as soon as the level is
    solved, so no state is held for the whole tree.
    """
    base = [u[..., None] for u in base]
    zero = np.zeros(coeffs.xi.shape + (1,))
    cols = directions[0].shape[-1]
    hess, linear, constant = np.zeros((cols, cols)), np.zeros(cols), 0.0
    for (k, b), (_, d) in zip(
            meanfield_levels(tree, coeffs, base, coeffs.xi[..., None]),
            meanfield_levels(tree, coeffs, directions, zero)):
        constant += float(_level_gram(tree, coeffs, k, b, b)[0, 0])
        # (directions, base) weights the one base column, not all c of them
        linear += _level_gram(tree, coeffs, k, d, b)[:, 0]
        hess += _level_gram(tree, coeffs, k, d, d)
    return 0.5 * (hess + hess.T), linear, constant


def evaluate_cost(tree: ScenarioTree, coeffs: CoefficientSet, controls: list) -> float:
    sol = solve_meanfield_bsde(tree, coeffs, controls)
    return cost_of_solution(tree, coeffs, controls, sol)


# ---------------------------------------------------------------------------
# exact discrete gradient (adjoint of the implicit recursion)


def cost_gradient(tree: ScenarioTree, coeffs: CoefficientSet, controls: list,
                  sol: MeanfieldBsdeSolution | None = None) -> list:
    """Gradient of the discrete cost with respect to the raw control values.

    Runs the adjoint of the implicit BSDE recursion forward in time: the
    multiplier of the level-k state equation is recovered from the parents'
    multipliers, with the mean coupling eliminated by one n-dimensional
    solve per level, exactly mirroring the primal scheme.  The result is
    the exact Euclidean gradient (machine precision, not a discretization).
    """
    if sol is None:
        sol = solve_meanfield_bsde(tree, coeffs, controls)
    n_steps, dt = tree.n_steps, tree.dt
    eye = np.eye(coeffs.n)
    grad: list = [None] * n_steps
    mu1_prev = None
    mu2_prev = None
    for k in range(n_steps):
        prob = tree.node_probability(k)
        g_y = 2.0 * dt * prob * _mv(coeffs.Q[k], sol.y[k])
        if k == 0:
            g_y = g_y + 2.0 * (sol.y[0] @ coeffs.G.T)
        r = -g_y
        if k > 0:
            half = tree.sqrt_dt * tree.child_signs(k - 1)  # +/- sqrt(dt) per child
            r = r + 0.5 * tree.to_children(mu1_prev)
            r = r + (half / (2.0 * tree.dt))[:, None] * tree.to_children(mu2_prev)
        qb, rb, nb = coeffs.mean_weights(k)
        # mean-coupled multiplier solve:
        #   (I - dt A)' mu1 = r + p nu1,
        #   nu1 = -2 dt Qbar ybar + dt sum_j Abar' mu1_j
        lhs_t = _t(eye[None] - dt * coeffs.A[k])
        base = np.linalg.solve(lhs_t, r[:, :, None])[:, :, 0]
        resp = np.linalg.solve(lhs_t, np.tile(eye[None], (r.shape[0], 1, 1)))
        abar_t = _t(coeffs.A_bar[k])
        s_base = dt * (abar_t @ base[:, :, None])[:, :, 0].sum(axis=0)
        s_resp = dt * prob * (abar_t @ resp).sum(axis=0)
        g_ybar = 2.0 * dt * (qb @ sol.y_mean[k])
        nu1 = np.linalg.solve(eye - s_resp, -g_ybar + s_base)
        mu1 = base + prob * (resp @ nu1)

        g_z = 2.0 * dt * prob * _mv(coeffs.R[k], sol.z[k])
        nu2 = -2.0 * dt * (rb @ sol.z_mean[k]) + dt * (
            (_t(coeffs.C_bar[k]) @ mu1[:, :, None])[:, :, 0].sum(axis=0))
        mu2 = -g_z + dt * _mv(_t(coeffs.C[k]), mu1) + prob * nu2[None]

        g_u = 2.0 * dt * prob * _mv(coeffs.N[k], controls[k])
        nu3 = -2.0 * dt * (nb @ sol.u_mean[k]) + dt * (
            (_t(coeffs.B_bar[k]) @ mu1[:, :, None])[:, :, 0].sum(axis=0))
        grad[k] = g_u - dt * _mv(_t(coeffs.B[k]), mu1) - prob * nu3[None]
        mu1_prev, mu2_prev = mu1, mu2
    return grad


def gradient_dual_norm(tree: ScenarioTree, grad: list) -> float:
    """Norm of the gradient in the dual of the weighted control space."""
    total = 0.0
    for k in range(tree.n_steps):
        total += float(np.sum(grad[k] ** 2)) / (tree.dt * tree.node_probability(k))
    return float(np.sqrt(total))


def directional_derivative(tree: ScenarioTree, coeffs: CoefficientSet, controls: list,
                           direction: list) -> float:
    """Exact derivative of the cost along a control direction via the
    linearized state (the state map is affine, so this has no truncation)."""
    column = [v[..., None] for v in direction]
    return 2.0 * float(reduced_quadratic(tree, coeffs, controls, column)[1][0])


def directional_derivative_fd(tree: ScenarioTree, coeffs: CoefficientSet,
                              controls: list, direction: list,
                              step: float = 1e-3) -> float:
    up = [u + step * v for u, v in zip(controls, direction)]
    dn = [u - step * v for u, v in zip(controls, direction)]
    return (evaluate_cost(tree, coeffs, up) - evaluate_cost(tree, coeffs, dn)) / (2 * step)


# ---------------------------------------------------------------------------
# first-order (maximum-principle style) residual of a candidate control


def smp_stationarity_residual(tree: ScenarioTree, coeffs: CoefficientSet,
                              controls: list,
                              sol: MeanfieldBsdeSolution | None = None) -> float:
    """Weighted norm of N u + E[Nbar] E[u] - B' x - E[Bbar' x] where x is the
    continuous-time first-order adjoint discretized by an explicit step.
    This measures optimality of the *time-continuous* problem, so it decays
    like dt at the discrete optimizer (it is not the exact discrete KKT)."""
    if sol is None:
        sol = solve_meanfield_bsde(tree, coeffs, controls)
    x0 = -(coeffs.G @ sol.y[0][0])
    weights = [coeffs.mean_weights(k) for k in range(tree.n_steps)]

    def drift(k: int, x: np.ndarray) -> np.ndarray:
        qb = weights[k][0]
        mean_term = tree.expect(_mv(_t(coeffs.A_bar[k]), x))
        return -(_mv(_t(coeffs.A[k]), x) + mean_term[None]
                 - _mv(coeffs.Q[k], sol.y[k]) - (qb @ sol.y_mean[k])[None])

    def diffusion(k: int, x: np.ndarray) -> np.ndarray:
        rb = weights[k][1]
        mean_term = tree.expect(_mv(_t(coeffs.C_bar[k]), x))
        return -(_mv(_t(coeffs.C[k]), x) + mean_term[None]
                 - _mv(coeffs.R[k], sol.z[k]) - (rb @ sol.z_mean[k])[None])

    x = solve_forward_sde(tree, x0, drift, diffusion)
    total = 0.0
    for k in range(tree.n_steps):
        nb = weights[k][2]
        res = (_mv(coeffs.N[k], controls[k]) + (nb @ sol.u_mean[k])[None]
               - _mv(_t(coeffs.B[k]), x[k])
               - tree.expect(_mv(_t(coeffs.B_bar[k]), x[k]))[None])
        total += tree.dt * tree.node_probability(k) * float(np.sum(res ** 2))
    return float(np.sqrt(total))


# ---------------------------------------------------------------------------
# dense route: reduced quadratic program from impulse responses


def _impulse_quadratic(tree: ScenarioTree, coeffs: CoefficientSet) -> tuple:
    """Reduced quadratic in the raw control values (zero base, one unit
    impulse per column).  More than DENSE_SIZE_CAP unknowns are refused
    before anything is allocated."""
    m = coeffs.m
    dim = control_dimension(tree, m)
    if dim > DENSE_SIZE_CAP:
        raise SizeCapError(
            f"dense reduced quadratic needs {dim} directions, "
            f"cap is {DENSE_SIZE_CAP}; use the sparse oracle route"
        )
    impulses, pos = [], 0
    for k in range(tree.n_steps):
        cnt = tree.n_nodes(k) * m
        level = np.zeros((tree.n_nodes(k), m, dim))
        level.reshape(cnt, dim)[np.arange(cnt), pos + np.arange(cnt)] = 1.0
        impulses.append(level)
        pos += cnt
    return reduced_quadratic(tree, coeffs, zero_controls(tree, m), impulses)


def _solve_dense(tree: ScenarioTree, coeffs: CoefficientSet) -> list:
    hess, lin, _ = _impulse_quadratic(tree, coeffs)
    try:
        factor = scipy.linalg.cho_factor(hess)
    except np.linalg.LinAlgError as exc:
        raise ConvexityError(f"reduced Hessian is not positive definite: {exc}") from exc
    u_vec = scipy.linalg.cho_solve(factor, -lin)
    for _ in range(2):  # iterative refinement sharpens the certificate
        u_vec -= scipy.linalg.cho_solve(factor, hess @ u_vec + lin)
    return unstack_controls(u_vec, tree, coeffs.m)


# ---------------------------------------------------------------------------
# sparse route: full KKT system of the discretization


class _KktLayout:
    """Index bookkeeping for the sparse KKT matrix.

    Local variables per inner node (levels 0..n_steps-1): state y, martingale
    term z, control u; local rows: the state recursion (e1) and the
    martingale identity (e2).  Level means and their defining rows form a
    small dense tail handled by a Schur complement.
    """

    def __init__(self, tree: ScenarioTree, coeffs: CoefficientSet):
        n, m, n_steps = coeffs.n, coeffs.m, tree.n_steps
        self.n, self.m, self.n_steps = n, m, n_steps
        self.nodes = (1 << n_steps) - 1
        self.node_base = [(1 << k) - 1 for k in range(n_steps + 1)]
        self.y_off = 0
        self.z_off = n * self.nodes
        self.u_off = 2 * n * self.nodes
        self.x_dim = (2 * n + m) * self.nodes
        self.mu1_off = self.x_dim
        self.mu2_off = self.x_dim + n * self.nodes
        self.k11_dim = self.x_dim + 2 * n * self.nodes
        self.ybar_off = 0
        self.zbar_off = n * n_steps
        self.ubar_off = 2 * n * n_steps
        self.mean_dim = (2 * n + m) * n_steps
        self.small_dim = 2 * self.mean_dim

    def y_idx(self, k: int) -> np.ndarray:
        base = self.node_base[k]
        cnt = 1 << k
        return (self.y_off + self.n * (base + np.arange(cnt))[:, None]
                + np.arange(self.n)[None])

    def z_idx(self, k: int) -> np.ndarray:
        base = self.node_base[k]
        cnt = 1 << k
        return (self.z_off + self.n * (base + np.arange(cnt))[:, None]
                + np.arange(self.n)[None])

    def u_idx(self, k: int) -> np.ndarray:
        base = self.node_base[k]
        cnt = 1 << k
        return (self.u_off + self.m * (base + np.arange(cnt))[:, None]
                + np.arange(self.m)[None])

    def mu1_idx(self, k: int) -> np.ndarray:
        return self.mu1_off + self.y_idx(k)

    def mu2_idx(self, k: int) -> np.ndarray:
        return self.mu2_off + self.y_idx(k)


def _block_entries(rows_idx: np.ndarray, cols_idx: np.ndarray, vals: np.ndarray):
    """Entries of per-node dense blocks: rows (cnt, r), cols (cnt, c), vals (cnt, r, c)."""
    cnt, r = rows_idx.shape
    c = cols_idx.shape[1]
    rr = np.broadcast_to(rows_idx[:, :, None], (cnt, r, c)).ravel()
    cc = np.broadcast_to(cols_idx[:, None, :], (cnt, r, c)).ravel()
    return rr, cc, np.ascontiguousarray(vals).ravel()


def _diag_entries(rows_idx: np.ndarray, cols_idx: np.ndarray, vals):
    """Entries of per-node scalar-diagonal blocks: vals scalar or (cnt, r)."""
    rr = rows_idx.ravel()
    cc = cols_idx.ravel()
    vv = np.broadcast_to(vals, rows_idx.shape).ravel()
    return rr, cc, vv


def _solve_sparse(tree: ScenarioTree, coeffs: CoefficientSet, chunk: int = 24):
    lay = _KktLayout(tree, coeffs)
    n, m, n_steps, dt = lay.n, lay.m, lay.n_steps, tree.dt
    eye = np.eye(n)
    half_z = 1.0 / (2.0 * tree.sqrt_dt)

    rows, cols, vals = [], [], []
    r12, c12, v12 = [], [], []

    def add(block):
        rr, cc, vv = block
        rows.append(rr)
        cols.append(cc)
        vals.append(vv)

    def add_sym(block):
        rr, cc, vv = block
        rows.append(rr)
        cols.append(cc)
        vals.append(vv)
        rows.append(cc)
        cols.append(rr)
        vals.append(vv)

    def add12(block):
        rr, cc, vv = block
        r12.append(rr)
        c12.append(cc)
        v12.append(vv)

    rhs = np.zeros(lay.k11_dim)
    for k in range(n_steps):
        cnt = 1 << k
        prob = tree.node_probability(k)
        yk, zk, uk = lay.y_idx(k), lay.z_idx(k), lay.u_idx(k)
        m1k, m2k = lay.mu1_idx(k), lay.mu2_idx(k)

        # objective curvature (2P blocks)
        qblk = 2.0 * dt * prob * coeffs.Q[k]
        if k == 0:
            qblk = qblk + 2.0 * coeffs.G[None]
        add(_block_entries(yk, yk, qblk))
        add(_block_entries(zk, zk, 2.0 * dt * prob * coeffs.R[k]))
        add(_block_entries(uk, uk, 2.0 * dt * prob * coeffs.N[k]))

        # e1: (I - dt A) y - dt C z - dt B u - (mean terms) - avg of children = rhs
        add_sym(_block_entries(m1k, yk, np.tile(eye[None], (cnt, 1, 1)) - dt * coeffs.A[k]))
        add_sym(_block_entries(m1k, zk, -dt * coeffs.C[k]))
        add_sym(_block_entries(m1k, uk, -dt * coeffs.B[k]))
        # e2: z - (y_up - y_down) / (2 sqrt(dt)) = rhs
        add_sym(_diag_entries(m2k, zk, 1.0))
        if k < n_steps - 1:
            y_next = lay.y_idx(k + 1)
            up, down = y_next[0::2], y_next[1::2]
            add_sym(_diag_entries(tree.to_children(m1k), y_next, -0.5))
            add_sym(_diag_entries(m2k, up, -half_z))
            add_sym(_diag_entries(m2k, down, half_z))
        else:
            xi_up, xi_down = coeffs.xi[0::2], coeffs.xi[1::2]
            rhs[m1k.ravel()] = (0.5 * (xi_up + xi_down)).ravel()
            rhs[m2k.ravel()] = (half_z * (xi_up - xi_down)).ravel()

        # coupling to the mean tail
        ybar_c = lay.ybar_off + k * n + np.arange(n)
        zbar_c = lay.zbar_off + k * n + np.arange(n)
        ubar_c = lay.ubar_off + k * m + np.arange(m)
        nu1_c = lay.mean_dim + ybar_c
        nu2_c = lay.mean_dim + zbar_c
        nu3_c = lay.mean_dim + ubar_c
        add12(_block_entries(m1k, np.tile(ybar_c[None], (cnt, 1)), -dt * coeffs.A_bar[k]))
        add12(_block_entries(m1k, np.tile(zbar_c[None], (cnt, 1)), -dt * coeffs.C_bar[k]))
        add12(_block_entries(m1k, np.tile(ubar_c[None], (cnt, 1)), -dt * coeffs.B_bar[k]))
        add12(_diag_entries(yk, np.tile(nu1_c[None], (cnt, 1)), -prob))
        add12(_diag_entries(zk, np.tile(nu2_c[None], (cnt, 1)), -prob))
        add12(_diag_entries(uk, np.tile(nu3_c[None], (cnt, 1)), -prob))

    k11 = scipy.sparse.csc_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(lay.k11_dim, lay.k11_dim),
    )
    k12 = scipy.sparse.csc_matrix(
        (np.concatenate(v12), (np.concatenate(r12), np.concatenate(c12))),
        shape=(lay.k11_dim, lay.small_dim),
    )

    k22 = np.zeros((lay.small_dim, lay.small_dim))
    for k in range(n_steps):
        qb, rb, nb = coeffs.mean_weights(k)
        sl = slice(lay.ybar_off + k * n, lay.ybar_off + (k + 1) * n)
        k22[sl, sl] = 2.0 * dt * qb
        sl = slice(lay.zbar_off + k * n, lay.zbar_off + (k + 1) * n)
        k22[sl, sl] = 2.0 * dt * rb
        sl = slice(lay.ubar_off + k * m, lay.ubar_off + (k + 1) * m)
        k22[sl, sl] = 2.0 * dt * nb
    k22[: lay.mean_dim, lay.mean_dim:] += np.eye(lay.mean_dim)
    k22[lay.mean_dim:, : lay.mean_dim] += np.eye(lay.mean_dim)

    lu = scipy.sparse.linalg.splu(k11)
    k21 = k12.T.tocsr()
    schur = k22.copy()
    for start in range(0, lay.small_dim, chunk):
        stop = min(start + chunk, lay.small_dim)
        dense_cols = np.asarray(k12[:, start:stop].todense())
        schur[:, start:stop] -= k21 @ lu.solve(dense_cols)
    w = lu.solve(rhs)
    small = np.linalg.solve(schur, -(k21 @ w))
    x_big = lu.solve(rhs - k12 @ small)

    return unstack_controls(x_big[lay.u_off: lay.u_off + m * lay.nodes], tree, m)


# ---------------------------------------------------------------------------
# public entry point


@dataclass
class OracleSolution:
    u: list
    cost: float
    gradient_norm: float     # dual norm of the exact discrete gradient at u
    grad0_norm: float        # same at the zero control (sets the scale)
    certified: bool
    method: str              # "sparse" or "dense"


def solve_oracle(tree: ScenarioTree, coeffs: CoefficientSet, method: str = "sparse",
                 certificate_tol: float = 1e-9) -> OracleSolution:
    """Solve the discrete problem head-on and certify first-order optimality.

    ``method="dense"`` solves through the reduced Hessian instead of the
    sparse KKT system; it is a cross-check for small trees and raises
    SizeCapError above DENSE_SIZE_CAP control unknowns."""
    if method == "dense":
        u = _solve_dense(tree, coeffs)
    elif method == "sparse":
        u = _solve_sparse(tree, coeffs)
    else:
        raise ValueError(f"unknown oracle method {method!r}")

    cost = evaluate_cost(tree, coeffs, u)
    grad_norm = gradient_dual_norm(tree, cost_gradient(tree, coeffs, u))
    grad0 = gradient_dual_norm(
        tree, cost_gradient(tree, coeffs, zero_controls(tree, coeffs.m)))
    certified = grad_norm <= certificate_tol * (1.0 + grad0)
    if not certified:
        raise NumericsError(
            f"oracle certificate failed: |grad| = {grad_norm:.3e} "
            f"vs tolerance {certificate_tol * (1.0 + grad0):.3e}"
        )
    return OracleSolution(
        u=u, cost=cost, gradient_norm=grad_norm, grad0_norm=grad0,
        certified=certified, method=method,
    )


def weighted_hessian_eigenvalues(tree: ScenarioTree,
                                 coeffs: CoefficientSet) -> np.ndarray:
    """Eigenvalues of the cost Hessian in the weighted control geometry.

    For a cost with no state feedback (B = 0, N = I) these are exactly 2,
    which pins the normalization used by the convexity margin.  The Hessian
    is assembled densely, so trees above DENSE_SIZE_CAP control unknowns
    raise SizeCapError."""
    hess, _, _ = _impulse_quadratic(tree, coeffs)
    scale = 1.0 / np.sqrt(control_weights(tree, coeffs.m))
    return np.linalg.eigvalsh(2.0 * hess * scale[:, None] * scale[None, :])
