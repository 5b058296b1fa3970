"""Independent certification of optimal controls by direct quadratic programming.

This module never touches the Riccati/multiplier pipeline.  It shares only
the tree's kernels and one-step operators, such as E[M' x]
(:meth:`.tree.ScenarioTree.level_coupling`), the step to a level's
children and the lift of a level to its parents, and its walk lattice
(:class:`.tree.WalkLattice`, with the coefficients restricted to it by
:meth:`.model.CoefficientSet.on_lattice`).  It treats
the discrete problem as the finite-dimensional convex program it is: the
cost is evaluated by actually solving the controlled mean-field BSDE, the
optimizer is found from the KKT system of the full discretization, and
optimality is certified with an exact discrete adjoint gradient that is
computed independently of the solve.  The KKT system is a tree of small
per-node blocks plus a dense tail of level means; the default ("sparse")
route eliminates the node blocks leaves first, one batch per level, each
block through its own n x n and m x m pivots (the control weight N, the
one-step matrix I - dt A, and two multiplier blocks that are of order one
at every depth), every one checked, and closes the tail with one
Schur-complement solve.  When the coefficients and the terminal value
depend on the path only through W(t_k), so does every block, and the
elimination runs on the k + 1 nodes of each lattice level instead of the
2**k of the tree; the cost, the gradient certificate and the control
error stay on the tree either way.  Its blocks are stored node-last,
(rows, cols, nodes), so every block entry is one contiguous vector over a
level's nodes, and a level's right-hand side is never assembled: the
solved columns come from its known nonzero blocks.  Each level keeps only
what its pivots are solved from, not their inverses, which are formed a
node chunk at a time, and two passes over the levels, leaves first and
then root first, recover the controls by the same block elimination.  A
dense route, which assembles the reduced Hessian column by column, checks
that it is positive definite with a Cholesky factorization and solves it
once, runs only when asked for and serves as a cross-check of the sparse
one on small trees.

Every derivative of the cost comes from one function, the exact adjoint
gradient (:func:`cost_gradient`), which takes a trailing column axis like
the sweeps of :mod:`.bsde`.  The cost is quadratic, J(u) = u' H u +
2 l' u + J(0), so a directional derivative is the gradient paired with the
direction, and for any column stack D, H D is half the gradient at D with
the state solved from a zero terminal value (:func:`hessian_product`).
The dense route's reduced Hessian (unit impulses in column blocks), the
Hessian spectrum and the on-demand outer quadratic are all such products.

Controls are lists of per-level arrays (2**k, m).  The natural geometry is
the weighted l2 product <u, v> = sum_k dt 2^{-k} sum_j u_kj . v_kj, which
is the quadrature of E int |u|^2; gradients are reported in the norm dual
to it so tolerances are mesh-independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._errors import ConvexityError, NumericsError, SizeCapError
from .bsde import (MeanfieldBsdeSolution, checked_dense_sv, checked_inverse,
                   implicit_steps, solve_forward_sde, solve_meanfield_bsde)
from .model import CoefficientSet
from .tree import (ScenarioTree, WalkLattice, _concat_nodes, _mul, _mul_last, _mv, _t,
                   column_blocks)

DENSE_SIZE_CAP = 20000
# Nodes of a level whose pivot inverses and solved columns the sparse route
# forms together, and whose back-substitution it solves together.  Fixed, so
# results never depend on the machine.
_NODE_CHUNK = 2048
# solve_oracle certifies |grad| <= CERTIFICATE_TOL (1 + |grad at u = 0|)
CERTIFICATE_TOL = 1e-9


# ---------------------------------------------------------------------------
# control stacking and weighted geometry


def zero_controls(tree: ScenarioTree, m: int) -> list:
    return [np.zeros((tree.n_nodes(k), m)) for k in range(tree.n_steps)]


def stack_controls(controls: list) -> np.ndarray:
    """Per-level controls (2**k, m) or column stacks (2**k, m, c) as one
    vector (dim,) or matrix (dim, c)."""
    return np.concatenate([lv.reshape((-1,) + lv.shape[2:]) for lv in controls])


def unstack_controls(vec: np.ndarray, tree: ScenarioTree, m: int) -> list:
    """Inverse of :func:`stack_controls`; trailing column axes are kept."""
    out, pos = [], 0
    for k in range(tree.n_steps):
        cnt = tree.n_nodes(k)
        out.append(vec[pos: pos + cnt * m].reshape((cnt, m) + vec.shape[1:]))
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


def cost_of_solution(tree: ScenarioTree, coeffs: CoefficientSet, controls: list,
                     sol: MeanfieldBsdeSolution) -> float:
    """Quadrature of the cost functional on an already-solved state.

    Level k adds its node terms Q, R, N weighted by dt 2^-k and its
    level-mean terms weighted by dt; level 0 also adds the G term on Y(0).
    """
    total = float(sol.y[0][0] @ coeffs.G @ sol.y[0][0])
    for k in range(tree.n_steps):
        qb, rb, nb = coeffs.mean_weights(k)
        y_mean, z_mean, u_mean = sol.y_mean[k], sol.z_mean[k], sol.u_mean[k]
        total += tree.dt * float(y_mean @ qb @ y_mean + z_mean @ rb @ z_mean
                                 + u_mean @ nb @ u_mean)
        w = tree.dt * tree.node_probability(k)
        for field, weight in ((sol.y[k], coeffs.Q[k]), (sol.z[k], coeffs.R[k]),
                              (controls[k], coeffs.N[k])):
            total += w * float(np.sum(field * _mv(weight, field)))
    return total


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

    Controls are per-level arrays (2**k, m), or column stacks (2**k, m, c)
    whose gradients come back as one stack; ``sol`` then carries the same
    column axis.  A single control runs as one column.
    """
    if sol is None:
        sol = solve_meanfield_bsde(tree, coeffs, controls)
    single = controls[0].ndim == 2
    if single:
        controls = [u[..., None] for u in controls]
        sol = MeanfieldBsdeSolution(
            [y[..., None] for y in sol.y], [z[..., None] for z in sol.z],
            sol.y_mean[..., None], sol.z_mean[..., None], sol.u_mean[..., None])
    n_steps, dt = tree.n_steps, tree.dt
    steps = implicit_steps(tree, coeffs)
    grad: list = [None] * n_steps
    mu1_prev = None
    mu2_prev = None
    for k in range(n_steps):
        prob, nodes = tree.node_probability(k), tree.n_nodes(k)
        r = -2.0 * dt * prob * _mul(coeffs.Q[k], sol.y[k])
        if k == 0:
            r -= 2.0 * (coeffs.G @ sol.y[0])
        if k > 0:   # each child's share of its parent's multipliers, +/- its move
            r += tree.children(mu1_prev / 2.0, mu2_prev / (2.0 * tree.sqrt_dt))
        qb, rb, nb = coeffs.mean_weights(k)
        # mean-coupled multiplier solve:
        #   (I - dt A)' mu1 = r + p nu1,
        #   nu1 = -2 dt Qbar ybar + dt sum_j Abar' mu1_j (= dt 2^k E[Abar' mu1]),
        # closed by the transposed mean-closing matrix of the primal step
        resp = _t(steps.inverses[k])    # ((I - dt A)')^{-1}, checked once
        base = _mul(resp, r)
        s_base = dt * nodes * tree.level_coupling(coeffs.A_bar[k], base)
        g_ybar = 2.0 * dt * (qb @ sol.y_mean[k])
        nu1 = steps.closings[k].T @ (-g_ybar + s_base)
        mu1 = base + prob * _mul(resp, nu1)

        g_z = 2.0 * dt * prob * _mul(coeffs.R[k], sol.z[k])
        nu2 = (-2.0 * dt * (rb @ sol.z_mean[k])
               + dt * nodes * tree.level_coupling(coeffs.C_bar[k], mu1))
        mu2 = -g_z + dt * _mul(_t(coeffs.C[k]), mu1) + prob * nu2[None]

        g_u = 2.0 * dt * prob * _mul(coeffs.N[k], controls[k])
        nu3 = (-2.0 * dt * (nb @ sol.u_mean[k])
               + dt * nodes * tree.level_coupling(coeffs.B_bar[k], mu1))
        grad[k] = g_u - dt * _mul(_t(coeffs.B[k]), mu1) - prob * nu3[None]
        mu1_prev, mu2_prev = mu1, mu2
    if single:
        return [g[..., 0] for g in grad]
    return grad


def hessian_product(tree: ScenarioTree, coeffs: CoefficientSet,
                    directions: list) -> list:
    """H D for a column stack of control directions D, (2**k, m, c) per level.

    The cost is J(u) = u' H u + 2 l' u + J(0), and the state solved from a
    zero terminal value is the linear part of the state map, so the
    gradient there is 2 H D.  Holds one sweep of the c columns."""
    sol = solve_meanfield_bsde(tree, coeffs, directions,
                               terminal=np.zeros_like(coeffs.xi))
    return [0.5 * g for g in cost_gradient(tree, coeffs, directions, sol)]


def gradient_dual_norm(tree: ScenarioTree, grad: list) -> float:
    """Norm of the gradient in the dual of the weighted control space."""
    total = 0.0
    for k in range(tree.n_steps):
        total += float(np.sum(grad[k] ** 2)) / (tree.dt * tree.node_probability(k))
    return float(np.sqrt(total))


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
        return (_mv(_t(coeffs.A[k]), x) + tree.level_coupling(coeffs.A_bar[k], x)[None]
                - _mv(coeffs.Q[k], sol.y[k]) - (qb @ sol.y_mean[k])[None])

    def diffusion(k: int, x: np.ndarray) -> np.ndarray:
        rb = weights[k][1]
        return (_mv(_t(coeffs.C[k]), x) + tree.level_coupling(coeffs.C_bar[k], x)[None]
                - _mv(coeffs.R[k], sol.z[k]) - (rb @ sol.z_mean[k])[None])

    x = solve_forward_sde(tree, x0, drift, diffusion)
    total = 0.0
    for k in range(tree.n_steps):
        nb = weights[k][2]
        res = (_mv(coeffs.N[k], controls[k]) + (nb @ sol.u_mean[k])[None]
               - _mv(_t(coeffs.B[k]), x[k])
               - tree.level_coupling(coeffs.B_bar[k], x[k])[None])
        total += tree.dt * tree.node_probability(k) * float(np.sum(res ** 2))
    return float(np.sqrt(total))


# ---------------------------------------------------------------------------
# dense route: the reduced quadratic program, one Hessian column per impulse


def _reduced_hessian(tree: ScenarioTree, coeffs: CoefficientSet) -> np.ndarray:
    """H in the raw control values, from unit impulses in column blocks.
    More than DENSE_SIZE_CAP unknowns are refused before anything is
    allocated."""
    m = coeffs.m
    dim = control_dimension(tree, m)
    if dim > DENSE_SIZE_CAP:
        raise SizeCapError(
            f"dense reduced Hessian needs {dim} directions, "
            f"cap is {DENSE_SIZE_CAP}; use the sparse oracle route"
        )
    hess = np.empty((dim, dim))
    for block in column_blocks(dim):
        impulses = np.zeros((dim, block.stop - block.start))
        impulses[block] = np.eye(block.stop - block.start)
        hess[:, block] = stack_controls(hessian_product(
            tree, coeffs, unstack_controls(impulses, tree, m)))
    if not np.isfinite(hess).all():
        raise NumericsError("reduced Hessian is not finite")
    hess += hess.T   # symmetric up to rounding; make both triangles agree
    hess *= 0.5
    return hess


def _solve_dense(tree: ScenarioTree, coeffs: CoefficientSet) -> list:
    hess = _reduced_hessian(tree, coeffs)
    lin = 0.5 * stack_controls(
        cost_gradient(tree, coeffs, zero_controls(tree, coeffs.m)))
    try:
        np.linalg.cholesky(hess)   # the convexity check; its factor is dropped
    except np.linalg.LinAlgError as exc:
        raise ConvexityError(f"reduced Hessian is not positive definite: {exc}") from exc
    return unstack_controls(np.linalg.solve(hess, -lin), tree, coeffs.m)


# ---------------------------------------------------------------------------
# sparse route: the KKT system of the discretization, eliminated leaves first
#
# Each inner node (k, j) owns a local block [y, z, u, mu1, mu2] of size
# 4n + m: its state, martingale term and control, and the multipliers of its
# state recursion (e1) and martingale identity (e2).  A child's y enters only
# its parent's e1/e2 rows, through E_k[.] and the two-point difference
# quotient.  Each level's means and their multipliers nu form a dense tail
# of 2(2n + m) columns, ordered [y_mean, z_mean, u_mean, nu1, nu2, nu3].
#
# Blocks are stored node-last, (rows, cols, nodes), so every block entry is
# one contiguous vector over a level's nodes, and a block that is the same
# on every node is (rows, cols, 1).  Products run through
# :func:`.tree._mul_last`.
#
# A level's pivots are solved by one block elimination (:func:`_pivot_solve`)
# from what the elimination keeps of the level (:func:`_kkt_factors`): the
# inverses of three checked pivots, one block of the children's fill times
# one of them, and the y columns of the pivot inverse P^-1, each at the
# width of its data.
# P^-1 itself is that solve of the identity, formed _NODE_CHUNK nodes at a
# time for the solved columns of the elimination only, and never kept.
# After the tail solve, a leaves-first pass solves one right-hand side per
# level, and a root-first pass adds the parents' multipliers through P^-1's
# y columns.
#
# A node is a tree node, or on lattice data a node of the walk lattice
# (:class:`.tree.WalkLattice`), where every factor, solved column and
# leaves-first solution is the same on all tree nodes with the same number
# of down moves.  Only the root-first pass, whose parents' multipliers
# depend on the path, always runs on the tree.


class _PivotFactors(NamedTuple):
    """What a level's KKT pivots are solved from (:func:`_kkt_factors`),
    node-last, each as wide as its inputs."""

    hy: np.ndarray        # Hy = w Q (+ 2G at the root), (n, n, .)
    hz: np.ndarray        # Hz = w R, (n, n, .)
    cdt: np.ndarray       # dt C, (n, n, .)
    bdt: np.ndarray       # dt B, (n, m, .)
    hu_inv: np.ndarray    # Hu^-1 = N^-1 / w, (m, m, .)
    ay_inv: np.ndarray    # Ay^-1 = (I - dt A)^-1, (n, n, .)
    d_inv: np.ndarray     # D^-1, (n, n, .)
    k2d: np.ndarray       # K2 D^-1, with K2 = F12 + dt C F22, (n, n, .)
    inv_y: np.ndarray     # P^-1's y columns, z rows aside, (3n + m, n, .)


def _last(level: np.ndarray) -> np.ndarray:
    """A node-first level (nodes, r, c) as a node-last view (r, c, nodes)."""
    return level.transpose(1, 2, 0)


def _nodes(block: np.ndarray, at: slice) -> np.ndarray:
    """The nodes ``at`` of a node-last block; a one-node block as it is."""
    return block if block.shape[2] == 1 else block[..., at]


def _checked_inverse_last(mats: np.ndarray, name: str, k: int) -> np.ndarray:
    """:func:`.bsde.checked_inverse` of a node-last stack, given its
    (nodes, p, p) view; the inverse comes back node-last and contiguous."""
    inv = checked_inverse(mats.transpose(2, 0, 1), name, k)[0]
    return np.ascontiguousarray(_last(inv))


def _kkt_factors(tree: ScenarioTree, coeffs: CoefficientSet, k: int,
                 fill: np.ndarray) -> _PivotFactors:
    """The factors that level k's KKT pivots are solved from, through four
    checked n x n or m x m pivots.

    With w = 2 dt 2^-k, Hy = w Q (+ 2G at the root), Hz = w R, Hu = w N,
    Ay = I - dt A and the children's fill F = [[F11, F12], [F21, F22]] on
    the (mu1, mu2) rows (node-last, (2n, 2n, nodes)), a node's pivot is

                y       z       u      mu1     mu2
        y   [   Hy                      Ay'          ]
        z   [           Hz             -dt C'    I   ]
        u   [                   Hu     -dt B'        ]
        mu1 [   Ay    -dt C   -dt B     F11     F12  ]
        mu2 [            I              F21     F22  ]

    and a right-hand side b is solved (:func:`_pivot_solve`) by
      u = Hu^-1 (b_u + dt B' mu1)                               pivot N,
      z = b_mu2 - F21 mu1 - F22 mu2                             pivot I,
      y = Ay^-1 (b_mu1 + dt C b_mu2 + dt B u - K (mu1, mu2))    pivot I - dt A,
    with K = [K1 K2] = [F11 F12] + dt C [F21 F22].  The z and y rows then
    leave (mu1, mu2) to the pivots D = I - Hz F22 and S = Ay' - Hy T, with
    S21 = -Hz F21 - dt C' and T = Ay^-1 (K1 - K2 D^-1 S21 - dt^2 B Hu^-1 B'):
      mu2 = e - D^-1 S21 mu1,  e = D^-1 (b_z - Hz b_mu2)        pivot D,
      mu1 = S^-1 (b_y - Hy y0)                                  pivot S,
    where y0 = Ay^-1 (b_mu1 + dt C b_mu2 + dt B Hu^-1 b_u - K2 e) is y at
    mu1 = 0, mu2 = e and u = Hu^-1 b_u.  So (y, u, mu1, mu2) is (y0, Hu^-1
    b_u, 0, e) plus P^-1's y columns, [-T; Hu^-1 dt B'; I; -D^-1 S21] S^-1
    (z rows aside), times b_y - Hy y0.  A convex subtree's fill is negative
    semidefinite, so D's eigenvalues are at least 1, and with the other
    three pivots regular S is regular exactly when the block is.  All four
    are of order one at every depth, and each is checked by
    :func:`.bsde.checked_inverse` under the name "KKT pivot ..." with the
    level.  A solve reads the fill only through D and K2 D^-1, so that is
    kept, not F, and P^-1's y columns, not S^-1.  The coefficients enter as
    node-last views, and every product is :func:`.tree._mul_last`, so each
    factor is as wide as its widest input: one node when the coefficients
    and the fill are node-constant."""
    n, dt = coeffs.n, tree.dt
    weight = 2.0 * dt * tree.node_probability(k)
    eye = np.eye(n)[..., None]
    hy = weight * _last(coeffs.Q[k]) + (2.0 * coeffs.G[..., None] if k == 0 else 0.0)
    hz = weight * _last(coeffs.R[k])
    cdt, bdt = dt * _last(coeffs.C[k]), dt * _last(coeffs.B[k])
    ay = eye - dt * _last(coeffs.A[k])
    hu_inv = _checked_inverse_last(_last(coeffs.N[k]), "KKT pivot N", k) / weight
    ay_inv = _checked_inverse_last(ay, "KKT pivot I - dt A", k)
    d_inv = _checked_inverse_last(eye - _mul_last(hz, fill[n:, n:]),
                                  "KKT pivot D = I - w R F22", k)
    kk = fill[:n] + _mul_last(cdt, fill[n:])
    hu_b = _mul_last(hu_inv, bdt.swapaxes(0, 1))                # Hu^-1 dt B'
    ds = _mul_last(d_inv, _mul_last(hz, fill[n:, :n]) + cdt.swapaxes(0, 1))   # -D^-1 S21
    t = _mul_last(ay_inv, kk[:, :n] + _mul_last(kk[:, n:], ds) - _mul_last(bdt, hu_b))
    s_inv = _checked_inverse_last(ay.swapaxes(0, 1) - _mul_last(hy, t),
                                  "KKT pivot S (Schur complement of D)", k)
    # S depends on every input, so it is as wide as the widest of them
    inv_y = np.empty((3 * n + len(hu_b), n, s_inv.shape[2]))
    _mul_last(-t, s_inv, out=inv_y[:n])
    _mul_last(hu_b, s_inv, out=inv_y[n:-2 * n])
    inv_y[-2 * n:-n] = s_inv
    _mul_last(ds, s_inv, out=inv_y[-n:])
    return _PivotFactors(hy, hz, cdt, bdt, hu_inv, ay_inv, d_inv,
                         _mul_last(kk[:, n:], d_inv), inv_y)


def _pivot_solve(factors: _PivotFactors, rhs: np.ndarray | None, at: slice) -> np.ndarray:
    """The (y, u, mu1, mu2) rows of P^-1 rhs at the nodes ``at`` of a level,
    by the block elimination of :func:`_kkt_factors`; a solve's z rows
    follow from its mu rows.  ``rhs`` is node-last, (4n + m, c, nodes at
    ``at`` or 1), and the solution (3n + m, c, .) is as wide as the widest
    input.  ``rhs=None`` is the identity, which gives the nodes' pivot
    inverses P^-1: on its unit columns, the steps up to y0 are written out
    block by block."""
    parts = [_nodes(factor, at) for factor in factors]
    hy, hz, cdt, bdt, hu_inv, ay_inv, d_inv, k2d, inv_y = parts
    n, m = len(cdt), len(hu_inv)
    # the rows of a right-hand side, or the columns of the identity
    y, z, u = slice(0, n), slice(n, 2 * n), slice(2 * n, 2 * n + m)
    mu1, mu2 = slice(2 * n + m, 3 * n + m), slice(3 * n + m, 4 * n + m)
    # g = Ay y0 = b_mu1 + dt C b_mu2 + dt B Hu^-1 b_u - K2 D^-1 (b_z - Hz b_mu2)
    if rhs is None:
        cols, width = 4 * n + m, max(part.shape[2] for part in parts)
        b_y = np.eye(n, cols)[..., None]
        g = np.zeros((n, cols, width))
        g[:, z] = -k2d
        _mul_last(bdt, hu_inv, out=g[:, u])
        g[:, mu1] = np.eye(n)[..., None]
        g[:, mu2] = cdt + _mul_last(k2d, hz)
    else:
        cols, width = rhs.shape[1], max(part.shape[2] for part in (rhs, *parts))
        b_y, b_2 = rhs[y], rhs[mu2]
        hb = _mul_last(hu_inv, rhs[u])
        c2 = rhs[z] - _mul_last(hz, b_2)
        e = _mul_last(d_inv, c2)
        g = rhs[mu1] + _mul_last(cdt, b_2) + _mul_last(bdt, hb) - _mul_last(k2d, c2)
    y0 = _mul_last(ay_inv, g)
    out = np.empty((3 * n + m, cols, width))
    _mul_last(inv_y, b_y - _mul_last(hy, y0), out=out)
    # plus (y0, Hu^-1 b_u, 0, e) on the solution's (y, u, mu1, mu2) rows
    out[:n] += y0
    if rhs is None:
        out[n:n + m, u] += hu_inv
        out[2 * n + m:, z] += d_inv
        out[2 * n + m:, mu2] -= _mul_last(d_inv, hz)
    else:
        out[n:n + m] += hb
        out[2 * n + m:] += e
    return out


def _kkt_tail_block(tree: ScenarioTree, coeffs: CoefficientSet, k: int) -> np.ndarray:
    """Level k's own block of the tail: mean cost weights and nu = p sum y."""
    n, m = coeffs.n, coeffs.m
    states = 2 * n + m
    blk = np.zeros((2 * states, 2 * states))
    for block, weight in zip((slice(0, n), slice(n, 2 * n), slice(2 * n, states)),
                             coeffs.mean_weights(k)):
        blk[block, block] = 2.0 * tree.dt * weight
    blk[:states, states:] = blk[states:, :states] = np.eye(states)
    return blk


def _fill(grid: ScenarioTree | WalkLattice, inv_yy: np.ndarray) -> np.ndarray:
    """The parents' fill F, (2n, 2n, parents), from the y rows of a level's
    P^-1 y columns, Y (n, n, nodes or 1).  A node's y enters its parent's
    (mu1, mu2) rows through E' = [-1/2, -(+/-1) / (2 sqrt(dt))], whose sign
    is the node's as a child, so F is the lift of [h | +/- h / sqrt(dt)]
    with h = -Y / 2.  E_k of +/- h is sqrt(dt) times the difference quotient
    of h, and the difference quotient of +/- h is E_k[h] / sqrt(dt), so F =
    [[E_k h, DQ h], [DQ h, E_k h / dt]] is lifted from h alone, with no sign
    on either layout, and is one node wide when Y is."""
    n = len(inv_yy)
    lifted = grid.lift(-0.5 * inv_yy)
    fill = np.empty((2 * n, 2 * n, lifted.shape[2]))
    fill[:, :n] = lifted
    fill[:n, n:] = lifted[n:]
    np.divide(lifted[:n], grid.dt, out=fill[n:, n:])
    return fill


def _solved_columns(rows: np.ndarray, passed: np.ndarray, means_rhs: np.ndarray,
                    mults_rhs: np.ndarray, out: np.ndarray) -> None:
    """Rows of a level's pivot inverse times its right-hand side columns [r |
    tail], into ``out``, from the known nonzero blocks: what the children
    pass up on the (mu1, mu2) rows for r and the tail of deeper levels, -dt
    [A_bar | C_bar | B_bar] on the mu1 rows for the level's own means, and
    ``mults_rhs`` = -p I on the state rows for its own multipliers.  That
    too is a product: a ufunc writing into these strided columns of a small
    level takes NumPy iterator buffers of 64 KiB per operand."""
    states, own = means_rhs.shape[1], passed.shape[1]
    mu1 = slice(states, states + means_rhs.shape[0])
    _mul_last(rows[:, states:], passed, out=out[:, :own])
    _mul_last(rows[:, mu1], means_rhs, out=out[:, own:own + states])
    _mul_last(rows[:, :states], mults_rhs, out=out[:, own + states:])


def _solve_sparse(tree: ScenarioTree, coeffs: CoefficientSet) -> tuple:
    """Optimal controls from the KKT system, by block elimination on the
    walk lattice when the data allow it, else on the tree.

    The route is decided by value: when the coefficients and the terminal
    value depend on the path only through W(t_k)
    (:meth:`.model.CoefficientSet.on_lattice` is not None and its xi is
    not None), so does every kept factor, every solved column and every
    leaves-first solution, and both of those passes run on the k + 1 nodes
    of each lattice level (:meth:`.tree.ScenarioTree.lattice`).  Otherwise
    they run on the 2**k nodes of the tree.  Per-node weights are the tree
    node's probability 2^-k either way, and every node sum counts each node
    as the tree nodes it stands for (:meth:`.tree.ScenarioTree.counted`).

    Forward, leaves first: each level's pivots are factored in one batch
    through their own checked n x n and m x m blocks (:func:`_kkt_factors`,
    refused as "KKT pivot ..." with the level).  Every block is node-last,
    (rows, cols, nodes).  A level's solved columns [r | tail of levels >=
    k], z rows aside, are formed _NODE_CHUNK nodes at a time from the
    chunk's pivot inverse P^-1 (:func:`_pivot_solve` of the identity) and
    the known nonzero blocks of the level's right-hand side, which is never
    assembled: r and the tail of deeper levels are what the children pass
    up on the (mu1, mu2) rows, the level's own means enter the mu1 rows
    through A_bar, C_bar and B_bar, and its own multipliers the state rows.
    The eliminated nodes pass a Schur update to their parents' (mu1, mu2)
    rows: the fill, from the y rows of P^-1's y columns (:func:`_fill`),
    and the lift of the solved columns' y rows (:meth:`.tree._Walk.lift`); they add
    their node sums to the dense tail.  A node at level k couples only to
    tail columns of levels >= k, so no node holds a full-width block.  The
    y rows of the solved columns are kept for the whole level, since they
    become the parents' passed columns; the (mu1, mu2) rows enter only node
    sums (the z and u rows' sums follow from them, and those rows are never
    formed), and the chunk's P^-1 only the chunk's columns, so both are
    dropped with the chunk.  A level keeps only its factors (the inverses of
    N, I - dt A and D, K2 D^-1 with K2 = F12 + dt C F22, and P^-1's y
    columns, each at the width of its data) and its -dt [A_bar | C_bar |
    B_bar].

    After one tail solve, the back-substitution takes two passes over the
    factors.  Leaves first, on the elimination's layout, level k's
    right-hand side at the solved means, v_k = [r] - [tail] means, is p
    times the level's own multipliers on the state rows, the lift of the
    children's y rows of P^-1 v (of xi at the deepest level) on the (mu1,
    mu2) rows, less -dt [A_bar | C_bar | B_bar] times the level's own means
    on the mu1 rows; P^-1 v_k (:func:`_pivot_solve`, _NODE_CHUNK nodes at a
    time) gives the y rows to lift and the (u, mu1, mu2) rows to keep.  Root
    first, on the tree, since the parents' multipliers depend on the path,
    each node subtracts the (u, mu1, mu2) rows of P^-1's y columns times its
    parent's multipliers as they enter its y rows, -mu1 / 2 - (+/-1) mu2 /
    (2 sqrt(dt)) stepped to the children (:meth:`.tree.ScenarioTree.children`),
    and emits u; on the lattice both are first gathered to the level's tree
    nodes (:meth:`.tree.ScenarioTree.gather`).

    A tail that is not finite or is numerically singular (condition number
    above 1 / machine epsilon) raises NumericsError
    (:func:`.bsde.checked_dense_sv`); below that, the gradient certificate
    of :func:`solve_oracle` judges the answer.  Returns (controls, smallest
    singular value of the tail, number of nodes the elimination ran on).
    """
    lattice = coeffs.on_lattice(tree)
    on_lattice = lattice is not None and lattice.xi is not None
    grid, data = (tree.lattice(), lattice) if on_lattice else (tree, coeffs)
    n, m, n_steps, dt = coeffs.n, coeffs.m, tree.n_steps, tree.dt
    states = 2 * n + m
    mu1, mu = slice(states, 3 * n + m), slice(states, 4 * n + m)
    width = 2 * states                      # tail columns per level
    # The tail runs from the deepest level to the root, so the columns of
    # levels >= k are the first (n_steps - k) * width.  What a level's
    # eliminated children pass up on its (mu1, mu2) rows is the fill of its
    # pivots and the columns [r | tail of levels > k]; the leaves pass no
    # fill, and their r is the terminal value.
    tail = np.zeros((n_steps * width, n_steps * width))
    tail_rhs = np.zeros(n_steps * width)
    fill = np.zeros((2 * n, 2 * n, 1))
    xi_lift = grid.lift(data.xi.T[:, None, :])
    passed = xi_lift
    pivots = [None] * n_steps               # (factors, -dt [A_bar | C_bar | B_bar]) per level
    eliminated = 0
    for k in range(n_steps - 1, -1, -1):
        nodes, prob = passed.shape[2], tree.node_probability(k)
        eliminated += nodes
        hi = (n_steps - k) * width
        lo = hi - width                     # tail columns of levels > k
        own = 1 + lo                        # first of the level's own tail columns
        factors = _kkt_factors(tree, data, k, fill)
        # the own mean columns' right-hand side on the mu1 rows, -dt [A_bar |
        # C_bar | B_bar], as wide as the widest of the three, and the own
        # multiplier columns' on the state rows, -p I
        means_rhs = -dt * _last(_concat_nodes(
            [data.A_bar[k], data.C_bar[k], data.B_bar[k]], axis=2))
        mults_rhs = -prob * np.eye(states)[..., None]
        pivots[k] = factors, means_rhs

        # The solved columns [r | tail], z rows aside, one node chunk at a
        # time.  Their y rows are kept for the whole level (`head`), to be
        # lifted to the parents.  Their node sums and the tail update, the
        # node sum of (tail columns of the right-hand side)' (solved columns
        # [r | tail]), come from the nonzero rows only, each node counted as
        # the tree nodes it stands for: the passed columns meet the (mu1,
        # mu2) rows in one GEMM per row over the chunk's nodes, the own mean
        # columns the mu1 rows through -dt [A_bar | C_bar | B_bar] (a node
        # sum when that is one node wide), and the own multiplier columns are
        # -p times the node sums of the state rows.  The z and u rows are not
        # formed: their sums come from the (mu1, mu2) rows, z = b_mu2 - F21
        # mu1 - F22 mu2 and u = Hu^-1 (b_u + dt B' mu1), by one contraction
        # over (q, nodes) each, or by a product with the node sums when F or
        # Hu^-1 dt B' is one node wide.
        hu_b = _mul_last(factors.hu_inv, factors.bdt.swapaxes(0, 1))      # Hu^-1 dt B'
        head = np.empty((n, own + width, nodes))
        sums = np.zeros((4 * n + m, 1 + hi))
        update = np.zeros((hi, 1 + hi))
        product = np.empty((lo, 1 + hi))
        for chunk in range(0, nodes, _NODE_CHUNK):
            at = slice(chunk, min(chunk + _NODE_CHUNK, nodes))
            # at full chunk width, so that no product writes a flat GEMM into
            # the strided chunk of `head`
            inv = np.broadcast_to(_pivot_solve(factors, None, at),
                                  (3 * n + m, 4 * n + m, at.stop - at.start))
            blocks = passed[..., at], _nodes(means_rhs, at), mults_rhs
            _solved_columns(inv[:n], *blocks, head[..., at])
            kept = np.empty((2 * n, own + width, at.stop - at.start))   # the (mu1, mu2) rows
            _solved_columns(inv[n + m:], *blocks, kept)
            del inv, blocks
            kept = grid.counted(kept, k, at)
            sums[mu] += kept.sum(axis=2)
            kept_t = kept.transpose(0, 2, 1)                # (2n, chunk, 1 + hi)
            if fill.shape[2] > 1:
                sums[n:2 * n] -= np.matmul(fill[n:, :, at].transpose(1, 0, 2),
                                           kept_t).sum(axis=0)
            if hu_b.shape[2] > 1:
                sums[2 * n:states] += np.matmul(hu_b[..., at].transpose(1, 0, 2),
                                                kept_t[:n]).sum(axis=0)
            for q in range(2 * n if lo else 0):
                update[:lo] += np.matmul(passed[q, 1:, at], kept[q].T, out=product)
            if means_rhs.shape[2] > 1:
                update[lo:lo + states] += np.matmul(means_rhs[..., at], kept_t[:n]).sum(axis=0)
            del kept, kept_t
        grid.counted(head, k).sum(axis=2, out=sums[:n])
        if fill.shape[2] == 1:
            sums[n:2 * n] = -(fill[n:, :, 0] @ sums[mu])
        sums[n:2 * n, :own] += grid.counted(passed[n:], k).sum(axis=2)
        if hu_b.shape[2] == 1:
            sums[2 * n:states] = hu_b[:, :, 0] @ sums[mu1]
        hu_inv = factors.hu_inv                 # times b_u = -p I on the own nu3 columns
        sums[2 * n:states, own + states + 2 * n:] -= prob * (
            grid.counted(hu_inv, k).sum(axis=2) if hu_inv.shape[2] > 1
            else tree.n_nodes(k) * hu_inv[:, :, 0])
        if means_rhs.shape[2] == 1:
            update[lo:lo + states] = means_rhs[:, :, 0].T @ sums[mu1]
        update[lo + states:] = -prob * sums[:states]
        tail[lo:hi, lo:hi] += _kkt_tail_block(tree, coeffs, k)
        tail_rhs[:hi] -= update[:, 0]
        tail[:hi, :hi] -= update[:, 1:]
        del fill, passed
        if k > 0:
            fill, passed = _fill(grid, factors.inv_y[:n]), grid.lift(head)
        del factors, head

    # a singular mean-closing matrix makes the tail singular: refuse it by name
    implicit_steps(tree, coeffs)
    min_sv = checked_dense_sv(tail, "KKT tail of level means and their multipliers")
    means = np.linalg.solve(tail, tail_rhs)

    # leaves first: one right-hand side per level at the solved means
    partial = [None] * n_steps              # (u, mu1, mu2) rows of P^-1 v
    lifted = xi_lift
    for k in range(n_steps - 1, -1, -1):
        factors, means_rhs = pivots[k]
        nodes, prob = lifted.shape[2], tree.node_probability(k)
        lo = (n_steps - k - 1) * width
        own_means, own_nu = means[lo:lo + states], means[lo + states:lo + width]
        means_term = _mul_last(means_rhs, own_means[:, None, None])
        ys, partial[k] = np.empty((n, 1, nodes)), np.empty((2 * n + m, nodes))
        for chunk in range(0, nodes, _NODE_CHUNK):
            at = slice(chunk, min(chunk + _NODE_CHUNK, nodes))
            rhs = np.empty((4 * n + m, 1, at.stop - at.start))
            rhs[:states] = prob * own_nu[:, None, None]
            rhs[mu] = lifted[..., at]
            rhs[mu1] -= _nodes(means_term, at)
            sol = _pivot_solve(factors, rhs, at)
            ys[..., at], partial[k][:, at] = sol[:n], sol[n:, 0]
            del rhs, sol
        if k > 0:
            lifted = grid.lift(ys)
        del ys

    # root first, on the tree: the parents' multipliers enter the y rows
    # through E', stepped to their children as -mu1 / 2 -/+ mu2 / (2 sqrt(dt))
    controls, parent = [], None
    for k in range(n_steps):
        node, inv_y = partial[k], pivots[k][0].inv_y[n:]
        if on_lattice:
            node = tree.gather(node.T, k).T
            inv_y = tree.gather(inv_y.transpose(2, 0, 1), k).transpose(1, 2, 0)
        if k > 0:
            e_prime = tree.children(-0.5 * parent[:n].T, parent[n:].T / (-2.0 * tree.sqrt_dt))
            node -= _mul_last(inv_y, e_prime.T[:, None])[:, 0]
        pivots[k] = partial[k] = None
        controls.append(node[:m].T.copy())
        parent = node[m:]
    return controls, min_sv, eliminated


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
    min_kkt_tail_sv: float | None   # smallest singular value of the sparse
                                    # route's KKT tail; None on the dense route
    elimination_nodes: int | None   # nodes the sparse elimination ran on, lattice
                                    # or tree; None on the dense route


def solve_oracle(tree: ScenarioTree, coeffs: CoefficientSet,
                 method: str = "sparse") -> OracleSolution:
    """Solve the discrete problem head-on and certify first-order optimality.

    ``method="dense"`` solves through the reduced Hessian instead of the
    sparse KKT system; it is a cross-check for small trees and raises
    SizeCapError above DENSE_SIZE_CAP control unknowns."""
    if method == "dense":
        u, tail_sv, eliminated = _solve_dense(tree, coeffs), None, None
    elif method == "sparse":
        u, tail_sv, eliminated = _solve_sparse(tree, coeffs)
    else:
        raise ValueError(f"unknown oracle method {method!r}")

    sol = solve_meanfield_bsde(tree, coeffs, u)
    cost = cost_of_solution(tree, coeffs, u, sol)
    grad_norm = gradient_dual_norm(tree, cost_gradient(tree, coeffs, u, sol))
    del sol   # the state at u is not held while the zero control's is solved
    grad0 = gradient_dual_norm(
        tree, cost_gradient(tree, coeffs, zero_controls(tree, coeffs.m)))
    certified = grad_norm <= CERTIFICATE_TOL * (1.0 + grad0)
    if not certified:
        raise NumericsError(
            f"oracle certificate failed: |grad| = {grad_norm:.3e} "
            f"vs tolerance {CERTIFICATE_TOL * (1.0 + grad0):.3e}"
        )
    return OracleSolution(
        u=u, cost=cost, gradient_norm=grad_norm, grad0_norm=grad0,
        certified=certified, method=method, min_kkt_tail_sv=tail_sv,
        elimination_nodes=eliminated,
    )


def weighted_hessian_eigenvalues(tree: ScenarioTree,
                                 coeffs: CoefficientSet) -> np.ndarray:
    """Eigenvalues of the cost Hessian in the weighted control geometry.

    For a cost with no state feedback (B = 0, N = I) these are exactly 2,
    which pins the normalization used by the convexity margin.  The Hessian
    is assembled densely, so trees above DENSE_SIZE_CAP control unknowns
    raise SizeCapError."""
    hess = _reduced_hessian(tree, coeffs)
    scale = 1.0 / np.sqrt(control_weights(tree, coeffs.m))
    return np.linalg.eigvalsh(2.0 * hess * scale[:, None] * scale[None, :])
