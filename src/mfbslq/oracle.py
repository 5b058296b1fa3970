"""Independent certification of optimal controls by direct quadratic programming.

This module never touches the Riccati/multiplier pipeline (it shares only
the tree's kernels, such as E[M' x], :func:`.tree._level_coupling`).  It treats the
discrete problem as the finite-dimensional convex program it is: the cost
is evaluated by actually solving the controlled mean-field BSDE, the
optimizer is found from the KKT system of the full discretization, and
optimality is certified with an exact discrete adjoint gradient that is
computed independently of the solve.  The KKT system is a tree of small
per-node blocks plus a dense tail of level means; the default ("sparse")
route eliminates the node blocks leaves first, one batch per level, each
block through its own n x n and m x m pivots (the control weight N, the
one-step matrix I - dt A, and two multiplier blocks that are of order one
at every depth), every one checked, and closes the tail with one
Schur-complement solve.  Its blocks are stored node-last, (rows, cols,
nodes), so every block entry is one contiguous vector over a level's nodes,
and a level's right-hand side is never assembled: the solved columns come
from its known nonzero blocks.  A dense route, which assembles the reduced
Hessian column by column, runs only when asked for and serves as a
cross-check of the sparse one on small trees.

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

import numpy as np

from ._errors import ConvexityError, NumericsError, SizeCapError
from .bsde import (MeanfieldBsdeSolution, checked_dense_sv, checked_inverse,
                   implicit_steps, solve_forward_sde, solve_meanfield_bsde)
from .model import CoefficientSet
from .tree import (ScenarioTree, _concat_nodes, _level_coupling, _mul, _mul_last,
                   _mv, _t, column_blocks)

DENSE_SIZE_CAP = 20000
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
        if k > 0:
            half = tree.sqrt_dt * tree.child_signs(k - 1)  # +/- sqrt(dt) per child
            r += 0.5 * tree.to_children(mu1_prev)
            r += (half / (2.0 * tree.dt))[:, None, None] * tree.to_children(mu2_prev)
        qb, rb, nb = coeffs.mean_weights(k)
        # mean-coupled multiplier solve:
        #   (I - dt A)' mu1 = r + p nu1,
        #   nu1 = -2 dt Qbar ybar + dt sum_j Abar' mu1_j (= dt 2^k E[Abar' mu1]),
        # closed by the transposed mean-closing matrix of the primal step
        resp = _t(steps.inverses[k])    # ((I - dt A)')^{-1}, checked once
        base = _mul(resp, r)
        s_base = dt * nodes * _level_coupling(coeffs.A_bar[k], base)
        g_ybar = 2.0 * dt * (qb @ sol.y_mean[k])
        nu1 = steps.closings[k].T @ (-g_ybar + s_base)
        mu1 = base + prob * _mul(resp, nu1)

        g_z = 2.0 * dt * prob * _mul(coeffs.R[k], sol.z[k])
        nu2 = (-2.0 * dt * (rb @ sol.z_mean[k])
               + dt * nodes * _level_coupling(coeffs.C_bar[k], mu1))
        mu2 = -g_z + dt * _mul(_t(coeffs.C[k]), mu1) + prob * nu2[None]

        g_u = 2.0 * dt * prob * _mul(coeffs.N[k], controls[k])
        nu3 = (-2.0 * dt * (nb @ sol.u_mean[k])
               + dt * nodes * _level_coupling(coeffs.B_bar[k], mu1))
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


def directional_derivative(tree: ScenarioTree, coeffs: CoefficientSet, controls: list,
                           direction: list) -> float:
    """Exact derivative of the cost along a control direction: the exact
    gradient paired with it (the state map is affine, so no truncation)."""
    grad = cost_gradient(tree, coeffs, controls)
    return float(stack_controls(grad) @ stack_controls(direction))


def directional_derivative_fd(tree: ScenarioTree, coeffs: CoefficientSet,
                              controls: list, direction: list) -> float:
    """Central difference with step 1e-3 (exact up to rounding: the cost
    is quadratic)."""
    step = 1e-3
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
        return -(_mv(_t(coeffs.A[k]), x) + _level_coupling(coeffs.A_bar[k], x)[None]
                 - _mv(coeffs.Q[k], sol.y[k]) - (qb @ sol.y_mean[k])[None])

    def diffusion(k: int, x: np.ndarray) -> np.ndarray:
        rb = weights[k][1]
        return -(_mv(_t(coeffs.C[k]), x) + _level_coupling(coeffs.C_bar[k], x)[None]
                 - _mv(coeffs.R[k], sol.z[k]) - (rb @ sol.z_mean[k])[None])

    x = solve_forward_sde(tree, x0, drift, diffusion)
    total = 0.0
    for k in range(tree.n_steps):
        nb = weights[k][2]
        res = (_mv(coeffs.N[k], controls[k]) + (nb @ sol.u_mean[k])[None]
               - _mv(_t(coeffs.B[k]), x[k])
               - _level_coupling(coeffs.B_bar[k], x[k])[None])
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
    hess += hess.T   # symmetric up to rounding; make both triangles agree
    hess *= 0.5
    return hess


def _solve_dense(tree: ScenarioTree, coeffs: CoefficientSet) -> list:
    # imported here, not at module level: SciPy takes longer to import than
    # a shallow solve takes to run, and no other route needs it
    import scipy.linalg

    hess = _reduced_hessian(tree, coeffs)
    lin = 0.5 * stack_controls(
        cost_gradient(tree, coeffs, zero_controls(tree, coeffs.m)))
    try:
        factor = scipy.linalg.cho_factor(hess)
    except np.linalg.LinAlgError as exc:
        raise ConvexityError(f"reduced Hessian is not positive definite: {exc}") from exc
    u_vec = scipy.linalg.cho_solve(factor, -lin)
    for _ in range(2):  # iterative refinement sharpens the certificate
        u_vec -= scipy.linalg.cho_solve(factor, hess @ u_vec + lin)
    return unstack_controls(u_vec, tree, coeffs.m)


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


def _last(level: np.ndarray) -> np.ndarray:
    """A node-first level (nodes, r, c) as a node-last view (r, c, nodes)."""
    return level.transpose(1, 2, 0)


def _checked_inverse_last(mats: np.ndarray, name: str, k: int) -> np.ndarray:
    """:func:`.bsde.checked_inverse` of a node-last stack, given its
    (nodes, p, p) view; the inverse comes back node-last and contiguous."""
    inv = checked_inverse(mats.transpose(2, 0, 1), name, k)[0]
    return np.ascontiguousarray(_last(inv))


def _kkt_pivot_inverse(tree: ScenarioTree, coeffs: CoefficientSet, k: int,
                       fill: np.ndarray) -> np.ndarray:
    """The (y, u, mu1, mu2) rows of the inverses of level k's KKT pivots,
    node-last (3n + m, 4n + m, nodes), by block elimination through four
    checked n x n or m x m pivots; a solve's z rows follow from its mu rows.

    With w = 2 dt 2^-k, Hy = w Q (+ 2G at the root), Hz = w R, Hu = w N,
    Ay = I - dt A and the children's fill F = [[F11, F12], [F21, F22]] on
    the (mu1, mu2) rows (node-last, (2n, 2n, nodes)), a node's pivot is

                y       z       u      mu1     mu2
        y   [   Hy                      Ay'          ]
        z   [           Hz             -dt C'    I   ]
        u   [                   Hu     -dt B'        ]
        mu1 [   Ay    -dt C   -dt B     F11     F12  ]
        mu2 [            I              F21     F22  ]

    and a right-hand side b is solved by
      u = Hu^-1 (b_u + dt B' mu1)                        pivot N,
      z = b_mu2 - F21 mu1 - F22 mu2                      pivot I,
      y = Ay^-1 (g1 - K1 mu1 - K2 mu2)                   pivot I - dt A,
    with g1 = b_mu1 + dt C b_mu2 + dt B Hu^-1 b_u, K1 = F11 + dt C F21 -
    dt^2 B Hu^-1 B' and K2 = F12 + dt C F22; the y and z rows then leave
    [[S11, S12], [S21, D]] (mu1, mu2) = (b_y - Hy Ay^-1 g1, b_z - Hz b_mu2)
    with S11 = Ay' - Hy Ay^-1 K1, S12 = -Hy Ay^-1 K2, S21 = -Hz F21 - dt C'
    and D = I - Hz F22, solved through D and its Schur complement
    S = S11 - S12 D^-1 S21.  A convex subtree's fill is negative
    semidefinite, so D's eigenvalues are at least 1, and with the other
    three pivots regular S is regular exactly when the block is.  All four
    are of order one at every depth, and each is checked by
    :func:`.bsde.checked_inverse` under the name "KKT pivot ...".  The
    inverse is these steps applied to the identity.  The coefficients enter
    as node-last views, and every product is :func:`.tree._mul_last`, so
    the inverse is as wide as its widest input: one node when the
    coefficients and the fill are node-constant."""
    n, m, dt = coeffs.n, coeffs.m, tree.dt
    states = 2 * n + m
    y, z, u = slice(0, n), slice(n, 2 * n), slice(2 * n, states)
    mu1, mu2 = slice(states, 3 * n + m), slice(3 * n + m, 4 * n + m)
    weight = 2.0 * dt * tree.node_probability(k)
    eye = np.eye(n)[..., None]
    hy = weight * _last(coeffs.Q[k]) + (2.0 * coeffs.G[..., None] if k == 0 else 0.0)
    hz = weight * _last(coeffs.R[k])
    ay = eye - dt * _last(coeffs.A[k])
    cdt, bdt = dt * _last(coeffs.C[k]), dt * _last(coeffs.B[k])
    cdt_t, bdt_t = cdt.swapaxes(0, 1), bdt.swapaxes(0, 1)
    f_y, f_z = fill[y], fill[z]                     # [F11 F12], [F21 F22]

    hu_inv = _checked_inverse_last(_last(coeffs.N[k]), "KKT pivot N", k) / weight
    ay_inv = _checked_inverse_last(ay, "KKT pivot I - dt A", k)
    bh = _mul_last(bdt, hu_inv)                     # dt B Hu^-1
    k12 = f_y + _mul_last(cdt, f_z)                 # [K1 | K2], K1 still without its B term
    k1 = k12[:, y] - _mul_last(bh, bdt_t)
    k2 = k12[:, z]
    lay = _mul_last(hy, ay_inv)                     # Hy Ay^-1
    hz_f = _mul_last(hz, f_z)                       # Hz [F21 F22]
    d_inv = _checked_inverse_last(eye - hz_f[:, z], "KKT pivot D = I - w R F22", k)
    x = _mul_last(_mul_last(lay, k2), d_inv)        # -S12 D^-1
    s21 = -hz_f[:, y] - cdt_t
    s_inv = _checked_inverse_last(
        ay.swapaxes(0, 1) - _mul_last(lay, k1) + _mul_last(x, s21),
        "KKT pivot S (Schur complement of D)", k)

    # S depends on every input, so it is as wide as the widest of them
    inv = np.empty((3 * n + m, 4 * n + m, s_inv.shape[2]))
    ry, ru, r1, r2 = np.split(inv, [n, n + m, 2 * n + m])
    # mu1 = S^-1 (b_y - Hy Ay^-1 g1 + x (b_z - Hz b_mu2))
    sl = _mul_last(s_inv, lay)
    r1[:, y] = s_inv
    _mul_last(s_inv, x, out=r1[:, z])
    r1[:, u] = -_mul_last(sl, bh)
    r1[:, mu1] = -sl
    r1[:, mu2] = -_mul_last(sl, cdt) - _mul_last(r1[:, z], hz)
    # mu2 = D^-1 (b_z - Hz b_mu2 - S21 mu1)
    _mul_last(-_mul_last(d_inv, s21), r1, out=r2)
    r2[:, z] += d_inv
    r2[:, mu2] -= _mul_last(d_inv, hz)
    # u and y from the multipliers, by the first and third steps
    _mul_last(_mul_last(hu_inv, bdt_t), r1, out=ru)
    ru[:, u] += hu_inv
    _mul_last(-ay_inv, _mul_last(k1, r1) + _mul_last(k2, r2), out=ry)
    ry[:, u] += _mul_last(ay_inv, bh)
    ry[:, mu1] += ay_inv
    ry[:, mu2] += _mul_last(ay_inv, cdt)
    return inv


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


def _lift(tree: ScenarioTree, child_rows: np.ndarray) -> np.ndarray:
    """Minus the sum of E over each parent's two children, applied to the
    children's y rows, node-last (n, c, 2**(k+1)): (E_k[.], difference
    quotient) stacked on the parents' (mu1, mu2) rows, (2n, c, 2**k).  The
    tree's operators run along the node axis of a transposed view."""
    rows = child_rows.T
    return np.concatenate([tree.cond_expect(rows).T, tree.z_from_next(rows).T])


def _solve_sparse(tree: ScenarioTree, coeffs: CoefficientSet) -> tuple:
    """Optimal controls from the KKT system, by block elimination on the tree.

    Forward, leaves first: each level's pivots are inverted in one batch by
    elimination through their own checked n x n and m x m blocks
    (:func:`_kkt_pivot_inverse`, refused as "KKT pivot ..." with the
    level).  Every block is node-last, (rows, cols, nodes).  A level's
    solved columns [E' (2n) | r | tail of levels >= k], z rows aside, are
    formed from the known nonzero blocks of its right-hand side,
    which is never assembled: E' is a multiple of the pivot inverse's y
    columns, r and the tail of deeper levels are what the children pass up
    on the (mu1, mu2) rows, the level's own means enter the mu1 rows through
    A_bar, C_bar and B_bar, and its own multipliers the state rows.  The
    eliminated nodes pass a Schur update to their parents' (mu1, mu2) rows
    (:func:`_lift`) and add their node sums to the dense tail.  A node at
    level k couples only to tail columns of levels >= k, so no node holds a
    full-width block.  Each level keeps the (u, mu1, mu2) rows of its solved
    columns in their own array; after one tail solve, a root-first
    back-substitution combines them with the tail solution and the parents'
    multipliers.  A tail that is not finite or is numerically singular
    (condition number above 1 / machine epsilon) raises NumericsError
    (:func:`.bsde.checked_dense_sv`); below that, the gradient certificate
    of :func:`solve_oracle` judges the answer.  Returns (controls, smallest
    singular value of the tail).
    """
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
    passed = _lift(tree, coeffs.xi.T[:, None, :])
    # E': a node's y enters its parent's (mu1, mu2) rows with -1/2 and
    # -(+/-1) / (2 sqrt(dt)).  The signs alternate, so each level's factors
    # are the first 2**k of the deepest level's.
    signs = tree.child_signs(max(n_steps - 2, 0))
    coupling = np.stack([np.full(len(signs), -0.5), signs / (-2.0 * tree.sqrt_dt)])[:, None]
    solved = [None] * n_steps               # (u, mu1, mu2) rows of each level
    for k in range(n_steps - 1, -1, -1):
        nodes, prob = tree.n_nodes(k), tree.node_probability(k)
        hi = (n_steps - k) * width
        lo = hi - width                     # tail columns of levels > k
        own = 2 * n + 1 + lo                # first of the level's own tail columns
        inv = _kkt_pivot_inverse(tree, coeffs, k, fill)
        # the own mean columns' right-hand side on the mu1 rows, -dt [A_bar |
        # C_bar | B_bar], as wide as the widest of the three
        means_rhs = -dt * _last(_concat_nodes(
            [coeffs.A_bar[k], coeffs.C_bar[k], coeffs.B_bar[k]], axis=2))

        head = np.empty((n, own + width, nodes))            # y rows
        kept = np.empty((m + 2 * n, own + width, nodes))    # (u, mu1, mu2) rows
        for rows, sol in ((inv[:n], head), (inv[n:], kept)):
            # the E' columns; the root has no parent
            np.multiply(rows[:, None, :n], coupling[..., :nodes] if k > 0 else 0.0,
                        out=sol[:, :2 * n].reshape(len(sol), 2, n, nodes, copy=False))
            _mul_last(rows[:, mu], passed, out=sol[:, 2 * n:own])
            _mul_last(rows[:, mu1], means_rhs, out=sol[:, own:own + states])
            np.multiply(rows[:, :states], -prob, out=sol[:, own + states:])
        # node sums of the [r | tail] columns; those of the z rows, z = b_mu2
        # - F21 mu1 - F22 mu2, by one contraction over (q, nodes)
        kept_mu = kept[m:, 2 * n:].transpose(0, 2, 1)      # (2n, nodes, 1 + hi)
        sums = np.empty((4 * n + m, 1 + hi))
        head[:, 2 * n:].sum(axis=2, out=sums[:n])
        kept[:, 2 * n:].sum(axis=2, out=sums[2 * n:])
        sums[n:2 * n] = -(fill[n:, :, 0] @ sums[mu] if fill.shape[2] == 1 else
                          np.matmul(fill[n:].transpose(1, 0, 2), kept_mu).sum(axis=0))
        sums[n:2 * n, :1 + lo] += passed[n:].sum(axis=2)

        # the tail update, the node sum of (tail columns of the right-hand
        # side)' (solved columns [r | tail]), from the nonzero rows only: the
        # passed columns meet the (mu1, mu2) rows in one GEMM per row over the
        # nodes, the own mean columns the mu1 rows through -dt [A_bar | C_bar |
        # B_bar] (a node sum when that is one node wide), and the own
        # multiplier columns are -p times the node sums of the state rows
        update = np.empty((hi, 1 + hi))
        update[:lo] = np.matmul(passed[:, 1:], kept_mu).sum(axis=0)
        update[lo:lo + states] = (means_rhs[:, :, 0].T @ sums[mu1] if means_rhs.shape[2] == 1 else
                                  np.matmul(means_rhs, kept_mu[:n]).sum(axis=0))
        update[lo + states:] = -prob * sums[:states]
        tail[lo:hi, lo:hi] += _kkt_tail_block(tree, coeffs, k)
        tail_rhs[:hi] -= update[:, 0]
        tail[:hi, :hi] -= update[:, 1:]
        if k > 0:
            lifted = _lift(tree, head)
            fill, passed = lifted[:, :2 * n], lifted[:, 2 * n:]
        solved[k] = kept
        del inv, head

    # a singular mean-closing matrix makes the tail singular: refuse it by name
    implicit_steps(tree, coeffs)
    min_sv = checked_dense_sv(tail, "KKT tail of level means and their multipliers")
    means = np.linalg.solve(tail, tail_rhs)

    controls, parent = [], None
    for k in range(n_steps):
        kept = solved[k]
        node = kept[:, 2 * n] - means[:(n_steps - k) * width] @ kept[:, 2 * n + 1:]
        if k > 0:
            children = np.repeat(parent, 2, axis=1)[:, None]   # parents' (mu1, mu2)
            node -= _mul_last(kept[:, :2 * n], children)[:, 0]
        controls.append(node[:m].T.copy())
        parent = node[m:]
    return controls, min_sv


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


def solve_oracle(tree: ScenarioTree, coeffs: CoefficientSet,
                 method: str = "sparse") -> OracleSolution:
    """Solve the discrete problem head-on and certify first-order optimality.

    ``method="dense"`` solves through the reduced Hessian instead of the
    sparse KKT system; it is a cross-check for small trees and raises
    SizeCapError above DENSE_SIZE_CAP control unknowns."""
    if method == "dense":
        u, tail_sv = _solve_dense(tree, coeffs), None
    elif method == "sparse":
        u, tail_sv = _solve_sparse(tree, coeffs)
    else:
        raise ValueError(f"unknown oracle method {method!r}")

    sol = solve_meanfield_bsde(tree, coeffs, u)
    cost = cost_of_solution(tree, coeffs, u, sol)
    grad_norm = gradient_dual_norm(tree, cost_gradient(tree, coeffs, u, sol))
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
