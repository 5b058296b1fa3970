"""Linear forward and backward equations on the scenario tree.

Everything here works level-by-level on flat per-level arrays.  A process
is represented as a list indexed by level: entry k is an array of shape
(2**k, dim) (or (2**k, dim, dim) for matrix processes).

Backward equations are solved with an implicit step in the node-local
drift and an exact conditional expectation down the tree; the mean-field
coupling through E[Y_k] is resolved by a single dim-sized linear solve per
level (the per-node solves are batched).  The martingale term is recovered
from the next level by the two-point difference quotient, which is exact
on a binary tree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import CoefficientSet
from .tree import ScenarioTree, _mv


def solve_forward_sde(tree: ScenarioTree, initial: np.ndarray, drift, diffusion) -> list:
    """Integrate dX = -drift(t, X) ds - diffusion(t, X) dW forward on the tree.

    ``drift(k, x)`` and ``diffusion(k, x)`` receive the level index and the
    level-k values of shape (2**k, dim) and must return arrays of the same
    shape.  Returns the list of levels 0..n_steps.  The sign convention
    matches the backward-equation family this module solves: to integrate
    dX = +b ds + s dW, pass callbacks returning -b and -s.
    """
    x0 = np.asarray(initial, dtype=float).reshape(1, -1)
    levels = [x0]
    for k in range(tree.n_steps):
        x = levels[k]
        b = drift(k, x)
        s = diffusion(k, x)
        dw = tree.sqrt_dt * tree.child_signs(k)
        nxt = tree.to_children(x - tree.dt * b) - dw[:, None] * tree.to_children(s)
        levels.append(nxt)
    return levels


@dataclass
class MeanfieldBsdeSolution:
    """State/martingale pair of a mean-field linear BSDE, with level means."""

    y: list          # levels 0..n_steps, (2**k, n)
    z: list          # levels 0..n_steps - 1, (2**k, n)
    y_mean: np.ndarray   # (n_steps + 1, n)
    z_mean: np.ndarray   # (n_steps, n)
    u_mean: np.ndarray   # (n_steps, m)


def solve_meanfield_bsde(tree: ScenarioTree, coeffs: CoefficientSet, controls: list,
                         terminal: np.ndarray | None = None) -> MeanfieldBsdeSolution:
    """Solve the controlled mean-field BSDE

        dY = -{A Y + A_bar E[Y] + B u + B_bar E[u] + C Z + C_bar E[Z]} ds + Z dW,
        Y(T) = terminal (defaults to coeffs.xi),

    for a given control process.  One implicit step per level:

        (I - dt A) Y_k = E_k[Y_{k+1}] + dt (A_bar y_mean + B u + B_bar u_mean
                                            + C Z_k + C_bar z_mean),

    where Z_k is recovered from Y_{k+1} first and the unknown level mean
    y_mean = E[Y_k] is eliminated by an n-dimensional solve.
    """
    n, n_steps = coeffs.n, tree.n_steps
    dt = tree.dt
    eye = np.eye(n)
    xi = coeffs.xi if terminal is None else terminal

    y: list = [None] * (n_steps + 1)
    z: list = [None] * n_steps
    y_mean = np.empty((n_steps + 1, n))
    z_mean = np.empty((n_steps, n))
    u_mean = np.empty((n_steps, coeffs.m))

    y[n_steps] = xi
    y_mean[n_steps] = tree.expect(xi)
    for k in range(n_steps - 1, -1, -1):
        y_next = y[k + 1]
        zk = tree.z_from_next(y_next)
        cond = tree.cond_expect(y_next)
        zbar = tree.expect(zk)
        uk = controls[k]
        ubar = tree.expect(uk)
        rhs = cond + dt * (
            _mv(coeffs.B[k], uk) + coeffs.B_bar[k] @ ubar
            + _mv(coeffs.C[k], zk) + coeffs.C_bar[k] @ zbar
        )
        lhs = eye[None] - dt * coeffs.A[k]
        # Solve (I - dt A) [y | M] = [rhs | dt A_bar] in one batched call:
        # Y_j = base_j + mean_op_j @ y_mean, then close the mean equation.
        aug = np.concatenate([rhs[:, :, None], dt * coeffs.A_bar[k]], axis=2)
        sol = np.linalg.solve(lhs, aug)
        base, mean_op = sol[:, :, 0], sol[:, :, 1:]
        prob = tree.node_probability(k)
        ybar = np.linalg.solve(eye - prob * mean_op.sum(axis=0),
                               prob * base.sum(axis=0))
        y[k] = base + mean_op @ ybar
        z[k] = zk
        y_mean[k] = ybar
        z_mean[k] = zbar
        u_mean[k] = ubar
    return MeanfieldBsdeSolution(y, z, y_mean, z_mean, u_mean)
