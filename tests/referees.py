"""Referees that only the tests use: the plain feedback control, the
defects of a reconstructed solution, directional derivatives of the cost,
the stacking of per-level blocks into a means/multiplier vector, and the
Riccati Newton matrix formed by Kronecker products."""

from __future__ import annotations

import math

import numpy as np

from mfbslq.multipliers import eta_dimension, solve_decoupled, split_blocks
from mfbslq.oracle import cost_gradient, evaluate_cost, stack_controls
from mfbslq.tree import _mv


def pack_blocks(a: np.ndarray, b: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Stack per-level (y, z, u) blocks as [y-block | z-block | u-block]."""
    return np.concatenate([a.ravel(), b.ravel(), g.ravel()])


def riccati_control(tree, coeffs, ric) -> list:
    """Unconstrained feedback control (zero multipliers, zero target means).
    With all barred coefficients zero this is the classical Riccati control."""
    zero = np.zeros(eta_dimension(tree, coeffs))
    return solve_decoupled(tree, coeffs, ric, zero, zero).u


def decoupling_residual(tree, coeffs, ric, sol) -> dict:
    """How far the reconstructed (y, z, u) is from solving the discrete
    backward recursion it represents.

    Two defects are reported in the probability-and-dt weighted rms norm
    (the same norm used for control errors): the state-recursion residual
    and the martingale-representation defect z - z_from_next(y).  Both are
    first order in the step size for a consistent reconstruction, re-solved
    by :func:`.multipliers.solve_decoupled` at sol's (lam, eta).
    """
    fields = solve_decoupled(tree, coeffs, ric, sol.lam, sol.eta)
    alpha, beta, gamma = split_blocks(sol.eta, tree, coeffs)
    eye = np.eye(coeffs.n)
    y_sq = 0.0
    z_sq = 0.0
    for k in range(tree.n_steps):
        weight = tree.dt * tree.node_probability(k)
        lhs = _mv(eye[None] - tree.dt * coeffs.A[k], fields.y[k])
        rhs = tree.cond_expect(fields.y[k + 1]) + tree.dt * (
            _mv(coeffs.B[k], fields.u[k]) + _mv(coeffs.C[k], fields.z[k])
            + coeffs.A_bar[k] @ alpha[k] + coeffs.B_bar[k] @ gamma[k]
            + coeffs.C_bar[k] @ beta[k]
        )
        y_sq += weight * float(((lhs - rhs) ** 2).sum())
        z_sq += weight * float(
            ((fields.z[k] - tree.z_from_next(fields.y[k + 1])) ** 2).sum())
    return {"y_recursion": math.sqrt(y_sq), "z_defect": math.sqrt(z_sq),
            "combined": math.sqrt(y_sq + z_sq)}


def directional_derivative(tree, coeffs, controls: list, direction: list) -> float:
    """Exact derivative of the cost along a control direction: the exact
    gradient paired with it (the state map is affine, so no truncation)."""
    grad = cost_gradient(tree, coeffs, controls)
    return float(stack_controls(grad) @ stack_controls(direction))


def directional_derivative_fd(tree, coeffs, controls: list, direction: list) -> float:
    """Central difference with step 1e-3 (exact up to rounding: the cost
    is quadratic)."""
    step = 1e-3
    up = [u + step * v for u, v in zip(controls, direction)]
    dn = [u - step * v for u, v in zip(controls, direction)]
    return (evaluate_cost(tree, coeffs, up) - evaluate_cost(tree, coeffs, dn)) / (2 * step)


def kron_newton_matrix(P: np.ndarray, V: np.ndarray, dt: float) -> np.ndarray:
    """The Riccati Newton matrix I + dt (P(x)I + I(x)P - V(x)V) on the
    row-major vec of D, per node of the stacks (nodes, n, n), restricted to
    symmetric D by the duplication matrix: (nodes, p, p) on the upper
    triangle's p = n (n + 1) / 2 coordinates."""
    n = P.shape[-1]
    rows, cols = np.triu_indices(n)
    upper = rows * n + cols                 # row-major flat indices of the unknowns
    dup = np.eye(n * n)[:, upper]           # vec(D) = dup @ D.flat[upper], D symmetric
    dup[cols * n + rows, range(len(upper))] = 1.0
    eye = np.eye(n)[None]

    def kron(a, b):
        return (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(
            max(len(a), len(b)), n * n, n * n)

    jac = np.eye(n * n) + dt * (kron(P, eye) + kron(eye, P) - kron(V, V))
    return jac[:, upper] @ dup
