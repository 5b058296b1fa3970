"""Linear forward and backward equations on the scenario tree.

Everything here works level-by-level on flat per-level arrays.  A process
is represented as a list indexed by level: entry k is an array of shape
(2**k, dim) (or (2**k, dim, dim) for matrix processes), or of leading
length 1 when it is the same on every node of the level (the tree's
length-1 convention).  Coefficients stored once per level broadcast against
full levels, so a sweep's arrays are only as wide as their inputs.  Several
processes driven by the same coefficients can share one sweep: they are
stacked on a trailing column axis, (2**k, dim, c), and every per-node
product becomes a batched matrix product over the columns.  Solved from a
zero terminal value, a stack of controls gives the linear part of the state
map; the oracle's Hessian products are built on such sweeps.

Backward equations are solved with an implicit step in the node-local
drift and an exact conditional expectation down the tree; the mean-field
coupling through E[Y_k] is resolved by one checked dim-sized inverse per
level (the per-node solves are batched).  The martingale term is recovered
from the next level by the two-point difference quotient, which is exact
on a binary tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._errors import StepSizeError
from .model import CoefficientSet
from .tree import ScenarioTree, _mm, _t

# An inverted one-step matrix whose smallest singular value falls below this
# amplifies rounding errors by more than 1e6: the step is refused.
_MIN_STEP_SV = 1e-6


def _refuse_unless_regular(bound: float, what: str, name: str, level: int) -> None:
    if not _MIN_STEP_SV < bound < np.inf:
        raise StepSizeError(
            f"{name} is singular or not finite at level {level}: {what} "
            f"{bound:.3e} (needs > {_MIN_STEP_SV:.0e}); refine the time grid"
        )


def checked_inverse(mats: np.ndarray, name: str, level: int) -> tuple:
    """Invert one level's stack of per-node matrices after checking them.

    Returns (inverses, smallest singular value over the level's nodes).
    Raises StepSizeError naming the matrix, the level and the value when
    that singular value is below _MIN_STEP_SV or not finite."""
    min_sv = float(np.sqrt(max(
        float(np.linalg.eigvalsh(_t(mats) @ mats)[:, 0].min()), 0.0)))
    _refuse_unless_regular(min_sv, "smallest singular value", name, level)
    return np.linalg.inv(mats), min_sv


def bounded_inverse(mats: np.ndarray, name: str, level: int) -> np.ndarray:
    """Invert a stack like :func:`checked_inverse`, for matrices whose
    smallest singular value is not reported.

    The check uses 1 / |M^-1|_F, a lower bound on the smallest singular
    value (within a factor sqrt(p) of it for p x p matrices) that costs
    nothing once the inverse exists, so it refuses everything the exact
    check refuses.  An inverse that fails or is not finite is refused too."""
    try:
        inv = np.linalg.inv(mats)
    except np.linalg.LinAlgError:
        bound = 0.0
    else:
        # a zero or NaN norm only comes from non-finite entries: bound = inf
        norm = float(np.sqrt(np.max(np.sum(inv * inv, axis=(-2, -1)))))
        bound = 1.0 / norm if norm > 0.0 else np.inf
    _refuse_unless_regular(bound, "singular-value bound 1/|M^-1|_F", name, level)
    return inv


class ImplicitSteps(NamedTuple):
    """The checked one-step inverses of the backward step, per level."""

    inverses: tuple        # (I - dt A)^{-1}, (2**k or 1, n, n)
    mean_ops: tuple        # dt (I - dt A)^{-1} A_bar, (2**k or 1, n, n)
    closings: tuple        # (I - dt E_k[(I - dt A)^{-1} A_bar])^{-1}, (n, n)
    min_step_sv: float     # smallest singular value of I - dt A
    min_closing_sv: float  # smallest singular value of the mean-closing matrix


def implicit_steps(tree: ScenarioTree, coeffs: CoefficientSet) -> ImplicitSteps:
    """Per-level inverses of the backward step's node matrix I - dt A and of
    its mean-closing matrix I - dt E_k[(I - dt A)^{-1} A_bar], which fixes
    the level mean E[Y_k].  Both are checked by :func:`checked_inverse`.

    Depends on the coefficients only, so it is computed once per
    coefficient set and time step and cached on the set."""
    key = ("implicit_steps", tree.dt)
    cached = coeffs._cache.get(key)
    if cached is None:
        eye, levels = np.eye(coeffs.n), []
        for k in range(tree.n_steps):
            inv, step_sv = checked_inverse(eye[None] - tree.dt * coeffs.A[k],
                                           "I - dt A", k)
            mean_op = tree.dt * (inv @ coeffs.A_bar[k])
            closing, closing_sv = checked_inverse(
                (eye - tree.expect(mean_op))[None],
                "mean-closing matrix I - dt E[(I - dt A)^-1 A_bar]", k)
            levels.append((inv, mean_op, closing[0], step_sv, closing_sv))
        inverses, mean_ops, closings, step_svs, closing_svs = zip(*levels)
        cached = coeffs._cache[key] = ImplicitSteps(
            inverses, mean_ops, closings, min(step_svs), min(closing_svs))
    return cached


def forward_levels(tree: ScenarioTree, initial: np.ndarray, drift, diffusion):
    """Integrate dX = -drift(t, X) ds - diffusion(t, X) dW forward on the tree,
    yielding levels 0..n_steps one at a time; a level is computed only when
    the next one is asked for.

    ``initial`` has shape (dim,) or (dim, c).  ``drift(k, x)`` and
    ``diffusion(k, x)`` receive the level index and the level-k values of
    shape (2**k, dim) (or (2**k, dim, c)) and return arrays of that shape,
    or of leading length 1 when the same on every node.  The sign
    convention matches the backward-equation family this module solves: to
    integrate dX = +b ds + s dW, pass callbacks returning -b and -s.
    """
    x = np.atleast_1d(np.asarray(initial, dtype=float))[None]
    for k in range(tree.n_steps):
        yield x
        step = x - tree.dt * drift(k, x)
        shock = tree.sqrt_dt * diffusion(k, x)
        nxt = np.empty((2 * len(x),) + x.shape[1:])
        np.subtract(step, shock, out=nxt[0::2])   # up child, dW = +sqrt(dt)
        np.add(step, shock, out=nxt[1::2])        # down child, dW = -sqrt(dt)
        x = nxt
    yield x


def solve_forward_sde(tree: ScenarioTree, initial: np.ndarray, drift, diffusion) -> list:
    """The list of levels 0..n_steps of :func:`forward_levels`."""
    return list(forward_levels(tree, initial, drift, diffusion))


@dataclass
class MeanfieldBsdeSolution:
    """State/martingale pair of a mean-field linear BSDE, with level means.

    Solved column stacks keep their trailing column axis on every field."""

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
    y_mean = E[Y_k] is eliminated by the checked inverse of the n x n
    mean-closing matrix (:func:`implicit_steps`).

    Controls are per-level arrays (2**k, m), or (2**k, m, c) to solve c
    controls in one sweep; the terminal is then (2**n_steps, n, c), or 2-D
    to serve every column.  A single control runs as one column.
    """
    single = controls[0].ndim == 2
    stacked = [u[..., None] for u in controls] if single else controls
    xi = np.asarray(coeffs.xi if terminal is None else terminal, dtype=float)
    end = xi[..., None] if xi.ndim == 2 else xi
    n, n_steps, dt = coeffs.n, tree.n_steps, tree.dt
    cols = stacked[0].shape[-1]
    steps = implicit_steps(tree, coeffs)

    y: list = [None] * (n_steps + 1)
    z: list = [None] * n_steps
    y_mean = np.empty((n_steps + 1, n, cols))
    z_mean = np.empty((n_steps, n, cols))
    u_mean = np.empty((n_steps, coeffs.m, cols))
    y[n_steps] = np.broadcast_to(end, end.shape[:2] + (cols,))
    y_mean[n_steps] = tree.expect(end)
    for k in range(n_steps - 1, -1, -1):
        z[k] = tree.z_from_next(y[k + 1])
        z_mean[k] = tree.expect(z[k])
        u_mean[k] = tree.expect(stacked[k])
        # accumulate in place: with many columns a level's temporaries,
        # not its results, would otherwise set the peak memory
        rhs = _mm(coeffs.B[k], stacked[k])
        rhs += _mm(coeffs.B_bar[k], u_mean[k])
        rhs += _mm(coeffs.C[k], z[k])
        rhs += _mm(coeffs.C_bar[k], z_mean[k])
        rhs *= dt
        rhs += tree.cond_expect(y[k + 1])
        # Y_j = base_j + mean_op_j @ y_mean; close the mean equation.
        y[k] = _mm(steps.inverses[k], rhs)
        del rhs
        y_mean[k] = steps.closings[k] @ tree.expect(y[k])
        y[k] += _mm(steps.mean_ops[k], y_mean[k])
    if single:
        return MeanfieldBsdeSolution(
            [yk[..., 0] for yk in y[:n_steps]] + [xi], [zk[..., 0] for zk in z],
            y_mean[..., 0], z_mean[..., 0], u_mean[..., 0])
    y[n_steps] = np.array(y[n_steps])
    return MeanfieldBsdeSolution(y, z, y_mean, z_mean, u_mean)
