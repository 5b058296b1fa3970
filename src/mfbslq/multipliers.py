"""Mean-constrained solver: decoupled fields, the outer system, multipliers.

The constrained subproblem fixes target level means eta = (alpha, beta,
gamma) for (state, martingale term, control) and enforces them with
deterministic per-level multipliers lam = (lam1, lam2, lam3).  Given
(lam, eta) the optimality system decouples through the Riccati pair into

  * an auxiliary backward equation for (phi, vtheta):
        d phi = E ds + vtheta dW,   phi(T) = -xi,
        E = (Sigma Q - A) phi + (Phi R - C) H vtheta
            - Sigma lam1 - B N^{-1} lam3 - (Phi + C S) H' lam2
            + A_bar alpha + B_bar gamma + C_bar beta,
  * a forward equation for the adjoint x:
        dx = [(A' - Q Sigma) x + Q phi - lam1] ds
           + [(C' - G1 (Phi + S C')) x + G1 (S lam2 + vtheta) - lam2] dW,
        x(0) = (I + G Sigma(0))^{-1} G phi(0),
  * and the reconstruction
        u = N^{-1} (B' x - lam3),
        y = Sigma x - phi,
        z = H ((Phi + S C') x - S lam2 - vtheta),

with H = (I + S R)^{-1} and G1 = R H.  Drift-side occurrences use the
level value Sigma = Sigma_k; the martingale-side algebra uses the centered
value S = (Sigma_k + E_k[Sigma_{k+1}]) / 2, because the exact discrete
martingale elimination conditions on the *next* level (one-sided Sigma_k
doubles the consistency constant, one-sided Sigma_{k+1} collapses the
scheme onto the discrete optimizer and hides genuine time-step error).

The map (lam, eta) -> level means of (y, z, u) is affine, as is the map
to the mean-coupling functionals (E[A_bar' x], E[C_bar' x], E[B_bar' x]).
Their constant part comes from one base sweep (xi terminal, lam = eta = 0);
their linear part, `linear_response`, from sweeps with a zero terminal.
When every array that part reads has one node per level (noise-independent
coefficients, the tree's length-1 convention) the level means follow their
own deterministic recursion, the mean half of the centred/mean split of
mean-field LQ problems (Yong, SIAM J. Control Optim. 51(4), 2013): phi has
one node per level, vtheta is zero, the adjoint's mean obeys

    xbar_{k+1} = xbar_k + dt ((A' - Q Sigma)_k xbar_k + Q_k phi_k - lam1_k)

because the +/- sqrt(dt) shock averages out over the two children, and the
node-constant reconstruction maps take xbar to the means of (y, z, u) and
to the couplings.  Any number of columns then costs one sweep of one node
per level.  Otherwise the linear part runs full-width sweeps, 16 columns
to a sweep.  Both parts reduce each adjoint level to its means and
couplings as it is formed and keep no field of the tree (`_response`).
`probe_operators` assembles both maps from the base sweep and
2d unit impulses; for a given eta the multiplier equation L lam = eta -
p_xi - P_eta eta is then solved by rank-truncated least squares.

The outer optimality conditions couple the two maps: at the optimum the
multipliers must equal the mean-cost gradients minus the mean-coupling
feedback,

    lam1_k = E[Q_bar_k] alpha_k - E[A_bar_k' x_k],
    lam2_k = E[R_bar_k] beta_k  - E[C_bar_k' x_k],
    lam3_k = E[N_bar_k] gamma_k - E[B_bar_k' x_k],

while the realized means equal eta.  `solve_outer_system` solves the
resulting linear system A (eta, lam) = b, of size 2d with d = n_steps
(2n + m), the same way for every input: unrestarted matrix-free GMRES, a
product being one single-column zero-terminal sweep, right-preconditioned
by the outer system M of the node-mean problem.  That problem replaces
every coefficient level and every Sigma level by its node mean, kept as one
node, with Phi = 0; it is node-constant, so its dense 2d x 2d system costs
one sweep of one node per level.  GMRES solves A M^{-1} w = b and returns
x = M^{-1} w, so its stopping test is on the true residual |A x - b|
(Saad, Iterative Methods for Sparse Linear Systems, 2nd ed., 2003, ch. 9).
On node-constant data M is A and one product suffices; on the shipped
random-coefficient spec about five do, at every depth.  With all barred
coefficients zero the solve yields lam = 0 and the plain feedback control.

The solve is not trusted on its own: `constrained_solution_at` gates the
realized means of the final sweep against eta and returns its realized
couplings, so the caller checks the multiplier condition on that solve.

Vector layout: means and multipliers are stacked [y-block | z-block |
u-block], each block time-major over levels 0..n_steps-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import islice
from typing import NamedTuple

import numpy as np

from ._errors import InfeasibleEtaError, NumericsError
from .bsde import checked_inverse, forward_levels, implicit_steps, solve_forward_sde
from .model import CoefficientSet
from .riccati import RiccatiSolution
from .tree import ScenarioTree, _concat_nodes, _mm, _mv, _t, column_blocks

_RANK_TOL = 1e-10
_CERT_TOL = 1e-8
_GUARD_TOL = 1e-10
_PICARD_SWEEPS = 400
_PICARD_TOL = 1e-12
_KRYLOV_TOL = 1e-12


def eta_dimension(tree: ScenarioTree, coeffs: CoefficientSet) -> int:
    return tree.n_steps * (2 * coeffs.n + coeffs.m)


def split_blocks(vec: np.ndarray, tree: ScenarioTree, coeffs: CoefficientSet):
    """Unstack a means/multiplier vector (d,) or column stack (d, c) into
    per-level (y, z, u) components (n_steps, n[, c])."""
    n, m, n_steps = coeffs.n, coeffs.m, tree.n_steps
    cols = vec.shape[1:]
    a = vec[: n_steps * n].reshape(n_steps, n, *cols)
    b = vec[n_steps * n: 2 * n_steps * n].reshape(n_steps, n, *cols)
    g = vec[2 * n_steps * n:].reshape(n_steps, m, *cols)
    return a, b, g


def pack_blocks(a: np.ndarray, b: np.ndarray, g: np.ndarray) -> np.ndarray:
    return np.concatenate([a.ravel(), b.ravel(), g.ravel()])


@dataclass
class DecoupledWorkspace:
    """Per-level matrices shared by every (lam, eta) solve on one Riccati pair."""

    H: list            # (I + S R)^{-1}, S the centered Sigma
    G1: list           # R H
    sig_c: list        # S = (Sigma_k + E_k[Sigma_{k+1}]) / 2
    phi_step: list     # (I + dt (Sigma Q - A))^{-1}
    vtheta_coef: list  # (Phi R - C) H
    source: list       # [-Sigma | -B N^{-1} | -(Phi + C S) H' | A_bar | B_bar | C_bar]
    Ninv: list         # N^{-1}
    x_drift: list      # A' - Q Sigma
    x_diff: list       # C' - G1 (Phi + S C')
    zx: list           # H (Phi + S C')
    bars: list         # [A_bar | C_bar | B_bar], the coupling maps
    x0_gain: np.ndarray   # (I + G Sigma(0))^{-1} G, so x(0) = x0_gain phi(0)
    min_conditioner_sv: float = math.inf   # smallest singular value of I + S R
    min_phi_step_sv: float = math.inf      # ... of I + dt (Sigma Q - A)
    # every level of every array the mean recursion reads has one node: the
    # linear part's level means follow their own recursion (_level_means)
    one_node: bool = False


def build_workspace(tree: ScenarioTree, coeffs: CoefficientSet,
                    ric: RiccatiSolution) -> DecoupledWorkspace:
    """Assemble (and memoize on the Riccati pair) the per-level matrices.
    Every inverted matrix is checked; StepSizeError names the level."""
    key = "decoupled_workspace"
    cached = ric._cache.get(key)
    if cached is not None and cached[0] is coeffs:
        return cached[1]
    n = coeffs.n
    eye = np.eye(n)
    x0_inv, _ = checked_inverse(eye[None] + coeffs.G @ ric.sigma[0], "I + G Sigma(0)", 0)
    ws = DecoupledWorkspace(*([] for _ in range(11)), (x0_inv @ coeffs.G)[0])
    for k in range(tree.n_steps):
        sig, phi = ric.sigma[k], ric.phi[k]
        A, C, Q, R = coeffs.A[k], coeffs.C[k], coeffs.Q[k], coeffs.R[k]
        sig_c = 0.5 * (sig + tree.cond_expect(ric.sigma[k + 1]))
        H, cond_sv = checked_inverse(eye[None] + sig_c @ R, "I + S R", k)
        phi_step, step_sv = checked_inverse(eye[None] + tree.dt * (sig @ Q - A),
                                            "I + dt (Sigma Q - A)", k)
        ws.min_conditioner_sv = min(ws.min_conditioner_sv, cond_sv)
        ws.min_phi_step_sv = min(ws.min_phi_step_sv, step_sv)
        G1 = R @ H
        mart = phi + sig_c @ _t(C)
        ws.H.append(H)
        ws.G1.append(G1)
        ws.sig_c.append(sig_c)
        ws.phi_step.append(phi_step)
        ws.vtheta_coef.append((phi @ R - C) @ H)
        ws.source.append(_concat_nodes([
            -sig, -_t(np.linalg.solve(coeffs.N[k], _t(coeffs.B[k]))),
            -(phi + C @ sig_c) @ _t(H),
            coeffs.A_bar[k], coeffs.B_bar[k], coeffs.C_bar[k]], axis=2))
        ws.Ninv.append(np.linalg.inv(coeffs.N[k]))
        ws.x_drift.append(_t(A) - Q @ sig)
        ws.x_diff.append(_t(C) - G1 @ mart)
        ws.zx.append(H @ mart)
        ws.bars.append(_concat_nodes([coeffs.A_bar[k], coeffs.C_bar[k],
                                      coeffs.B_bar[k]], axis=2))
    arrays = (ric.sigma, ws.H, ws.sig_c, ws.phi_step, ws.vtheta_coef, ws.source,
              ws.Ninv, ws.x_drift, ws.zx, ws.bars, coeffs.Q, coeffs.B, coeffs.N)
    ws.one_node = all(len(level) == 1 for levels in arrays for level in levels)
    ric._cache[key] = (coeffs, ws)
    return ws


@dataclass
class DecoupledSolution:
    phi: list      # levels 0..n_steps
    vtheta: list   # levels 0..n_steps - 1
    x: list        # levels 0..n_steps
    u: list        # levels 0..n_steps - 1
    y: list        # levels 0..n_steps
    z: list        # levels 0..n_steps - 1
    means: np.ndarray
    coupling: np.ndarray   # stacked E[A_bar' x], E[C_bar' x], E[B_bar' x]


def _level_coupling(mats: np.ndarray, x: np.ndarray) -> np.ndarray:
    """E[mats' x] over a level, the node mean of mats_j' x_j: one GEMM,
    (n, k)' x (n, c).  A length-1 ``mats`` is the same on every node, so it
    multiplies the node sum of x, taken as one GEMV (a stride-0 broadcast
    would defeat BLAS).  A one-node x is its own mean."""
    if len(mats) == 1:
        total = np.ones(len(x)) @ x.reshape(len(x), -1)
        return mats[0].T @ total.reshape(x.shape[1:]) / len(x)
    return mats.reshape(-1, mats.shape[-1]).T @ x.reshape(-1, x.shape[-1]) / len(x)


def _backward_sweep(tree: ScenarioTree, coeffs: CoefficientSet,
                    ws: DecoupledWorkspace, lam: np.ndarray, eta: np.ndarray,
                    xi: np.ndarray) -> tuple:
    """(phi, vtheta) of the auxiliary backward equation for column stacks
    (d, c) of (lam, eta), from phi(T) = -xi on every column.  Each level is
    as wide as its inputs: one node on node-constant data and a one-node
    terminal."""
    n_steps, dt = tree.n_steps, tree.dt
    lam1, lam2, lam3 = split_blocks(lam, tree, coeffs)
    alpha, beta, gamma = split_blocks(eta, tree, coeffs)
    phi: list = [None] * (n_steps + 1)
    vtheta: list = [None] * n_steps
    phi[n_steps] = np.repeat(-xi[..., None], lam.shape[1], axis=2)
    for k in range(n_steps - 1, -1, -1):
        vth = tree.z_from_next(phi[k + 1])
        # the six multiplier/target terms of E as one GEMM over ws.source
        inputs = np.concatenate([lam1[k], lam3[k], lam2[k], alpha[k], gamma[k], beta[k]])
        rest = _mm(ws.vtheta_coef[k], vth) + _mm(ws.source[k], inputs)
        phi[k] = _mm(ws.phi_step[k], tree.cond_expect(phi[k + 1]) - dt * rest)
        vtheta[k] = vth
    return phi, vtheta


def _adjoint(tree: ScenarioTree, coeffs: CoefficientSet, ws: DecoupledWorkspace,
             lam: np.ndarray, phi: list, vtheta: list) -> tuple:
    """The adjoint's (drift, diffusion) callbacks in
    :func:`.bsde.forward_levels`' sign convention:
    x_{k+1} = x_k - dt drift(k, x_k) -/+ sqrt(dt) diffusion(k, x_k)."""
    lam1, lam2, _ = split_blocks(lam, tree, coeffs)

    def drift(k: int, x: np.ndarray) -> np.ndarray:
        return -(_mm(ws.x_drift[k], x) + _mm(coeffs.Q[k], phi[k]) - lam1[k][None])

    def diffusion(k: int, x: np.ndarray) -> np.ndarray:
        aff = _mm(ws.G1[k], _mm(ws.sig_c[k], lam2[k]) + vtheta[k]) - lam2[k][None]
        return -(_mm(ws.x_diff[k], x) + aff)

    return drift, diffusion


def _reconstruct(tree: ScenarioTree, coeffs: CoefficientSet, ric: RiccatiSolution,
                 ws: DecoupledWorkspace, lam: np.ndarray, phi: list, vtheta: list,
                 x_levels, keep: bool = True) -> tuple:
    """u, y and z on levels 0..n_steps-1 from the adjoint levels that
    ``x_levels`` yields, with their level means and the mean couplings,
    each stacked like ``lam``.  Returns (u, y, z, means, coupling); without
    ``keep`` each level's fields are dropped once reduced, and u, y and z
    come back as lists of None.  The guard is the worst defect of
    N u - (B' x - lam3) relative to 1 + |B' x| over every value
    reconstructed; above _GUARD_TOL it raises NumericsError."""
    n = coeffs.n
    _, lam2, lam3 = split_blocks(lam, tree, coeffs)
    u, y, z = ([None] * tree.n_steps for _ in range(3))
    means = np.empty(lam.shape)
    coupling = np.empty(lam.shape)
    mean_y, mean_z, mean_u = split_blocks(means, tree, coeffs)
    cpl_y, cpl_z, cpl_u = split_blocks(coupling, tree, coeffs)
    guard = np.zeros(lam.shape[1])
    for k, x in enumerate(x_levels):
        bx = _mm(_t(coeffs.B[k]), x)
        net = bx - lam3[k][None]
        uk = _mm(ws.Ninv[k], net)
        yk = _mm(ric.sigma[k], x) - phi[k]
        zk = _mm(ws.zx[k], x) - _mm(ws.H[k], _mm(ws.sig_c[k], lam2[k]) + vtheta[k])
        defect = np.abs(_mm(coeffs.N[k], uk) - net).max(axis=(0, 1))
        guard = np.maximum(guard, defect / (1.0 + np.abs(bx).max(axis=(0, 1))))
        mean_y[k], mean_z[k], mean_u[k] = tree.expect(yk), tree.expect(zk), tree.expect(uk)
        bars = _level_coupling(ws.bars[k], x)
        cpl_y[k], cpl_z[k], cpl_u[k] = bars[:n], bars[n:2 * n], bars[2 * n:]
        if keep:
            u[k], y[k], z[k] = uk, yk, zk
    worst = float(guard.max())
    if worst > _GUARD_TOL:
        raise NumericsError(
            f"control reconstruction defect {worst:.3e} exceeds {_GUARD_TOL:.1e}"
        )
    return u, y, z, means, coupling


def solve_decoupled(tree: ScenarioTree, coeffs: CoefficientSet, ric: RiccatiSolution,
                    lam_vec: np.ndarray, eta_vec: np.ndarray) -> DecoupledSolution:
    """Solve the (lam, eta) optimality system and return fields plus means.

    ``lam_vec`` and ``eta_vec`` are (d,) or column stacks (d, c); a stack is
    solved in one sweep and every field and mean keeps the column axis
    last.  A single pair runs as one column."""
    ws = build_workspace(tree, coeffs, ric)
    lam_vec = np.asarray(lam_vec, dtype=float)
    single = lam_vec.ndim == 1
    lam = lam_vec[:, None] if single else lam_vec
    eta = np.asarray(eta_vec, dtype=float).reshape(lam.shape)
    phi, vtheta = _backward_sweep(tree, coeffs, ws, lam, eta, coeffs.xi)
    x = solve_forward_sde(tree, ws.x0_gain @ phi[0][0],
                          *_adjoint(tree, coeffs, ws, lam, phi, vtheta))
    u, y, z, means, coupling = _reconstruct(tree, coeffs, ric, ws, lam, phi,
                                            vtheta, x[:-1])
    y.append(_mm(ric.sigma[tree.n_steps], x[-1]) - phi[-1])
    fields = (phi, vtheta, x, u, y, z)
    if single:
        fields = tuple([lv[..., 0] for lv in levels] for levels in fields)
        means, coupling = means[:, 0], coupling[:, 0]
    return DecoupledSolution(*fields, means, coupling)


def _level_means(tree: ScenarioTree, x0: np.ndarray, drift):
    """Levels 0..n_steps-1 of the adjoint's level mean, one node each:
    xbar_{k+1} = xbar_k - dt drift(k, xbar_k), the +/- sqrt(dt) shock
    averaging out over the two children."""
    xbar = x0[None]
    for k in range(tree.n_steps):
        yield xbar
        xbar = xbar - tree.dt * drift(k, xbar)


def _response(tree: ScenarioTree, coeffs: CoefficientSet, ric: RiccatiSolution,
              lam: np.ndarray, eta: np.ndarray, xi: np.ndarray) -> tuple:
    """(means, coupling) of :func:`solve_decoupled` for column stacks (d, c)
    from phi(T) = -xi, each adjoint level reduced as it is formed; the
    leaves are never formed.  When xi and every array the mean recursion
    reads have one node per level, all columns run as one block on the
    adjoint's level mean (:func:`_level_means`); otherwise they run full
    width, 16 to a block."""
    ws = build_workspace(tree, coeffs, ric)
    mean_path = ws.one_node and len(xi) == 1
    means = np.empty(lam.shape)
    coupling = np.empty(lam.shape)
    for block in [slice(None)] if mean_path else column_blocks(lam.shape[1]):
        lam_b = lam[:, block]
        phi, vtheta = _backward_sweep(tree, coeffs, ws, lam_b, eta[:, block], xi)
        drift, diffusion = _adjoint(tree, coeffs, ws, lam_b, phi, vtheta)
        x0 = ws.x0_gain @ phi[0][0]
        levels = (_level_means(tree, x0, drift) if mean_path else
                  islice(forward_levels(tree, x0, drift, diffusion), tree.n_steps))
        means[:, block], coupling[:, block] = _reconstruct(
            tree, coeffs, ric, ws, lam_b, phi, vtheta, levels, keep=False)[3:]
    return means, coupling


def linear_response(tree: ScenarioTree, coeffs: CoefficientSet, ric: RiccatiSolution,
                    lam: np.ndarray, eta: np.ndarray) -> tuple:
    """Level means and mean couplings of the linear part of the map
    (lam, eta) -> (means, coupling), solved from a zero terminal, for column
    stacks ``lam`` and ``eta`` of shape (d, c) (:func:`_response`).  Returns
    two (d, c) stacks."""
    return _response(tree, coeffs, ric, lam, eta, np.zeros((1, coeffs.n)))


def _xi_response(tree: ScenarioTree, coeffs: CoefficientSet,
                 ric: RiccatiSolution) -> tuple:
    """Means and couplings of the base sweep (xi terminal, lam = eta = 0),
    the constant part of the affine map, each (d,)."""
    zero = np.zeros((eta_dimension(tree, coeffs), 1))
    means, coupling = _response(tree, coeffs, ric, zero, zero, coeffs.xi)
    return means[:, 0], coupling[:, 0]


@dataclass
class MeanOperators:
    """Probed affine maps out of (lam, eta).

    means    = p_xi + P_eta eta + L lam        (realized level means)
    coupling = q_xi + Q_eta eta + M lam        (mean-coupling functionals
                                                E[A_bar' x], E[C_bar' x],
                                                E[B_bar' x], stacked)
    """

    p_xi: np.ndarray
    P_eta: np.ndarray
    L: np.ndarray
    q_xi: np.ndarray
    Q_eta: np.ndarray
    M: np.ndarray

    def solve_lambda(self, rhs: np.ndarray) -> np.ndarray:
        """Least-squares solution of L lam = rhs, singular values at or below
        _RANK_TOL times the largest treated as zero; ``rhs`` is (d,) or a
        column stack (d, c)."""
        return np.linalg.lstsq(self.L, rhs, rcond=_RANK_TOL)[0]


def probe_operators(tree: ScenarioTree, coeffs: CoefficientSet,
                    ric: RiccatiSolution) -> MeanOperators:
    """Assemble the affine maps by unit impulses; memoized on the Riccati pair.

    One base sweep (xi terminal, lam = eta = 0) gives p_xi and q_xi; the d
    lam impulses and the d eta impulses give the linear part directly, as
    the columns of :func:`linear_response` (zero terminal, no base to
    subtract): one sweep of one node per level on node-constant data, else
    one batched full-width sweep per column block."""
    key = "mean_operators"
    cached = ric._cache.get(key)
    if cached is not None and cached[0] is coeffs:
        return cached[1]
    d = eta_dimension(tree, coeffs)
    p_xi, q_xi = _xi_response(tree, coeffs, ric)
    unit, zero = np.eye(d), np.zeros((d, d))
    means, coupling = linear_response(tree, coeffs, ric, np.hstack([unit, zero]),
                                      np.hstack([zero, unit]))
    ops = MeanOperators(p_xi=p_xi, P_eta=means[:, d:], L=means[:, :d],
                        q_xi=q_xi, Q_eta=coupling[:, d:], M=coupling[:, :d])
    ric._cache[key] = (coeffs, ops)
    return ops


def mean_cost_weights(tree: ScenarioTree, coeffs: CoefficientSet) -> np.ndarray:
    """Block-diagonal map eta -> mean-cost gradients (E[Q_bar] alpha, ...)."""
    n, m, n_steps = coeffs.n, coeffs.m, tree.n_steps
    d = eta_dimension(tree, coeffs)
    w = np.zeros((d, d))
    for k in range(n_steps):
        qb, rb, nb = coeffs.mean_weights(k)
        sl = slice(k * n, (k + 1) * n)
        w[sl, sl] = qb
        sl = slice(n_steps * n + k * n, n_steps * n + (k + 1) * n)
        w[sl, sl] = rb
        sl = slice(2 * n_steps * n + k * m, 2 * n_steps * n + (k + 1) * m)
        w[sl, sl] = nb
    return w


class OuterSolution(NamedTuple):
    """(eta, lam) from :func:`solve_outer_system` and how the solve went."""

    eta: np.ndarray
    lam: np.ndarray
    columns: int                # the base column plus one per GMRES product
    relative_residual: float    # |A (eta, lam) - b| / |b| of the outer system


def _node_mean_problem(tree: ScenarioTree, coeffs: CoefficientSet,
                       ric: RiccatiSolution) -> tuple:
    """(coefficients, Riccati pair) of the node-mean problem: every level of
    the coefficients and of Sigma replaced by its node mean, kept as one
    node, and Phi = 0, the martingale integrand of a one-node Sigma.  Node
    means of PSD weights are PSD and keep N >= delta I, so its workspace
    passes the same checked inverses.  A problem that is its own node mean
    (one node everywhere) is returned as is, with its memoized workspace."""
    mean_coeffs = coeffs.node_means()
    if mean_coeffs is coeffs and all(len(level) == 1 for level in ric.sigma):
        return coeffs, ric
    sigma = [level.mean(axis=0, keepdims=True) for level in ric.sigma]
    return mean_coeffs, replace(
        ric, sigma=sigma, phi=[np.zeros((1, coeffs.n, coeffs.n))] * tree.n_steps, _cache={})


def _outer_map(tree: ScenarioTree, coeffs: CoefficientSet, ric: RiccatiSolution,
               weights: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The outer system's matrix applied to a column stack (2d, c) of
    (eta, lam): feasibility rows eta - means and stationarity rows
    W eta - coupling - lam, with the linear part from
    :func:`linear_response`."""
    d = len(weights)
    eta, lam = cols[:d], cols[d:]
    means, coupling = linear_response(tree, coeffs, ric, lam, eta)
    return np.concatenate([eta - means, weights @ eta - coupling - lam])


def solve_outer_system(tree: ScenarioTree, coeffs: CoefficientSet,
                       ric: RiccatiSolution) -> OuterSolution:
    """Solve the outer first-order conditions for (eta, lam).

    Two blocks of equations: the realized means equal eta (feasibility),
    and the multipliers equal the mean-cost gradient minus the mean-coupling
    feedback (stationarity in eta).  Both are affine in (eta, lam), so the
    pair is one linear system A (eta, lam) = b of size 2d, b from the base
    sweep.  GMRES solves A M^{-1} w = b and x = M^{-1} w, M the same system
    of :func:`_node_mean_problem`, assembled densely.  A singular M raises
    NumericsError; the answer itself is certified on the final sweep (see
    :func:`constrained_solution_at`).
    """
    d = eta_dimension(tree, coeffs)
    weights = mean_cost_weights(tree, coeffs)
    mean_coeffs, mean_ric = _node_mean_problem(tree, coeffs, ric)
    try:
        precond = np.linalg.inv(_outer_map(tree, mean_coeffs, mean_ric, weights,
                                           np.eye(2 * d)))
    except np.linalg.LinAlgError as exc:
        raise NumericsError(
            f"outer first-order system of the node-mean problem is singular ({exc})"
        ) from exc
    rhs = np.concatenate(_xi_response(tree, coeffs, ric))

    def product(vec: np.ndarray) -> np.ndarray:
        return _outer_map(tree, coeffs, ric, weights, (precond @ vec)[:, None])[:, 0]

    sol, products, residual = _gmres(product, rhs, 2 * d)
    sol = precond @ sol
    return OuterSolution(sol[:d], sol[d:], products + 1, residual)


def _gmres(product, rhs: np.ndarray, max_products: int) -> tuple:
    """Unrestarted GMRES from zero (Saad & Schultz 1986): Arnoldi with
    modified Gram-Schmidt and Givens rotations, stopped once the residual
    falls to _KRYLOV_TOL |rhs|.  Returns (solution, products, relative
    residual); the residual is |A x - rhs| / |rhs| from the stored products,
    not the rotations' estimate.  NumericsError if the system is singular
    on the Krylov space or the tolerance is not met in ``max_products``."""
    beta = float(np.linalg.norm(rhs))
    if beta == 0.0:
        return np.zeros_like(rhs), 0, 0.0
    basis = np.zeros((max_products + 1, rhs.size))   # orthonormal, one per row
    images = np.zeros((max_products, rhs.size))      # A times each basis row
    hess = np.zeros((max_products + 1, max_products))
    cos, sin = np.zeros(max_products), np.zeros(max_products)
    gvec = np.zeros(max_products + 1)                # rotated beta e_1
    gvec[0] = beta
    basis[0] = rhs / beta
    j = 0
    while j < max_products and abs(gvec[j]) > _KRYLOV_TOL * beta:
        images[j] = product(basis[j])
        w = images[j].copy()
        for i in range(j + 1):
            hess[i, j] = basis[i] @ w
            w -= hess[i, j] * basis[i]
        hess[j + 1, j] = np.linalg.norm(w)
        if hess[j + 1, j] > 0.0:
            basis[j + 1] = w / hess[j + 1, j]
        for i in range(j):
            hess[i, j], hess[i + 1, j] = (cos[i] * hess[i, j] + sin[i] * hess[i + 1, j],
                                          cos[i] * hess[i + 1, j] - sin[i] * hess[i, j])
        rho = float(np.hypot(hess[j, j], hess[j + 1, j]))
        if rho == 0.0:
            raise NumericsError(f"outer first-order system is singular "
                                f"(GMRES breakdown at product {j + 1})")
        cos[j], sin[j] = hess[j, j] / rho, hess[j + 1, j] / rho
        hess[j, j], hess[j + 1, j] = rho, 0.0
        gvec[j + 1] = -sin[j] * gvec[j]
        gvec[j] *= cos[j]
        j += 1
    coef = np.linalg.solve(hess[:j, :j], gvec[:j])   # upper triangular
    residual = float(np.linalg.norm(coef @ images[:j] - rhs)) / beta
    if abs(gvec[j]) > _KRYLOV_TOL * beta:
        raise NumericsError(
            f"GMRES on the outer first-order system did not converge: relative "
            f"residual {residual:.3e} after {j} products (tolerance {_KRYLOV_TOL:.0e})")
    return coef @ basis[:j], j, residual


@dataclass
class ConstrainedSolution:
    """Solution of the mean-constrained subproblem at a given eta (or at a
    column stack of them, every field then carrying the column axis)."""

    u: list
    y: list
    z: list
    x: list
    phi: list
    vtheta: list
    lam: np.ndarray
    eta: np.ndarray
    means: np.ndarray
    coupling: np.ndarray              # realized E[A_bar' x], E[C_bar' x], E[B_bar' x]
    constraint_residual: np.ndarray   # realized means - eta, stacked


def solve_constrained_problem(tree: ScenarioTree, coeffs: CoefficientSet,
                              ric: RiccatiSolution,
                              eta_vec: np.ndarray) -> ConstrainedSolution:
    """Pick multipliers hitting the target means, certify, and solve.
    ``eta_vec`` is (d,) or a column stack (d, c) solved in one sweep."""
    ops = probe_operators(tree, coeffs, ric)
    eta_vec = np.asarray(eta_vec, dtype=float)
    p_xi = ops.p_xi.reshape((-1,) + (1,) * (eta_vec.ndim - 1))
    lam = ops.solve_lambda(eta_vec - p_xi - ops.P_eta @ eta_vec)
    return constrained_solution_at(tree, coeffs, ric, lam, eta_vec)


def constrained_solution_at(tree: ScenarioTree, coeffs: CoefficientSet,
                            ric: RiccatiSolution, lam_vec: np.ndarray,
                            eta_vec: np.ndarray) -> ConstrainedSolution:
    """Solve at an explicitly given multiplier/mean pair and certify, column
    by column, that the realized means hit the targets:
    ||means - eta|| <= _CERT_TOL (1 + ||eta||), else InfeasibleEtaError."""
    eta_vec = np.asarray(eta_vec, dtype=float)
    lam_vec = np.asarray(lam_vec, dtype=float)
    sol = solve_decoupled(tree, coeffs, ric, lam_vec, eta_vec)
    defect = sol.means - eta_vec
    residual = np.linalg.norm(defect, axis=0)
    excess = residual - _CERT_TOL * (1.0 + np.linalg.norm(eta_vec, axis=0))
    if np.any(excess > 0):
        worst = float(np.ravel(residual)[np.argmax(excess)])
        raise InfeasibleEtaError(
            f"target means are not attainable: realized means miss them by {worst:.3e}"
        )
    return ConstrainedSolution(
        u=sol.u, y=sol.y, z=sol.z, x=sol.x, phi=sol.phi, vtheta=sol.vtheta,
        lam=lam_vec, eta=eta_vec, means=sol.means, coupling=sol.coupling,
        constraint_residual=defect,
    )


def riccati_control(tree: ScenarioTree, coeffs: CoefficientSet,
                    ric: RiccatiSolution) -> list:
    """Unconstrained feedback control (zero multipliers, zero target means).
    With all barred coefficients zero this is the classical Riccati control."""
    zero = np.zeros(eta_dimension(tree, coeffs))
    return solve_decoupled(tree, coeffs, ric, zero, zero).u


def decoupling_residual(tree: ScenarioTree, coeffs: CoefficientSet,
                        ric: RiccatiSolution, sol: ConstrainedSolution) -> dict:
    """How far the reconstructed (y, z, u) is from solving the discrete
    backward recursion it represents.

    Two defects are reported in the probability-and-dt weighted rms norm
    (the same norm used for control errors): the state-recursion residual
    and the martingale-representation defect z - z_from_next(y).  Both are
    first order in the step size for a consistent reconstruction.
    """
    alpha, beta, gamma = split_blocks(sol.eta, tree, coeffs)
    eye = np.eye(coeffs.n)
    y_sq = 0.0
    z_sq = 0.0
    for k in range(tree.n_steps):
        weight = tree.dt * tree.node_probability(k)
        lhs = _mv(eye[None] - tree.dt * coeffs.A[k], sol.y[k])
        rhs = tree.cond_expect(sol.y[k + 1]) + tree.dt * (
            _mv(coeffs.B[k], sol.u[k]) + _mv(coeffs.C[k], sol.z[k])
            + coeffs.A_bar[k] @ alpha[k] + coeffs.B_bar[k] @ gamma[k]
            + coeffs.C_bar[k] @ beta[k]
        )
        y_sq += weight * float(((lhs - rhs) ** 2).sum())
        z_sq += weight * float(
            ((sol.z[k] - tree.z_from_next(sol.y[k + 1])) ** 2).sum())
    return {"y_recursion": math.sqrt(y_sq), "z_defect": math.sqrt(z_sq),
            "combined": math.sqrt(y_sq + z_sq)}


def picard_cross_check(tree: ScenarioTree, coeffs: CoefficientSet,
                       ric: RiccatiSolution, sol: ConstrainedSolution) -> dict:
    """Re-solve the optimality system at sol's multipliers by plain
    alternation (no Riccati decoupling) and report the disagreement.

    Alternates: backward solve for (y, z) given u with the target means
    frozen; explicit forward step for the adjoint x given (y, z); control
    update u = N^{-1}(B' x - lam3).  The alternation contracts only on
    short horizons, which is why callers run it on a truncated problem.
    It stops once a sweep changes u by at most _PICARD_TOL relative, or
    after _PICARD_SWEEPS sweeps.
    """
    lam1, lam2, lam3 = split_blocks(sol.lam, tree, coeffs)
    alpha, beta, gamma = split_blocks(sol.eta, tree, coeffs)
    ws = build_workspace(tree, coeffs, ric)
    steps = implicit_steps(tree, coeffs)
    n_steps, dt = tree.n_steps, tree.dt
    u = [_mv(ws.Ninv[k], np.tile(-lam3[k][None], (tree.n_nodes(k), 1)))
         for k in range(n_steps)]

    y: list = [None] * (n_steps + 1)
    z: list = [None] * n_steps
    x: list = []
    converged = False
    iterations = 0
    for it in range(_PICARD_SWEEPS):
        iterations = it + 1
        y[n_steps] = coeffs.xi
        for k in range(n_steps - 1, -1, -1):
            z[k] = tree.z_from_next(y[k + 1])
            rhs = tree.cond_expect(y[k + 1]) + dt * (
                _mv(coeffs.B[k], u[k]) + _mv(coeffs.C[k], z[k])
                + coeffs.A_bar[k] @ alpha[k] + coeffs.B_bar[k] @ gamma[k]
                + coeffs.C_bar[k] @ beta[k]
            )
            y[k] = _mv(steps.inverses[k], rhs)

        def drift(k: int, xk: np.ndarray) -> np.ndarray:
            return -(_mv(_t(coeffs.A[k]), xk) - _mv(coeffs.Q[k], y[k])
                     - lam1[k][None])

        def diffusion(k: int, xk: np.ndarray) -> np.ndarray:
            return -(_mv(_t(coeffs.C[k]), xk) - _mv(coeffs.R[k], z[k])
                     - lam2[k][None])

        x = solve_forward_sde(tree, -(coeffs.G @ y[0][0]), drift, diffusion)
        change = 0.0
        scale = 1.0
        for k in range(n_steps):
            u_new = _mv(ws.Ninv[k], _mv(_t(coeffs.B[k]), x[k]) - lam3[k][None])
            change = max(change, float(np.abs(u_new - u[k]).max()))
            scale = max(scale, float(np.abs(u_new).max()))
            u[k] = u_new
        if change <= _PICARD_TOL * scale:
            converged = True
            break

    y_diff = max(float(np.abs(y[k] - sol.y[k]).max()) for k in range(n_steps + 1))
    x_diff = max(float(np.abs(x[k] - sol.x[k]).max()) for k in range(n_steps + 1))
    return {"y_diff": y_diff, "x_diff": x_diff,
            "iterations": iterations, "converged": converged}
