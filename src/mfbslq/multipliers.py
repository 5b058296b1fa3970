"""Mean-constrained solver: decoupled fields, the outer system, multipliers.

The constrained subproblem fixes target level means eta = (alpha, beta,
gamma) for (state, martingale term, control) and enforces them with
deterministic per-level multipliers lam = (lam1, lam2, lam3).  Given
(lam, eta) the optimality system decouples through the Riccati pair into

  * an auxiliary backward equation for (phi, vtheta):
        d phi = E ds + vtheta dW,   phi(T) = -xi,
  * the adjoint of the maximum principle, a forward equation
        dx = (A' x - Q y - lam1) ds + (C' x - R z - lam2) dW,
        x(0) = (I + G Sigma(0))^{-1} G phi(0),
  * and the reconstruction of (u, y, z) from x, which the adjoint reads
        u = N^{-1} (B' x - lam3),
        y = Sigma x - phi,
        z = zx x - H (S lam2 + vtheta),   zx = H (Phi + S C'),

with H = (I + S R)^{-1}.  Each sweep steps x one level at a time from the
(y, z) reconstructed on that level.  The source E takes its multiplier
terms through the transposed reconstruction maps (Sigma, Phi and S are
symmetric) and its target terms through the coupling maps:
        E = (Sigma Q - A) phi + (Phi R - C) H vtheta
            - Sigma lam1 - zx' lam2 - (N^{-1} B')' lam3
            + A_bar alpha + C_bar beta + B_bar gamma.

Drift-side occurrences use the level value Sigma = Sigma_k; the
martingale-side algebra uses the centered value S = (Sigma_k +
E_k[Sigma_{k+1}]) / 2, because the exact discrete martingale elimination
conditions on the *next* level (one-sided Sigma_k doubles the consistency
constant, one-sided Sigma_{k+1} collapses the scheme onto the discrete
optimizer and hides genuine time-step error).
These formulas read one per-level workspace, `build_workspace` of (Sigma,
Phi) on the layout the Riccati pair is solved on; the caller builds it
once and passes it to every stage below.

The map (lam, eta) -> level means of (y, z, u) is affine, as is the map
to the mean-coupling functionals (E[A_bar' x], E[C_bar' x], E[B_bar' x]).
Their constant part comes from one base sweep (xi terminal, lam = eta = 0);
their linear part from sweeps with a zero terminal.  `linear_response`
sweeps a stack of columns, each with its own terminal -s xi, so it
evaluates the map (lam, eta, s), linear in all three.
When every coefficient is a function of the walk value W(t_k) (decided by
value, :meth:`.model.CoefficientSet.on_lattice`; node-constant data are),
so is the Riccati pair, which then comes on the walk lattice, and every
map the sweeps apply on level k is a function of the number d of down
moves, so the means and couplings read the adjoint only through its
conditional mean given d.  The linear part then runs on the
walk lattice (Cox, Ross and Rubinstein, J. Financial Economics 7, 1979),
k + 1 nodes on level k, all columns in one sweep: phi is a function of d
there, and node d' of level k + 1 merges the adjoint's step to the up
child of node d', weight (k + 1 - d') / (k + 1), and to the down child of
node d' - 1, weight d' / (k + 1) (:meth:`.tree.WalkLattice.children`).  So does the base
sweep when xi is a function of W(T).  Otherwise the linear part runs
full-width sweeps of the tree, 16 columns to a sweep.  All of them reduce
each adjoint level to its means and couplings (one GEMM each,
``level_coupling``) as it is formed and keep no field (`_response`).  The
final sweep keeps the control u = N^{-1} (B' x - lam3), so it steps x on
the tree; when xi is a function of W(T) too, its backward half (phi,
vtheta) runs on the lattice.  A tree sweep on lattice data reads the
workspace, and phi and vtheta when they come from the lattice, one level
at a time, each gathered to the tree's nodes as it is read
(:meth:`DecoupledWorkspace.on`), so no tree-wide copy of them is held.
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
(2n + m), the same way for every input: unrestarted GMRES,
right-preconditioned by the outer system M of a reduced problem, assembled
densely from 2d unit columns in one sweep.  On lattice data that is the
lattice problem, whose system is the problem's own: M = A.  The base column
(xi terminal, lam = eta = 0) then rides in the same lattice sweep when xi is
a function of W(T), each column taking its own terminal (zero on the unit
columns, -xi on the base column), so [A | -b] comes from one sweep of
2d + 1 columns, and GMRES's one product reads the assembled matrix.
Otherwise M is the node-mean problem's, which replaces every coefficient
level and every Sigma level by its node mean, kept as one node, with
Phi = 0; it is node-constant, so it runs on the lattice.  Then b comes from
its own sweep, and each product is one single-column zero-terminal sweep of
the tree; on path-dependent data about five remain.  GMRES solves
A M^{-1} w = b and returns x = M^{-1} w, so its stopping test is on the
true residual |A x - b| (Saad, Iterative Methods for Sparse Linear
Systems, 2nd ed., 2003, ch. 9).
With all barred coefficients zero the solve yields lam = 0 and the plain
feedback control.

The solve is not trusted on its own: `constrained_solution_at` gates the
realized means of the final sweep against eta and returns its control,
means and realized couplings, so the caller checks the multiplier
condition on that solve.

Vector layout: means and multipliers are stacked [y-block | z-block |
u-block], each block time-major over levels 0..n_steps-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from ._errors import InfeasibleEtaError, NumericsError
from .bsde import (checked_dense_sv, checked_inverse, control_weight_inverses,
                   implicit_steps, solve_forward_sde)
from .model import CoefficientSet
from .riccati import RiccatiSolution
from .tree import ScenarioTree, WalkLattice, _concat_nodes, _mul, _mv, _t, column_blocks

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


class _Gathered:
    """Levels stored on the walk lattice as a sweep of the tree reads them:
    item k is level k gathered to the tree's nodes at each read
    (:meth:`.tree.ScenarioTree.gather`), so a sweep that reads each level
    once holds one gathered level at a time."""

    def __init__(self, tree: ScenarioTree, levels: list):
        self.tree, self.levels = tree, levels

    def __getitem__(self, k: int) -> np.ndarray:
        return self.tree.gather(self.levels[k], k)


_LEVEL_FIELDS = ("sigma", "H", "sig_c", "phi_step", "vtheta_coef", "zx", "bars", "n_inv")


@dataclass
class DecoupledWorkspace:
    """Per-level matrices shared by every (lam, eta) solve on one Riccati
    pair, on the layout it is solved on: ``layout``, the walk lattice on
    lattice data (k + 1 nodes on level k, or one), else the tree.  A sweep
    reads them through :meth:`on`."""

    layout: ScenarioTree | WalkLattice
    sigma: list        # Sigma, levels 0..n_steps: y = Sigma x - phi
    H: list            # (I + S R)^{-1}, S the centered Sigma
    sig_c: list        # S = (Sigma_k + E_k[Sigma_{k+1}]) / 2
    phi_step: list     # (I + dt (Sigma Q - A))^{-1}
    vtheta_coef: list  # (Phi R - C) H
    zx: list           # H (Phi + S C'): z = zx x - H (S lam2 + vtheta)
    bars: list         # [A_bar | C_bar | B_bar], the coupling maps
    n_inv: tuple       # N^{-1}, the layout's checked control_weight_inverses
    x0_gain: np.ndarray   # (I + G Sigma(0))^{-1} G, so x(0) = x0_gain phi(0)
    min_conditioner_sv: float = math.inf   # smallest singular value of I + S R
    min_phi_step_sv: float = math.inf      # ... of I + dt (Sigma Q - A)

    def on(self, tree: ScenarioTree | WalkLattice) -> DecoupledWorkspace:
        """The workspace as a sweep on ``tree`` reads it: itself on its own
        layout; from the walk lattice on the tree, every level field a
        :class:`_Gathered` view, so the sweep gathers one level at a time."""
        if isinstance(self.layout, ScenarioTree) or isinstance(tree, WalkLattice):
            return self
        return replace(self, layout=tree, **{name: _Gathered(tree, getattr(self, name))
                                             for name in _LEVEL_FIELDS})


def build_workspace(tree: ScenarioTree, coeffs: CoefficientSet,
                    sigma: list, phi: list) -> DecoupledWorkspace:
    """Assemble the per-level matrices from the Riccati pair (sigma, phi),
    on the layout :func:`.riccati.solve_riccati` returns it on: the walk
    lattice, from the coefficients there, when they are functions of
    W(t_k) (:meth:`.model.CoefficientSet.on_lattice`), else the tree.
    Nothing is gathered.  Every inverted matrix is checked; StepSizeError
    names the level."""
    lattice = coeffs.on_lattice(tree)
    if lattice is None:
        return _assemble_workspace(tree, coeffs, sigma, phi)
    return _assemble_workspace(tree.lattice(), lattice, sigma, phi)


def _assemble_workspace(tree: ScenarioTree | WalkLattice, coeffs: CoefficientSet,
                        sigma: list, phi: list) -> DecoupledWorkspace:
    """:func:`build_workspace` on the given layout, node by node."""
    n = coeffs.n
    eye = np.eye(n)
    x0_inv, _ = checked_inverse(eye[None] + _mul(coeffs.G, sigma[0]),
                                "I + G Sigma(0)", 0)
    ws = DecoupledWorkspace(tree, sigma, *([] for _ in range(6)),
                            control_weight_inverses(coeffs), _mul(x0_inv, coeffs.G)[0])
    for k in range(tree.n_steps):
        sig, phik = sigma[k], phi[k]
        A, C, Q, R = coeffs.A[k], coeffs.C[k], coeffs.Q[k], coeffs.R[k]
        sig_c = 0.5 * (sig + tree.cond_expect(sigma[k + 1]))
        H, cond_sv = checked_inverse(eye[None] + _mul(sig_c, R), "I + S R", k)
        phi_step, step_sv = checked_inverse(eye[None] + tree.dt * (_mul(sig, Q) - A),
                                            "I + dt (Sigma Q - A)", k)
        ws.min_conditioner_sv = min(ws.min_conditioner_sv, cond_sv)
        ws.min_phi_step_sv = min(ws.min_phi_step_sv, step_sv)
        ws.H.append(H)
        ws.sig_c.append(sig_c)
        ws.phi_step.append(phi_step)
        ws.vtheta_coef.append(_mul(_mul(phik, R) - C, H))
        ws.zx.append(_mul(H, phik + _mul(sig_c, _t(C))))
        ws.bars.append(_concat_nodes([coeffs.A_bar[k], coeffs.C_bar[k],
                                      coeffs.B_bar[k]], axis=2))
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


def _backward_sweep(tree: ScenarioTree | WalkLattice, coeffs: CoefficientSet,
                    ws: DecoupledWorkspace, lam: np.ndarray, eta: np.ndarray,
                    terminal: np.ndarray) -> tuple:
    """(phi, vtheta) of the auxiliary backward equation for column stacks
    (d, c) of (lam, eta), from phi(T) = ``terminal``, a per-column stack
    (nodes, n, c), on the layout ``tree``.  Each level is as wide as its
    inputs: one node on node-constant data and a one-node terminal."""
    n_steps, dt = tree.n_steps, tree.dt
    ws = ws.on(tree)
    lam1, lam2, lam3 = split_blocks(lam, tree, coeffs)
    alpha, beta, gamma = split_blocks(eta, tree, coeffs)
    phi: list = [None] * (n_steps + 1)
    vtheta: list = [None] * n_steps
    phi[n_steps] = terminal
    for k in range(n_steps - 1, -1, -1):
        vth = tree.z_from_next(phi[k + 1])
        # the multipliers enter through the transposed reconstruction maps
        # of y, z and u (Sigma is symmetric), the targets through the bars
        rest = (_mul(ws.vtheta_coef[k], vth) - _mul(ws.sigma[k], lam1[k])
                - _mul(_t(ws.zx[k]), lam2[k])
                - _mul(coeffs.B[k], _mul(_t(ws.n_inv[k]), lam3[k]))
                + _mul(ws.bars[k], np.concatenate([alpha[k], beta[k], gamma[k]])))
        phi[k] = _mul(ws.phi_step[k], tree.cond_expect(phi[k + 1]) - dt * rest)
        vtheta[k] = vth
    return phi, vtheta


def _adjoint_step(tree: ScenarioTree | WalkLattice, coeffs: CoefficientSet, k: int,
                  x: np.ndarray, y: np.ndarray, z: np.ndarray, lam1: np.ndarray,
                  lam2: np.ndarray) -> np.ndarray:
    """Level k + 1 of the adjoint dx = (A' x - Q y - lam1) ds + (C' x - R z
    - lam2) dW from level k and the (y, z) reconstructed on it: the up child
    of each node takes dW = +sqrt(dt), the down child -sqrt(dt) (on the
    lattice, their conditional mean given d, ``children``)."""
    step = x + tree.dt * (_mul(_t(coeffs.A[k]), x) - _mul(coeffs.Q[k], y) - lam1[None])
    shock = tree.sqrt_dt * (_mul(_t(coeffs.C[k]), x) - _mul(coeffs.R[k], z) - lam2[None])
    return tree.children(step, shock)


def _forward_sweep(tree: ScenarioTree | WalkLattice, coeffs: CoefficientSet,
                   ws: DecoupledWorkspace, lam: np.ndarray, phi: list, vtheta: list,
                   keep: tuple) -> tuple:
    """u, y and z on levels 0..n_steps-1, reconstructed from the adjoint x
    level by level as :func:`_adjoint_step` forms it and reduced to their
    level means and the mean couplings, each stacked like ``lam``.  ``tree``
    is the tree or the walk lattice: on the lattice, x is its conditional
    mean given the node, which is all the means and couplings read, since
    every map applied to it is a function of the node.  ``phi`` and
    ``vtheta`` are read one level at a time, so they may be
    :class:`_Gathered` views.  x stops at level n_steps - 1 unless ``keep``
    names it; then it runs to the leaves.
    Returns (kept, means, coupling), ``kept`` the levels of each field
    named in ``keep``.  The guard is the worst defect of N u - (B' x -
    lam3) relative to 1 + |B' x| over every value reconstructed; above
    _GUARD_TOL or not finite, NumericsError."""
    n, n_steps = coeffs.n, tree.n_steps
    ws = ws.on(tree)
    lam1, lam2, lam3 = split_blocks(lam, tree, coeffs)
    kept = {name: [] for name in keep}
    means = np.empty(lam.shape)
    coupling = np.empty(lam.shape)
    mean_y, mean_z, mean_u = split_blocks(means, tree, coeffs)
    cpl_y, cpl_z, cpl_u = split_blocks(coupling, tree, coeffs)
    guard = np.zeros(lam.shape[1])
    x = (ws.x0_gain @ phi[0][0])[None]
    for k in range(n_steps):
        bx = _mul(_t(coeffs.B[k]), x)
        net = bx - lam3[k][None]
        uk = _mul(ws.n_inv[k], net)
        yk = _mul(ws.sigma[k], x) - phi[k]
        zk = _mul(ws.zx[k], x) - _mul(ws.H[k], _mul(ws.sig_c[k], lam2[k]) + vtheta[k])
        defect = np.abs(_mul(coeffs.N[k], uk) - net).max(axis=(0, 1))
        guard = np.maximum(guard, defect / (1.0 + np.abs(bx).max(axis=(0, 1))))
        mean_y[k], mean_z[k], mean_u[k] = tree.expect(yk), tree.expect(zk), tree.expect(uk)
        bars = tree.level_coupling(ws.bars[k], x)
        cpl_y[k], cpl_z[k], cpl_u[k] = bars[:n], bars[n:2 * n], bars[2 * n:]
        for name in keep:
            kept[name].append({"x": x, "u": uk, "y": yk, "z": zk}[name])
        if k + 1 < n_steps or "x" in keep:
            x = _adjoint_step(tree, coeffs, k, x, yk, zk, lam1[k], lam2[k])
    if "x" in keep:
        kept["x"].append(x)
    worst = float(guard.max())
    if not worst <= _GUARD_TOL:
        raise NumericsError(
            f"control reconstruction defect {worst:.3e} exceeds {_GUARD_TOL:.1e}"
        )
    return kept, means, coupling


def solve_decoupled(tree: ScenarioTree, coeffs: CoefficientSet, ric: RiccatiSolution,
                    lam_vec: np.ndarray, eta_vec: np.ndarray) -> DecoupledSolution:
    """Solve the (lam, eta) optimality system and return fields plus means.

    ``lam_vec`` and ``eta_vec`` are (d,) or column stacks (d, c); a stack is
    solved in one sweep and every field and mean keeps the column axis
    last.  A single pair runs as one column."""
    ws = build_workspace(tree, coeffs, ric.sigma, ric.phi)
    lam = np.asarray(lam_vec, dtype=float).reshape(len(lam_vec), -1)
    eta = np.asarray(eta_vec, dtype=float).reshape(lam.shape)
    phi, vtheta = _backward_sweep(tree, coeffs, ws, lam, eta,
                                  np.repeat(-coeffs.xi[..., None], lam.shape[1], axis=2))
    kept, means, coupling = _forward_sweep(tree, coeffs, ws, lam, phi, vtheta,
                                           keep=("x", "u", "y", "z"))
    x = kept["x"]
    y = kept["y"] + [_mul(ws.on(tree).sigma[tree.n_steps], x[-1]) - phi[-1]]
    fields = (phi, vtheta, x, kept["u"], y, kept["z"])
    if np.ndim(lam_vec) == 1:
        fields = tuple([lv[..., 0] for lv in levels] for levels in fields)
        means, coupling = means[:, 0], coupling[:, 0]
    return DecoupledSolution(*fields, means, coupling)


def _response(tree: ScenarioTree | WalkLattice, coeffs: CoefficientSet,
              ws: DecoupledWorkspace, lam: np.ndarray, eta: np.ndarray,
              xi_weight: np.ndarray, keep: tuple = ()) -> tuple:
    """:func:`_forward_sweep` of column stacks (d, c) after
    :func:`_backward_sweep` from phi(T) = -s xi on each column, s the
    column's entry of ``xi_weight`` (c,); where every s is zero the
    terminal is one node, and the leaves are never formed.  When the
    workspace lives on the walk lattice and xi is a function of W(T) (or
    every s is zero), the backward half runs on the lattice, and so does the
    forward half unless it keeps a field; a kept field is the tree's, which
    steps x and reads phi and vtheta gathered one level at a time.  A sweep
    that keeps a field, or runs on the lattice, runs all columns as one
    block; otherwise the tree runs full width, 16 columns to a block."""
    back = front = (tree, coeffs)
    if isinstance(ws.layout, WalkLattice) and isinstance(tree, ScenarioTree):
        lattice = coeffs.on_lattice(tree)
        if lattice.xi is not None or not xi_weight.any():
            back = (ws.layout, lattice)
            if not keep:
                front = back
    one_block = keep or isinstance(front[0], WalkLattice)
    means = np.empty(lam.shape)
    coupling = np.empty(lam.shape)
    for block in [slice(None)] if one_block else column_blocks(lam.shape[1]):
        lam_b, weight = lam[:, block], xi_weight[block]
        terminal = (-back[1].xi[..., None] * weight if weight.any()
                    else np.zeros((1, coeffs.n, len(weight))))
        phi, vtheta = _backward_sweep(*back, ws, lam_b, eta[:, block], terminal)
        if back is not front:
            phi, vtheta = _Gathered(tree, phi), _Gathered(tree, vtheta)
        kept, means[:, block], coupling[:, block] = _forward_sweep(
            *front, ws, lam_b, phi, vtheta, keep)
    return kept, means, coupling


def linear_response(tree: ScenarioTree | WalkLattice, coeffs: CoefficientSet,
                    ws: DecoupledWorkspace, lam: np.ndarray, eta: np.ndarray,
                    xi_weight: np.ndarray | None = None) -> tuple:
    """Level means and mean couplings of the map (lam, eta, s) -> (means,
    coupling), linear in all three, for column stacks ``lam`` and ``eta`` of
    shape (d, c) and weights s = ``xi_weight`` (c,) of the terminal
    phi(T) = -s xi, zero when not given: the linear part of the affine map
    in (lam, eta) on columns with s = 0, its constant part on a column
    (0, 0, 1) (:func:`_response`: on the walk lattice when the workspace
    lives there).  Returns two (d, c) stacks."""
    if xi_weight is None:
        xi_weight = np.zeros(lam.shape[1])
    return _response(tree, coeffs, ws, lam, eta, xi_weight)[1:]


def _xi_response(tree: ScenarioTree, coeffs: CoefficientSet,
                 ws: DecoupledWorkspace) -> tuple:
    """Means and couplings of the base sweep (xi terminal, lam = eta = 0),
    the constant part of the affine map, each (d,); on the lattice when the
    workspace lives there and xi too is a function of W(T)
    (:func:`_response`)."""
    zero = np.zeros((eta_dimension(tree, coeffs), 1))
    means, coupling = _response(tree, coeffs, ws, zero, zero, np.ones(1))[1:]
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
                    ws: DecoupledWorkspace) -> MeanOperators:
    """Assemble the affine maps by unit impulses.

    One base sweep (xi terminal, lam = eta = 0) gives p_xi and q_xi; the d
    lam impulses and the d eta impulses give the linear part directly, as
    the columns of :func:`linear_response` (zero terminal, no base to
    subtract): one lattice sweep on lattice data, else one batched
    full-width sweep per column block."""
    d = eta_dimension(tree, coeffs)
    p_xi, q_xi = _xi_response(tree, coeffs, ws)
    unit, zero = np.eye(d), np.zeros((d, d))
    means, coupling = linear_response(tree, coeffs, ws, np.hstack([unit, zero]),
                                      np.hstack([zero, unit]))
    return MeanOperators(p_xi=p_xi, P_eta=means[:, d:], L=means[:, :d],
                         q_xi=q_xi, Q_eta=coupling[:, d:], M=coupling[:, :d])


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
    min_preconditioner_sv: float   # smallest singular value of M


def _reduced_problem(tree: ScenarioTree, coeffs: CoefficientSet,
                     ws: DecoupledWorkspace) -> tuple:
    """(layout, coefficients, workspace, name) of the problem whose outer
    system preconditions this one's.  With the workspace on the walk lattice
    it is the lattice problem, which is exact: the products run on it too,
    so M = A.
    Otherwise it is the node-mean problem: every level of the coefficients
    and of Sigma replaced by its node mean, kept as one node, and Phi = 0,
    the martingale integrand of a one-node Sigma.  It is node-constant, so
    it runs on the walk lattice.  Node means of PSD weights are PSD and keep
    N >= delta I, so its workspace passes the same checked inverses."""
    if isinstance(ws.layout, WalkLattice):
        return ws.layout, coeffs.on_lattice(tree), ws, "lattice"
    grid = tree.lattice()
    mean_coeffs = coeffs.node_means()
    sigma = [level.mean(axis=0, keepdims=True) for level in ws.sigma]
    phi = [np.zeros((1, coeffs.n, coeffs.n))] * tree.n_steps
    return (grid, mean_coeffs, _assemble_workspace(grid, mean_coeffs, sigma, phi),
            "node-mean")


def _outer_map(tree: ScenarioTree | WalkLattice, coeffs: CoefficientSet,
               ws: DecoupledWorkspace, weights: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The outer system's augmented matrix [A | -b] applied to a column
    stack (2d + 1, c) of (eta, lam, s): feasibility rows eta - means and
    stationarity rows W eta - coupling - lam, with means and couplings from
    :func:`linear_response` at terminal weights s.  So A x is the map at
    (x, 0), and b is minus the map at (0, 0, 1)."""
    d = len(weights)
    eta, lam = cols[:d], cols[d:2 * d]
    means, coupling = linear_response(tree, coeffs, ws, lam, eta, cols[2 * d])
    return np.concatenate([eta - means, weights @ eta - coupling - lam])


def solve_outer_system(tree: ScenarioTree, coeffs: CoefficientSet,
                       ws: DecoupledWorkspace) -> OuterSolution:
    """Solve the outer first-order conditions for (eta, lam).

    Two blocks of equations: the realized means equal eta (feasibility),
    and the multipliers equal the mean-cost gradient minus the mean-coupling
    feedback (stationarity in eta).  Both are affine in (eta, lam), so the
    pair is one linear system A (eta, lam) = b of size 2d, b from the base
    sweep.  GMRES solves A M^{-1} w = b and x = M^{-1} w, M the same system
    of :func:`_reduced_problem`, assembled densely from 2d unit columns.
    When the reduced problem is this one (the workspace on the walk
    lattice), M = A: where xi is a function of W(T) too, the base column
    rides in the same lattice sweep, [A | -b] from one sweep of 2d + 1
    columns of :func:`_outer_map`, and the GMRES product is a product with
    the assembled matrix.  Otherwise b comes from its own sweep, and on the
    node-mean problem each product is one single-column sweep of the tree.
    An M that is not finite or is numerically singular (condition number
    above 1 / machine epsilon) raises NumericsError
    (:func:`.bsde.checked_dense_sv`); the answer itself is certified on the
    final sweep (see :func:`constrained_solution_at`).
    """
    d = eta_dimension(tree, coeffs)
    weights = mean_cost_weights(tree, coeffs)
    grid, small_coeffs, small_ws, name = _reduced_problem(tree, coeffs, ws)
    exact = small_ws is ws
    if exact and small_coeffs.xi is not None:
        system = _outer_map(grid, small_coeffs, ws, weights, np.eye(2 * d + 1))
        precond, rhs = system[:, :-1], -system[:, -1]
    else:
        precond = _outer_map(grid, small_coeffs, small_ws, weights, np.eye(2 * d + 1, 2 * d))
        base = np.zeros((2 * d + 1, 1))
        base[-1] = 1.0
        rhs = -_outer_map(tree, coeffs, ws, weights, base)[:, 0]
    min_sv = checked_dense_sv(
        precond, f"outer first-order system of the {name} problem")
    inverse = np.linalg.inv(precond)

    def product(vec: np.ndarray) -> np.ndarray:
        if exact:
            return precond @ (inverse @ vec)
        return _outer_map(tree, coeffs, ws, weights,
                          np.append(inverse @ vec, 0.0)[:, None])[:, 0]

    sol, products, residual = _gmres(product, rhs, 2 * d)
    sol = inverse @ sol
    return OuterSolution(sol[:d], sol[d:], products + 1, residual, min_sv)


def _gmres(product, rhs: np.ndarray, max_products: int) -> tuple:
    """Unrestarted GMRES from zero (Saad & Schultz 1986): Arnoldi with
    modified Gram-Schmidt and Givens rotations, stopped once the residual
    falls to _KRYLOV_TOL |rhs|.  Returns (solution, products, relative
    residual); the residual is |A x - rhs| / |rhs| from the stored products,
    not the rotations' estimate.  NumericsError if the right-hand side is
    not finite, the system is singular or not finite on the Krylov space, or
    the tolerance is not met in ``max_products``: every test is written so
    that NaN fails it."""
    beta = float(np.linalg.norm(rhs))
    if not math.isfinite(beta):
        raise NumericsError(
            "right-hand side of the outer first-order system is not finite")
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
    while j < max_products and not abs(gvec[j]) <= _KRYLOV_TOL * beta:
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
        if not rho > 0.0:
            raise NumericsError(f"outer first-order system is singular or not "
                                f"finite (GMRES breakdown at product {j + 1})")
        cos[j], sin[j] = hess[j, j] / rho, hess[j + 1, j] / rho
        hess[j, j], hess[j + 1, j] = rho, 0.0
        gvec[j + 1] = -sin[j] * gvec[j]
        gvec[j] *= cos[j]
        j += 1
    coef = np.linalg.solve(hess[:j, :j], gvec[:j])   # upper triangular
    residual = float(np.linalg.norm(coef @ images[:j] - rhs)) / beta
    if not abs(gvec[j]) <= _KRYLOV_TOL * beta:
        raise NumericsError(
            f"GMRES on the outer first-order system did not converge: relative "
            f"residual {residual:.3e} after {j} products (tolerance {_KRYLOV_TOL:.0e})")
    return coef @ basis[:j], j, residual


@dataclass
class ConstrainedSolution:
    """Solution of the mean-constrained subproblem at a given eta (or at a
    column stack of them, u and every vector then carrying the column
    axis).  :func:`solve_decoupled` at (lam, eta) gives the other fields."""

    u: list                           # levels 0..n_steps - 1, (2**k, m)
    lam: np.ndarray
    eta: np.ndarray
    means: np.ndarray
    coupling: np.ndarray              # realized E[A_bar' x], E[C_bar' x], E[B_bar' x]
    constraint_residual: np.ndarray   # realized means - eta, stacked


def solve_constrained_problem(tree: ScenarioTree, coeffs: CoefficientSet,
                              ws: DecoupledWorkspace, ops: MeanOperators,
                              eta_vec: np.ndarray) -> ConstrainedSolution:
    """Pick multipliers hitting the target means from the probed maps
    ``ops`` (:func:`probe_operators`), certify, and solve.  ``eta_vec`` is
    (d,) or a column stack (d, c) solved in one sweep."""
    eta_vec = np.asarray(eta_vec, dtype=float)
    p_xi = ops.p_xi.reshape((-1,) + (1,) * (eta_vec.ndim - 1))
    lam = ops.solve_lambda(eta_vec - p_xi - ops.P_eta @ eta_vec)
    return constrained_solution_at(tree, coeffs, ws, lam, eta_vec)


def constrained_solution_at(tree: ScenarioTree, coeffs: CoefficientSet,
                            ws: DecoupledWorkspace, lam_vec: np.ndarray,
                            eta_vec: np.ndarray) -> ConstrainedSolution:
    """Solve at an explicitly given multiplier/mean pair and certify, column
    by column, that the realized means hit the targets:
    ||means - eta|| <= _CERT_TOL (1 + ||eta||), else (NaN included)
    InfeasibleEtaError.  One :func:`_response` sweep from xi that keeps u."""
    eta_vec = np.asarray(eta_vec, dtype=float)
    lam_vec = np.asarray(lam_vec, dtype=float)
    cols = (len(eta_vec), -1)
    lam = lam_vec.reshape(cols)
    kept, means, coupling = _response(tree, coeffs, ws, lam, eta_vec.reshape(cols),
                                      np.ones(lam.shape[1]), keep=("u",))
    u = kept["u"] if eta_vec.ndim > 1 else [level[..., 0] for level in kept["u"]]
    means, coupling = means.reshape(eta_vec.shape), coupling.reshape(eta_vec.shape)
    defect = means - eta_vec
    residual = np.linalg.norm(defect, axis=0)
    excess = residual - _CERT_TOL * (1.0 + np.linalg.norm(eta_vec, axis=0))
    if not np.all(excess <= 0):
        worst = float(np.ravel(residual)[np.argmax(excess)])
        raise InfeasibleEtaError(
            f"target means are not attainable: realized means miss them by {worst:.3e}"
        )
    return ConstrainedSolution(u=u, lam=lam_vec, eta=eta_vec, means=means,
                               coupling=coupling, constraint_residual=defect)


def picard_cross_check(tree: ScenarioTree, coeffs: CoefficientSet,
                       ric: RiccatiSolution, sol: ConstrainedSolution) -> dict:
    """Re-solve the optimality system at sol's multipliers by plain
    alternation (no Riccati decoupling) and report the disagreement with
    :func:`solve_decoupled` at the same (lam, eta).

    Alternates: backward solve for (y, z) given u with the target means
    frozen; explicit forward step for the adjoint x given (y, z); control
    update u = N^{-1}(B' x - lam3).  The alternation contracts only on
    short horizons, which is why callers run it on a truncated problem.
    It stops once a sweep changes u by at most _PICARD_TOL relative, or
    after _PICARD_SWEEPS sweeps.
    """
    lam1, lam2, lam3 = split_blocks(sol.lam, tree, coeffs)
    alpha, beta, gamma = split_blocks(sol.eta, tree, coeffs)
    n_inv = control_weight_inverses(coeffs)
    steps = implicit_steps(tree, coeffs)
    n_steps, dt = tree.n_steps, tree.dt
    u = [_mv(n_inv[k], np.tile(-lam3[k][None], (tree.n_nodes(k), 1)))
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
            return _mv(_t(coeffs.A[k]), xk) - _mv(coeffs.Q[k], y[k]) - lam1[k][None]

        def diffusion(k: int, xk: np.ndarray) -> np.ndarray:
            return _mv(_t(coeffs.C[k]), xk) - _mv(coeffs.R[k], z[k]) - lam2[k][None]

        x = solve_forward_sde(tree, -(coeffs.G @ y[0][0]), drift, diffusion)
        change = 0.0
        scale = 1.0
        for k in range(n_steps):
            u_new = _mv(n_inv[k], _mv(_t(coeffs.B[k]), x[k]) - lam3[k][None])
            change = max(change, float(np.abs(u_new - u[k]).max()))
            scale = max(scale, float(np.abs(u_new).max()))
            u[k] = u_new
        if change <= _PICARD_TOL * scale:
            converged = True
            break

    fields = solve_decoupled(tree, coeffs, ric, sol.lam, sol.eta)
    y_diff = max(float(np.abs(y[k] - fields.y[k]).max()) for k in range(n_steps + 1))
    x_diff = max(float(np.abs(x[k] - fields.x[k]).max()) for k in range(n_steps + 1))
    return {"y_diff": y_diff, "x_diff": x_diff,
            "iterations": iterations, "converged": converged}
