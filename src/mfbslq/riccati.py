"""Backward recursion for the stochastic Riccati pair (Sigma, Phi).

The decoupling field Sigma solves, node by node, the matrix equation

    Sigma_k = E_k[Sigma_{k+1}] - dt * S(Sigma_k, Phi_k),
    Phi_k   = z_from_next(Sigma_{k+1}),

with Sigma at the final level identically zero and

    S(Sigma, Phi) = -(A Sigma + Sigma A') + Sigma Q Sigma - B N^{-1} B'
                    + Phi G1 Phi - Phi H' C' - C H (Phi + Sigma C'),

where H = (I + Sigma R)^{-1} and G1 = R H (= (R^{-1} + Sigma)^{-1}, symmetric).
S maps symmetric (Sigma, Phi) to a symmetric matrix, so the per-node root
find F(Sigma) = Sigma - E_k[Sigma_{k+1}] + dt S(Sigma, Phi) = 0 is a damped
Newton iteration in the upper-triangle coordinates of Sigma.  With

    dS(D) = P D + D P' - V D V',   P = Sigma Q - A,   V = Phi G1 - C H,

the Newton matrix is I + dt dS restricted to symmetric D, formed per node
in these coordinates: column j is the upper triangle of
E_j + dt (P E_j + E_j P' - V E_j V') on the p = n (n + 1) / 2 symmetric unit
matrices E_j (the duplication basis of Magnus and Neudecker, Matrix
Differential Calculus, ch. 3).
In all n^2 coordinates its antisymmetric block can be singular where the
symmetric one is not.  Each residual evaluation also returns P and V, which
the next Newton matrix reads, and forms A Sigma and C H Phi once, taking
Sigma A' and Phi H' C' as their transposes (Sigma and Phi are exactly
symmetric on every iterate).  Nodes whose initial residual already
meets the tolerance are left untouched (so degenerate problems
reproduce the conditional expectation bit for bit), and the step
length is halved per node until the residual decreases.  Every inverse of
the conditioner I + Sigma R is checked (:func:`.bsde.checked_inverse`): a
singular one raises StepSizeError naming the level, and the smallest
singular value on the accepted iterates is the reported
``min_conditioner_sv``.  N^{-1} is the checked per-level inverse of
:func:`.bsde.control_weight_inverses`, shared with the decoupled workspace.

For a scalar state (n = 1, so one Newton coordinate) and a scalar control
the per-node algebra is broadcast arithmetic: I + Sigma R is inverted by
division, with the exact singular value |x|, every product of the
Newton matrix is a multiply, the Newton step is a division, and a zero
or non-finite Newton matrix raises the same RiccatiError as a singular
LAPACK solve.  Wider stacks run LAPACK and matmul.

The recursion starts from a terminal Sigma stored as one node (the tree's
length-1 convention), and each level's Newton arrays take the broadcast
width of that level's inputs: E_k[Sigma_{k+1}] and the coefficients A, Q,
C, R, B N^{-1} B'.  With deterministic coefficients Sigma and Phi therefore
stay at one node per level (Phi = 0), and a level is 2**k nodes wide only
where one of its inputs varies over the nodes.

Where every coefficient level is a function of the walk value W(t_k)
(:meth:`.model.CoefficientSet.on_lattice`, decided by value), so are Sigma
and Phi: the recursion then runs on the walk lattice, k + 1 nodes on level
k, with the same per-node arithmetic, and Sigma and Phi are returned on
it.  Gathered to the tree (:meth:`.tree.ScenarioTree.gather`), they are the
tree's solve bit for bit.  ``newton_nodes`` counts the nodes of the layout
it ran on.  Any other data run on the tree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._errors import RiccatiError
from .bsde import checked_inverse, control_weight_inverses
from .model import CoefficientSet
from .tree import ScenarioTree, _lowest_eig, _mul, _solve, _t

_NEWTON_TOL = 1e-12
_MAX_NEWTON = 50
_MAX_BACKTRACK = 30


@dataclass
class RiccatiSolution:
    # on the layout solved on: (2**k or 1, n, n) on the tree, (k + 1 or 1,
    # n, n) on the walk lattice where the coefficients are functions of W(t_k)
    sigma: list                 # levels 0..n_steps
    phi: list                   # levels 0..n_steps - 1
    symmetry_defect: float      # max |Sigma - Sigma'| entry over all nodes
    min_sigma_eig: float        # most negative eigenvalue of any Sigma node
    min_conditioner_sv: float   # min singular value of I + Sigma R over nodes
    newton_iterations: int      # worst per-level Newton iteration count
    newton_iterations_per_level: list   # levels 0..n_steps - 1
    newton_nodes: int           # nodes the Newton iteration ran on, all levels
                                # (lattice nodes on lattice data)


def _residual(sig, cond, phi, A, Q, BNB, C, R, dt, level):
    """F(Sigma) = Sigma - E_k[Sigma_{k+1}] + dt S(Sigma, Phi) on every node,
    with P = Sigma Q - A and V = Phi G1 - C H, which the Newton matrix reads,
    and the smallest singular value of the conditioner I + Sigma R, checked
    (StepSizeError names the level).  Sigma and Phi are exactly symmetric,
    so Sigma A' and Phi H' C' are the transposes of A Sigma and C H Phi."""
    H, min_sv = checked_inverse(np.eye(sig.shape[-1])[None] + _mul(sig, R),
                                "I + Sigma R", level)
    sig_q, phi_g1, ch = _mul(sig, Q), _mul(phi, _mul(R, H)), _mul(C, H)
    a_sig, ch_phi = _mul(A, sig), _mul(ch, phi)
    drift = (-(a_sig + _t(a_sig)) + _mul(sig_q, sig) - BNB + _mul(phi_g1, phi)
             - _t(ch_phi) - ch_phi - _mul(ch, _mul(sig, _t(C))))
    return sig - cond + dt * drift, sig_q - A, phi_g1 - ch, min_sv


def _symmetric_units(n):
    """(rows, cols) of the upper triangle's p = n (n + 1) / 2 entries and the
    symmetric unit matrices E_j, (p, n, n), with ones at (rows[j], cols[j])
    and its mirror."""
    rows, cols = np.triu_indices(n)
    units = np.zeros((len(rows), n, n))
    units[range(len(rows)), rows, cols] = units[range(len(rows)), cols, rows] = 1.0
    return rows, cols, units


def _newton_matrix(P, V, dt, basis):
    """I + dt dS on the upper-triangle coordinates, per node: column j is the
    upper triangle of E_j + dt (P E_j + E_j P' - V E_j V'), ``basis`` the
    triangle and the E_j of :func:`_symmetric_units`, so E_j P' is the
    transpose of P E_j."""
    rows, cols, units = basis
    p_e = _mul(P[:, None], units)
    images = units + dt * (p_e + _t(p_e) - _mul(_mul(V[:, None], units), _t(V)[:, None]))
    return images[..., rows, cols].swapaxes(1, 2)


def solve_riccati(tree: ScenarioTree, coeffs: CoefficientSet) -> RiccatiSolution:
    """Run the backward recursion over all levels, on the walk lattice when
    every coefficient is a function of W(t_k), else on the tree; the pair
    is returned on that layout.  Raises RiccatiError on a node whose
    starting residual is not finite, where the line search finds no root
    of the implicit step, or where the Newton iteration fails to meet the
    residual tolerance _NEWTON_TOL within _MAX_NEWTON iterations, and
    StepSizeError where N or I + Sigma R is singular.  A node named in an
    error is the first tree node of its lattice node."""
    lattice = coeffs.on_lattice(tree)
    grid, data = (tree, coeffs) if lattice is None else (tree.lattice(), lattice)
    n, n_steps, dt = coeffs.n, tree.n_steps, tree.dt
    basis = _symmetric_units(n)
    rows, cols, units = basis
    n_inv = control_weight_inverses(data)   # refuses a singular N up front

    sigma: list = [None] * (n_steps + 1)
    phi: list = [None] * n_steps
    sigma[n_steps] = np.zeros((1, n, n))

    min_eig = np.inf
    min_sv = np.inf
    level_iters = [0] * n_steps
    nodes = 0
    for k in range(n_steps - 1, -1, -1):
        A, Q, C, R = data.A[k], data.Q[k], data.C[k], data.R[k]
        BNB = _mul(data.B[k], _mul(n_inv[k], _t(data.B[k])))
        phik = grid.z_from_next(sigma[k + 1])
        cond = grid.cond_expect(sigma[k + 1])

        width = np.broadcast_shapes(cond.shape, A.shape, Q.shape, C.shape,
                                    R.shape, BNB.shape)
        sig = np.broadcast_to(cond, width).copy()
        nodes += width[0]
        res, P, V, cond_sv = _residual(sig, cond, phik, A, Q, BNB, C, R, dt, k)
        res_norm = np.linalg.norm(res, axis=(1, 2))
        if not np.isfinite(res_norm).all():
            # NaN fails the test below and would pass as converged; an
            # infinite residual comes from the data, not the Newton matrix
            j = grid.first_node(int(np.argmax(~np.isfinite(res_norm))))
            raise RiccatiError(f"Riccati residual is not finite at level {k}, node {j}")
        tol_vec = _NEWTON_TOL * (1.0 + np.linalg.norm(sig, axis=(1, 2)))
        active = res_norm > tol_vec

        iters = 0
        while active.any():
            if iters >= _MAX_NEWTON:
                j = int(np.argmax(np.where(active, res_norm, -np.inf)))
                raise RiccatiError(
                    f"Newton failed at level {k}: {grid.tree_nodes(k, active)} nodes "
                    f"above tolerance after {_MAX_NEWTON} iterations "
                    f"(worst residual {res_norm[j]:.3e} at node {grid.first_node(j)})"
                )
            iters += 1
            try:
                coords = _solve(_newton_matrix(P, V, dt, basis), -res[:, rows, cols, None])
            except np.linalg.LinAlgError as exc:
                raise RiccatiError(
                    f"singular Newton matrix at level {k}: {exc}"
                ) from exc
            step = (coords[:, :, 0] @ units.reshape(len(rows), -1)).reshape(sig.shape)

            alpha = np.where(active, 1.0, 0.0)
            pending = active.copy()
            for _ in range(_MAX_BACKTRACK + 1):
                trial = sig + alpha[:, None, None] * step
                res_t, P_t, V_t, sv_t = _residual(trial, cond, phik, A, Q, BNB, C, R, dt, k)
                rn_t = np.linalg.norm(res_t, axis=(1, 2))
                improved = rn_t <= (1.0 - 1e-4 * alpha) * res_norm
                pending &= ~improved
                if not pending.any():
                    break
                alpha[pending] *= 0.5
            if pending.any():
                j = int(np.argmax(np.where(pending, res_norm, -np.inf)))
                raise RiccatiError(
                    f"Newton line search stalled at level {k}, node {grid.first_node(j)} "
                    f"(residual {res_norm[j]:.3e}): no root of the implicit step was "
                    f"found near E_{k}[Sigma_{k + 1}] at this level and node; a finer "
                    f"time grid may help"
                )
            sig, res, P, V, cond_sv, res_norm = trial, res_t, P_t, V_t, sv_t, rn_t
            tol_vec = _NEWTON_TOL * (1.0 + np.linalg.norm(sig, axis=(1, 2)))
            active = res_norm > tol_vec

        sigma[k], phi[k], level_iters[k] = sig, phik, iters
        min_eig = min(min_eig, float(_lowest_eig(sig).min()))
        min_sv = min(min_sv, cond_sv)

    defect = 0.0
    for mats in sigma[:n_steps]:
        defect = max(defect, float(np.abs(mats - _t(mats)).max()))
    return RiccatiSolution(
        sigma=sigma, phi=phi, symmetry_defect=defect,
        min_sigma_eig=min_eig, min_conditioner_sv=min_sv, newton_nodes=nodes,
        newton_iterations=max(level_iters), newton_iterations_per_level=level_iters,
    )
