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

the Newton matrix on the row-major vec of D is I + dt (P(x)I + I(x)P - V(x)V),
formed per node in this closed form and restricted to the upper triangle by
the constant duplication matrix (Magnus and Neudecker, Matrix Differential
Calculus, ch. 3).  In all n^2 coordinates its antisymmetric block can be
singular where the symmetric one is not.  Nodes whose initial
residual already meets the tolerance are left untouched (so degenerate
problems reproduce the conditional expectation bit for bit), and the step
length is halved per node until the residual decreases.  Every inverse of
the conditioner I + Sigma R is checked (:func:`.bsde.checked_inverse`): a
singular one raises StepSizeError naming the level, and the smallest
singular value on the accepted iterates is the reported
``min_conditioner_sv``.  N^{-1} is the checked per-level inverse of
:func:`.bsde.control_weight_inverses`, shared with the decoupled workspace.

For a scalar state (n = 1, so one Newton coordinate) and a scalar control
the per-node algebra is broadcast arithmetic: I + Sigma R is inverted by
division, with the exact singular value |x|, every Kronecker product is a
multiply, the Newton step is a division, and a zero or non-finite Newton
matrix raises the same RiccatiError as a singular LAPACK solve.  Wider
stacks run LAPACK and matmul.

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


def _kron(a, b):
    """Per-node Kronecker products of (nodes, n, n) stacks as (nodes, n*n, n*n).
    The result owns its memory, so numpy reuses it for the sums it enters."""
    n = a.shape[-1]
    out = np.empty((max(len(a), len(b)), n * n, n * n))
    np.multiply(a[:, :, None, :, None], b[:, None, :, None, :], out=out.reshape(-1, n, n, n, n))
    return out


def _drift(A, Q, BNB, C, sigma, phi, H, G1):
    return (
        -(_mul(A, sigma) + _mul(sigma, _t(A))) + _mul(_mul(sigma, Q), sigma) - BNB
        + _mul(_mul(phi, G1), phi) - _mul(_mul(phi, _t(H)), _t(C))
        - _mul(_mul(C, H), phi + _mul(sigma, _t(C)))
    )


def _conditioners(sigma, R, eye, level):
    """H = (I + Sigma R)^{-1}, checked, with G1 = R H and the smallest
    singular value of I + Sigma R; StepSizeError names the level."""
    H, min_sv = checked_inverse(eye[None] + _mul(sigma, R), "I + Sigma R", level)
    return H, _mul(R, H), min_sv


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
    eye = np.eye(n)
    rows, cols = np.triu_indices(n)
    upper = rows * n + cols                 # row-major flat indices of the unknowns
    dup = np.eye(n * n)[:, upper]           # vec(D) = dup @ D.flat[upper], D symmetric
    dup[cols * n + rows, range(len(upper))] = 1.0
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
        H, G1, cond_sv = _conditioners(sig, R, eye, k)
        res = sig - cond + dt * _drift(A, Q, BNB, C, sig, phik, H, G1)
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
            P = _mul(sig, Q) - A
            V = _mul(phik, G1) - _mul(C, H)
            jac = np.eye(n * n) + dt * (_kron(P, eye[None]) + _kron(eye[None], P) - _kron(V, V))
            try:
                coords = _solve(_mul(jac[:, upper], dup),
                                -res.reshape(len(res), -1)[:, upper, None])
            except np.linalg.LinAlgError as exc:
                raise RiccatiError(
                    f"singular Newton matrix at level {k}: {exc}"
                ) from exc
            step = (coords[:, :, 0] @ dup.T).reshape(sig.shape)

            alpha = np.where(active, 1.0, 0.0)
            pending = active.copy()
            for _ in range(_MAX_BACKTRACK + 1):
                trial = sig + alpha[:, None, None] * step
                Ht, G1t, svt = _conditioners(trial, R, eye, k)
                res_t = trial - cond + dt * _drift(A, Q, BNB, C, trial, phik, Ht, G1t)
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
            sig, H, G1, cond_sv = trial, Ht, G1t, svt
            res, res_norm = res_t, rn_t
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
