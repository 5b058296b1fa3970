"""Outer minimization over target means and the end-to-end pipeline.

The optimal deterministic mean triple eta is selected by the outer
first-order conditions (see :func:`.multipliers.solve_outer_system`):
feasibility of the realized means plus the multiplier/mean-cost-gradient
matching condition, a single linear solve over the probed affine maps.
With all barred coefficients zero the system collapses to zero multipliers
and the plain feedback control.

Independently of that selection, the realized cost is an exact quadratic
in eta: the constrained solver maps eta to a control affinely and the
controlled dynamics are linear.  This module assembles that quadratic from
d+1 constrained solves — the control at eta = 0 and the control change per
unit eta direction, solved in column blocks, are fed back as the columns of
one controlled-dynamics sweep that accumulates the Gram matrix of the cost
level by level (:func:`.oracle.reduced_quadratic`) — and uses it as a
certificate: it must be positive semidefinite, and the selected eta is
scored against it.

The reported cost re-runs the controlled mean-field BSDE at the final
control, and the reported stationarity residual re-derives the first-order
adjoint from that re-solved state: both numbers are produced by machinery
that does not share intermediate results with the solver that chose the
control.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from ._errors import ConvexityError, SpecValidationError
from .bsde import MeanfieldBsdeSolution, implicit_steps, solve_meanfield_bsde
from .model import CoefficientSet, ProblemSpec, realize, validate_h1_h2
from .multipliers import (ConstrainedSolution, MeanOperators, build_workspace,
                          column_blocks, constrained_solution_at, eta_dimension,
                          probe_operators, solve_constrained_problem,
                          solve_outer_system, split_blocks)
from .oracle import (OracleSolution, control_error, cost_of_solution,
                     reduced_quadratic, smp_stationarity_residual, solve_oracle)
from .riccati import RiccatiSolution, solve_riccati
from .tree import ScenarioTree, build_tree

_PSD_TOL = 1e-9


@dataclass
class OuterQuadratic:
    hessian: np.ndarray
    linear: np.ndarray
    constant: float
    min_eigenvalue: float


def assemble_outer_quadratic(tree: ScenarioTree, coeffs: CoefficientSet,
                             ric: RiccatiSolution,
                             ops: MeanOperators) -> OuterQuadratic:
    """Probe the cost as a function of eta and return it in closed form.

    The d unit-eta constrained solves run in column blocks; each block
    writes its control changes u(e_j) - u(0) into one preallocated column
    stack of directions."""
    d = eta_dimension(tree, coeffs)
    base = solve_constrained_problem(tree, coeffs, ric, np.zeros(d), ops).u
    unit = np.eye(d)
    directions = [np.empty((tree.n_nodes(k), coeffs.m, d))
                  for k in range(tree.n_steps)]
    for block in column_blocks(d):
        sol = solve_constrained_problem(tree, coeffs, ric, unit[:, block], ops)
        for level, part, origin in zip(directions, sol.u, base):
            np.subtract(part, origin[..., None], out=level[:, :, block])
        del sol   # free this block's fields before the next block is solved
    hess, lin, const = reduced_quadratic(tree, coeffs, base, directions)

    eigs = np.linalg.eigvalsh(hess)
    min_eig = float(eigs[0])
    if min_eig < -_PSD_TOL * max(1.0, float(eigs[-1])):
        raise ConvexityError(
            f"outer quadratic is not positive semidefinite "
            f"(min eigenvalue {min_eig:.3e})"
        )
    return OuterQuadratic(hess, lin, const, min_eig)


def solve_eta(quad: OuterQuadratic):
    """Minimize the outer quadratic; returns (eta, first-order residual,
    singular flag).  A singular Hessian falls back to the min-norm solution."""
    singular = False
    try:
        factor = scipy.linalg.cho_factor(quad.hessian)
        eta = scipy.linalg.cho_solve(factor, -quad.linear)
        eta -= scipy.linalg.cho_solve(factor, quad.hessian @ eta + quad.linear)
    except np.linalg.LinAlgError:
        singular = True
        eta = -np.linalg.pinv(quad.hessian, rcond=1e-12) @ quad.linear
    residual = float(np.linalg.norm(quad.hessian @ eta + quad.linear))
    return eta, residual, singular


@dataclass
class PipelineResult:
    tree: ScenarioTree
    coeffs: CoefficientSet
    riccati: RiccatiSolution
    operators: MeanOperators
    quadratic: OuterQuadratic
    eta: np.ndarray
    lam: np.ndarray
    eta_residual: float
    eta_singular: bool
    constrained: ConstrainedSolution
    resolved: MeanfieldBsdeSolution
    cost: float
    stationarity_residual: float
    timings: dict = field(default_factory=dict)
    oracle: OracleSolution | None = None
    oracle_control_error: float | None = None
    oracle_cost_gap: float | None = None

    def diagnostics(self) -> dict:
        """Health numbers the solve computed along the way; deterministic."""
        ws = build_workspace(self.tree, self.coeffs, self.riccati)
        return {
            "newton_iterations": self.riccati.newton_iterations,
            "eta_residual": self.eta_residual,
            "eta_singular": self.eta_singular,
            "outer_min_eigenvalue": self.quadratic.min_eigenvalue,
            "probe_superposition_error": self.operators.superposition_error,
            "min_I_plus_SR_sv": ws.min_conditioner_sv,
            "min_I_plus_dt_SigmaQ_minus_A_sv": ws.min_phi_step_sv,
            "min_I_minus_dt_A_sv": implicit_steps(self.tree, self.coeffs)[2],
        }

    def report(self) -> dict:
        a, b, g = split_blocks(self.constrained.constraint_residual,
                               self.tree, self.coeffs)
        out = {
            "cost": self.cost,
            "eta_star": [float(v) for v in self.eta],
            "lambda_residual": self.constrained.lambda_residual,
            "constraint_residuals": {
                "y_means": float(np.abs(a).max()),
                "z_means": float(np.abs(b).max()),
                "u_means": float(np.abs(g).max()),
            },
            "stationarity_residual": self.stationarity_residual,
            "riccati": {
                "symmetry": self.riccati.symmetry_defect,
                "min_sigma_eig": self.riccati.min_sigma_eig,
                "min_I_plus_SigmaR_sv": self.riccati.min_conditioner_sv,
            },
            "diagnostics": self.diagnostics(),
            "timings": {k: float(v) for k, v in self.timings.items()},
        }
        if self.oracle is not None:
            out["oracle"] = {
                "cost": self.oracle.cost,
                "control_error": self.oracle_control_error,
            }
        return out


def run_pipeline(spec: ProblemSpec, n_steps: int, with_oracle: bool = False,
                 validate: bool = True) -> PipelineResult:
    """Full solve: realize, validate, Riccati, probe, outer solve, certify."""
    timings: dict = {}

    def staged(name: str, fn):
        start = time.perf_counter()
        out = fn()
        timings[name] = time.perf_counter() - start
        return out

    tree = build_tree(spec.horizon, n_steps)
    coeffs = staged("realize", lambda: realize(spec, tree))
    if validate:
        report = staged("validate", lambda: validate_h1_h2(coeffs, spec.delta))
        if not report.ok:
            raise SpecValidationError(
                "problem data violates the standing assumptions:\n" + report.summary()
            )
    ric = staged("riccati", lambda: solve_riccati(tree, coeffs))
    ops = staged("probe_operators", lambda: probe_operators(tree, coeffs, ric))
    quad = staged("outer_quadratic",
                  lambda: assemble_outer_quadratic(tree, coeffs, ric, ops))
    eta, lam, eta_residual, eta_singular = staged(
        "solve_outer_system",
        lambda: solve_outer_system(tree, coeffs, ric, ops))
    final = staged("final_solve", lambda: constrained_solution_at(
        tree, coeffs, ric, lam, eta, ops))
    resolved = staged("cost", lambda: solve_meanfield_bsde(tree, coeffs, final.u))
    cost = cost_of_solution(tree, coeffs, final.u, resolved)
    stationarity = staged("stationarity", lambda: smp_stationarity_residual(
        tree, coeffs, final.u, resolved))

    result = PipelineResult(
        tree=tree, coeffs=coeffs, riccati=ric, operators=ops, quadratic=quad,
        eta=eta, lam=lam, eta_residual=eta_residual, eta_singular=eta_singular,
        constrained=final, resolved=resolved, cost=cost,
        stationarity_residual=stationarity, timings=timings,
    )
    if with_oracle:
        oracle = staged("oracle", lambda: solve_oracle(tree, coeffs))
        result.oracle = oracle
        result.oracle_control_error = control_error(tree, final.u, oracle.u)
        result.oracle_cost_gap = cost - oracle.cost
    return result
