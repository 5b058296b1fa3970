"""Outer minimization over target means and the end-to-end pipeline.

The optimal deterministic mean triple eta is selected by the outer
first-order conditions (see :func:`.multipliers.solve_outer_system`):
feasibility of the realized means plus the multiplier/mean-cost-gradient
matching condition, one linear system in (eta, lam).  Every input solves
it by matrix-free GMRES, right-preconditioned by the system of the
node-mean problem; the pipeline never probes.  The report's
``outer_columns`` counts the base column and one per GMRES product, and
``outer_relative_residual`` is |A x - b| / |b| of the system.  With all
barred coefficients zero the system collapses to zero multipliers and the
plain feedback control.

Both conditions are certified on the final sweep, whose control is
returned, not on the outer solve: its realized means must hit eta, and its
realized couplings must give lam = W eta - coupling (W the mean-cost
weights), else NumericsError; a NaN fails both.  The report's
``multiplier_residual`` is max |W eta - coupling - lam|.  The final sweep
keeps only the control: the result holds u, the means and the couplings,
and no other field of the tree; the decoupled workspace, built once for
both solves, is dropped after the final sweep.

Convexity is certified by the standing assumptions: the discrete cost is a
sum of Gram forms over the weights Q, R, N, their barred means and G, so
once :func:`.model.validate_h1_h2` (which ``run_pipeline`` always runs) has
shown them positive semidefinite (H2), the cost is convex in the control
and in eta, which enters the control affinely.  The cost on the eta family
is an exact quadratic; :func:`assemble_outer_quadratic` builds it on demand
as a check, from d+1 constrained solves and the cost's Hessian products and
gradient (:func:`.oracle.hessian_product`, :func:`.oracle.cost_gradient`).
The pipeline does not run it.

The reported cost re-runs the controlled mean-field BSDE at the final
control, and the reported stationarity residual re-derives the first-order
adjoint from that re-solved state: both numbers are produced by machinery
that does not share intermediate results with the solver that chose the
control.  The re-solved state is dropped once both are computed.
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass, field

import numpy as np

from ._errors import ConvexityError, NumericsError, SpecValidationError
from .bsde import implicit_steps, solve_meanfield_bsde
from .model import CoefficientSet, ProblemSpec, realize, validate_h1_h2
from .multipliers import (_CERT_TOL, ConstrainedSolution, OuterSolution,
                          build_workspace, column_blocks,
                          constrained_solution_at, eta_dimension,
                          mean_cost_weights, probe_operators,
                          solve_constrained_problem, solve_outer_system,
                          split_blocks)
from .oracle import (OracleSolution, control_dimension, control_error,
                     cost_gradient, cost_of_solution, evaluate_cost,
                     hessian_product, smp_stationarity_residual, solve_oracle,
                     stack_controls, unstack_controls)
from .riccati import RiccatiSolution, solve_riccati
from .tree import ScenarioTree, build_tree

_PSD_TOL = 1e-9


@dataclass
class OuterQuadratic:
    """J(eta) = eta' hessian eta + 2 linear' eta + constant on the eta family."""

    hessian: np.ndarray
    linear: np.ndarray
    constant: float
    min_eigenvalue: float


def assemble_outer_quadratic(tree: ScenarioTree, coeffs: CoefficientSet,
                             ric: RiccatiSolution) -> OuterQuadratic:
    """Probe the cost as a function of eta and return it in closed form.

    An on-demand check of the eta family; :func:`run_pipeline` does not call
    it.  The d unit-eta constrained solves run in column blocks; each block
    writes its control changes u(e_j) - u(0) into one preallocated column
    stack of directions D, so this holds (2**depth, m, d) floats.  With
    u(eta) = u(0) + D eta, the hessian is D' H D, taken one block of H D at
    a time, and the linear term is half of D' times the gradient at u(0)."""
    d = eta_dimension(tree, coeffs)
    ws = build_workspace(tree, coeffs, ric.sigma, ric.phi)
    ops = probe_operators(tree, coeffs, ws)
    base = solve_constrained_problem(tree, coeffs, ws, ops, np.zeros(d)).u
    unit = np.eye(d)
    flat = np.empty((control_dimension(tree, coeffs.m), d))
    directions = unstack_controls(flat, tree, coeffs.m)   # views into flat
    for block in column_blocks(d):
        sol = solve_constrained_problem(tree, coeffs, ws, ops, unit[:, block])
        for level, part, origin in zip(directions, sol.u, base):
            np.subtract(part, origin[..., None], out=level[:, :, block])
        del sol   # free this block's fields before the next block is solved
    hess = np.empty((d, d))
    for block in column_blocks(d):
        hess[:, block] = flat.T @ stack_controls(hessian_product(
            tree, coeffs, [level[:, :, block] for level in directions]))
    hess += hess.T   # symmetric up to rounding; make both triangles agree
    hess *= 0.5
    lin = 0.5 * (flat.T @ stack_controls(cost_gradient(tree, coeffs, base)))
    const = evaluate_cost(tree, coeffs, base)

    eigs = np.linalg.eigvalsh(hess)
    min_eig = float(eigs[0])
    if min_eig < -_PSD_TOL * max(1.0, float(eigs[-1])):
        raise ConvexityError(
            f"outer quadratic is not positive semidefinite "
            f"(min eigenvalue {min_eig:.3e})"
        )
    return OuterQuadratic(hess, lin, const, min_eig)


@dataclass
class PipelineResult:
    tree: ScenarioTree
    coeffs: CoefficientSet
    riccati: RiccatiSolution
    multiplier_residual: float   # max |W eta - coupling - lam| on the final sweep
    min_conditioner_sv: float    # the decoupled workspace's smallest singular
    min_phi_step_sv: float       # values of I + S R and I + dt (Sigma Q - A)
    outer: OuterSolution
    constrained: ConstrainedSolution
    cost: float
    stationarity_residual: float
    timings: dict = field(default_factory=dict)
    oracle: OracleSolution | None = None
    oracle_control_error: float | None = None
    oracle_cost_gap: float | None = None

    def diagnostics(self) -> dict:
        """Health numbers the solve computed along the way; deterministic."""
        steps = implicit_steps(self.tree, self.coeffs)
        return {
            "newton_iterations": self.riccati.newton_iterations,
            "newton_iterations_per_level": self.riccati.newton_iterations_per_level,
            "riccati_nodes": self.riccati.newton_nodes,
            "min_I_plus_SR_sv": self.min_conditioner_sv,
            "min_I_plus_dt_SigmaQ_minus_A_sv": self.min_phi_step_sv,
            "min_I_minus_dt_A_sv": steps.min_step_sv,
            "min_mean_closing_sv": steps.min_closing_sv,
            "outer_columns": self.outer.columns,
            "outer_relative_residual": self.outer.relative_residual,
            "min_outer_preconditioner_sv": self.outer.min_preconditioner_sv,
        }

    def report(self) -> dict:
        a, b, g = split_blocks(self.constrained.constraint_residual,
                               self.tree, self.coeffs)
        out = {
            "cost": self.cost,
            "eta_star": [float(v) for v in self.constrained.eta],
            "multiplier_residual": self.multiplier_residual,
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
                "gradient_norm": self.oracle.gradient_norm,
                "certified": self.oracle.certified,
                "method": self.oracle.method,
                "min_kkt_tail_sv": self.oracle.min_kkt_tail_sv,
            }
        return out


def run_pipeline(spec: ProblemSpec, n_steps: int,
                 with_oracle: bool = False) -> PipelineResult:
    """Full solve: realize, validate, Riccati, outer solve, certify.

    Validation always runs: its H2 checks are the convexity certificate of
    every returned result."""
    timings: dict = {}

    def staged(name: str, fn):
        start = time.perf_counter()
        out = fn()
        timings[name] = time.perf_counter() - start
        return out

    tree = build_tree(spec.horizon, n_steps)
    coeffs = staged("realize", lambda: realize(spec, tree))
    report = staged("validate", lambda: validate_h1_h2(coeffs, spec.delta))
    if not report.ok:
        raise SpecValidationError(
            "problem data violates the standing assumptions:\n" + report.summary()
        )
    implicit_steps(tree, coeffs)   # refuses a singular backward step up front
    ric = staged("riccati", lambda: solve_riccati(tree, coeffs))
    ws = build_workspace(tree, coeffs, ric.sigma, ric.phi)
    system = staged("solve_outer_system", lambda: solve_outer_system(tree, coeffs, ws))
    eta, lam = system.eta, system.lam
    final = staged("final_solve",
                   lambda: constrained_solution_at(tree, coeffs, ws, lam, eta))
    conditioner_sv, phi_step_sv = ws.min_conditioner_sv, ws.min_phi_step_sv
    del ws   # the sweeps are done: the cost re-solve and the oracle run without it
    gap = mean_cost_weights(tree, coeffs) @ eta - final.coupling - lam
    gap_norm = float(np.linalg.norm(gap))
    if not gap_norm <= _CERT_TOL * (1.0 + np.linalg.norm(lam)):
        raise NumericsError(
            f"multiplier residual {gap_norm:.3e} of the final solve exceeds "
            f"{_CERT_TOL:.1e} (1 + |lambda|)")
    resolved = staged("cost", lambda: solve_meanfield_bsde(tree, coeffs, final.u))
    cost = cost_of_solution(tree, coeffs, final.u, resolved)
    stationarity = staged("stationarity", lambda: smp_stationarity_residual(
        tree, coeffs, final.u, resolved))

    result = PipelineResult(
        tree=tree, coeffs=coeffs, riccati=ric,
        multiplier_residual=float(np.abs(gap).max()),
        min_conditioner_sv=conditioner_sv, min_phi_step_sv=phi_step_sv, outer=system,
        constrained=final, cost=cost,
        stationarity_residual=stationarity, timings=timings,
    )
    if with_oracle:
        oracle = staged("oracle", lambda: solve_oracle(tree, coeffs))
        result.oracle = oracle
        result.oracle_control_error = control_error(tree, final.u, oracle.u)
        result.oracle_cost_gap = cost - oracle.cost
    # the process's high-water mark so far, KiB on Linux
    timings["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result
