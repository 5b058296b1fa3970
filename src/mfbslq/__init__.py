"""Linear-quadratic control of mean-field backward SDEs on binary scenario trees."""

from ._errors import (ConfigurationError, ConvexityError, InfeasibleEtaError,
                      MfbslqError, NumericsError, RiccatiError, SizeCapError,
                      SpecValidationError, StepSizeError)
from .bsde import MeanfieldBsdeSolution, solve_forward_sde, solve_meanfield_bsde
from .model import (CoefficientSet, ProblemSpec, ValidationReport, load_spec,
                    load_spec_file, realize, validate_h1_h2)
from .multipliers import (ConstrainedSolution, MeanOperators, OuterSolution,
                          constrained_solution_at, eta_dimension,
                          mean_cost_weights, picard_cross_check,
                          probe_operators, solve_constrained_problem,
                          solve_decoupled, solve_outer_system)
from .oracle import (OracleSolution, control_error, cost_gradient, evaluate_cost,
                     smp_stationarity_residual, solve_oracle, weighted_inner,
                     weighted_norm)
from .outer import (OuterQuadratic, PipelineResult, assemble_outer_quadratic,
                    run_pipeline)
from .riccati import RiccatiSolution, solve_riccati
from .tree import ScenarioTree, build_tree

__version__ = "0.1.0"

__all__ = [
    "MfbslqError", "ConfigurationError", "SpecValidationError", "StepSizeError",
    "RiccatiError", "InfeasibleEtaError", "ConvexityError", "SizeCapError",
    "NumericsError",
    "ScenarioTree", "build_tree",
    "ProblemSpec", "CoefficientSet", "ValidationReport",
    "load_spec", "load_spec_file", "realize", "validate_h1_h2",
    "MeanfieldBsdeSolution", "solve_forward_sde", "solve_meanfield_bsde",
    "RiccatiSolution", "solve_riccati",
    "ConstrainedSolution", "MeanOperators", "eta_dimension", "probe_operators",
    "solve_decoupled", "solve_constrained_problem", "constrained_solution_at",
    "solve_outer_system", "OuterSolution", "mean_cost_weights",
    "picard_cross_check",
    "OracleSolution", "solve_oracle", "evaluate_cost", "cost_gradient",
    "control_error", "weighted_inner", "weighted_norm",
    "smp_stationarity_residual",
    "OuterQuadratic", "PipelineResult", "assemble_outer_quadratic", "run_pipeline",
    "__version__",
]
