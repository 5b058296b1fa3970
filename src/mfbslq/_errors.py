"""Error taxonomy shared across the solver stack."""


class MfbslqError(Exception):
    """Base class for every error raised by this package."""


class ConfigurationError(MfbslqError):
    """Bad build parameters: tree depth out of range, malformed documents, bad tables."""


class SpecValidationError(MfbslqError):
    """A problem specification violates the standing positivity/symmetry assumptions."""


class StepSizeError(MfbslqError):
    """A matrix the solver inverts is singular or not finite: a one-step
    implicit matrix, a conditioner, the control weight N or a KKT pivot."""


class RiccatiError(MfbslqError):
    """Riccati Newton failed to converge, or its Newton matrix became singular."""


class InfeasibleEtaError(MfbslqError):
    """The multiplier system admits no solution for the requested mean triple."""


class ConvexityError(MfbslqError):
    """A quadratic form that must be positive semidefinite is not."""


class SizeCapError(MfbslqError):
    """A brute-force oracle was asked to exceed its configured size cap."""


class NumericsError(MfbslqError):
    """An internal consistency check failed: a control reconstruction defect,
    a singular, ill-conditioned or unconverged outer system, a singular or
    ill-conditioned KKT tail in the oracle, or a multiplier residual of the
    final solve."""
