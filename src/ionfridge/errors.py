"""Exception hierarchy shared across the package.

Validation problems (bad arguments, malformed scenario files) derive from
``ValidationError``; numerical failures (truncation budget exhausted,
non-convergent fits, degenerate estimators) derive from ``NumericsError``.
The CLI maps the two families to exit codes 2 and 3 respectively.
"""


class ValidationError(ValueError):
    """Input rejected before any numerics ran."""


class DomainError(ValidationError):
    """Physical argument outside its admissible domain."""


class ScenarioError(ValidationError):
    """Malformed scenario description (JSON schema violation)."""


class NumericsError(RuntimeError):
    """A numerical procedure failed to meet its contract."""


class CutoffError(NumericsError):
    """A Fock-space cutoff is too small for the requested accuracy."""


class TruncationError(NumericsError):
    """Sector selection cannot reach the requested retained weight."""


class FitConvergenceError(NumericsError):
    """Least-squares fit did not converge."""


class SensitivityError(NumericsError):
    """Linearized estimator has a vanishing derivative denominator."""
