"""Exception and warning taxonomy.

Everything raised on purpose derives from QsdctlError.  Refusals that
carry mathematical meaning (an infinite value function, zero survivors
in a conditional estimate, ...) derive from MathematicalRefusal so the
command line can map them to a dedicated exit code instead of treating
them as crashes.
"""

from __future__ import annotations


class QsdctlError(Exception):
    """Base class for all errors raised by this package."""


class ExpressionSyntaxError(QsdctlError):
    """Malformed rate expression; carries the byte offset of the defect."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownIdentifierError(QsdctlError):
    """An expression references a name that is not bound."""

    def __init__(self, name: str, message: str | None = None):
        super().__init__(message or f"unknown identifier {name!r}")
        self.name = name


class ModelError(QsdctlError):
    """Invalid model definition: bad schema, negative rate, and so on."""


class SimulationError(QsdctlError):
    """A trajectory could not be generated under the given configuration."""


class EnvelopeViolationError(SimulationError):
    """An actual jump rate exceeded its declared bound during thinning."""


class CapExceededError(QsdctlError):
    """An enumeration would exceed the configured size cap."""


class NonConvergenceError(QsdctlError):
    """An iterative solver hit its iteration cap before its tolerance."""


class SolverError(QsdctlError):
    """A linear or transient solve failed to meet its contract."""


class PolicyIterationError(QsdctlError):
    """Policy iteration terminated abnormally; carries the trace."""

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace


class MathematicalRefusal(QsdctlError):
    """A computation refused because the requested object does not exist
    or is infinite.  Mapped to exit code 2 by the CLI."""

    #: short machine-readable tag, e.g. "beta exceeds truncated lambda-star"
    diagnostic: str = "refused"


class InfeasibleBetaError(MathematicalRefusal):
    """Discount rate at or above the relevant extinction rate: the
    discounted cost is infinite and linear solves are refused."""

    def __init__(self, message: str, beta: float, lam: float | None = None,
                 diagnostic: str = "beta not below extinction rate", trace=None):
        super().__init__(message)
        self.beta = beta
        self.lam = lam
        self.diagnostic = diagnostic
        self.trace = trace


class AllControlsInfeasibleError(InfeasibleBetaError):
    """No enumerated control has an extinction rate above beta."""


class ZeroSurvivorsError(MathematicalRefusal):
    diagnostic = "no survivors"


class ThresholdNotFoundError(MathematicalRefusal):
    diagnostic = "drift threshold not found in window"


class LowConfidenceWarning(UserWarning):
    """Conditional estimate rests on fewer than 100 surviving samples."""


class InfiniteVarianceWarning(UserWarning):
    """Discounted-cost estimator run at beta >= extinction rate."""


class HypothesisFailureWarning(UserWarning):
    """A standing-assumption check failed; computation proceeds anyway."""
