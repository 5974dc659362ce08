"""Error taxonomy shared across the package.

Every rejection that callers are expected to branch on gets its own type so
the CLI can map it to a stable exit code:

* usage / invalid-argument errors are plain ``ValueError`` (exit 1),
* exceptional-parameter rejections raise ``ExceptionalParameterError`` (exit 2),
* degenerate modes whose data violate the compatibility condition raise
  ``UnsolvableModeError`` carrying the offending mode index (exit 3).
"""

from __future__ import annotations


class ExceptionalParameterError(ValueError):
    """Raised when c (or sigma) lies in the exceptional set within the gate."""

    def __init__(self, message: str, value: float | None = None,
                 nearest: float | None = None):
        super().__init__(message)
        self.value = value
        self.nearest = nearest


class DegenerateModeError(ValueError):
    """Raised when a second-order-only code path meets a first-order mode.

    The mode with 1 - c*lambda^2 = 0 drops to first order; callers that can
    handle it should go through ``modal.evolve_modes``, which evolves it first
    order instead of raising.
    """

    def __init__(self, message: str, mode_index: int | None = None):
        super().__init__(message)
        self.mode_index = mode_index


class UnsolvableModeError(ValueError):
    """Degenerate mode whose initial data violate the compatibility condition.

    No solution exists for that mode; ``mode_index`` is the offending mode and
    the message gives the required and the actual ratio beta/alpha.
    """

    def __init__(self, message: str, mode_index: int | None = None):
        super().__init__(message)
        self.mode_index = mode_index


class SingularParameterError(ValueError):
    """Whole-line mode evaluated at the singular frequency lambda = 1/sqrt(c)."""


class DiscreteExceptionalError(ExceptionalParameterError):
    """c collides with an eigenvalue of the *discrete* Laplacian in the FD oracle."""


class StiffnessError(RuntimeError):
    """Adaptive integrator step size underflowed; problem too stiff at this tolerance."""
