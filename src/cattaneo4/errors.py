"""Error taxonomy shared across the package.

Every rejection that callers are expected to branch on gets its own type so
the CLI can map it to a stable exit code:

* usage / invalid-argument errors are plain ``ValueError`` (exit 1), and so is
  ``DegenerateModeError``, which ``modal.characteristic_roots`` alone raises,
* exceptional parameters raise ``ExceptionalParameterError``, and a whole-line
  mode at the singular frequency ``SingularParameterError`` (exit 2),
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
    """Raised by ``modal.characteristic_roots``, the one second-order-only path,
    at a first-order mode (1 - c*lambda^2 = 0), which ``modal.evolve_modes``
    evolves instead."""

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
