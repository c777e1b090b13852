"""Shared exception types.

All input-level problems derive from ValueError so callers can treat the
whole front of the pipeline uniformly; each carries enough structure for the
CLI to print something actionable.
"""

from __future__ import annotations


class NotConvenientError(ValueError):
    """The Newton polytope misses a requirement (full dimension / interior origin)."""

    def __init__(self, diagnostic: str):
        super().__init__("polynomial is not convenient: " + diagnostic)
        self.diagnostic = diagnostic


class DegenerateError(ValueError):
    """The graded quotient survives above level n: f is degenerate on a face.

    level is the first nonzero scaled level of the certificate's window.
    """

    def __init__(self, message: str, level=None):
        super().__init__(message)
        self.level = level


class DegeneracySuspectedError(ValueError):
    """Exact downstream invariants contradict nondegeneracy (dimension counts etc.)."""


class VerificationError(ValueError):
    """An independent re-check of a computed result failed."""


class GradedModelError(ValueError):
    """A structural check of the graded model failed on one residue class.

    residue is the class rho (a Fraction in [0, 1)) on which N is not
    nilpotent.
    """

    def __init__(self, message: str, residue):
        super().__init__(message)
        self.residue = residue
