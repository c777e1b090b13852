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
    """Nondegeneracy test failed on some face."""

    def __init__(self, message: str, face=None):
        super().__init__(message)
        self.face = face


class DegeneracySuspectedError(ValueError):
    """Exact downstream invariants contradict nondegeneracy (dimension counts etc.)."""


class ExactModeUnsupportedError(ValueError):
    """Exact nondegeneracy testing is only complete for n <= 2."""


class UnsupportedFaceError(ValueError):
    """No nondegeneracy test implemented for faces of this dimension."""


class NotInIdealError(ValueError):
    """Division remainder is nonzero; carries the residue class.

    residue maps basis monomials (exponent tuples) to rational coefficients.
    """

    def __init__(self, residue: dict):
        super().__init__("element does not lie in the Jacobian-type ideal")
        self.residue = residue


class GradedModelError(ValueError):
    """A structural check of the graded model failed on one residue class.

    residue is the class rho (a Fraction in [0, 1)); k is the index of the
    opposite filtration F'^k at fault, or None when N is not nilpotent.
    """

    def __init__(self, message: str, residue, k=None):
        super().__init__(message)
        self.residue = residue
        self.k = k
