"""Exact Newton-polytope spectra for convenient nondegenerate Laurent polynomials.

The chain: Newton polytope and filtration -> Milnor number -> adapted basis
of the graded Jacobian quotient -> connection pencil on the theta-lattice ->
singularity spectrum -> Birkhoff normal form with V-filtration checks ->
Euler field / homogeneity data.  Everything is exact rational arithmetic.
"""

from .birkhoff import (
    BirkhoffObstruction,
    BirkhoffSolution,
    gauge_residual,
    graded_model,
    opposite_filtration,
    pencil_in_gauge,
    solve_birkhoff,
    verify_v_plus,
    verify_v_solution,
)
from .brieskorn import (
    BrieskornElement,
    BrieskornLattice,
    ConnectionPencil,
    SpectrumData,
    spectrum,
)
from .errors import (
    DegenerateError,
    DegeneracySuspectedError,
    GradedModelError,
    NotConvenientError,
    VerificationError,
)
from .frobenius import (
    FrobeniusInitialData,
    Pipeline,
    analyze,
    analyze_text,
    canonical_primitive,
    euler_field,
)
from .jacobian import (
    AdaptedBasis,
    DivisionWitness,
    JacobianAlgebra,
    divide,
)
from .laurent import LaurentParseError, LaurentPolynomial, parse_laurent
from .nondegeneracy import NondegeneracyCertificate, is_nondegenerate
from .polytope import NewtonPolytope, milnor_number, newton_polytope

__version__ = "0.1.0"

__all__ = [
    "AdaptedBasis",
    "BirkhoffObstruction",
    "BirkhoffSolution",
    "BrieskornElement",
    "BrieskornLattice",
    "ConnectionPencil",
    "DegenerateError",
    "DegeneracySuspectedError",
    "DivisionWitness",
    "FrobeniusInitialData",
    "GradedModelError",
    "JacobianAlgebra",
    "LaurentParseError",
    "LaurentPolynomial",
    "NewtonPolytope",
    "NondegeneracyCertificate",
    "NotConvenientError",
    "Pipeline",
    "SpectrumData",
    "VerificationError",
    "analyze",
    "analyze_text",
    "canonical_primitive",
    "divide",
    "euler_field",
    "gauge_residual",
    "graded_model",
    "is_nondegenerate",
    "milnor_number",
    "newton_polytope",
    "opposite_filtration",
    "parse_laurent",
    "pencil_in_gauge",
    "solve_birkhoff",
    "spectrum",
    "verify_v_plus",
    "verify_v_solution",
]
