"""Frobenius-structure initial data and the full analysis pipeline.

From the normalized connection pencil we read off the data that pins down
a Frobenius structure at the base point: the canonical primitive element
(the class of du_1/u_1 ^ ... ^ du_n/u_n, sitting at the minimal spectral
number alpha_min = 0), the exponents alpha(k) attached to the basis, the
coefficients c_k of [f om] mod theta, the Euler field

    E = sum_k [ (1 + alpha_min - alpha(k)) t_k + c_k ] d/dt_k,

and the homogeneity constant D = 2 alpha_min + 2 - n = 2 - n.

`Pipeline` wires the whole chain once, one memoized attribute per stage:
polytope, nondegeneracy certificate, Milnor number, adapted basis,
spectrum, lattice and pencil, Birkhoff normal form with its re-check,
filtration checks, Frobenius data.  Its `report` turns the first failed
gate into a structured section instead of dying half way; `analyze`
returns that report, and the CLI's `check` reads its gates off it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .birkhoff import (
    BirkhoffObstruction,
    BirkhoffSolution,
    gauge_residual,
    graded_model,
    solve_birkhoff,
    verify_v_plus,
    verify_v_solution,
)
from .brieskorn import BrieskornElement, BrieskornLattice, spectrum
from .errors import (
    DegeneracySuspectedError,
    DegenerateError,
    GradedModelError,
    VerificationError,
)
from .jacobian import JacobianAlgebra
from .laurent import LaurentParseError, parse_laurent
from .nondegeneracy import is_nondegenerate
from .polytope import milnor_number, newton_polytope

SCHEMA = "newton-spectra/2"


def canonical_primitive(algebra: JacobianAlgebra, spectrum_data):
    """Confirm the canonical primitive element and return (index, alpha_min).

    Checks that the degree-0 part of the graded quotient is one-dimensional,
    that basis entry 0 is the constant monomial (the class of the logarithmic
    volume form), and that alpha_min = 0 has multiplicity one; raises
    VerificationError otherwise.
    """
    basis = algebra.basis()
    for ok, what in (
        (algebra.graded_dimension(0) == 1, "dim of level-0 part is not 1"),
        (basis.monomials[0] == (0,) * algebra.f.arity,
         "basis entry 0 is not the constant monomial"),
        (basis.degrees[0] == 0, "alpha_min is not 0"),
        (spectrum_data.pairs[0] == (Fraction(0), 1),
         "alpha_min = 0 does not have multiplicity one"),
    ):
        if not ok:
            raise VerificationError(what)
    return 0, Fraction(0)


@dataclass
class FrobeniusInitialData:
    primitive_index: int
    alpha_min: Fraction
    exponents: tuple          # alpha(k) per basis vector
    c: tuple                  # coefficients of [f om] in G0/theta G0
    charge: Fraction          # the homogeneity constant D
    euler_text: str
    normalized: bool          # False when no Birkhoff solution was available

    def to_json_obj(self):
        return {
            "primitive_index": self.primitive_index,
            "alpha_min": str(self.alpha_min),
            "exponents": [str(a) for a in self.exponents],
            "c": [str(x) for x in self.c],
            "D": str(self.charge),
            "euler_field": self.euler_text,
            "pencil_not_normalized": not self.normalized,
        }


def _euler_term_text(k, lin, const):
    """Render ((lin) t_k + const) d_k with sign folded into the joiner."""
    def coef(x, var):
        if x == 1:
            return var
        if x == -1:
            return "-" + var
        return "%s*%s" % (x, var)

    if lin and const:
        sign = 1
        op = " + " if const > 0 else " - "
        body = "(%s%s%s)*d%d" % (coef(lin, "t%d" % k), op, abs(const), k)
        return sign, body
    if lin:
        sign = 1 if lin > 0 else -1
        return sign, "%s*d%d" % (coef(abs(lin), "t%d" % k), k)
    sign = 1 if const > 0 else -1
    return sign, "%s*d%d" % (abs(const), k)


def euler_field(algebra, pencil, solution, spectrum_data):
    """Assemble Frobenius initial data; solution may be None (not normalized)."""
    primitive_index, alpha_min = canonical_primitive(algebra, spectrum_data)
    degrees = pencil.degrees
    n = algebra.f.arity
    b0 = pencil.matrices[0]
    if solution is not None:
        # the gauge cannot move the primitive element (no lower degree
        # exists to mix in), so c_k is read in the good basis
        if not all(
            m[i][0] == (1 if (i, k) == (0, 0) else 0)
            for k, m in enumerate(solution.gauge)
            for i in range(len(degrees))
        ):
            raise VerificationError("gauge moved the primitive element")
        c = tuple(solution.a0[k][0] for k in range(len(degrees)))
    else:
        c = tuple(b0[k][0] for k in range(len(degrees)))
    charge = 2 * alpha_min + 2 - n
    terms = tuple((1 + alpha_min - a, ck) for a, ck in zip(degrees, c))
    parts = []
    for k, (lin, const) in enumerate(terms):
        if lin == 0 and const == 0:
            continue
        sign, body = _euler_term_text(k, lin, const)
        if not parts:
            parts.append(body if sign > 0 else "-" + body)
        else:
            parts.append((" + " if sign > 0 else " - ") + body)
    text = "".join(parts) if parts else "0"
    return FrobeniusInitialData(
        primitive_index=primitive_index,
        alpha_min=alpha_min,
        exponents=tuple(degrees),
        c=c,
        charge=Fraction(charge),
        euler_text=text,
        normalized=solution is not None,
    )


# ---------------------------------------------------------------------------
# the full pipeline

_SECTIONS = ("polytope", "nondegeneracy", "mu", "basis", "spectrum", "pencil",
             "birkhoff", "frobenius", "error")

# the exception each gate turns into the report's `error` section; a stage
# missing here has no gate, so whatever it raises propagates
_GATES = {"polytope": ValueError, "nondegeneracy": DegenerateError,
          "mu": VerificationError, "basis": DegeneracySuspectedError,
          "pencil": DegeneracySuspectedError, "birkhoff": VerificationError,
          "graded_model": GradedModelError, "frobenius": VerificationError}


def _skeleton(expression, variables, n, seed):
    """A report whose sections are all null."""
    return {
        "schema": SCHEMA,
        "input": {"expression": expression, "variables": variables, "n": n,
                  "seed": seed},
        **dict.fromkeys(_SECTIONS),
    }


def _error_obj(stage, exc):
    return {
        "stage": stage,
        "type": type(exc).__name__,
        "message": str(exc),
    }


def _recheck_gauge(lattice, pencil, outcome):
    """Re-verify a Birkhoff solution independently of the solver."""
    if gauge_residual(pencil, outcome.gauge, outcome.a0, outcome.ainf) != []:
        raise VerificationError("the gauge identity does not hold")
    # Newton order of every new basis vector must equal its exponent
    for j in range(pencil.mu):
        coords = tuple(
            tuple(m[i][j] for m in outcome.gauge) for i in range(pencil.mu)
        )
        if lattice.newton_order(BrieskornElement(coords)) != pencil.degrees[j]:
            raise VerificationError("gauge column %d has the wrong Newton order" % j)


class Pipeline:
    """The analysis chain of one Laurent polynomial, one memoized stage each.

    A stage is computed on first access from the stages it reads, by calling
    the stage functions through this module's global names, and then kept.
    Access checks no gate: reading `pencil` builds the polytope, the algebra,
    the lattice and the pencil, and nothing else.  `report` walks the stages
    in the order of the chain and stops at the first failed gate.
    """

    def __init__(self, f, var_names, seed=0):
        self.f = f
        self.names = var_names
        self.seed = seed

    @cached_property
    def polytope(self):
        """Raises NotConvenientError (ValueError for a constant f)."""
        p = newton_polytope(self.f)
        p.require_convenient()
        return p

    # a lambda reads the stage function's global name when it runs
    algebra = cached_property(lambda self: JacobianAlgebra(self.f, self.polytope))
    certificate = cached_property(lambda self: is_nondegenerate(self.algebra))
    mu = cached_property(lambda self: milnor_number(self.polytope))

    @cached_property
    def basis(self):
        """The adapted basis; raises DegeneracySuspectedError unless it has mu entries."""
        basis = self.algebra.basis()
        self.algebra.check_milnor(self.mu)
        return basis

    spectrum = cached_property(lambda self: spectrum(self.algebra))
    lattice = cached_property(lambda self: BrieskornLattice(self.algebra))
    pencil = cached_property(lambda self: self.lattice.pencil())

    @cached_property
    def birkhoff(self):
        """Solution or obstruction; a solution has passed `_recheck_gauge`."""
        outcome = solve_birkhoff(self.pencil)
        if isinstance(outcome, BirkhoffSolution):
            _recheck_gauge(self.lattice, self.pencil, outcome)
        return outcome

    @cached_property
    def filtration(self):
        """The `spectral` and `filtration` report entries of a solution.

        Empty for an obstruction.  Fills the solution's four flags; raises
        GradedModelError.
        """
        sol = self.birkhoff
        if isinstance(sol, BirkhoffObstruction):
            return {}
        scale = self.polytope.scale
        okv, _ = verify_v_solution(self.pencil, sol.gauge, scale)
        okp, spectral = verify_v_plus(sol.ainf, self.pencil.degrees, self.spectrum.pairs)
        gm = graded_model(self.pencil, sol.gauge, scale)
        sol.flags = {"v_solution": okv, "v_plus": okp,
                     "opposite": gm["opposite"], "b_opposed": gm["b_opposed"]}
        return {"spectral": spectral, "filtration": gm}

    @cached_property
    def frobenius(self):
        """Frobenius data, read in the good basis when the pencil was normalized."""
        sol = self.birkhoff
        return euler_field(self.algebra, self.pencil,
                           sol if isinstance(sol, BirkhoffSolution) else None,
                           self.spectrum)

    def report(self):
        """(report dict, status); see `analyze`."""
        n = self.f.arity
        report = _skeleton(self.f.format(self.names), list(self.names), n, self.seed)
        stage = "polytope"
        try:
            report["polytope"] = self.polytope.to_json_obj()
            stage = "nondegeneracy"
            report["nondegeneracy"] = self.certificate.to_json_obj()
            if not self.certificate.ok:
                raise self.certificate.error()
            stage = "mu"
            report["mu"] = self.mu
            stage = "basis"
            basis = self.basis.to_json_obj()
            basis["graded_dims"] = [self.algebra.graded_dimension(r)
                                    for r in range(n * self.polytope.scale + 1)]
            report["basis"] = basis
            stage = None
            report["spectrum"] = self.spectrum.to_json_obj()
            stage = "pencil"
            report["pencil"] = self.pencil.to_json_obj()
            stage = "birkhoff"
            outcome = self.birkhoff
            stage = "graded_model"
            checks = self.filtration    # fills the flags that to_json_obj reads
            report["birkhoff"] = dict(outcome.to_json_obj(), **checks)
            stage = "frobenius"
            report["frobenius"] = self.frobenius.to_json_obj()
        except ValueError as exc:
            if not isinstance(exc, _GATES.get(stage, ())):
                raise
            report["error"] = _error_obj(stage, exc)
            return report, "invalid"
        if isinstance(outcome, BirkhoffObstruction):
            return report, "obstruction"
        return report, "ok"


def analyze(f, var_names, *, seed=0):
    """Run the full chain; returns (report dict, status).

    status is "ok", "invalid" (gate failure: not convenient / degenerate, a
    failed bound of the connection pencil, a failed structural check of the
    graded model, or a failed re-check of the Milnor number, the Birkhoff
    or the Frobenius data), or "obstruction" (pencil could not be
    normalized; partial report).
    Sections after a failed gate are null.
    The seed is only recorded in the input section.
    """
    return Pipeline(f, var_names, seed).report()


def analyze_text(text, var_names=None, **kw):
    """Parse and analyze; parse errors are reported as an 'invalid' status."""
    try:
        f, names = parse_laurent(text, var_names)
    except LaurentParseError as exc:
        report = _skeleton(text, None, None, kw.get("seed", 0))
        report["error"] = _error_obj("parse", exc)
        return report, "invalid"
    return analyze(f, names, **kw)
