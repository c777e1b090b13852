"""Frobenius-structure initial data and the full analysis pipeline.

From the normalized connection pencil we read off the data that pins down
a Frobenius structure at the base point: the canonical primitive element
(the class of du_1/u_1 ^ ... ^ du_n/u_n, sitting at the minimal spectral
number alpha_min = 0), the exponents alpha(k) attached to the basis, the
coefficients c_k of [f om] mod theta, the Euler field

    E = sum_k [ (1 + alpha_min - alpha(k)) t_k + c_k ] d/dt_k,

and the homogeneity constant D = 2 alpha_min + 2 - n = 2 - n.

`analyze` runs the whole chain -- polytope, nondegeneracy certificate,
Milnor number, adapted basis, spectrum, pencil, Birkhoff normal form with
its filtration checks, Frobenius data -- and reports gate failures as
structured sections instead of dying half way.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
    GradedModelError,
    NotConvenientError,
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
    euler_terms: tuple        # ((linear coeff, constant) per k)
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
        euler_terms=terms,
        euler_text=text,
        normalized=solution is not None,
    )


# ---------------------------------------------------------------------------
# the full pipeline


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


def analyze(f, var_names, *, seed=0):
    """Run the full chain; returns (report dict, status).

    status is "ok", "invalid" (gate failure: not convenient / degenerate, a
    failed structural check of the graded model, or a failed re-check of the
    Birkhoff or Frobenius data), or "obstruction" (pencil could not be
    normalized; partial report).  Sections after a failed gate are null.
    The seed is only recorded in the input section.
    """
    report = {
        "schema": SCHEMA,
        "input": {
            "expression": f.format(var_names),
            "variables": list(var_names),
            "n": f.arity,
            "seed": seed,
        },
        "polytope": None,
        "nondegeneracy": None,
        "mu": None,
        "basis": None,
        "spectrum": None,
        "pencil": None,
        "birkhoff": None,
        "frobenius": None,
        "error": None,
    }
    try:
        p = newton_polytope(f)
        p.require_convenient()
    except (NotConvenientError, ValueError) as exc:
        report["error"] = _error_obj("polytope", exc)
        return report, "invalid"
    report["polytope"] = p.to_json_obj()

    algebra = JacobianAlgebra(f, p)
    cert = is_nondegenerate(algebra)
    report["nondegeneracy"] = cert.to_json_obj()
    if not cert.ok:
        report["error"] = _error_obj("nondegeneracy", cert.error())
        return report, "invalid"

    mu = milnor_number(p)
    report["mu"] = mu

    try:
        basis = algebra.basis()
        algebra.check_milnor(mu)
    except DegeneracySuspectedError as exc:
        report["error"] = _error_obj("basis", exc)
        return report, "invalid"
    nd = f.arity * p.scale
    basis_obj = basis.to_json_obj()
    basis_obj["graded_dims"] = [algebra.graded_dimension(r) for r in range(nd + 1)]
    report["basis"] = basis_obj

    sp = spectrum(algebra)
    report["spectrum"] = sp.to_json_obj()

    lattice = BrieskornLattice(algebra)
    pencil = lattice.pencil()
    report["pencil"] = pencil.to_json_obj()

    try:
        outcome = solve_birkhoff(pencil)
        if isinstance(outcome, BirkhoffSolution):
            _recheck_gauge(lattice, pencil, outcome)
    except VerificationError as exc:
        report["error"] = _error_obj("birkhoff", exc)
        return report, "invalid"
    if isinstance(outcome, BirkhoffObstruction):
        report["birkhoff"] = outcome.to_json_obj()
        return _frobenius_section(report, algebra, pencil, None, sp, "obstruction")
    okv, v_details = verify_v_solution(pencil, outcome.gauge, p.scale)
    okp, p_details = verify_v_plus(outcome.ainf, pencil.degrees, sp.pairs)
    try:
        gm = graded_model(pencil, outcome.gauge, p.scale)
    except GradedModelError as exc:
        report["error"] = _error_obj("graded_model", exc)
        return report, "invalid"
    outcome.flags = {
        "v_solution": okv,
        "v_plus": okp,
        "opposite": gm["opposite"],
        "b_opposed": gm["b_opposed"],
    }
    birk_obj = outcome.to_json_obj()
    birk_obj["spectral"] = p_details
    birk_obj["filtration"] = gm
    report["birkhoff"] = birk_obj
    return _frobenius_section(report, algebra, pencil, outcome, sp, "ok")


def _frobenius_section(report, algebra, pencil, solution, sp, status):
    try:
        data = euler_field(algebra, pencil, solution, sp)
    except VerificationError as exc:
        report["error"] = _error_obj("frobenius", exc)
        return report, "invalid"
    report["frobenius"] = data.to_json_obj()
    return report, status


def analyze_text(text, var_names=None, **kw):
    """Parse and analyze; parse errors are reported as an 'invalid' status."""
    try:
        f, names = parse_laurent(text, var_names)
    except LaurentParseError as exc:
        report = {
            "schema": SCHEMA,
            "input": {"expression": text, "variables": None, "n": None,
                      "seed": kw.get("seed", 0)},
            "polytope": None,
            "nondegeneracy": None,
            "mu": None,
            "basis": None,
            "spectrum": None,
            "pencil": None,
            "birkhoff": None,
            "frobenius": None,
            "error": _error_obj("parse", exc),
        }
        return report, "invalid"
    return analyze(f, names, **kw)
