"""Graded Jacobian-type quotient of a convenient nondegenerate polynomial.

Everything is organized by the scaled Newton degree r = scale * phi, an
integer.  One enumeration of the lattice points fills a level table,
exponent -> scaled level, and the graded-lex monomial list of each occupied
level; an empty level has graded dimension 0 and is never visited.  An
exponent outside the table has its level computed from the facet forms.
For each level r the multiples u^m * lead(xi_i(f)) of the leading forms of
the n logarithmic derivatives, with m at level r - scale, span a subspace
of the level-r monomials.  Each level caches one `linalg.Echelon` of that
span: columns are the positions of the level's monomials in graded-lex
order, rows go in in (i, m) order and carry the label (i, m) as provenance.
The rows are the leading forms scaled to integers (see below), which moves
neither the span nor the pivots, so a level echelon is built on integers
alone.  Non-pivot monomials are the canonical graded representatives;
collecting them for r = 0 .. n*scale gives the adapted basis.
The levels n*scale + 1 .. (n+1)*scale are the window whose `graded_dims`
`nondegeneracy.is_nondegenerate` reads: all of them are 0 exactly when f is
nondegenerate.

Division runs on monomial rewrite rules read off the level echelons.  The
leading forms and the log derivatives enter scaled by L, the least common
multiple of the denominators of the log-derivative coefficients, so for a
rational f the level echelons and the products are still integral; the
cofactor of xi_i(f) is L times that of L xi_i(f).  A level-r monomial is
either a representative or the pivot u^e of a stored row (num, prov,
lead), and then (`JacobianAlgebra.rule`, a `RewriteRule`)

    u^e = - sum_(c != e) num[c] / lead u^c
          + sum_(i, m) prov[(i, m)] / lead (u^m L xi_i(f))
          - sum_(i, m) prov[(i, m)] / lead (the terms of u^m L xi_i(f) below r).

The gauge is subadditive and the non-leading terms of xi_i(f) lie below
level scale, so a product never lands above level r and its level-r part
is the leading form: each rule strictly lowers the level, and in the
Brieskorn lattice its ideal part is theta times L m_i u^m, at level
r - scale.  A rule is built on first use, from `log_derivs` as they stand
when the algebra's first rule is built, and checked once: the part of its
products at level r or above must be the stored row.  `divide` applies
the rules top down over the monomials.  Every contribution to level r
comes from above, so when the level comes up its coefficients are final:
their representatives are checked (none above level n*scale, all in the
basis), the rules applied are checked, and their lower terms and
cofactors are added.  For a nondegenerate input nothing survives above
level n*scale; a violation raises DegeneracySuspectedError since it
contradicts the dimension theory.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add
from typing import NamedTuple

from .errors import DegeneracySuspectedError
from .laurent import LaurentPolynomial
from .linalg import Echelon
from .polytope import NewtonPolytope, newton_polytope


@dataclass(frozen=True)
class AdaptedBasis:
    """Monomial representatives of the graded quotient, level order."""

    monomials: tuple            # exponent tuples
    degrees: tuple              # Fractions, weakly increasing
    scaled_degrees: tuple       # ints

    def __len__(self):
        return len(self.monomials)

    def to_json_obj(self):
        return {
            "monomials": [list(m) for m in self.monomials],
            "degrees": [str(a) for a in self.degrees],
        }


class RewriteRule(NamedTuple):
    """u^e at level r, for a pivot u^e of the level-r echelon, rewritten as

        (sum reps[x] u^x + sum_i (sum_m cofactors[(i, m)] u^m) xi_i(f)
         + sum lower[x] u^x) / lead,

    all values int numerators over the positive int lead: reps holds the
    other representatives at level r, lower the terms below level r, and
    deta = sum_i u_i d/du_i of the cofactor of xi_i(f), so that in the
    Brieskorn lattice u^e = (reps + theta deta + lower) / lead.  lowered
    tells whether the products' part at level r and above is the stored
    echelon row, that is, whether the rule is an identity.
    """

    lead: int
    reps: dict
    cofactors: dict             # (i, m) -> numerator
    deta: dict
    lower: dict
    lowered: bool


class JacobianAlgebra:
    """Cached graded data for one polynomial (levels, solvers, basis)."""

    def __init__(self, f: LaurentPolynomial, p: NewtonPolytope = None):
        if p is None:
            p = newton_polytope(f)
        self.f = f
        self.polytope = p
        self.n = f.arity
        self.d = p.scale
        self.log_derivs = [f.log_derivative(i) for i in range(self.n)]
        for i, xi in enumerate(self.log_derivs):
            if xi.is_zero():
                # f independent of u_i contradicts convenience, but be precise
                raise DegeneracySuspectedError("f does not involve variable %d" % i)
        # L, and the leading parts of L times the log derivatives (terms on
        # the polytope boundary) as ints, so the level echelons run on integers
        self.deriv_den = lcm(*(c.denominator for xi in self.log_derivs
                               for c in xi.terms.values()))
        self.leading = [
            {e: c.numerator * (self.deriv_den // c.denominator)
             for e, c in xi.terms.items() if p.scaled_phi_exp(e) == self.d}
            for xi in self.log_derivs
        ]
        self._levels = {}          # occupied scaled level -> graded-lex monomial list
        self._index = {}           # occupied scaled level -> monomial -> echelon column
        self._level_of = {}        # enumerated monomial -> scaled level
        self._level_max = -1
        self._solvers = {}
        self._basis = None
        self._rules = {}           # exponent -> RewriteRule, or None for a representative
        self._derivs = None        # L xi_i(f) as [(exponent, int)], read by the first rule

    # -- level bookkeeping

    def _ensure_levels(self, r: int):
        if r <= self._level_max:
            return
        # one enumeration serves the basis and the nondegeneracy window
        # n*d + 1 .. n*d + d; only a division above it enumerates again
        r = max(r, (self.n + 1) * self.d)
        levels = self._levels = {}
        level_of = self._level_of
        for e in self.polytope.enumerate_sublevel(Fraction(r, self.d)):
            level_of[e] = k = self.polytope.scaled_phi_exp(e)
            levels.setdefault(k, []).append(e)
        self._index = {k: {e: j for j, e in enumerate(lst)} for k, lst in levels.items()}
        self._level_max = r

    def level(self, exp) -> int:
        """Scaled level of an exponent tuple: the table, else the facet forms."""
        k = self._level_of.get(exp)
        return self.polytope.scaled_phi_exp(exp) if k is None else k

    def level_monomials(self, r: int):
        self._ensure_levels(r)
        return self._levels.get(r, [])

    def solver(self, r: int) -> Echelon:
        if r not in self._solvers:
            self._ensure_levels(r)
            index = self._index.get(r, {})
            ech = Echelon()
            for i in range(self.n):
                lead = self.leading[i]
                for m in self.level_monomials(r - self.d):
                    vec = {}
                    for k, b in lead.items():
                        j = index.get(tuple(a + t for a, t in zip(m, k)))
                        if j is not None:
                            vec[j] = vec.get(j, 0) + b
                    ech.insert(vec, (i, m))
            self._solvers[r] = ech
        return self._solvers[r]

    def rule(self, e):
        """The `RewriteRule` of the pivot monomial u^e, or None when u^e is
        a representative of its level; built on first use and kept.

        The stored row num / lead of pivot p at level r is sum_(i, m)
        prov[(i, m)] / lead times the leading form of u^m L xi_i(f).
        """
        rules = self._rules
        if e in rules:
            return rules[e]
        r = self.level(e)
        ech = self.solver(r)
        p = self._index[r][e]
        if p not in ech:
            rules[e] = None
            return None
        num, prov, lead = ech.integer_row(p)
        derivs = self._derivs
        if derivs is None:
            den = self.deriv_den
            derivs = self._derivs = [[(k, b.numerator * (den // b.denominator))
                                      for k, b in xi.terms.items()]
                                     for xi in self.log_derivs]
        products = {}
        for (i, m), c in prov.items():
            for k, b in derivs[i]:
                x = tuple(map(add, m, k))
                products[x] = products.get(x, 0) + c * b
        lower = {}
        upper = {}
        for x, c in products.items():
            if c:
                if self.level(x) < r:
                    lower[x] = -c
                else:
                    upper[x] = c
        columns = self._levels[r]
        cofactors = {label: c * self.deriv_den for label, c in prov.items()}
        deta = {}
        for (i, m), c in cofactors.items():
            if m[i]:
                deta[m] = deta.get(m, 0) + c * m[i]
        rules[e] = rule = RewriteRule(
            lead,
            {columns[j]: -c for j, c in num.items() if j != p},
            cofactors,
            {m: c for m, c in deta.items() if c},
            lower,
            upper == {columns[j]: c for j, c in num.items()},
        )
        return rule

    # -- graded dimensions and the basis

    def representatives(self, r: int):
        """Level-r monomials outside the pivots: the graded basis slice."""
        ech = self.solver(r)
        return [e for j, e in enumerate(self.level_monomials(r)) if j not in ech]

    def graded_dimension(self, r: int) -> int:
        return len(self.representatives(r))

    def graded_dims(self, lo: int, hi: int) -> list:
        """Graded dimensions of the levels lo..hi, 0 on a level with no monomial."""
        self._ensure_levels(hi)
        dims = [0] * (hi - lo + 1)
        for r in self._levels:
            if lo <= r <= hi:
                dims[r - lo] = self.graded_dimension(r)
        return dims

    def basis(self) -> AdaptedBasis:
        if self._basis is None:
            monomials = []
            scaled = []
            top = self.n * self.d
            self._ensure_levels(top)
            for r in sorted(k for k in self._levels if k <= top):
                for e in self.representatives(r):
                    monomials.append(e)
                    scaled.append(r)
            if not monomials or monomials[0] != (0,) * self.n or scaled[1:2] == [0]:
                raise DegeneracySuspectedError(
                    "level-0 slice of the graded quotient is not one-dimensional"
                )
            self._basis = AdaptedBasis(
                tuple(monomials),
                tuple(Fraction(r, self.d) for r in scaled),
                tuple(scaled),
            )
        return self._basis

    def check_milnor(self, mu: int):
        if len(self.basis()) != mu:
            raise DegeneracySuspectedError(
                "graded quotient has dimension %d but the lattice volume is %d; "
                "the polynomial is most likely degenerate" % (len(self.basis()), mu)
            )


@dataclass
class DivisionWitness:
    """g = sum_j a_j * u^(m_j) + sum_i cofactors_i * xi_i(f), with bounds."""

    g: LaurentPolynomial
    a: dict                     # basis exponent -> Fraction
    cofactors: list             # LaurentPolynomial per variable
    deta: LaurentPolynomial     # sum_i xi_i(cofactors_i)

    def verify(self, algebra: JacobianAlgebra) -> bool:
        total = LaurentPolynomial.zero(algebra.n)
        for e, c in self.a.items():
            total = total + LaurentPolynomial.monomial(e, c)
        for gi, xi in zip(self.cofactors, algebra.log_derivs):
            total = total + gi * xi
        if total != self.g:
            return False
        p = algebra.polytope
        bound = p.scaled_phi(self.g)
        if bound is None:
            return all(gi.is_zero() for gi in self.cofactors) and not self.a
        for gi in self.cofactors:
            s = p.scaled_phi(gi)
            if s is not None and s > bound - algebra.d:
                return False
        s = p.scaled_phi(self.deta)
        if s is not None and s > bound - algebra.d:
            return False
        for e in self.a:
            if p.scaled_phi_exp(e) > bound:
                return False
        deta = LaurentPolynomial.zero(algebra.n)
        for i, gi in enumerate(self.cofactors):
            deta = deta + gi.log_derivative(i)
        return deta == self.deta


def divide(algebra: JacobianAlgebra, g: LaurentPolynomial) -> DivisionWitness:
    """Express g over the adapted representatives modulo the log-derivative ideal."""
    if g.arity != algebra.n:
        raise ValueError("arity mismatch")
    reps = set(algebra.basis().monomials)
    top_level = algebra.n * algebra.d
    level = algebra.level
    pending = {}                # scaled level -> {exponent: Fraction}
    for e, c in g.terms.items():
        pending.setdefault(level(e), {})[e] = c
    a = {}
    cof = [{} for _ in range(algebra.n)]
    deta = {}
    while pending:
        r = max(pending)
        rest = {}
        applied = []
        # every contribution to level r came from above, so these
        # coefficients are final
        for e, c in pending.pop(r).items():
            rule = algebra.rule(e)
            if rule is None:
                _add_term(rest, e, c)
                continue
            q = c / rule.lead
            applied.append((q, rule))
            for x, v in rule.reps.items():
                _add_term(rest, x, q * v)
        if rest and r > top_level:
            raise DegeneracySuspectedError(
                "graded representative appears above the top level (scaled %d > %d)"
                % (r, top_level)
            )
        for e in rest:
            if e not in reps:
                raise DegeneracySuspectedError(
                    "residual monomial %s at scaled level %d is not a basis "
                    "representative" % (e, r)
                )
        a.update(rest)
        for q, rule in applied:
            if not rule.lowered:
                raise DegeneracySuspectedError(
                    "division failed to lower the scaled level %d" % r
                )
            for (i, m), v in rule.cofactors.items():
                _add_term(cof[i], m, q * v)
            for m, v in rule.deta.items():
                _add_term(deta, m, q * v)
            for x, v in rule.lower.items():
                _add_term(pending.setdefault(level(x), {}), x, q * v)
    n = algebra.n
    return DivisionWitness(
        g=g,
        a=a,
        cofactors=[LaurentPolynomial(n, gi) for gi in cof],
        deta=LaurentPolynomial(n, deta),
    )


def _add_term(terms, e, c):
    """terms[e] += c, dropping the entry when it cancels."""
    s = terms.get(e)
    s = c if s is None else s + c
    if s:
        terms[e] = s
    else:
        del terms[e]
