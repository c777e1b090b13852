"""Graded Jacobian-type quotient of a convenient nondegenerate polynomial.

Everything is organized by the scaled Newton degree r = scale * phi, an
integer.  One enumeration of the lattice points fills a level table,
exponent -> scaled level, and the sorted monomial list of every level; an
exponent outside the table has its level computed from the facet forms.
For each level r the multiples u^m * lead(xi_i(f)) of the leading forms of
the n logarithmic derivatives, with m at level r - scale, span a subspace
of the level-r monomials.  Each level caches one `linalg.Echelon` of that
span: columns are the positions of the level's monomials in graded-lex
order, rows go in in (i, m) order and carry the label (i, m) as provenance.
The rows are the leading forms scaled to integers (see below), which moves
neither the span nor the pivots, so a level echelon is built on integers
alone.  Non-pivot
monomials are the canonical graded representatives; collecting them for
r = 0 .. n*scale gives the adapted basis, and reducing against the echelon
gives division with certified cofactors read off the provenance.
The levels n*scale + 1 .. (n+1)*scale are the window that
`nondegeneracy.is_nondegenerate` reads: all of them are empty exactly when f
is nondegenerate.

Division runs on plain dicts of integer numerators over one denominator
(`_divide_terms`, shared by `divide` and the Brieskorn lattice).  The
leading forms and the log derivatives enter scaled by L, the least common
multiple of the denominators of the log-derivative coefficients, so for a
rational f the level echelons and the products are still integral; the
cofactor of xi_i(f) is L times that of L xi_i(f).  The terms are bucketed
by level and the levels are taken top down: the level-r slice is reduced
against the level-r echelon (`Echelon.integer_reduce`) into
representatives + leading-form multiples over one denominator s, cut by
its common factor with their numerators; every dict of the division is
scaled by s so that they share the new denominator, and each full
product u^m * L xi_i(f) is subtracted term by term into the buckets.
The gauge is subadditive and the non-leading terms of xi_i(f) lie below
level scale, so a product never lands above level r and its level-r part is
the echelon row; the slice, together with any product term at level r or
above, is checked to cancel exactly, so the top level strictly drops.  For a nondegenerate input nothing survives above level
n*scale; a violation raises DegeneracySuspectedError since it contradicts
the dimension theory.  `LaurentPolynomial`s are built only for the
`DivisionWitness` that `divide` returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import DegeneracySuspectedError, NotInIdealError
from .laurent import LaurentPolynomial, term_key
from .linalg import Echelon, _fractions, _numerators, _primitive
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
        self._levels = {}          # scaled level -> sorted monomial list
        self._index = {}           # scaled level -> monomial -> echelon column
        self._level_of = {}        # enumerated monomial -> scaled level
        self._level_max = -1
        self._solvers = {}
        self._basis = None

    # -- level bookkeeping

    def _ensure_levels(self, r: int):
        if r <= self._level_max:
            return
        # one enumeration serves the basis and the nondegeneracy window
        # n*d + 1 .. n*d + d; only a division above it enumerates again
        r = max(r, (self.n + 1) * self.d)
        pts = self.polytope.enumerate_sublevel(Fraction(r, self.d))
        levels = {}
        level_of = self._level_of
        for e in pts:
            level_of[e] = k = self.polytope.scaled_phi_exp(e)
            levels.setdefault(k, []).append(e)
        for k in range(r + 1):
            lst = levels.get(k, [])
            lst.sort(key=term_key)
            self._levels[k] = lst
            self._index[k] = {e: j for j, e in enumerate(lst)}
        self._level_max = r

    def level(self, exp) -> int:
        """Scaled level of an exponent tuple: the table, else the facet forms."""
        k = self._level_of.get(exp)
        return self.polytope.scaled_phi_exp(exp) if k is None else k

    def level_monomials(self, r: int):
        if r < 0:
            return []
        self._ensure_levels(r)
        return self._levels.get(r, [])

    def solver(self, r: int) -> Echelon:
        if r not in self._solvers:
            self._ensure_levels(r)
            index = self._index[r]
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

    # -- graded dimensions and the basis

    def representatives(self, r: int):
        """Level-r monomials outside the pivots: the graded basis slice."""
        ech = self.solver(r)
        return [e for j, e in enumerate(self.level_monomials(r)) if j not in ech]

    def graded_dimension(self, r: int) -> int:
        return len(self.representatives(r))

    def basis(self) -> AdaptedBasis:
        if self._basis is None:
            monomials = []
            scaled = []
            top = self.n * self.d
            for r in range(top + 1):
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


def _divide_terms(algebra: JacobianAlgebra, terms: dict, den: int, reps):
    """Division of terms / den by the log-derivative ideal.

    terms maps exponents to int numerators and den is a positive int; reps
    holds the basis monomials (any container with `in`).  Returns
    (a, cofactors, deta, den): a maps basis monomials to their
    coefficients, the cofactors are one dict exponent -> coefficient per
    variable, and deta is sum_i u_i d/du_i of cofactor i, all as int
    numerators over the returned den, with zero coefficients dropped.
    """
    top_level = algebra.n * algebra.d
    level = algebra.level
    deriv_den = algebra.deriv_den
    derivs = [[(k, b.numerator * (deriv_den // b.denominator)) for k, b in xi.terms.items()]
              for xi in algebra.log_derivs]
    buckets = {}                # scaled level -> {exponent: numerator}
    for e, c in terms.items():
        if c:
            buckets.setdefault(level(e), {})[e] = c
    a = {}
    cof = [{} for _ in range(algebra.n)]
    start = max(buckets, default=0)
    rounds = 0
    while buckets:
        r = max(buckets)
        slice_ = buckets.pop(r)
        if not slice_:
            continue
        ech = algebra.solver(r)
        index = algebra._index[r]
        rest, combo, s = _primitive(
            *ech.integer_reduce({index[e]: c for e, c in slice_.items()}))
        if rest and r > top_level:
            raise DegeneracySuspectedError(
                "graded representative appears above the top level (scaled %d > %d)"
                % (r, top_level)
            )
        if s != 1:
            # rest and combo are over den * s: bring everything there
            den *= s
            for part in (slice_, a, *cof, *buckets.values()):
                for e in part:
                    part[e] *= s
        columns = algebra.level_monomials(r)
        for j, c in rest.items():
            e = columns[j]
            if e not in reps:
                raise DegeneracySuspectedError(
                    "residual monomial %s at scaled level %d is not a basis "
                    "representative" % (e, r)
                )
            a[e] = c
            _add_term(slice_, e, -c)
        # each level comes up once, so a representative or a label (i, m)
        # gets its coefficient in one round only
        for (i, m), c in combo.items():
            cof[i][m] = c * deriv_den
            for k, b in derivs[i]:
                e = tuple(x + y for x, y in zip(m, k))
                lv = level(e)
                _add_term(slice_ if lv >= r else buckets.setdefault(lv, {}), e, -c * b)
        # what is left at level r or above did not cancel
        if slice_:
            raise DegeneracySuspectedError(
                "division failed to lower the scaled level %d" % r
            )
        rounds += 1
        # the scaled level strictly drops each round, so the start level
        # bounds the iteration count
        if rounds > start + 1:
            raise DegeneracySuspectedError(
                "division took more than %d rounds from scaled level %d"
                % (start + 1, start)
            )
    deta = {}
    for i, gi in enumerate(cof):
        for m, c in gi.items():
            if m[i]:
                _add_term(deta, m, c * m[i])
    return a, cof, deta, den


def _add_term(terms, e, c):
    """terms[e] += c, dropping the entry when it cancels."""
    s = terms.get(e)
    s = c if s is None else s + c
    if s:
        terms[e] = s
    else:
        del terms[e]


def divide(algebra: JacobianAlgebra, g: LaurentPolynomial) -> DivisionWitness:
    """Express g over the adapted representatives modulo the log-derivative ideal."""
    if g.arity != algebra.n:
        raise ValueError("arity mismatch")
    terms, den = _numerators(g.terms)
    a, cof, deta, den = _divide_terms(algebra, terms, den, set(algebra.basis().monomials))
    n = algebra.n
    return DivisionWitness(
        g=g,
        a=_fractions(a, den),
        cofactors=[LaurentPolynomial(n, _fractions(gi, den)) for gi in cof],
        deta=LaurentPolynomial(n, _fractions(deta, den)),
    )


def divide_exact(algebra: JacobianAlgebra, g: LaurentPolynomial) -> DivisionWitness:
    """Division that must succeed with zero remainder; raises NotInIdealError."""
    w = divide(algebra, g)
    if w.a:
        raise NotInIdealError(dict(w.a))
    return w
