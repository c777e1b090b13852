"""Graded Jacobian-type quotient of a convenient nondegenerate polynomial.

Everything is organized by the scaled Newton degree r = scale * phi, an
integer.  For each level r the multiples u^m * lead(xi_i(f)) of the leading
forms of the n logarithmic derivatives, with m at level r - scale, span a
subspace of the level-r monomials.  Each level caches one `linalg.Echelon` of
that span: columns are the positions of the level's monomials in graded-lex
order, rows go in in (i, m) order and carry the label (i, m) as provenance.
Non-pivot monomials are the canonical graded representatives; collecting them
for r = 0 .. n*scale gives the adapted basis, and reducing against the
echelon gives division with certified cofactors read off the provenance.
The levels n*scale + 1 .. (n+1)*scale are the window that
`nondegeneracy.is_nondegenerate` reads: all of them are empty exactly when f
is nondegenerate.

Division descends level by level: the top graded slice of the residual is
rewritten as representatives + leading-form multiples, the full (not just
leading) products are subtracted, and the top level strictly drops.  For a
nondegenerate input nothing survives above level n*scale; a violation raises
DegeneracySuspectedError since it contradicts the dimension theory.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DegeneracySuspectedError, NotInIdealError
from .laurent import LaurentPolynomial, term_key
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

    def index(self, exp):
        return self.monomials.index(tuple(exp))

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
        p.require_convenient()
        self.f = f
        self.polytope = p
        self.n = f.arity
        self.d = p.scale
        self.log_derivs = [f.log_derivative(i) for i in range(self.n)]
        for i, xi in enumerate(self.log_derivs):
            if xi.is_zero():
                # f independent of u_i contradicts convenience, but be precise
                raise DegeneracySuspectedError("f does not involve variable %d" % i)
        # leading parts of the log derivatives (terms on the polytope boundary)
        self.leading = []
        for xi in self.log_derivs:
            self.leading.append(
                {e: c for e, c in xi.terms.items() if p.scaled_phi_exp(e) == self.d}
            )
        self._levels = {}          # scaled level -> sorted monomial list
        self._index = {}           # scaled level -> monomial -> echelon column
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
        for e in pts:
            levels.setdefault(self.polytope.scaled_phi_exp(e), []).append(e)
        for k in range(r + 1):
            lst = levels.get(k, [])
            lst.sort(key=term_key)
            self._levels[k] = lst
            self._index[k] = {e: j for j, e in enumerate(lst)}
        self._level_max = r

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
                            vec[j] = vec.get(j, Fraction(0)) + b
                    ech.insert(vec, (i, m))
            self._solvers[r] = ech
        return self._solvers[r]

    # -- graded dimensions and the basis

    def representatives(self, r: int):
        """Level-r monomials outside the pivots: the graded basis slice."""
        pivots = self.solver(r).rows
        return [e for j, e in enumerate(self.level_monomials(r)) if j not in pivots]

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


def divide(algebra: JacobianAlgebra, g: LaurentPolynomial) -> DivisionWitness:
    """Express g over the adapted representatives modulo the log-derivative ideal."""
    if g.arity != algebra.n:
        raise ValueError("arity mismatch")
    basis = algebra.basis()
    rep_set = set(basis.monomials)
    top_level = algebra.n * algebra.d
    a = {}
    cof = [LaurentPolynomial.zero(algebra.n) for _ in range(algebra.n)]
    resid = g
    guard = 0
    start = algebra.polytope.scaled_phi(g) or 0
    while not resid.is_zero():
        r = algebra.polytope.scaled_phi(resid)
        ech = algebra.solver(r)
        index = algebra._index[r]
        vec = {}
        for e, c in resid.terms.items():
            if algebra.polytope.scaled_phi_exp(e) == r:
                vec[index[e]] = c
        rest, combo = ech.reduce(vec)
        if rest and r > top_level:
            raise DegeneracySuspectedError(
                "graded representative appears above the top level (scaled %d > %d)"
                % (r, top_level)
            )
        delta = LaurentPolynomial.zero(algebra.n)
        for (i, m), c in sorted(combo.items()):
            mono = LaurentPolynomial.monomial(m, c)
            cof[i] = cof[i] + mono
            delta = delta + mono * algebra.log_derivs[i]
        columns = algebra.level_monomials(r)
        for j, c in rest.items():
            e = columns[j]
            if e not in rep_set:
                raise DegeneracySuspectedError(
                    "residual monomial %s at scaled level %d is not a basis "
                    "representative" % (e, r)
                )
            a[e] = a.get(e, Fraction(0)) + c
            delta = delta + LaurentPolynomial.monomial(e, c)
        resid = resid - delta
        nr = algebra.polytope.scaled_phi(resid)
        if nr is not None and nr >= r:
            raise DegeneracySuspectedError(
                "division failed to lower the scaled level %d" % r
            )
        guard += 1
        # the scaled level strictly drops each round, so the start level
        # bounds the iteration count
        if guard > start + 1:
            raise DegeneracySuspectedError(
                "division took more than %d rounds from scaled level %d"
                % (start + 1, start)
            )
    a = {e: c for e, c in a.items() if c}
    deta = LaurentPolynomial.zero(algebra.n)
    for i, gi in enumerate(cof):
        deta = deta + gi.log_derivative(i)
    return DivisionWitness(g=g, a=a, cofactors=cof, deta=deta)


def divide_exact(algebra: JacobianAlgebra, g: LaurentPolynomial) -> DivisionWitness:
    """Division that must succeed with zero remainder; raises NotInIdealError."""
    w = divide(algebra, g)
    if w.a:
        raise NotInIdealError(dict(w.a))
    return w
