"""Brieskorn-type lattice of a convenient nondegenerate Laurent polynomial.

Elements are classes of forms sum_k theta^k g_k(u) du/u modulo the reduction
rule [sum_i h_i xi_i(f) du/u] = theta [sum_i xi_i(h_i) du/u]; every class has
canonical coordinates over Q[theta] on the adapted monomial basis.  The
operator t acts as multiplication by f on theta-degree zero and extends by
t(theta^k x) = k theta^(k+1) x + theta^k t(x); on coordinate vectors this is
t(v) = theta^2 v' + B(theta) v for the pencil B computed once per lattice.

Reduction feeds plain dicts, exponent -> Fraction, to the division kernel
of `jacobian` one theta power at a time, lowest first: the representatives
land in the coordinates and the kernel's deta moves up one theta power.
The pencil reduces f * u^m for every basis monomial m that way and fills
B_0, ..., B_k from the nonzero coordinates only, checking the theta-degree
bound and the order bound on them as explicit tests.

The spectrum polynomial SP(S) = prod (S + alpha_i) is computed over the
integers, as prod (d S + r_i) over the scaled degrees r_i = d alpha_i, and
divided once by d^mu.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DegeneracySuspectedError
from .jacobian import JacobianAlgebra, _divide_terms
from .laurent import LaurentPolynomial
from .linalg import (
    _axpy,
    pol_add,
    pol_deriv,
    pol_mul,
    pol_shift,
    pol_sub,
    pol_trim,
)


@dataclass(frozen=True)
class BrieskornElement:
    """Coordinates over Q[theta]: one ascending coefficient list per basis slot."""

    coords: tuple

    def is_zero(self) -> bool:
        return all(not c for c in self.coords)

    def __add__(self, other):
        return BrieskornElement(
            tuple(tuple(pol_add(a, b)) for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other):
        return BrieskornElement(
            tuple(tuple(pol_sub(a, b)) for a, b in zip(self.coords, other.coords))
        )

    def theta_shift(self, k: int = 1):
        return BrieskornElement(tuple(tuple(pol_shift(list(a), k)) for a in self.coords))

    def to_json_obj(self):
        return [[str(c) for c in comp] for comp in self.coords]


class ConnectionPencil:
    """Matrix polynomial B(theta) = B_0 + theta B_1 + ... acting on coordinates."""

    def __init__(self, matrices, degrees):
        self.matrices = matrices        # list of mu x mu Fraction matrices
        self.degrees = degrees          # basis Newton degrees (Fractions)
        self.mu = len(matrices[0])

    @property
    def degree(self):
        return len(self.matrices) - 1

    def entry(self, i, j):
        """theta-polynomial at position (i, j), ascending coefficients."""
        return pol_trim([m[i][j] for m in self.matrices])

    def apply_t(self, elem: BrieskornElement) -> BrieskornElement:
        out = []
        for i in range(self.mu):
            acc = pol_shift(pol_deriv(list(elem.coords[i])), 2)
            for j in range(self.mu):
                e = self.entry(i, j)
                if e and elem.coords[j]:
                    acc = pol_add(acc, pol_mul(e, list(elem.coords[j])))
            out.append(tuple(acc))
        return BrieskornElement(tuple(out))

    def to_json_obj(self):
        return {
            "degree": self.degree,
            "matrices": [[[str(x) for x in row] for row in m] for m in self.matrices],
        }


class BrieskornLattice:
    def __init__(self, algebra: JacobianAlgebra):
        self.algebra = algebra
        self.basis = algebra.basis()
        self._index = {m: i for i, m in enumerate(self.basis.monomials)}
        self._pencil = None

    @property
    def mu(self):
        return len(self.basis)

    def element_from_monomial(self, exp, theta_power=0):
        coords = [() for _ in range(self.mu)]
        coords[self._index[tuple(exp)]] = tuple(
            [Fraction(0)] * theta_power + [Fraction(1)]
        )
        return BrieskornElement(tuple(coords))

    def reduce(self, forms) -> BrieskornElement:
        """Reduce a form given as {theta power: Laurent polynomial} to coordinates."""
        if isinstance(forms, LaurentPolynomial):
            forms = {0: forms}
        out = []
        for slot in self._reduce_terms({k: g.terms for k, g in forms.items()}):
            if slot:
                top = max(slot)
                out.append(tuple(slot.get(i, Fraction(0)) for i in range(top + 1)))
            else:
                out.append(())
        return BrieskornElement(tuple(out))

    def _reduce_terms(self, forms):
        """{theta power: {exponent: Fraction}} -> one {theta power: c} per slot."""
        # copies: deta is added in place, and the callers' term dicts stay as they are
        pending = {k: dict(t) for k, t in forms.items() if t}
        cap = (max(pending) if pending else 0) + self.algebra.n + 2
        coords = [{} for _ in range(self.mu)]
        while pending:
            k = min(pending)
            a, _, deta = _divide_terms(self.algebra, pending.pop(k), self._index)
            for e, c in a.items():
                coords[self._index[e]][k] = c
            if deta:
                if k + 1 > cap:
                    raise DegeneracySuspectedError(
                        "reduction exceeded theta degree %d" % cap
                    )
                _axpy(pending.setdefault(k + 1, {}), 1, deta)
        return coords

    def newton_order(self, elem: BrieskornElement):
        """max over components of (theta degree + basis degree); None for zero."""
        best = None
        for i, comp in enumerate(elem.coords):
            comp = pol_trim(list(comp))
            if comp:
                val = len(comp) - 1 + self.basis.degrees[i]
                if best is None or val > best:
                    best = val
        return best

    def pencil(self) -> ConnectionPencil:
        if self._pencil is None:
            mu = self.mu
            f = self.algebra.f.terms
            degrees = self.basis.degrees
            columns = [
                self._reduce_terms(
                    {0: {tuple(x + y for x, y in zip(e, m)): c for e, c in f.items()}}
                )
                for m in self.basis.monomials
            ]
            top = max((k for col in columns for slot in col for k in slot), default=0)
            if top > self.algebra.n:
                raise DegeneracySuspectedError(
                    "connection pencil has theta-degree %d > %d" % (top, self.algebra.n)
                )
            mats = [
                [[Fraction(0)] * mu for _ in range(mu)] for _ in range(top + 1)
            ]
            for j, col in enumerate(columns):
                for i, slot in enumerate(col):
                    for k, c in slot.items():
                        # order bound: t raises the Newton order by at most one
                        if degrees[i] + k > degrees[j] + 1:
                            raise DegeneracySuspectedError(
                                "entry (%d,%d) of B_%d violates the order bound"
                                % (i, j, k)
                            )
                        mats[k][i][j] = c
            self._pencil = ConnectionPencil(mats, degrees)
        return self._pencil

    def facet_derivation(self, g: LaurentPolynomial, facet_index: int):
        """xi_sigma(g) = sum_i L_i * u_i dg/du_i for one facet form L."""
        facet = self.algebra.polytope.facets[facet_index]
        out = LaurentPolynomial.zero(self.algebra.n)
        for i, li in enumerate(facet.coeffs):
            if li:
                out = out + g.log_derivative(i) * li
        return out

    def check_facet_identity(self, g: LaurentPolynomial, facet_index: int) -> bool:
        """[g * xi_sigma(f) du/u] == theta [xi_sigma(g) du/u] in the lattice."""
        lhs = self.reduce(g * self.facet_derivation(self.algebra.f, facet_index))
        rhs = self.reduce(self.facet_derivation(g, facet_index)).theta_shift(1)
        return lhs == rhs


# ---------------------------------------------------------------------------
# spectrum


@dataclass
class SpectrumData:
    pairs: tuple                # ((alpha, multiplicity), ...) ascending
    poly: tuple                 # SP(S) ascending coefficients
    factored: str
    variance_lhs: Fraction
    variance_rhs: Fraction

    @property
    def variance_satisfied(self) -> bool:
        return self.variance_lhs >= self.variance_rhs

    def to_json_obj(self):
        return {
            "pairs": [{"alpha": str(a), "nu": m} for a, m in self.pairs],
            "polynomial": [str(c) for c in self.poly],
            "factored": self.factored,
            "variance": {
                "lhs": str(self.variance_lhs),
                "rhs": str(self.variance_rhs),
                "satisfied": self.variance_satisfied,
            },
        }


def _spectrum_polynomial(scaled_degrees, d):
    """prod (S + r/d) over the scaled degrees r, ascending Fractions.

    The product prod (d S + r) runs on Python ints and is divided once by
    d^mu.
    """
    poly = [1]
    for r in scaled_degrees:
        out = [r * c for c in poly]
        out.append(0)
        for i, c in enumerate(poly):
            out[i + 1] += d * c
        poly = out
    den = d ** len(scaled_degrees)
    return tuple(Fraction(c, den) for c in poly)


def spectrum(algebra: JacobianAlgebra) -> SpectrumData:
    """Spectrum multiset from the adapted basis degrees, with sanity checks."""
    basis = algebra.basis()
    n = algebra.n
    counts = {}
    for a in basis.degrees:
        counts[a] = counts.get(a, 0) + 1
    pairs = tuple(sorted(counts.items()))
    mu = len(basis)
    if counts.get(Fraction(0), 0) != 1:
        raise DegeneracySuspectedError("spectral multiplicity at 0 is not 1")
    for a, m in pairs:
        if a < 0 or a > n:
            raise DegeneracySuspectedError("spectral value %s outside [0, %d]" % (a, n))
        if counts.get(n - a, 0) != m:
            raise DegeneracySuspectedError(
                "spectrum is not symmetric: nu(%s) = %d but nu(%s) = %d"
                % (a, m, n - a, counts.get(n - a, 0))
            )
    poly = _spectrum_polynomial(basis.scaled_degrees, algebra.d)
    factors = []
    for a, m in pairs:
        if a == 0:
            base = "S"
        else:
            base = "(S+%s)" % a
        factors.append(base if m == 1 else "%s^%d" % (base, m))
    half = Fraction(n, 2)
    lhs = sum(((a - half) ** 2 * m for a, m in pairs), Fraction(0)) / mu
    return SpectrumData(
        pairs=pairs,
        poly=poly,
        factored="*".join(factors),
        variance_lhs=lhs,
        variance_rhs=Fraction(n, 12),
    )
