"""Brieskorn-type lattice of a convenient nondegenerate Laurent polynomial.

Elements are classes of forms sum_k theta^k g_k(u) du/u modulo the reduction
rule [sum_i h_i xi_i(f) du/u] = theta [sum_i xi_i(h_i) du/u]; every class has
canonical coordinates over Q[theta] on the adapted monomial basis, kept
sparse like the pencil's rows: a dict (k, i) -> the nonzero coefficient of
theta^k e_i.  The operator t acts as multiplication by f on theta-degree
zero and extends by t(theta^k x) = k theta^(k+1) x + theta^k t(x); on
coordinates this is t(v) = theta^2 v' + B(theta) v for the pencil B
computed once per lattice, and `ConnectionPencil.apply_t` forms it from the
nonzero entries of v and of the B_k.

Reduction combines memoized normal forms.  Each lattice keeps, per
monomial u^e it has met, the coordinates NF(u^e) of its class over
Q[theta] as integer numerators over one denominator.  A basis monomial is
its own coordinate; a pivot monomial reads its `jacobian.RewriteRule`,
u^e = (reps + theta deta + lower) / lead, so NF(u^e) is reps plus theta
NF(deta) plus NF(lower), over lead.  deta and lower lie strictly below the
level of u^e, so the memo is filled in ascending level order, without
recursion.  A form sum_k theta^k g_k reduces to the sum of theta^k times
the normal forms of the monomials of g_k.  A representative outside the
basis (above the top level on a degenerate algebra) gets a slot of its
own, so a form raises exactly when the division of one of its theta
powers would, after cancellation.  The pencil reduces f * u^m for every
basis monomial m that way and fills the sparse rows of B_0, ..., B_k from
the nonzero coordinates only, checking the theta-degree bound and the
order bound on them as explicit tests.

The spectrum runs on the scaled degrees r_i = d alpha_i, ints: its checks
(n - alpha is n d - r), the variance ((alpha - n/2)^2 = (2 r - n d)^2 / 4 d^2)
and SP(S) = prod (S + alpha_i), as prod (d S + r_i) divided once by d^mu.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add

from .errors import DegeneracySuspectedError
from .jacobian import JacobianAlgebra
from .laurent import LaurentPolynomial, term_key
from .linalg import _axpy, _numerators, dense_strings


@dataclass(frozen=True)
class BrieskornElement:
    """Coordinates over Q[theta]: coords maps (k, i) to the coefficient of
    theta^k e_i, a nonzero Fraction; a zero is never stored."""

    coords: dict

    def is_zero(self) -> bool:
        return not self.coords

    def __add__(self, other):
        return self._plus(1, other)

    def __sub__(self, other):
        return self._plus(-1, other)

    def _plus(self, c, other):
        out = dict(self.coords)
        _axpy(out, c, other.coords)
        return BrieskornElement(out)

    def theta_shift(self, k: int = 1):
        return BrieskornElement({(j + k, i): c for (j, i), c in self.coords.items()})


def integer_orders(degrees):
    """(den, orders): the least common denominator of the degrees, and
    orders[i] = den * degrees[i] as ints.  The degrees may be ints or Fractions."""
    den = lcm(*(a.denominator for a in degrees))
    return den, [a.numerator * (den // a.denominator) for a in degrees]


class ConnectionPencil:
    """Matrix polynomial B(theta) = B_0 + theta B_1 + ... acting on coordinates.

    matrices[k] is B_k as sparse rows (see `linalg`): matrices[k][i] maps
    the column j of every nonzero entry of row i to that entry.  Besides
    the degrees the pencil carries their integer form, built once here for
    the stages after the pencil: `den` and `orders` (see `integer_orders`).
    The degrees must ascend, as the basis lists them by level: the checks
    after the pencil read the top degree last and bisect the orders.
    """

    def __init__(self, matrices, degrees):
        self.matrices = matrices        # list of mu sparse rows per theta power
        self.degrees = degrees          # basis Newton degrees (Fractions)
        self.mu = len(matrices[0])
        self.den, self.orders = integer_orders(degrees)
        if any(a > b for a, b in zip(self.orders, self.orders[1:])):
            raise ValueError("pencil degrees do not ascend: %s"
                             % ", ".join(map(str, degrees)))

    @property
    def degree(self):
        return len(self.matrices) - 1

    def apply_t(self, elem: BrieskornElement) -> BrieskornElement:
        """t(v) = theta^2 v' + B(theta) v on the nonzero coordinates of v."""
        acc = {}
        by_slot = {}            # j -> [(k, coefficient of theta^k e_j)]
        for (k, j), c in elem.coords.items():
            if k:
                acc[k + 1, j] = k * c
            by_slot.setdefault(j, []).append((k, c))
        for m, rows in enumerate(self.matrices):
            for i, row in enumerate(rows):
                for j, x in row.items():
                    for k, c in by_slot.get(j, ()):
                        acc[k + m, i] = acc.get((k + m, i), 0) + x * c
        return BrieskornElement({key: c for key, c in acc.items() if c})

    def to_json_obj(self):
        return {
            "degree": self.degree,
            "matrices": [dense_strings(m, self.mu) for m in self.matrices],
        }


# the coordinate theta^k e_i of a normal form has the key k * _THETA + i
_THETA = 1 << 32


class BrieskornLattice:
    def __init__(self, algebra: JacobianAlgebra):
        self.algebra = algebra
        self.basis = algebra.basis()
        # representative -> slot: the basis index, then mu, mu + 1, ... for
        # representatives outside the basis as they are met
        self._slots = {m: i for i, m in enumerate(self.basis.monomials)}
        self._pencil = None
        self._forms = {}        # exponent -> (numerators {key: int}, den)

    @property
    def mu(self):
        return len(self.basis)

    def reduce(self, forms) -> BrieskornElement:
        """Reduce a form given as {theta power: Laurent polynomial} to coordinates."""
        if isinstance(forms, LaurentPolynomial):
            forms = {0: forms}
        # one denominator for every theta power
        den = lcm(*(c.denominator for g in forms.values() for c in g.terms.values()))
        numerators = {
            k: {e: c.numerator * (den // c.denominator) for e, c in g.terms.items() if c}
            for k, g in forms.items()
        }
        self._fill([e for part in numerators.values() for e in part])
        return BrieskornElement({divmod(key, _THETA): c
                                 for key, c in self._coordinates(numerators, den).items()})

    def _coordinates(self, forms, den):
        """{theta power: {exponent: int}} over the int den -> {key: Fraction},
        the nonzero coordinates keyed as for `_THETA`.

        The sum of the monomials' normal forms, on integers over one
        denominator.  A coordinate on a representative outside the basis
        raises as the division of that theta power would, and so does a
        coordinate above theta degree cap = (highest theta power of the
        forms) + n + 2.
        """
        cap = max(forms, default=0) + self.algebra.n + 2
        acc, common = _combine({}, [(c, self._normal_form(e), k * _THETA)
                                    for k, part in forms.items() for e, c in part.items()])
        # slots outside the basis exist on degenerate algebras only
        mu = self.mu
        if acc and (max(acc) >= cap * _THETA + mu or len(self._slots) > mu and any(
                key % _THETA >= mu for key in acc)):
            self._refuse(acc, cap)
        den *= common
        return {key: Fraction(v, den) for key, v in acc.items()}

    def _refuse(self, coords, cap):
        """Raise for the lowest theta power k with a coordinate outside the
        basis or above the cap, as the division of theta power k would: the
        cap first, then the highest level with a representative outside."""
        mu = self.mu
        k = min(key // _THETA for key in coords
                if key % _THETA >= mu or key // _THETA > cap)
        if k > cap:
            raise DegeneracySuspectedError("reduction exceeded theta degree %d" % cap)
        slots = {key % _THETA for key in coords if key // _THETA == k}
        outside = [x for x, i in self._slots.items() if i >= mu and i in slots]
        level = self.algebra.level
        r, top_level = max(map(level, outside)), self.algebra.n * self.algebra.d
        if r > top_level:
            raise DegeneracySuspectedError(
                "graded representative appears above the top level (scaled %d > %d)"
                % (r, top_level))
        e = min((x for x in outside if level(x) == r), key=term_key)
        raise DegeneracySuspectedError(
            "residual monomial %s at scaled level %d is not a basis representative"
            % (e, r))

    def _normal_form(self, e):
        """The coordinates of u^e over Q[theta] as (numerators, den): a dict
        key -> int over the positive int den, keys as for `_THETA`."""
        nf = self._forms.get(e)
        if nf is None:
            self._fill((e,))
            nf = self._forms[e]
        return nf

    def _fill(self, monomials):
        """Put the normal forms of the monomials into the memo.

        A pivot monomial with rule (lead, reps, deta, lower) has the normal
        form (reps + theta NF(deta) + NF(lower)) / lead, where NF is linear.
        Every monomial of deta and lower lies below the level of u^e, so the
        memo is filled in ascending level order, without recursion, from the
        monomials the rules reach that it does not hold yet.
        """
        memo = self._forms
        slots = self._slots
        rule = self.algebra.rule
        rules = {}
        todo = [e for e in monomials if e not in memo]
        while todo:
            x = todo.pop()
            if x in rules:
                continue
            rules[x] = rx = None if x in slots else rule(x)
            if rx is not None:
                if not rx.lowered:
                    raise DegeneracySuspectedError(
                        "division failed to lower the scaled level %d"
                        % self.algebra.level(x)
                    )
                todo += [y for y in rx.deta if y not in memo and y not in rules]
                todo += [y for y in rx.lower if y not in memo and y not in rules]
        for x in sorted(rules, key=self.algebra.level):
            rx = rules[x]
            if rx is None:
                memo[x] = ({slots.setdefault(x, len(slots)): 1}, 1)
                continue
            parts = [(c, memo[y], _THETA) for y, c in rx.deta.items()]
            parts += [(c, memo[y], 0) for y, c in rx.lower.items()]
            acc, common = _combine({slots.setdefault(y, len(slots)): c
                                    for y, c in rx.reps.items()}, parts)
            den = rx.lead * common
            g = gcd(den, *acc.values())
            if g != 1:
                acc = {key: v // g for key, v in acc.items()}
                den //= g
            memo[x] = (acc, den)

    def newton_order(self, elem: BrieskornElement):
        """max of k + alpha_i over the nonzero coordinates theta^k e_i, as
        (k d + r_i) / d on the scaled degrees r; None for zero."""
        if not elem.coords:
            return None
        d, r = self.algebra.d, self.basis.scaled_degrees
        return Fraction(max(k * d + r[i] for k, i in elem.coords), d)

    def pencil(self) -> ConnectionPencil:
        if self._pencil is None:
            mu = self.mu
            f, den = _numerators(self.algebra.f.terms)
            degrees = self.basis.degrees
            forms = [{0: {tuple(map(add, e, m)): c for e, c in f.items()}}
                     for m in self.basis.monomials]
            self._fill([e for form in forms for e in form[0]])
            columns = [self._coordinates(form, den) for form in forms]
            top = max((key // _THETA for col in columns for key in col), default=0)
            if top > self.algebra.n:
                raise DegeneracySuspectedError(
                    "connection pencil has theta-degree %d > %d" % (top, self.algebra.n)
                )
            # order bound: t raises the Newton order by at most one, that is
            # s_i + k * d <= s_j + d on the scaled degrees s
            d, s = self.algebra.d, self.basis.scaled_degrees
            rows = [[{} for _ in range(mu)] for _ in range(top + 1)]
            for j, col in enumerate(columns):
                bound = s[j] + d
                broken = [divmod(key, _THETA) for key in col
                          if s[key % _THETA] + key // _THETA * d > bound]
                if broken:
                    k, i = min(broken, key=lambda ki: (ki[1], ki[0]))
                    raise DegeneracySuspectedError(
                        "entry (%d,%d) of B_%d violates the order bound" % (i, j, k)
                    )
                for key, c in col.items():
                    k, i = divmod(key, _THETA)
                    rows[k][i][j] = c
            self._pencil = ConnectionPencil(rows, degrees)
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


def _combine(base, parts):
    """(acc, common): base + sum of c * x shifted, for parts (c, (x, d),
    shift) with x a dict key -> int over the int d, as numerators acc over
    the lcm common of the d; every key k of x counts as k + shift, and
    entries that cancel are dropped.  base is over 1 and is taken over."""
    common = lcm(*(nf[1] for _, nf, _ in parts))
    acc = {k: v * common for k, v in base.items()}
    for c, (x, d), shift in parts:
        c *= common // d
        for k, v in x.items():
            k += shift
            s = acc.get(k)
            s = c * v if s is None else s + c * v
            if s:
                acc[k] = s
            else:
                del acc[k]
    return acc, common


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
    n, d = algebra.n, algebra.d
    top = n * d
    counts = {}
    for r in basis.scaled_degrees:
        counts[r] = counts.get(r, 0) + 1
    scaled = sorted(counts.items())
    if counts.get(0, 0) != 1:
        raise DegeneracySuspectedError("spectral multiplicity at 0 is not 1")
    for r, m in scaled:
        if r < 0 or r > top:
            raise DegeneracySuspectedError(
                "spectral value %s outside [0, %d]" % (Fraction(r, d), n))
        if counts.get(top - r, 0) != m:
            raise DegeneracySuspectedError(
                "spectrum is not symmetric: nu(%s) = %d but nu(%s) = %d"
                % (Fraction(r, d), m, Fraction(top - r, d), counts.get(top - r, 0))
            )
    pairs = tuple((Fraction(r, d), m) for r, m in scaled)
    poly = _spectrum_polynomial(basis.scaled_degrees, d)
    bases = ["S" if a == 0 else "(S+%s)" % a for a, _ in pairs]
    factors = [b if m == 1 else "%s^%d" % (b, m) for b, (_, m) in zip(bases, pairs)]
    lhs = Fraction(sum((2 * r - top) ** 2 * m for r, m in scaled), 4 * d * d * len(basis))
    return SpectrumData(
        pairs=pairs,
        poly=poly,
        factored="*".join(factors),
        variance_lhs=lhs,
        variance_rhs=Fraction(n, 12),
    )
