"""Newton polytopes of Laurent polynomials, exactly.

The polytope of f is the convex hull of the nonzero exponents in its support.
"Convenient" means full-dimensional with the origin strictly inside; then
every facet hyperplane can be normalized to a linear form L with L == 1 on the
facet, and phi(x) = max over facets of L(x) is the polytope gauge.  All
arithmetic is over Fraction; facet data is canonical, so repeated runs agree.

Every elimination here runs on `linalg.Echelon`.  A hull of dimension
below n is projected onto the pivot columns of the echelon of its
differences p - p_0, an affine bijection of its span (`_extreme_points`),
and each simplex |det| in the volume is a product of pivots (`_det`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm, ceil, floor

from .errors import NotConvenientError, VerificationError
from .laurent import LaurentPolynomial, term_key
from .linalg import Echelon, nullspace, rank


def _dot(a, b):
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def _primitive(v):
    """Scale a rational vector to a primitive integer vector (same direction)."""
    den = 1
    for x in v:
        f = Fraction(x)
        den = lcm(den, f.denominator)
    iv = [int(Fraction(x) * den) for x in v]
    g = 0
    for x in iv:
        g = gcd(g, abs(x))
    return tuple(x // g for x in iv)


@dataclass(frozen=True)
class FacetForm:
    """Linear form with L == 1 on one facet of the polytope."""

    coeffs: tuple[Fraction, ...]
    vertex_ids: tuple[int, ...]

    def value(self, exp) -> Fraction:
        return sum((c * e for c, e in zip(self.coeffs, exp)), Fraction(0))


class NewtonPolytope:
    """Hull data for one polynomial; construct through newton_polytope()."""

    def __init__(self, arity, vertices, halfspaces, convenient, diagnostic):
        self.arity = arity
        self.vertices = vertices          # tuple of exponent tuples, graded-lex order
        self.halfspaces = halfspaces      # tuple of (primitive int normal, int offset), a.x <= b
        self.convenient = convenient
        self.diagnostic = diagnostic      # None when convenient
        if convenient:
            facets = []
            for a, b in halfspaces:
                coeffs = tuple(Fraction(ai, b) for ai in a)
                on = tuple(
                    i for i, v in enumerate(vertices) if _dot(a, v) == b
                )
                facets.append(FacetForm(coeffs, on))
            facets.sort(key=lambda f: f.coeffs)
            self.facets = tuple(facets)
            self.scale = 1
            for f in self.facets:
                for c in f.coeffs:
                    self.scale = lcm(self.scale, c.denominator)
        else:
            self.facets = ()
            self.scale = 1
        # scale * L for every facet form L: integer forms of the scaled gauge
        self._scaled_forms = tuple(
            tuple(int(c * self.scale) for c in f.coeffs) for f in self.facets
        )

    def require_convenient(self):
        if not self.convenient:
            raise NotConvenientError(self.diagnostic or "not convenient")

    # -- the gauge

    def phi_exp(self, exp) -> Fraction:
        return Fraction(self.scaled_phi_exp(exp), self.scale)

    def scaled_phi_exp(self, exp) -> int:
        self.require_convenient()
        return max(sum(c * e for c, e in zip(a, exp)) for a in self._scaled_forms)

    def phi(self, g: LaurentPolynomial):
        """Newton degree of a polynomial; None for 0."""
        if g.is_zero():
            return None
        return max(self.phi_exp(e) for e in g.terms)

    def scaled_phi(self, g: LaurentPolynomial):
        if g.is_zero():
            return None
        return max(self.scaled_phi_exp(e) for e in g.terms)

    # -- lattice point enumeration

    def enumerate_sublevel(self, alpha) -> list[tuple[int, ...]]:
        """All lattice points with phi <= alpha, graded-lex order."""
        self.require_convenient()
        alpha = Fraction(alpha)
        if alpha < 0:
            return []
        n = self.arity
        ranges = []
        for j in range(n):
            lo = min(v[j] for v in self.vertices) * alpha
            hi = max(v[j] for v in self.vertices) * alpha
            ranges.append(range(ceil(lo), floor(hi) + 1))
        top = floor(alpha * self.scale)
        out = [e for e in product(*ranges) if self.scaled_phi_exp(e) <= top]
        out.sort(key=term_key)
        return out

    def to_json_obj(self):
        obj = {
            "vars": self.arity,
            "convenient": self.convenient,
            "vertices": [list(v) for v in self.vertices],
        }
        if self.convenient:
            obj["facets"] = [
                {"coeffs": [str(c) for c in f.coeffs], "vertices": list(f.vertex_ids)}
                for f in self.facets
            ]
            obj["scale"] = self.scale
        else:
            obj["halfspaces"] = [
                {"normal": list(a), "offset": b} for a, b in self.halfspaces
            ]
            obj["diagnostic"] = self.diagnostic
        return obj


def _hull_halfspaces(pts, n):
    """Facet halfspaces (a primitive integer, a.x <= b) of a full-dimensional hull."""
    if n == 1:
        vals = [p[0] for p in pts]
        return [((1,), max(vals)), ((-1,), -min(vals))]
    found = {}
    for sub in combinations(range(len(pts)), n):
        base = pts[sub[0]]
        rows = [[pts[j][c] - base[c] for c in range(n)] for j in sub[1:]]
        ns = nullspace(rows)
        if len(ns) != 1:
            continue  # affinely dependent subset
        a = _primitive(ns[0])
        b = _dot(a, base)
        vals = [_dot(a, p) - b for p in pts]
        if all(v <= 0 for v in vals):
            pass
        elif all(v >= 0 for v in vals):
            a = tuple(-x for x in a)
            b = -b
        else:
            continue
        found[(a, int(b))] = True
    return sorted(found)


def newton_polytope(f: LaurentPolynomial) -> NewtonPolytope:
    """Hull of the nonzero support of f, with the convenience verdict."""
    pts = [e for e in f.support() if any(e)]
    if not pts:
        raise ValueError("zero or constant polynomial has an empty Newton polytope")
    n = f.arity
    base = pts[0]
    span = Echelon()
    for p in pts[1:]:
        span.insert({c: Fraction(p[c] - base[c]) for c in range(n) if p[c] != base[c]})
    if len(span.rows) < n:
        verts = _extreme_points(pts, sorted(span.rows))
        return NewtonPolytope(
            n,
            tuple(sorted(verts, key=term_key)),
            (),
            False,
            "Newton polytope has dimension %d < %d" % (len(span.rows), n),
        )
    halfspaces = _hull_halfspaces(pts, n)
    verts = tuple(sorted((pts[i] for i in _vertex_ids(pts, halfspaces)), key=term_key))
    bad = [(a, b) for a, b in halfspaces if b <= 0]
    if bad:
        a, b = bad[0]
        return NewtonPolytope(
            n, verts, tuple(halfspaces), False,
            "origin is not strictly interior (facet %s . x <= %d)" % (list(a), b),
        )
    return NewtonPolytope(n, verts, tuple(halfspaces), True, None)


def _vertex_ids(pts, halfspaces):
    """Indices of the points whose active facet normals span everything."""
    dim = len(pts[0])
    out = []
    for i, p in enumerate(pts):
        active = [a for a, b in halfspaces if _dot(a, p) == b]
        if len(active) >= dim and rank(active) == dim:
            out.append(i)
    return out


def _extreme_points(pts, cols):
    """Extreme points of conv(pts), given the pivot columns of its affine span.

    The reduced echelon rows of the differences p - pts[0] are a basis of
    the direction space with the identity in the pivot columns cols, so the
    projection onto cols maps the affine span bijectively and affinely onto
    Q^len(cols); it keeps the extreme points.
    """
    if not cols:
        return [pts[0]]
    proj = [tuple(p[c] for c in cols) for p in pts]
    return [pts[i] for i in _vertex_ids(proj, _hull_halfspaces(proj, len(cols)))]


def _triangulate(pts, dim):
    """Triangulate conv(pts), full-dimensional in R^dim; returns index simplices."""
    if dim == 0:
        return [(0,)]
    if dim == 1:
        lo = min(range(len(pts)), key=lambda i: pts[i])
        hi = max(range(len(pts)), key=lambda i: pts[i])
        return [(lo, hi)]
    halfspaces = _hull_halfspaces(pts, dim)
    apex = min(range(len(pts)), key=lambda i: pts[i])
    out = []
    for a, b in halfspaces:
        on = [i for i, p in enumerate(pts) if _dot(a, p) == b]
        if apex in on:
            continue
        j0 = next(j for j in range(dim) if a[j] != 0)
        sub = [tuple(x for c, x in enumerate(pts[i]) if c != j0) for i in on]
        for tri in _triangulate(sub, dim - 1):
            out.append((apex,) + tuple(on[t] for t in tri))
    return out


def _det(rows):
    """|det| of a square matrix: the product of the pivots its rows meet.

    Each row is reduced against the rows before it in one `Echelon`.  The
    residual differs from the row by a combination of earlier rows and is
    zero in every earlier pivot column, so with the columns taken in pivot
    order the residuals form a triangular matrix of the same |det|, whose
    diagonal holds their leading entries.
    """
    ech = Echelon()
    det = Fraction(1)
    for row in rows:
        vec, _ = ech.reduce({j: Fraction(x) for j, x in enumerate(row) if x})
        if not vec:
            return Fraction(0)
        det *= abs(vec[min(vec)])
        ech.insert(vec)
    return det


def milnor_number(p: NewtonPolytope) -> int:
    """Normalized lattice volume n! * vol of the polytope (cone over each facet).

    Raises VerificationError when the summed volume is not an integer; that
    check is explicit, so it also runs under `python -O`.
    """
    p.require_convenient()
    n = p.arity
    total = Fraction(0)
    for facet in p.facets:
        fpts = [p.vertices[i] for i in facet.vertex_ids]
        j0 = next(j for j in range(n) if facet.coeffs[j] != 0)
        proj = [tuple(x for c, x in enumerate(q) if c != j0) for q in fpts]
        for tri in _triangulate(proj, n - 1):
            total += _det([fpts[t] for t in tri])
    if total.denominator != 1:
        raise VerificationError("the normalized volume %s is not an integer" % total)
    return int(total)
