"""Newton polytopes of Laurent polynomials, exactly.

The polytope of f is the convex hull of the nonzero exponents in its support.
"Convenient" means full-dimensional with the origin strictly inside; then
every facet hyperplane can be normalized to a linear form L with L == 1 on the
facet, and phi(x) = max over facets of L(x) is the polytope gauge.  All
arithmetic is over Fraction; facet data is canonical, so repeated runs agree.

Only convenient polytopes are built: `newton_polytope` refuses any other
support with `NotConvenientError`, a hull of dimension below n by the rank
of the echelon of its differences p - p_0 and a facet with offset b <= 0
before any vertex is computed.  The hull is computed once; the face lattice
(`NewtonPolytope.faces`) is read off its facets once, and both the volume
(a pulling triangulation over that lattice) and the nondegeneracy
certificate's face list read it.  Every elimination here runs on
`linalg.Echelon`, and each simplex |det| in the volume is a product of
pivots (`_det`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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
    """Hull data for one convenient polynomial; construct through newton_polytope()."""

    def __init__(self, arity, vertices, halfspaces):
        self.arity = arity
        self.vertices = vertices          # tuple of exponent tuples, graded-lex order
        self.halfspaces = halfspaces      # tuple of (primitive int normal, int offset), a.x <= b
        facets = []
        for a, b in halfspaces:
            coeffs = tuple(Fraction(ai, b) for ai in a)
            on = tuple(i for i, v in enumerate(vertices) if _dot(a, v) == b)
            facets.append(FacetForm(coeffs, on))
        facets.sort(key=lambda f: f.coeffs)
        self.facets = tuple(facets)
        self.scale = 1
        for f in self.facets:
            for c in f.coeffs:
                self.scale = lcm(self.scale, c.denominator)
        # scale * L for every facet form L: integer forms of the scaled gauge
        self._scaled_forms = tuple(
            tuple(int(c * self.scale) for c in f.coeffs) for f in self.facets
        )

    @cached_property
    def faces(self):
        """Every proper face as a sorted tuple of vertex ids, facets included.

        The faces are the nonempty intersections of facets, closed here
        under intersection with one more facet at a time.
        """
        facet_sets = {frozenset(f.vertex_ids) for f in self.facets}
        faces = set(facet_sets)
        frontier = facet_sets
        while frontier:
            frontier = {a & b for a in frontier for b in facet_sets} - faces - {frozenset()}
            faces |= frontier
        return tuple(sorted(tuple(sorted(f)) for f in faces))

    # -- the gauge

    def phi_exp(self, exp) -> Fraction:
        return Fraction(self.scaled_phi_exp(exp), self.scale)

    def scaled_phi_exp(self, exp) -> int:
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
        return {
            "vars": self.arity,
            "convenient": True,
            "vertices": [list(v) for v in self.vertices],
            "facets": [
                {"coeffs": [str(c) for c in f.coeffs], "vertices": list(f.vertex_ids)}
                for f in self.facets
            ],
            "scale": self.scale,
        }


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
    """Hull of the nonzero support of f; raises NotConvenientError unless convenient."""
    pts = [e for e in f.support() if any(e)]
    if not pts:
        raise ValueError("zero or constant polynomial has an empty Newton polytope")
    n = f.arity
    base = pts[0]
    span = Echelon()
    for p in pts[1:]:
        span.insert({c: Fraction(p[c] - base[c]) for c in range(n) if p[c] != base[c]})
    if len(span.rows) < n:
        raise NotConvenientError("Newton polytope has dimension %d < %d" % (len(span.rows), n))
    halfspaces = _hull_halfspaces(pts, n)
    for a, b in halfspaces:
        if b <= 0:
            raise NotConvenientError(
                "origin is not strictly interior (facet %s . x <= %d)" % (list(a), b))
    verts = tuple(sorted((pts[i] for i in _vertex_ids(pts, halfspaces)), key=term_key))
    return NewtonPolytope(n, verts, tuple(halfspaces))


def _vertex_ids(pts, halfspaces):
    """Indices of the points whose active facet normals span everything."""
    dim = len(pts[0])
    out = []
    for i, p in enumerate(pts):
        active = [a for a, b in halfspaces if _dot(a, p) == b]
        if len(active) >= dim and rank(active) == dim:
            out.append(i)
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

    Each facet is cut into simplices by pulling over the face lattice: a
    face is its smallest vertex coned over the simplices of each of its own
    facets (the maximal faces strictly inside it) that misses that vertex,
    and a vertex is itself.  The cone from the origin over an
    (n-1)-simplex of a facet has normalized volume |det| of its vertices.

    Raises VerificationError when the summed volume is not an integer; that
    check is explicit, so it also runs under `python -O`.
    """
    faces = [frozenset(ids) for ids in p.faces]
    simplices = {}

    def pull(face):
        if face not in simplices:
            apex = min(face)
            inner = [g for g in faces if g < face]
            simplices[face] = [(apex,)] if len(face) == 1 else [
                (apex,) + s
                for g in inner if apex not in g and not any(g < h for h in inner)
                for s in pull(g)
            ]
        return simplices[face]

    total = Fraction(0)
    for facet in p.facets:
        for simplex in pull(frozenset(facet.vertex_ids)):
            total += _det([p.vertices[i] for i in simplex])
    if total.denominator != 1:
        raise VerificationError("the normalized volume %s is not an integer" % total)
    return int(total)
