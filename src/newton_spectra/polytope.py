"""Newton polytopes of Laurent polynomials, exactly.

The polytope of f is the convex hull of the nonzero exponents in its support.
"Convenient" means full-dimensional with the origin strictly inside; then
every facet hyperplane can be normalized to a linear form L with L == 1 on the
facet, and phi(x) = max over facets of L(x) is the polytope gauge.  The hull
is computed on integers: facet halfspaces a.x <= b with a primitive integer
normal (`_hull_halfspaces`, from signed maximal minors), and the scaled
forms scale * L are integer vectors, so the gauge, the vertex tests and the
lattice-point walk (`enumerate_sublevel`) are integer sums; only the facet
coefficients L and the degrees phi are Fractions.  Facet data is canonical,
so repeated runs agree.

Only convenient polytopes are built: `newton_polytope` refuses any other
support with `NotConvenientError`, a hull of dimension below n by the rank
of the echelon of its differences p - p_0 and a facet with offset b <= 0
before any vertex is computed.  A support point is a vertex when the point
sets of the facets through it meet in that point alone.  The face lattice is
read off the facets once, as its cover relation (`NewtonPolytope.covers`),
and the volume (a pulling triangulation) and the nondegeneracy certificate's
faces and face dimensions read it.  The affine span runs on
`linalg.Echelon`; the simplex |det| of the volume and the minors of the hull
normals come from one integer determinant (`_det`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd, lcm, ceil, floor
from operator import mul

from .errors import NotConvenientError, VerificationError
from .laurent import LaurentPolynomial, term_key
from .linalg import Echelon


def _dot(a, b):
    """Dot product of two integer vectors, as an int."""
    return sum(map(mul, a, b))


@dataclass(frozen=True)
class FacetForm:
    """Linear form with L == 1 on one facet of the polytope."""

    coeffs: tuple[Fraction, ...]
    vertex_ids: tuple[int, ...]


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
    def covers(self):
        """Each proper face, a sorted tuple of vertex ids, to its own facets:
        the maximal sets among its nonempty intersections with the polytope's
        facets, other than itself.  A vertex has none."""
        facet_sets = {frozenset(f.vertex_ids) for f in self.facets}
        covers = {}
        frontier = facet_sets
        while frontier:
            for face in frontier:
                inner = {face & b for b in facet_sets} - {face, frozenset()}
                covers[face] = [g for g in inner if not any(g < h for h in inner)]
            # the lattice is graded, so every face is a facet of a face above it
            frontier = {g for face in frontier for g in covers[face]} - covers.keys()
        return {tuple(sorted(face)): tuple(sorted(tuple(sorted(g)) for g in below))
                for face, below in covers.items()}

    @cached_property
    def faces(self):
        """Every proper face as a sorted tuple of vertex ids, facets included."""
        return tuple(sorted(self.covers))

    # -- the gauge

    def phi_exp(self, exp) -> Fraction:
        return Fraction(self.scaled_phi_exp(exp), self.scale)

    def scaled_phi_exp(self, exp) -> int:
        return max(sum(c * e for c, e in zip(a, exp)) for a in self._scaled_forms)

    def scaled_phi(self, g: LaurentPolynomial):
        if g.is_zero():
            return None
        return max(self.scaled_phi_exp(e) for e in g.terms)

    # -- lattice point enumeration

    def enumerate_sublevel(self, alpha) -> list[tuple[int, ...]]:
        """All lattice points with phi <= alpha, graded-lex order.

        They are the points of alpha times the vertices' bounding box on
        which every scaled facet form is at most top = floor(alpha * scale).
        The walk fixes one coordinate at a time.  Given a prefix, each form
        bounds the next coordinate from one side: the form must stay <= top
        with the coordinates after it at their smallest contribution in the
        box, so a prefix is cut as soon as one form exceeds top.  At the
        last coordinate the bounds are exact.
        """
        alpha = Fraction(alpha)
        if alpha < 0:
            return []
        n = self.arity
        box = []
        for j in range(n):
            lo = min(v[j] for v in self.vertices) * alpha
            hi = max(v[j] for v in self.vertices) * alpha
            box.append((ceil(lo), floor(hi)))
        top = floor(alpha * self.scale)
        forms = self._scaled_forms
        # rest[j]: per form, its smallest value over the coordinates j.. in the box
        rest = [[0] * len(forms)]
        for j in range(n - 1, -1, -1):
            lo, hi = box[j]
            rest.append([r + min(a[j] * lo, a[j] * hi) for a, r in zip(forms, rest[-1])])
        rest.reverse()
        out = []

        def walk(j, prefix, sums):
            lo, hi = box[j]
            for a, s, r in zip(forms, sums, rest[j + 1]):
                room = top - s - r
                c = a[j]
                if c > 0:
                    hi = min(hi, room // c)
                elif c < 0:
                    lo = max(lo, -(room // -c))
                elif room < 0:
                    return
            for x in range(lo, hi + 1):
                point = prefix + (x,)
                if j + 1 == n:
                    out.append(point)
                else:
                    walk(j + 1, point, [s + a[j] * x for a, s in zip(forms, sums)])

        walk(0, (), [0] * len(forms))
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
    """Facet halfspaces (a primitive integer, a.x <= b) of a full-dimensional hull.

    Every n-subset of the points spans a candidate hyperplane.  Its normal
    is the vector of signed maximal minors of the n - 1 differences to the
    first point (the generalized cross product, zero exactly when the subset
    is affinely dependent), made primitive; the hyperplane bounds a facet
    when every point lies on one side of it.
    """
    if n == 1:
        vals = [p[0] for p in pts]
        return [((1,), max(vals)), ((-1,), -min(vals))]
    found = set()
    for sub in combinations(range(len(pts)), n):
        base = pts[sub[0]]
        diffs = [[x - y for x, y in zip(pts[j], base)] for j in sub[1:]]
        a = [(-1) ** c * _det([row[:c] + row[c + 1:] for row in diffs]) for c in range(n)]
        g = gcd(*a)
        if not g:
            continue  # affinely dependent subset
        a = tuple(x // g for x in a)
        b = _dot(a, base)
        if (a, b) in found or (tuple(-x for x in a), -b) in found:
            continue  # a facet already found from another subset
        above = below = False
        for p in pts:
            v = _dot(a, p) - b
            above = above or v > 0
            below = below or v < 0
            if above and below:
                break
        else:
            if above:
                a = tuple(-x for x in a)
                b = -b
            found.add((a, b))
    return sorted(found)


def _det(m):
    """Determinant of a square integer matrix, by fraction-free elimination.

    Bareiss (Math. Comp. 22, 1968): after step i the entry (r, c) with
    r, c > i is the minor on rows 0..i, r and columns 0..i, c (of the rows
    as swapped), so the division by the previous pivot is exact and every
    entry stays an integer.
    """
    m = [list(row) for row in m]
    k = len(m)
    sign = prev = 1
    for i in range(k):
        piv = next((r for r in range(i, k) if m[r][i]), None)
        if piv is None:
            return 0
        if piv != i:
            m[i], m[piv] = m[piv], m[i]
            sign = -sign
        for r in range(i + 1, k):
            for c in range(i + 1, k):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
        prev = m[i][i]
    return sign * prev


def newton_polytope(f: LaurentPolynomial) -> NewtonPolytope:
    """Hull of the nonzero support of f; raises NotConvenientError unless convenient."""
    pts = [e for e in f.support() if any(e)]
    if not pts:
        raise ValueError("zero or constant polynomial has an empty Newton polytope")
    n = f.arity
    base = pts[0]
    span = Echelon()
    for p in pts[1:]:
        span.insert({c: p[c] - base[c] for c in range(n) if p[c] != base[c]})
    if len(span) < n:
        raise NotConvenientError("Newton polytope has dimension %d < %d" % (len(span), n))
    halfspaces = _hull_halfspaces(pts, n)
    for a, b in halfspaces:
        if b <= 0:
            raise NotConvenientError(
                "origin is not strictly interior (facet %s . x <= %d)" % (list(a), b))
    # a vertex is the one support point common to every facet through it
    on = [{i for i, q in enumerate(pts) if _dot(a, q) == b} for a, b in halfspaces]
    every = set(range(len(pts)))
    verts = sorted((q for i, q in enumerate(pts)
                    if every.intersection(*(s for s in on if i in s)) == {i}), key=term_key)
    return NewtonPolytope(n, tuple(verts), tuple(halfspaces))


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
    simplices = {}

    def pull(face):
        if face not in simplices:
            apex = face[0]
            simplices[face] = [(apex,)] if len(face) == 1 else [
                (apex,) + s for g in p.covers[face] if apex not in g for s in pull(g)
            ]
        return simplices[face]

    total = Fraction(0)
    for facet in p.facets:
        for simplex in pull(facet.vertex_ids):
            total += abs(_det([p.vertices[i] for i in simplex]))
    if total.denominator != 1:
        raise VerificationError("the normalized volume %s is not an integer" % total)
    return int(total)
