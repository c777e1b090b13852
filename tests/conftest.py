"""Shared corpus and memoized pipelines for the test suite.

CORPUS lists every convenient nondegenerate example exercised by the
property tests, spanning one, two and three variables.  The frozen mu
values come from the n!-volume formula and are re-derived independently
inside the tests (Ehrhart point counts, brute-force quotients).

pipeline(expr) is the package's own `Pipeline` for one expression, kept
for the whole session: a test reads the stages it needs as attributes
(`pipeline(expr).pencil`), and only those stages are built.

dense_rref is a reference dense Gauss-Jordan elimination that shares no
code with the package, so the oracles built on it stay independent of the
package's elimination kernel.  dense_mat_mul is a plain triple loop, and
dense_gauge_residual and dense_build_linear_system are the dense Birkhoff
residual and gauge rows the package computed before it switched to sparse
ones, kept on dense_mat_mul as references for the sparse kernels, as is
dense_semisimple, the semisimplicity product of the spectral test.  The
gauge rows take their unknowns from dense_pattern_slots, the triple loop
over every (k, i, j) that the package replaced by a bisection.
planar_nondegenerate decides nondegeneracy
in two variables from its own convex hull and polynomial gcd, independently
of the package's certificate.  reference_divide and reference_reduce are the
division and lattice reduction the package ran on `LaurentPolynomial`
arithmetic before it moved both onto one dict kernel, kept as references
for that kernel, and reference_spectrum_polynomial is the `pol_mul` product
of SP(S) over Fractions that the integer product replaced.

dense_det is the Leibniz formula, a sum over permutations with no
elimination at all, and caratheodory_vertices finds the vertices of a
point set by Caratheodory's theorem with barycentric coordinates from
dense_rref; both check the polytope's `Echelon`-based volume and hull.
"""

from fractions import Fraction
from itertools import combinations, permutations
from math import floor, gcd

from newton_spectra import (
    BrieskornElement,
    DegeneracySuspectedError,
    LaurentPolynomial,
    Pipeline,
    parse_laurent,
)
from newton_spectra.jacobian import DivisionWitness
from newton_spectra.linalg import pol_mul

# (expression, arity, milnor number)
CORPUS = [
    ("u1 + u1^-1", 1, 2),
    ("u1 + u1^-2", 1, 3),
    ("u1^3 + u1 + u1^-2", 1, 5),
    ("u1 + u2 + u1^-1*u2^-1", 2, 3),
    ("u1^2 + u2 + u1^-1*u2^-1", 2, 5),
    ("u1^2 + u2^2 + u1^-1*u2^-1", 2, 8),
    ("u1^3 + u2^3 + u1^-1*u2^-1", 2, 15),
    ("u1*u2*u3 + u1^-1 + u2^-1 + u3^-1", 3, 4),
    ("u1 + u2 + u3 + u1^-1 + u2^-1 + u3^-1", 3, 8),
]

# Inputs every gate must reject.
NOT_CONVENIENT = ["u1 + u2", "u1 + u1^2", "u1 + u2 + u1*u2"]
DEGENERATE = "u1^2 - 2*u1*u2 + u2^2 + u1^-1*u2^-1"
# (1+u1)(1+u2)*u3 on the square facet: every edge squarefree, the 2-face
# system vanishes at u1 = u2 = -1
SQUARE_FACET = "u3 + u1*u3 + u2*u3 + u1*u2*u3 + u1^-1*u2^-1*u3^-1 + u3^-1"

# inputs of the benchmark ladder outside the corpus, mu 16 to 240
LADDER = (
    "u1^4 + u2^4 + u1^-1*u2^-1",
    "u1^5 + u2^3 + u1^-1*u2^-1",
    "u1^10 + u1^-10",
    "u1^7 + u2^7 + u1^-2*u2^-3",
    "u1^3 + u2^3 + u3^3 + u1^-1*u2^-1*u3^-1",
    "u1^12 + u2^12 + u1^-3*u2^-5",
)

_CACHE = {}


def pipeline(expr):
    """The memoized Pipeline of one expression."""
    if expr not in _CACHE:
        _CACHE[expr] = Pipeline(*parse_laurent(expr))
    return _CACHE[expr]


def dense_rref(a):
    """Reference dense Gauss-Jordan: (rows, pivot columns), zero rows last."""
    rows = [[Fraction(x) for x in row] for row in a]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def dense_rank(a):
    return len(dense_rref(a)[1])


def dense_det(a):
    """Leibniz formula: the sum over permutations of sign times product."""
    n = len(a)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= a[i][j]
        total += term
    return total


def _in_simplex(p, simplex):
    """Whether p lies in the simplex of affinely independent points.

    The barycentric coordinates solve sum l_q q = p, sum l_q = 1; an
    affinely dependent set, or p off its affine span, counts as outside.
    """
    k = len(simplex)
    rows = [[q[c] for q in simplex] + [p[c]] for c in range(len(p))]
    rows.append([1] * (k + 1))
    red, pivots = dense_rref(rows)
    return pivots == list(range(k)) and all(red[r][k] >= 0 for r in range(k))


def caratheodory_vertices(pts):
    """The points of pts (distinct tuples) outside the hull of the others.

    By Caratheodory's theorem a point of the hull of the others lies in the
    simplex of some affinely independent set of at most dim + 1 of them,
    dim being the dimension of the affine span of pts.  The points are
    distinct, so a one-point simplex never holds another point.
    """
    dim = dense_rank([[x - y for x, y in zip(p, pts[0])] for p in pts[1:]])
    out = []
    for i, p in enumerate(pts):
        others = pts[:i] + pts[i + 1:]
        if not any(_in_simplex(p, sub)
                   for k in range(2, dim + 2) for sub in combinations(others, k)):
            out.append(p)
    return out


def planar_hull(pts):
    """Vertices of the convex hull of integer points, counterclockwise."""
    pts = sorted(set(pts))

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    chains = []
    for seq in (pts, pts[::-1]):
        chain = []
        for q in seq:
            while len(chain) >= 2 and cross(chain[-2], chain[-1], q) <= 0:
                chain.pop()
            chain.append(q)
        chains.append(chain[:-1])
    return chains[0] + chains[1]


def _pol_gcd(p, q):
    """gcd of two ascending Fraction coefficient lists (up to a unit)."""
    while q:
        r = list(p)
        while len(r) >= len(q):
            c = r[-1] / q[-1]
            k = len(r) - len(q)
            for i, x in enumerate(q):
                r[k + i] -= c * x
            while r and r[-1] == 0:
                r.pop()
        p, q = q, r
    return p


def edge_polynomials(terms):
    """Coefficient lists of f along each hull edge, in the lattice coordinate.

    terms maps exponent pairs to nonzero Fractions.  The edge from vertex a
    to vertex b carries the points a + k * (b - a) / g, k = 0..g, with g the
    lattice length; the list holds their coefficients in order of k.
    """
    hull = planar_hull([e for e in terms if any(e)])
    out = []
    for a, b in zip(hull, hull[1:] + hull[:1]):
        g = gcd(b[0] - a[0], b[1] - a[1])
        step = ((b[0] - a[0]) // g, (b[1] - a[1]) // g)
        out.append([terms.get((a[0] + k * step[0], a[1] + k * step[1]), Fraction(0))
                    for k in range(g + 1)])
    return out


def planar_nondegenerate(terms):
    """Nondegeneracy of a convenient f in two variables, decided directly.

    Every proper face of a polygon is a vertex or an edge, and vertices
    never fail.  An edge fails exactly when its polynomial has a repeated
    root in C*; its end coefficients are nonzero, so that is a gcd with the
    derivative of positive degree.
    """
    for poly in edge_polynomials(terms):
        deriv = [k * c for k, c in enumerate(poly)][1:]
        if len(_pol_gcd(poly, deriv)) > 1:
            return False
    return True


# ---------------------------------------------------------------------------
# dense references for the sparse Birkhoff kernels


def dense_zeros(m, n):
    return [[Fraction(0)] * n for _ in range(m)]


def dense_mat_mul(a, b):
    """Plain triple-loop matrix product."""
    return [
        [sum((a[i][t] * b[t][j] for t in range(len(b))), Fraction(0))
         for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def dense_semisimple(a, roots):
    """Whether the product of (A - r I) over the roots r vanishes, densely."""
    mu = len(a)
    prod = [[Fraction(int(i == j)) for j in range(mu)] for i in range(mu)]
    for r in roots:
        shifted = [[x - r * (i == j) for j, x in enumerate(row)] for i, row in enumerate(a)]
        prod = dense_mat_mul(prod, shifted)
    return not any(any(row) for row in prod)


def _pm_trim(mats):
    while mats and all(all(x == 0 for x in row) for row in mats[-1]):
        mats = mats[:-1]
    return mats


def _pm_mul(a, b):
    if not a or not b:
        return []
    mu = len(a[0])
    out = [dense_zeros(mu, mu) for _ in range(len(a) + len(b) - 1)]
    for i, ma in enumerate(a):
        for j, mb in enumerate(b):
            prod = dense_mat_mul(ma, mb)
            tgt = out[i + j]
            for r in range(mu):
                for c in range(mu):
                    tgt[r][c] += prod[r][c]
    return _pm_trim(out)


def _pm_sub(a, b):
    n = max(len(a), len(b))
    mu = len((a or b)[0])
    out = []
    for k in range(n):
        ma = a[k] if k < len(a) else dense_zeros(mu, mu)
        mb = b[k] if k < len(b) else dense_zeros(mu, mu)
        out.append([[x - y for x, y in zip(ra, rb)] for ra, rb in zip(ma, mb)])
    return _pm_trim(out)


def _pm_theta2_deriv(a):
    """theta^2 * d/dtheta of a matrix polynomial."""
    res = []
    for k, m in enumerate(a):
        if k == 0:
            continue
        res.append((k, m))
    top = max((k + 1 for k, _ in res), default=-1)
    if top < 0:
        return []
    mu = len(a[0])
    out = [dense_zeros(mu, mu) for _ in range(top + 1)]
    for k, m in res:
        for r in range(mu):
            for c in range(mu):
                out[k + 1][r][c] += k * m[r][c]
    return _pm_trim(out)


def dense_gauge_residual(pencil, gauge, a0, ainf):
    """B P + theta^2 P' - P (A_0 + theta A_inf) as a matrix polynomial."""
    lhs = _pm_mul(list(pencil.matrices), list(gauge))
    lhs = _pm_sub(lhs, [m for m in _pm_mul(list(gauge), _pm_trim([a0, ainf]))])
    der = _pm_theta2_deriv(list(gauge))
    if der:
        lhs = _pm_sub(lhs, [[[-x for x in row] for row in m] for m in der])
    return _pm_trim(lhs)


def dense_pattern_slots(degrees):
    """(k, i, j) triples with k >= 1 and degrees[i] + k <= degrees[j]."""
    slots = []
    mu = len(degrees)
    kmax = int(floor(degrees[-1] - degrees[0]))
    for k in range(1, max(kmax, 0) + 1):
        for i in range(mu):
            for j in range(mu):
                if degrees[i] + k <= degrees[j]:
                    slots.append((k, i, j))
    return slots


def dense_build_linear_system(pencil, ainf, include_m1=True):
    """Dense rows of the linear system in the pattern unknowns, frozen A_inf."""
    degrees = pencil.degrees
    mu = pencil.mu
    bmats = pencil.matrices
    degb = len(bmats) - 1
    slots = dense_pattern_slots(degrees)
    index = {s: t for t, s in enumerate(slots)}
    kmax = max((k for k, _, _ in slots), default=0)
    rows = []
    rhs = []
    labels = []
    mtop = kmax + max(degb, 1)
    for m in range(1, mtop + 1):
        if m == 1 and not include_m1:
            continue
        for i in range(mu):
            for j in range(mu):
                row = [Fraction(0)] * len(slots)
                const = Fraction(0)
                # sum_k B_k P_{m-k}
                for k in range(0, min(m, degb) + 1):
                    l = m - k
                    if l == 0:
                        const += bmats[k][i][j]
                    elif l <= kmax:
                        for r in range(mu):
                            t = index.get((l, r, j))
                            if t is not None and bmats[k][i][r]:
                                row[t] += bmats[k][i][r]
                # + (m-1) P_{m-1}
                if m - 1 >= 1 and m - 1 <= kmax:
                    t = index.get((m - 1, i, j))
                    if t is not None:
                        row[t] += m - 1
                # - P_m B_0
                if m <= kmax:
                    for s in range(mu):
                        t = index.get((m, i, s))
                        if t is not None and bmats[0][s][j]:
                            row[t] -= bmats[0][s][j]
                # - P_{m-1} A_inf
                if m - 1 == 0:
                    const -= ainf[i][j]
                elif m - 1 <= kmax:
                    for s in range(mu):
                        t = index.get((m - 1, i, s))
                        if t is not None and ainf[s][j]:
                            row[t] -= ainf[s][j]
                if any(row) or const:
                    rows.append(row)
                    rhs.append(-const)
                    labels.append((m, i, j))
    return slots, rows, rhs, labels


# ---------------------------------------------------------------------------
# LaurentPolynomial references for the dict division kernel and SP(S)


def reference_divide(algebra, g):
    """Division round by round on LaurentPolynomial arithmetic."""
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


def reference_reduce(lattice, forms):
    """Lattice reduction of {theta power: LaurentPolynomial} on reference_divide."""
    if isinstance(forms, LaurentPolynomial):
        forms = {0: forms}
    n = lattice.algebra.n
    index = {m: i for i, m in enumerate(lattice.basis.monomials)}
    pending = {}
    for k, g in forms.items():
        if not g.is_zero():
            pending[k] = pending.get(k, LaurentPolynomial.zero(n)) + g
    cap = (max(pending) if pending else 0) + n + 2
    coords = [{} for _ in range(lattice.mu)]
    while pending:
        k = min(pending)
        g = pending.pop(k)
        if g.is_zero():
            continue
        w = reference_divide(lattice.algebra, g)
        for e, c in w.a.items():
            slot = coords[index[e]]
            slot[k] = slot.get(k, Fraction(0)) + c
        if not w.deta.is_zero():
            if k + 1 > cap:
                raise DegeneracySuspectedError("theta degree cap exceeded")
            pending[k + 1] = pending.get(k + 1, LaurentPolynomial.zero(n)) + w.deta
    out = []
    for slot in coords:
        if slot:
            top = max(slot)
            out.append(tuple(slot.get(i, Fraction(0)) for i in range(top + 1)))
        else:
            out.append(())
    return BrieskornElement(tuple(out))


def reference_spectrum_polynomial(degrees):
    """prod (S + alpha) over Fraction degrees, one pol_mul per factor."""
    poly = [Fraction(1)]
    for a in degrees:
        poly = pol_mul(poly, [a, Fraction(1)])
    return tuple(poly)
