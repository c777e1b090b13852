"""Shared corpus and memoized pipelines for the test suite.

CORPUS lists every convenient nondegenerate example exercised by the
property tests, spanning one, two and three variables.  The frozen mu
values come from the n!-volume formula and are re-derived independently
inside the tests (Ehrhart point counts, brute-force quotients).

pipeline(expr) is the package's own `Pipeline` for one expression, kept
for the whole session: a test reads the stages it needs as attributes
(`pipeline(expr).pencil`), and only those stages are built.  recipe_draws
gives the seeded random inputs of ROADMAP item 1's recipe.

The package keeps a matrix as sparse rows, row i a dict column -> nonzero
entry; sparse and dense convert a dense list of lists to that format and
back, so a test can state a matrix densely.

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
for that kernel, and reference_spectrum_polynomial is the product of SP(S)
over Fractions, one dense pol_mul per factor, that the integer product
replaced.  The two
references now check the rewrite rules and the lattice's memoized normal forms
that replaced the dict kernel in turn.  reference_divide scales each
cofactor by L = algebra.deriv_den, since the level echelons hold the
leading forms of L xi_i(f), so it also holds for rational coefficients.

dense_det is the Leibniz formula, a sum over permutations with no
elimination at all; it checks the polytope's fraction-free determinant.

ReferenceEchelon is the `Fraction` row echelon the package ran before its
kernel moved to integer rows, kept as the reference for that kernel.
reference_spectrum, reference_euler_field and reference_verify_v_plus are
the spectrum, the Euler field and the spectral test as they ran on
`Fraction` degrees before those moved onto the integer orders and scaled
degrees; reference_verify_v_plus with structural_rule=False sends every
A_inf through the characteristic polynomial instead of reading a
structural one's eigenvalues off its diagonal.  Its divisor search,
_split_over, divides that polynomial by S - r for each candidate r; the
package now reads each candidate's multiplicity off ranks of powers of
A_inf - r I instead.  reference_graded_model is
the graded model as it ran before it read F'^k off the one echelon of
`_fprime_rows`: N rebuilt per class from every B_k, and one echelon per
class that takes the F'^k bases (from `opposite_filtration`) for k
descending, so its verdicts do not rest on how those bases are listed.
reference_enumerate_sublevel is the box scan and reference_hull_halfspaces
the per-subset nullspace hull (here on dense_rref) that the pruned
enumeration and the integer minors replaced.  reference_vertex_ids and
reference_face_dim are the rank tests (here on dense_rank) that the set
intersections and the graded face lattice replaced: a point is a vertex when
the normals of the facets through it span everything, and a face has the
rank of its vertices' differences as its dimension.
reference_level_echelon is a level echelon as `JacobianAlgebra.solver`
built it before it stopped at a full level: from every row.
"""

import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import ceil, floor, gcd, lcm
from operator import mul

from newton_spectra import (
    BrieskornElement,
    DegeneracySuspectedError,
    LaurentPolynomial,
    NotConvenientError,
    Pipeline,
    parse_laurent,
)
from newton_spectra.birkhoff import (
    _class_table,
    _product_vanishes,
    _scaled,
    opposite_filtration,
)
from newton_spectra.brieskorn import SpectrumData, _spectrum_polynomial, integer_orders
from newton_spectra.errors import GradedModelError, VerificationError
from newton_spectra.frobenius import FrobeniusInitialData, _euler_term_text, canonical_primitive
from newton_spectra.jacobian import DivisionWitness
from newton_spectra.linalg import Echelon, charpoly, dense_strings, pol_divmod

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

# the one pinned input whose `birkhoff` verdicts are all false (mu = 42)
NEGATIVE = ("3*u1^-3*u2^-3 - 2*u1^-3*u2^3 + 2*u1^-1*u2^-3 + 3*u1^-1*u2^-2"
            " - u1 + u1^3*u2^-3")

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


def recipe_draws(count, max_mu=15):
    """The first `count` accepted draws of ROADMAP item 1's recipe from
    random.Random(11), as expressions: n from {1, 2, 2, 2}, 3-6 exponents
    in [-3, 3]^n without the origin, coefficients from {-2, -1, 1, 2, 3};
    a draw is accepted when it is convenient and nondegenerate with
    mu <= max_mu."""
    rng = random.Random(11)
    out = []
    while len(out) < count:
        n = rng.choice([1, 2, 2, 2])
        size = rng.randint(3, 6)
        exps = set()
        while len(exps) < size:
            e = tuple(rng.randint(-3, 3) for _ in range(n))
            if any(e):
                exps.add(e)
        f = LaurentPolynomial(n, {e: rng.choice([-2, -1, 1, 2, 3]) for e in sorted(exps)})
        data = Pipeline(f, ["u%d" % (i + 1) for i in range(n)])
        try:
            if data.mu <= max_mu and data.certificate.ok:
                out.append(f.format())
        except (NotConvenientError, DegeneracySuspectedError):
            pass
    return out


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
# the package's sparse rows and dense matrices


def sparse(a):
    """A dense matrix (list of lists) as sparse rows: column -> nonzero entry."""
    return [{j: x for j, x in enumerate(row) if x} for row in a]


def dense(a, n=None):
    """Sparse rows as a dense list of lists of Fractions with n columns
    (by default as many as rows)."""
    n = len(a) if n is None else n
    return [[Fraction(row.get(j, 0)) for j in range(n)] for row in a]


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
    """B P + theta^2 P' - P (A_0 + theta A_inf) as a matrix polynomial.

    The gauge and A_0, A_inf are dense; the pencil's rows are made dense.
    """
    lhs = _pm_mul([dense(m) for m in pencil.matrices], list(gauge))
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
    """Dense rows of the linear system in the pattern unknowns, frozen dense A_inf."""
    degrees = pencil.degrees
    mu = pencil.mu
    bmats = [dense(m) for m in pencil.matrices]
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
        # the level echelons hold the leading forms of L xi_i(f), L =
        # algebra.deriv_den, so label (i, m) stands for L u^m xi_i(f)
        for (i, m), c in sorted(combo.items()):
            mono = LaurentPolynomial.monomial(m, c * algebra.deriv_den)
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
    coords = {}
    while pending:
        k = min(pending)
        g = pending.pop(k)
        if g.is_zero():
            continue
        w = reference_divide(lattice.algebra, g)
        for e, c in w.a.items():
            coords[k, index[e]] = coords.get((k, index[e]), Fraction(0)) + c
        if not w.deta.is_zero():
            if k + 1 > cap:
                raise DegeneracySuspectedError("theta degree cap exceeded")
            pending[k + 1] = pending.get(k + 1, LaurentPolynomial.zero(n)) + w.deta
    return BrieskornElement({key: c for key, c in coords.items() if c})


def pol_mul(p, q):
    """The product of two ascending Fraction coefficient lists, both nonzero."""
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def reference_spectrum_polynomial(degrees):
    """prod (S + alpha) over Fraction degrees, one pol_mul per factor."""
    poly = [Fraction(1)]
    for a in degrees:
        poly = pol_mul(poly, [a, Fraction(1)])
    return tuple(poly)


class ReferenceEchelon:
    """The Fraction row echelon: rows[pivot] = (row, provenance), fully reduced."""

    def __init__(self):
        self.rows = {}

    def reduce(self, vec):
        vec = {k: Fraction(v) for k, v in vec.items() if v}
        combo = {}
        for p in [k for k in vec if k in self.rows]:
            c = vec[p]
            row, prov = self.rows[p]
            _fraction_axpy(vec, -c, row)
            _fraction_axpy(combo, c, prov)
        return vec, combo

    def insert(self, vec, label=None):
        vec, combo = self.reduce(vec)
        if not vec:
            return
        prov = {k: -v for k, v in combo.items()}
        if label is not None:
            prov[label] = prov.get(label, 0) + 1
        p = min(vec)
        lead = vec[p]
        vec = {k: v / lead for k, v in vec.items()}
        prov = {k: v / lead for k, v in prov.items()}
        for row, rprov in self.rows.values():
            c = row.get(p)
            if c:
                _fraction_axpy(row, -c, vec)
                _fraction_axpy(rprov, -c, prov)
        self.rows[p] = (vec, prov)


def _fraction_axpy(y, c, x):
    for k, v in x.items():
        s = y.get(k)
        s = c * v if s is None else s + c * v
        if s:
            y[k] = s
        else:
            del y[k]


def reference_level_echelon(algebra, r):
    """The level-r echelon built from every row u^m lead(L xi_i(f)), m at
    level r - scale, inserted in (i, m) order."""
    algebra.level_monomials(r)
    index = algebra._index.get(r, {})
    ech = Echelon()
    for i in range(algebra.n):
        for m in algebra.level_monomials(r - algebra.d):
            vec = {}
            for k, b in algebra.leading[i].items():
                j = index.get(tuple(a + t for a, t in zip(m, k)))
                if j is not None:
                    vec[j] = vec.get(j, 0) + b
            ech.insert(vec, (i, m))
    return ech


def reference_enumerate_sublevel(p, alpha):
    """Lattice points with phi <= alpha: every point of the dilated box, tested."""
    alpha = Fraction(alpha)
    if alpha < 0:
        return []
    ranges = []
    for j in range(p.arity):
        lo = min(v[j] for v in p.vertices) * alpha
        hi = max(v[j] for v in p.vertices) * alpha
        ranges.append(range(ceil(lo), floor(hi) + 1))
    # a.e is an integer, so a.e <= alpha * b exactly when a.e <= floor(alpha * b)
    bounds = [(normal, floor(alpha * b)) for normal, b in p.halfspaces]
    out = [
        e for e in product(*ranges)
        if all(sum(map(mul, normal, e)) <= b for normal, b in bounds)
    ]
    out.sort(key=lambda e: (sum(e), e))
    return out


def reference_hull_halfspaces(pts, n):
    """Facet halfspaces (primitive a, a.x <= b) from one kernel per n-subset."""
    if n == 1:
        vals = [q[0] for q in pts]
        return [((1,), max(vals)), ((-1,), -min(vals))]
    found = {}
    for sub in combinations(range(len(pts)), n):
        base = pts[sub[0]]
        rows, pivots = dense_rref([[pts[j][c] - base[c] for c in range(n)] for j in sub[1:]])
        free = [c for c in range(n) if c not in pivots]
        if len(free) != 1:
            continue  # affinely dependent subset
        kernel = [Fraction(0)] * n
        kernel[free[0]] = Fraction(1)
        for row, c in zip(rows, pivots):
            kernel[c] = -row[free[0]]
        den = lcm(*(x.denominator for x in kernel))
        a = [int(x * den) for x in kernel]
        g = gcd(*a)
        a = tuple(x // g for x in a)
        b = sum(x * y for x, y in zip(a, base))
        vals = [sum(x * y for x, y in zip(a, q)) - b for q in pts]
        if all(v <= 0 for v in vals):
            pass
        elif all(v >= 0 for v in vals):
            a = tuple(-x for x in a)
            b = -b
        else:
            continue
        found[(a, b)] = True
    return sorted(found)


def reference_vertex_ids(pts, halfspaces):
    """Indices of the points whose active facet normals have rank n."""
    n = len(pts[0])
    out = []
    for i, q in enumerate(pts):
        active = [a for a, b in halfspaces if sum(map(mul, a, q)) == b]
        if len(active) >= n and dense_rank(active) == n:
            out.append(i)
    return out


def reference_face_dim(p, vertex_ids):
    """Rank of the differences of a face's vertices to its first one."""
    vs = [p.vertices[i] for i in vertex_ids]
    return dense_rank([[x - y for x, y in zip(v, vs[0])] for v in vs[1:]]) if vs[1:] else 0


def reference_spectrum(algebra):
    """`brieskorn.spectrum` on Fraction degrees."""
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
        base = "S" if a == 0 else "(S+%s)" % a
        factors.append(base if m == 1 else "%s^%d" % (base, m))
    half = Fraction(n, 2)
    lhs = sum(((a - half) ** 2 * m for a, m in pairs), Fraction(0)) / mu
    return SpectrumData(pairs=pairs, poly=poly, factored="*".join(factors),
                        variance_lhs=lhs, variance_rhs=Fraction(n, 12))


def reference_euler_field(algebra, pencil, solution, spectrum_data):
    """`frobenius.euler_field` on Fraction degrees."""
    primitive_index, alpha_min = canonical_primitive(algebra, spectrum_data)
    degrees = pencil.degrees
    n = algebra.f.arity
    a0 = pencil.matrices[0]
    if solution is not None:
        if not all(
            m[i].get(0, 0) == (1 if (i, k) == (0, 0) else 0)
            for k, m in enumerate(solution.gauge)
            for i in range(len(degrees))
        ):
            raise VerificationError("gauge moved the primitive element")
        a0 = solution.a0
    c = tuple(row.get(0, Fraction(0)) for row in a0)
    parts = []
    for k, (lin, const) in enumerate((1 + alpha_min - a, ck) for a, ck in zip(degrees, c)):
        if lin == 0 and const == 0:
            continue
        sign, body = _euler_term_text(k, lin, const)
        if not parts:
            parts.append(body if sign > 0 else "-" + body)
        else:
            parts.append((" + " if sign > 0 else " - ") + body)
    return FrobeniusInitialData(
        primitive_index=primitive_index, alpha_min=alpha_min, exponents=tuple(degrees),
        c=c, charge=Fraction(2 * alpha_min + 2 - n), euler_text="".join(parts) if parts else "0",
        normalized=solution is not None,
    )


def _split_over(cp, candidates):
    """Roots of the polynomial cp among the candidates, with multiplicity.

    Divides cp by (S - r) for each distinct candidate r while the division
    remainder is zero; a linear cofactor left over yields its one rational
    root directly.  Returns (sorted (root, mult) pairs, cofactor); the
    cofactor is a constant when cp splits, and has degree >= 2 otherwise.
    """
    roots = {}
    for r in sorted(set(candidates)):
        while len(cp) > 1:
            quot, rem = pol_divmod(cp, [-r, Fraction(1)])
            if rem:
                break
            cp = quot
            roots[r] = roots.get(r, 0) + 1
    if len(cp) == 2:
        r = -cp[0] / cp[1]
        roots[r] = roots.get(r, 0) + 1
        cp = [cp[1]]
    return sorted(roots.items()), cp


def reference_verify_v_plus(ainf, degrees, spectrum_pairs, structural_rule=True):
    """`birkhoff.verify_v_plus` on Fraction degrees and eigenvalues."""
    mu = len(degrees)
    detail = {}
    _, orders = integer_orders(degrees)
    diagonal = [ainf[i].get(i, Fraction(0)) for i in range(mu)]
    structural = diagonal == list(degrees) and all(
        j == i or orders[i] < orders[j] for i, arow in enumerate(ainf) for j in arow
    )
    detail["structure"] = structural
    candidates = list(diagonal)
    for a, _ in spectrum_pairs:
        candidates += [a, -a]
    if structural and structural_rule:
        mult = {}
        for x in diagonal:
            mult[x] = mult.get(x, 0) + 1
        roots, cofactor = sorted(mult.items()), [Fraction(1)]
    else:
        roots, cofactor = _split_over(charpoly(ainf), candidates)
    if len(cofactor) > 1:
        detail["eigenvalues"] = None
        detail["semisimple"] = False
        detail["spectral_match"] = False
        detail["note"] = (
            "characteristic polynomial does not split over the candidate "
            "eigenvalues (diagonal of A_inf and +-spectrum)"
        )
        return False, detail
    detail["eigenvalues"] = [(str(r), m) for r, m in roots]
    _, (scaled, droots) = _scaled([ainf, [{0: rt} for rt, _ in roots]])
    semisimple = _product_vanishes(scaled, [row[0] for row in droots])
    detail["semisimple"] = semisimple
    want, got = {}, {}
    for pairs, out in ((spectrum_pairs, want), (roots, got)):
        for x, m in pairs:
            q = abs(x.numerator), x.denominator
            out[q] = out.get(q, 0) + m
    match = want == got
    detail["spectral_match"] = match
    return structural and semisimple and match, detail


def reference_graded_model(pencil, gauge):
    """`birkhoff.graded_model` with N rebuilt per class and one echelon per class."""
    degrees = pencil.degrees
    den, orders = pencil.den, pencil.orders
    table = _class_table(pencil)
    fprime = opposite_filtration(pencil, gauge)
    nmats = []
    for res, idx, _ in table:
        dim = len(idx)
        pos = {i: t for t, i in enumerate(idx)}
        acc = [{t: degrees[i]} for t, i in enumerate(idx)]
        for tj, j in enumerate(idx):
            for k, bmat in enumerate(pencil.matrices):
                for i, x in bmat[j].items():
                    ti = pos.get(i)
                    if ti is not None and (orders[i] - orders[j]) // den + 1 == k:
                        acc[tj][ti] = acc[tj].get(ti, 0) - x
        nmat = [{c: x for c, x in row.items() if x} for row in acc]
        scaled = _scaled([nmat])[1][0]
        if not _product_vanishes(scaled, [0] * dim):
            rho = Fraction(res, den)
            raise GradedModelError("N is not nilpotent on residue class %s" % rho, rho)
        span = Echelon()
        for row in scaled:
            span.insert(row)
        nmats.append((nmat, len(span)))
    all_ok_opposite = all_ok_b = True
    out = []
    for (res, idx, kmax), (nmat, n_rank) in zip(table, nmats):
        dim = len(idx)
        fpr = fprime[Fraction(res, den)]
        hodge = {k: sum(1 for i in idx if orders[i] <= res + k * den)
                 for k in range(-1, kmax + 2)}
        ech = Echelon()
        opp = bgood = True
        for k in range(kmax + 1, -1, -1):
            if k <= kmax:
                for v in fpr[k]:
                    img = {-r: x for r in range(dim)
                           if (x := sum((nmat[r].get(c, 0) * v[c] for c in range(dim)),
                                        Fraction(0)))}
                    if img and ech.reduce(img)[0]:
                        bgood = False
            for v in fpr[k]:
                ech.insert({-c: x for c, x in enumerate(v) if x})
            low = sum(1 for p in ech.pivots if -p < hodge[k - 1])
            meet = sum(1 for p in ech.pivots if -p < hodge[k])
            if low or meet != hodge[k] - hodge[k - 1]:
                opp = False
        out.append({
            "residue": str(Fraction(res, den)),
            "indices": idx,
            "n_matrix": dense_strings(nmat, dim),
            "n_rank": n_rank,
            "hodge_dims": [hodge[k] for k in range(0, kmax + 1)],
            "opposite_dims": [len(fpr[k]) for k in range(0, kmax + 1)],
            "opposite": opp,
            "b_opposed": bgood,
        })
        all_ok_opposite = all_ok_opposite and opp
        all_ok_b = all_ok_b and bgood
    return {"opposite": all_ok_opposite, "b_opposed": all_ok_b, "classes": out}
