"""Exact linear algebra over Q (fractions.Fraction), plus small univariate
polynomial helpers used across the package.

Matrices are plain lists of lists of Fraction, vectors are lists of Fraction.
All row elimination over Q goes through one kernel, `Echelon`: sparse dict
rows, the smallest column as pivot, fully reduced, with optional provenance.
`rref`, `rank`, `solve_linear` and `nullspace` are thin dense wrappers around
it for small dense systems.  The package itself does not call
`solve_linear`; it is kept for the tests and the benchmark tracer.  The
Birkhoff gauge system, the polytope's affine span and its simplex
determinants are built as sparse rows and fed to `Echelon` directly.
Everything is deterministic: the reduced row echelon form is unique, and
free variables are always set to zero.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def zeros(m: int, n: int) -> list[list[Fraction]]:
    return [[Fraction(0)] * n for _ in range(m)]


def identity(n: int) -> list[list[Fraction]]:
    a = zeros(n, n)
    for i in range(n):
        a[i][i] = Fraction(1)
    return a


def nonzero_rows(a):
    """The nonzero entries of each row of a matrix, as (column, value) lists."""
    return [[(j, x) for j, x in enumerate(row) if x] for row in a]


def mat_mul(a, b):
    """Matrix product, multiplying only nonzero entries of both factors."""
    brows = nonzero_rows(b)
    out = zeros(len(a), len(b[0]))
    for arow, oi in zip(nonzero_rows(a), out):
        for t, c in arow:
            for j, x in brows[t]:
                oi[j] += c * x
    return out


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_eq(a, b) -> bool:
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


def trace(a) -> Fraction:
    return sum((a[i][i] for i in range(len(a))), Fraction(0))


class Echelon:
    """Sparse, fully reduced row echelon form over Q, grown one row at a time.

    A row is a dict column -> Fraction without zero entries, and its pivot is
    its smallest column.  Every stored row has coefficient 1 in its pivot and
    0 in every other stored row's pivot, so the stored rows are the reduced
    row echelon form of the span of the rows inserted so far, which is
    unique.  A row inserted with a label carries a provenance dict label ->
    Fraction naming the combination of labelled inserted rows it equals.
    Rows that reduce to zero are dropped, so provenance depends on the order
    of insertion as well as on the rows.
    """

    def __init__(self):
        self.rows = {}      # pivot -> (row, provenance)

    def reduce(self, vec):
        """Split vec as residual + sum of combination[label] * inserted row.

        Returns (residual, combination).  The residual is zero in every pivot
        column; the combination is over the labelled rows.  Stored rows are
        zero in each other's pivots, so the coefficient of each pivot row is
        vec's own entry there and the order of the subtractions is immaterial.
        """
        vec = {k: v for k, v in vec.items() if v}
        combo = {}
        for p in [k for k in vec if k in self.rows]:
            c = vec[p]
            row, prov = self.rows[p]
            _axpy(vec, -c, row)
            _axpy(combo, c, prov)
        return vec, combo

    def insert(self, vec, label=None):
        """Reduce vec and store what is left, if anything."""
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
                _axpy(row, -c, vec)
                _axpy(rprov, -c, prov)
        self.rows[p] = (vec, prov)


def _axpy(y, c, x):
    """y += c * x on sparse dicts, dropping entries that cancel."""
    for k, v in x.items():
        s = y.get(k)
        s = c * v if s is None else s + c * v
        if s:
            y[k] = s
        else:
            del y[k]


def _echelon(a) -> Echelon:
    ech = Echelon()
    for row in a:
        ech.insert({j: frac(x) for j, x in enumerate(row) if x})
    return ech


def rref(a):
    """Reduced row echelon form. Returns (rows, pivot_columns).

    Does not mutate the input.  The nonzero rows come first in pivot order,
    followed by one zero row for each dependent input row.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    rows = _echelon(a).rows
    pivots = sorted(rows)
    out = []
    for p in pivots:
        row = rows[p][0]
        out.append([row.get(j, Fraction(0)) for j in range(n)])
    out += [[Fraction(0)] * n for _ in range(m - len(pivots))]
    return out, pivots


def rank(a) -> int:
    return len(_echelon(a).rows)


def solve_linear(a, b):
    """One solution x of A x = b with all free variables zero, or None."""
    m = len(a)
    n = len(a[0]) if m else 0
    rows = _echelon([list(a[i]) + [b[i]] for i in range(m)]).rows
    if n in rows:
        return None
    x = [Fraction(0)] * n
    for p, (row, _) in rows.items():
        x[p] = row.get(n, Fraction(0))
    return x


def nullspace(a):
    """Basis of the kernel of A, one vector per free column (that column = 1)."""
    m = len(a)
    n = len(a[0]) if m else 0
    rows = _echelon(a).rows
    basis = {}
    for c in range(n):
        if c not in rows:
            basis[c] = [Fraction(0)] * n
            basis[c][c] = Fraction(1)
    for p, (row, _) in rows.items():
        for c, x in row.items():
            if c != p:
                basis[c][p] = -x
    return list(basis.values())


def charpoly(a):
    """Characteristic polynomial det(S*I - A), coefficients ascending in S.

    Faddeev-LeVerrier; exact over Fraction.
    """
    n = len(a)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    m = identity(n)
    for k in range(1, n + 1):
        m = mat_mul(a, m)
        c = -trace(m) / k
        coeffs[n - k] = c
        for i in range(n):
            m[i][i] += c
    return coeffs


# ---------------------------------------------------------------------------
# univariate polynomials over Q, dense ascending coefficient lists


def pol_trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def pol_add(p, q):
    n = max(len(p), len(q))
    out = [Fraction(0)] * n
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return pol_trim(out)


def pol_sub(p, q):
    return pol_add(p, [-c for c in q])


def pol_mul(p, q):
    p, q = pol_trim(p), pol_trim(q)
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                if b:
                    out[i + j] += a * b
    return pol_trim(out)


def pol_shift(p, k: int):
    """Multiply by S^k (k >= 0)."""
    p = pol_trim(p)
    if not p:
        return []
    return [Fraction(0)] * k + list(p)


def pol_deriv(p):
    return pol_trim([i * c for i, c in enumerate(p)][1:])


def pol_eval(p, x):
    x = frac(x)
    acc = Fraction(0)
    for c in reversed(pol_trim(p)):
        acc = acc * x + c
    return acc


def pol_divmod(p, q):
    p, q = list(pol_trim(p)), pol_trim(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    dq = len(q) - 1
    lead = q[-1]
    quot = [Fraction(0)] * max(0, len(p) - dq)
    while len(p) - 1 >= dq and p:
        c = p[-1] / lead
        k = len(p) - 1 - dq
        quot[k] = c
        for i in range(len(q)):
            p[k + i] -= c * q[i]
        p = pol_trim(p)
    return pol_trim(quot), p


def rational_roots(p):
    """All rational roots with multiplicity.

    Returns (roots, remainder) where roots is a sorted list of (root, mult)
    and remainder is the (rational-root-free) cofactor, ascending coeffs.
    """
    p = pol_trim(p)
    if not p:
        raise ValueError("zero polynomial")
    # strip S^v
    v = 0
    while p[0] == 0:
        p = p[1:]
        v += 1
    den = 1
    for c in p:
        den = den * c.denominator // gcd(den, c.denominator)
    ip = [int(c * den) for c in p]
    roots = {}
    if v:
        roots[Fraction(0)] = v
    def divisors(k):
        k = abs(k)
        out = []
        d = 1
        while d * d <= k:
            if k % d == 0:
                out.append(d)
                out.append(k // d)
            d += 1
        return sorted(set(out))
    changed = True
    while changed and len(p) > 1:
        changed = False
        a0, an = ip[0], ip[-1]
        if a0 == 0:  # can only happen through exact cancellation; re-strip
            p = pol_trim(p)
            while p and p[0] == 0:
                p = p[1:]
                roots[Fraction(0)] = roots.get(Fraction(0), 0) + 1
            ip = [int(c * den) for c in p]
            continue
        cands = []
        for num in divisors(a0):
            for d in divisors(an):
                cands.append(Fraction(num, d))
                cands.append(Fraction(-num, d))
        for r in sorted(set(cands)):
            if pol_eval(p, r) == 0:
                p, rem = pol_divmod(p, [-r, Fraction(1)])
                if rem:
                    raise ValueError("division by a found root left a remainder")
                roots[r] = roots.get(r, 0) + 1
                den = 1
                for c in p:
                    den = den * c.denominator // gcd(den, c.denominator)
                ip = [int(c * den) for c in p]
                changed = True
                break
    return sorted(roots.items()), p
