"""Exact linear algebra over Q, plus the univariate polynomial helpers of the
rational root search.

A matrix is a list of sparse rows, row i a dict column -> nonzero value
(int or Fraction); a row never stores a zero, so its entries are the
matrix's nonzero entries.  The connection pencil, the Birkhoff gauge and
normal form and the graded model's N all use this format; `identity`,
`sparse_mul` and `trace` act on it, and `dense_strings` writes one as the
dense string rows of the JSON report.  All row elimination over Q goes
through one kernel, `Echelon`: sparse dict rows, the smallest column as
pivot, fully reduced, with optional provenance.  It stores every row as
integer numerators over one denominator, so an integer system is eliminated
on integers.  `rref`, `rank`, `solve_linear` and `nullspace` are thin
wrappers around it for small dense (list of lists) systems, and pass int
entries through.  Of these the package calls none; they are kept for the
tests and the benchmark tracer.
Everything is deterministic: the reduced row echelon form is unique, and
free variables are always set to zero.

`charpoly` and the helpers on dense ascending coefficient lists,
`pol_trim`, `pol_eval`, `pol_divmod` and `rational_roots`, are likewise
kept for the tests and the tracer only.  Lattice elements, polynomials in
theta, are sparse like the matrices (see `brieskorn`).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def identity(n: int):
    """The n x n identity as sparse rows."""
    return [{i: 1} for i in range(n)]


def sparse_mul(a, b):
    """The product of two matrices given as sparse rows, as sparse rows."""
    out = []
    for arow in a:
        acc = {}
        for t, c in arow.items():
            for j, x in b[t].items():
                acc[j] = acc.get(j, 0) + c * x
        out.append({j: x for j, x in acc.items() if x})
    return out


def trace(a):
    return sum((row.get(i, 0) for i, row in enumerate(a)), Fraction(0))


def dense_strings(a, n: int):
    """Sparse rows as rows of n strings: str of each stored entry, "0" elsewhere."""
    out = []
    for row in a:
        line = ["0"] * n
        for j, x in row.items():
            line[j] = str(x)
        out.append(line)
    return out


class Echelon:
    """Sparse, fully reduced row echelon form over Q, grown one row at a time.

    The pivot of a row is its smallest column.  Every stored row has
    coefficient 1 in its pivot and 0 in every other stored row's pivot, so
    the stored rows are the reduced row echelon form of the span of the rows
    inserted so far, which is unique.  A row inserted with a label carries a
    provenance, label -> coefficient, naming the combination of labelled
    inserted rows it equals.  Rows that reduce to zero are dropped, so
    provenance depends on the order of insertion as well as on the rows.

    The arithmetic is on integers.  A stored row and its provenance are dicts
    of integer numerators over one positive denominator, divided by their
    content gcd, with numerator == denominator in the pivot.  An input vector
    (int or Fraction values) is scaled to integers once and reduced with
    integer multipliers over the lcm of the denominators of the rows it
    meets.  A column index (column -> pivots of the stored rows nonzero
    there) names the rows a new pivot is back-substituted into, so a row
    that meets no stored pivot, at a pivot no stored row holds, is stored
    as it is, with nothing reduced or back-substituted.  Only
    `reduce` and `row` build Fractions, for their callers; `integer_row`
    hands out a stored row as it is.
    """

    def __init__(self):
        self._rows = {}     # pivot -> (numerators, provenance numerators, denominator)
        self._cols = {}     # column -> pivots of the other rows nonzero there

    def __len__(self):
        return len(self._rows)

    def __contains__(self, p):
        return p in self._rows

    @property
    def pivots(self):
        """The pivot columns, in insertion order."""
        return self._rows.keys()

    def row(self, p):
        """The stored row with pivot p, as a dict column -> Fraction."""
        num, _, den = self._rows[p]
        return _fractions(num, den)

    def integer_row(self, p):
        """The stored row with pivot p as (numerators, provenance numerators,
        den): dicts of ints over the positive int den, with num[p] == den.
        The dicts are the stored ones and must not be changed."""
        return self._rows[p]

    def _split(self, vec):
        """(w, d, hits, m): vec minus its pivot-row parts is w / d, w integral.

        hits lists (pivot, numerator of vec there), and the row of each hit
        pivot p was subtracted with the multiplier numerator * m // den(p).
        """
        w, den = _numerators(vec)
        rows = self._rows
        hits = [(p, c) for p, c in w.items() if p in rows]
        if not hits:
            return w, den, hits, 1
        m = lcm(*(rows[p][2] for p, _ in hits))
        if m != 1:
            w = {k: v * m for k, v in w.items()}
            den *= m
        for p, c in hits:
            num, _, d = rows[p]
            _axpy(w, -c * (m // d), num)
        return w, den, hits, m

    def _combination(self, hits, m):
        """Numerators, over the denominator `_split` returned, of the labels."""
        combo = {}
        rows = self._rows
        for p, c in hits:
            _, prov, d = rows[p]
            if prov:
                _axpy(combo, c * (m // d), prov)
        return combo

    def integer_reduce(self, vec):
        """`reduce` on numerators: (residual, combination, den), two dicts
        of integer numerators over the positive int den.

        den is the lcm of the denominators of vec times the lcm of the
        denominators of the stored rows vec meets, so an integer vec met by
        integer rows gives den = 1.
        """
        w, den, hits, m = self._split(vec)
        return w, self._combination(hits, m), den

    def reduce(self, vec):
        """Split vec as residual + sum of combination[label] * inserted row.

        Returns (residual, combination), two dicts of Fractions.  The residual
        is zero in every pivot column; the combination is over the labelled
        rows.  Stored rows are zero in each other's pivots, so the coefficient
        of each pivot row is vec's own entry there and the order of the
        subtractions is immaterial.
        """
        w, combo, den = self.integer_reduce(vec)
        return _fractions(w, den), _fractions(combo, den)

    def insert(self, vec, label=None):
        """Reduce vec and store what is left, if anything."""
        w, den, hits, m = self._split(vec)
        if not w:
            return
        # w / den = vec - combination; scaled so the pivot entry is positive,
        # w and label - combination share the denominator w[p]
        p = min(w)
        sign = 1 if w[p] > 0 else -1
        prov = {k: -sign * v for k, v in self._combination(hits, m).items()} if hits else {}
        if label is not None:
            prov[label] = prov.get(label, 0) + sign * den
        if sign < 0:
            w = {k: -v for k, v in w.items()}
        w, prov, lead = _primitive(w, prov, w[p])
        rows = self._rows
        cols = self._cols
        for q in cols.pop(p, ()):
            num, qprov, d = rows[q]
            c = num[p]
            g = gcd(c, lead)
            a, b = lead // g, c // g
            if a != 1:
                num = {k: v * a for k, v in num.items()}
                qprov = {k: v * a for k, v in qprov.items()}
                d *= a
            for k, v in w.items():
                s = num.get(k)
                t = b * v
                if s is None:
                    num[k] = -t
                    cols.setdefault(k, set()).add(q)
                elif s != t:
                    num[k] = s - t
                else:
                    del num[k]
                    if k != p:
                        cols[k].discard(q)
            _axpy(qprov, -b, prov)
            rows[q] = _primitive(num, qprov, d)
        for k in w:
            if k != p:
                cols.setdefault(k, set()).add(p)
        rows[p] = (w, prov, lead)


def _primitive(num, prov, den):
    """(num, prov, den) divided by the gcd of all their entries."""
    if den == 1:
        return num, prov, den
    g = gcd(den, *num.values(), *prov.values())
    if g == 1:
        return num, prov, den
    return ({k: v // g for k, v in num.items()},
            {k: v // g for k, v in prov.items()}, den // g)


_INT = {int}


def _numerators(values):
    """(numerators, den): the nonzero values of a dict as integer numerators
    over den, the least common denominator of the values (ints or Fractions).
    A dict of ints alone is its own numerators over 1."""
    vals = values.values()
    if _INT.issuperset(map(type, vals)):
        return {k: x for k, x in values.items() if x} if 0 in vals else dict(values), 1
    den = lcm(*(x.denominator for x in vals))
    return {k: x.numerator * (den // x.denominator) for k, x in values.items() if x}, den


def _fractions(num, den):
    return {k: Fraction(v, den) for k, v in num.items()}


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
        ech.insert({j: x for j, x in enumerate(row) if x})
    return ech


def rref(a):
    """Reduced row echelon form. Returns (rows, pivot_columns).

    Does not mutate the input.  The nonzero rows come first in pivot order,
    followed by one zero row for each dependent input row.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    ech = _echelon(a)
    pivots = sorted(ech.pivots)
    out = []
    for p in pivots:
        row = ech.row(p)
        out.append([row.get(j, Fraction(0)) for j in range(n)])
    out += [[Fraction(0)] * n for _ in range(m - len(pivots))]
    return out, pivots


def rank(a) -> int:
    return len(_echelon(a))


def solve_linear(a, b):
    """One solution x of A x = b with all free variables zero, or None."""
    m = len(a)
    n = len(a[0]) if m else 0
    ech = _echelon([list(a[i]) + [b[i]] for i in range(m)])
    if n in ech:
        return None
    x = [Fraction(0)] * n
    for p in ech.pivots:
        x[p] = ech.row(p).get(n, Fraction(0))
    return x


def nullspace(a):
    """Basis of the kernel of A, one vector per free column (that column = 1)."""
    m = len(a)
    n = len(a[0]) if m else 0
    ech = _echelon(a)
    basis = {}
    for c in range(n):
        if c not in ech:
            basis[c] = [Fraction(0)] * n
            basis[c][c] = Fraction(1)
    for p in ech.pivots:
        for c, x in ech.row(p).items():
            if c != p:
                basis[c][p] = -x
    return list(basis.values())


def charpoly(a):
    """Characteristic polynomial det(S*I - A), coefficients ascending in S.

    Faddeev-LeVerrier on sparse rows; exact over Fraction.
    """
    n = len(a)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    m = identity(n)
    for k in range(1, n + 1):
        m = sparse_mul(a, m)
        c = -trace(m) / k
        coeffs[n - k] = c
        for i, row in enumerate(m):
            x = row.get(i, 0) + c
            if x:
                row[i] = x
            else:
                row.pop(i, None)
    return coeffs


# ---------------------------------------------------------------------------
# univariate polynomials over Q, dense ascending coefficient lists


def pol_trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def pol_eval(p, x):
    x = Fraction(x)
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
