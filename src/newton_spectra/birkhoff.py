"""Birkhoff-type normal form for the connection pencil.

We look for a gauge P(theta) = I + theta P_1 + ... (entries of P_k allowed
only where deg(row) + k <= deg(column), so P is unipotent and polynomially
invertible) with

    B(theta) P + theta^2 P' = P (A_0 + theta A_inf).

At theta^0 this forces A_0 = B_0.  The primary solver additionally demands
A_inf = diag(basis degrees), which makes the whole system linear in the P_k.
A pencil that already reads B_0 + theta diag(basis degrees) gives that
system a zero right-hand side, so its solution is P = I and no system is
built.  Otherwise the system is built once and settled by substitution
first (`_settle`): an equation holding exactly one unsettled unknown fixes
it, until no such equation is left.  When every unknown is settled, the
settling equations form a square triangular system with a nonzero
diagonal, so the system has at most one solution, and the settled values
are it once every equation that a nonzero right-hand side or a nonzero
unknown reaches holds.  Only when an unknown is left unsettled or an
equation fails do the same rows go to one exact elimination
(`_solve_system`), which also gives the ranks and culprits of an
obstruction record.  When the system is infeasible a bounded fixed-point
sweep is tried where A_inf is frozen per sweep and recomputed as
B_1 + [B_0, P_1], which is A_inf plus the theta^1 coefficient of the exact
gauge residual.  A sweep result whose A_inf still couples distinct degrees
is post-composed with a constant base change (entries allowed where
deg(row) < deg(column), so it is still filtration-compatible) that
block-diagonalizes A_inf; the coupling blocks have disjoint spectra, so
that Sylvester-type system is uniquely solvable.  Every candidate must
pass an exact residual check before being accepted; otherwise a structured
obstruction record is returned.  The pencil, the gauge, A_0 and A_inf are
all matrices of sparse rows (see `linalg`), and every product and check
here touches their nonzero entries only.

The module also carries the V-filtration side: the direct-sum test for a
solution basis, read off the pivot orders of one echelon of the gauge
columns (`verify_v_solution`), the spectral test on A_inf, and the graded
model (Hodge-type filtration, its opposite, and the nilpotent N).
The filtration checks keep sparse echelons whose columns are ordered by
Newton order, so they also apply to bases without the triangular pattern.
The opposite filtration needs no window of theta shifts: the shifts that
can change it end at a cutoff read off the gauge (`opposite_filtration`).

Order arithmetic runs on integers.  The pencil carries den, the least
common denominator of the basis degrees, and the orders o_i = den * alpha_i
as ints (`ConnectionPencil`), so the Newton order s + alpha_i of the slot
theta^s e_i is (den * s + o_i) / den, and every comparison, floor and class
residue of orders is one on integers: the normal-pencil test, the pivot
orders of the direct-sum test, the structural test and the eigenvalue
count of the spectral test, and the classes, N and Hodge dimensions of the graded model.  The products
and echelons that only decide a verdict run on integers as well, scaled by
a common denominator D:
 * D A - D r I = D (A - r I), so a product of such factors vanishes
   exactly when the unscaled product does (semisimplicity of A_inf), and
   a power of one has the rank of the unscaled power (the multiplicity of
   r as an eigenvalue);
 * (D N)^k = D^k N^k, so D N is nilpotent iff N is;
 * an equation times D has the same solutions, so the gauge systems are
   built as int rows times D, with the solution, ranks and culprits of the
   unscaled system;
 * scaling a vector by a nonzero number changes neither the span of an
   `Echelon`, nor its pivots, nor whether the vector lies in a span, so the
   filtration echelons and the (B) test take integer numerators.
Reported values stay Fractions.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .brieskorn import ConnectionPencil, integer_orders
from .errors import GradedModelError, VerificationError
from .linalg import Echelon, _axpy, dense_strings, identity, sparse_mul, trace


# ---------------------------------------------------------------------------
# polynomial matrices: lists of sparse-row matrices (see `linalg`),
# ascending theta degree


def _empty(mu):
    return [{} for _ in range(mu)]


def _trim(mats):
    """The matrices up to the last nonzero one."""
    mats = list(mats)
    while mats and not any(mats[-1]):
        mats.pop()
    return mats


def _scaled(mats, base=1):
    """(D, the matrices times D as int sparse rows), D the least common
    multiple of base and the denominators of their entries (ints or
    Fractions)."""
    d = lcm(base, *{x.denominator for m in mats for row in m for x in row.values()})
    return d, [[{j: x.numerator * (d // x.denominator) for j, x in row.items()}
                for row in m] for m in mats]


def gauge_residual(pencil: ConnectionPencil, gauge, a0, ainf):
    """B P + theta^2 P' - P (A_0 + theta A_inf) as a matrix polynomial.

    Only products of nonzero entries are formed, summed per (theta degree,
    row, column).  They run on ints: with D_B clearing the denominators of
    B, A_0 and A_inf and D_P those of P, D_B D_P times the residual is
    (D_B B)(D_P P) + D_B theta^2 (D_P P)' - (D_P P)(D_B A_0 + theta D_B A_inf),
    and only its nonzero entries are divided by D_B D_P.  The result is the
    list of theta coefficients, as sparse rows of Fractions, up to the
    highest nonzero one, so it is [] exactly when the gauge identity holds.
    """
    db, scaled = _scaled([*pencil.matrices, a0, ainf])
    dp, gauge = _scaled(gauge)
    acc = {}
    for k, bmat in enumerate(scaled[:-2]):
        for i, brow in enumerate(bmat):
            for r, x in brow.items():
                for l, p in enumerate(gauge):
                    for j, y in p[r].items():
                        key = (k + l, i, j)
                        acc[key] = acc.get(key, 0) + x * y
    right = ((0, scaled[-2]), (1, scaled[-1]))
    for l, p in enumerate(gauge):
        for i, prow in enumerate(p):
            for s, x in prow.items():
                if l:
                    key = (l + 1, i, s)
                    acc[key] = acc.get(key, 0) + db * l * x
                for d, amat in right:
                    for j, y in amat[s].items():
                        key = (l + d, i, j)
                        acc[key] = acc.get(key, 0) - x * y
    nonzero = {key: x for key, x in acc.items() if x}
    if not nonzero:
        return []
    den = db * dp
    out = [_empty(pencil.mu) for _ in range(max(m for m, _, _ in nonzero) + 1)]
    for (m, i, j), x in nonzero.items():
        out[m][i][j] = Fraction(x, den)
    return out


# ---------------------------------------------------------------------------
# solving the gauge system

MAX_SWEEPS = 16       # fixed-point rounds after the diagonal ansatz fails
MAX_CULPRITS = 8      # culprit equation labels kept in an obstruction record
_ZERO = Fraction(0)


@dataclass
class BirkhoffSolution:
    gauge: tuple                 # (P_0, P_1, ..., P_K) as sparse rows; P_0 = I
                                 # unless a constant split was applied
    a0: list                     # sparse rows
    ainf: list                   # sparse rows
    method: str                  # "diagonal-ansatz" | "sweep" | "sweep+split"
    sweeps: int = 0
    flags: dict = field(default_factory=dict)

    def to_json_obj(self):
        mu = len(self.a0)
        return {
            "status": "solved",
            "method": self.method,
            "sweeps": self.sweeps,
            "gauge": [dense_strings(m, mu) for m in self.gauge],
            "a0": dense_strings(self.a0, mu),
            "ainf": dense_strings(self.ainf, mu),
            "flags": self.flags,
        }


@dataclass
class BirkhoffObstruction:
    message: str
    equations: int
    unknowns: int
    system_rank: int
    augmented_rank: int
    sweeps: int
    unsatisfiable: tuple = ()   # (theta degree, row, col) labels of culprit equations

    @property
    def residual_rank(self):
        return self.augmented_rank - self.system_rank

    def to_json_obj(self):
        return {
            "status": "obstruction",
            "message": self.message,
            "equations": self.equations,
            "unknowns": self.unknowns,
            "system_rank": self.system_rank,
            "augmented_rank": self.augmented_rank,
            "residual_rank": self.residual_rank,
            "unsatisfiable": [list(lbl) for lbl in self.unsatisfiable],
            "sweeps": self.sweeps,
        }


def _pattern_slots(orders, den):
    """(k, i, j) triples where (P_k)_{ij} may be nonzero, k >= 1.

    deg(i) + k <= deg(j) reads orders[i] + k * den <= orders[j] on the
    integer orders of the pencil.  They ascend (`ConnectionPencil` checks
    it), so those j form a suffix, found by bisection.
    """
    mu = len(orders)
    kmax = (orders[-1] - orders[0]) // den
    return [(k, i, j)
            for k in range(1, max(kmax, 0) + 1)
            for i in range(mu)
            for j in range(bisect_left(orders, orders[i] + k * den), mu)]


def _build_linear_system(pencil, ainf, include_m1=True):
    """Integer sparse rows of the linear system in the pattern unknowns, frozen A_inf.

    Equation (m, i, j) is D times the theta^m coefficient at (i, j) of
    B P + theta^2 P' - P (B_0 + theta A_inf) with P_0 = I, for m >= 1
    (m >= 2 without include_m1); D is the least common multiple of den and
    the denominators of the entries of the B_k and of A_inf, so every
    coefficient is an int (module docstring).  Its row is a dict slot index
    -> coefficient and its right-hand side is minus the part free of
    unknowns.  Only the equations
    that a nonzero entry of some B_k or of A_inf, or a slot, contributes to
    are formed; those whose row and right-hand side both vanish are dropped,
    and the rest come in (m, i, j) order.
    """
    mu = pencil.mu
    slots = _pattern_slots(pencil.orders, pencil.den)
    d, (*bmats, amat) = _scaled([*pencil.matrices, ainf], pencil.den)
    by_row = {}          # (k, row) -> [(col, slot index)]
    for t, (k, i, j) in enumerate(slots):
        by_row.setdefault((k, i), []).append((j, t))
    kmax = max((k for k, _, _ in slots), default=0)
    sq = mu * mu         # equation (m, i, j) is kept under m * sq + i * mu + j
    coeffs = {}          # key -> {slot index: coefficient}
    consts = {}          # key -> the part free of unknowns
    # B_k P_l: P_0 = I gives the constant B_k, l >= 1 the slots (l, r, j)
    for k, bmat in enumerate(bmats):
        for i, brow in enumerate(bmat):
            for r, x in brow.items():
                if k:
                    key = k * sq + i * mu + r
                    consts[key] = consts.get(key, 0) + x
                for l in range(1, kmax + 1):
                    base = (k + l) * sq + i * mu
                    for j, t in by_row.get((l, r), ()):
                        row = coeffs.setdefault(base + j, {})
                        row[t] = row.get(t, 0) + x
    # theta^2 P' - P_l B_0 - theta P_l A_inf, with P_0 A_inf constant
    for i, arow in enumerate(amat):
        for j, y in arow.items():
            key = sq + i * mu + j
            consts[key] = consts.get(key, 0) - y
    # these terms of the slot (l, i, s) depend on l and s alone: c at the
    # key l * sq + i * mu + off for each (off, c) in terms[l, s]
    b0 = bmats[0]
    terms = {}
    for l in range(1, kmax + 1):
        for s in range(mu):
            acc = {sq + s: l * d}
            for j, y in b0[s].items():
                acc[j] = acc.get(j, 0) - y
            for j, y in amat[s].items():
                acc[sq + j] = acc.get(sq + j, 0) - y
            terms[l, s] = [(off, c) for off, c in acc.items() if c]
    for t, (l, i, s) in enumerate(slots):
        base = l * sq + i * mu
        for off, c in terms[l, s]:
            row = coeffs.setdefault(base + off, {})
            row[t] = row.get(t, 0) + c
    rows = []
    rhs = []
    labels = []
    keys = sorted(coeffs.keys() | consts.keys())
    for key in keys[bisect_left(keys, sq if include_m1 else 2 * sq):]:
        row = coeffs.get(key)
        if row is None:
            row = {}
        elif not all(row.values()):
            row = {t: x for t, x in row.items() if x}
        const = consts.get(key, 0)
        if row or const:
            m, ij = divmod(key, sq)
            i, j = divmod(ij, mu)
            rows.append(row)
            rhs.append(-const)
            labels.append((m, i, j))
    return slots, rows, rhs, labels


def _gauge_from_solution(slots, x, mu):
    """I + the solved slots, up to the highest theta power with a nonzero one."""
    top = max((k for (k, _, _), y in zip(slots, x) if y), default=0)
    mats = [identity(mu)] + [_empty(mu) for _ in range(top)]
    for (k, i, j), y in zip(slots, x):
        if y:
            mats[k][i][j] = y
    return mats


def _settle(n, rows, rhs):
    """The solution of the system by substitution alone, or None.

    An equation holding exactly one unsettled unknown settles it, until no
    such equation is left.  An equation of one unknown settles it, or
    checks its value once it is settled; the equations of several unknowns
    keep occurrence counts of their unsettled ones, which drop by one as
    each is settled, and are checked once every unknown is.  Then the
    settling equations, in settling order, form a square triangular system
    with a nonzero diagonal: the system has full column rank, so it has at
    most one solution.  An equation can fail only with a nonzero
    right-hand side or a nonzero unknown.  When all hold, the values are
    the unique solution, which is `_solve_system`'s.  None when an unknown
    is left unsettled or an equation fails; the rows then go to
    `_solve_system`.
    """
    x = [None] * n
    left = n
    multi = []
    for e, row in enumerate(rows):
        if len(row) != 1:
            multi.append(e)
            continue
        (t, c), = row.items()
        b = rhs[e]
        v = x[t]
        if v is None:
            x[t] = Fraction(b, c) if b else _ZERO
            left -= 1
        elif (v or b) and c * v != b:
            return None
    count = {}
    where = {}           # unsettled unknown -> the equations holding it
    queue = []
    for e in multi:
        free = [t for t in rows[e] if x[t] is None]
        count[e] = len(free)
        for t in free:
            where.setdefault(t, []).append(e)
        if len(free) == 1:
            queue.append(e)
    for e in queue:
        if count[e] != 1:
            continue
        row = rows[e]
        acc = rhs[e]
        for u, c in row.items():
            v = x[u]
            if v is None:
                t = u
            elif v:
                acc -= c * v
        x[t] = Fraction(acc, row[t]) if acc else _ZERO
        left -= 1
        for f in where[t]:
            count[f] -= 1
            if count[f] == 1:
                queue.append(f)
    if left:
        return None
    for e in multi:
        acc = rhs[e]
        for u, c in rows[e].items():
            if v := x[u]:
                acc -= c * v
        if acc:
            return None
    return x


def _solve_system(n, rows, rhs, labels):
    """(solution or None, system rank, augmented rank, culprits) in one pass.

    The rows are sparse over n unknowns, with the right-hand side in column
    n.  Each augmented row is reduced against the consistent rows before it.
    A residual left only in the right-hand-side column is a culprit: that
    equation turns the running system inconsistent.  Culprits are not stored,
    so the stored rows have independent coefficient parts, every culprit's
    residual is canonical, and both ranks count every row past the cap of
    MAX_CULPRITS labels.  With no culprit the stored rows are the reduced
    echelon form of the whole system, and the solution sets every free
    unknown to zero.
    """
    ech = Echelon()
    culprits = []
    inconsistent = False
    for row, b, lab in zip(rows, rhs, labels):
        # the residual as integer numerators: a row scaled by a nonzero
        # number moves neither the span nor the pivots
        res, _, _ = ech.integer_reduce({**row, n: b})
        if not res:
            continue
        if min(res) < n:
            ech.insert(res)
        else:
            inconsistent = True
            if len(culprits) < MAX_CULPRITS:
                culprits.append(lab)
    system = len(ech)
    x = None
    if not inconsistent:
        x = [Fraction(0)] * n
        for p in ech.pivots:
            num, _, den = ech.integer_row(p)
            x[p] = Fraction(num.get(n, 0), den)
    return x, system, system + inconsistent, tuple(culprits)


def _split_constant(ainf, orders):
    """Constant base change Q with Q^-1 A_inf Q block diagonal by degree.

    Unknown entries of Q - I sit where deg(row) < deg(col), so conjugating a
    filtration-compatible pencil by Q keeps it filtration-compatible.  The
    linear system expresses A_inf Q = Q blockdiag(A_inf); it has a unique
    solution whenever the diagonal blocks of A_inf have pairwise disjoint
    spectra.  Returns None when A_inf is already block diagonal or the
    system is inconsistent.  The degrees are only compared, so the
    pencil's integer orders stand in for them.
    """
    mu = len(orders)
    if not any(orders[i] < orders[j] for i, arow in enumerate(ainf) for j in arow):
        return None
    slots = [(i, j) for i in range(mu) for j in range(mu) if orders[i] < orders[j]]
    index = {s: t for t, s in enumerate(slots)}
    # the nonzero entries of column j of blockdiag(A_inf)
    dcols = [[] for _ in range(mu)]
    for k, arow in enumerate(ainf):
        for j, y in arow.items():
            if orders[k] == orders[j]:
                dcols[j].append((k, y))
    rows = []
    rhs = []
    for (i, j) in slots:
        row = {}
        for k, y in ainf[i].items():
            t = index.get((k, j))
            if t is not None:
                row[t] = row.get(t, 0) + y
        for k, y in dcols[j]:
            t = index.get((i, k))
            if t is not None:
                row[t] = row.get(t, 0) - y
        rows.append({t: y for t, y in row.items() if y})
        rhs.append(-ainf[i].get(j, 0))
    x = _solve_system(len(slots), rows, rhs, slots)[0]
    if x is None:
        return None
    q = identity(mu)
    for (i, j), y in zip(slots, x):
        if y:
            q[i][j] = y
    return q


def _apply_constant_split(pencil, gauge, a0, ainf):
    """Post-compose a solution with the degree-splitting base change."""
    q = _split_constant(ainf, pencil.orders)
    if q is None:
        return gauge, a0, ainf, False
    qinv = _invert(q)
    # Q is invertible, so P_k Q is zero only where P_k is: no trim needed
    gauge = [sparse_mul(p, q) for p in gauge]
    a0 = sparse_mul(qinv, sparse_mul(a0, q))
    ainf = sparse_mul(qinv, sparse_mul(ainf, q))
    if gauge_residual(pencil, gauge, a0, ainf):
        raise VerificationError("the constant split broke the gauge identity")
    return gauge, a0, ainf, True


def _ansatz_solution(pencil, gauge, d_mat):
    """The diagonal-ansatz solution, once its exact gauge residual is zero."""
    b0 = pencil.matrices[0]
    if gauge_residual(pencil, gauge, b0, d_mat):
        raise VerificationError("the diagonal ansatz left a nonzero gauge residual")
    return BirkhoffSolution(tuple(gauge), b0, d_mat, "diagonal-ansatz")


def solve_birkhoff(pencil: ConnectionPencil):
    """Canonical normal-form attempt; solution or obstruction record.

    Raises VerificationError when a solved gauge fails the exact residual
    check; that check is explicit, so it also runs under `python -O`.
    """
    mu, den, orders = pencil.mu, pencil.den, pencil.orders
    d_mat = [{i: a} if a else {} for i, a in enumerate(pencil.degrees)]
    b0 = pencil.matrices[0]
    b1 = pencil.matrices[1] if pencil.degree else _empty(mu)

    if pencil.degree <= 1 and all(
            row.keys() <= {i} and (x := row.get(i, 0)).numerator * den == orders[i] * x.denominator
            for i, row in enumerate(b1)):
        # B = B_0 + theta diag(degrees) is normal already: every right-hand
        # side of the ansatz system is zero, so its solution with the free
        # unknowns zero is 0, and the gauge is I
        return _ansatz_solution(pencil, [identity(mu)], d_mat)
    slots, rows, rhs, labels = _build_linear_system(pencil, d_mat, include_m1=True)
    x = _settle(len(slots), rows, rhs)
    if x is None:
        x, system_rank, augmented_rank, culprits = _solve_system(len(slots), rows, rhs, labels)
    if x is not None:
        return _ansatz_solution(pencil, _gauge_from_solution(slots, x, mu), d_mat)

    # fixed-point sweeps with A_inf frozen per round; the round's system
    # holds every theta^m equation with m >= 2 and P_0 = I, so the residual
    # is [0, B_1 + [B_0, P_1] - A_inf], and A_inf steps by its theta^1 part
    ainf = [dict(row) for row in b1]
    for sweep in range(1, MAX_SWEEPS + 1):
        slots2, rows2, rhs2, labels2 = _build_linear_system(pencil, ainf, include_m1=False)
        y = _solve_system(len(slots2), rows2, rhs2, labels2)[0]
        if y is None:
            break
        gauge = _gauge_from_solution(slots2, y, mu)
        res = gauge_residual(pencil, gauge, b0, ainf)
        if not res:
            gauge, a0, ainf, split = _apply_constant_split(pencil, gauge, b0, ainf)
            return BirkhoffSolution(
                tuple(gauge), a0, ainf,
                "sweep+split" if split else "sweep", sweeps=sweep,
            )
        if len(res) != 2:
            raise VerificationError("a sweep left a gauge residual outside theta^1")
        for arow, rrow in zip(ainf, res[1]):
            _axpy(arow, 1, rrow)

    return BirkhoffObstruction(
        message="gauge equations are inconsistent for a diagonal residue matrix "
        "and the fixed-point sweeps did not stabilize",
        equations=len(rows),
        unknowns=len(slots),
        system_rank=system_rank,
        augmented_rank=augmented_rank,
        sweeps=MAX_SWEEPS,
        unsatisfiable=culprits,
    )


def pencil_in_gauge(pencil: ConnectionPencil, gauge):
    """Rewrite the pencil in an arbitrary basis given by an invertible gauge.

    Returns the list of theta-coefficient matrices of
    P^(-1) (B P + theta^2 P'); a Birkhoff solution in the broad sense is one
    where this list has length <= 2 (degree <= 1 in theta).
    """
    mu = pencil.mu
    gauge = _trim(gauge) or [identity(mu)]
    # B P + theta^2 P' is the gauge residual with A_0 = A_inf = 0
    lhs = gauge_residual(pencil, gauge, _empty(mu), _empty(mu))
    p0inv = _invert(gauge[0])
    out = []
    for k in range(len(lhs)):
        acc = [dict(row) for row in lhs[k]]
        for l in range(max(k - len(gauge) + 1, 0), k):
            for row, prow in zip(acc, sparse_mul(gauge[k - l], out[l])):
                _axpy(row, -1, prow)
        out.append(sparse_mul(p0inv, acc))
    return _trim(out)


def _invert(m):
    """The inverse of a matrix of sparse rows, from one echelon of [m | I]."""
    mu = len(m)
    ech = Echelon()
    for i, row in enumerate(m):
        ech.insert({**row, mu + i: 1})
    if sorted(ech.pivots) != list(range(mu)):
        raise ValueError("gauge constant term is singular")
    return [{c - mu: x for c, x in ech.row(p).items() if c >= mu} for p in range(mu)]


# ---------------------------------------------------------------------------
# V-filtration checks


def _order_keys(pencil):
    """Integer column keys for the slots theta^s e_i.

    The slot theta^s e_i has Newton order s + alpha_i = o / den with
    o = den * s + orders[i] an integer, and key(i, s) = -o * mu + mu - 1 - i.
    Keys are smaller for higher order, ties broken by the larger index, so
    an `Echelon` over them pivots every row on its highest-order entry, and
    among those on the one that comes last in its residue class
    (`_class_table`; the orders ascend); -(key // mu) gives back o.
    """
    mu, den, orders = pencil.mu, pencil.den, pencil.orders

    def key(i, s):
        return -(den * s + orders[i]) * mu + mu - 1 - i

    return key


def _columns(gauge, mu):
    """The nonzero entries (i, s, (P_s)_ij) of each gauge column j, by s, then i."""
    columns = [[] for _ in range(mu)]
    for s, p in enumerate(gauge):
        for i, row in enumerate(p):
            for j, x in row.items():
                columns[j].append((i, s, x))
    return columns


def verify_v_solution(pencil: ConnectionPencil, gauge):
    """Direct-sum test for the lattice L spanned by the gauge columns.

    L passes when at every level alpha up to the top degree,
    (L cap V_alpha) + theta (ambient cap V_{alpha-1}) is a direct sum equal
    to the ambient intersection with V_alpha.  No level is visited: the
    verdict is read off one reduced echelon of the gauge columns over the
    slots theta^s e_i, ordered by Newton order, highest first
    (`_order_keys`).

    Proof.  At the level alpha let A count the slots of order <= alpha, B
    those with s = 0 (the basis degrees <= alpha), l the echelon rows whose
    pivot has order <= alpha, which span L cap V_alpha, and c the rank of
    their theta^0 parts.  theta (ambient cap V_{alpha-1}) is spanned by the
    A - B slots with s >= 1, so the level passes exactly when
    l + A - B = A = c + A - B, that is l = B = c.  These are step functions
    of alpha that change only at a basis degree or a pivot order, so every
    level passes (on any grid that holds those orders, such as the
    polytope's r / scale) exactly when
     * l = B on (-inf, top]: the at most mu pivot orders, ascending, are
       the pencil's orders, all <= top; and
     * c = l at top, which gives c = l at every alpha, since the projection
       to the theta^0 slots is injective on L cap V_top only if it is on
       each L cap V_alpha inside it: the theta^0 parts of the mu pivot rows
       are independent.
    """
    mu = pencil.mu
    key = _order_keys(pencil)
    span = Echelon()
    for col in _columns(gauge, mu):
        span.insert({key(i, s): x for i, s, x in col})
    if sorted(-(p // mu) for p in span.pivots) != pencil.orders:
        return False
    constant = {key(i, 0) for i in range(mu)}
    low = Echelon()
    for p in span.pivots:
        low.insert({q: x for q, x in span.integer_row(p)[0].items() if q in constant})
    return len(low) == mu


def _multiplicity(m, s):
    """The algebraic multiplicity of the int s as an eigenvalue of the int
    matrix m of sparse rows: mu - rank((m - s I)^k) once the rank stops
    falling.  The rows of (m - s I)^(k+1) span the row space of (m - s I)^k
    times m - s I, so each power multiplies an echelon basis of the last."""
    mu = len(m)
    factor = [dict(row) for row in m]
    if s:
        for i, row in enumerate(factor):
            _axpy(row, -s, {i: 1})
    rows, rank = factor, mu
    while True:
        ech = Echelon()
        for row in rows:
            ech.insert(row)
        if len(ech) == rank:
            return mu - rank
        rank = len(ech)
        rows = sparse_mul([ech.integer_row(p)[0] for p in ech.pivots], factor)


def _product_vanishes(m, shifts):
    """Whether the product of the factors m - s I over the int shifts is zero.

    m is a square matrix of sparse int rows.  The factors commute, so each
    row e_i of the product takes them in its own order, v (m - s I) =
    v m - s v, no factor built: first the least diagonal entry of m on v's
    support, if unused.  On a structural m that clears v's lowest degree
    block, so a diagonal m takes one factor per row, and a row that holds
    at most its diagonal entry, a shift, vanishes without a product.
    """
    diag = [row.get(i, 0) for i, row in enumerate(m)]
    given = set(shifts)
    for i in range(len(m)):
        if diag[i] in given and m[i].keys() <= {i}:
            continue
        v = {i: 1}
        left = list(shifts)
        while v:
            if not left:
                return False
            s = min(diag[t] for t in v)
            if s not in left:
                s = left[0]
            left.remove(s)
            w = sparse_mul([v], m)[0]
            if s:
                _axpy(w, -s, v)
            v = w
    return True


def verify_v_plus(ainf, degrees, spectrum_pairs):
    """Spectral test: structure, semisimplicity, eigenvalue moduli = spectrum.

    The eigenvalues are not searched for.  When the structural test passes
    they are the diagonal entries of A_inf.  Proof: order the indices by
    degree.  The entries with deg(row) > deg(col) vanish, so A_inf is block
    upper triangular with one diagonal block per degree value alpha, and
    that block is alpha*I.  Hence det(S*I - A_inf) is the product of the
    determinants of the diagonal blocks of S*I - A_inf, which is
    prod_i (S - alpha_i).  Otherwise each candidate r, a diagonal entry of
    A_inf or +-alpha for a spectral value alpha, is a root of the
    characteristic polynomial with the multiplicity of its generalized
    eigenspace, mu - rank((D A - D r I)^k) for large k (`_multiplicity`).
    When these sum to mu - 1, the one root left is the trace of A_inf minus
    the sum of the others.  When they sum to less, two or more roots are
    not candidates, so some +-alpha is missing and the eigenvalue moduli
    cannot match the spectrum: such an A_inf is reported with eigenvalues
    None and semisimple False.

    Semisimplicity is checked on every input, as the vanishing of the
    product of D A - D r I over the distinct roots (module docstring).  The
    roots are counted and matched on numerators over one denominator.
    """
    detail = {}
    den, orders = integer_orders(degrees)
    # structural: alpha_i on the diagonal, and every other nonzero entry
    # (i, j) has deg(i) < deg(j), so each degree block is alpha * I
    structural = all(
        (x := arow.get(i, 0)).numerator * den == orders[i] * x.denominator
        and all(orders[i] < orders[j] for j in arow if j != i) for i, arow in enumerate(ainf))
    detail["structure"] = structural
    if structural:
        rden, counts = den, {}
        for o in orders:
            counts[o] = counts.get(o, 0) + 1
        roots = sorted(counts.items())
    else:
        candidates = {row.get(i, _ZERO) for i, row in enumerate(ainf)}
        for a, _ in spectrum_pairs:
            candidates |= {a, -a}
        d, (scaled,) = _scaled([ainf], lcm(*(r.denominator for r in candidates)))
        split = {}
        for r in candidates:
            if m := _multiplicity(scaled, r.numerator * (d // r.denominator)):
                split[r] = m
        left = len(ainf) - sum(split.values())
        if left == 1:
            # not a candidate: each candidate's whole multiplicity is counted
            split[trace(ainf) - sum(r * m for r, m in split.items())] = 1
        elif left:
            detail["eigenvalues"] = None
            detail["semisimple"] = False
            detail["spectral_match"] = False
            detail["note"] = (
                "characteristic polynomial does not split over the candidate "
                "eigenvalues (diagonal of A_inf and +-spectrum)"
            )
            return False, detail
        split = sorted(split.items())
        rden, nums = integer_orders([r for r, _ in split])
        roots = [(r, m) for r, (_, m) in zip(nums, split)]
    detail["eigenvalues"] = [(str(Fraction(r, rden)), m) for r, m in roots]
    # semisimple iff the product of D A - D r I over the roots vanishes
    d, (scaled,) = _scaled([ainf], rden)
    semisimple = _product_vanishes(scaled, [r * (d // rden) for r, _ in roots])
    detail["semisimple"] = semisimple
    # moduli over rden; a spectral value off that grid matches none
    got, want, on_grid = {}, {}, True
    for r, m in roots:
        got[abs(r)] = got.get(abs(r), 0) + m
    for a, m in spectrum_pairs:
        q, rem = divmod(abs(a.numerator) * rden, a.denominator)
        on_grid = on_grid and not rem
        want[q] = want.get(q, 0) + m
    match = on_grid and want == got
    detail["spectral_match"] = match
    return structural and semisimple and match, detail


# ---------------------------------------------------------------------------
# graded model: Hodge-type filtration, its candidate opposite, and N


def _class_table(pencil):
    """(res, indices, kmax) per residue class rho = alpha mod 1 = res / den.

    res = o mod den is its integer residue, its indices ascend (and so do
    their degrees), and kmax = floor(alpha_max - rho) + 1.
    """
    den, orders = pencil.den, pencil.orders
    groups = {}
    for i, o in enumerate(orders):
        groups.setdefault(o % den, []).append(i)
    return [(res, idx, (orders[-1] - res) // den + 1) for res, idx in sorted(groups.items())]


def _fprime_rows(pencil, gauge, table):
    """`opposite_filtration` on integers: [c][k] maps the pivot (last
    position) of each basis vector of F'^k of class c, ascending, to the
    vector as (position -> numerator, den), den at the pivot."""
    mu, den, orders = pencil.mu, pencil.den, pencil.orders
    key = _order_keys(pencil)
    columns = _columns(_trim(gauge) or [identity(mu)], mu)
    # orders times den: top and the cutoff are floors of quotients by den
    top = max(den * s + orders[i] for col in columns for i, s, _ in col)
    cutoff = (top - table[0][0]) // den
    # each class's order-rho slot keys and positions, by position
    symbols = [[(key(i, (res - orders[i]) // den), t) for t, i in enumerate(idx)]
               for res, idx, _ in table]
    out = [[{} for _ in range(kmax + 2)] for _, _, kmax in table]
    ech = Echelon()
    for k in range(cutoff, -1, -1):
        for col in columns:
            ech.insert({key(i, s - k): c for i, s, c in col})
        for slots, fpr in zip(symbols, out):
            if k < len(fpr):
                rows = fpr[k]
                for p, t in slots:
                    if p in ech:
                        num, _, d = ech.integer_row(p)
                        rows[t] = ({u: num[q] for q, u in slots if q in num}, d)
    return out


def opposite_filtration(pencil: ConnectionPencil, gauge):
    """F'^k per residue class: {rho: [basis of F'^k for k = 0..kmax_rho + 1]}.

    The slot theta^s e_i has Newton order s + alpha_i.  For the class rho,
    F'^k collects the order-rho parts of the elements of order <= rho in the
    span of theta^-m P_j over the gauge columns P_j and m >= k; a basis
    vector lists them at the class's indices (see `_class_table`), and
    kmax_rho = floor(alpha_max - rho) + 1.

    The span is cut off exactly, not truncated.  Let top be the largest
    order s + alpha_i of a nonzero gauge entry (P_s)_{ij}, rho_min the
    smallest residue and M = floor(top - rho_min).  Every slot of
    theta^-m P_j has order <= top - m, so for m > M every slot of that
    generator lies below rho_min, hence below every class's rho.  Adding
    such generators w to an element v of the span leaves its part of order
    > rho and its order-rho part unchanged: v + w has order <= rho exactly
    when v has, with the same order-rho part.  So F'^k is the symbol space
    of span{theta^-m P_j : k <= m <= M}, and F'^k = 0 for k > M.  The bound
    uses only the gauge's nonzero entries, so it holds for any gauge,
    adapted or not, with P_0 singular or not.

    Those spans grow as k falls, so one reduced echelon serves every k and
    every class (`_fprime_rows`): the layers m = M, ..., 0 go in once each,
    pivoting on their highest-order slot, and F'^k is read after layer k.
    The rows whose pivot has order <= rho span (span cap V_rho), and those
    of order < rho have nothing of order rho, so the rows whose pivot has
    order rho give F'^k.  Ties in order go to the later position in the
    class (`_order_keys`), so their order-rho parts are a reduced echelon
    basis of F'^k with each pivot on its vector's last position, listed by
    pivot.
    """
    table = _class_table(pencil)
    return {Fraction(res, pencil.den):
            [[[Fraction(v.get(t, 0), d) for t in range(len(idx))] for v, d in rows.values()]
             for rows in fpr]
            for (res, idx, _), fpr in zip(table, _fprime_rows(pencil, gauge, table))}


def _in_span(vec, rows):
    """Whether the int vector lies in the span of rows {pivot: (num, den)},
    each den at its pivot and 0 at the others."""
    m = lcm(*(d for p, (_, d) in rows.items() if vec.get(p)))
    w = {q: x * m for q, x in vec.items() if x}
    for p, (num, d) in rows.items():
        if vec.get(p):
            _axpy(w, -vec[p] * (m // d), num)
    return not w


def graded_model(pencil: ConnectionPencil, gauge):
    """Per residue class: N, the two filtrations, oppositeness and (B).

    F'^k comes from `_fprime_rows`, so the gauge need not have the
    triangular pattern.  Raises GradedModelError when N is not nilpotent on
    a class; that check holds under `python -O`.

    Each F'^k comes as a reduced echelon basis, every pivot on its vector's
    last position, so dim(F_k cap F'^k), F_k spanned by the first hodge[k]
    coordinates, is the number of pivots below hodge[k].  (B), N F'^k inside
    F'^{k+1}, reduces N v for each basis vector v of F'^k against F'^{k+1}.
    N comes from one pass over the pencil, as D N on integers (module
    docstring), with one echelon for the rank of every class.
    """
    den, orders = pencil.den, pencil.orders
    table = _class_table(pencil)
    where = {i: (c, t) for c, (_, idx, _) in enumerate(table) for t, i in enumerate(idx)}
    # D N, N e_i = alpha_i e_i - sum_j (B_{alpha_i - alpha_j + 1})_{ji} e_j
    hits = [(j, i, x) for k, bmat in enumerate(pencil.matrices) for j, brow in enumerate(bmat)
            for i, x in brow.items() if orders[i] - orders[j] == (k - 1) * den]
    d = lcm(den, *(x.denominator for _, _, x in hits))
    accs = [[{t: orders[i] * (d // den)} for t, i in enumerate(idx)] for _, idx, _ in table]
    for j, i, x in hits:
        row = accs[where[j][0]][where[j][1]]
        ti = where[i][1]
        row[ti] = row.get(ti, 0) - x.numerator * (d // x.denominator)
    span = Echelon()
    all_ok_opposite = True
    all_ok_b = True
    out = []
    for (res, idx, kmax), acc, fpr in zip(table, accs, _fprime_rows(pencil, gauge, table)):
        dim = len(idx)
        scaled = [{c: y for c, y in row.items() if y} for row in acc]
        if any(scaled) and not _product_vanishes(scaled, [0] * dim):
            rho = Fraction(res, den)
            raise GradedModelError("N is not nilpotent on residue class %s" % rho, rho)
        n_rank = len(span)
        for row in filter(None, scaled):
            span.insert({idx[c]: y for c, y in row.items()})
        levels = [orders[i] for i in idx]
        hodge = {k: bisect_right(levels, res + k * den) for k in range(-1, kmax + 2)}
        bgood = not any(scaled) or all(
            _in_span({r: sum(y * v.get(c, 0) for c, y in row.items())
                      for r, row in enumerate(scaled) if row}, fpr[k + 1])
            for k in range(kmax + 1) for v, _ in fpr[k].values())
        # F_{k-1} cap F'^k = 0 and F_k = (F_k cap F'^k) + F_{k-1}: no pivot
        # below hodge[k - 1], and one at each position from there to hodge[k]
        opp = all(min(fpr[k], default=dim) >= hodge[k - 1]
                  and all(t in fpr[k] for t in range(hodge[k - 1], hodge[k]))
                  for k in range(kmax + 2))
        out.append(
            {
                "residue": str(Fraction(res, den)),
                "indices": idx,
                "n_matrix": dense_strings(
                    [{c: Fraction(y, d) for c, y in row.items()} for row in scaled], dim),
                "n_rank": len(span) - n_rank,
                "hodge_dims": [hodge[k] for k in range(0, kmax + 1)],
                "opposite_dims": [len(fpr[k]) for k in range(0, kmax + 1)],
                "opposite": opp,
                "b_opposed": bgood,
            }
        )
        all_ok_opposite = all_ok_opposite and opp
        all_ok_b = all_ok_b and bgood
    return {"opposite": all_ok_opposite, "b_opposed": all_ok_b, "classes": out}
