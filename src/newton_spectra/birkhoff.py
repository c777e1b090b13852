"""Birkhoff-type normal form for the connection pencil.

We look for a gauge P(theta) = I + theta P_1 + ... (entries of P_k allowed
only where deg(row) + k <= deg(column), so P is unipotent and polynomially
invertible) with

    B(theta) P + theta^2 P' = P (A_0 + theta A_inf).

At theta^0 this forces A_0 = B_0.  The primary solver additionally demands
A_inf = diag(basis degrees), which makes the whole system linear in the P_k;
when that system is infeasible a bounded fixed-point sweep is tried where
A_inf is frozen per sweep and recomputed as B_1 + [B_0, P_1].  A sweep result
whose A_inf still couples distinct degrees is post-composed with a constant
base change (entries allowed where deg(row) < deg(column), so it is still
filtration-compatible) that block-diagonalizes A_inf; the coupling blocks
have disjoint spectra, so that Sylvester-type system is uniquely solvable.
Every candidate must pass an exact residual check before being accepted;
otherwise a structured obstruction record is returned.

The module also carries the V-filtration side: the finite level-by-level
direct-sum test for a solution basis, the spectral test on A_inf, and the
graded model (Hodge-type filtration, its opposite, and the nilpotent N).
The filtration checks keep sparse echelons whose columns are ordered by
Newton order, so they also apply to bases without the triangular pattern.
The opposite filtration needs no window of theta shifts: the shifts that
can change it end at a cutoff read off the gauge (`opposite_filtration`).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from math import floor, lcm

from .brieskorn import ConnectionPencil
from .errors import GradedModelError, VerificationError
from .linalg import (
    Echelon,
    charpoly,
    identity,
    mat_eq,
    mat_mul,
    mat_sub,
    nonzero_rows,
    pol_divmod,
    rank,
    rref,
    zeros,
)


# ---------------------------------------------------------------------------
# polynomial matrices: lists of constant matrices, ascending theta degree


def _pm_trim(mats):
    while mats and all(all(x == 0 for x in row) for row in mats[-1]):
        mats = mats[:-1]
    return mats


def gauge_residual(pencil: ConnectionPencil, gauge, a0, ainf):
    """B P + theta^2 P' - P (A_0 + theta A_inf) as a matrix polynomial.

    Only products of nonzero entries are formed, summed per (theta degree,
    row, column).  The result is the list of theta coefficients up to the
    highest nonzero one, so it is [] exactly when the gauge identity holds.
    """
    acc = {}
    prows = [nonzero_rows(p) for p in gauge]
    for k, b in enumerate(pencil.matrices):
        for i, brow in enumerate(nonzero_rows(b)):
            for r, x in brow:
                for l, pr in enumerate(prows):
                    for j, y in pr[r]:
                        key = (k + l, i, j)
                        acc[key] = acc.get(key, 0) + x * y
    right = ((0, nonzero_rows(a0)), (1, nonzero_rows(ainf)))
    for l, pr in enumerate(prows):
        for i, prow in enumerate(pr):
            for s, x in prow:
                if l:
                    key = (l + 1, i, s)
                    acc[key] = acc.get(key, 0) + l * x
                for d, arows in right:
                    for j, y in arows[s]:
                        key = (l + d, i, j)
                        acc[key] = acc.get(key, 0) - x * y
    nonzero = {key: x for key, x in acc.items() if x}
    if not nonzero:
        return []
    mu = pencil.mu
    out = [zeros(mu, mu) for _ in range(max(m for m, _, _ in nonzero) + 1)]
    for (m, i, j), x in nonzero.items():
        out[m][i][j] = x
    return out


# ---------------------------------------------------------------------------
# solving the gauge system

MAX_SWEEPS = 16       # fixed-point rounds after the diagonal ansatz fails
MAX_CULPRITS = 8      # culprit equation labels kept in an obstruction record


@dataclass
class BirkhoffSolution:
    gauge: tuple                 # (P_0, P_1, ..., P_K); P_0 = I unless a
                                 # constant split was applied
    a0: list
    ainf: list
    method: str                  # "diagonal-ansatz" | "sweep" | "sweep+split"
    sweeps: int = 0
    flags: dict = field(default_factory=dict)

    def to_json_obj(self):
        return {
            "status": "solved",
            "method": self.method,
            "sweeps": self.sweeps,
            "gauge": [[[str(x) for x in row] for row in m] for m in self.gauge],
            "a0": [[str(x) for x in row] for row in self.a0],
            "ainf": [[str(x) for x in row] for row in self.ainf],
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


def _pattern_slots(degrees):
    """(k, i, j) triples where (P_k)_{ij} may be nonzero, k >= 1.

    The degrees ascend (the basis is listed by level), so the j with
    degrees[i] + k <= degrees[j] form a suffix, found by bisection.
    """
    mu = len(degrees)
    kmax = int(floor(degrees[-1] - degrees[0]))
    return [(k, i, j)
            for k in range(1, max(kmax, 0) + 1)
            for i in range(mu)
            for j in range(bisect_left(degrees, degrees[i] + k), mu)]


def _build_linear_system(pencil, ainf, include_m1=True):
    """Sparse rows of the linear system in the pattern unknowns, frozen A_inf.

    Equation (m, i, j) is the theta^m coefficient at (i, j) of
    B P + theta^2 P' - P (B_0 + theta A_inf) with P_0 = I, for m >= 1
    (m >= 2 without include_m1).  Its row is a dict slot index ->
    coefficient and its right-hand side is minus the part free of unknowns.
    Only the equations that a nonzero entry of some B_k or of A_inf, or a
    slot, contributes to are formed; those whose row and right-hand side
    both vanish are dropped, and the rest come in (m, i, j) order.
    """
    slots = _pattern_slots(pencil.degrees)
    by_row = {}          # (k, row) -> [(col, slot index)]
    for t, (k, i, j) in enumerate(slots):
        by_row.setdefault((k, i), []).append((j, t))
    kmax = max((k for k, _, _ in slots), default=0)
    coeffs = {}          # (m, i, j) -> {slot index: coefficient}
    consts = {}          # (m, i, j) -> the part free of unknowns

    def add(lab, t, x):
        row = coeffs.setdefault(lab, {})
        row[t] = row.get(t, 0) + x

    def add_const(lab, x):
        consts[lab] = consts.get(lab, 0) + x

    # B_k P_l: P_0 = I gives the constant B_k, l >= 1 the slots (l, r, j)
    for k, b in enumerate(pencil.matrices):
        for i, brow in enumerate(nonzero_rows(b)):
            for r, x in brow:
                if k:
                    add_const((k, i, r), x)
                for l in range(1, kmax + 1):
                    for j, t in by_row.get((l, r), ()):
                        add((k + l, i, j), t, x)
    # theta^2 P' - P_l B_0 - theta P_l A_inf, with P_0 A_inf constant
    b0rows = nonzero_rows(pencil.matrices[0])
    arows = nonzero_rows(ainf)
    for i, arow in enumerate(arows):
        for j, y in arow:
            add_const((1, i, j), -y)
    for t, (l, i, s) in enumerate(slots):
        add((l + 1, i, s), t, Fraction(l))
        for j, y in b0rows[s]:
            add((l, i, j), t, -y)
        for j, y in arows[s]:
            add((l + 1, i, j), t, -y)
    rows = []
    rhs = []
    labels = []
    for lab in sorted(coeffs.keys() | consts.keys()):
        if lab[0] == 1 and not include_m1:
            continue
        row = {t: x for t, x in coeffs.get(lab, {}).items() if x}
        const = consts.get(lab, 0)
        if row or const:
            rows.append(row)
            rhs.append(-const)
            labels.append(lab)
    return slots, rows, rhs, labels


def _gauge_from_solution(slots, x, mu, degrees):
    kmax = max((k for k, _, _ in slots), default=0)
    mats = [identity(mu)] + [zeros(mu, mu) for _ in range(kmax)]
    for t, (k, i, j) in enumerate(slots):
        mats[k][i][j] = x[t]
    return _pm_trim(mats) or [identity(mu)]


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
        res, _ = ech.reduce({**row, n: b})
        if not res:
            continue
        if min(res) < n:
            ech.insert(res)
        else:
            inconsistent = True
            if len(culprits) < MAX_CULPRITS:
                culprits.append(lab)
    system = len(ech.rows)
    x = None
    if not inconsistent:
        x = [Fraction(0)] * n
        for p, (row, _) in ech.rows.items():
            x[p] = row.get(n, Fraction(0))
    return x, system, system + inconsistent, tuple(culprits)


def _split_constant(ainf, degrees):
    """Constant base change Q with Q^-1 A_inf Q block diagonal by degree.

    Unknown entries of Q - I sit where deg(row) < deg(col), so conjugating a
    filtration-compatible pencil by Q keeps it filtration-compatible.  The
    linear system expresses A_inf Q = Q blockdiag(A_inf); it has a unique
    solution whenever the diagonal blocks of A_inf have pairwise disjoint
    spectra.  Returns None when A_inf is already block diagonal or the
    system is inconsistent.
    """
    mu = len(degrees)
    slots = [(i, j) for i in range(mu) for j in range(mu) if degrees[i] < degrees[j]]
    if all(ainf[i][j] == 0 for (i, j) in slots):
        return None
    index = {s: t for t, s in enumerate(slots)}
    arows = nonzero_rows(ainf)
    # the nonzero entries of column j of blockdiag(A_inf)
    dcols = [[] for _ in range(mu)]
    for k, arow in enumerate(arows):
        for j, y in arow:
            if degrees[k] == degrees[j]:
                dcols[j].append((k, y))
    rows = []
    rhs = []
    for (i, j) in slots:
        row = {}
        for k, y in arows[i]:
            t = index.get((k, j))
            if t is not None:
                row[t] = row.get(t, 0) + y
        for k, y in dcols[j]:
            t = index.get((i, k))
            if t is not None:
                row[t] = row.get(t, 0) - y
        rows.append({t: y for t, y in row.items() if y})
        rhs.append(-ainf[i][j])
    x = _solve_system(len(slots), rows, rhs, slots)[0]
    if x is None:
        return None
    q = identity(mu)
    for t, (i, j) in enumerate(slots):
        q[i][j] = x[t]
    return q


def _apply_constant_split(pencil, gauge, a0, ainf, degrees):
    """Post-compose a solution with the degree-splitting base change."""
    q = _split_constant(ainf, degrees)
    if q is None:
        return gauge, a0, ainf, False
    qinv = _invert(q)
    gauge = [mat_mul(p, q) for p in gauge]
    a0 = mat_mul(qinv, mat_mul(a0, q))
    ainf = mat_mul(qinv, mat_mul(ainf, q))
    if gauge_residual(pencil, gauge, a0, ainf):
        raise VerificationError("the constant split broke the gauge identity")
    return _pm_trim(gauge) or [identity(len(degrees))], a0, ainf, True


def solve_birkhoff(pencil: ConnectionPencil):
    """Canonical normal-form attempt; solution or obstruction record.

    Raises VerificationError when a solved gauge fails the exact residual
    check; that check is explicit, so it also runs under `python -O`.
    """
    mu = pencil.mu
    degrees = pencil.degrees
    d_mat = zeros(mu, mu)
    for i in range(mu):
        d_mat[i][i] = Fraction(degrees[i])
    b0 = pencil.matrices[0]
    b1 = pencil.matrices[1] if len(pencil.matrices) > 1 else zeros(mu, mu)

    slots, rows, rhs, labels = _build_linear_system(pencil, d_mat, include_m1=True)
    x, system_rank, augmented_rank, culprits = _solve_system(len(slots), rows, rhs, labels)
    if x is not None:
        gauge = _gauge_from_solution(slots, x, mu, degrees)
        if gauge_residual(pencil, gauge, b0, d_mat):
            raise VerificationError("the diagonal ansatz left a nonzero gauge residual")
        return BirkhoffSolution(tuple(gauge), b0, d_mat, "diagonal-ansatz")

    # fixed-point sweeps with A_inf frozen per round
    ainf = [row[:] for row in b1]
    for sweep in range(1, MAX_SWEEPS + 1):
        slots2, rows2, rhs2, labels2 = _build_linear_system(pencil, ainf, include_m1=False)
        y = _solve_system(len(slots2), rows2, rhs2, labels2)[0]
        if y is None:
            break
        gauge = _gauge_from_solution(slots2, y, mu, degrees)
        p1 = gauge[1] if len(gauge) > 1 else zeros(mu, mu)
        nxt = mat_sub(b1, mat_sub(mat_mul(p1, b0), mat_mul(b0, p1)))
        if mat_eq(nxt, ainf):
            res = gauge_residual(pencil, gauge, b0, ainf)
            if not res:
                gauge, a0, ainf, split = _apply_constant_split(
                    pencil, gauge, b0, ainf, degrees
                )
                return BirkhoffSolution(
                    tuple(gauge), a0, ainf,
                    "sweep+split" if split else "sweep", sweeps=sweep,
                )
            break
        ainf = nxt

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
    gauge = _pm_trim([list(map(list, m)) for m in gauge]) or [identity(pencil.mu)]
    mu = pencil.mu
    # B P + theta^2 P' is the gauge residual with A_0 = A_inf = 0
    lhs = gauge_residual(pencil, gauge, zeros(mu, mu), zeros(mu, mu))
    p0inv = _invert(gauge[0])
    out = []
    for k in range(len(lhs)):
        acc = [row[:] for row in lhs[k]]
        for l in range(k):
            if k - l < len(gauge):
                prod = mat_mul(gauge[k - l], out[l])
                for r in range(mu):
                    for c in range(mu):
                        acc[r][c] -= prod[r][c]
        out.append(mat_mul(p0inv, acc))
    return _pm_trim(out)


def _invert(m):
    mu = len(m)
    aug = [row[:] + unit for row, unit in zip(m, identity(mu))]
    red, piv = rref(aug)
    if piv != list(range(mu)):
        raise ValueError("gauge constant term is singular")
    return [row[mu:] for row in red]


# ---------------------------------------------------------------------------
# V-filtration checks


def _order_keys(degrees):
    """(den, key): integer column keys for the slots theta^s e_i.

    The slot theta^s e_i has Newton order s + alpha_i = o / den with
    o = den * s + den * alpha_i an integer, and key(i, s) = -o * mu + i.  Keys
    are smaller for higher order, ties broken by i, so an `Echelon` over them
    pivots every row on its highest-order entry; -(key // mu) gives back o.
    """
    mu = len(degrees)
    den = lcm(*(a.denominator for a in degrees))
    scaled = [int(a * den) for a in degrees]

    def key(i, s):
        return -(den * s + scaled[i]) * mu + i

    return den, key


def verify_v_solution(pencil: ConnectionPencil, gauge, scale: int):
    """Level-by-level direct sum test for the lattice spanned by the gauge.

    Checks, for every level alpha = r / scale up to the top degree, that
    (lattice cap V_alpha) + theta (ambient cap V_{alpha-1}) decomposes the
    ambient intersection with V_alpha as a direct sum.

    The Q-span of the gauge columns is kept as one reduced echelon over the
    slots theta^k e_i ordered by Newton order, highest first.  Its rows whose
    pivot has order <= alpha span (lattice cap V_alpha), so that dimension is
    a count of rows.  theta (ambient cap V_{alpha-1}) is spanned by the slots
    with k >= 1, so the sum has dimension (number of those slots) + rank of
    the theta^0 parts of the counted rows; the rows only accumulate as alpha
    grows, so one more echelon takes those theta^0 parts incrementally.
    """
    degrees = pencil.degrees
    mu = pencil.mu
    den, key = _order_keys(degrees)
    span = Echelon()
    for j in range(mu):
        span.insert(
            {key(i, k): Fraction(g[i][j])
             for k, g in enumerate(gauge) for i in range(mu) if g[i][j]}
        )
    pivots = sorted(span.rows, reverse=True)     # ascending Newton order
    constant = {key(i, 0) for i in range(mu)}
    low = Echelon()
    taken = 0
    top = degrees[-1]
    details = []
    ok = True
    r = 0
    while Fraction(r, scale) <= top:
        alpha = Fraction(r, scale)
        while taken < len(pivots) and -(pivots[taken] // mu) * scale <= r * den:
            row = span.rows[pivots[taken]][0]
            low.insert({p: x for p, x in row.items() if p in constant})
            taken += 1
        ambient = sum(floor(alpha - a) + 1 for a in degrees if a <= alpha)
        shifted = ambient - sum(1 for a in degrees if a <= alpha)
        good = taken + shifted == ambient and shifted + len(low.rows) == ambient
        details.append(
            {"level": str(alpha), "ambient": ambient, "lattice": taken,
             "shifted": shifted, "ok": good}
        )
        if not good:
            ok = False
        r += 1
    return ok, details


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


def _eigenvalues(ainf, structural, candidates):
    """Eigenvalues of A_inf as (sorted (root, mult) pairs, cofactor).

    A structural A_inf has its eigenvalues on its diagonal, so they are read
    off there, with cofactor [1].  Proof: order the indices by degree.  The
    entries with deg(row) > deg(col) vanish, so A_inf is block upper
    triangular with one diagonal block per degree value alpha, and that
    block is alpha*I.  Hence det(S*I - A_inf) is the product of the
    determinants of the diagonal blocks of S*I - A_inf, which is
    prod_i (S - a_ii).

    Any other A_inf has its characteristic polynomial split over the
    candidates by `_split_over`.
    """
    if structural:
        mult = {}
        for i, row in enumerate(ainf):
            mult[row[i]] = mult.get(row[i], 0) + 1
        return sorted(mult.items()), [Fraction(1)]
    return _split_over(charpoly(ainf), candidates)


def verify_v_plus(ainf, degrees, spectrum_pairs):
    """Spectral test: structure, semisimplicity, eigenvalue moduli = spectrum.

    The eigenvalues are not searched for.  When the structural test passes
    they are the diagonal entries of A_inf (see `_eigenvalues`).  Otherwise
    the characteristic polynomial is divided by (S - r) for every candidate
    r: the diagonal entries of A_inf and +-alpha for every spectral value
    alpha.  Whenever a cofactor of degree >= 2 is left, every +-alpha has
    already been divided out, so the multiset of eigenvalue moduli cannot
    equal the spectrum and spectral_match is False whatever the remaining
    roots are.  Such an A_inf is reported with eigenvalues None and
    semisimple False.

    The eigenvalues found are re-checked on every input: semisimplicity is
    the vanishing of the product of (A - r I) over the distinct roots.  Both
    that product and the structural test touch only the nonzero entries of
    A_inf; the product is kept as sparse rows.
    """
    mu = len(degrees)
    detail = {}
    arows = nonzero_rows(ainf)
    # structural: alpha_i on the diagonal, and every other nonzero entry
    # (i, j) has deg(i) < deg(j), so each degree block is alpha * I
    structural = all(ainf[i][i] == degrees[i] for i in range(mu)) and all(
        j == i or degrees[i] < degrees[j] for i, arow in enumerate(arows) for j, _ in arow
    )
    detail["structure"] = structural
    candidates = [ainf[i][i] for i in range(mu)]
    for a, _ in spectrum_pairs:
        candidates += [a, -a]
    roots, cofactor = _eigenvalues(ainf, structural, candidates)
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
    # semisimple iff the product of (A - r I) over distinct roots vanishes
    prod = [{i: Fraction(1)} for i in range(mu)]
    for rt, _ in roots:
        shifted = [dict(arow) for arow in arows]
        for i, row in enumerate(shifted):
            x = row.get(i, 0) - rt
            if x:
                row[i] = x
            else:
                row.pop(i, None)
        nxt = []
        for prow in prod:
            acc = {}
            for t, c in prow.items():
                for j, y in shifted[t].items():
                    acc[j] = acc.get(j, 0) + c * y
            nxt.append({j: x for j, x in acc.items() if x})
        prod = nxt
    semisimple = not any(prod)
    detail["semisimple"] = semisimple
    want = {}
    for a, m in spectrum_pairs:
        want[abs(a)] = want.get(abs(a), 0) + m
    got = {}
    for rt, m in roots:
        got[abs(rt)] = got.get(abs(rt), 0) + m
    match = want == got
    detail["spectral_match"] = match
    return structural and semisimple and match, detail


# ---------------------------------------------------------------------------
# graded model: Hodge-type filtration, its candidate opposite, and N


def _residue_classes(degrees):
    """(rho, indices) per residue class rho = alpha mod 1, indices by (alpha_i, i)."""
    groups = {}
    for i, a in enumerate(degrees):
        groups.setdefault(a - floor(a), []).append(i)
    return [(rho, sorted(groups[rho], key=lambda i: (degrees[i], i))) for rho in sorted(groups)]


def opposite_filtration(pencil: ConnectionPencil, gauge):
    """F'^k per residue class: {rho: [basis of F'^k for k = 0..kmax_rho + 1]}.

    The slot theta^s e_i has Newton order s + alpha_i.  For the class rho,
    F'^k collects the order-rho parts of the elements of order <= rho in the
    span of theta^-m P_j over the gauge columns P_j and m >= k; a basis
    vector lists them at the class's indices (see `_residue_classes`), and
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
    every class: the layers m = M, M-1, ..., 0 are inserted once each,
    pivoting on their highest-order slot, and F'^k is read after layer k.
    The echelon's rows whose pivot has order <= rho span exactly (span cap
    V_rho), and those of order < rho have nothing of order rho, so the rows
    whose pivot has order rho give F'^k of that class.  They are zero in
    each other's pivots, so their order-rho parts are a basis of F'^k,
    listed by pivot.
    """
    return _opposite_filtration(pencil, gauge, _residue_classes(pencil.degrees))


def _opposite_filtration(pencil, gauge, classes):
    degrees = pencil.degrees
    mu = pencil.mu
    gauge = _pm_trim([list(map(list, m)) for m in gauge]) or [identity(mu)]
    den, key = _order_keys(degrees)
    columns = [
        [(i, s, Fraction(g[i][j])) for s, g in enumerate(gauge) for i in range(mu) if g[i][j]]
        for j in range(mu)
    ]
    top = max(s + degrees[i] for col in columns for i, s, _ in col)
    cutoff = int(floor(top - classes[0][0]))
    kmax = {rho: int(floor(degrees[-1] - rho)) + 1 for rho, _ in classes}
    # keys of each class's order-rho slots, in the class's order
    symbols = [(rho, [key(i, int(rho - degrees[i])) for i in idx]) for rho, idx in classes]
    out = {rho: [[] for _ in range(kmax[rho] + 2)] for rho, _ in classes}
    ech = Echelon()
    for k in range(cutoff, -1, -1):
        for col in columns:
            ech.insert({key(i, s - k): c for i, s, c in col})
        for rho, slots in symbols:
            if k <= kmax[rho] + 1:
                rows = [ech.rows[p][0] for p in sorted(slots) if p in ech.rows]
                out[rho][k] = [[row.get(q, Fraction(0)) for q in slots] for row in rows]
    return out


def graded_model(pencil: ConnectionPencil, gauge, scale: int):
    """Per residue class: N, the two filtrations, oppositeness and (B).

    F'^k comes from `opposite_filtration`, so the gauge need not have the
    triangular pattern.  Raises GradedModelError when N is not nilpotent on
    a class; that check holds under `python -O`.

    Per class, one echelon keyed by minus the position in the class takes
    the bases of F'^k for k descending, so every row pivots on its last
    coordinate and, once F'^k is in, the echelon spans F'^k (the F'^k are
    nested).  The Hodge-type F_k is spanned by the first hodge[k]
    coordinates, so dim(F_k cap F'^k) is the number of rows whose pivot
    position is below hodge[k].  (B), N F'^k inside F'^{k+1}, reduces N v
    for every basis vector v of F'^k against the echelon before F'^k goes
    in, when it still spans F'^{k+1}.
    """
    degrees = pencil.degrees
    degb = len(pencil.matrices) - 1
    classes = _residue_classes(degrees)
    nmats = {}
    for rho, idx in classes:
        dim = len(idx)
        # N on the class: N e_i = alpha_i e_i - sum_j (B_{alpha_i - alpha_j + 1})_{ji} e_j
        nmat = zeros(dim, dim)
        for ti, i in enumerate(idx):
            nmat[ti][ti] += Fraction(degrees[i])
            for tj, j in enumerate(idx):
                m = degrees[i] - degrees[j] + 1
                if m == int(m) and 0 <= int(m) <= degb:
                    nmat[tj][ti] -= pencil.matrices[int(m)][j][i]
        power = identity(dim)
        for _ in range(dim):
            power = mat_mul(power, nmat)
        if any(any(row) for row in power):
            raise GradedModelError("N is not nilpotent on residue class %s" % rho, rho)
        nmats[rho] = nmat
    fprime = _opposite_filtration(pencil, gauge, classes)
    all_ok_opposite = True
    all_ok_b = True
    out = []
    for rho, idx in classes:
        dim = len(idx)
        nmat = nmats[rho]
        fpr = fprime[rho]
        kmax = len(fpr) - 2
        hodge = {k: sum(1 for i in idx if degrees[i] <= rho + k) for k in range(-1, kmax + 2)}
        ncols = [[(r, nmat[r][c]) for r in range(dim) if nmat[r][c]] for c in range(dim)]
        ech = Echelon()
        opp = True
        bgood = True
        for k in range(kmax + 1, -1, -1):
            if k <= kmax:
                for v in fpr[k]:
                    img = {}
                    for c, x in enumerate(v):
                        if x:
                            for r, y in ncols[c]:
                                img[-r] = img.get(-r, 0) + y * x
                    if ech.reduce(img)[0]:
                        bgood = False
            for v in fpr[k]:
                ech.insert({-c: x for c, x in enumerate(v) if x})
            # oppositeness: F_{k-1} cap F'^k = 0 and F_k = (F_k cap F'^k) + F_{k-1}
            low = sum(1 for p in ech.rows if -p < hodge[k - 1])
            meet = sum(1 for p in ech.rows if -p < hodge[k])
            if low or meet != hodge[k] - hodge[k - 1]:
                opp = False
        out.append(
            {
                "residue": str(rho),
                "indices": idx,
                "n_matrix": [[str(x) for x in row] for row in nmat],
                "n_rank": rank(nmat),
                "hodge_dims": [hodge[k] for k in range(0, kmax + 1)],
                "opposite_dims": [len(fpr[k]) for k in range(0, kmax + 1)],
                "opposite": opp,
                "b_opposed": bgood,
            }
        )
        all_ok_opposite = all_ok_opposite and opp
        all_ok_b = all_ok_b and bgood
    return {"opposite": all_ok_opposite, "b_opposed": all_ok_b, "classes": out}
