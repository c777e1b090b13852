"""Independent dense oracles for the V-filtration checks of the graded model.

`opposite_filtration` reads F'^k for every residue class and every k off
one sparse echelon, filled with theta shifts down from an exact cutoff, and
`verify_v_solution` reads its verdict off the pivot orders and theta^0 parts
of one echelon of the gauge columns, visiting no level.  The oracles below
redo both the direct way, on dense matrices with the reference elimination
`conftest.dense_rref`:

- F'^k from a generator matrix over a window of theta shifts, the kernel of
  its columns of Newton order above rho, and the order-rho part of that
  kernel, computed at the window W and again at W + 3, and at windows
  reaching the cutoff on pencils whose lowest degree is 1 to 4;
- the direct sum test at every level from the kernel of the high-order
  slots and two ranks, whose verdicts the package's one verdict must
  match;
- oppositeness and (B) from explicit subspace intersections.

They run on the corpus gauges, on the ladder u1^k + u1^-k, on the
non-adapted gauge {w0 + theta w1, w1}, on seeded random gauges of theta
degree <= 2 built from elementary matrices over Q[theta], on gauges
with a singular constant term, and on three seeded mutations of each solved
corpus and small ladder gauge.
"""

import random
from fractions import Fraction as F
from math import floor

import pytest

from conftest import CORPUS, LADDER, dense, dense_rank, dense_rref, pipeline, sparse
from newton_spectra import (
    BirkhoffSolution,
    ConnectionPencil,
    GradedModelError,
    frobenius,
    graded_model,
    solve_birkhoff,
    verify_v_solution,
)
from newton_spectra.birkhoff import opposite_filtration
from newton_spectra.linalg import identity


def _dense_kernel(rows, n):
    """Basis of {x in Q^n : rows x = 0}, one vector per free column."""
    if not rows:
        return [[F(int(a == b)) for a in range(n)] for b in range(n)]
    red, piv = dense_rref(rows)
    basis = []
    for c in range(n):
        if c in piv:
            continue
        v = [F(0)] * n
        v[c] = F(1)
        for r, p in enumerate(piv):
            v[p] = -red[r][c]
        basis.append(v)
    return basis


def _basis(vectors):
    """Canonical basis (nonzero rows of the reduced echelon form)."""
    if not vectors:
        return []
    red, _ = dense_rref(vectors)
    return [row for row in red if any(row)]


def _classes(degrees):
    out = []
    for rho in sorted({a - floor(a) for a in degrees}):
        idx = sorted((i for i, a in enumerate(degrees) if a - floor(a) == rho),
                     key=lambda i: (degrees[i], i))
        out.append((rho, idx))
    return out


def _trim(gauge, mu):
    gauge = [m for m in gauge]
    while gauge and not any(any(row) for row in gauge[-1]):
        gauge.pop()
    return gauge or [dense(identity(mu))]


def oracle_fprime(degrees, gauge, rho, idx, k, window):
    """F'^k of the class rho from a dense generator matrix over one window."""
    mu = len(degrees)
    pos = {i: t for t, i in enumerate(idx)}
    degp = len(gauge) - 1
    gens = [(j, m) for j in range(mu) for m in range(k, k + window + 1)]
    cols = [(i, s) for i in range(mu) for s in range(-(k + window), degp + 1)]
    scol = {c: t for t, c in enumerate(cols)}
    gmat = []
    for j, m in gens:
        row = [F(0)] * len(cols)
        for p, g in enumerate(gauge):
            for i in range(mu):
                if g[i][j]:
                    row[scol[(i, p - m)]] = g[i][j]
        gmat.append(row)
    high = [t for t, (i, s) in enumerate(cols) if s + degrees[i] > rho]
    lam = _dense_kernel([[gmat[g][t] for g in range(len(gens))] for t in high],
                        len(gens))
    symbol = [(t, pos[i]) for t, (i, s) in enumerate(cols) if s + degrees[i] == rho]
    out = []
    for l in lam:
        vec = [F(0)] * len(idx)
        for t, c in symbol:
            vec[c] = sum((l[g] * gmat[g][t] for g in range(len(gens))
                          if l[g] and gmat[g][t]), F(0))
        if any(vec):
            out.append(vec)
    return _basis(out)


def oracle_opposite_filtration(degrees, gauge):
    """{rho: [F'^k]} at the window W, or None if W and W + 3 disagree."""
    mu = len(degrees)
    gauge = _trim(gauge, mu)
    window = len(gauge) - 1 + int(floor(degrees[-1] - degrees[0])) + 2
    out = {}
    for rho, idx in _classes(degrees):
        out[rho] = []
        for k in range(int(floor(degrees[-1] - rho)) + 3):
            a = oracle_fprime(degrees, gauge, rho, idx, k, window)
            b = oracle_fprime(degrees, gauge, rho, idx, k, window + 3)
            if len(a) != len(b):
                return None
            out[rho].append(a)
    return out


def oracle_v_solution(degrees, gauge, scale):
    """Per level: ambient, lattice, shifted and the direct-sum verdict."""
    mu = len(degrees)
    details = []
    r = 0
    while F(r, scale) <= degrees[-1]:
        alpha = F(r, scale)
        monos = [(i, k) for i in range(mu) for k in range(len(gauge) + int(alpha) + 2)
                 if k + degrees[i] <= alpha]
        high = {(i, k) for i in range(mu) for k in range(len(gauge))
                if k + degrees[i] > alpha}
        cons = [[gauge[k][i][j] for j in range(mu)] for (i, k) in sorted(high)]
        cons = [row for row in cons if any(row)]
        wvecs = []
        for c in _dense_kernel(cons, mu):
            v = [sum((gauge[k][i][j] * c[j] for j in range(mu)), F(0))
                 if k < len(gauge) else F(0) for (i, k) in monos]
            if any(v):
                wvecs.append(v)
        units = [[F(int(m == t)) for m in monos] for t in monos if t[1] >= 1]
        dim_w = dense_rank(wvecs) if wvecs else 0
        total = dense_rank(wvecs + units) if wvecs + units else 0
        good = dim_w + len(units) == len(monos) and total == len(monos)
        details.append({"level": str(alpha), "ambient": len(monos), "lattice": dim_w,
                        "shifted": len(units), "ok": good})
        r += 1
    return details


def _intersect(a, b):
    if not a or not b:
        return []
    n = len(a[0])
    rows = [[va[c] for va in a] + [-vb[c] for vb in b] for c in range(n)]
    out = []
    for x in _dense_kernel(rows, len(a) + len(b)):
        v = [sum((x[t] * a[t][c] for t in range(len(a))), F(0)) for c in range(n)]
        if any(v):
            out.append(v)
    return _basis(out)


def oracle_flags(degrees, nmats, fprime):
    """(opposite, b_opposed) per class from explicit intersections."""
    flags = []
    for rho, idx in _classes(degrees):
        dim = len(idx)
        fpr = fprime[rho]
        kmax = len(fpr) - 2
        hodge = {k: _basis([[F(int(t == c)) for c in range(dim)]
                            for t, i in enumerate(idx) if degrees[i] <= rho + k])
                 for k in range(-1, kmax + 2)}
        opp = all(
            not _intersect(hodge[k - 1], fpr[k])
            and len(_basis(_intersect(hodge[k], fpr[k]) + hodge[k - 1])) == len(hodge[k])
            for k in range(kmax + 2)
        )
        n = nmats[rho]
        b = all(
            len(_basis(fpr[k + 1] + [[sum((n[r][c] * v[c] for c in range(dim)), F(0))
                                      for r in range(dim)] for v in fpr[k]]))
            == len(fpr[k + 1])
            for k in range(kmax + 1)
        )
        flags.append((opp, b))
    return flags


def _check_against_oracles(pencil, gauge, scale):
    """The package on the sparse rows of a dense gauge against the oracles."""
    degrees = pencil.degrees
    want = oracle_opposite_filtration(degrees, gauge)
    assert want is not None
    rows = [sparse(m) for m in gauge]
    levels = oracle_v_solution(degrees, _trim(gauge, pencil.mu), scale)
    assert verify_v_solution(pencil, rows) == all(level["ok"] for level in levels)
    got = opposite_filtration(pencil, rows)
    assert sorted(got) == sorted(want)
    for rho in want:
        assert len(got[rho]) == len(want[rho]), rho
        for k, (a, b) in enumerate(zip(got[rho], want[rho])):
            assert _basis(a) == b, (rho, k)
    gm = graded_model(pencil, rows)
    nmats = {F(c["residue"]): [[F(x) for x in row] for row in c["n_matrix"]]
             for c in gm["classes"]}
    flags = oracle_flags(degrees, nmats, want)
    assert [(c["opposite"], c["b_opposed"]) for c in gm["classes"]] == flags
    for c in gm["classes"]:
        assert c["opposite_dims"] == [len(v) for v in want[F(c["residue"])][:-1]]


@pytest.mark.parametrize("expr", [e for e, _, _ in CORPUS]
                         + ["u1^%d + u1^-%d" % (k, k) for k in range(4, 9)])
def test_solved_gauges_match_the_dense_oracles(expr):
    data = pipeline(expr)
    sol = solve_birkhoff(data.pencil)
    assert isinstance(sol, BirkhoffSolution)
    _check_against_oracles(data.pencil, [dense(m) for m in sol.gauge], data.polytope.scale)


def test_non_adapted_gauge_matches_the_dense_oracles():
    pen = pipeline("u1 + u1^-1").pencil
    wprime = [dense(identity(2)), [[F(0), F(0)], [F(1), F(0)]]]
    _check_against_oracles(pen, wprime, 1)
    assert verify_v_solution(pen, [sparse(m) for m in wprime]) is False


def _random_gauge(rng, mu):
    """Product of elementary matrices I + c theta^d E_ij, theta degree <= 2."""
    gauge = [dense(identity(mu))] + [[[F(0)] * mu for _ in range(mu)] for _ in range(2)]
    for j in rng.sample(range(mu), rng.randint(0, 2)):
        for m in gauge:
            for i in range(mu):
                m[i][j] *= rng.choice((2, -1, F(1, 3)))
    for _ in range(rng.randint(1, 4)):
        i, j = rng.sample(range(mu), 2)
        d = rng.randint(0, 2)
        c = F(rng.randint(-3, 3) or 1, rng.randint(1, 2))
        # right-multiply by I + c theta^d E_ij: column j += c theta^d column i
        new = [[row[:] for row in m] for m in gauge] + [[[F(0)] * mu for _ in range(mu)]
                                                        for _ in range(d)]
        for p, m in enumerate(gauge):
            for r in range(mu):
                new[p + d][r][j] += c * m[r][i]
        if any(any(row) for m in new[3:] for row in m):
            continue
        gauge = new[:3]
    return gauge


def test_random_gauges_match_the_dense_oracles():
    # 40 gauges on pencils with mu <= 3 and 10 on u1^3 + u1 + u1^-2 (mu = 5,
    # four residue classes), where the dense oracle takes about 0.2 s each
    rng = random.Random(4)
    small = ["u1 + u1^-1", "u1 + u1^-2", "u1 + u2 + u1^-1*u2^-1", "u1 + u1^-2"]
    verdicts = set()
    for t in range(50):
        data = pipeline(small[t % 4] if t < 40 else "u1^3 + u1 + u1^-2")
        pen = data.pencil
        gauge = _random_gauge(rng, pen.mu)
        _check_against_oracles(pen, gauge, data.polytope.scale)
        gm = graded_model(pen, [sparse(m) for m in gauge])
        verdicts.add((gm["opposite"], gm["b_opposed"]))
    # the random gauges reach every combination of the two flags
    assert len(verdicts) == 4


def test_singular_constant_terms_match_the_dense_oracles():
    # theta times one column of a random gauge leaves P_0 singular, so the
    # lattice holds vectors without a theta^0 part: the direct-sum test must
    # count them in the lattice but not again beside the theta-shifted slots
    rng = random.Random(5)
    for expr in ("u1 + u1^-1", "u1 + u1^-2", "u1 + u2 + u1^-1*u2^-1"):
        data = pipeline(expr)
        pen = data.pencil
        for _ in range(3):
            gauge = _random_gauge(rng, pen.mu) + [[[F(0)] * pen.mu for _ in range(pen.mu)]]
            j = rng.randrange(pen.mu)
            for i in range(pen.mu):
                for p in range(len(gauge) - 1, -1, -1):
                    gauge[p][i][j] = gauge[p - 1][i][j] if p else F(0)
            _check_against_oracles(pen, gauge, data.polytope.scale)


def test_dependent_constant_parts_are_ranked_by_value():
    # P_0 has columns (1,1,0,0), (0,1,1,0), (1,0,-1,0) and e_3: the first
    # three have independent supports on the theta^0 slots but rank 2, so a
    # direct-sum test that ranked their supports alone would miss the gap
    degrees = (F(0), F(0), F(0), F(2))
    zero = [[F(0)] * 4 for _ in range(4)]
    pen = ConnectionPencil([sparse(zero), sparse(zero)], degrees)
    p0 = [[F(x) for x in row]
          for row in ((1, 0, 1, 0), (1, 1, 0, 0), (0, 1, -1, 0), (0, 0, 0, 1))]
    p1 = [[F(int(i == j < 3)) for j in range(4)] for i in range(4)]
    want = oracle_v_solution(degrees, [p0, p1], 2)
    assert not all(level["ok"] for level in want)
    assert verify_v_solution(pen, [sparse(p0), sparse(p1)]) is False


def _mutations(rng, gauge, mu):
    """Three seeded mutations of a dense gauge: one column theta-shifted, one
    column's theta^0 part made a multiple of another's, one column zeroed."""
    shifted = [[row[:] for row in m] for m in gauge] + [[[F(0)] * mu for _ in range(mu)]]
    j = rng.randrange(mu)
    for p in range(len(shifted) - 1, -1, -1):
        for i in range(mu):
            shifted[p][i][j] = shifted[p - 1][i][j] if p else F(0)
    dependent = [[row[:] for row in m] for m in gauge]
    j, k = rng.sample(range(mu), 2)
    c = F(rng.choice((-2, -1, 1, 3)), rng.randint(1, 2))
    for row in dependent[0]:
        row[j] = c * row[k]
    zeroed = [[row[:] for row in m] for m in gauge]
    j = rng.randrange(mu)
    for m in zeroed:
        for row in m:
            row[j] = F(0)
    return shifted, dependent, zeroed


# the first three ladder rows have mu 24, 23 and 20, where the dense oracle
# takes under 1 s a gauge; on the next ones (mu = 84, 54, 240) it takes
# 13 s, 3 s and far longer
@pytest.mark.parametrize("expr", [e for e, _, _ in CORPUS] + list(LADDER[:3]))
def test_mutated_gauges_match_the_oracle_verdict(expr):
    data = pipeline(expr)
    pen = data.pencil
    sol = solve_birkhoff(pen)
    assert isinstance(sol, BirkhoffSolution)
    gauge = [dense(m) for m in sol.gauge]
    rng = random.Random(expr)
    verdicts = []
    for g in (gauge, *_mutations(rng, gauge, pen.mu)):
        levels = oracle_v_solution(pen.degrees, _trim(g, pen.mu), data.polytope.scale)
        verdict = verify_v_solution(pen, [sparse(m) for m in g])
        assert verdict == all(level["ok"] for level in levels)
        verdicts.append(verdict)
    # the solved gauge passes; every mutation fails: a theta-shifted column
    # moves a pivot order, and the other two leave a nonzero lattice vector
    # without theta^0 part, or lower the rank
    assert verdicts == [True, False, False, False]


def _cutoff(degrees, gauge):
    """M = floor(top - rho_min), top the highest order of a nonzero gauge entry."""
    top = max(s + degrees[i] for s, g in enumerate(gauge)
              for i, row in enumerate(g) if any(row))
    return floor(top - min(a - floor(a) for a in degrees))


def test_degree_four_pencil_matches_the_oracle_at_every_window():
    # the single degree 4 puts the order-0 slot of theta^-m e_0 at m = 4, so
    # F'^k is the whole class for k <= M = 4 and 0 above; the window of the
    # oracle's W vs W + 3 comparison (W = 2) is too short for it
    pen = ConnectionPencil([sparse([[F(0)]]), sparse([[F(4)]])], (F(4),))
    gauge = [dense(identity(1))]
    assert _cutoff(pen.degrees, gauge) == 4
    got = opposite_filtration(pen, [identity(1)])
    assert [len(v) for v in got[0]] == [1, 1, 1, 1, 1, 0, 0]
    for k, basis in enumerate(got[0]):
        for window in (4, 7, 10):
            assert oracle_fprime(pen.degrees, gauge, F(0), [0], k, window) == basis
    gm = graded_model(pen, [identity(1)])
    assert gm["classes"][0]["opposite_dims"] == [1, 1, 1, 1, 1, 0]


def test_high_lowest_degree_pencils_are_cut_off_exactly():
    # alpha_min >= 1, where the old window W = deg P + floor(alpha_max -
    # alpha_min) + 2 could fall short of the cutoff M: for k <= M the helper
    # must give the oracle's F'^k at the windows M - k and M - k + 3, and
    # nothing above M
    rng = random.Random(7)
    shapes = [(0, F(1, 2)), (0, 1), (0, F(1, 2), 1), (0, F(1, 3), F(2, 3))]
    pairs = short = 0
    for t in range(24):
        low = 1 + t % 4
        degrees = tuple(low + F(d) for d in shapes[t // 4 % 4])
        mu = len(degrees)
        zero = [[F(0)] * mu for _ in range(mu)]
        pen = ConnectionPencil([sparse(zero), sparse(zero)], degrees)
        gauge = _random_gauge(rng, mu)
        cutoff = _cutoff(degrees, gauge)
        window = len(_trim(gauge, mu)) - 1 + int(floor(degrees[-1] - degrees[0])) + 2
        got = opposite_filtration(pen, [sparse(m) for m in gauge])
        for rho, idx in _classes(degrees):
            for k, basis in enumerate(got[rho]):
                if k > cutoff:
                    assert basis == [], (t, rho, k)
                    continue
                for w in (cutoff - k, cutoff - k + 3):
                    assert oracle_fprime(degrees, gauge, rho, idx, k, w) == _basis(basis), (t, rho, k)
                pairs += 1
                short += window < cutoff - k
    assert pairs >= 100 and short >= 10


def test_non_nilpotent_n_raises_a_typed_error():
    # one class of degrees (0, 1) and B = 0, so N = diag(0, 1): nothing in B
    # cancels alpha_1 = 1 on the diagonal
    zero = [[F(0), F(0)], [F(0), F(0)]]
    pen = ConnectionPencil([sparse(zero), sparse(zero)], (F(0), F(1)))
    with pytest.raises(GradedModelError) as info:
        graded_model(pen, [identity(2)])
    assert info.value.residue == 0
    assert str(info.value) == "N is not nilpotent on residue class 0"


def test_analyze_reports_a_graded_model_failure(monkeypatch):
    def fail(pencil, gauge):
        raise GradedModelError("N is not nilpotent on residue class 1/2", F(1, 2))

    monkeypatch.setattr(frobenius, "graded_model", fail)
    report, status = frobenius.analyze_text("u1 + u1^-2")
    assert status == "invalid"
    assert report["error"] == {
        "stage": "graded_model",
        "type": "GradedModelError",
        "message": "N is not nilpotent on residue class 1/2",
    }
    assert report["birkhoff"] is None and report["frobenius"] is None
    assert report["pencil"] is not None
