"""Exact linear algebra and polynomial helpers."""

import random
from fractions import Fraction
from fractions import Fraction as F

from conftest import dense_mat_mul, dense_rank, dense_rref
from newton_spectra.linalg import (
    Echelon,
    charpoly,
    identity,
    mat_mul,
    nullspace,
    pol_divmod,
    pol_mul,
    rank,
    rational_roots,
    rref,
    solve_linear,
)


def test_rref_pivots_and_idempotence():
    a = [[F(2), F(4), F(6)], [F(1), F(2), F(4)], [F(0), F(0), F(1)]]
    r, pivots = rref(a)
    assert pivots == [0, 2]
    # reduced form: pivot columns are unit vectors
    for k, j in enumerate(pivots):
        col = [row[j] for row in r]
        assert col[k] == 1 and all(x == 0 for i, x in enumerate(col) if i != k)
    r2, pivots2 = rref(r)
    assert r2 == r and pivots2 == pivots


def test_rank_random_products():
    rng = random.Random(7)
    for _ in range(20):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 5)
        k = rng.randrange(1, 4)
        a = [[F(rng.randrange(-4, 5)) for _ in range(k)] for _ in range(m)]
        b = [[F(rng.randrange(-4, 5)) for _ in range(n)] for _ in range(k)]
        # rank of a product never exceeds the inner dimension
        assert rank(mat_mul(a, b)) <= min(rank(a), rank(b), k)


def test_solve_linear_exact_and_inconsistent():
    a = [[F(1), F(2)], [F(3), F(5)]]
    x = solve_linear(a, [F(5), F(13)])
    assert x == [F(1), F(2)]
    # inconsistent system has no solution
    assert solve_linear([[F(1), F(1)], [F(2), F(2)]], [F(0), F(1)]) is None
    # underdetermined: free unknowns pinned to zero, residual still exact
    x = solve_linear([[F(1), F(1), F(0)]], [F(3)])
    assert x is not None
    assert sum(c * v for c, v in zip([F(1), F(1), F(0)], x)) == F(3)


def test_nullspace_annihilates():
    rng = random.Random(11)
    for _ in range(15):
        m, n = rng.randrange(1, 5), rng.randrange(1, 6)
        a = [[F(rng.randrange(-3, 4)) for _ in range(n)] for _ in range(m)]
        basis = nullspace(a)
        assert len(basis) == n - rank(a)
        for v in basis:
            assert all(sum(r[j] * v[j] for j in range(n)) == 0 for r in a)


def _random_system(rng, kind):
    m, n = rng.randrange(1, 8), rng.randrange(1, 8)
    if kind == "deficient":
        k = rng.randrange(1, min(m, n) + 1)
        left = [[F(rng.randrange(-3, 4)) for _ in range(k)] for _ in range(m)]
        right = [[F(rng.randrange(-3, 4)) for _ in range(n)] for _ in range(k)]
        a = mat_mul(left, right)
    else:
        density = {"sparse": 0.2, "dense": 1.0, "inconsistent": 0.5}[kind]
        a = [
            [F(rng.randrange(-4, 5)) if rng.random() < density else F(0) for _ in range(n)]
            for _ in range(m)
        ]
    b = [F(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(len(a))]
    if kind == "inconsistent":
        # one more equation: the sum of two rows with a shifted right side
        i, j = rng.randrange(len(a)), rng.randrange(len(a))
        a.append([x + y for x, y in zip(a[i], a[j])])
        b.append(b[i] + b[j] + 1)
    return a, b


def test_kernel_wrappers_match_dense_reference():
    rng = random.Random(2024)
    for kind in ("sparse", "dense", "deficient", "inconsistent"):
        for _ in range(60):
            a, b = _random_system(rng, kind)
            n = len(a[0])
            rows, pivots = dense_rref(a)
            assert rref(a) == (rows, pivots)
            assert rank(a) == len(pivots)
            free = [c for c in range(n) if c not in pivots]
            x = solve_linear(a, b)
            if dense_rank([r + [v] for r, v in zip(a, b)]) > len(pivots):
                assert x is None
            else:
                assert kind != "inconsistent"
                assert all(sum(r[j] * x[j] for j in range(n)) == v for r, v in zip(a, b))
                assert all(x[c] == 0 for c in free)
            basis = nullspace(a)
            assert len(basis) == len(free)
            for v, c in zip(basis, free):
                assert [v[f] for f in free] == [F(int(f == c)) for f in free]
                assert all(sum(r[j] * v[j] for j in range(n)) == 0 for r in a)


def test_echelon_provenance_names_the_inserted_rows():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randrange(1, 8)
        inserted = []
        ech = Echelon()
        for label in range(rng.randrange(1, 9)):
            if inserted and rng.random() < 0.3:
                # a combination of earlier rows reduces to zero and is dropped
                u, w = rng.choice(inserted), rng.choice(inserted)
                vec = {k: u.get(k, 0) - 2 * w.get(k, 0) for k in set(u) | set(w)}
            else:
                vec = {j: F(rng.randrange(-3, 4)) for j in range(n) if rng.random() < 0.4}
            inserted.append(vec)
            ech.insert(vec, label)

        def combination(coeffs):
            out = {}
            for label, c in coeffs.items():
                for k, v in inserted[label].items():
                    out[k] = out.get(k, 0) + c * v
            return {k: v for k, v in out.items() if v}

        for p, (row, prov) in ech.rows.items():
            assert min(row) == p and row[p] == 1
            assert not any(q in row for q in ech.rows if q != p)
            assert combination(prov) == row
        probe = {j: F(rng.randrange(-3, 4)) for j in range(n)}
        rest, combo = ech.reduce(probe)
        assert not set(rest) & set(ech.rows)
        total = combination(combo)
        for k, v in rest.items():
            total[k] = total.get(k, 0) + v
        assert {k: v for k, v in total.items() if v} == {k: v for k, v in probe.items() if v}


def test_mat_mul_matches_triple_loop():
    # sparse, dense and rectangular factors, zero rows and columns included
    rng = random.Random(20260621)
    for trial in range(150):
        n, k, m = (rng.randint(1, 6) for _ in range(3))
        if trial % 3 == 0:
            k = n = m
        density = rng.choice((0.0, 0.1, 0.4, 1.0))

        def rand(r, c):
            return [[F(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < density
                     else F(0) for _ in range(c)] for _ in range(r)]

        a, b = rand(n, k), rand(k, m)
        assert mat_mul(a, b) == dense_mat_mul(a, b)
        assert mat_mul(identity(n), a) == a and mat_mul(a, identity(k)) == a


def test_charpoly_known_matrices():
    # companion-style checks; coefficients ascending
    assert charpoly([[F(0), F(2)], [F(2), F(0)]]) == [F(-4), F(0), F(1)]
    a = [[F(0), F(0), F(3)], [F(3), F(0), F(0)], [F(0), F(3), F(0)]]
    assert charpoly(a) == [F(-27), F(0), F(0), F(1)]
    # trace and determinant appear with the right signs
    b = [[F(1), F(2)], [F(3), F(4)]]
    cp = charpoly(b)
    assert cp[2] == 1 and cp[1] == -(F(1) + F(4)) and cp[0] == F(4) - F(6)


def test_charpoly_matches_cayley_hamilton():
    rng = random.Random(3)
    for _ in range(6):
        n = rng.randrange(1, 5)
        a = [[F(rng.randrange(-3, 4)) for _ in range(n)] for _ in range(n)]
        cp = charpoly(a)
        acc = [[F(0)] * n for _ in range(n)]
        power = identity(n)
        for c in cp:
            for i in range(n):
                for j in range(n):
                    acc[i][j] += c * power[i][j]
            power = mat_mul(power, a)
        assert all(x == 0 for row in acc for x in row)


def test_polynomial_division_and_gcd():
    p = pol_mul([F(-1), F(1)], [F(2), F(1)])  # (x-1)(x+2)
    q, r = pol_divmod(p, [F(-1), F(1)])
    assert r == [] and q == [F(2), F(1)]


def test_rational_roots_with_multiplicity():
    # (x - 1/2)^2 (x + 3), scaled by 4
    p = pol_mul(pol_mul([F(-1, 2), F(1)], [F(-1, 2), F(1)]), [F(3), F(1)])
    p = [4 * c for c in p]
    roots, rest = rational_roots(p)
    assert roots == [(F(-3), 1), (F(1, 2), 2)]
    assert len(rest) == 1  # only a constant remains
    # x^2 - 2 has no rational roots
    roots, rest = rational_roots([F(-2), F(0), F(1)])
    assert roots == [] and len(rest) == 3
