"""Graded Jacobian quotient: dimensions, adapted basis, division.

_bruteforce_quotient_dim recomputes mu with none of the level-by-level
machinery: it spans the ideal slice by explicit monomial multiples of the
log-partials inside a sublevel truncation and takes one big rank with the
tests' own dense elimination (conftest.dense_rank).
"""

import random
from fractions import Fraction

import pytest

from conftest import (
    CORPUS,
    DEGENERATE,
    LADDER,
    NEGATIVE,
    dense_rank,
    pipeline,
    reference_divide,
    reference_level_echelon,
)
from newton_spectra import (
    AdaptedBasis,
    DegeneracySuspectedError,
    JacobianAlgebra,
    LaurentPolynomial,
    NewtonPolytope,
    analyze_text,
    divide,
    is_nondegenerate,
    milnor_number,
    newton_polytope,
    parse_laurent,
)
from newton_spectra.linalg import Echelon


def _bruteforce_quotient_dim(f, p, scaled_level):
    """dim of (monomials with scaled phi <= level) / (ideal rows inside)."""
    ambient = p.enumerate_sublevel(Fraction(scaled_level, p.scale))
    index = {e: i for i, e in enumerate(ambient)}
    partials = [f.log_derivative(i) for i in range(f.arity)]
    shifts = sorted(
        {
            tuple(m - e for m, e in zip(mon, exp))
            for g in partials
            for exp in g.terms
            for mon in ambient
        }
    )
    rows = []
    for g in partials:
        for a in shifts:
            row = [Fraction(0)] * len(ambient)
            ok = True
            for exp, c in g.terms.items():
                target = tuple(x + y for x, y in zip(a, exp))
                j = index.get(target)
                if j is None:
                    ok = False
                    break
                row[j] = c
            if ok and any(row):
                rows.append(row)
    return len(ambient) - dense_rank(rows)


@pytest.mark.parametrize(
    "expr",
    [
        "u1 + u1^-1",
        "u1 + u2 + u1^-1*u2^-1",
        "u1^2 + u2 + u1^-1*u2^-1",
        "u1*u2*u3 + u1^-1 + u2^-1 + u3^-1",
    ],
)
def test_bruteforce_quotient_matches_volume(expr):
    data = pipeline(expr)
    mu = milnor_number(data.polytope)
    scale = data.polytope.scale
    # stabilized truncation: two consecutive levels must agree
    lo = _bruteforce_quotient_dim(data.f, data.polytope, (data.f.arity + 1) * scale)
    hi = _bruteforce_quotient_dim(data.f, data.polytope, (data.f.arity + 2) * scale)
    assert lo == hi == mu
    assert len(data.algebra.basis()) == mu


def test_graded_dimensions_sum_to_mu():
    for expr, _, mu in CORPUS:
        algebra = pipeline(expr).algebra
        total = sum(algebra.graded_dimension(r) for r in range(algebra.n * algebra.d + 1))
        assert total == mu, expr
        algebra.check_milnor(mu)


def test_level_table_holds_occupied_levels_only():
    # scale 140: 421 scaled levels up to 3 * 140, 361 of them occupied; the
    # certificate and the basis visit only those, and graded_dims reads 0 on
    # the others
    f, _ = parse_laurent("u1^20 + u2^20 + u1^-3*u2^-7")
    algebra = JacobianAlgebra(f)
    assert is_nondegenerate(algebra).ok and len(algebra.basis()) == 600
    p = algebra.polytope
    occupied = {p.scaled_phi_exp(e) for e in p.enumerate_sublevel(3)}
    assert p.scale == 140 and len(occupied) == 361
    assert set(algebra._levels) == set(algebra._index) == occupied
    assert set(algebra._solvers) <= occupied
    cases = [(algebra, 0, 280), (algebra, 281, 420), (algebra, 17, 35)]
    for expr, _, _ in CORPUS:
        a = pipeline(expr).algebra
        cases += [(a, 0, a.n * a.d), (a, a.n * a.d + 1, (a.n + 1) * a.d)]
    for a, lo, hi in cases:
        assert a.graded_dims(lo, hi) == [a.graded_dimension(r) for r in range(lo, hi + 1)]


def test_adapted_basis_known_examples():
    b = pipeline("u1 + u1^-1").algebra.basis()
    assert b.monomials == ((0,), (1,)) and b.degrees == (0, 1)
    b = pipeline("u1 + u2 + u1^-1*u2^-1").algebra.basis()
    assert b.monomials == ((0, 0), (1, 0), (2, 0)) and b.degrees == (0, 1, 2)
    b = pipeline("u1 + u1^-2").algebra.basis()
    assert b.degrees == (0, Fraction(1, 2), 1)


def test_adapted_basis_is_graded_and_starts_at_one():
    for expr, n, _ in CORPUS:
        data = pipeline(expr)
        b = data.algebra.basis()
        assert b.monomials[0] == (0,) * n and b.degrees[0] == 0
        assert list(b.degrees) == sorted(b.degrees)
        for e, alpha in zip(b.monomials, b.degrees):
            assert data.polytope.phi_exp(e) == alpha
        assert max(b.degrees) <= n


def test_divide_witness_round_trip():
    rng = random.Random(23)
    for expr in ("u1 + u2 + u1^-1*u2^-1", "u1 + u1^-2"):
        data = pipeline(expr)
        algebra = data.algebra
        pts = list(data.polytope.enumerate_sublevel(2))
        for _ in range(30):
            terms = {}
            for _ in range(rng.randrange(1, 4)):
                e = pts[rng.randrange(len(pts))]
                terms[e] = Fraction(rng.randrange(-5, 6))
            g = LaurentPolynomial(algebra.n, {e: c for e, c in terms.items() if c})
            w = divide(algebra, g)
            assert w.verify(algebra)
            # remainder exponents are basis representatives
            assert set(w.a) <= set(algebra.basis().monomials)


def test_divide_zero_and_ideal_members():
    data = pipeline("u1 + u2 + u1^-1*u2^-1")
    algebra = data.algebra
    w = divide(algebra, LaurentPolynomial.zero(2))
    assert w.verify(algebra) and not w.a
    # any monomial multiple of a log-partial divides exactly
    for i in range(2):
        for shift in [(0, 0), (1, 0), (1, 1), (-1, 0)]:
            g = algebra.log_derivs[i] * LaurentPolynomial.monomial(shift)
            w = divide(algebra, g)
            assert w.verify(algebra) and not w.a


def test_not_in_ideal_reports_residue():
    data = pipeline("u1 + u2 + u1^-1*u2^-1")
    g, _ = parse_laurent("u1 + 7", ["u1", "u2"])
    assert divide(data.algebra, g).a == {(1, 0): 1, (0, 0): 7}


def test_divide_refuses_a_residual_outside_the_basis():
    # an explicit check that survives python -O: a residual monomial the
    # basis does not list means the level echelons and the basis disagree
    f, _ = parse_laurent("u1 + u1^-1")
    algebra = JacobianAlgebra(f)
    full = algebra.basis()
    algebra._basis = AdaptedBasis(
        full.monomials[:1], full.degrees[:1], full.scaled_degrees[:1]
    )
    with pytest.raises(DegeneracySuspectedError):
        divide(algebra, LaurentPolynomial.monomial(full.monomials[1], Fraction(1)))


def _random_forms(rng, algebra, count, top):
    """Seeded forms with 1-5 terms on the lattice points up to phi = top."""
    pts = list(algebra.polytope.enumerate_sublevel(top))
    for _ in range(count):
        terms = {pts[rng.randrange(len(pts))]:
                 Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
                 for _ in range(rng.randrange(1, 6))}
        yield LaurentPolynomial(algebra.n, terms)


def _same_division(algebra, g):
    """divide and reference_divide agree: the same witness, or the same error."""
    try:
        want = reference_divide(algebra, g)
    except DegeneracySuspectedError as exc:
        with pytest.raises(DegeneracySuspectedError) as got:
            divide(algebra, g)
        assert str(got.value) == str(exc)
        return False
    got = divide(algebra, g)
    assert (got.g, got.a, got.cofactors, got.deta) == (
        want.g, want.a, want.cofactors, want.deta)
    return True


def test_dict_kernel_matches_the_laurent_reference():
    # forms reach past the top level n and past the enumerated window, so the
    # level table and its facet-form fallback are both read
    rng = random.Random(5)
    for expr, n, _ in CORPUS:
        algebra = pipeline(expr).algebra
        for g in _random_forms(rng, algebra, 40, n + 3):
            assert _same_division(algebra, g), (expr, g)


def test_dict_kernel_raises_where_the_reference_raises():
    rng = random.Random(6)
    # degenerate: a representative survives above the top level
    f, _ = parse_laurent(DEGENERATE)
    algebra = JacobianAlgebra(f)
    outcomes = [_same_division(algebra, g) for g in _random_forms(rng, algebra, 60, 4)]
    assert outcomes.count(False) >= 10 and outcomes.count(True) >= 10
    # a residual outside a truncated basis
    f, _ = parse_laurent("u1 + u2 + u1^-1*u2^-1")
    algebra = JacobianAlgebra(f)
    full = algebra.basis()
    algebra._basis = AdaptedBasis(full.monomials[:2], full.degrees[:2],
                                  full.scaled_degrees[:2])
    outcomes = [_same_division(algebra, g) for g in _random_forms(rng, algebra, 30, 3)]
    assert not all(outcomes)
    # log derivatives that no longer match the level echelons: the level-r
    # slice does not cancel
    algebra = JacobianAlgebra(f)
    algebra.basis()
    algebra.log_derivs = [xi * 2 for xi in algebra.log_derivs]
    for e in ((0, 1), (1, 1), (-1, -1)):
        g = LaurentPolynomial.monomial(e)
        assert not _same_division(algebra, g)
        with pytest.raises(DegeneracySuspectedError, match="failed to lower"):
            divide(algebra, g)


def test_degenerate_input_caught_by_dimension_check():
    f, _ = parse_laurent(DEGENERATE)
    p = newton_polytope(f)
    mu = milnor_number(p)
    assert mu == 8  # the volume alone cannot see the degeneracy
    algebra = JacobianAlgebra(f, p)
    # adversarial coincidence: the truncated dimensions add up to the
    # volume anyway, so the count passes ...
    assert len(algebra.basis()) == mu
    algebra.check_milnor(mu)
    # ... but a graded slice survives above the top spectral level, which
    # is impossible for a nondegenerate polynomial; the certificate reads it
    assert algebra.graded_dimension(algebra.n * algebra.d + 1) > 0
    assert not is_nondegenerate(algebra).ok


def test_lattice_points_enumerated_once(monkeypatch):
    # the first level request enumerates up to the top of the certificate's
    # window, phi = n + 1, which serves every later level of `analyze`; with
    # scale 2 the window has two levels, so one call covers both
    calls = []
    enumerate_sublevel = NewtonPolytope.enumerate_sublevel

    def counted(self, alpha):
        calls.append(alpha)
        return enumerate_sublevel(self, alpha)

    monkeypatch.setattr(NewtonPolytope, "enumerate_sublevel", counted)
    for expr, scale, top in (("u1 + u2 + u3 + u1^-1 + u2^-1 + u3^-1", 1, 4),
                             ("u1^2 + u2 + u1^-1*u2^-1", 2, 3)):
        calls.clear()
        report, status = analyze_text(expr)
        assert status == "ok" and report["polytope"]["scale"] == scale
        assert calls == [top], expr


def test_full_level_takes_no_more_rows(monkeypatch):
    # solver stops inserting once every column of a level is a pivot; every
    # row it skips reduces to zero, so each level echelon the stages build,
    # those of the pencil's divisions included, is the one built from every
    # row: the same pivots in the same order, rows, provenance and leads
    inserted = []
    insert = Echelon.insert

    def counted(self, vec, label=None):
        inserted.append(label)
        return insert(self, vec, label)

    monkeypatch.setattr(Echelon, "insert", counted)
    taken = skipped = 0
    for expr in [e for e, _, _ in CORPUS] + list(LADDER) + [NEGATIVE, DEGENERATE]:
        data = pipeline(expr)
        data.algebra.basis()
        if data.certificate.ok:
            data.pencil
        algebra = JacobianAlgebra(data.f, data.polytope)
        for r in sorted(data.algebra._solvers):
            inserted.clear()
            ech = algebra.solver(r)
            rows = algebra.n * len(algebra.level_monomials(r - algebra.d))
            if len(ech) < len(algebra._index.get(r, ())):
                # a deficient level never fills up, so it takes every row
                assert len(inserted) == rows, (expr, r)
            taken += len(inserted)
            skipped += rows - len(inserted)
            ref = reference_level_echelon(algebra, r)
            assert list(ech.pivots) == list(ref.pivots), (expr, r)
            for p in ech.pivots:
                assert ech.integer_row(p) == ref.integer_row(p), (expr, r, p)
    # 272 of the 3212 rows of these levels come after their level is full
    assert skipped > 200
    # the degenerate input's first window level is deficient
    algebra = pipeline(DEGENERATE).algebra
    r = algebra.n * algebra.d + 1
    assert 0 < len(algebra.solver(r)) < len(algebra._index[r])
