"""Graded Jacobian quotient: dimensions, adapted basis, division.

_bruteforce_quotient_dim recomputes mu with none of the level-by-level
machinery: it spans the ideal slice by explicit monomial multiples of the
log-partials inside a sublevel truncation and takes one big rank with the
tests' own dense elimination (conftest.dense_rank).
"""

import random
from fractions import Fraction

import pytest

from conftest import CORPUS, DEGENERATE, dense_rank, pipeline
from newton_spectra import (
    AdaptedBasis,
    DegeneracySuspectedError,
    JacobianAlgebra,
    LaurentPolynomial,
    NewtonPolytope,
    NotInIdealError,
    analyze_text,
    divide,
    divide_exact,
    is_nondegenerate,
    milnor_number,
    newton_polytope,
    parse_laurent,
)


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
        pts = data.polytope.enumerate_sublevel(2)
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
            g = algebra.log_derivs[i].shift(shift)
            w = divide_exact(algebra, g)
            assert w.verify(algebra) and not w.a


def test_not_in_ideal_reports_residue():
    data = pipeline("u1 + u2 + u1^-1*u2^-1")
    g, _ = parse_laurent("u1 + 7", ["u1", "u2"])
    with pytest.raises(NotInIdealError) as e:
        divide_exact(data.algebra, g)
    assert e.value.residue == {(1, 0): 1, (0, 0): 7}


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
