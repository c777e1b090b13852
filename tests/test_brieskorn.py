"""Brieskorn lattice: reduction, the t-pencil, orders, spectrum.

Pencil entries for the small examples were frozen from hand reduction:
for u + 1/u the class of f*1 is 2*u and of f*u is 2*1 + theta*u, giving
B0 = [[0,2],[2,0]], B1 = diag(0,1).
"""

import random
from fractions import Fraction as F

import pytest

from conftest import (
    CORPUS,
    DEGENERATE,
    LADDER,
    dense,
    pipeline,
    recipe_draws,
    reference_reduce,
    reference_spectrum_polynomial,
    sparse,
)
from newton_spectra import (
    AdaptedBasis,
    BrieskornElement,
    BrieskornLattice,
    ConnectionPencil,
    DegeneracySuspectedError,
    JacobianAlgebra,
    LaurentPolynomial,
    Pipeline,
    divide,
    parse_laurent,
)
from newton_spectra import brieskorn as brieskorn_mod
from newton_spectra.brieskorn import _spectrum_polynomial
from newton_spectra.cli import main


# two inputs with non-integer coefficients: the log derivatives enter the
# reduction scaled by the lcm of their denominators
RATIONAL = ("1/2*u1^3 + u1 + 2/3*u1^-2", "1/2*u1^2 + u2 + 2/3*u1^-1*u2^-1")


DRAWS = recipe_draws(40)


def test_pencil_one_variable_hand_values():
    pen = pipeline("u1 + u1^-1").pencil
    assert pen.degree == 1
    assert dense(pen.matrices[0]) == [[F(0), F(2)], [F(2), F(0)]]
    assert dense(pen.matrices[1]) == [[F(0), F(0)], [F(0), F(1)]]
    assert pen.degrees == (F(0), F(1))


def test_pencil_fractional_orders_hand_values():
    # u + u^-2: basis (1, 1/u, u), orders (0, 1/2, 1)
    pen = pipeline("u1 + u1^-2").pencil
    assert pen.degrees == (F(0), F(1, 2), F(1))
    assert dense(pen.matrices[0]) == [
        [F(0), F(3, 2), F(0)],
        [F(0), F(0), F(3)],
        [F(3, 2), F(0), F(0)],
    ]
    assert dense(pen.matrices[1]) == [
        [F(0), F(0), F(0)],
        [F(0), F(1, 2), F(0)],
        [F(0), F(0), F(1)],
    ]


def test_pencil_two_variable_hand_values():
    # basis (1, u1, u1^2); multiplication by f cycles it with factor 3
    pen = pipeline("u1 + u2 + u1^-1*u2^-1").pencil
    assert pen.degree == 2
    assert dense(pen.matrices[0]) == [
        [F(0), F(0), F(3)],
        [F(3), F(0), F(0)],
        [F(0), F(3), F(0)],
    ]
    assert dense(pen.matrices[1]) == [
        [F(0), F(0), F(0)],
        [F(0), F(-2), F(0)],
        [F(0), F(0), F(5)],
    ]
    assert dense(pen.matrices[2])[1][2] == F(-3)
    assert sum(1 for row in dense(pen.matrices[2]) for x in row if x) == 1


def test_pencil_structure_on_corpus():
    for expr, n, mu in CORPUS:
        data = pipeline(expr)
        pen = data.pencil
        degs = data.algebra.basis().degrees
        assert len(pen.matrices[0]) == mu
        # theta-degree of the pencil never exceeds n
        assert pen.degree <= n, expr
        # trace of B1 equals the sum of the spectral numbers
        tr = sum(dense(pen.matrices[1])[i][i] for i in range(mu)) if pen.degree >= 1 else 0
        assert tr == sum(degs), expr
        # order bound: theta^k entry (j,i) nonzero needs k + alpha_j <= alpha_i + 1
        for k, mat in enumerate(map(dense, pen.matrices)):
            for j in range(mu):
                for i in range(mu):
                    if mat[j][i]:
                        assert k + degs[j] <= degs[i] + 1, (expr, k, j, i)


def _assert_integer_data(pen):
    """den and orders agree with the degrees, and the rows are the nonzero
    entries of the dense pencil."""
    den, degrees = pen.den, pen.degrees
    assert all(type(o) is int for o in pen.orders) and den >= 1
    assert [F(o) for o in pen.orders] == [a * den for a in degrees]
    # den is the least positive integer that clears every denominator
    assert all(any(F(a * d).denominator != 1 for a in degrees) for d in range(1, den))
    assert all(len(m) == pen.mu for m in pen.matrices)
    assert all(sparse(dense(m)) == m for m in pen.matrices)


@pytest.mark.parametrize("expr", [e for e, _, _ in CORPUS] + list(LADDER))
def test_pencil_carries_its_integer_orders_and_nonzero_index(expr):
    _assert_integer_data(pipeline(expr).pencil)


def test_hand_built_pencils_carry_integer_orders():
    zero2 = [[F(0)] * 2 for _ in range(2)]
    zero3 = [[0] * 3 for _ in range(3)]
    cases = [
        ([[[F(0)]], [[F(4)]]], (F(4),), 1, [4]),
        ([zero2, [[F(0), F(1, 2)], [F(0), F(1)]]], (0, 1), 1, [0, 1]),
        ([zero3, [[0, 0, 3], [0, F(1, 2), 0], [0, 0, 0]]], (0, F(1, 2), F(5, 3)), 6, [0, 3, 10]),
        ([zero2, zero2], (F(1, 3), F(2, 3)), 3, [1, 2]),
        ([zero2, zero2, [[F(0), F(1)], [F(0), F(0)]]], (F(-1, 2), F(1, 2)), 2, [-1, 1]),
    ]
    for matrices, degrees, den, orders in cases:
        pen = ConnectionPencil([sparse(m) for m in matrices], degrees)
        assert (pen.den, pen.orders) == (den, orders), degrees
        _assert_integer_data(pen)
    pen = ConnectionPencil([sparse(m) for m in cases[2][0]], cases[2][1])
    assert pen.matrices[1] == [{2: 3}, {1: F(1, 2)}, {}]


@pytest.mark.parametrize("expr", [e for e, _, _ in CORPUS] + list(LADDER) + list(RATIONAL)
                         + DRAWS)
def test_pencil_matches_the_laurent_reference(expr):
    data = pipeline(expr)
    pen = data.pencil
    for j, m in enumerate(data.lattice.basis.monomials):
        col = reference_reduce(data.lattice, data.f * LaurentPolynomial.monomial(m))
        entries = {(k, i): row[j] for k, mat in enumerate(pen.matrices)
                   for i, row in enumerate(mat) if j in row}
        assert entries == col.coords, (expr, j)


def test_reduce_matches_the_laurent_reference():
    rng = random.Random(29)
    exprs = [e for e, _, _ in CORPUS] + list(RATIONAL) + DRAWS
    for expr in exprs:
        data = pipeline(expr)
        n = data.f.arity
        pts = data.polytope.enumerate_sublevel(n + 1)
        for _ in range(15):
            forms = {}
            for k in rng.sample(range(4), rng.randrange(1, 5)):
                terms = {pts[rng.randrange(len(pts))]: F(rng.randrange(-4, 5))
                         for _ in range(rng.randrange(1, 5))}
                forms[k] = LaurentPolynomial(n, terms)
            assert data.lattice.reduce(forms) == reference_reduce(data.lattice, forms), \
                (expr, forms)


def _same_reduction(lattice, forms):
    """reduce and reference_reduce agree: the same element, or the same error."""
    try:
        want = reference_reduce(lattice, forms)
    except DegeneracySuspectedError as exc:
        with pytest.raises(DegeneracySuspectedError) as got:
            lattice.reduce(forms)
        assert str(got.value) == str(exc), forms
        return False
    assert lattice.reduce(forms) == want, forms
    return True


def test_reduce_on_a_degenerate_algebra_agrees_or_raises_with_the_reference():
    # representatives survive above the top level; the lattice memo keeps
    # them in slots of their own, so a form raises exactly when the
    # reference division of one of its theta powers does
    f, _ = parse_laurent(DEGENERATE)
    lattice = BrieskornLattice(JacobianAlgebra(f))
    rng = random.Random(31)
    pts = lattice.algebra.polytope.enumerate_sublevel(4)
    outcomes = []
    for _ in range(60):
        forms = {}
        for k in rng.sample(range(3), rng.randrange(1, 3)):
            terms = {pts[rng.randrange(len(pts))]: F(rng.randrange(-3, 4), rng.randrange(1, 3))
                     for _ in range(rng.randrange(1, 4))}
            forms[k] = LaurentPolynomial(2, terms)
        outcomes.append(_same_reduction(lattice, forms))
    assert outcomes.count(False) >= 10 and outcomes.count(True) >= 10
    # u2^5 and u1*u2^4 each meet the representative u1^5 above the top
    # level, with the same coefficient: their difference reduces
    g = LaurentPolynomial(2, {(0, 5): 1, (1, 4): -1})
    assert _same_reduction(lattice, {0: g})
    assert not _same_reduction(lattice, {0: LaurentPolynomial.monomial((0, 5))})
    # a representative left out of a truncated basis
    f, _ = parse_laurent("u1 + u2 + u1^-1*u2^-1")
    algebra = JacobianAlgebra(f)
    full = algebra.basis()
    algebra._basis = AdaptedBasis(full.monomials[:2], full.degrees[:2],
                                  full.scaled_degrees[:2])
    lattice = BrieskornLattice(algebra)
    outcomes = [_same_reduction(lattice, {0: g}) for g in (
        LaurentPolynomial.monomial((1, 0)), LaurentPolynomial.monomial((2, 0)),
        LaurentPolynomial.monomial((0, 2)), LaurentPolynomial(2, {(1, 1): 1, (0, 0): 2}))]
    assert outcomes.count(False) >= 2 and outcomes.count(True) >= 1


def test_reduce_sees_a_log_derivative_swap_like_divide():
    # the rules read the log derivatives when the first one is built, so a
    # swap before the first division makes every rule fail its check
    f, _ = parse_laurent("u1 + u2 + u1^-1*u2^-1")
    for first in ("reduce", "divide"):
        algebra = JacobianAlgebra(f)
        lattice = BrieskornLattice(algebra)
        algebra.log_derivs = [xi * 2 for xi in algebra.log_derivs]
        for e in ((0, 1), (1, 1), (-1, -1)):
            g = LaurentPolynomial.monomial(e)
            calls = [lambda: lattice.reduce(g), lambda: divide(algebra, g)]
            messages = []
            for call in calls if first == "reduce" else calls[::-1]:
                with pytest.raises(DegeneracySuspectedError, match="failed to lower") as exc:
                    call()
                messages.append(str(exc.value))
            assert messages[0] == messages[1], (first, e)


def test_pipelines_on_one_input_share_no_memo():
    expr = "u1^2 + u2 + u1^-1*u2^-1"
    a, b = _fresh(expr), _fresh(expr)
    a.pencil
    # b's rules see b's own log derivatives, so nothing a built is reused
    b.algebra.log_derivs = [xi * 2 for xi in b.algebra.log_derivs]
    with pytest.raises(DegeneracySuspectedError, match="failed to lower"):
        b.pencil
    assert a.lattice._forms and a.algebra._rules
    assert not set(map(id, a.lattice._forms.values())) & set(map(id, b.lattice._forms.values()))
    c = _fresh(expr)
    assert c.pencil.matrices == a.pencil.matrices
    assert c.lattice._forms is not a.lattice._forms and c.algebra._rules is not a.algebra._rules


def _fresh(expr):
    return Pipeline(*parse_laurent(expr))


def test_pencil_bounds_are_explicit_checks(monkeypatch, capsys):
    # explicit raises, not asserts, so they hold under python -O; `analyze`
    # reports them at the `pencil` stage with exit 2, `check` exits 2
    normal_form = brieskorn_mod.BrieskornLattice._normal_form
    theta = brieskorn_mod._THETA
    expr = "u1 + u2 + u1^-1*u2^-1"          # degrees 0, 1, 2

    def off_bound(lattice, e):
        # u1^2 (degree 2, slot 2) in every column: entry (2, 0) of B_0
        # breaks the bound
        num, den = normal_form(lattice, e)
        return {**num, 2: num.get(2, 0) + den}, den

    def endless(lattice, e):
        # a coordinate at theta^5, past the cap 0 + n + 2 = 4
        num, den = normal_form(lattice, e)
        return {**num, 5 * theta: den}, den

    for fake, message in ((off_bound, "entry (2,0) of B_0 violates the order bound"),
                          (endless, "reduction exceeded theta degree 4")):
        monkeypatch.setattr(brieskorn_mod.BrieskornLattice, "_normal_form", fake)
        with pytest.raises(DegeneracySuspectedError) as exc:
            _fresh(expr).pencil
        assert str(exc.value) == message
        report, status = _fresh(expr).report()
        assert status == "invalid"
        assert report["error"] == {"stage": "pencil", "type": "DegeneracySuspectedError",
                                   "message": message}
        assert report["spectrum"] is not None and report["pencil"] is None
        assert main(["analyze", expr]) == 2
        assert capsys.readouterr().out == "error (pencil): %s\n" % message
        assert main(["check", expr]) == 2
        assert capsys.readouterr().err == "error: %s\n" % message


def test_reduce_and_newton_order():
    data = pipeline("u1 + u2 + u1^-1*u2^-1")
    lat = data.lattice
    e0 = lat.reduce(LaurentPolynomial.monomial((0, 0)))
    assert lat.newton_order(e0) == 0
    assert lat.newton_order(e0.theta_shift()) == 1
    assert lat.newton_order(lat.reduce(LaurentPolynomial.monomial((1, 0))).theta_shift(2)) == 3
    zero = e0 - e0
    assert zero.is_zero() and lat.newton_order(zero) is None
    # reducing a basis monomial returns exactly that monomial
    w = lat.reduce(LaurentPolynomial.monomial((1, 0)))
    assert w.coords == {(0, 1): F(1)}
    assert lat.newton_order(w) == 1
    # a non-basis monomial of degree 1 lands on basis slots of degree <= 1
    w = lat.reduce(LaurentPolynomial.monomial((0, 1)))
    assert all(i != 2 for _, i in w.coords) and lat.newton_order(w) <= 1


def test_apply_t_is_linear_and_raises_order_by_at_most_one():
    rng = random.Random(17)
    for expr in ("u1 + u1^-1", "u1 + u2 + u1^-1*u2^-1", "u1 + u1^-2"):
        data = pipeline(expr)
        lat, pen = data.lattice, data.pencil
        mu = lat.mu
        for _ in range(20):
            x = BrieskornElement({
                (k, i): F(c)
                for i in range(mu)
                for k, c in enumerate([rng.randrange(-3, 4) for _ in range(rng.randrange(0, 3))])
                if c
            })
            if x.is_zero():
                continue
            tx = pen.apply_t(x)
            ox, otx = lat.newton_order(x), lat.newton_order(tx)
            assert otx is None or otx <= ox + 1
            # linearity against a basis decomposition
            y = pen.apply_t(x + x)
            assert (y - tx - tx).is_zero()


def test_apply_t_values_match_the_reduced_forms():
    # t(theta^k [g du/u]) = theta^k [f g du/u] + k theta^(k+1) [g du/u]
    rng = random.Random(43)
    for expr in [e for e, _, _ in CORPUS] + [LADDER[0]]:
        data = pipeline(expr)
        lat, pen, f = data.lattice, data.pencil, data.f
        pts = data.polytope.enumerate_sublevel(2)
        for _ in range(20):
            k = rng.randrange(3)
            g = LaurentPolynomial(f.arity, {e: F(rng.choice((-2, -1, 1, 3)))
                                            for e in rng.sample(pts, min(3, len(pts)))})
            assert pen.apply_t(lat.reduce({k: g})) == lat.reduce({k: f * g, k + 1: g * k}), \
                (expr, k, g)


def test_facet_identity_low_levels():
    data = pipeline("u1 + u2 + u1^-1*u2^-1")
    lat = data.lattice
    for e in data.polytope.enumerate_sublevel(2):
        g = LaurentPolynomial.monomial(e)
        for fx in range(len(data.polytope.facets)):
            assert lat.check_facet_identity(g, fx)


def test_spectrum_hand_values():
    sp = pipeline("u1 + u1^-1").spectrum
    assert sp.pairs == ((F(0), 1), (F(1), 1))
    assert sp.poly == (F(0), F(1), F(1))
    assert sp.factored == "S*(S+1)"
    assert sp.variance_lhs == F(1, 4) and sp.variance_rhs == F(1, 12)
    sp = pipeline("u1 + u1^-2").spectrum
    assert sp.pairs == ((F(0), 1), (F(1, 2), 1), (F(1), 1))
    assert sp.factored == "S*(S+1/2)*(S+1)"
    sp = pipeline("u1 + u2 + u3 + u1^-1 + u2^-1 + u3^-1").spectrum
    assert sp.pairs == ((F(0), 1), (F(1), 3), (F(2), 3), (F(3), 1))
    assert sp.factored == "S*(S+1)^3*(S+2)^3*(S+3)"


def test_spectrum_polynomial_consistency():
    for expr, _, mu in CORPUS:
        sp = pipeline(expr).spectrum
        # SP has degree mu, leading coefficient 1, and root 0 once
        assert len(sp.poly) == mu + 1
        assert sp.poly[-1] == 1
        assert sp.poly[0] == 0 and sp.poly[1] != 0
        assert sum(nu for _, nu in sp.pairs) == mu


def test_integer_spectrum_polynomial_matches_pol_mul():
    rng = random.Random(41)
    for _ in range(200):
        d = rng.randint(1, 12)
        scaled = sorted(rng.randint(0, 3 * d) for _ in range(rng.randint(1, 30)))
        assert _spectrum_polynomial(scaled, d) == reference_spectrum_polynomial(
            [F(r, d) for r in scaled])
    basis = pipeline("u1^12 + u2^12 + u1^-3*u2^-5").algebra.basis()
    assert len(basis) == 240
    assert pipeline("u1^12 + u2^12 + u1^-3*u2^-5").spectrum.poly == \
        reference_spectrum_polynomial(basis.degrees)
