"""Sparse Laurent polynomial arithmetic and the expression grammar."""

import random
from fractions import Fraction

import pytest

from newton_spectra import LaurentParseError, LaurentPolynomial, parse_laurent


def test_parse_simple():
    f, names = parse_laurent("u1 + u1^-1")
    assert names == ["u1"]
    assert f.arity == 1
    assert dict(f.terms) == {(1,): 1, (-1,): 1}


def test_parse_coefficients_and_products():
    f, names = parse_laurent("3*u1^2*u2 - 1/2*u2^-3 + 7")
    assert names == ["u1", "u2"]
    assert f.coeff((2, 1)) == 3
    assert f.coeff((0, -3)) == Fraction(-1, 2)
    assert f.coeff((0, 0)) == 7


def test_parse_cancellation():
    f, _ = parse_laurent("u1 - u1")
    assert f.is_zero() and f.support() == []


def test_variable_order_from_indices():
    # indexed names define positions even when written out of order,
    # and gaps become unused variables
    f, names = parse_laurent("u2 + u1")
    assert names == ["u1", "u2"]
    f, names = parse_laurent("u3 + u1")
    assert names == ["u1", "u2", "u3"]
    assert f.coeff((0, 0, 1)) == 1


def test_variable_order_first_appearance():
    _, names = parse_laurent("y + x")
    assert names == ["y", "x"]


def test_explicit_names():
    f, names = parse_laurent("x + y^-1", ["x", "y"])
    assert names == ["x", "y"]
    assert dict(f.terms) == {(1, 0): 1, (0, -1): 1}
    with pytest.raises(LaurentParseError):
        parse_laurent("z + x", ["x", "y"])


def test_repeated_explicit_name_is_refused():
    # both copies would map to one index and lose a dimension
    with pytest.raises(LaurentParseError, match="variable 'x' named twice"):
        parse_laurent("x + x^-1", ["x", "x"])


@pytest.mark.parametrize(
    "bad",
    ["", "u1 +", "+ - u1", "u1^", "u1^x", "2*", "(u1 + u2)", "u1 u2", "3/0*u1", "$"],
)
def test_parse_errors(bad):
    with pytest.raises(LaurentParseError) as e:
        parse_laurent(bad)
    assert e.value.position >= 0


def test_format_parse_round_trip():
    rng = random.Random(5)
    for _ in range(25):
        arity = rng.randrange(1, 4)
        terms = {}
        for _ in range(rng.randrange(1, 6)):
            e = tuple(rng.randrange(-3, 4) for _ in range(arity))
            c = Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
            if c:
                terms[e] = c
        f = LaurentPolynomial(arity, terms)
        names = ["u%d" % (i + 1) for i in range(arity)]
        g, _ = parse_laurent(f.format(names), names)
        assert g == f


def test_ring_axioms_spot_checks():
    f, _ = parse_laurent("u1 + u2 + u1^-1*u2^-1")
    g, _ = parse_laurent("2*u1^2 - u2^-1", ["u1", "u2"])
    assert (f + g) - g == f
    assert f * g == g * f
    assert f * (g + 1) == f * g + f
    assert (f * g).coeff((0, 0)) == sum(
        cf * g.coeff((-e[0], -e[1])) for e, cf in f.terms.items()
    )
    assert f**3 == f * f * f
    assert (f**0).coeff((0, 0)) == 1


def test_shift_and_log_derivative():
    f, _ = parse_laurent("u1 + u1^-1")
    assert f * LaurentPolynomial.monomial((2,)) == parse_laurent("u1^3 + u1")[0]
    # u d/du multiplies each monomial by its exponent
    assert f.log_derivative(0) == parse_laurent("u1 - u1^-1")[0]
    g, _ = parse_laurent("u1^2*u2^-3")
    assert g.log_derivative(1) == parse_laurent("-3*u1^2*u2^-3")[0]
