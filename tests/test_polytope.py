"""Newton polytope: facet forms, the gauge phi, and the volume formula.

The Milnor numbers frozen in the corpus come from n!*vol computed by
facet triangulation; test_mu_matches_ehrhart_point_count re-derives each
one independently by counting lattice points in dilates of the polytope
and fitting the counting polynomial.
"""

from fractions import Fraction
from itertools import product
from math import factorial

import pytest

from conftest import CORPUS, NOT_CONVENIENT, pipeline
from newton_spectra import NotConvenientError, milnor_number, newton_polytope, parse_laurent


def test_triangle_facets_exact():
    p = pipeline("u1 + u2 + u1^-1*u2^-1").polytope
    assert p.convenient and p.scale == 1
    assert set(p.vertices) == {(1, 0), (0, 1), (-1, -1)}
    forms = {tuple(f.coeffs) for f in p.facets}
    assert forms == {(1, 1), (-2, 1), (1, -2)}
    # each facet form is 1 exactly on its own two vertices
    for f in p.facets:
        assert len(f.vertex_ids) == 2
        for i in f.vertex_ids:
            assert f.value(p.vertices[i]) == 1


def test_phi_values_triangle():
    p = pipeline("u1 + u2 + u1^-1*u2^-1").polytope
    assert p.phi_exp((0, 0)) == 0
    assert p.phi_exp((1, 0)) == 1
    assert p.phi_exp((-1, 0)) == 2
    assert p.phi_exp((1, 1)) == 2
    assert p.phi_exp((-1, -1)) == 1
    f, _ = parse_laurent("u1^-1 + u2")
    assert p.phi(f) == 2
    assert p.phi(f - f) is None


def test_fractional_scale():
    # hull [-2, 1]: facet forms x and -x/2, so the denominators force scale 2
    p = pipeline("u1 + u1^-2").polytope
    assert p.scale == 2
    assert p.phi_exp((-1,)) == Fraction(1, 2)
    assert p.scaled_phi_exp((-1,)) == 1
    assert p.phi_exp((3,)) == 3


def test_convenient_flag_and_gate():
    for expr in NOT_CONVENIENT:
        f, _ = parse_laurent(expr)
        p = newton_polytope(f)
        assert not p.convenient
        assert p.diagnostic
        with pytest.raises(NotConvenientError):
            p.require_convenient()
    # constant-only and zero inputs are rejected outright
    with pytest.raises(ValueError):
        newton_polytope(parse_laurent("3")[0])


def test_interior_origin_examples_pass_gate():
    for expr, _, _ in CORPUS:
        p = pipeline(expr).polytope
        p.require_convenient()
        # 0 strictly inside: every facet form is positive somewhere on the
        # support and phi vanishes only at the origin among small points
        assert p.phi_exp(tuple([0] * p.arity)) == 0
        for e in product(*[(-1, 0, 1)] * p.arity):
            if any(e):
                assert p.phi_exp(e) > 0


def test_enumerate_sublevel_triangle():
    p = pipeline("u1 + u2 + u1^-1*u2^-1").polytope
    level1 = p.enumerate_sublevel(1)
    assert (0, 0) in level1 and (1, 0) in level1 and (-1, -1) in level1
    assert (-1, 0) not in level1
    assert level1 == sorted(level1, key=lambda e: (sum(e), e))  # graded-lex
    # enumeration agrees with a brute-force box scan
    box = [
        e
        for e in product(range(-4, 5), repeat=2)
        if p.phi_exp(e) <= 2
    ]
    assert set(p.enumerate_sublevel(2)) == set(box)
    assert p.enumerate_sublevel(Fraction(-1)) == []


def _point_count(p, k):
    """|kP| via an independent box scan using only the halfspace data."""
    n = p.arity
    ranges = []
    for j in range(n):
        lo = min(v[j] for v in p.vertices) * k
        hi = max(v[j] for v in p.vertices) * k
        ranges.append(range(lo, hi + 1))
    count = 0
    for e in product(*ranges):
        if all(sum(a * x for a, x in zip(normal, e)) <= k * b for normal, b in p.halfspaces):
            count += 1
    return count


def _fit_leading_coeff(values, deg):
    """Degree-deg leading coefficient of the polynomial through (k, values[k])."""
    diffs = [Fraction(v) for v in values]
    for step in range(1, deg + 1):
        diffs = [(diffs[i + 1] - diffs[i]) / step for i in range(len(diffs) - 1)]
    # one extra sample point: a constant top difference certifies the degree
    assert len(set(diffs)) == 1
    return diffs[0]


def test_mu_matches_ehrhart_point_count():
    # n!*vol equals the leading coefficient of the lattice-point counting
    # polynomial of the dilates, an algorithm with no shared volume code
    for expr, n, mu in CORPUS:
        p = pipeline(expr).polytope
        counts = [_point_count(p, k) for k in range(n + 2)]
        lead = _fit_leading_coeff(counts, n)
        assert factorial(n) * lead == mu, expr
        assert milnor_number(p) == mu, expr


def test_volume_invariant_under_coordinate_swap():
    f, _ = parse_laurent("u1^2 + u2 + u1^-1*u2^-1")
    g, _ = parse_laurent("u2^2 + u1 + u1^-1*u2^-1")
    assert milnor_number(newton_polytope(f)) == milnor_number(newton_polytope(g)) == 5


def test_json_shape():
    p = pipeline("u1 + u1^-1").polytope
    obj = p.to_json_obj()
    assert obj["vars"] == 1 and obj["convenient"] is True
    assert sorted(map(tuple, obj["vertices"])) == [(-1,), (1,)]
    assert {tuple(fc["coeffs"]) for fc in obj["facets"]} == {("1",), ("-1",)}
    q = newton_polytope(parse_laurent("u1 + u2")[0])
    qobj = q.to_json_obj()
    assert qobj["convenient"] is False and "halfspaces" in qobj and qobj["diagnostic"]
