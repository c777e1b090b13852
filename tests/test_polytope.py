"""Newton polytope: facet forms, the gauge phi, and the volume formula.

The Milnor numbers frozen in the corpus come from n!*vol computed by
facet triangulation; test_mu_matches_ehrhart_point_count re-derives each
one independently by counting lattice points in dilates of the polytope
and fitting the counting polynomial, on the corpus and on seeded random
polytopes.  The simplex determinants are checked against the Leibniz
formula, and the face lattice against Euler's relation.
"""

import random
from fractions import Fraction
from itertools import product
from math import factorial, lcm

import pytest

from conftest import (
    CORPUS,
    NOT_CONVENIENT,
    dense_det,
    dense_rank,
    pipeline,
    reference_enumerate_sublevel,
    reference_hull_halfspaces,
)
from newton_spectra import (
    LaurentPolynomial,
    NotConvenientError,
    milnor_number,
    newton_polytope,
    parse_laurent,
)
from newton_spectra import polytope as polytope_mod
from newton_spectra.cli import main


def test_triangle_facets_exact():
    p = pipeline("u1 + u2 + u1^-1*u2^-1").polytope
    assert p.scale == 1
    assert set(p.vertices) == {(1, 0), (0, 1), (-1, -1)}
    forms = {tuple(f.coeffs) for f in p.facets}
    assert forms == {(1, 1), (-2, 1), (1, -2)}
    # each facet form L = a / b is 1 exactly on its own two vertices: a.v == b
    halfspaces = {tuple(Fraction(x, b) for x in a): (a, b) for a, b in p.halfspaces}
    for f in p.facets:
        a, b = halfspaces[f.coeffs]
        on = [i for i, v in enumerate(p.vertices) if sum(x * y for x, y in zip(a, v)) == b]
        assert len(f.vertex_ids) == 2 and f.vertex_ids == tuple(on)


def test_phi_values_triangle():
    p = pipeline("u1 + u2 + u1^-1*u2^-1").polytope
    assert p.phi_exp((0, 0)) == 0
    assert p.phi_exp((1, 0)) == 1
    assert p.phi_exp((-1, 0)) == 2
    assert p.phi_exp((1, 1)) == 2
    assert p.phi_exp((-1, -1)) == 1
    f, _ = parse_laurent("u1^-1 + u2")
    assert Fraction(p.scaled_phi(f), p.scale) == 2
    assert p.scaled_phi(f - f) is None


def test_fractional_scale():
    # hull [-2, 1]: facet forms x and -x/2, so the denominators force scale 2
    p = pipeline("u1 + u1^-2").polytope
    assert p.scale == 2
    assert p.phi_exp((-1,)) == Fraction(1, 2)
    assert p.scaled_phi_exp((-1,)) == 1
    assert p.phi_exp((3,)) == 3


def test_convenient_flag_and_gate():
    for expr in NOT_CONVENIENT:
        with pytest.raises(NotConvenientError):
            newton_polytope(parse_laurent(expr)[0])
    # constant-only and zero inputs are rejected outright
    with pytest.raises(ValueError):
        newton_polytope(parse_laurent("3")[0])


def test_interior_origin_examples_pass_gate():
    for expr, _, _ in CORPUS:
        p = pipeline(expr).polytope
        # 0 strictly inside: every facet form is positive somewhere on the
        # support and phi vanishes only at the origin among small points
        assert p.phi_exp(tuple([0] * p.arity)) == 0
        for e in product(*[(-1, 0, 1)] * p.arity):
            if any(e):
                assert p.phi_exp(e) > 0


def test_enumerate_sublevel_triangle():
    p = pipeline("u1 + u2 + u1^-1*u2^-1").polytope
    level1 = list(p.enumerate_sublevel(1))
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
    assert p.enumerate_sublevel(Fraction(-1)) == {}


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


def _ehrhart_mu(p):
    """n! times the leading coefficient of k -> |kP| over k = 0..n+1."""
    n = p.arity
    counts = [_point_count(p, k) for k in range(n + 2)]
    return factorial(n) * _fit_leading_coeff(counts, n)


def test_mu_matches_ehrhart_point_count():
    # n!*vol equals the leading coefficient of the lattice-point counting
    # polynomial of the dilates, an algorithm with no shared volume code
    for expr, n, mu in CORPUS:
        p = pipeline(expr).polytope
        assert _ehrhart_mu(p) == mu, expr
        assert milnor_number(p) == mu, expr


def _random_convenient(rng, n, size, radius):
    """A seeded convenient polytope: random supports until one is not refused."""
    while True:
        pts = {tuple(rng.randint(-radius, radius) for _ in range(n)) for _ in range(size)}
        pts.discard((0,) * n)
        if not pts:
            continue
        try:
            return newton_polytope(LaurentPolynomial(n, dict.fromkeys(pts, 1)))
        except NotConvenientError:
            continue


def test_mu_matches_ehrhart_point_count_on_random_polytopes():
    # the pulling triangulation over the face lattice against the point
    # counts; about a fifth of these hulls have a non-simplicial facet
    rng = random.Random(20261020)
    for i in range(120):
        n = 2 + i % 2
        p = _random_convenient(rng, n, rng.randint(n + 2, 3 * n + 2), 2)
        assert milnor_number(p) == _ehrhart_mu(p), p.vertices


def test_faces_satisfy_euler_relation():
    # sum over the proper faces of (-1)^dim is 1 - (-1)^n (Euler-Poincare)
    polytopes = [pipeline(expr).polytope for expr, _, _ in CORPUS]
    rng = random.Random(20261021)
    for i in range(210):
        n = 2 + i % 3
        polytopes.append(_random_convenient(rng, n, rng.randint(n + 2, 2 * n + 2), 2))
    for p in polytopes:
        n = p.arity
        total = 0
        for ids in p.faces:
            vs = [p.vertices[i] for i in ids]
            total += (-1) ** dense_rank([[x - y for x, y in zip(v, vs[0])] for v in vs])
        assert total == 1 - (-1) ** n, p.vertices
        facets = {f.vertex_ids for f in p.facets}
        assert facets <= set(p.faces) and p.faces == tuple(sorted(p.faces))
        assert {(i,) for i in range(len(p.vertices))} <= set(p.faces)


def test_pruned_enumeration_and_integer_hull_match_the_references():
    # the integer minors against the per-subset kernel hull, and the pruned
    # walk against the scan of the whole dilated box, on convenient supports
    rng = random.Random(20261019)
    radius = {1: 4, 2: 3, 3: 2, 4: 1}
    points = 0
    for i in range(300):
        n = 1 + i % 4
        p = _random_convenient(rng, n, rng.randint(n + 1, 2 * n + 2), radius[n])
        pts = sorted(set(p.vertices) | {
            tuple(rng.randint(-radius[n], radius[n]) for _ in range(n)) for _ in range(2)
        } - {(0,) * n})
        # extra points inside or outside the hull change the candidate subsets
        assert polytope_mod._hull_halfspaces(pts, n) == reference_hull_halfspaces(pts, n)
        assert list(p.halfspaces) == reference_hull_halfspaces(list(p.vertices), n)
        # the scale and the integer forms read off the offsets equal the lcm
        # of the facet coefficients' denominators and scale * L
        assert p.scale == lcm(*(c.denominator for f in p.facets for c in f.coeffs))
        assert p._scaled_forms == tuple(
            tuple(int(c * p.scale) for c in f.coeffs) for f in p.facets)
        for alpha in (-1, 0, Fraction(1, 2), 1, n + 1, Fraction(5, 3)):
            got = p.enumerate_sublevel(alpha)
            assert list(got) == reference_enumerate_sublevel(p, alpha), (p.vertices, alpha)
            # the walk's level of each point is the gauge's
            assert all(k == p.scaled_phi_exp(e) for e, k in got.items()), (p.vertices, alpha)
            if alpha < 0:
                assert got == {}
            points += len(got)
    assert points > 10000


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


def test_det_matches_leibniz_formula():
    # the signed determinant of the volume and the hull normals; rank-deficient
    # matrices are built as products of thin factors, so a share is singular
    rng = random.Random(20261018)
    singular = 0
    for _ in range(600):
        n = rng.randint(1, 5)
        k = rng.choice([n, n, n - 1]) or 1
        left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(n)]
        right = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        a = [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)] for row in left]
        want = dense_det(a)
        assert polytope_mod._det(a) == want, a
        singular += want == 0
    assert 100 <= singular <= 500


# the refusal of every hull here, as printed by the implementation that
# still built a polytope object for a non-convenient support
NOT_CONVENIENT_MESSAGES = {
    "u1 + u2": "Newton polytope has dimension 1 < 2",
    "u1 + u1^2": "origin is not strictly interior (facet [-1] . x <= -1)",
    "u1 + u2 + u1*u2": "origin is not strictly interior (facet [-1, -1] . x <= -1)",
    "u1 + u2 + u3": "Newton polytope has dimension 2 < 3",
    "u1*u3 + u2*u3 + u1^-1*u2^-1*u3 + u3": "Newton polytope has dimension 2 < 3",
    "u1 + u1^2*u2 + u1^3*u2^2 + u1^-1*u2^-2": "Newton polytope has dimension 1 < 2",
    "u1*u2*u4 + u1^2*u2^2*u4 + u1^-1*u3*u4 + u3^2*u4 + u1*u3*u4":
        "Newton polytope has dimension 3 < 4",
    "u1 + u1^2*u2 + u1^3*u2^2 + u1*u3 + u1^-1*u3^-1 + u1^-3*u2^-2":
        "origin is not strictly interior (facet [-2, 3, 2] . x <= 0)",
}


def test_not_convenient_polytope_bytes_unchanged(capsys):
    assert set(NOT_CONVENIENT) <= set(NOT_CONVENIENT_MESSAGES)
    for expr, diagnostic in NOT_CONVENIENT_MESSAGES.items():
        with pytest.raises(NotConvenientError) as info:
            newton_polytope(parse_laurent(expr)[0])
        assert str(info.value) == "polynomial is not convenient: " + diagnostic, expr
        assert info.value.diagnostic == diagnostic
    # the CLI prints no polytope section for a rejected input, only the
    # diagnostic on stderr
    for expr in NOT_CONVENIENT:
        assert main(["polytope", "--json", expr, "--seed", "0"]) == 2
        out, err = capsys.readouterr()
        diagnostic = NOT_CONVENIENT_MESSAGES[expr]
        assert (out, err) == ("", "error: polynomial is not convenient: %s\n" % diagnostic)
