"""Newton polytope: facet forms, the gauge phi, and the volume formula.

The Milnor numbers frozen in the corpus come from n!*vol computed by
facet triangulation; test_mu_matches_ehrhart_point_count re-derives each
one independently by counting lattice points in dilates of the polytope
and fitting the counting polynomial.  The simplex determinants are checked
against the Leibniz formula, and the vertices of lower-dimensional hulls
against a Caratheodory search.
"""

import hashlib
import json
import random
from fractions import Fraction
from itertools import product
from math import factorial

import pytest

from conftest import CORPUS, NOT_CONVENIENT, caratheodory_vertices, dense_det, pipeline
from newton_spectra import (
    LaurentPolynomial,
    NotConvenientError,
    milnor_number,
    newton_polytope,
    parse_laurent,
)
from newton_spectra import polytope as polytope_mod
from newton_spectra.cli import main
from newton_spectra.laurent import term_key


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


def test_det_matches_leibniz_formula():
    # |det| from the pivots of one echelon; rank-deficient matrices are
    # built as products of thin factors, so a share of them is singular
    rng = random.Random(20261018)
    singular = 0
    for _ in range(600):
        n = rng.randint(1, 5)
        k = rng.choice([n, n, n - 1]) or 1
        left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(n)]
        right = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        a = [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)] for row in left]
        want = abs(dense_det(a))
        assert polytope_mod._det(a) == want, a
        singular += want == 0
    assert 100 <= singular <= 500


def _low_dimensional_points(rng, n):
    """Distinct nonzero integer points on a random affine subspace of dim < n."""
    d = rng.randint(1, n - 1)
    base = [rng.randint(-2, 2) for _ in range(n)]
    dirs = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(d)]
    pts = set()
    for _ in range(rng.randint(2, 6)):
        coeffs = [rng.randint(-2, 2) for _ in range(d)]
        p = tuple(b + sum(c * v[j] for c, v in zip(coeffs, dirs)) for j, b in enumerate(base))
        if any(p):
            pts.add(p)
    return sorted(pts)


def test_low_dimensional_vertices_match_caratheodory():
    rng = random.Random(20261019)
    checked = interior = 0
    while checked < 1000:
        n = rng.randint(2, 4)
        pts = _low_dimensional_points(rng, n)
        if not pts:
            continue
        p = newton_polytope(LaurentPolynomial(n, dict.fromkeys(pts, 1)))
        assert not p.convenient and not p.halfspaces, pts
        want = caratheodory_vertices(pts)
        assert p.vertices == tuple(sorted(want, key=term_key)), pts
        checked += 1
        interior += len(want) < len(pts)
    assert interior >= 200


# sha256 of json.dumps(newton_polytope(f).to_json_obj(), indent=2), taken
# from the implementation that found the vertices of a lower-dimensional
# hull through integer Hermite forms
NOT_CONVENIENT_POLYTOPE_SHA256 = {
    "u1 + u2": "18450203b55cc678d28e605db3f915d580cb36851458cf829b36e1381b2a7a0d",
    "u1 + u1^2": "9e12b4689972c782229b06ca63a73afbb18703dffaa0c030b181ae78397c94d2",
    "u1 + u2 + u1*u2": "a41f3874a3acf4144d97fb462fa7cee30f8ce03cbfd7ed56e0b5f9c7b3713f6e",
    "u1 + u2 + u3": "677545b83e071f71fc260ff098c83236deb0dab9060f12d99e8cdfd50bd34bf7",
    "u1*u3 + u2*u3 + u1^-1*u2^-1*u3 + u3":
        "628e32e619dc397f6d96d031c3fc3a139e853ee90c935c1b3077a914d3b46ff8",
    "u1 + u1^2*u2 + u1^3*u2^2 + u1^-1*u2^-2":
        "833481acf4a39b28c55e03366aeae04c86dfb18ad66efa3820ef05cd6898f1b1",
    "u1*u2*u4 + u1^2*u2^2*u4 + u1^-1*u3*u4 + u3^2*u4 + u1*u3*u4":
        "5e8b212e959e49dc0abec00f733eb4199872504a016cb068c451884ee5f70eba",
    "u1 + u1^2*u2 + u1^3*u2^2 + u1*u3 + u1^-1*u3^-1 + u1^-3*u2^-2":
        "d273866049056cbc7948db5549dc6147b00764cc160d5819e9128ab4a75c74c6",
}


def test_not_convenient_polytope_bytes_unchanged(capsys):
    assert set(NOT_CONVENIENT) <= set(NOT_CONVENIENT_POLYTOPE_SHA256)
    for expr, digest in NOT_CONVENIENT_POLYTOPE_SHA256.items():
        obj = newton_polytope(parse_laurent(expr)[0]).to_json_obj()
        assert hashlib.sha256(json.dumps(obj, indent=2).encode()).hexdigest() == digest, expr
    # the CLI prints no polytope section for a rejected input, only the
    # diagnostic on stderr
    for expr in NOT_CONVENIENT:
        assert main(["polytope", "--json", expr, "--seed", "0"]) == 2
        out, err = capsys.readouterr()
        diagnostic = newton_polytope(parse_laurent(expr)[0]).diagnostic
        assert (out, err) == ("", "error: polynomial is not convenient: %s\n" % diagnostic)
