"""Nondegeneracy certificate from the window levels of the graded quotient."""

import random
from fractions import Fraction
from types import SimpleNamespace

from conftest import (
    CORPUS,
    DEGENERATE,
    SQUARE_FACET,
    edge_polynomials,
    pipeline,
    planar_hull,
    planar_nondegenerate,
    reference_face_dim,
    reference_vertex_ids,
)
from newton_spectra import (
    DegenerateError,
    JacobianAlgebra,
    LaurentPolynomial,
    NotConvenientError,
    is_nondegenerate,
    milnor_number,
    newton_polytope,
    parse_laurent,
)
from newton_spectra.laurent import term_key

MIRROR4 = "u1 + u2 + u3 + u4 + u1^-1*u2^-1*u3^-1*u4^-1"
DEGENERATE_EDGE_3 = "u1^2*u3 - 2*u1*u2*u3 + u2^2*u3 + u3 + u1^-1*u2^-1*u3^-1 + u1*u2"


def _certificate(expr):
    f, _ = parse_laurent(expr)
    algebra = JacobianAlgebra(f, newton_polytope(f))
    return algebra, is_nondegenerate(algebra)


def test_corpus_certificates():
    for expr, n, _ in CORPUS:
        algebra = pipeline(expr).algebra
        cert = is_nondegenerate(algebra)
        assert cert.ok, expr
        d = algebra.d
        assert cert.window == (n * d + 1, n * d + d), expr
        assert cert.window_dims == (0,) * d, expr
        assert cert.degenerate_level is None
        assert len(cert.faces) == len(algebra.polytope.faces)
        obj = cert.to_json_obj()
        assert list(obj) == [
            "ok", "method", "window", "window_dims", "faces", "degenerate_level",
        ]
        assert obj["method"] == "graded-quotient"
        assert obj["window"] == [n * d + 1, n * d + d]


def test_proper_face_counts():
    # triangle: 3 vertices + 3 edges
    p = pipeline("u1 + u2 + u1^-1*u2^-1").polytope
    faces = p.faces
    dims = sorted(len(ids) for ids in faces)
    assert dims == [1, 1, 1, 2, 2, 2]
    # octahedron: 6 vertices + 12 edges + 8 facets
    p = pipeline("u1 + u2 + u3 + u1^-1 + u2^-1 + u3^-1").polytope
    assert len(p.faces) == 26


def _face_oracle_agrees(f, p, cert=None):
    """Vertices and certificate faces of f against the rank references.

    Without a certificate, one is built on a quotient with an empty window:
    the face list reads the polytope alone, and a random four-variable
    quotient can take tens of seconds.  Returns the number of support
    points on the boundary that are not vertices.
    """
    pts = [e for e in f.support() if any(e)]
    expected = sorted((pts[i] for i in reference_vertex_ids(pts, p.halfspaces)), key=term_key)
    assert list(p.vertices) == expected, pts
    if cert is None:
        empty_window = SimpleNamespace(polytope=p, n=f.arity, d=p.scale,
                                       graded_dims=lambda lo, hi: [0] * (hi - lo + 1))
        cert = is_nondegenerate(empty_window)
    assert list(cert.faces) == [
        (reference_face_dim(p, ids), tuple(p.vertices[i] for i in ids)) for ids in p.faces
    ], pts
    boundary = {q for q in pts for a, b in p.halfspaces if sum(x * y for x, y in zip(a, q)) == b}
    return len(boundary - set(p.vertices))


def test_vertices_and_face_dimensions_match_the_rank_references():
    # (1, 1) lies inside the edge from (2, 0) to (0, 2) and is no vertex
    f, _ = parse_laurent("u1^2 + u1*u2 + u2^2 + u1^-1*u2^-1")
    p = newton_polytope(f)
    assert p.vertices == ((-1, -1), (0, 2), (2, 0))
    assert _face_oracle_agrees(f, p) == 1
    for expr in [expr for expr, _, _ in CORPUS] + [MIRROR4, SQUARE_FACET]:
        data = pipeline(expr)
        _face_oracle_agrees(data.f, data.polytope, data.certificate)
    rng = random.Random(20261024)
    radius = {1: 4, 2: 3, 3: 2, 4: 1}
    inside_faces = 0
    for i in range(240):
        n = 1 + i % 4
        while True:
            pts = {tuple(rng.randint(-radius[n], radius[n]) for _ in range(n))
                   for _ in range(rng.randint(n + 1, 3 * n + 3))} - {(0,) * n}
            f = LaurentPolynomial(n, dict.fromkeys(pts, 1))
            try:
                p = newton_polytope(f)
                break
            except ValueError:  # not convenient, or no point left
                continue
        inside_faces += _face_oracle_agrees(f, p)
    assert inside_faces > 100


def test_degenerate_square_term_detected_exactly():
    # (u1 - u2)^2 vanishes with its log-partials at u1 = u2 on the edge
    # carrying that binomial square; the quotient survives at level 5/2
    algebra, cert = _certificate(DEGENERATE)
    assert not cert.ok
    assert cert.window == (5, 6) and cert.window_dims == (1, 1)
    assert cert.degenerate_level == 5
    err = cert.error()
    assert isinstance(err, DegenerateError) and err.level == 5
    assert "level 5/2 above the top spectral level 2" in str(err)
    assert cert.to_json_obj()["degenerate_level"] == 5


def test_perturbed_square_is_fine():
    _, cert = _certificate("u1^2 - u1*u2 + u2^2 + u1^-1*u2^-1")
    assert cert.ok


def test_certificate_covers_three_and_four_variables():
    # no dimension limit: the n = 4 mirror has faces of dimension 0..3
    algebra, cert = _certificate(MIRROR4)
    assert cert.ok and cert.window == (5, 5) and cert.window_dims == (0,)
    assert sorted({dim for dim, _ in cert.faces}) == [0, 1, 2, 3]
    assert len(cert.faces) == 30
    assert len(algebra.basis()) == milnor_number(algebra.polytope) == 5
    _, cert = _certificate("u1*u2*u3 + u1^-1 + u2^-1 + u3^-1")
    assert cert.ok


def test_degenerate_edge_in_three_variables():
    # (u1 - u2)^2 * u3 puts a repeated torus root on an edge of the hull
    _, cert = _certificate(DEGENERATE_EDGE_3)
    assert not cert.ok
    assert cert.window == (7, 8) and cert.degenerate_level == 7


def test_degenerate_two_face_detected_by_window():
    # (1+u1)(1+u2)*u3 vanishes with both log-partials at u1 = u2 = -1 on
    # the square facet, while every edge of that square stays squarefree
    _, cert = _certificate(SQUARE_FACET)
    assert not cert.ok
    assert cert.window == (4, 4) and cert.degenerate_level == 4


def test_window_not_the_count_certifies():
    # both degenerate inputs have graded dimensions up to level n that add
    # up to the lattice volume; only the window exposes them
    for expr in (DEGENERATE, SQUARE_FACET):
        algebra, cert = _certificate(expr)
        top = algebra.n * algebra.d
        dims = [algebra.graded_dimension(r) for r in range(top + 1)]
        assert sum(dims) == milnor_number(algebra.polytope) == 8, expr
        algebra.check_milnor(8)
        assert not cert.ok and any(cert.window_dims), expr


def _random_planar(rng):
    """A random convenient f in two variables, made degenerate half the time.

    The degenerate half overwrites one hull edge of lattice length >= 2 with
    c * (t - s)^2 * (t + 1)^(g - 2), which has the torus root s twice; zero
    coefficients inside the edge leave the hull unchanged.
    """
    while True:
        size = rng.randint(4, 7)
        pts = {(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(size)}
        pts.discard((0, 0))
        terms = {e: Fraction(rng.choice([-2, -1, 1, 2, 3])) for e in pts}
        try:
            newton_polytope(LaurentPolynomial(2, terms))
        except NotConvenientError:
            continue
        if rng.random() < 0.5:
            hull = planar_hull(list(terms))
            edges = [(a, b, len(poly) - 1) for a, b, poly in zip(
                hull, hull[1:] + hull[:1], edge_polynomials(terms)) if len(poly) >= 3]
            if not edges:
                continue
            a, b, g = rng.choice(edges)
            poly = [Fraction(rng.choice([-1, 1, 2]))]
            roots = [rng.choice([Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)])] * 2
            roots += [Fraction(-1)] * (g - 2)
            for r in roots:
                poly = [x - r * y for x, y in zip([Fraction(0)] + poly, poly + [Fraction(0)])]
            step = ((b[0] - a[0]) // g, (b[1] - a[1]) // g)
            for k, c in enumerate(poly):
                e = (a[0] + k * step[0], a[1] + k * step[1])
                if c:
                    terms[e] = c
                else:
                    terms.pop(e, None)
        return terms


def test_window_verdict_matches_edge_oracle_in_two_variables():
    rng = random.Random(20260)
    verdicts = []
    for _ in range(60):
        terms = _random_planar(rng)
        f = LaurentPolynomial(2, terms)
        algebra = JacobianAlgebra(f, newton_polytope(f))
        expected = planar_nondegenerate(terms)
        assert is_nondegenerate(algebra).ok == expected, f.format(("u1", "u2"))
        verdicts.append(expected)
    # both verdicts occur often enough to mean something
    assert verdicts.count(True) >= 15 and verdicts.count(False) >= 15
