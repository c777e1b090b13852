"""End-to-end acceptance battery.

Each test pins one published contract of the pipeline on the example corpus:
the Milnor number computed two independent ways, the mirror family, spectrum
symmetry, the division and facet identities, Newton-order laws, the normal
form of the pencil with its filtration tests, the Euler field, the variance
report, and byte-determinism of the JSON report.  Everything is exact
rational arithmetic; there are no tolerances anywhere.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import warnings
from fractions import Fraction as F

import pytest

from conftest import (
    CORPUS,
    DEGENERATE,
    LADDER,
    NEGATIVE,
    NOT_CONVENIENT,
    dense,
    pipeline,
    recipe_draws,
    sparse,
)
from test_filtration_oracles import oracle_v_solution
from test_jacobian import _bruteforce_quotient_dim

from newton_spectra import (
    BirkhoffSolution,
    BrieskornElement,
    JacobianAlgebra,
    LaurentPolynomial,
    analyze_text,
    divide,
    euler_field,
    gauge_residual,
    milnor_number,
    newton_polytope,
    parse_laurent,
    pencil_in_gauge,
    solve_birkhoff,
    spectrum,
    verify_v_plus,
    verify_v_solution,
)
from newton_spectra.cli import _emit_json, main
from newton_spectra.frobenius import _column_orders
from newton_spectra.linalg import charpoly, identity

MIRRORS = {
    1: "u1 + u1^-1",
    2: "u1 + u2 + u1^-1*u2^-1",
    3: "u1 + u2 + u3 + u1^-1*u2^-1*u3^-1",
}


def _eig_moduli(detail):
    out = []
    for r, m in detail["eigenvalues"]:
        out.extend([abs(F(r))] * m)
    return sorted(out)


def _spectrum_moduli(sp):
    out = []
    for a, m in sp.pairs:
        out.extend([abs(a)] * m)
    return sorted(out)


# 1. the two-variable mirror has exactly three critical points, and the
#    volume route and the quotient route agree exactly


def test_three_critical_points_two_ways():
    f, _ = parse_laurent("u1 + u2 + u1^-1*u2^-1")
    p = newton_polytope(f)
    assert milnor_number(p) == 3
    algebra = JacobianAlgebra(f, p)
    assert len(algebra.basis().monomials) == 3
    algebra.check_milnor(3)


# 2. mirror family u1 + ... + un + (u1...un)^-1: mu = n+1 and the spectrum
#    is {0, 1, ..., n} with multiplicity one each; the n = 3 member is also
#    checked against a brute-force quotient-rank oracle


def test_mirror_family_spectrum():
    for n, expr in MIRRORS.items():
        f, _ = parse_laurent(expr)
        p = newton_polytope(f)
        assert milnor_number(p) == n + 1
        algebra = JacobianAlgebra(f, p)
        sp = spectrum(algebra)
        assert list(sp.pairs) == [(F(k), 1) for k in range(n + 1)]
    f, _ = parse_laurent(MIRRORS[3])
    p = newton_polytope(f)
    assert _bruteforce_quotient_dim(f, p, 4) == 4
    assert _bruteforce_quotient_dim(f, p, 5) == 4


# 3. spectrum invariants on the whole corpus: contained in [0, n], symmetric
#    about n/2, total multiplicity mu, and multiplicity one at 0


def test_spectrum_invariants_across_corpus():
    assert len(CORPUS) >= 8
    assert {n for _, n, _ in CORPUS} == {1, 2, 3}
    for expr, n, mu in CORPUS:
        sp = pipeline(expr).spectrum
        pairs = list(sp.pairs)
        assert sum(m for _, m in pairs) == mu, expr
        assert pairs[0] == (F(0), 1), expr
        assert all(0 <= a <= n for a, _ in pairs), expr
        lookup = dict(pairs)
        assert all(lookup.get(F(n) - a) == m for a, m in pairs), expr


# 4. division round-trip: 200 random forms of phi <= 3 per corpus
#    polynomial reassemble exactly and satisfy all four degree bounds


def test_division_round_trip_two_hundred_random_forms():
    rng = random.Random(20260814)
    for expr, n, _ in CORPUS:
        data = pipeline(expr)
        algebra, p = data.algebra, data.polytope
        d = algebra.d
        monos = list(p.enumerate_sublevel(3))
        for _ in range(200):
            chosen = rng.sample(monos, rng.randint(1, min(4, len(monos))))
            terms = {}
            for e in chosen:
                c = 0
                while c == 0:
                    c = rng.randint(-5, 5)
                terms[e] = F(c)
            w = LaurentPolynomial(n, terms)
            wit = divide(algebra, w)
            total = LaurentPolynomial.zero(n)
            for e, c in wit.a.items():
                total = total + LaurentPolynomial.monomial(e, c)
            for gi, xi in zip(wit.cofactors, algebra.log_derivs):
                total = total + gi * xi
            assert total == w, expr
            bound = p.scaled_phi(w)
            for gi, xi in zip(wit.cofactors, algebra.log_derivs):
                s = p.scaled_phi(gi)
                assert s is None or s <= bound - d, expr       # phi(g_i)    <= phi(w) - 1
                s = p.scaled_phi(gi * xi)
                assert s is None or s <= bound, expr           # phi(g_i xi) <= phi(w)
            s = p.scaled_phi(wit.deta)
            assert s is None or s <= bound - d, expr           # phi(deta)   <= phi(w) - 1
            for e in wit.a:
                assert p.scaled_phi_exp(e) <= bound, expr      # no high basis terms
            assert wit.verify(algebra), expr


# 5. the facet identity holds for every monomial of phi <= 3 and every facet


def test_facet_identities_on_all_low_monomials():
    for expr, _, _ in CORPUS:
        data = pipeline(expr)
        lat, p = data.lattice, data.polytope
        for e in p.enumerate_sublevel(3):
            g = LaurentPolynomial.monomial(e, F(1))
            for ix in range(len(p.facets)):
                assert lat.check_facet_identity(g, ix), (expr, e, ix)


# 6. Newton-order laws on 200 random lattice elements per corpus polynomial:
#    multiplying the coordinates by theta raises the order by exactly one,
#    and the t-action raises it by at most one


def _random_element(rng, mu):
    coords = {}
    for i in range(mu):
        for k in range(rng.randint(0, 3)):
            c = rng.randint(-3, 3)
            if c:
                coords[k, i] = F(c)
    return BrieskornElement(coords)


def test_newton_order_laws_on_random_elements():
    rng = random.Random(97)
    for expr, _, _ in CORPUS:
        data = pipeline(expr)
        lat, pen = data.lattice, data.pencil
        degrees = pen.degrees
        for _ in range(200):
            x = _random_element(rng, pen.mu)
            o = lat.newton_order(x)
            # coordinate form: the order is the top of k + alpha_i over the
            # nonzero coordinates theta^k e_i
            tops = [k + degrees[i] for k, i in x.coords]
            assert o == (max(tops) if tops else None)
            if o is None:
                continue
            assert lat.newton_order(x.theta_shift(1)) == o + 1
            ot = lat.newton_order(pen.apply_t(x))
            assert ot is None or ot <= o + 1


# 7. normal form for the mirrors n = 1, 2: exact gauge identity, both
#    filtration tests pass, frozen characteristic polynomials, and the
#    |eigenvalue| multiset of Ainf equals the spectrum; a basis that mixes
#    filtration levels is exhibited failing the spectral test


def test_normal_form_for_the_mirrors():
    frozen_charpoly = {1: [F(-4), F(0), F(1)], 2: [F(-27), F(0), F(0), F(1)]}
    for n in (1, 2):
        data = pipeline(MIRRORS[n])
        pen, sp = data.pencil, data.spectrum
        sol = solve_birkhoff(pen)
        assert isinstance(sol, BirkhoffSolution)
        assert gauge_residual(pen, sol.gauge, sol.a0, sol.ainf) == []
        levels = oracle_v_solution(pen.degrees, [dense(m) for m in sol.gauge],
                                   data.polytope.scale)
        assert all(level["ok"] for level in levels), levels
        assert verify_v_solution(pen, sol.gauge) is True
        okp, detail = verify_v_plus(sol.ainf, pen.degrees, sp.pairs)
        assert okp, detail
        assert charpoly(sol.a0) == frozen_charpoly[n]
        assert _eig_moduli(detail) == _spectrum_moduli(sp)


def test_non_adapted_basis_fails_spectral_test():
    # {w0 + theta w1, w1} is invertible over Q[theta] and still gives a
    # normal form of degree one, but it mixes the filtration levels and the
    # eigenvalue moduli betray it: {2, 1} instead of the spectrum {0, 1}
    data = pipeline(MIRRORS[1])
    pen, sp = data.pencil, data.spectrum
    wprime = [identity(2), sparse([[F(0), F(0)], [F(1), F(0)]])]
    amats = pencil_in_gauge(pen, wprime)
    assert len(amats) == 2
    assert dense(amats[0]) == [[F(0), F(2)], [F(2), F(0)]]
    assert dense(amats[1]) == [[F(2), F(0)], [F(0), F(-1)]]
    ok, detail = verify_v_plus(amats[1], pen.degrees, sp.pairs)
    assert not ok
    assert detail["spectral_match"] is False
    assert _eig_moduli(detail) == [F(1), F(2)]
    # the column-rescaled basis {w0, t(w0)} = {w0, 2 w1}, by contrast, only
    # rescales the normal form and still passes the spectral test; the trace
    # identity tr(Ainf) = sum of the spectrum = 1 rules out Ainf = 0 for
    # every basis of this lattice
    rescale = [sparse([[F(1), F(0)], [F(0), F(2)]])]
    amats = pencil_in_gauge(pen, rescale)
    assert dense(amats[0]) == [[F(0), F(4)], [F(1), F(0)]]
    assert dense(amats[1]) == [[F(0), F(0)], [F(0), F(1)]]
    assert charpoly(amats[0]) == [F(-4), F(0), F(1)]
    ok, _ = verify_v_plus(amats[1], pen.degrees, sp.pairs)
    assert ok


# 8. Frobenius data: homogeneity constant D = 2 - n on the whole corpus;
#    frozen Euler field for the two-variable mirror


def test_homogeneity_and_euler_field():
    for expr, n, _ in CORPUS:
        data = pipeline(expr)
        sol = solve_birkhoff(data.pencil)
        assert isinstance(sol, BirkhoffSolution), expr
        fid = euler_field(data.algebra, data.pencil, sol, data.spectrum)
        assert fid.charge == 2 - n, expr
        assert fid.alpha_min == 0 and fid.primitive_index == 0, expr
    data = pipeline(MIRRORS[2])
    fid = euler_field(
        data.algebra, data.pencil, solve_birkhoff(data.pencil),
        data.spectrum,
    )
    assert fid.c == (F(0), F(3), F(0))
    assert fid.euler_text == "t0*d0 + 3*d1 - t2*d2"


# 9. variance of the spectrum: reported, never asserted -- the report must
#    be well-formed and any violation surfaces as a warning, not a failure


def test_variance_reported_not_asserted():
    findings = []
    for expr, n, mu in CORPUS:
        sp = pipeline(expr).spectrum
        var = sp.to_json_obj()["variance"]
        lhs = F(var["lhs"])
        assert lhs == sum((m * (a - F(n, 2)) ** 2 for a, m in sp.pairs),
                          F(0)) / mu, expr
        assert F(var["rhs"]) == F(n, 12), expr
        assert var["satisfied"] == (lhs >= F(n, 12)), expr
        if not var["satisfied"]:
            findings.append((expr, str(lhs), str(F(n, 12))))
    if findings:
        warnings.warn("variance inequality violated on: %r" % (findings,))


# 10. the JSON report is byte-identical across independent interpreter runs
#     (different hash seeds) for every corpus input


def test_report_bytes_deterministic_for_every_corpus_input():
    for expr, _, _ in CORPUS:
        runs = []
        for seed in ("0", "9001"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-m", "newton_spectra.cli",
                 "analyze", expr, "--json"],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, (expr, proc.stderr)
            runs.append(proc.stdout)
        assert runs[0] == runs[1], expr


# 11. ladder regression: u1^10 + u1^-10 (mu = 20) used to spend minutes in a
#     divisor search for the eigenvalues of Ainf; it now finishes in seconds
#     with every flag true, and the report does not depend on `python -O`


def _cli_stdout(argv, *flags):
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "newton_spectra.cli", *argv],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONHASHSEED="0"),
    )
    assert proc.returncode == 0, (argv, flags, proc.stderr)
    return proc.stdout


def _analyze_json(expr, *flags):
    return _cli_stdout(["analyze", "--json", expr], *flags)


def test_ladder_mu_twenty_finishes_with_every_flag():
    report = json.loads(_analyze_json("u1^10+u1^-10"))
    assert report["mu"] == 20
    assert report["birkhoff"]["flags"] == {
        "v_solution": True, "v_plus": True, "opposite": True, "b_opposed": True,
    }
    spec = sorted(abs(F(p["alpha"])) for p in report["spectrum"]["pairs"]
                  for _ in range(p["nu"]))
    assert _eig_moduli(report["birkhoff"]["spectral"]) == spec and len(spec) == 20


def test_report_bytes_unchanged_under_python_O():
    # u1^3 + u2^3 + u1^-1*u2^-1 has three residue classes and a gauge of
    # theta degree 1, so it runs the graded model's explicit checks; the
    # octahedron runs the nondegeneracy certificate in three variables;
    # `check` reads its gates off the same explicit re-checks
    runs = [["analyze", "--json", expr] for expr in (
        "u1^6+u1^-6", "u1^3 + u2^3 + u1^-1*u2^-1",
        "u1 + u2 + u3 + u1^-1 + u2^-1 + u3^-1")]
    runs.append(["check", "u1^3 + u2^3 + u1^-1*u2^-1"])
    for argv in runs:
        assert _cli_stdout(argv, "-O") == _cli_stdout(argv), argv


# 12. ladder regression outside the benchmark oracle: the sha256 of the
#     `birkhoff`, `spectrum` and `pencil` sections (json.dumps(section,
#     indent=2), as in perfbench/oracle.json).  The first three `birkhoff`
#     digests were taken from the implementation that computed F'^k from
#     dense window matrices, the mu = 84 and mu = 54 ones from the one that
#     built dense gauge rows and residuals (each took about 3 s there and
#     takes under 1 s now, so an input that turns slow again shows in the
#     suite's time), and the mu = 240 one from the one that rebuilt an
#     echelon of F'^k for every k; the `spectrum` and `pencil` digests from
#     the one that divided on LaurentPolynomial arithmetic and multiplied
#     SP(S) out over Fractions; all six end with every flag true

LADDER_SECTION_SHA256 = {
    "u1^4 + u2^4 + u1^-1*u2^-1": {
        "birkhoff": "0a47673d75cc494490ee7503a69bb7f341e9a6e3f592467586450cab79972d70",
        "spectrum": "d837b5862b9ed3f89c8a6dd0c6bd30c3b5f01d29ede84ae8b6cd61932feb4c43",
        "pencil": "36d0befde40c42894e334738deb87d1dfcac008e0d4c21656f0273f8fc251e47",
    },
    "u1^5 + u2^3 + u1^-1*u2^-1": {
        "birkhoff": "5f5da45a3d810cc06b7bf97c25a8e0afe0c53434163b8601ae3f25ee0106957d",
        "spectrum": "39702b93b4954d7a87271595cd6009aa5741c2c9c8e805a317d7fafc71b15906",
        "pencil": "75ba27d9012d49573cdca476aa31bb67067989eee103e7be7a4e05838ea7c20d",
    },
    "u1^10 + u1^-10": {
        "birkhoff": "67d7c43ef45b3bec3afd086095ea4b37219715ba5fd03020687f8722814e7ccc",
        "spectrum": "a1bc4c5910a92741e7526533fe62bd19ba0a2f8a38189b7f787b4fd01ea4f51f",
        "pencil": "6a7d235435ed8753a3f5de54ce9c61973e1ee18f8aa845d45c46deb1e13cbc76",
    },
    "u1^7 + u2^7 + u1^-2*u2^-3": {
        "birkhoff": "068c2216846da18d9c85573c8f07e07d5d5a2d2f01ca4142f81bce72860ab022",
        "spectrum": "c11a990daf73f919c6c56723ef6e82669d0ab7211f0070831d764f9a301d4c31",
        "pencil": "623ee532daf241e0f47a7e2e2e61d1158010ec1c9fea1a9d4971ac9d32b3ce33",
    },
    "u1^3 + u2^3 + u3^3 + u1^-1*u2^-1*u3^-1": {
        "birkhoff": "79047d58154810d8bea868243ac081d423c7d4fb2a51350113f92061eac89aea",
        "spectrum": "4e18ecd39dde92c4b7f6069a75fcc31b377b2812d46cfcc47738addf94a88c95",
        "pencil": "ca9baee0470eb1577721a7d619233d2d65618e90b8880df93ece5f3a29614a44",
    },
    "u1^12 + u2^12 + u1^-3*u2^-5": {
        "birkhoff": "cd0d95e9a1e1bddd3d140978fdc99caf6be3d06da50757f825010631fa98b483",
        "spectrum": "d3a58c258f5927deb172ebbe9401c544a2792c28304723b8e70099e6bd8a8425",
        "pencil": "06beede0a15ba1e51d1019928297aa629e261d34ded1ef4585c22594ac61ae3c",
    },
}


# 13. a negative verdict: every other pinned input ends with all four flags
#     true, so a rewritten check that wrongly said "yes" would pass them.
#     NEGATIVE (conftest, mu = 42) is solved by sweep+split, and its
#     `birkhoff` section has structure, semisimple, v_plus and b_opposed
#     all false.  The digest and the `check` entry below were taken from
#     the implementation that ran the V-filtration checks on Fraction
#     degrees.  ROADMAP item 1 (a gauge with a constant part) will change
#     this gauge on purpose, and both digests with it.

NEGATIVE_BIRKHOFF_SHA256 = "099ac008421c6448da2f650f6553d1a419b1dbbb037491a0488e32459e833998"


# 14. full `check` stdout: sha256 and exit code, the first three taken
#     from the implementation that wired `check`'s stages by hand, apart
#     from `analyze`; those inputs are solved by the diagonal ansatz at
#     --max-level 4, by sweep+split, and not at all (the mu = 5
#     obstruction).  NEGATIVE (see 13) fails its v-filtration gate and
#     exits 1

CHECK_STDOUT_SHA256 = {
    ("u1^2 + u2^2 + u1^-1*u2^-1", "--max-level", "4"):
        ("e29e59bd7ed507a3af7ef44e42c31407c7ad411fa639a47b9b0e6b97225d81fd", 0),
    ("u1^3 + u1 + u1^-2",):
        ("64d022e8f419fd71ab6ffbe7ca656df9bbb3ce02d11807e533560101fe35a96b", 0),
    ("3*u1^2*u2^-1 - 2*u1 + u1*u2^-1 + u1^-1*u2 - 2*u1^-1",):
        ("49d8ed3f9310c5ccb0981d1718ece17de4c7d8c54723d4ff7f3ba7d7145993e8", 0),
    (NEGATIVE, "--max-level", "2"):
        ("66434811b6460c45694cb9c7730b4a6f73b4c5ec5b898b8e15e69b0824f98d85", 1),
}


def test_ladder_birkhoff_sections_unchanged(capsys):
    assert tuple(LADDER_SECTION_SHA256) == LADDER
    for expr, digests in LADDER_SECTION_SHA256.items():
        assert main(["analyze", "--json", expr, "--seed", "0"]) == 0, expr
        report = json.loads(capsys.readouterr().out)
        got = {key: hashlib.sha256(json.dumps(report[key], indent=2).encode()).hexdigest()
               for key in digests}
        assert got == digests, expr
        assert all(report["birkhoff"]["flags"].values()), expr


def test_check_stdout_unchanged(capsys):
    for args, (digest, code) in CHECK_STDOUT_SHA256.items():
        rc = main(["check", *args])
        out = capsys.readouterr().out
        assert (hashlib.sha256(out.encode()).hexdigest(), rc) == (digest, code), args


def test_negative_verdict_unchanged(capsys):
    assert main(["analyze", "--json", NEGATIVE, "--seed", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    section = report["birkhoff"]
    assert report["mu"] == 42 and section["method"] == "sweep+split"
    assert section["flags"] == {
        "v_solution": True, "v_plus": False, "opposite": True, "b_opposed": False,
    }
    assert section["spectral"]["structure"] is False
    assert section["spectral"]["semisimple"] is False
    digest = hashlib.sha256(json.dumps(section, indent=2).encode()).hexdigest()
    assert digest == NEGATIVE_BIRKHOFF_SHA256


# 15. the second sweep: NEGATIVE (see 13) is the only other pinned input that
#     runs two sweeps, and it fails its filtration flags.  These two inputs
#     of ROADMAP item 1's random.Random(11) sample run two sweeps and a
#     constant split and pass all four flags.  The digests were taken from
#     the implementation that stepped A_inf by the dense commutator
#     B_1 + [B_0, P_1] rather than by the gauge residual.

SWEEP2_BIRKHOFF_SHA256 = {
    "3*u1^3*u2^3 + u1^3*u2^-2 + 2*u1^-1*u2^2 + u1^-1 - u1^-3*u2^2 + 3*u1^-2":
        (38, "e7e80279938060f1d731c323efbcac14d5326a16632331f3de9eee1c8c260565"),
    "2*u1*u2^3 + u1^3*u2^-2 + 2*u1^2*u2^-1 + 3*u1*u2^-1 + 2*u1^-1 - u1^-3*u2^2":
        (26, "398d2b4bc5f92f1c9d11dacded71fd430f48d2bdf49c4a31e2f89a4f133a8ca9"),
}


def test_second_sweep_sections_unchanged(capsys):
    for expr, (mu, digest) in SWEEP2_BIRKHOFF_SHA256.items():
        assert main(["analyze", "--json", expr, "--seed", "0"]) == 0, expr
        report = json.loads(capsys.readouterr().out)
        section = report["birkhoff"]
        assert report["mu"] == mu and section["method"] == "sweep+split", expr
        assert section["sweeps"] == 2 and all(section["flags"].values()), expr
        got = hashlib.sha256(json.dumps(section, indent=2).encode()).hexdigest()
        assert got == digest, expr


# 16. the gauge re-check compares integer column orders; on every solved
#     corpus and ladder gauge, and on a copy with random entries zeroed
#     (zero columns included), they are den times the order that
#     `BrieskornLattice.newton_order` gives


def test_integer_column_orders_match_newton_order():
    rng = random.Random(23)
    for expr in [e for e, _, _ in CORPUS] + list(LADDER):
        data = pipeline(expr)
        sol, pen, lat = data.birkhoff, data.pencil, data.lattice
        assert isinstance(sol, BirkhoffSolution), expr
        masked = [[[x if rng.random() < 0.5 else F(0) for x in row] for row in dense(m)]
                  for m in sol.gauge]
        for gauge in (list(map(dense, sol.gauge)), masked):
            want = [
                lat.newton_order(BrieskornElement(
                    {(s, i): m[i][j] for s, m in enumerate(gauge) for i in range(pen.mu)
                     if m[i][j]}))
                for j in range(pen.mu)
            ]
            got = [None if o is None else F(o, pen.den)
                   for o in _column_orders(pen, list(map(sparse, gauge)))]
            assert got == want, expr


# 17. rational coefficients: the division kernel runs on integer numerators
#     over one denominator, and the log derivatives of f enter scaled by the
#     lcm of their denominators.  The report and the `check` stdout of three
#     inputs with non-integer coefficients, taken from the implementation
#     that divided on Fraction dicts: solved by the diagonal ansatz, by
#     sweep+split, and a two-variable one

RATIONAL_SHA256 = {
    "1/2*u1 + u1^-1": (
        "diagonal-ansatz",
        "8560317d29916491e4b56534ea76f205e6b388aa15091b80dc307d575c8d3dbb",
        "46c18cdc9eadda370dd98f73e684aff3cbc364aaf60ab4be5985102ef0b080a6"),
    "1/2*u1^3 + u1 + 2/3*u1^-2": (
        "sweep+split",
        "414f5def1f22ae269c8061cb62ff54e99938c765b36f5674d56ad66b4f2f40e6",
        "64d022e8f419fd71ab6ffbe7ca656df9bbb3ce02d11807e533560101fe35a96b"),
    "1/2*u1^2 + u2 + 2/3*u1^-1*u2^-1": (
        "diagonal-ansatz",
        "6db0ff8153bf4d22a3ec37dea78933882ad3f7e843486a299a20e1ab4be1e7b2",
        "5dbbbfd8a830001b84b2112640fa5af4d1b5b2627ce42a209e26813ef19452e8"),
}


def test_rational_coefficient_reports_unchanged(capsys):
    for expr, (method, report_digest, check_digest) in RATIONAL_SHA256.items():
        assert main(["analyze", "--json", expr, "--seed", "0"]) == 0, expr
        out = capsys.readouterr().out
        assert json.loads(out)["birkhoff"]["method"] == method, expr
        assert hashlib.sha256(out.encode()).hexdigest() == report_digest, expr
        assert main(["check", "--max-level", "2", expr]) == 0, expr
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == check_digest, expr


# 18. no stored zeros: the column orders, the level counts and the opposite
#     filtration read every stored entry of a row as nonzero, so a stored 0
#     would change a Newton order; every row of the pencil, the gauge, A_0
#     and A_inf holds nonzero values only


def test_matrix_rows_store_no_zeros():
    exprs = ([e for e, _, _ in CORPUS] + list(LADDER) + [NEGATIVE]
             + list(SWEEP2_BIRKHOFF_SHA256))
    for expr in exprs:
        data = pipeline(expr)
        sol = data.birkhoff
        assert isinstance(sol, BirkhoffSolution), expr
        mats = [*data.pencil.matrices, *sol.gauge, sol.a0, sol.ainf]
        assert all(len(m) == data.pencil.mu for m in mats), expr
        assert all(x != 0 for m in mats for row in m for x in row.values()), expr


# 19. the --json writer: `cli._emit_json` writes json.dumps(obj, indent=2)
#     and a newline byte for byte, on random JSON values of the kinds the
#     report is made of and on the report of every pinned input, and it
#     refuses anything else (the report holds no floats)

REJECTS = (*NOT_CONVENIENT, DEGENERATE, "u1^^2")


def _written(obj):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit_json(obj)
    return out.getvalue()


def test_json_writer_matches_json_dumps_on_random_values():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    # every code point, lone surrogates included, and the escaped ones
    chars = st.characters(exclude_categories=()) | st.sampled_from(
        '"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\ud800\udfff\U0001f600')
    strings = st.text(chars, max_size=6)
    ints = st.integers() | st.integers(min_value=-(10 ** 60), max_value=10 ** 60)
    scalars = st.none() | st.booleans() | ints | strings
    values = st.recursive(
        scalars | st.lists(strings) | st.lists(ints),
        lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                       | st.dictionaries(strings, inner, max_size=4)),
        max_leaves=24)

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @hypothesis.given(values)
    def check(value):
        assert _written(value) == json.dumps(value, indent=2) + "\n"

    check()


def test_json_writer_escaping_boundaries():
    # a row of strings, and a matrix of such rows, is one join of the
    # strings themselves only when none needs escaping: the edges of
    # printable ASCII (0x1f, space, "~", DEL), quote and backslash,
    # non-ASCII, a lone surrogate, and the empty string, which the random
    # values above seldom draw exactly
    for case in ("\x1f", " ", '"', "\\", "~", "\x7f", "é", "\ud800", ""):
        for row in ([case], ["0", case], [case, "1/2", "-3"], ["a" + case + "b"]):
            for value in (row, tuple(row), [row], [["0", "1"], row], {"m": [row, row]},
                          [row, []]):
                assert _written(value) == json.dumps(value, indent=2) + "\n", (case, value)


def test_json_writer_matches_json_dumps_on_every_pinned_report():
    parsed = [e for e, _, _ in CORPUS] + list(LADDER) + [NEGATIVE, *SWEEP2_BIRKHOFF_SHA256]
    reports = [pipeline(expr).report() for expr in parsed]
    reports += [analyze_text(expr) for expr in (*REJECTS, *recipe_draws(100))]
    assert {status for _, status in reports} == {"ok", "invalid", "obstruction"}
    for report, _ in reports:
        assert _written(report) == json.dumps(report, indent=2) + "\n"


def test_json_writer_refuses_what_the_report_never_holds():
    for value in (F(1, 2), 0.5, {"a": [1, F(1, 2)]}, ["0", 0.5], {1: "x"},
                  {"a": {None: 1}}, {"a": {"b"}}):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(TypeError):
            _emit_json(value)
        assert out.getvalue() == "", value


# 20. the CLI's own bytes: sha256 and exit code of the complete stdout of
#     `analyze --json --seed 0` and of `birkhoff --json`, taken from the
#     implementation that wrote every report with json.dumps(obj, indent=2);
#     the tests above hash the report dicts through json.dumps, so they
#     cannot see a byte drift of the writer

SWEEP2 = tuple(SWEEP2_BIRKHOFF_SHA256)
CLI_JSON_SHA256 = {
    "u1 + u1^-1": (
        ("480a2facd95a1db76953b293826bbcf3a0617732e87d1cb76f1cd9f4643b472e", 0),
        ("4b0663011ddbffeea54969af38ff69433ee19cc34ca0278f1a0061ec9b7aef98", 0)),
    "u1 + u1^-2": (
        ("548574621e36af0fbf796fc295cb671c0c38ef7a2e291439bf358d734bcd067f", 0),
        ("2fdecf7b4480572e0476cc0a920dc447733fe91d16ec81b4ef9e5402ebf3e692", 0)),
    "u1^3 + u1 + u1^-2": (
        ("1fed68c39d7aa7d0bc578085399658c3e3ea9b78c1ffa29125c97c5a85784dc1", 0),
        ("1d711794f8e7bc0869515b050236ac2ec8b048ad8a71c0eed8450f3f45d0b771", 0)),
    "u1 + u2 + u1^-1*u2^-1": (
        ("6c6665d900d694df0c2ae7708dfbc64eab1e89bfd99c6b012989252874f38205", 0),
        ("194e3f3ebde034f7e7b011462dd93c9ad0070cd09eeab874c71c186a73b2be98", 0)),
    "u1^2 + u2 + u1^-1*u2^-1": (
        ("8449452b1e8b2cd76f5ade7a3770a50677e13b004e82ff8f44fea6c6fd124436", 0),
        ("5ffcfbf108f212f356a6a37100f04b6d83afd67d9f3390588726ff944d5eaa58", 0)),
    "u1^2 + u2^2 + u1^-1*u2^-1": (
        ("4d39b583496e872a5ae605f6c20073c19a6b6d2d4484fe128cec4e467456cdf1", 0),
        ("a79db5e5f0fe031cdf2b71d5c9b0405b6df8862db9832c8c1d5811f940a795db", 0)),
    "u1^3 + u2^3 + u1^-1*u2^-1": (
        ("7fa5c5d50fd89f919a567d9a5f32a69a9c725696e84546f363c99bed2e4ac236", 0),
        ("82b243bd2ded9dee0963782f8e7a2a5814dbed070ff8e21915064e6c8798ff39", 0)),
    "u1*u2*u3 + u1^-1 + u2^-1 + u3^-1": (
        ("61c0e2b3b3d69a87619e3b79e6a1a87a1fc96a1d7d2a39878b69f6cf9e583eaa", 0),
        ("8b007cb1050d0aa216bf1d9a0295f362cb22c976503056c251dc94b44d68729e", 0)),
    "u1 + u2 + u3 + u1^-1 + u2^-1 + u3^-1": (
        ("838d3751390e075cbe93b8710b5c27339d941085f0a1d4e3e17d96b275e87451", 0),
        ("57e67db6bc0c5d80319f2d337fa1647da9f9f3cce33357e3e9ea5e049feb369f", 0)),
    "u1 + u2": (
        ("0c63089cf43dfe177e0c62a349e90bd01cf352016db247edbeadc7228d682450", 2),
        ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2)),
    "u1 + u1^2": (
        ("a11808bc9581d426cadbacdec856b41cfa860db4ce6941250247011f94c8bfac", 2),
        ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2)),
    "u1 + u2 + u1*u2": (
        ("f19018c93e123a381b1f243977b980ee9aba2a08edf451d93ed784c76316053e", 2),
        ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2)),
    "u1^2 - 2*u1*u2 + u2^2 + u1^-1*u2^-1": (
        ("600e7ec8e4b378e35a83fbfa6f7690c21c6ddcf67a3d6475704995c355e47686", 2),
        ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2)),
    "u1^^2": (
        ("51cf1fdc2a6a9287514a0fe35a01babe19c0df27d83c94c5ccac15808d8bf59b", 2),
        ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2)),
    "u1^4 + u1^-4": (
        ("01da7ccc8408c47148d44bf5d7d3f8baf10e9c6055bd90765751a874d6904996", 0),
        ("de9f150920380e94566b76fcde88e2c11fba4b9674c6b00c847ca23696d1ab6d", 0)),
    "u1^5 + u1^-5": (
        ("29a3e8e15ba33c94e064bec4c720e05bb7e24a096a9edf428cbf2f4c9c862714", 0),
        ("957fe9c17c02f57e5cd28771662cc4d87a9a97c3b6ec9b19c6900ad3c1577cb2", 0)),
    "u1^6 + u1^-6": (
        ("1ff94d94910fea053a274090123b1a627a47bc552fbb15eb311140434e99d7b2", 0),
        ("6dcf32bcd30006820834abb859dd65f2a650750158ed6745d5582df51a9c0db4", 0)),
    "u1^7 + u1^-7": (
        ("602b98d1cee915d4bb68e8522f3c36e7da819111cc3510f5b6a13bdc25b6e2f3", 0),
        ("5ad6c077b45f512dd9bb007c0436213cc644a15ae499371ec650c9dbc8b4f9ff", 0)),
    "u1^8 + u1^-8": (
        ("affb9226711cb3fe06232bc7329350a98d29b7b847288948d059cacd70139f54", 0),
        ("2bf545fb296d322cebf133d464d23547b37f6393ef88ac4061383e332cf35e8c", 0)),
    NEGATIVE: (
        ("0a165dc636bc768e5ba4f126e9fafcead04aa7ade21e3601b8d715f14be172ca", 0),
        ("f832a0054df272c4aa60c319842311dd2a0efc59ee7122c59cea722d322f4043", 0)),
    SWEEP2[0]: (
        ("454e9b227ccae484bfc42753102c215d8c76310af1239260ab61c2eb39d63141", 0),
        ("7f2780571565f8d56ad8b037b17a0232c10b3073426d1063d8567fece360a0b1", 0)),
    SWEEP2[1]: (
        ("7ad67263a9717991e6d8fb44d91346a955b733b2b26eb63b0f1295df74466cd6", 0),
        ("0de99b231f0dff054dc812495675192a2e54f3e9a02841841c33b68a6a61204d", 0)),
    "1/2*u1^3 + u1 + 2/3*u1^-2": (
        ("414f5def1f22ae269c8061cb62ff54e99938c765b36f5674d56ad66b4f2f40e6", 0),
        ("8aa7a8e46b09aa2ebb1742dc93b26f47c6c8a77066254bdd9dd5f56ecdaa86f6", 0)),
}


def test_cli_json_stdout_unchanged(capsys):
    spectral = ["u1^%d + u1^-%d" % (k, k) for k in range(4, 9)]
    assert list(CLI_JSON_SHA256) == ([e for e, _, _ in CORPUS] + list(REJECTS) + spectral
                                     + [NEGATIVE, *SWEEP2, list(RATIONAL_SHA256)[1]])
    for expr, pins in CLI_JSON_SHA256.items():
        for argv, pin in zip((["analyze", "--json", "--seed", "0", expr],
                              ["birkhoff", "--json", expr]), pins):
            rc = main(argv)
            out = capsys.readouterr().out
            assert (hashlib.sha256(out.encode()).hexdigest(), rc) == pin, argv
