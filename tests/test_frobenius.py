"""Euler field, homogeneity constant, and the full analyze pipeline."""

import json
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

import newton_spectra.frobenius as frobenius_mod
from conftest import CORPUS, DEGENERATE, pipeline
from newton_spectra import (
    BirkhoffObstruction,
    VerificationError,
    analyze,
    analyze_text,
    canonical_primitive,
    euler_field,
    solve_birkhoff,
)
from newton_spectra.cli import main

REPORT_KEYS = [
    "schema",
    "input",
    "polytope",
    "nondegeneracy",
    "mu",
    "basis",
    "spectrum",
    "pencil",
    "birkhoff",
    "frobenius",
    "error",
]


def _initial_data(expr):
    data = pipeline(expr)
    sol = solve_birkhoff(data.pencil)
    return euler_field(data.algebra, data.pencil, sol, data.spectrum)


def test_canonical_primitive_is_the_constant_form():
    for expr, _, _ in CORPUS:
        data = pipeline(expr)
        idx, alpha_min = canonical_primitive(data.algebra, data.spectrum)
        assert idx == 0 and alpha_min == 0, expr


def test_euler_field_one_variable():
    d = _initial_data("u1 + u1^-1")
    assert d.c == (F(0), F(2))
    assert d.charge == 1
    assert d.euler_text == "t0*d0 + 2*d1"
    assert d.normalized


def test_euler_field_two_variables():
    d = _initial_data("u1 + u2 + u1^-1*u2^-1")
    assert d.c == (F(0), F(3), F(0))
    assert d.exponents == (F(0), F(1), F(2))
    assert d.charge == 0
    assert d.euler_text == "t0*d0 + 3*d1 - t2*d2"


def test_euler_field_fractional_exponents():
    d = _initial_data("u1 + u1^-2")
    assert d.c == (F(0), F(0), F(3, 2))
    assert d.euler_text == "t0*d0 + 1/2*t1*d1 + 3/2*d2"
    obj = d.to_json_obj()
    assert obj["D"] == "1"
    assert obj["c"] == ["0", "0", "3/2"]
    assert obj["pencil_not_normalized"] is False


def test_homogeneity_constant_is_two_minus_n():
    for expr, n, _ in CORPUS:
        assert _initial_data(expr).charge == 2 - n, expr


def test_analyze_ok_report():
    report, status = analyze_text("u1 + u2 + u1^-1*u2^-1")
    assert status == "ok"
    assert list(report) == REPORT_KEYS
    assert report["schema"] == "newton-spectra/2"
    assert report["nondegeneracy"]["ok"] is True
    assert report["nondegeneracy"]["window"] == [3, 3]
    assert report["input"]["variables"] == ["u1", "u2"] and report["input"]["n"] == 2
    assert report["mu"] == 3
    assert report["basis"]["graded_dims"] == [1, 1, 1]
    assert report["spectrum"]["factored"] == "S*(S+1)*(S+2)"
    assert report["birkhoff"]["status"] == "solved"
    assert report["birkhoff"]["flags"] == {
        "v_solution": True,
        "v_plus": True,
        "opposite": True,
        "b_opposed": True,
    }
    assert report["frobenius"]["euler_field"] == "t0*d0 + 3*d1 - t2*d2"
    assert report["error"] is None


def test_analyze_gate_parse():
    report, status = analyze_text("2*")
    assert status == "invalid"
    assert report["error"]["stage"] == "parse"
    assert report["polytope"] is None and report["frobenius"] is None


def test_analyze_gate_not_convenient():
    report, status = analyze_text("u1 + u2")
    assert status == "invalid"
    assert report["error"]["stage"] == "polytope"
    assert report["polytope"] is None


def test_analyze_gate_degenerate():
    report, status = analyze_text(DEGENERATE)
    assert status == "invalid"
    assert report["error"]["stage"] == "nondegeneracy"
    assert report["error"]["type"] == "DegenerateError"
    assert report["nondegeneracy"]["ok"] is False
    assert report["nondegeneracy"]["degenerate_level"] == 5
    assert report["mu"] is None


def test_analyze_assumed_degenerate_still_caught(capsys):
    # --assume-nondegenerate no longer skips anything: the certificate
    # rejects this input at the nondegeneracy stage with or without it
    assert main(["analyze", "--json", DEGENERATE, "--assume-nondegenerate"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"]["stage"] == "nondegeneracy"
    assert report["nondegeneracy"]["ok"] is False
    assert report["mu"] is None and report["basis"] is None


def test_analyze_seed_recorded_and_deterministic():
    a, s1 = analyze_text("u1*u2*u3 + u1^-1 + u2^-1 + u3^-1", seed=5)
    b, s2 = analyze_text("u1*u2*u3 + u1^-1 + u2^-1 + u3^-1", seed=5)
    assert s1 == s2 == "ok"
    assert a == b
    assert a["input"]["seed"] == 5


def test_analyze_explicit_names():
    f, names = (pipeline("u1 + u1^-1").f, ["x"])
    report, status = analyze(f, names)
    assert status == "ok"
    assert report["input"]["expression"] == "x + x^-1"


def test_canonical_primitive_raises_on_a_wrong_spectrum():
    data = pipeline("u1 + u1^-1")
    wrong = SimpleNamespace(pairs=[(F(0), 2)])
    with pytest.raises(VerificationError, match="multiplicity one"):
        canonical_primitive(data.algebra, wrong)


def test_analyze_reports_a_failed_frobenius_recheck(monkeypatch):
    def fail(algebra, spectrum_data):
        raise VerificationError("alpha_min is not 0")

    monkeypatch.setattr(frobenius_mod, "canonical_primitive", fail)
    report, status = analyze_text("u1 + u1^-1")
    assert status == "invalid"
    assert report["error"] == {
        "stage": "frobenius", "type": "VerificationError",
        "message": "alpha_min is not 0",
    }
    assert report["birkhoff"]["status"] == "solved" and report["frobenius"] is None


def test_analyze_obstruction_path(monkeypatch):
    # force the solver to fail so the partial-report contract is exercised
    obs = BirkhoffObstruction(
        message="synthetic",
        equations=3,
        unknowns=1,
        system_rank=1,
        augmented_rank=2,
        sweeps=16,
    )
    monkeypatch.setattr(frobenius_mod, "solve_birkhoff", lambda pencil: obs)
    report, status = analyze_text("u1 + u1^-1")
    assert status == "obstruction"
    assert report["birkhoff"]["status"] == "obstruction"
    assert report["birkhoff"]["residual_rank"] == 1
    # spectrum and pencil are still reported, and the Euler data carries
    # the not-normalized caveat with exponents from the Newton degrees
    assert report["spectrum"] is not None and report["pencil"] is not None
    assert report["frobenius"]["pencil_not_normalized"] is True
    assert report["frobenius"]["exponents"] == ["0", "1"]
    assert report["frobenius"]["euler_field"] == "t0*d0 + 2*d1"
