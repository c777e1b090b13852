"""Command-line interface: output bytes, exit codes, determinism."""

import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import CORPUS, DEGENERATE
from newton_spectra import BirkhoffObstruction, GradedModelError
from newton_spectra import birkhoff as birkhoff_mod
from newton_spectra import frobenius as frobenius_mod
from newton_spectra import polytope as polytope_mod
from newton_spectra.cli import _build_parser, main


def run_cli(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def run_proc(argv, stdin=None, hashseed="0"):
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    return subprocess.run(
        [sys.executable, "-m", "newton_spectra.cli"] + argv,
        input=stdin, capture_output=True, text=True, env=env,
    )


def test_spectrum_exact_bytes(capsys):
    rc, out, err = run_cli(capsys, ["spectrum", "u1 + u1^-1"])
    assert rc == 0
    assert out == "0: 1\n1: 1\nSP(S) = S*(S+1)\n"
    assert err == ""


def test_one_parser_serves_consecutive_calls(capsys):
    # the parser is built once per process; no flag of one call may leak
    # into the next, so each call prints what it prints with a fresh parser
    runs = [
        ["analyze", "--json", "u1 + u1^-1", "--seed", "7"],
        ["spectrum", "x + x^-1", "--vars", "x"],
        ["analyze", "--json", "u1 + u1^-1"],
        ["spectrum", "u1 + u1^-2", "--json"],
        ["frobenius", "x + y + x^-1*y^-1", "--vars", "x,y"],
        ["spectrum", "u1 + u1^-2"],
        ["check", "u1 + u1^-1", "--seed", "3", "--max-level", "1"],
        ["mu", "u1 + u1^-1"],
    ]
    alone = []
    for argv in runs:
        _build_parser.cache_clear()
        alone.append(run_cli(capsys, argv))
    assert _build_parser.cache_info().currsize == 1
    parser = _build_parser()
    assert [run_cli(capsys, argv) for argv in runs] == alone
    assert _build_parser() is parser
    assert '"seed": 7' in alone[0][1] and '"seed": 0' in alone[2][1]


def test_mu_values_across_corpus(capsys):
    for expr, _, mu in CORPUS:
        rc, out, _ = run_cli(capsys, ["mu", expr])
        assert rc == 0 and out == "%d\n" % mu, expr


def test_basis_human_output(capsys):
    rc, out, _ = run_cli(capsys, ["basis", "u1 + u1^-2"])
    assert rc == 0
    assert out.splitlines() == [
        "0: 1  (alpha = 0)",
        "1: u1^-1  (alpha = 1/2)",
        "2: u1  (alpha = 1)",
        "graded dims: 1 1 1",
    ]


def test_not_convenient_exits_2(capsys):
    rc, out, err = run_cli(capsys, ["polytope", "u1 + u2"])
    assert rc == 2
    assert "not convenient" in err


def test_parse_error_exits_2(capsys):
    rc, _, err = run_cli(capsys, ["mu", "2*"])
    assert rc == 2
    assert "error" in err


def test_degenerate_exits_2(capsys):
    rc, _, err = run_cli(capsys, ["spectrum", DEGENERATE])
    assert rc == 2
    assert "degenerate" in err


def test_assumed_degenerate_caught_downstream(capsys):
    # --assume-nondegenerate has no effect: the certificate on the graded
    # quotient still stops the degenerate input with exit code 2
    rc, _, err = run_cli(capsys, ["check", DEGENERATE, "--assume-nondegenerate"])
    assert rc == 2
    assert "graded quotient is nonzero at level 5/2" in err


def test_both_sources_rejected(capsys, tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("u1 + u1^-1\n")
    rc, _, err = run_cli(capsys, ["mu", "u1 + u1^-1", "--file", str(path)])
    assert rc == 2
    assert "exactly one input source" in err


def test_missing_file_exits_2(capsys, tmp_path):
    rc, _, err = run_cli(capsys, ["mu", "--file", str(tmp_path / "nope")])
    assert rc == 2


def test_file_input(capsys, tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("u1 + u2 + u1^-1*u2^-1\n")
    rc, out, _ = run_cli(capsys, ["mu", "--file", str(path)])
    assert rc == 0 and out == "3\n"


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("u1 + u1^-2\n"))
    rc, out, _ = run_cli(capsys, ["mu", "-"])
    assert rc == 0 and out == "3\n"


def test_explicit_variable_names(capsys):
    rc, out, _ = run_cli(capsys, ["frobenius", "x + x^-1", "--vars", "x"])
    assert rc == 0
    assert "E = t0*d0 + 2*d1" in out


def test_analyze_human_summary(capsys):
    rc, out, _ = run_cli(capsys, ["analyze", "u1 + u1^-1"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "input: u1 + u1^-1"
    assert "n = 1, scale = 1, mu = 2" in lines
    assert "SP(S) = S*(S+1)" in lines
    assert "D = 1" in lines
    assert "E = t0*d0 + 2*d1" in lines
    assert any(l.startswith("birkhoff: diagonal-ansatz") for l in lines)


def test_analyze_json_schema_and_sections(capsys):
    rc, out, _ = run_cli(capsys, ["analyze", "u1 + u2 + u1^-1*u2^-1", "--json"])
    assert rc == 0
    report = json.loads(out)
    assert report["schema"] == "newton-spectra/2"
    assert list(report) == [
        "schema", "input", "polytope", "nondegeneracy", "mu", "basis",
        "spectrum", "pencil", "birkhoff", "frobenius", "error",
    ]
    assert report["mu"] == 3
    assert report["birkhoff"]["flags"] == {
        "v_solution": True, "v_plus": True, "opposite": True, "b_opposed": True,
    }
    assert report["frobenius"]["euler_field"] == "t0*d0 + 3*d1 - t2*d2"
    assert report["error"] is None


def test_analyze_json_on_invalid_input_carries_error(capsys):
    rc, out, _ = run_cli(capsys, ["analyze", "u1 + u2", "--json"])
    assert rc == 2
    report = json.loads(out)
    assert report["error"]["stage"] == "polytope"
    assert report["mu"] is None


def test_analyze_certifies_the_four_variable_mirror(capsys):
    # n = 4 has three-dimensional faces; the window certificate covers them
    # without --assume-nondegenerate, which changes nothing
    expr = "u1+u2+u3+u4+u1^-1*u2^-1*u3^-1*u4^-1"
    rc, out, err = run_cli(capsys, ["analyze", expr, "--json"])
    assert rc == 0 and err == ""
    report = json.loads(out)
    assert report["nondegeneracy"]["ok"] is True
    assert report["nondegeneracy"]["window_dims"] == [0]
    assert report["mu"] == 5 and report["error"] is None
    rc, assumed, _ = run_cli(capsys, ["analyze", expr, "--json", "--assume-nondegenerate"])
    assert rc == 0 and assumed == out


def test_n3_report_bytes_do_not_depend_on_seed(capsys):
    # nothing in the pipeline samples: the seed only reaches input.seed
    expr = "u1*u2*u3 + u1^-1 + u2^-1 + u3^-1"
    reports = []
    for seed in ("0", "7", "12345"):
        rc, out, _ = run_cli(capsys, ["analyze", expr, "--json", "--seed", seed])
        assert rc == 0
        report = json.loads(out)
        assert report["input"]["seed"] == int(seed)
        report["input"]["seed"] = None
        reports.append(json.dumps(report, indent=2))
    assert reports[0] == reports[1] == reports[2]


def test_degenerate_analyze_names_the_level(capsys):
    rc, out, err = run_cli(capsys, ["analyze", DEGENERATE, "--json"])
    assert rc == 2
    report = json.loads(out)
    assert report["error"] == {
        "stage": "nondegeneracy", "type": "DegenerateError",
        "message": "graded quotient is nonzero at level 5/2 above the top "
                   "spectral level 2, so f is degenerate along a face of its "
                   "Newton polytope",
    }
    assert report["nondegeneracy"]["degenerate_level"] == 5
    assert report["nondegeneracy"]["window_dims"] == [1, 1]
    assert report["mu"] is None and report["basis"] is None
    assert "level 5/2" in err


def test_failed_gauge_recheck_exits_2(capsys, monkeypatch):
    # the re-check of the gauge identity is an explicit test, not an
    # assert, so it also runs under python -O
    monkeypatch.setattr(frobenius_mod, "gauge_residual",
                        lambda pencil, gauge, a0, ainf: [[[Fraction(1), 0], [0, 0]]])
    rc, out, err = run_cli(capsys, ["analyze", "--json", "u1 + u1^-1"])
    assert rc == 2
    report = json.loads(out)
    assert report["error"] == {
        "stage": "birkhoff", "type": "VerificationError",
        "message": "the gauge identity does not hold",
    }
    assert report["birkhoff"] is None and report["frobenius"] is None
    assert "gauge identity" in err


def test_non_integral_volume_exits_2_at_the_mu_gate(capsys, monkeypatch):
    # the volume is checked to be an integer by an explicit test, not an
    # assert, so it also runs under python -O; the triangle has three cone
    # simplices, so |det| = 1/2 each sums to 3/2
    monkeypatch.setattr(polytope_mod, "_det", lambda rows: Fraction(1, 2))
    message = "the normalized volume 3/2 is not an integer"
    rc, out, err = run_cli(capsys, ["analyze", "--json", "u1 + u2 + u1^-1*u2^-1"])
    assert rc == 2
    report = json.loads(out)
    assert report["error"] == {"stage": "mu", "type": "VerificationError", "message": message}
    assert report["nondegeneracy"] is not None
    assert report["mu"] is None and report["basis"] is None
    assert err == "error: %s\n" % message
    for command in ("mu", "check"):
        assert run_cli(capsys, [command, "u1 + u2 + u1^-1*u2^-1"]) == (2, "", err), command


def test_check_shares_the_gauge_recheck(capsys, monkeypatch):
    # `check` reads its normal-form gate off the same pipeline as `analyze`,
    # so the re-check of the gauge identity fails it too
    monkeypatch.setattr(frobenius_mod, "gauge_residual",
                        lambda pencil, gauge, a0, ainf: [[[Fraction(1), 0], [0, 0]]])
    rc, out, _ = run_cli(capsys, ["check", "u1 + u1^-1"])
    assert rc == 1
    lines = out.splitlines()
    assert "FAIL birkhoff-normal-form (the gauge identity does not hold)" in lines
    assert lines[-1] == "7 passed, 1 failed"


_GAUGE_RESIDUAL = birkhoff_mod.gauge_residual


def _residual_failing_from_call(n):
    """gauge_residual that returns a nonzero residual from its n-th call on."""
    calls = []

    def residual(pencil, gauge, a0, ainf):
        calls.append(None)
        if len(calls) < n:
            return _GAUGE_RESIDUAL(pencil, gauge, a0, ainf)
        return [[[Fraction(1)]]]

    return residual


@pytest.mark.parametrize("expr, call, message", [
    # the diagonal ansatz solves u1 + u1^-1 and checks its residual once
    ("u1 + u1^-1", 1, "the diagonal ansatz left a nonzero gauge residual"),
    # u1^3 + u1 + u1^-2 needs a sweep (first residual) and a constant split
    # (second residual)
    ("u1^3 + u1 + u1^-2", 2, "the constant split broke the gauge identity"),
])
def test_failed_solver_residual_exits_2_and_fails_check(capsys, monkeypatch,
                                                        expr, call, message):
    # the solver's own residual gates are explicit tests, not asserts, so
    # they also run under python -O
    monkeypatch.setattr(birkhoff_mod, "gauge_residual", _residual_failing_from_call(call))
    rc, out, err = run_cli(capsys, ["analyze", "--json", expr])
    assert rc == 2
    report = json.loads(out)
    assert report["error"] == {
        "stage": "birkhoff", "type": "VerificationError", "message": message,
    }
    assert report["birkhoff"] is None and report["frobenius"] is None
    assert message in err

    monkeypatch.setattr(birkhoff_mod, "gauge_residual", _residual_failing_from_call(call))
    rc, out, _ = run_cli(capsys, ["check", expr])
    assert rc == 1
    lines = out.splitlines()
    assert "FAIL birkhoff-normal-form (%s)" % message in lines
    assert lines[-1] == "7 passed, 1 failed"


def test_section_json_wrapper(capsys):
    rc, out, _ = run_cli(capsys, ["spectrum", "u1 + u1^-2", "--json"])
    assert rc == 0
    obj = json.loads(out)
    assert obj["schema"] == "newton-spectra/2"
    assert obj["command"] == "spectrum"
    assert obj["spectrum"]["factored"] == "S*(S+1/2)*(S+1)"


def test_check_command_all_pass(capsys):
    rc, out, _ = run_cli(capsys, ["check", "u1 + u2 + u1^-1*u2^-1"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[-1] == "10 passed, 0 failed"
    assert all(l.startswith("PASS ") for l in lines[:-1])
    assert len(lines) == 11


def test_check_three_variables(capsys):
    rc, out, _ = run_cli(capsys, ["check", "u1*u2*u3 + u1^-1 + u2^-1 + u3^-1"])
    assert rc == 0
    assert out.splitlines()[-1] == "10 passed, 0 failed"


def test_obstruction_exit_code_3(capsys, monkeypatch):
    obs = BirkhoffObstruction(
        message="synthetic", equations=1, unknowns=0,
        system_rank=0, augmented_rank=1, sweeps=16,
        unsatisfiable=((2, 0, 1),),
    )
    monkeypatch.setattr(frobenius_mod, "solve_birkhoff", lambda pencil: obs)
    rc, out, err = run_cli(capsys, ["frobenius", "u1 + u1^-1"])
    assert rc == 3
    assert "obstruction" in err
    assert "caveat: pencil not normalized" in out

    rc, out, err = run_cli(capsys, ["birkhoff", "u1 + u1^-1"])
    assert rc == 3
    assert "obstruction: synthetic" in out
    assert "(2, 0, 1)" in out


def test_graded_model_failure_exits_2_and_fails_check(capsys, monkeypatch):
    def fail(pencil, gauge, scale):
        raise GradedModelError("N is not nilpotent on residue class 0", Fraction(0))

    monkeypatch.setattr(frobenius_mod, "graded_model", fail)
    rc, out, err = run_cli(capsys, ["analyze", "--json", "u1 + u1^-1"])
    assert rc == 2
    assert json.loads(out)["error"] == {
        "stage": "graded_model", "type": "GradedModelError",
        "message": "N is not nilpotent on residue class 0",
    }
    assert "N is not nilpotent" in err
    rc, out, _ = run_cli(capsys, ["check", "u1 + u1^-1"])
    assert rc == 1
    assert "FAIL v-filtration (N is not nilpotent on residue class 0)" in out.splitlines()


def test_obstruction_does_not_change_other_commands(capsys, monkeypatch):
    obs = BirkhoffObstruction(
        message="synthetic", equations=1, unknowns=0,
        system_rank=0, augmented_rank=1, sweeps=16,
    )
    monkeypatch.setattr(frobenius_mod, "solve_birkhoff", lambda pencil: obs)
    rc, _, _ = run_cli(capsys, ["spectrum", "u1 + u1^-1"])
    assert rc == 0
    rc, _, _ = run_cli(capsys, ["analyze", "u1 + u1^-1"])
    assert rc == 0


def test_subprocess_end_to_end():
    proc = run_proc(["spectrum", "u1 + u1^-1"])
    assert proc.returncode == 0
    assert proc.stdout == "0: 1\n1: 1\nSP(S) = S*(S+1)\n"
    proc = run_proc(["mu", "-"], stdin="u1^2 + u2^2 + u1^-1*u2^-1\n")
    assert proc.returncode == 0 and proc.stdout == "8\n"


def test_json_output_deterministic_across_hash_seeds():
    # set/dict iteration must never leak into the report: identical bytes
    # under different interpreter hash seeds
    for expr in ("u1 + u2 + u1^-1*u2^-1", "u1 + u2 + u3 + u1^-1 + u2^-1 + u3^-1"):
        a = run_proc(["analyze", expr, "--json"], hashseed="0")
        b = run_proc(["analyze", expr, "--json"], hashseed="12345")
        assert a.returncode == 0 and b.returncode == 0
        assert a.stdout == b.stdout, expr
