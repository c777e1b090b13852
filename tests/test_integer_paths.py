"""The checks after the pencil against the Fraction code they replaced.

`graded_model` reads each F'^k straight off the one echelon of
`_fprime_rows`.  That rests on an invariant of the echelon: ties in Newton
order go to the later position in the class, so each class's order-rho rows
pivot on their last position and are zero in each other's pivots, and a
count of pivots is a dimension.  The first tests check that invariant and compare the graded
model with `conftest.reference_graded_model`, which re-eliminates every
class in an echelon of its own.  The spectrum, the Euler field and the
spectral test run on the integer orders and scaled degrees; they are
compared field by field with the `Fraction` references in conftest.

Inputs: the corpus, the ladder, NEGATIVE and the two second-sweep inputs of
test_acceptance, and the first 100 draws of ROADMAP item 1's recipe; the
integer paths also on the three rational-coefficient inputs.
"""

import random
from fractions import Fraction as F

import pytest

from conftest import (
    CORPUS,
    LADDER,
    dense,
    pipeline,
    recipe_draws,
    reference_euler_field,
    reference_graded_model,
    reference_spectrum,
    reference_verify_v_plus,
    sparse,
)
from test_acceptance import NEGATIVE, RATIONAL_SHA256, SWEEP2
from test_filtration_oracles import oracle_v_solution
from newton_spectra import (
    ConnectionPencil,
    DegeneracySuspectedError,
    graded_model,
    verify_v_plus,
    verify_v_solution,
)
from newton_spectra.birkhoff import _class_table, _fprime_rows
from newton_spectra.brieskorn import spectrum
from newton_spectra.frobenius import euler_field
from newton_spectra.linalg import identity

INPUTS = [e for e, _, _ in CORPUS] + list(LADDER) + [NEGATIVE, *SWEEP2] + recipe_draws(100)


def _solved(exprs):
    """(pipeline, solution) of every input whose report is ok."""
    out = []
    for expr in exprs:
        data = pipeline(expr)
        if data.report()[1] == "ok":
            out.append((expr, data, data.birkhoff))
    return out


def test_fprime_rows_pivot_on_their_last_position():
    solved = _solved(INPUTS)
    for expr, data, sol in solved:
        table = _class_table(data.pencil)
        for (res, _, kmax), fpr in zip(table, _fprime_rows(data.pencil, sol.gauge, table)):
            assert len(fpr) == kmax + 2, (expr, res)
            for rows in fpr:
                assert list(rows) == sorted(rows), (expr, res)
                for t, (v, d) in rows.items():
                    # the pivot is the last position, with numerator den
                    assert max(v) == t and v[t] == d > 0, (expr, res)
                    assert not any(p in v for p in rows if p != t), (expr, res)
    assert len(solved) >= 100


def test_graded_model_matches_the_per_class_reference():
    solved = _solved(INPUTS)
    flags = set()
    for expr, data, sol in solved:
        got = graded_model(data.pencil, sol.gauge)
        assert got == reference_graded_model(data.pencil, sol.gauge), expr
        flags.add((got["opposite"], got["b_opposed"]))
    # NEGATIVE fails (B); every other input passes both
    assert flags == {(True, True), (True, False)}


def test_b_check_fails_on_exactly_one_class():
    # classes 0 = {e0, e2} and 1/2 = {e1, e3}.  (B_0)_20 = 1 gives N e0 = -e2
    # on class 0, and N = 0 on class 1/2.  With P = I + theta E_02 the gauge
    # column 2 is e2 + theta e0, so F'^1 of class 0 is spanned by e0 + e2
    # and N F'^0 = <e2> is not inside it; the identity gauge has
    # F'^1 = <e2> and passes
    degrees = (F(0), F(1, 2), F(1), F(3, 2))
    b0 = [[F(0)] * 4 for _ in range(4)]
    b0[2][0] = F(1)
    b1 = [[degrees[i] if i == j else F(0) for j in range(4)] for i in range(4)]
    pen = ConnectionPencil([sparse(b0), sparse(b1)], degrees)
    p1 = [{} for _ in range(4)]
    p1[0][2] = 1
    for gauge, want in (([identity(4)], [True, True]), ([identity(4), p1], [False, True])):
        gm = graded_model(pen, gauge)
        assert [c["b_opposed"] for c in gm["classes"]] == want
        assert gm["b_opposed"] == all(want)
        assert [c["n_matrix"] for c in gm["classes"]] == [[["0", "0"], ["-1", "0"]],
                                                         [["0", "0"], ["0", "0"]]]
        assert gm == reference_graded_model(pen, gauge)


def test_pencil_refuses_degrees_out_of_order():
    # the checks after the pencil read the top degree last and bisect the
    # orders, so degrees (1, 0) are refused; listed as (0, 1), the same
    # pencil passes the direct-sum test, as the oracle's levels 0 and 1 do
    b0 = [[F(0), F(0)], [F(0), F(0)]]
    b1 = [[F(1), F(0)], [F(0), F(0)]]
    with pytest.raises(ValueError, match=r"pencil degrees do not ascend: 1, 0"):
        ConnectionPencil([sparse(b0), sparse(b1)], (F(1), F(0)))
    pen = ConnectionPencil([sparse(b0), sparse([[F(0), F(0)], [F(0), F(1)]])], (F(0), F(1)))
    levels = oracle_v_solution(pen.degrees, [dense(identity(2))], 1)
    assert [level["level"] for level in levels] == ["0", "1"]
    want = all(level["ok"] for level in levels)
    assert want and verify_v_solution(pen, [identity(2)]) == want


def _outcome(fn, *args):
    """fn's value, or the type and message of the DegeneracySuspectedError it raises."""
    try:
        return fn(*args)
    except DegeneracySuspectedError as exc:
        return type(exc), str(exc)


def test_integer_paths_match_the_fraction_references():
    exprs = INPUTS + list(RATIONAL_SHA256)
    solved = checked = 0
    for expr in exprs:
        data = pipeline(expr)
        assert _outcome(spectrum, data.algebra) == _outcome(reference_spectrum, data.algebra), expr
        status = data.report()[1]
        if status == "invalid":
            continue
        sol = data.birkhoff if status == "ok" else None
        assert (euler_field(data.algebra, data.pencil, sol, data.spectrum)
                == reference_euler_field(data.algebra, data.pencil, sol, data.spectrum)), expr
        checked += 1
        if sol is not None:
            args = sol.ainf, data.pencil.degrees, data.spectrum.pairs
            assert verify_v_plus(*args) == reference_verify_v_plus(*args), expr
            solved += 1
    assert solved >= 100 and checked > solved


def test_structural_entries_off_the_degree_denominator():
    # den = 2 from the degrees, entries over 3 and 7 above the diagonal: the
    # scale of the semisimplicity product is no multiple of den alone
    rng = random.Random(20261020)
    degrees = (F(0), F(1, 2), F(1, 2), F(1), F(3, 2))
    structural = matched = 0
    for trial in range(60):
        ainf = [{i: a} if a else {} for i, a in enumerate(degrees)]
        ainf[0][1] = F(7, 3)
        for i in range(5):
            for j in range(5):
                if degrees[i] < degrees[j] and rng.random() < 0.5:
                    ainf[i][j] = F(rng.choice((-5, -1, 2, 4)), rng.choice((1, 3, 7)))
        if trial % 5 == 0:
            ainf[1][2] = F(1, 3)     # a nilpotent part inside one degree block
        pairs = ((F(0), 1), (F(1, 2), 2), (F(1), 1), (F(3, 2), 1))
        if trial % 3 == 1:
            # 2/3 lies off the grid of halves, next to 1/2
            pairs = ((F(0), 1), (F(2, 3), 2), (F(1), 1), (F(3, 2), 1))
        got = verify_v_plus(ainf, degrees, pairs)
        assert got == reference_verify_v_plus(ainf, degrees, pairs), trial
        structural += got[1]["structure"]
        matched += got[1]["spectral_match"]
    assert 0 < structural < 60 and 0 < matched < 60

