"""Normal form of the t-pencil: solver, verifiers, graded model.

Expected gauges and normal forms were derived by hand before the solver
existed: for the two-variable example the single gauge correction is
P1 = -E_{12}; for u + 1/u the identity gauge is already normal.
"""

import random
from fractions import Fraction as F
from math import lcm

import pytest

import conftest
from conftest import (
    CORPUS,
    LADDER,
    NEGATIVE,
    _split_over,
    dense,
    dense_build_linear_system,
    dense_gauge_residual,
    dense_pattern_slots,
    dense_rank,
    dense_mat_mul,
    dense_semisimple,
    pipeline,
    recipe_draws,
    reference_verify_v_plus,
    sparse,
)
from test_acceptance import SWEEP2
from test_filtration_oracles import oracle_v_solution
from newton_spectra import birkhoff as birkhoff_mod
from newton_spectra import (
    BirkhoffObstruction,
    BirkhoffSolution,
    ConnectionPencil,
    gauge_residual,
    graded_model,
    pencil_in_gauge,
    solve_birkhoff,
    verify_v_plus,
    verify_v_solution,
)
from newton_spectra.brieskorn import integer_orders
from newton_spectra.linalg import (
    charpoly,
    identity,
    rational_roots,
    solve_linear,
    sparse_mul,
)


def _solved(expr):
    data = pipeline(expr)
    sol = solve_birkhoff(data.pencil)
    assert isinstance(sol, BirkhoffSolution)
    return data, sol


def test_one_variable_identity_gauge():
    data, sol = _solved("u1 + u1^-1")
    assert sol.method == "diagonal-ansatz"
    assert sol.gauge == (identity(2),)
    assert dense(sol.a0) == [[F(0), F(2)], [F(2), F(0)]]
    assert dense(sol.ainf) == [[F(0), F(0)], [F(0), F(1)]]
    assert charpoly(sol.a0) == [F(-4), F(0), F(1)]
    assert gauge_residual(data.pencil, sol.gauge, sol.a0, sol.ainf) == []


def test_two_variable_single_correction():
    data, sol = _solved("u1 + u2 + u1^-1*u2^-1")
    pen = data.pencil
    assert sol.method == "diagonal-ansatz"
    assert len(sol.gauge) == 2
    assert dense(sol.gauge[1]) == [
        [F(0), F(0), F(0)],
        [F(0), F(0), F(-1)],
        [F(0), F(0), F(0)],
    ]
    # unipotent gauge: the theta^0 block is untouched
    assert sol.a0 == pen.matrices[0]
    assert dense(sol.ainf) == [[F(0), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(2)]]
    assert charpoly(sol.a0) == [F(-27), F(0), F(0), F(1)]
    assert dense(sparse_mul(sol.a0, sparse_mul(sol.a0, sol.a0))) == [
        [F(27) if i == j else F(0) for j in range(3)] for i in range(3)
    ]
    assert gauge_residual(pen, sol.gauge, sol.a0, sol.ainf) == []
    # rewriting the pencil in the solved gauge returns exactly (A0, Ainf)
    assert pencil_in_gauge(pen, sol.gauge) == [sol.a0, sol.ainf]


def test_solver_on_harder_examples():
    for expr in (
        "u1 + u1^-2",
        "u1*u2*u3 + u1^-1 + u2^-1 + u3^-1",
        "u1 + u2 + u3 + u1^-1 + u2^-1 + u3^-1",
        "u1^3 + u2^3 + u1^-1*u2^-1",
    ):
        data, sol = _solved(expr)
        assert gauge_residual(data.pencil, sol.gauge, sol.a0, sol.ainf) == [], expr
        # the normal form is diagonal in the basis degrees
        degs = data.pencil.degrees
        assert dense(sol.ainf) == [
            [degs[i] if i == j else F(0) for j in range(len(degs))]
            for i in range(len(degs))
        ], expr


def _diagonal(degrees):
    return [{i: a} if a else {} for i, a in enumerate(degrees)]


def _count_calls(monkeypatch, names):
    calls = []
    for name in names:
        def counted(*args, _f=getattr(birkhoff_mod, name), _name=name, **kwargs):
            calls.append(_name)
            return _f(*args, **kwargs)
        monkeypatch.setattr(birkhoff_mod, name, counted)
    return calls


def test_normal_pencil_skips_the_ansatz_elimination(monkeypatch):
    # B = B_0 + theta diag(degrees): the ansatz system has right-hand side
    # zero, so what _solve_system gives over _build_linear_system is the
    # identity gauge, and solve_birkhoff returns it without building it
    calls = _count_calls(monkeypatch, ("_build_linear_system", "_settle", "_solve_system"))
    spectral = ["u1^%d + u1^-%d" % (k, k) for k in range(4, 9)]
    normal = []
    for expr in [e for e, _, _ in CORPUS] + list(LADDER) + spectral:
        pen = pipeline(expr).pencil
        diag = _diagonal(pen.degrees)
        if pen.degree != 1 or pen.matrices[1] != diag:
            continue
        normal.append(expr)
        slots, rows, rhs, labels = birkhoff_mod._build_linear_system(pen, diag)
        x = birkhoff_mod._solve_system(len(slots), rows, rhs, labels)[0]
        assert not any(rhs), expr
        want = birkhoff_mod._gauge_from_solution(slots, x, pen.mu)
        calls.clear()
        sol = solve_birkhoff(pen)
        assert calls == [], expr
        assert sol.method == "diagonal-ansatz", expr
        assert list(sol.gauge) == want == [identity(pen.mu)], expr
        assert sol.a0 == pen.matrices[0] and sol.ainf == diag, expr
    assert normal == ["u1 + u1^-1", "u1 + u1^-2", "u1 + u2 + u3 + u1^-1 + u2^-1 + u3^-1",
                      "u1^10 + u1^-10"] + spectral
    # a nonzero B_2 (c04) builds the system once and settles it by
    # substitution, with no elimination
    pen = pipeline("u1 + u2 + u1^-1*u2^-1").pencil
    assert pen.degree == 2
    calls.clear()
    assert solve_birkhoff(pen).method == "diagonal-ansatz"
    assert calls == ["_build_linear_system", "_settle"]
    # an off-diagonal B_1 that no pattern gauge removes (c03): substitution
    # declines, and the same rows go to the elimination before the sweeps
    pen = pipeline("u1^3 + u1 + u1^-2").pencil
    assert pen.matrices[1] != _diagonal(pen.degrees)
    calls.clear()
    assert solve_birkhoff(pen).method == "sweep+split"
    assert calls[:4] == ["_build_linear_system", "_settle", "_solve_system",
                         "_build_linear_system"]


def _ansatz_rows(pen):
    return birkhoff_mod._build_linear_system(pen, _diagonal(pen.degrees))


def test_substitution_agrees_with_the_elimination():
    # substitution returns the unique solution or declines: on every input
    # it settles, the elimination has full column rank and the same values;
    # on every inconsistent system it declines
    inputs = ([e for e, _, _ in CORPUS] + list(LADDER) + [NEGATIVE, *SWEEP2]
              + recipe_draws(300) + recipe_draws(80, max_mu=60))
    settled = inconsistent = 0
    for expr in dict.fromkeys(inputs):
        slots, rows, rhs, labels = _ansatz_rows(pipeline(expr).pencil)
        n = len(slots)
        x = birkhoff_mod._settle(n, rows, rhs)
        y, system, augmented, _ = birkhoff_mod._solve_system(n, rows, rhs, labels)
        if x is not None:
            assert (system, augmented, x) == (n, n, y), expr
            settled += 1
        if y is None:
            assert x is None, expr
            inconsistent += 1
    assert settled >= 50 and inconsistent >= 300
    # every equation of the normal pencil c09 holds two unknowns: no
    # equation settles one, so substitution declines a full-rank system
    slots, rows, rhs, labels = _ansatz_rows(pipeline(CORPUS[8][0]).pencil)
    assert birkhoff_mod._settle(len(slots), rows, rhs) is None
    assert birkhoff_mod._solve_system(len(slots), rows, rhs, labels)[1] == len(slots)


def test_substitution_declines_a_free_unknown(monkeypatch):
    # degrees (0, 0, 1), B_0 = E_00, B_1 = diag(degrees) + E_02: the
    # equation (1, 0, 2) settles (P_1)_02 = -1, and (P_1)_12 is in no
    # equation, so only the elimination solves the system (free unknown 0)
    fake = ConnectionPencil(
        matrices=tuple(map(sparse, (
            [[F(1), F(0), F(0)], [F(0)] * 3, [F(0)] * 3],
            [[F(0), F(0), F(1)], [F(0)] * 3, [F(0), F(0), F(1)]],
        ))),
        degrees=(F(0), F(0), F(1)),
    )
    slots, rows, rhs, labels = _ansatz_rows(fake)
    assert slots == [(1, 0, 2), (1, 1, 2)]
    assert birkhoff_mod._settle(len(slots), rows, rhs) is None
    x, system, augmented, _ = birkhoff_mod._solve_system(len(slots), rows, rhs, labels)
    assert (x, system, augmented) == ([F(-1), F(0)], 1, 1)
    calls = _count_calls(monkeypatch, ("_settle", "_solve_system"))
    sol = solve_birkhoff(fake)
    assert calls == ["_settle", "_solve_system"]
    assert sol.method == "diagonal-ansatz"
    assert list(sol.gauge) == birkhoff_mod._gauge_from_solution(slots, x, 3)
    assert dense(sol.gauge[1]) == [[F(0), F(0), F(-1)], [F(0)] * 3, [F(0)] * 3]


def test_substitution_declines_a_corrupted_right_hand_side(monkeypatch):
    # one right-hand side off by one: when that makes the system
    # inconsistent, substitution declines; otherwise the corrupted system
    # has one solution, and substitution finds it when it settles
    declined = 0
    for expr in [e for e, _, _ in CORPUS] + list(LADDER[:2]):
        slots, rows, rhs, labels = _ansatz_rows(pipeline(expr).pencil)
        n = len(slots)
        if birkhoff_mod._settle(n, rows, rhs) is None:
            continue
        for e in range(len(rhs)):
            bad = rhs[:e] + [rhs[e] + 1] + rhs[e + 1:]
            x = birkhoff_mod._settle(n, rows, bad)
            y = birkhoff_mod._solve_system(n, rows, bad, labels)[0]
            if y is None:
                assert x is None, (expr, e)
                declined += 1
            elif x is not None:
                assert x == y, (expr, e)
    assert declined >= 100
    # in solve_birkhoff the corrupted rows go on to the elimination, which
    # finds them inconsistent: no VerificationError, and the obstruction
    # record counts the corrupted system's ranks
    build = birkhoff_mod._build_linear_system

    def corrupted(pencil, ainf, include_m1=True):
        slots, rows, rhs, labels = build(pencil, ainf, include_m1)
        if include_m1:
            rhs = [b + 1 if lab == (1, 1, 1) else b for b, lab in zip(rhs, labels)]
        return slots, rows, rhs, labels

    monkeypatch.setattr(birkhoff_mod, "_build_linear_system", corrupted)
    calls = _count_calls(monkeypatch, ("_settle", "_solve_system"))
    sol = solve_birkhoff(pipeline("u1 + u2 + u1^-1*u2^-1").pencil)
    assert calls[:2] == ["_settle", "_solve_system"]
    assert isinstance(sol, BirkhoffObstruction)
    assert (sol.equations, sol.unknowns, sol.system_rank, sol.augmented_rank) == (8, 4, 4, 5)


def test_constant_split_on_cross_degree_coupling():
    # here B_1 has an off-diagonal entry coupling degrees 1/3 and 1, and the
    # only theta-gauge unknown (P_1)_{04} cannot remove it: the theta system
    # is infeasible and the sweep settles on P = I with A_inf = B_1.  The
    # residual coupling is then split off by the constant base change
    # Q = I + (1/3) E_{14}, which is still filtration-compatible because it
    # only adds a lower-degree generator to a higher-degree one.
    data, sol = _solved("u1^3 + u1 + u1^-2")
    pen = data.pencil
    assert pen.degrees == (F(0), F(1, 3), F(1, 2), F(2, 3), F(1))
    assert dense(pen.matrices[1])[1][4] == F(2, 9)
    assert sol.method == "sweep+split"
    assert sol.sweeps == 1
    q = dense(identity(5))
    q[1][4] = F(1, 3)
    assert tuple(map(dense, sol.gauge)) == (q,)
    assert dense(sol.ainf) == [
        [pen.degrees[i] if i == j else F(0) for j in range(5)] for i in range(5)
    ]
    # a0 is the conjugated theta^0 matrix, not B_0 itself
    assert sol.a0 != pen.matrices[0]
    assert dense(sol.a0)[1] == [F(2, 3), F(0), F(0), F(-2, 9), F(5, 3)]
    assert charpoly(sol.a0) == charpoly(pen.matrices[0])
    assert gauge_residual(pen, sol.gauge, sol.a0, sol.ainf) == []
    assert pencil_in_gauge(pen, sol.gauge) == [sol.a0, sol.ainf]


def test_constant_split_conjugates_to_the_diagonal_blocks():
    # A_inf block upper-triangular by degree, each diagonal block with the
    # single eigenvalue of its degree: Q = I + (entries with deg(row) <
    # deg(col)) and Q^-1 A_inf Q = blockdiag(A_inf)
    rng = random.Random(20260622)
    pool = [F(0), F(1, 3), F(1, 2), F(1), F(3, 2)]
    split = 0
    for _ in range(120):
        mu = rng.randint(2, 6)
        degrees = tuple(sorted(rng.choice(pool) for _ in range(mu)))
        ainf = [[F(0)] * mu for _ in range(mu)]
        for i in range(mu):
            ainf[i][i] = degrees[i]
            for j in range(i + 1, mu):
                if rng.random() < 0.5:
                    ainf[i][j] = F(rng.randint(-3, 3), rng.randint(1, 2))
        blocks = [[ainf[i][j] if degrees[i] == degrees[j] else F(0) for j in range(mu)]
                  for i in range(mu)]
        q = birkhoff_mod._split_constant(sparse(ainf), degrees)
        if blocks == ainf:
            assert q is None
            continue
        assert all(x for row in q for x in row.values())
        q = dense(q)
        assert all(q[i][j] == (i == j) for i in range(mu) for j in range(mu)
                   if degrees[i] >= degrees[j])
        assert dense_mat_mul(ainf, q) == dense_mat_mul(q, blocks)
        split += 1
    assert split >= 60


def test_filtration_flags_hold_for_solved_gauges():
    for expr in (
        "u1 + u1^-1",
        "u1 + u1^-2",
        "u1^3 + u1 + u1^-2",
        "u1 + u2 + u1^-1*u2^-1",
        "u1*u2*u3 + u1^-1 + u2^-1 + u3^-1",
        "u1 + u2 + u3 + u1^-1 + u2^-1 + u3^-1",
    ):
        data, sol = _solved(expr)
        scale = data.polytope.scale
        pen, sp = data.pencil, data.spectrum
        levels = oracle_v_solution(pen.degrees, [dense(m) for m in sol.gauge], scale)
        assert all(level["ok"] for level in levels), (expr, levels)
        assert verify_v_solution(pen, sol.gauge) is True, expr
        ok, detail = verify_v_plus(sol.ainf, pen.degrees, sp.pairs)
        assert ok, (expr, detail)
        gm = graded_model(pen, sol.gauge)
        assert gm["opposite"] and gm["b_opposed"], (expr, gm)


def test_graded_model_one_variable_values():
    data, sol = _solved("u1 + u1^-1")
    gm = graded_model(data.pencil, sol.gauge)
    assert len(gm["classes"]) == 1
    c = gm["classes"][0]
    assert c["n_matrix"] == [["0", "0"], ["-2", "0"]]
    assert c["n_rank"] == 1
    assert c["hodge_dims"] == [1, 2, 2]
    assert c["opposite_dims"] == [2, 1, 0]


def test_graded_model_two_variable_values():
    data, sol = _solved("u1 + u2 + u1^-1*u2^-1")
    gm = graded_model(data.pencil, sol.gauge)
    c = gm["classes"][0]
    assert c["n_matrix"] == [["0", "0", "0"], ["-3", "3", "3"], ["0", "-3", "-3"]]
    assert c["n_rank"] == 2
    # half-integer example splits into two residue classes
    datah, solh = _solved("u1 + u1^-2")
    gmh = graded_model(datah.pencil, solh.gauge)
    assert len(gmh["classes"]) == 2
    assert sorted(cl["residue"] for cl in gmh["classes"]) == ["0", "1/2"]


def test_non_adapted_basis_fails_filtration_tests():
    # basis {w0 + theta*w1, w1}: invertible over Q[theta], still a normal
    # form of degree one, but it mixes the filtration levels
    data = pipeline("u1 + u1^-1")
    pen = data.pencil
    wprime = [identity(2), sparse([[F(0), F(0)], [F(1), F(0)]])]
    amats = pencil_in_gauge(pen, wprime)
    assert dense(amats[0]) == [[F(0), F(2)], [F(2), F(0)]]
    assert dense(amats[1]) == [[F(2), F(0)], [F(0), F(-1)]]
    levels = oracle_v_solution(pen.degrees, [dense(m) for m in wprime], 1)
    assert not all(level["ok"] for level in levels)
    assert verify_v_solution(pen, wprime) is False
    ok, detail = verify_v_plus(amats[1], pen.degrees, data.spectrum.pairs)
    assert not ok
    assert detail["structure"] is False
    assert detail["semisimple"] is True
    assert detail["spectral_match"] is False
    assert sorted(detail["eigenvalues"]) == [("-1", 1), ("2", 1)]


def test_rescaled_column_basis_still_passes():
    # basis {w0, t(w0)} = {w0, 2*w1}: reduction of f^2*w0 keeps a genuine
    # theta term, so the normal form stays diag(0,1) on the theta side and
    # the spectral test passes -- the naive constant-pencil shortcut that
    # drops those theta corrections would get Ainf = 0 here, which the
    # trace identity tr(Ainf) = sum of spectrum already rules out
    data = pipeline("u1 + u1^-1")
    pen = data.pencil
    gauge = [sparse([[F(1), F(0)], [F(0), F(2)]])]
    amats = pencil_in_gauge(pen, gauge)
    assert dense(amats[0]) == [[F(0), F(4)], [F(1), F(0)]]
    assert dense(amats[1]) == [[F(0), F(0)], [F(0), F(1)]]
    assert charpoly(amats[0]) == [F(-4), F(0), F(1)]
    ok, _ = verify_v_plus(amats[1], pen.degrees, data.spectrum.pairs)
    assert ok


def test_theta_free_gauge_is_always_a_v_solution():
    # a gauge without theta terms never leaves the filtration, so the
    # lattice comparison is the trivial direct sum
    data, sol = _solved("u1 + u2 + u1^-1*u2^-1")
    levels = oracle_v_solution(data.pencil.degrees, [dense(sol.gauge[0])], 1)
    assert all(level["ok"] for level in levels)
    assert verify_v_solution(data.pencil, [sol.gauge[0]]) is True


def test_identity_gauge_round_trip():
    pen = pipeline("u1 + u1^-2").pencil
    assert pencil_in_gauge(pen, [identity(3)]) == list(pen.matrices)


_OBSTRUCTION_MESSAGE = (
    "gauge equations are inconsistent for a diagonal residue matrix "
    "and the fixed-point sweeps did not stabilize"
)


def test_synthetic_obstruction_record():
    # theta^2 entry from slot 0 to 1 cannot be removed by any pattern gauge:
    # the single unknown (P_1)_{01} appears with coefficient 0 there
    fake = ConnectionPencil(
        matrices=tuple(map(sparse, (
            [[F(0), F(0)], [F(0), F(0)]],
            [[F(0), F(0)], [F(0), F(1)]],
            [[F(0), F(1)], [F(0), F(0)]],
        ))),
        degrees=(F(0), F(1)),
    )
    obs = solve_birkhoff(fake)
    assert isinstance(obs, BirkhoffObstruction)
    assert obs.to_json_obj() == {
        "status": "obstruction",
        "message": _OBSTRUCTION_MESSAGE,
        "equations": 1,
        "unknowns": 1,
        "system_rank": 0,
        "augmented_rank": 1,
        "residual_rank": 1,
        "unsatisfiable": [[2, 0, 1]],
        "sweeps": 16,
    }


def test_obstruction_caps_culprits_and_ranks_count_every_row():
    # degrees (0,0,0,1,1,1), B_0 = 0, B_1 = diag(degrees): the nine unknowns
    # (P_1)_{ij}, i low and j high, drop out of every theta^2 equation, so
    # the nine theta^2 entries of B_2 on that block and the one at (3, 0)
    # are ten culprits; B_2[3][0] also puts (P_1)_{0j} into the theta^3
    # equations (3, 3, j), three consistent rows that come after them all
    mats = [[[F(0)] * 6 for _ in range(6)] for _ in range(3)]
    degrees = (F(0),) * 3 + (F(1),) * 3
    for i in range(6):
        mats[1][i][i] = degrees[i]
    for i in range(3):
        for j in range(3, 6):
            mats[2][i][j] = F(1)
    mats[2][3][0] = F(1)
    obs = solve_birkhoff(ConnectionPencil(matrices=tuple(map(sparse, mats)), degrees=degrees))
    assert isinstance(obs, BirkhoffObstruction)
    assert obs.to_json_obj() == {
        "status": "obstruction",
        "message": _OBSTRUCTION_MESSAGE,
        "equations": 13,
        "unknowns": 9,
        "system_rank": 3,
        "augmented_rank": 4,
        "residual_rank": 1,
        "unsatisfiable": [
            [2, 0, 3], [2, 0, 4], [2, 0, 5], [2, 1, 3],
            [2, 1, 4], [2, 1, 5], [2, 2, 3], [2, 2, 4],
        ],
        "sweeps": 16,
    }


def test_invert_rejects_a_singular_matrix():
    with pytest.raises(ValueError, match="singular"):
        birkhoff_mod._invert(sparse([[F(1), F(2)], [F(2), F(4)]]))
    q = [[F(1), F(3)], [F(0), F(1)]]
    assert dense_mat_mul(q, dense(birkhoff_mod._invert(sparse(q)))) == dense(identity(2))


def test_solution_json_shape():
    _, sol = _solved("u1 + u1^-1")
    obj = sol.to_json_obj()
    assert obj["status"] == "solved"
    assert obj["method"] == "diagonal-ansatz"
    assert obj["a0"] == [["0", "2"], ["2", "0"]]
    assert obj["ainf"] == [["0", "0"], ["0", "1"]]
    assert obj["gauge"] == [[["1", "0"], ["0", "1"]]]


# ---------------------------------------------------------------------------
# the spectral test divides the characteristic polynomial by the known
# candidates (diagonal of A_inf, +-spectrum) instead of searching for roots


def test_structural_ainf_gives_its_diagonal_multiset():
    # block upper-triangular by degree, scalar blocks, couplings only from
    # lower to higher degree: the eigenvalues are the diagonal entries
    degrees = (F(0), F(1, 2), F(1, 2), F(1))
    ainf = [
        [F(0), F(3), F(-1), F(5)],
        [F(0), F(1, 2), F(0), F(-2)],
        [F(0), F(0), F(1, 2), F(7, 3)],
        [F(0), F(0), F(0), F(1)],
    ]
    pairs = ((F(0), 1), (F(1, 2), 2), (F(1), 1))
    ok, detail = verify_v_plus(sparse(ainf), degrees, pairs)
    assert ok
    assert detail == {
        "structure": True,
        "eigenvalues": [("0", 1), ("1/2", 2), ("1", 1)],
        "semisimple": True,
        "spectral_match": True,
    }
    # a solved normal form with repeated spectral values
    data, sol = _solved("u1^3 + u2^3 + u1^-1*u2^-1")
    pen, sp = data.pencil, data.spectrum
    ok, detail = verify_v_plus(sol.ainf, pen.degrees, sp.pairs)
    assert ok
    assert detail["eigenvalues"] == [(str(a), m) for a, m in sp.pairs]
    assert max(m for _, m in sp.pairs) > 1


def test_irrational_eigenvalues_do_not_split():
    # S^2 - 2
    ok, detail = verify_v_plus(
        sparse([[F(0), F(2)], [F(1), F(0)]]), (F(0), F(1)), ((F(0), 1), (F(1), 1))
    )
    assert not ok
    assert detail["eigenvalues"] is None
    assert detail["semisimple"] is False
    assert detail["spectral_match"] is False
    assert "does not split" in detail["note"]


def test_rational_eigenvalues_off_the_candidates_do_not_split():
    # eigenvalues 3 and 5: rational, but neither a diagonal entry nor
    # +-a spectral value, so the verdict is False without naming them
    ainf = sparse([[F(4), F(1)], [F(1), F(4)]])
    assert rational_roots(charpoly(ainf))[0] == [(F(3), 1), (F(5), 1)]
    ok, detail = verify_v_plus(ainf, (F(0), F(1)), ((F(0), 1), (F(1), 1)))
    assert not ok
    assert detail["eigenvalues"] is None
    assert detail["spectral_match"] is False


def _conjugate_elementary(a, i, j, c):
    """(I + c E_ij) a (I - c E_ij)."""
    a = [row[:] for row in a]
    a[i] = [x + c * y for x, y in zip(a[i], a[j])]
    for row in a:
        row[j] -= c * row[i]
    return a


def test_candidate_division_agrees_with_root_search(monkeypatch):
    # oracle: the Fraction reference of the spectral test with the divisor
    # search in place of its division by the candidates
    monkeypatch.setattr(conftest, "_split_over", lambda cp, _: rational_roots(cp))
    rng = random.Random(20021107)
    pool = [F(0), F(1, 3), F(1, 2), F(1), F(3, 2), F(2), F(-1), F(-1, 2)]
    agreed = not_split = passed = 0
    for _ in range(300):
        mu = rng.randint(2, 6)
        diag = sorted(rng.choice(pool[:6]) for _ in range(mu))
        ainf = [[F(0)] * mu for _ in range(mu)]
        for i in range(mu):
            ainf[i][i] = diag[i]
            for j in range(i + 1, mu):
                if diag[i] != diag[j] and rng.random() < 0.5:
                    ainf[i][j] = F(rng.randint(-3, 3), rng.randint(1, 3))
        if rng.random() < 0.3:
            degrees = tuple(diag)
            pairs = tuple((a, diag.count(a)) for a in sorted(set(diag)))
        else:
            # leave the structural form: spectrum and degrees unrelated to
            # the eigenvalues, conjugated by a random unipotent matrix
            degrees = tuple(sorted(rng.choice(pool[:6]) for _ in range(mu)))
            values = sorted(set(rng.sample(pool, rng.randint(1, 4))))
            pairs = tuple((a, 1) for a in values)
            for _ in range(rng.randint(1, 4)):
                i, j = rng.sample(range(mu), 2)
                ainf = _conjugate_elementary(ainf, i, j, F(rng.randint(-2, 2)))
        new_ok, new = verify_v_plus(sparse(ainf), degrees, pairs)
        old_ok, old = reference_verify_v_plus(sparse(ainf), degrees, pairs)
        assert new_ok == old_ok
        cands = {ainf[i][i] for i in range(mu)}
        cands |= {s * a for a, _ in pairs for s in (1, -1)}
        missing = sum(m for r, m in rational_roots(charpoly(sparse(ainf)))[0]
                      if r not in cands)
        if missing <= 1:
            assert new == old
            agreed += 1
            passed += new_ok
        else:
            assert new["eigenvalues"] is None and not new_ok
            not_split += 1
    assert agreed and not_split and passed


def test_multiplicities_agree_with_charpoly_division():
    # each candidate's multiplicity, read off the ranks of powers of
    # D A_inf - D r I, against the division of the characteristic
    # polynomial by S - r (conftest._split_over); and the spectral test's
    # details against the reference that runs that division
    rng = random.Random(20261021)
    pool = [F(0), F(1, 3), F(1, 2), F(1), F(3, 2), F(2), F(-1), F(-1, 2)]
    kinds = {"split": 0, "linear": 0, "not split": 0}
    for trial in range(600):
        mu = rng.randint(1, 5)
        if trial % 3:
            # triangular over a few values, so with repeated eigenvalues and
            # Jordan parts, conjugated by unipotent elementary matrices
            ainf = [[F(0)] * mu for _ in range(mu)]
            for i in range(mu):
                ainf[i][i] = rng.choice(pool[:4])
                for j in range(i + 1, mu):
                    if rng.random() < 0.5:
                        ainf[i][j] = F(rng.randint(-3, 3), rng.randint(1, 2))
            for _ in range(rng.randint(0, 3) if mu > 1 else 0):
                i, j = rng.sample(range(mu), 2)
                ainf = _conjugate_elementary(ainf, i, j, F(rng.randint(-2, 2)))
        else:
            # random entries: mostly eigenvalues off the candidates
            ainf = [[F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(mu)]
                    for _ in range(mu)]
        degrees = tuple(sorted(rng.choice(pool[:6]) for _ in range(mu)))
        pairs = tuple((a, 1) for a in sorted(set(rng.sample(pool, rng.randint(1, 3)))))
        a = sparse(ainf)
        cands = {ainf[i][i] for i in range(mu)} | {s * x for x, _ in pairs for s in (1, -1)}
        roots, cofactor = _split_over(charpoly(a), cands)
        d, (scaled,) = birkhoff_mod._scaled([a], lcm(*(r.denominator for r in cands)))
        got = {r: m for r in cands if (m := birkhoff_mod._multiplicity(scaled, int(r * d)))}
        assert got == {r: m for r, m in roots if r in cands}, ainf
        if len(cofactor) > 1:
            kinds["not split"] += 1
        else:
            kinds["linear" if len(got) < len(roots) else "split"] += 1
        assert verify_v_plus(a, degrees, pairs) == reference_verify_v_plus(
            a, degrees, pairs, structural_rule=False)
    assert min(kinds.values()) >= 20, kinds


def _structural(rng, degrees):
    """A random structural A_inf: degree blocks alpha*I, random entries above."""
    mu = len(degrees)
    ainf = [[F(0)] * mu for _ in range(mu)]
    for i in range(mu):
        ainf[i][i] = degrees[i]
        for j in range(mu):
            if degrees[i] < degrees[j] and rng.random() < 0.6:
                ainf[i][j] = F(rng.randint(-4, 4), rng.randint(1, 3))
    return ainf


def test_structural_rule_agrees_with_the_characteristic_polynomial():
    # oracle: the Fraction spectral test with every A_inf sent through
    # charpoly and the candidate division, as for a non-structural one
    def by_charpoly(ainf, degrees, pairs):
        return reference_verify_v_plus(ainf, degrees, pairs, structural_rule=False)

    rng = random.Random(20260618)
    pool = [F(0), F(1, 3), F(1, 2), F(2, 3), F(1), F(3, 2), F(2)]
    structural = jordan = matched = 0
    for trial in range(400):
        mu = rng.randint(1, 7)
        # repeated degrees, listed in a random order: the rule must not
        # depend on the indices being sorted by degree
        degrees = [rng.choice(pool[: rng.randint(1, len(pool))]) for _ in range(mu)]
        ainf = _structural(rng, degrees)
        same = [(i, j) for i in range(mu) for j in range(mu)
                if i != j and degrees[i] == degrees[j]]
        if same and trial % 4 == 0:
            # a nilpotent part inside one degree block: no longer structural,
            # and not semisimple
            i, j = rng.choice(same)
            ainf[i][j] = F(rng.choice((-2, -1, 1, 2)))
        values = sorted(set(degrees))
        pairs = tuple((a, degrees.count(a)) for a in values)
        if rng.random() < 0.3:
            # a spectrum that does not match the eigenvalue moduli
            pairs = tuple((a + 1, m) for a, m in pairs)
        new_ok, new = verify_v_plus(sparse(ainf), tuple(degrees), pairs)
        old_ok, old = by_charpoly(sparse(ainf), tuple(degrees), pairs)
        assert (new_ok, new) == (old_ok, old), (ainf, degrees, pairs)
        if new["structure"]:
            structural += 1
            # a structural A_inf is always semisimple: the product of the
            # A - alpha I over its block values vanishes
            assert new["semisimple"]
            assert new["eigenvalues"] == [(str(a), m) for a, m in
                                          ((a, degrees.count(a)) for a in values)]
            matched += new["spectral_match"]
        elif not new["semisimple"]:
            jordan += 1
    assert structural >= 300 and jordan >= 20
    assert 0 < matched < structural


def test_sparse_semisimplicity_product_matches_dense_reference():
    rng = random.Random(20261018)
    pool = [F(0), F(1, 3), F(1, 2), F(1), F(3, 2), F(2)]
    verdicts = {True: 0, False: 0}
    for trial in range(320):
        mu = rng.randint(1, 7)
        degrees = sorted(rng.choice(pool) for _ in range(mu))
        ainf = _structural(rng, degrees)
        same = [(i, j) for i in range(mu) for j in range(i + 1, mu)
                if degrees[i] == degrees[j]]
        if same and trial % 3:
            # a nilpotent part inside a degree block: not semisimple
            i, j = rng.choice(same)
            ainf[i][j] = F(rng.choice((-2, -1, 1, 2)))
        if trial % 5 == 0:
            # off the structural form, eigenvalues unchanged
            for _ in range(rng.randint(1, 3)):
                i, j = rng.sample(range(mu), 2) if mu > 1 else (0, 0)
                if i != j:
                    ainf = _conjugate_elementary(ainf, i, j, F(rng.randint(-2, 2)))
        pairs = tuple((a, degrees.count(a)) for a in sorted(set(degrees)))
        _, detail = verify_v_plus(sparse(ainf), tuple(degrees), pairs)
        roots = [F(r) for r, _ in detail["eigenvalues"]]
        assert sorted(set(roots)) == sorted(set(degrees))
        assert detail["semisimple"] == dense_semisimple(ainf, roots)
        verdicts[detail["semisimple"]] += 1
    assert verdicts[True] >= 50 and verdicts[False] >= 50


# ---------------------------------------------------------------------------
# the sparse gauge rows and residual against their dense references


def _random_matrix(rng, rows, cols, density):
    return [
        [F(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < density else F(0)
         for _ in range(cols)]
        for _ in range(rows)
    ]


def test_sparse_residual_matches_dense_reference():
    rng = random.Random(20260619)
    zero = nonzero = 0
    for trial in range(240):
        mu = rng.randint(1, 5)
        degrees = tuple(sorted(F(rng.randint(0, 4), 2) for _ in range(mu)))
        density = rng.choice((0.1, 0.3, 0.8))
        a0 = _random_matrix(rng, mu, mu, density)
        ainf = _random_matrix(rng, mu, mu, density)
        # the dense reference needs P (A_0 + theta A_inf) != 0: A_0 != 0
        # and an invertible P_0
        a0[rng.randrange(mu)][rng.randrange(mu)] = F(rng.choice((-2, -1, 1, 3)))
        if trial % 4 == 0:
            # B = A_0 + theta A_inf with the identity gauge: zero residual
            mats = (a0, ainf)
            gauge = [dense(identity(mu))]
        else:
            mats = tuple(_random_matrix(rng, mu, mu, density)
                         for _ in range(rng.randint(1, 3)))
            head = dense(identity(mu))
            if rng.random() < 0.5:
                for i, j in [(i, j) for i in range(mu) for j in range(i + 1, mu)]:
                    head[i][j] = F(rng.randint(-2, 2))
            gauge = [head] + [_random_matrix(rng, mu, mu, density)
                              for _ in range(rng.randint(0, 2))]
        pen = ConnectionPencil(matrices=tuple(map(sparse, mats)), degrees=degrees)
        got = gauge_residual(pen, list(map(sparse, gauge)), sparse(a0), sparse(ainf))
        assert all(x for m in got for row in m for x in row.values())
        assert list(map(dense, got)) == dense_gauge_residual(pen, gauge, a0, ainf)
        if got:
            nonzero += 1
        else:
            zero += 1
    for expr, _, _ in CORPUS:
        data, sol = _solved(expr)
        assert dense_gauge_residual(data.pencil, list(map(dense, sol.gauge)),
                                    dense(sol.a0), dense(sol.ainf)) == []
    assert zero >= 60 and nonzero >= 150


def test_pattern_slots_match_the_triple_loop():
    # the bisection needs ascending degrees, as every pencil lists them;
    # small denominators and ranges give many ties.  The slots are read off
    # the integer orders; the triple loop compares the Fraction degrees
    rng = random.Random(20261018)
    for _ in range(300):
        scale = rng.randint(1, 4)
        degrees = sorted(F(rng.randint(0, 6 * scale), scale)
                         for _ in range(rng.randint(1, 14)))
        den, orders = integer_orders(degrees)
        assert birkhoff_mod._pattern_slots(orders, den) == dense_pattern_slots(degrees), degrees
    for expr, _, _ in CORPUS:
        pen = pipeline(expr).pencil
        assert (birkhoff_mod._pattern_slots(pen.orders, pen.den)
                == dense_pattern_slots(pen.degrees)), expr


def test_sparse_gauge_rows_match_dense_reference():
    rng = random.Random(20260620)
    for expr, _, _ in CORPUS:
        pen = pipeline(expr).pencil
        mu = pen.mu
        diag = [[pen.degrees[i] if i == j else F(0) for j in range(mu)] for i in range(mu)]
        for ainf in (diag, _random_matrix(rng, mu, mu, 0.3)):
            for include_m1 in (True, False):
                slots, rows, rhs, labels = birkhoff_mod._build_linear_system(
                    pen, sparse(ainf), include_m1)
                dslots, drows, drhs, dlabels = dense_build_linear_system(
                    pen, ainf, include_m1)
                # the integer rows are the Fraction rows times D
                d = lcm(pen.den, *(x.denominator for m in (*map(dense, pen.matrices), ainf)
                                   for row in m for x in row))
                assert (slots, labels) == (dslots, dlabels), expr
                assert rhs == [d * b for b in drhs], expr
                assert all(type(b) is int for b in rhs), expr
                assert all(all(row.values()) for row in rows), expr
                assert all(type(c) is int for row in rows for c in row.values()), expr
                n = len(slots)
                assert ([[row.get(t, 0) for t in range(n)] for row in rows]
                        == [[d * c for c in row] for row in drows]), expr
                # the same solution, and the same ranks as a dense elimination
                x, system, augmented, _ = birkhoff_mod._solve_system(n, rows, rhs, labels)
                assert x == (solve_linear(drows, drhs) if drows else [F(0)] * n), expr
                assert system == dense_rank(drows), expr
                assert augmented == dense_rank([r + [b] for r, b in zip(drows, drhs)]), expr
