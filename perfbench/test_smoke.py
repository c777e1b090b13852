"""Smoke test of the benchmark: one short input per workload, untraced and traced.

Kept out of the package's test suite; run it from the repository root with

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

SHORT = {"corpus": "c04", "spectral": "k4", "gauge": "g4", "check": "m3"}
BUDGET_S = 20.0

END_TO_END = {"setup_s": "s", "pass_norm": "ref", "peak_rss_mb": "MB"}
PER_LAYER = {
    **{name: "s" for name in (
        "birkhoff.v_plus_s", "linalg.rational_roots_s", "linalg.charpoly_s",
        "birkhoff.solve_s", "linalg.solve_linear_s", "linalg.rref_s",
        "birkhoff.graded_model_s", "linalg.nullspace_s", "linalg.rank_s",
        "jacobian.basis_s", "polytope.enumerate_s", "polytope.build_s",
        "jacobian.divide_s", "brieskorn.reduce_s", "cli.check_self_s",
        "brieskorn.pencil_s", "brieskorn.spectrum_s", "birkhoff.residual_s",
        "birkhoff.v_solution_s", "nondegeneracy.certify_s", "laurent.parse_s",
        "frobenius.euler_s", "brieskorn.newton_order_s", "cli.analyze_self_s",
        "trace.overhead_s")},
    "linalg.charpoly_max_bits": "bits",
    "birkhoff.ansatz_share": "ratio",
    "linalg.rref_calls": "count",
    "linalg.rref_cells": "count",
    "linalg.rref_density": "ratio",
    "polytope.lattice_points": "count",
    "jacobian.divide_calls": "count",
    "brieskorn.reduce_calls": "count",
    "nondegeneracy.faces": "count",
}
# the stage calls of frobenius.analyze, each of which must leave a span
ANALYZE_STAGES = {
    "laurent.parse", "polytope.build", "jacobian.basis", "brieskorn.spectrum",
    "brieskorn.pencil", "birkhoff.solve", "birkhoff.residual",
    "birkhoff.v_solution", "birkhoff.v_plus", "birkhoff.graded_model",
    "frobenius.euler",
}


def test_benchmark_json_lists_the_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


def _sections(workload, outcome):
    if workload == "check":
        return outcome.stdout
    return run.section_digests(json.loads(outcome.stdout))


@pytest.mark.parametrize("workload", sorted(SHORT))
def test_short_input(workload):
    only = {SHORT[workload]}
    untraced = run.run_workload(workload, 1, 0.1, False, inputs=only, budget=BUDGET_S)
    traced = run.run_workload(workload, 1, 0.1, True, inputs=only, budget=BUDGET_S)
    for raw in (untraced, traced):
        assert raw["outcomes"]
        assert [o.failure for o in raw["outcomes"]] == [None] * len(raw["outcomes"])

    e2e = run.end_to_end(untraced)
    assert {k: unit for k, (value, unit) in e2e.items()} == END_TO_END
    assert all(value > 0 for value, unit in e2e.values())
    layers = run.per_layer(traced)
    assert {k: unit for k, (value, unit) in layers.items()} == PER_LAYER

    # the traced pass prints the same report sections as the untraced one
    plain = [_sections(workload, o) for o in traced["outcomes"] if not o.traced]
    spanned = [_sections(workload, o) for o in traced["outcomes"] if o.traced]
    assert spanned == plain == [_sections(workload, o) for o in untraced["outcomes"][:1]]

    names = {span[2] for span in traced["spans"]}
    if workload == "check":
        assert {"cli.check", "jacobian.divide", "brieskorn.reduce"} <= names
        assert layers["cli.check_self_s"][0] > 0
    else:
        assert {"cli.analyze"} | ANALYZE_STAGES <= names
        assert layers["birkhoff.v_plus_s"][0] > 0
