"""Byte-identity guard: every `analyze` input of the benchmark against its oracle.

perfbench/oracle.json records, for each benchmark input run with --seed 0,
the exit code and the sha256 of each compared report section serialised as
json.dumps(section, indent=2).  This test recomputes them in-process for
every `analyze` input (the corpus, spectral and gauge workloads), so a change
that moves any of those bytes fails tier-1 and not only the benchmark.  A
second test installs the benchmark tracer's wrappers on the package, traces
two `analyze` runs and restores them, so a renamed stage function fails
here and not only in a traced benchmark run, and so do lost spans of the
filtration checks.  Both read perfbench/ with bytecode writing off, and
change nothing there.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from newton_spectra.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, filename):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / filename)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    sys.modules[spec.name] = module
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def _analyze_inputs():
    module = _load("perfbench_workloads", "workloads.py")
    oracle = json.loads((PERFBENCH / "oracle.json").read_text(encoding="utf-8"))
    return [
        pytest.param(list(inp.argv), oracle["inputs"][inp.id], id=inp.id)
        for inputs in module.WORKLOADS.values()
        for inp in inputs
        if inp.argv[0] == "analyze"
    ]


@pytest.mark.parametrize("argv,expected", _analyze_inputs())
def test_analyze_matches_benchmark_oracle(capsys, argv, expected):
    rc = main(argv + ["--seed", "0"])
    report = json.loads(capsys.readouterr().out)
    assert rc == expected["exit"]
    digests = {
        key: hashlib.sha256(json.dumps(report.get(key), indent=2).encode()).hexdigest()
        for key in expected["sections"]
    }
    assert digests == expected["sections"]


def test_tracer_targets_install_and_restore(capsys):
    files = set(PERFBENCH.rglob("*"))
    tracer = _load("perfbench_tracer", "tracer.py")
    assert set(PERFBENCH.rglob("*")) == files
    modules = {m: importlib.import_module("newton_spectra." + m)
               for m in {mod for mod, _, _, _ in tracer.TARGETS}}

    def bound():
        out = {}
        for mod, attr, _, _ in tracer.TARGETS:
            if "." in attr:
                cls, meth = attr.split(".")
                out[attr] = vars(getattr(modules[mod], cls))[meth]
            else:
                out[attr] = getattr(modules[mod], attr)
        return out

    def bindings():
        # the wrappers replace a function wherever the package binds it
        return {(key, name): value for key, module in list(sys.modules.items())
                if key.split(".")[0] == "newton_spectra"
                for name, value in vars(module).items()}

    before = bound()
    package = bindings()
    t = tracer.Tracer()
    try:
        t.install()
        during = bound()
        assert all(during[key] is not before[key] for key in before)
        assert main(["analyze", "--json", "u1^2 + u2^2 + u1^-1*u2^-1"]) == 0
        json.loads(capsys.readouterr().out)
        # a traced benchmark input: the report writer's time is the self
        # time of its cli.analyze span
        spectral = t.call("cli.analyze", main, (["analyze", "--json", "u1^4 + u1^-4"],), {})
        assert spectral == 0
        json.loads(capsys.readouterr().out)
    finally:
        t.restore()
    assert all(value is before[key] for key, value in bound().items())
    assert bindings() == package
    names = {name for _, _, name, _, _, _, _ in t.spans}
    assert {"polytope.build", "jacobian.basis", "brieskorn.spectrum",
            "brieskorn.pencil", "birkhoff.solve", "birkhoff.v_solution",
            "birkhoff.v_plus", "birkhoff.graded_model", "cli.analyze"} <= names
    metrics = tracer.pass_metrics(t.spans)
    assert all(metrics[key] > 0 for key in (
        "birkhoff.v_solution_s", "birkhoff.v_plus_s", "birkhoff.graded_model_s",
        "cli.analyze_self_s"))
