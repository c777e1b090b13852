"""Byte-identity guard: every `analyze` input of the benchmark against its oracle.

perfbench/oracle.json records, for each benchmark input run with --seed 0,
the exit code and the sha256 of each compared report section serialised as
json.dumps(section, indent=2).  This test recomputes them in-process for
every `analyze` input (the corpus, spectral and gauge workloads), so a change
that moves any of those bytes fails tier-1 and not only the benchmark.  A
second test installs the benchmark tracer's wrappers on the package and
restores them, so a renamed stage function fails here and not only in a
traced benchmark run.  Both read perfbench/ and change nothing there.
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
    spec.loader.exec_module(module)
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
    tracer = _load("perfbench_tracer", "tracer.py")
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

    before = bound()
    t = tracer.Tracer()
    try:
        t.install()
        during = bound()
        assert all(during[key] is not before[key] for key in before)
        assert main(["analyze", "--json", "u1^2 + u2^2 + u1^-1*u2^-1"]) == 0
    finally:
        t.restore()
    assert all(value is before[key] for key, value in bound().items())
    names = {name for _, _, name, _, _, _, _ in t.spans}
    assert {"polytope.build", "jacobian.basis", "brieskorn.spectrum",
            "brieskorn.pencil", "birkhoff.solve"} <= names
    json.loads(capsys.readouterr().out)
