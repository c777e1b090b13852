"""Byte-identity guard: every `analyze` input of the benchmark against its oracle.

perfbench/oracle.json records, for each benchmark input run with --seed 0,
the exit code and the sha256 of each compared report section serialised as
json.dumps(section, indent=2).  This test recomputes them in-process for
every `analyze` input (the corpus, spectral and gauge workloads), so a change
that moves any of those bytes fails tier-1 and not only the benchmark.  It
reads perfbench/ and changes nothing there.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from newton_spectra.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _analyze_inputs():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
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
