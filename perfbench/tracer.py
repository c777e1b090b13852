"""Spans around the package's stage and kernel calls, and their reduction.

The worker installs the wrappers only while it runs a traced input and
restores the originals afterwards, so untraced inputs run the unmodified
package.  A module-level function is wrapped wherever the package binds it
(for example `rref` both in `linalg` and as imported into `birkhoff`), so the
calls `frobenius.analyze` and `cli._run_check` make are themselves the traced
stage calls.  Methods are wrapped on their class.

A span is (id, parent id, name, input tag, start, end, counts).  Spans are
kept in memory and written when the worker exits; `pass_metrics` reduces them
to self time per layer: a span's duration minus the time its child spans
cover.
"""

from __future__ import annotations

import importlib
import statistics
import sys
from math import lcm
from time import perf_counter


def _count_cells(args, result):
    a = args[0]
    cols = len(a[0]) if a else 0
    return {"cells": len(a) * cols, "nonzeros": sum(1 for row in a for x in row if x)}


def _count_bits(args, result):
    # the root search factors the coefficients scaled to integers
    coeffs = args[0]
    den = lcm(*(c.denominator for c in coeffs)) if coeffs else 1
    return {"bits": max((abs(c.numerator) * (den // c.denominator)).bit_length()
                        for c in coeffs) if coeffs else 0}


def _count_points(args, result):
    return {"points": len(result)}


def _count_faces(args, result):
    return {"faces": len(result.faces)}


def _count_ansatz(args, result):
    return {"ansatz": int(getattr(result, "method", None) == "diagonal-ansatz")}


# (module, attribute, span name, counter); "Class.method" wraps on the class
TARGETS = (
    ("laurent", "parse_laurent", "laurent.parse", None),
    ("polytope", "newton_polytope", "polytope.build", None),
    ("polytope", "milnor_number", "polytope.build", None),
    ("polytope", "NewtonPolytope.enumerate_sublevel", "polytope.enumerate", _count_points),
    ("nondegeneracy", "is_nondegenerate", "nondegeneracy.certify", _count_faces),
    ("jacobian", "JacobianAlgebra.basis", "jacobian.basis", None),
    ("jacobian", "JacobianAlgebra.check_milnor", "jacobian.basis", None),
    ("jacobian", "divide", "jacobian.divide", None),
    ("brieskorn", "spectrum", "brieskorn.spectrum", None),
    ("brieskorn", "BrieskornLattice.pencil", "brieskorn.pencil", None),
    ("brieskorn", "BrieskornLattice.reduce", "brieskorn.reduce", None),
    ("brieskorn", "BrieskornLattice.newton_order", "brieskorn.newton_order", None),
    ("birkhoff", "solve_birkhoff", "birkhoff.solve", _count_ansatz),
    ("birkhoff", "gauge_residual", "birkhoff.residual", None),
    ("birkhoff", "verify_v_solution", "birkhoff.v_solution", None),
    ("birkhoff", "verify_v_plus", "birkhoff.v_plus", None),
    ("birkhoff", "graded_model", "birkhoff.graded_model", None),
    ("frobenius", "euler_field", "frobenius.euler", None),
    ("linalg", "rref", "linalg.rref", _count_cells),
    ("linalg", "rank", "linalg.rank", None),
    ("linalg", "solve_linear", "linalg.solve_linear", None),
    ("linalg", "nullspace", "linalg.nullspace", None),
    ("linalg", "charpoly", "linalg.charpoly", None),
    ("linalg", "rational_roots", "linalg.rational_roots", _count_bits),
)

PACKAGE = "newton_spectra"


class Tracer:
    """Records spans; `install` wraps the TARGETS, `restore` undoes it."""

    def __init__(self):
        self.spans = []
        self.tag = None
        self._stack = []
        self._next_id = 0
        self._saved = []

    def call(self, name, fn, args, kwargs, counter=None):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        result = None
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            t1 = perf_counter()
            self._stack.pop()
            # counted after the span ends, so the counting is tracer overhead
            counts = counter(args, result) if counter and result is not None else None
            self.spans.append((sid, parent, name, self.tag, t0, t1, counts))

    def _wrapper(self, name, fn, counter):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter)
        return traced

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for mod_name, attr, name, counter in TARGETS:
            mod = importlib.import_module("%s.%s" % (PACKAGE, mod_name))
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._saved.append((cls, meth, orig))
                setattr(cls, meth, self._wrapper(name, orig, counter))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrapper(name, orig, counter)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._saved.append((m, key, orig))
                        setattr(m, key, wrapped)

    def restore(self):
        for owner, key, orig in reversed(self._saved):
            setattr(owner, key, orig)
        self._saved = []


# ---------------------------------------------------------------------------
# reduction (runs in the benchmark's parent process)

# span name -> per-layer time metric; every other span name maps to name + "_s"
_TIME_METRIC = {"cli.check": "cli.check_self_s", "cli.analyze": "cli.analyze_self_s"}
_CALL_METRICS = {"linalg.rref": "linalg.rref_calls", "jacobian.divide": "jacobian.divide_calls",
                 "brieskorn.reduce": "brieskorn.reduce_calls"}

SPAN_NAMES = sorted({t[2] for t in TARGETS} | set(_TIME_METRIC))

COUNT_METRICS = {
    "polytope.lattice_points": "count",
    "nondegeneracy.faces": "count",
    "linalg.rref_cells": "count",
    "linalg.rref_density": "ratio",
    "linalg.charpoly_max_bits": "bits",
    "birkhoff.ansatz_share": "ratio",
    **{metric: "count" for metric in _CALL_METRICS.values()},
}


def time_metric(span_name):
    return _TIME_METRIC.get(span_name, span_name + "_s")


def pass_metrics(spans):
    """Per-layer metrics of one pass from its spans (self times and counts)."""
    child_time = {}
    for sid, parent, name, tag, t0, t1, counts in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
    out = {time_metric(name): 0.0 for name in SPAN_NAMES}
    out.update({metric: 0 for metric in COUNT_METRICS})
    cells = nonzeros = solves = ansatz = 0
    for sid, parent, name, tag, t0, t1, counts in spans:
        out[time_metric(name)] += (t1 - t0) - child_time.get(sid, 0.0)
        if name in _CALL_METRICS:
            out[_CALL_METRICS[name]] += 1
        counts = counts or {}
        cells += counts.get("cells", 0)
        nonzeros += counts.get("nonzeros", 0)
        out["polytope.lattice_points"] += counts.get("points", 0)
        out["nondegeneracy.faces"] += counts.get("faces", 0)
        out["linalg.charpoly_max_bits"] = max(out["linalg.charpoly_max_bits"],
                                              counts.get("bits", 0))
        if name == "birkhoff.solve":
            solves += 1
            ansatz += counts.get("ansatz", 0)
    out["linalg.rref_cells"] = cells
    out["linalg.rref_density"] = nonzeros / cells if cells else 0.0
    out["birkhoff.ansatz_share"] = ansatz / solves if solves else 0.0
    return out


def median_metrics(per_pass):
    """Median over passes of each metric in a list of pass_metrics dicts."""
    return {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
