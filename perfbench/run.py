"""Benchmark of the newton-spectra pipeline, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 55 --trace 0

Closed loop, one input in flight: the parent starts one worker process
(worker.py) that imports the package from ./src and runs
`newton_spectra.cli.main` in-process on each input, so the bytes checked are
the bytes the CLI prints and interpreter start-up is paid once, in setup.
The parent enforces each input's time budget: an input that exceeds it is
recorded as failed, the worker is killed and a new one started.

A pass runs every input of the workload once, in an order drawn from the
seed; passes repeat until the next one would end well past --seconds.
Between untraced inputs, while the worker waits, the parent times a fixed
reference computation (probe.py) for 5% of the input time so far.  The
parent and the worker share one CPU (see `main`).

End-to-end metrics (--trace 0):
    setup_s      median of 9 set-ups: worker start, `import newton_spectra`,
                 input generation
    pass_norm    median wall time of a pass / median probe time
    peak_rss_mb  the worker's peak resident memory
Pass time, CPU time and the slowest input's time in seconds, the slowest pass
and the pass count are printed above the result line.  With --trace 1 untraced and traced
passes alternate; the traced passes give the per-layer metrics (tracer.py),
and trace.overhead_s is the median traced pass minus the median untraced
pass.  Workloads and their rationale are in workloads.py.

The last line of stdout is one JSON object:
    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}
`failed / attempted` is the failed share: an input fails when it crashes,
exceeds its budget, exits with the wrong code or prints wrong output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

import tracer
from probe import probe_times
from workloads import WORKLOADS, Input

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
ORACLE = os.path.join(HERE, "oracle.json")
OUT_DIR = os.path.join(HERE, "out")

SETUP_REPEATS = 9
# share of the untraced input time spent on the probe
PROBE_SHARE = 0.05
# Whatever the budgets, no run goes on longer than this; inputs still
# pending then count as failed.  Leaves room for set-up and exit under 180 s.
RUN_LIMIT_S = 150.0
READY_TIMEOUT_S = 60.0

# report sections compared byte for byte with the oracle; schema, input and
# nondegeneracy are left out because they depend on the seed or are due to
# change (ROADMAP item 4)
SECTIONS = ("mu", "basis", "spectrum", "pencil", "birkhoff", "frobenius")
FLAGS = ("v_solution", "v_plus", "opposite", "b_opposed")


class WorkerDied(Exception):
    pass


class InputTimeout(Exception):
    pass


class Worker:
    """One worker process and its line protocol."""

    def __init__(self):
        # a fixed hash seed makes every iteration over a set the same in
        # every run, so the work done cannot vary with it
        env = dict(os.environ, PYTHONHASHSEED="0")
        self.proc = subprocess.Popen(
            [sys.executable, WORKER], cwd=ROOT, env=env, bufsize=0,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        self._buf = b""

    def wait_ready(self):
        self._read(READY_TIMEOUT_S)

    def request(self, obj, timeout):
        try:
            self.proc.stdin.write((json.dumps(obj) + "\n").encode())
        except BrokenPipeError as exc:
            raise WorkerDied("worker exited") from exc
        return self._read(timeout)

    def _read(self, timeout):
        deadline = time.perf_counter() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            left = deadline - time.perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise InputTimeout
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise WorkerDied("worker exited with code %s" % self.proc.wait())
            self._buf += chunk
        line, _, self._buf = self._buf.partition(b"\n")
        return json.loads(line)

    def close(self, spans_path=None):
        """Ask the worker to exit; returns its peak RSS in KiB."""
        try:
            reply = self.request({"op": "exit", "spans": spans_path}, READY_TIMEOUT_S)
            self.proc.wait(timeout=READY_TIMEOUT_S)
            return reply["peak_rss_kb"]
        finally:
            self.kill()

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


# ---------------------------------------------------------------------------
# correctness


def section_digests(report):
    """sha256 of each compared section, serialised the way the CLI does."""
    return {
        key: hashlib.sha256(json.dumps(report.get(key), indent=2).encode()).hexdigest()
        for key in SECTIONS
    }


def invariant_failure(inp: Input, report):
    """Checks made by the benchmark itself, independent of the oracle."""
    if report["mu"] != inp.mu:
        return "mu = %s, expected %d" % (report["mu"], inp.mu)
    pairs = [(Fraction(p["alpha"]), p["nu"]) for p in report["spectrum"]["pairs"]]
    nu = dict(pairs)
    if sum(nu.values()) != inp.mu:
        return "spectrum multiplicities sum to %d, not mu" % sum(nu.values())
    if any(nu.get(inp.n - a) != m for a, m in pairs):
        return "spectrum is not symmetric about n/2"
    birk = report["birkhoff"]
    if birk["status"] != "solved":
        return "birkhoff status is %s" % birk["status"]
    if set(birk["flags"]) != set(FLAGS) or not all(birk["flags"].values()):
        return "birkhoff flags %s" % birk["flags"]
    return None


def output_failure(inp: Input, rc, stdout, expected):
    """None when the output of one input is right, else what is wrong."""
    if rc != inp.exit_code:
        return "exit code %s, expected %d" % (rc, inp.exit_code)
    if inp.kind == "check":
        lines = stdout.strip().splitlines()
        m = re.fullmatch(r"(\d+) passed, 0 failed", lines[-1]) if lines else None
        if m is None or int(m.group(1)) != expected["passed"]:
            return "check summary is %r, expected %d passed, 0 failed" % (
                lines[-1] if lines else "", expected["passed"])
        return None
    try:
        report = json.loads(stdout)
    except ValueError:
        return "output is not JSON"
    digests = section_digests(report)
    differ = [key for key in SECTIONS if digests[key] != expected["sections"][key]]
    if differ:
        return "sections differ from the oracle: " + ", ".join(differ)
    if inp.kind == "reject":
        return None if report.get("error") else "rejected input reports no error"
    try:
        return invariant_failure(inp, report)
    except (KeyError, TypeError, ValueError) as exc:
        return "malformed report: %r" % exc


# ---------------------------------------------------------------------------
# the measured loop


@dataclass
class Outcome:
    input_id: str
    pass_index: int
    traced: bool
    wall: float
    cpu: float
    failure: str | None
    stdout: str = ""
    probe: tuple = ()


def start_worker():
    worker = Worker()
    try:
        worker.wait_ready()
    except BaseException:
        worker.kill()
        raise
    return worker


def run_workload(name, seed, seconds, trace, inputs=None, budget=None):
    """Set up, then run passes for about `seconds`; returns the raw results.

    `inputs` (ids) and `budget` narrow a workload for the smoke test.
    """
    t_begin = time.perf_counter()
    with open(ORACLE, encoding="utf-8") as fh:
        oracle = json.load(fh)["inputs"]
    setup, worker = [], None
    # each set-up generates the inputs and starts a worker; all but the
    # last worker are closed again, and setup_s is the median
    for _ in range(SETUP_REPEATS):
        if worker is not None:
            worker.close()
        t0 = time.perf_counter()
        chosen = [i for i in WORKLOADS[name] if inputs is None or i.id in inputs]
        rng = random.Random(seed)
        worker = start_worker()
        setup.append(time.perf_counter() - t0)

    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, "%s-seed%d-%d.spans.jsonl" % (name, seed, os.getpid()))
    outcomes = []
    t_start = time.perf_counter()
    round_kinds = (False, True) if trace else (False,)
    try:
        pass_index, stop = 0, False
        busy = probed = 0.0
        while not stop:
            for traced in round_kinds:
                order = list(chosen)
                rng.shuffle(order)
                for inp in order:
                    left = RUN_LIMIT_S - (time.perf_counter() - t_begin)
                    timeout = min(budget or inp.budget_s, left)
                    if timeout <= 0:
                        outcomes.append(Outcome(inp.id, pass_index, traced, 0.0, 0.0,
                                                "run time limit reached"))
                        stop = True
                        continue
                    req = {"op": "run", "argv": list(inp.argv) + ["--seed", str(seed)],
                           "trace": traced, "tag": [pass_index, inp.id]}
                    t0 = time.perf_counter()
                    try:
                        reply = worker.request(req, timeout)
                        failure = reply["error"] or output_failure(
                            inp, reply["rc"], reply["stdout"], oracle[inp.id])
                        outcome = Outcome(inp.id, pass_index, traced, reply["wall"],
                                          reply["cpu"], failure, reply["stdout"])
                    except (InputTimeout, WorkerDied) as exc:
                        waited = time.perf_counter() - t0
                        why = ("exceeded its %.0f s budget" % timeout
                               if isinstance(exc, InputTimeout) else str(exc))
                        outcome = Outcome(inp.id, pass_index, traced, waited, waited, why)
                        worker.kill()
                        worker = start_worker()
                    if not traced:
                        busy += outcome.wall
                        owed = PROBE_SHARE * busy - probed
                        if owed > 0:
                            outcome.probe = tuple(probe_times(owed))
                            probed += sum(outcome.probe)
                    outcomes.append(outcome)
                pass_index += 1
            elapsed = time.perf_counter() - t_start
            mean_round = elapsed / (pass_index / len(round_kinds))
            stop = stop or elapsed + 0.5 * mean_round >= seconds
        # spans and peak memory of a worker killed on a timeout are lost, so
        # after one the per-layer metrics cover the last worker's passes only
        peak_kb = worker.close(spans_path if trace else None)
    finally:
        worker.kill()
    spans = []
    if trace:
        with open(spans_path, encoding="utf-8") as fh:
            spans = [json.loads(line) for line in fh]
    return {"setup": setup, "outcomes": outcomes, "peak_kb": peak_kb, "spans": spans}


# ---------------------------------------------------------------------------
# metrics


def _passes(outcomes, traced):
    by_pass = {}
    for o in outcomes:
        if o.traced == traced:
            by_pass.setdefault(o.pass_index, []).append(o)
    return [by_pass[k] for k in sorted(by_pass)]


def timings(raw):
    """Untraced timings in seconds: medians over passes, and the probe."""
    passes = _passes(raw["outcomes"], traced=False)
    walls = [sum(o.wall for o in p) for p in passes]
    return {
        "pass_s": statistics.median(walls),
        "pass_s.max": max(walls),
        "pass_cpu_s": statistics.median(sum(o.cpu for o in p) for p in passes),
        "slowest_input_s": statistics.median(max(o.wall for o in p) for p in passes),
        "probe_s": statistics.median(t for o in raw["outcomes"] for t in o.probe),
        "passes": len(walls),
    }


def end_to_end(raw):
    """The benchmark's end-to-end metrics.

    Pass time is divided by the median probe time of the same run.  On a
    shared host the machine's speed drifts between runs, CPU time with it
    (it equals wall time within 1% here); the probe, timed between the
    inputs on the same CPU, drifts along (see probe.py).
    """
    times = timings(raw)
    return {
        "setup_s": (statistics.median(raw["setup"]), "s"),
        "pass_norm": (times["pass_s"] / times["probe_s"], "ref"),
        "peak_rss_mb": (raw["peak_kb"] / 1024, "MB"),
    }


def per_layer(raw):
    """Median over traced passes of each layer metric, plus the trace overhead."""
    spans_by_pass = {}
    for span in raw["spans"]:
        spans_by_pass.setdefault(span[3][0], []).append(span)
    failed = {o.pass_index for o in raw["outcomes"] if o.failure}
    complete = [s for k, s in sorted(spans_by_pass.items()) if k not in failed]
    per_pass = [tracer.pass_metrics(s) for s in complete or [[]]]
    metrics = {key: (value, tracer.COUNT_METRICS.get(key, "s"))
               for key, value in tracer.median_metrics(per_pass).items()}
    untraced = [sum(o.wall for o in p) for p in _passes(raw["outcomes"], traced=False)]
    traced = [sum(o.wall for o in p) for p in _passes(raw["outcomes"], traced=True)]
    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def stage_shares(spans):
    """Share of traced time in each stage called directly by cli.main.

    Stage time is inclusive (a stage's kernels count towards it).  Returns
    [(input id or "all", [(stage, share), ...] largest first), ...].
    """
    roots = {s[0]: s[2] for s in spans if s[1] is None}
    total, stages = {}, {}
    for sid, parent, name, tag, t0, t1, _ in spans:
        if parent is None:
            # the root's own duration is the input's traced time; its self
            # time appears as a stage through the negative term below
            name, parent_name = name + " (self)", None
        elif parent in roots:
            parent_name = roots[parent] + " (self)"
        else:
            continue
        for key in ("all", tag[1]):
            by_stage = stages.setdefault(key, {})
            by_stage[name] = by_stage.get(name, 0.0) + (t1 - t0)
            if parent_name:
                by_stage[parent_name] = by_stage.get(parent_name, 0.0) - (t1 - t0)
            else:
                total[key] = total.get(key, 0.0) + (t1 - t0)
    return [(key, sorted(((n, t / total[key]) for n, t in stages[key].items()),
                         key=lambda kv: -kv[1]))
            for key in sorted(stages, key=lambda k: (k != "all", k))]


def _summary(name, seed, raw, metrics, trace):
    outcomes = raw["outcomes"]
    failed = [o for o in outcomes if o.failure]
    n_passes = len({o.pass_index for o in outcomes})
    lines = ["workload %s, seed %d: %d passes (%s), %d inputs per pass"
             % (name, seed, n_passes, "untraced and traced alternating" if trace
                else "untraced", len({o.input_id for o in outcomes}))]
    lines.append("failed_share = %d/%d = %.4f"
                 % (len(failed), len(outcomes), len(failed) / len(outcomes)))
    for o in failed[:10]:
        lines.append("  failed %s (pass %d): %s" % (o.input_id, o.pass_index, o.failure))
    for key, (value, unit) in metrics.items():
        lines.append("%s = %.6g %s" % (key, value, unit))
    if not trace:
        # a run has too few passes for any percentile to have ten samples
        # beyond it, so the slowest pass is shown instead of a percentile
        times = timings(raw)
        lines.append("in seconds: " + ", ".join(
            "%s = %.6g s" % (k, times[k])
            for k in ("pass_s", "pass_s.max", "pass_cpu_s", "slowest_input_s", "probe_s")))
        lines.append("pass_s.max is the slowest of %d passes" % times["passes"])
    if trace:
        times = {k: v for k, (v, unit) in metrics.items()
                 if unit == "s" and k != "trace.overhead_s"}
        total = sum(times.values()) or 1.0
        lines.append("largest self times: " + ", ".join(
            "%s %.0f%%" % (k, 100 * v / total)
            for k, v in sorted(times.items(), key=lambda kv: -kv[1])[:4]))
        lines.append("largest stages, inclusive, share of traced time:")
        for key, ranked in stage_shares(raw["spans"]):
            lines.append("  %s: " % key + ", ".join(
                "%s %.0f%%" % (n, 100 * s) for n, s in ranked[:3]))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One CPU for the parent, its probe and the worker, which inherits the
    # mask: on a shared host the CPUs drift in speed independently, and a
    # worker that migrates between them is measured against a probe that
    # ran elsewhere.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    raw = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = per_layer(raw) if args.trace else end_to_end(raw)
    for line in _summary(args.workload, args.seed, raw, metrics, bool(args.trace)):
        print(line)
    failed = sum(1 for o in raw["outcomes"] if o.failure)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(raw["outcomes"]),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
