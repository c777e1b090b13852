"""Benchmark worker: runs `newton_spectra.cli.main` in-process, one input at a time.

Started by run.py with the checkout root as working directory.  Protocol:
one JSON object per line on stdin, one JSON reply per line on stdout.

    {"op": "run", "argv": [...], "trace": bool, "tag": any}
        -> {"rc": int, "stdout": str, "wall": s, "cpu": s, "error": str|null}
    {"op": "exit", "spans": path|null}
        -> {"peak_rss_kb": int}

The package is imported from ./src only; the worker refuses to start when it
is missing rather than pick up an installed copy.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _run(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed input, not a dead worker
            rc = None
            error = traceback.format_exc()
    return rc, out.getvalue(), error


def main():
    if not os.path.isdir(os.path.join(SRC, "newton_spectra")):
        sys.exit("worker: %s/newton_spectra not found" % SRC)
    sys.path.insert(0, SRC)
    from newton_spectra import cli
    sys.path.insert(0, HERE)
    from tracer import Tracer

    tracer = Tracer()
    proto = sys.stdout

    def reply(obj):
        proto.write(json.dumps(obj) + "\n")
        proto.flush()

    reply({"ready": True})
    for line in sys.stdin:
        req = json.loads(line)
        if req["op"] == "exit":
            if req.get("spans"):
                with open(req["spans"], "w", encoding="utf-8") as fh:
                    for span in tracer.spans:
                        fh.write(json.dumps(span) + "\n")
            reply({"peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
            return
        argv = list(req["argv"])
        if req["trace"]:
            tracer.tag = req["tag"]
            tracer.install()
            try:
                w0, c0 = time.perf_counter(), time.process_time()
                rc, stdout, error = tracer.call("cli." + argv[0], _run, (cli, argv), {})
                wall, cpu = time.perf_counter() - w0, time.process_time() - c0
            finally:
                tracer.restore()
        else:
            w0, c0 = time.perf_counter(), time.process_time()
            rc, stdout, error = _run(cli, argv)
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        reply({"rc": rc, "stdout": stdout, "wall": wall, "cpu": cpu, "error": error})


if __name__ == "__main__":
    main()
