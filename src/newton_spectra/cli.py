"""Command-line interface.

Commands: polytope, mu, basis, spectrum, pencil, birkhoff, frobenius,
analyze (full report), check (invariant suite on the given input).  Every
command reads the stages of one `frobenius.Pipeline`: `check` takes its
gates from the pipeline's report, as `analyze` does, and runs its property
suites on the same polytope, algebra, lattice and pencil.

Exit codes: 0 success; 1 when `check` finds a failed property; 2 invalid
input (parse error, not convenient, degenerate), a failed check of the
spectrum or bound of the connection pencil, a failed structural check of
the graded model, a failed re-check of the Milnor number, the Birkhoff or
the Frobenius data, or a pipeline stage that ran out of memory; 3 Birkhoff
obstruction (birkhoff/frobenius commands only).  The argument parser is
built on the first call of `main` and reused by later calls in the same
process.
Identical inputs and flags produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .birkhoff import BirkhoffObstruction
from .brieskorn import BrieskornElement
from .frobenius import SCHEMA, Pipeline, analyze_text
from .jacobian import divide
from .laurent import LaurentPolynomial, parse_laurent

COMMANDS = (
    "polytope", "mu", "basis", "spectrum", "pencil",
    "birkhoff", "frobenius", "analyze", "check",
)


@functools.cache
def _build_parser():
    """The argument parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="newton-spectra",
        description="Newton-polytope spectra and Frobenius initial data "
        "for convenient nondegenerate Laurent polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument(
            "expr", nargs="?", default=None,
            help="Laurent polynomial, e.g. 'u1+u2+u1^-1*u2^-1'; '-' reads stdin",
        )
        sp.add_argument("--file", help="read the polynomial from this file")
        sp.add_argument("--vars", help="comma-separated variable names")
        sp.add_argument("--json", action="store_true", help="emit JSON")
        sp.add_argument(
            "--assume-nondegenerate", action="store_true",
            help="no effect; the exact nondegeneracy certificate always runs",
        )
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument(
            "--max-level", type=int, default=2,
            help="phi cutoff, at least 1, for the property suites (check command)",
        )
    return parser


def _read_input(args):
    sources = [s for s in (args.expr, args.file) if s]
    if args.expr == "-":
        if args.file:
            raise SystemExit2("give exactly one input source")
        return sys.stdin.read()
    if len(sources) != 1:
        raise SystemExit2(
            "give exactly one input source (inline expression, --file, or '-')"
        )
    if args.file:
        with open(args.file, "r", encoding="utf-8") as fh:
            return fh.read()
    return args.expr


class SystemExit2(Exception):
    pass


def _emit_json(obj):
    """Write json.dumps(obj, indent=2) and a newline, byte for byte, for obj
    of str, int, bool, None, list, tuple and dicts with str keys (else
    TypeError).  A list of strings or ints alone is one join, and so is a
    matrix of strings none of which needs escaping (`_plain`)."""
    out = []
    _encode(obj, "\n", out)
    out.append("\n")
    sys.stdout.write("".join(out))


def _encode(obj, pad, out):
    """Append the text of obj to out; pad opens obj's own line."""
    kind = type(obj)
    if kind is str:
        out.append(_quote(obj))
    elif kind is int:
        out.append(int.__repr__(obj))
    elif obj is None or kind is bool:
        out.append("null" if obj is None else "true" if obj else "false")
    elif kind not in (list, tuple, dict):
        raise TypeError("%s is not JSON serializable" % kind.__name__)
    elif not obj:
        out.append("{}" if kind is dict else "[]")
    elif kind is dict:
        inner = pad + "  "
        sep = "{" + inner
        for key, value in obj.items():
            if type(key) is not str:
                raise TypeError("keys must be str")
            out.append(sep + _quote(key) + ": ")
            _encode(value, inner, out)
            sep = "," + inner
        out.append(pad + "}")
    elif (kinds := set(map(type, obj))) == {str} or kinds == {int}:
        inner = pad + "  "
        if str in kinds and _plain("".join(obj)):
            body = '"' + ('",' + inner + '"').join(obj) + '"'
        else:
            body = ("," + inner).join(map(_quote if str in kinds else int.__repr__, obj))
        out.append("[" + inner + body + pad + "]")
    elif kinds <= {list, tuple} and all(obj) and _plain_rows(obj):
        inner = pad + "  "
        cell = inner + "  "
        rows = map(('",' + cell + '"').join, obj)
        out.append("[" + inner + "[" + cell + '"'
                   + ('"' + inner + "]," + inner + "[" + cell + '"').join(rows)
                   + '"' + inner + "]" + pad + "]")
    else:
        inner = pad + "  "
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            _encode(value, inner, out)
            sep = "," + inner
        out.append(pad + "]")


def _plain(text):
    """Whether `_quote` keeps text as it is: printable ASCII, no DEL, quote
    or backslash."""
    return text.isascii() and text.isprintable() and '"' not in text and "\\" not in text


def _plain_rows(rows):
    """Whether the rows hold plain strings alone."""
    try:
        return _plain("".join(map("".join, rows)))
    except TypeError:  # a cell that is not a string
        return False


def _lin_form(coeffs):
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        var = "x%d" % (i + 1)
        if c == 1:
            body = var
        elif c == -1:
            body = "-" + var
        else:
            body = "%s*%s" % (c, var)
        if not parts:
            parts.append(body)
        elif body.startswith("-"):
            parts.append(" - " + body[1:])
        else:
            parts.append(" + " + body)
    return "".join(parts) or "0"


def _render_matrix(name, m):
    lines = ["%s:" % name]
    for row in m:
        lines.append("  [%s]" % ", ".join(str(x) for x in row))
    return lines


# ---------------------------------------------------------------------------
# human renderers for the report sections


def _human_polytope(sec):
    lines = ["n = %d" % sec["vars"], "convenient = %s" % sec["convenient"]]
    lines.append(
        "vertices: " + "; ".join("(%s)" % ", ".join(map(str, v)) for v in sec["vertices"])
    )
    lines.append("scale = %d" % sec["scale"])
    for i, f in enumerate(sec["facets"]):
        coeffs = [Fraction(c) for c in f["coeffs"]]
        lines.append("facet %d: %s = 1" % (i, _lin_form(coeffs)))
    return lines


def _human_basis(sec, names):
    lines = []
    for i, (mono, deg) in enumerate(zip(sec["monomials"], sec["degrees"])):
        f = LaurentPolynomial.monomial(tuple(mono), Fraction(1))
        lines.append("%d: %s  (alpha = %s)" % (i, f.format(names), deg))
    lines.append("graded dims: %s" % " ".join(str(d) for d in sec["graded_dims"]))
    return lines


def _human_spectrum(sec):
    lines = ["%s: %d" % (p["alpha"], p["nu"]) for p in sec["pairs"]]
    lines.append("SP(S) = %s" % sec["factored"])
    return lines


def _human_pencil(sec):
    lines = ["theta degree = %d" % sec["degree"]]
    for k, m in enumerate(sec["matrices"]):
        lines.extend(_render_matrix("B[%d]" % k, m))
    return lines


def _human_birkhoff(sec):
    if sec["status"] == "obstruction":
        lines = ["obstruction: %s" % sec["message"]]
        lines.append(
            "equations = %d, unknowns = %d, residual rank = %d"
            % (sec["equations"], sec["unknowns"], sec["residual_rank"])
        )
        if sec["unsatisfiable"]:
            lines.append(
                "unsatisfiable constraints (theta deg, row, col): "
                + "; ".join(str(tuple(t)) for t in sec["unsatisfiable"])
            )
        return lines
    lines = ["method = %s" % sec["method"]]
    lines.extend(_render_matrix("A0", sec["a0"]))
    lines.extend(_render_matrix("Ainf", sec["ainf"]))
    for k, m in enumerate(sec["gauge"]):
        lines.extend(_render_matrix("P[%d]" % k, m))
    flags = sec["flags"]
    lines.append(
        "flags: " + " ".join("%s=%s" % (k, "yes" if v else "no")
                             for k, v in flags.items())
    )
    return lines


def _human_frobenius(sec):
    lines = [
        "exponents: " + ", ".join(sec["exponents"]),
        "c: " + ", ".join(sec["c"]),
        "D = %s" % sec["D"],
        "E = %s" % sec["euler_field"],
    ]
    if sec["pencil_not_normalized"]:
        lines.append("caveat: pencil not normalized (Birkhoff obstruction); "
                     "exponents are Newton degrees")
    return lines


def _human_analyze(report):
    lines = ["input: %s" % report["input"]["expression"]]
    sec = report["polytope"]
    lines.append("n = %d, scale = %d, mu = %s"
                 % (sec["vars"], sec["scale"], report["mu"]))
    nd = report["nondegeneracy"]
    lines.append("nondegenerate: graded quotient empty at levels %d..%d"
                 % tuple(nd["window"]))
    lines.extend(_human_spectrum(report["spectrum"]))
    var = report["spectrum"]["variance"]
    lines.append("variance: %s vs n/12 = %s (reported, satisfied = %s)"
                 % (var["lhs"], var["rhs"], var["satisfied"]))
    lines.append("pencil theta degree = %d" % report["pencil"]["degree"])
    birk = report["birkhoff"]
    if birk["status"] == "obstruction":
        lines.append("birkhoff: obstruction (%s)" % birk["message"])
    else:
        flags = birk["flags"]
        lines.append("birkhoff: %s; " % birk["method"]
                     + " ".join("%s=%s" % (k, "yes" if v else "no")
                                for k, v in flags.items()))
    lines.extend(_human_frobenius(report["frobenius"]))
    return lines


def _run_report_command(args):
    text = _read_input(args)
    names = tuple(args.vars.split(",")) if args.vars else None
    report, status = analyze_text(text, names, seed=args.seed)
    if status == "invalid":
        if args.command == "analyze":
            if args.json:
                _emit_json(report)
            else:
                print("error (%s): %s"
                      % (report["error"]["stage"], report["error"]["message"]))
        print("error: %s" % report["error"]["message"], file=sys.stderr)
        return 2
    if args.command == "analyze":
        if args.json:
            _emit_json(report)
        else:
            for line in _human_analyze(report):
                print(line)
        return 0
    sec = report[args.command]
    exit_code = 0
    if status == "obstruction" and args.command in ("birkhoff", "frobenius"):
        exit_code = 3
        print("error: Birkhoff obstruction; see diagnostics", file=sys.stderr)
    if args.json:
        _emit_json({"schema": SCHEMA, "command": args.command, args.command: sec})
        return exit_code
    render = {"polytope": _human_polytope, "mu": lambda sec: [str(sec)],
              "basis": lambda sec: _human_basis(sec, report["input"]["variables"]),
              "spectrum": _human_spectrum, "pencil": _human_pencil,
              "birkhoff": _human_birkhoff, "frobenius": _human_frobenius}
    for line in render[args.command](sec):
        print(line)
    return exit_code


# ---------------------------------------------------------------------------
# the `check` command: run every module's property suite on the input


def _random_form(rng, monos, arity):
    chosen = rng.sample(monos, rng.randint(1, min(4, len(monos))))
    terms = {}
    for e in chosen:
        c = 0
        while c == 0:
            c = rng.randint(-3, 3)
        terms[e] = Fraction(c)
    return LaurentPolynomial(arity, terms)


def _random_element(rng, mu):
    coords = {}
    for i in range(mu):
        for k in range(rng.randint(0, 3)):
            c = rng.randint(-2, 2)
            if c:
                coords[k, i] = Fraction(c)
    return BrieskornElement(coords)


def _run_check(args):
    if args.max_level < 1:
        raise SystemExit2("--max-level must be at least 1")
    text = _read_input(args)
    names = tuple(args.vars.split(",")) if args.vars else None
    try:
        f, names = parse_laurent(text, names)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    pipe = Pipeline(f, names, args.seed)
    report, _ = pipe.report()
    error = report["error"] or {"stage": None}
    stage = error["stage"]
    if (stage in ("polytope", "nondegeneracy", "mu", "basis", "spectrum", "pencil")
            or error.get("type") == "MemoryError"):
        print("error: %s" % error["message"], file=sys.stderr)
        return 2

    results = []

    def record(name, ok, detail=""):
        results.append((name, bool(ok), detail))

    record("nondegeneracy-certificate", pipe.certificate.ok,
           "graded quotient empty at levels %d..%d" % pipe.certificate.window)
    record("milnor-two-ways", True, "mu = %d" % pipe.mu)

    p, algebra, lattice, pencil, sp = (
        pipe.polytope, pipe.algebra, pipe.lattice, pipe.pencil, pipe.spectrum)
    n = f.arity
    sym = all(
        dict(sp.pairs).get(Fraction(n) - a, 0) == m for a, m in sp.pairs
    )
    total = sum(m for _, m in sp.pairs)
    record(
        "spectrum-invariants",
        sym and total == pipe.mu and sp.pairs[0] == (Fraction(0), 1),
        "symmetric about n/2, total = mu, nu_0 = 1",
    )

    monos = [e for e in p.enumerate_sublevel(args.max_level) if any(e)]
    ok_facets = True
    count = 0
    for e in monos:
        g = LaurentPolynomial.monomial(e, Fraction(1))
        for ix in range(len(p.facets)):
            ok_facets = ok_facets and lattice.check_facet_identity(g, ix)
            count += 1
    record("facet-identities", ok_facets,
           "%d monomial/facet pairs at phi <= %d" % (count, args.max_level))

    rng = random.Random(args.seed)
    ok_div = True
    for _ in range(25):
        g = _random_form(rng, monos, f.arity)
        w = divide(algebra, g)
        ok_div = ok_div and w.verify(algebra)
    record("division-roundtrip", ok_div, "25 random forms, phi <= %d"
           % args.max_level)

    ok_ord = True
    for _ in range(25):
        x = _random_element(rng, pencil.mu)
        y = _random_element(rng, pencil.mu)
        ox, oy = lattice.newton_order(x), lattice.newton_order(y)
        if ox is not None:
            if lattice.newton_order(x.theta_shift(1)) != ox + 1:
                ok_ord = False
            ot = lattice.newton_order(pencil.apply_t(x))
            if ot is not None and ot > ox + 1:
                ok_ord = False
        s = lattice.newton_order(x + y)
        if s is not None and ox is not None and oy is not None:
            if s > max(ox, oy):
                ok_ord = False
    for e in monos[: 2 * pencil.mu]:
        g = LaurentPolynomial.monomial(e, Fraction(1))
        ored = lattice.newton_order(lattice.reduce(g))
        if ored is not None and ored > p.phi_exp(e):
            ok_ord = False
    record("newton-order-laws", ok_ord, "25 random lattice elements")

    degrees = pencil.degrees
    ok_pencil = pencil.degree <= n
    if len(pencil.matrices) > 1:
        tr = sum(row.get(i, 0) for i, row in enumerate(pencil.matrices[1]))
        ok_pencil = ok_pencil and tr == sum(degrees, Fraction(0))
    for k, m in enumerate(pencil.matrices):
        for j, row in enumerate(m):
            for i in row:
                if Fraction(k) + degrees[j] > degrees[i] + 1:
                    ok_pencil = False
    record("pencil-invariants", ok_pencil,
           "theta degree <= n, trace, order bounds")

    # the gates after the pencil are read off the report: a failed gate is
    # the last gate line, as it ends the report
    outcome = None if stage == "birkhoff" else pipe.birkhoff
    if isinstance(outcome, BirkhoffObstruction):
        record("birkhoff-normal-form", True,
               "obstruction (residual rank %d) -- honest fallback"
               % outcome.residual_rank)
    elif outcome is not None:
        record("birkhoff-normal-form", True,
               "method = %s, gauge identity exact" % outcome.method)
        if stage != "graded_model":
            record("v-filtration", all(outcome.flags.values()),
                   "v_solution, v_plus, opposite, b_opposed")
        if stage is None:
            data = pipe.frobenius
            record("euler-field", data.charge == 2 - n and data.alpha_min == 0,
                   "D = %s" % data.charge)
    if stage is not None:
        gate = {"birkhoff": "birkhoff-normal-form", "graded_model": "v-filtration",
                "frobenius": "euler-field"}[stage]
        record(gate, False, error["message"])

    failed = sum(1 for _, ok, _ in results if not ok)
    for name, ok, detail in results:
        tag = "PASS" if ok else "FAIL"
        print("%s %s%s" % (tag, name, (" (%s)" % detail) if detail else ""))
    print("%d passed, %d failed" % (len(results) - failed, failed))
    return 1 if failed else 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "check":
            return _run_check(args)
        return _run_report_command(args)
    except SystemExit2 as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
