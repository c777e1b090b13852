"""The benchmark's workloads: which inputs each one runs, and why.

BENCHMARK.json runs corpus and spectral.  gauge and check are kept for runs
by hand (`run.py --workload gauge --trace 1`): on the reference machine their
ten-run spreads with 28-s runs were 24-32% (gauge) and 12% or more (check),
at or over the largest bound a benchmark metric may have, and four
workloads leave no time for longer runs.  Add them back in a
benchmark-only change once they measure steadier.

Every input is one `newton-spectra` command line.  The benchmark appends
`--seed <n>` to it, so the seed reaches the program: it changes the random
forms of `check` and the prime sampling of the n = 3 nondegeneracy test, and
nothing in the report sections the oracle compares.

Stage shares quoted below come from one traced run each (run.py --trace 1,
seed 7) on a 2-core x86-64 container with Python 3.11.  "Inclusive" is the
time of a stage called directly by cli.main, kernels included; "self" is a
layer's own time.  Pass times on that machine drift by 20-40% between
stretches of minutes with load from other tenants.

corpus -- the fast-input guard.  The nine-polynomial acceptance corpus
    (n = 1..3, mu 2..15) plus five inputs every gate must reject (three
    non-convenient, one degenerate, one parse error), all with exit code 2.
    A pass takes 1-2 s of fixed per-input cost: `graded_model` 43%
    inclusive, `basis` 21%, `verify_v_plus` 14%.  No large root search and
    no large elimination runs here, so an optimisation of ROADMAP items 2
    or 3 should leave this workload unchanged or faster, never slower.

spectral -- ROADMAP item 2 (the spectral test).  The ladder u1^k + u1^-k for
    k = 4..8 (mu = 2k), about 8 s a pass.  `verify_v_plus` is 89% inclusive
    and `linalg.rational_roots` 89% self: its divisor search tracks the
    divisors of the characteristic polynomial's coefficients, so cost is
    not monotone in mu (k = 7 is slower than k = 8).  gauge and check should
    not move when only the root search changes.

gauge -- ROADMAP item 3 (sparse elimination) and the quotient construction.
    About 13 s a pass.  The mu = 27 input spends 68% in `solve_birkhoff`,
    which runs dense Fraction elimination (`linalg.rref`) on a 579 x 197
    system with about 2.2 nonzeros per row.  The n = 4 mirror, run with
    --assume-nondegenerate (mu = 5), spends 93% in `basis`: lattice-point
    enumeration and the level solver.  spectral should not move when only
    the elimination kernel changes.

check -- the division path.  The `check` subcommand on four inputs, about
    7 s a pass.  `jacobian.divide` is 74% self, reached through
    `BrieskornLattice.reduce` (73% inclusive): thousands of divisions
    against level echelons that are already built, where `analyze` builds
    them once and divides only mu times.  Without this workload the
    division path would go unmeasured.  Item 2 should not move it.

Inputs left out because they take 60 s to more than 540 s today, far beyond a
run's time; add them in a benchmark-only change once they are fast:

    u1^k + u1^-k for k >= 9      spectral test (rational_roots divisor search)
    u1^5 + u2^5 + u1^-1*u2^-1    spectral test, killed after 540 s
    u1^7 + u2^7 + u1^-2*u2^-3    graded_model about 51 s, plus the spectral test
    u1^5 + u2^3 + u1^-1*u2^-1    spectral test, more than 120 s
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Input:
    """One command line and what its output must satisfy.

    kind is "analyze" (exit 0, invariants on mu, spectrum and Birkhoff data),
    "reject" (exit 2) or "check" (exit 0 and "N passed, 0 failed").
    """

    id: str
    argv: tuple
    kind: str
    budget_s: float
    mu: int | None = None
    n: int | None = None

    @property
    def exit_code(self) -> int:
        return 2 if self.kind == "reject" else 0


def _analyze(id_, expr, mu, n, budget, *flags):
    return Input(id_, ("analyze", "--json", *flags, expr), "analyze", budget, mu, n)


def _reject(id_, expr, budget):
    return Input(id_, ("analyze", "--json", expr), "reject", budget)


def _check(id_, expr, level, budget):
    return Input(id_, ("check", "--max-level", str(level), expr), "check", budget)


# Per-input budgets are about five to twelve times the slowest input of the
# workload on the reference machine, so a regression of that size fails
# instead of stalling the run.
_CORPUS_BUDGET = 10.0
_SPECTRAL_BUDGET = 40.0
_GAUGE_BUDGET = 60.0
_CHECK_BUDGET = 30.0

WORKLOADS = {
    "corpus": (
        # frozen mu values of the acceptance corpus (n! * volume)
        _analyze("c01", "u1 + u1^-1", 2, 1, _CORPUS_BUDGET),
        _analyze("c02", "u1 + u1^-2", 3, 1, _CORPUS_BUDGET),
        _analyze("c03", "u1^3 + u1 + u1^-2", 5, 1, _CORPUS_BUDGET),
        _analyze("c04", "u1 + u2 + u1^-1*u2^-1", 3, 2, _CORPUS_BUDGET),
        _analyze("c05", "u1^2 + u2 + u1^-1*u2^-1", 5, 2, _CORPUS_BUDGET),
        _analyze("c06", "u1^2 + u2^2 + u1^-1*u2^-1", 8, 2, _CORPUS_BUDGET),
        _analyze("c07", "u1^3 + u2^3 + u1^-1*u2^-1", 15, 2, _CORPUS_BUDGET),
        _analyze("c08", "u1*u2*u3 + u1^-1 + u2^-1 + u3^-1", 4, 3, _CORPUS_BUDGET),
        _analyze("c09", "u1 + u2 + u3 + u1^-1 + u2^-1 + u3^-1", 8, 3, _CORPUS_BUDGET),
        _reject("r01", "u1 + u2", _CORPUS_BUDGET),
        _reject("r02", "u1 + u1^2", _CORPUS_BUDGET),
        _reject("r03", "u1 + u2 + u1*u2", _CORPUS_BUDGET),
        _reject("r04", "u1^2 - 2*u1*u2 + u2^2 + u1^-1*u2^-1", _CORPUS_BUDGET),
        _reject("r05", "u1^^2", _CORPUS_BUDGET),
    ),
    "spectral": tuple(
        _analyze("k%d" % k, "u1^%d + u1^-%d" % (k, k), 2 * k, 1, _SPECTRAL_BUDGET)
        for k in range(4, 9)
    ),
    "gauge": (
        _analyze("g27", "u1^2 + u2^2 + u3^2 + u1^-1 + u2^-1 + u3^-1", 27, 3,
                 _GAUGE_BUDGET),
        _analyze("g4", "u1 + u2 + u3 + u4 + u1^-1*u2^-1*u3^-1*u4^-1", 5, 4,
                 _GAUGE_BUDGET, "--assume-nondegenerate"),
    ),
    "check": (
        _check("m1", "u1 + u2 + u3 + u1^-1 + u2^-1 + u3^-1", 3, _CHECK_BUDGET),
        _check("m2", "u1^3 + u2^3 + u1^-1*u2^-1", 3, _CHECK_BUDGET),
        _check("m3", "u1*u2*u3 + u1^-1 + u2^-1 + u3^-1", 3, _CHECK_BUDGET),
        _check("m4", "u1^2 + u2^2 + u1^-1*u2^-1", 4, _CHECK_BUDGET),
    ),
}
