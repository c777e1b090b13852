"""Shared corpus and cached pipeline objects for the test suite.

CORPUS lists every convenient nondegenerate example exercised by the
property tests, spanning one, two and three variables.  The frozen mu
values come from the n!-volume formula and are re-derived independently
inside the tests (Ehrhart point counts, brute-force quotients).

dense_rref is a reference dense Gauss-Jordan elimination that shares no
code with the package, so the oracles built on it stay independent of the
package's elimination kernel.
"""

from fractions import Fraction

from newton_spectra import (
    BrieskornLattice,
    JacobianAlgebra,
    newton_polytope,
    parse_laurent,
    spectrum,
)

# (expression, arity, milnor number)
CORPUS = [
    ("u1 + u1^-1", 1, 2),
    ("u1 + u1^-2", 1, 3),
    ("u1^3 + u1 + u1^-2", 1, 5),
    ("u1 + u2 + u1^-1*u2^-1", 2, 3),
    ("u1^2 + u2 + u1^-1*u2^-1", 2, 5),
    ("u1^2 + u2^2 + u1^-1*u2^-1", 2, 8),
    ("u1^3 + u2^3 + u1^-1*u2^-1", 2, 15),
    ("u1*u2*u3 + u1^-1 + u2^-1 + u3^-1", 3, 4),
    ("u1 + u2 + u3 + u1^-1 + u2^-1 + u3^-1", 3, 8),
]

# Inputs every gate must reject.
NOT_CONVENIENT = ["u1 + u2", "u1 + u1^2", "u1 + u2 + u1*u2"]
DEGENERATE = "u1^2 - 2*u1*u2 + u2^2 + u1^-1*u2^-1"

_CACHE = {}


def pipeline(expr):
    """Build (and memoize) the full chain of objects for one expression."""
    if expr not in _CACHE:
        f, names = parse_laurent(expr)
        p = newton_polytope(f)
        algebra = JacobianAlgebra(f, p)
        lattice = BrieskornLattice(algebra)
        _CACHE[expr] = {
            "f": f,
            "names": names,
            "polytope": p,
            "algebra": algebra,
            "lattice": lattice,
            "pencil": lattice.pencil(),
            "spectrum": spectrum(algebra),
        }
    return _CACHE[expr]


def dense_rref(a):
    """Reference dense Gauss-Jordan: (rows, pivot columns), zero rows last."""
    rows = [[Fraction(x) for x in row] for row in a]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def dense_rank(a):
    return len(dense_rref(a)[1])
