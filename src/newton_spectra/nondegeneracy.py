"""Nondegeneracy certificate read off the Newton-graded quotient.

A convenient f is nondegenerate when, for every proper face sigma of its
Newton polytope, the logarithmic derivatives u_i df_sigma/du_i have no
common zero in the torus (C*)^n.  The face polynomial f_sigma itself is
redundant in that system: a linear form L with L == 1 on sigma gives the
Euler relation sum_i L_i u_i df_sigma/du_i = f_sigma, so every common zero
of the log-derivatives is a zero of f_sigma.

`JacobianAlgebra` builds the Newton-graded ring gr A, in which u^a * u^b is
u^(a+b) when a and b lie in a common facet cone and 0 otherwise, modulo the
leading forms of the u_i df/du_i, level by level in the scaled Newton degree
r = d * phi (d = polytope scale).  Kouchnirenko (Invent. Math. 32, 1976)
shows that for nondegenerate f this quotient has dimension n! * vol and
vanishes above level n*d.  The certificate checks the window of levels
n*d + 1 .. n*d + d, and f is nondegenerate exactly when every window level
has graded dimension 0:

* Window lemma.  Let u^a be a monomial at level r > n*d + d.  By
  Caratheodory a = sum_i lambda_i v_i with lambda_i >= 0 over at most n
  linearly independent vertices v_i of one facet, and
  sum_i lambda_i = r/d > n, so some lambda_j >= 1.  Then a - v_j lies in
  the same cone at level r - d > n*d, and u^a = u^(v_j) * u^(a - v_j) in
  gr A.  By induction on r, an empty window makes u^(a - v_j), hence u^a,
  zero in the quotient: it is empty at every level above n*d and has
  finite length.
* Converse.  Suppose f is degenerate on a face sigma, with z in (C*)^n a
  common zero of the u_i df_sigma/du_i.  Sending the monomials outside the
  cone C_sigma over sigma to 0 maps gr A onto the face ring
  k[C_sigma cap Z^n] (phi is linear on C_sigma, and a sum lands in C_sigma
  with phi additive only when both summands do), and the leading forms onto
  the u_i df_sigma/du_i.  For every t in C* the evaluation
  u^e -> t^(d*phi(e)) z^e is a ring map that kills them, and distinct t^d
  give distinct maps (compare the images of u^v for a vertex v of sigma),
  so the quotient has infinite length.  By the window lemma a level of the
  window is then nonzero.

So the certificate is exact for every n, with no sampling.  The proper faces
are listed in the report for reference, read off the polytope's own face
lattice (`NewtonPolytope.covers`, the one the volume is triangulated over),
each with its dimension read off the same lattice: 0 for a vertex, else one
more than any of its own facets.  No face is tested separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import DegenerateError


@dataclass
class NondegeneracyCertificate:
    ok: bool
    window: tuple              # (lo, hi) scaled levels n*d + 1 .. n*d + d
    window_dims: tuple         # graded dimension of each window level
    faces: tuple               # (dim, vertex exponent tuples) per proper face
    degenerate_level: Optional[int] = None   # first nonzero window level

    def error(self) -> DegenerateError:
        lo, hi = self.window
        d = hi - lo + 1
        return DegenerateError(
            "graded quotient is nonzero at level %s above the top spectral "
            "level %s, so f is degenerate along a face of its Newton polytope"
            % (Fraction(self.degenerate_level, d), Fraction(lo - 1, d)),
            level=self.degenerate_level,
        )

    def to_json_obj(self):
        return {
            "ok": self.ok,
            "method": "graded-quotient",
            "window": list(self.window),
            "window_dims": list(self.window_dims),
            "faces": [
                {"dim": dim, "vertices": [list(v) for v in vs]}
                for dim, vs in self.faces
            ],
            "degenerate_level": self.degenerate_level,
        }


def is_nondegenerate(algebra) -> NondegeneracyCertificate:
    """Certify nondegeneracy from the window levels of the graded quotient."""
    p = algebra.polytope
    lo = algebra.n * algebra.d + 1
    hi = algebra.n * algebra.d + algebra.d
    dims = algebra.graded_dims(lo, hi)
    # scanned in C, as d can exceed 10^7: the first entry equal to the first
    # nonzero dimension is the first nonzero one
    bad = lo + dims.index(next(filter(None, dims))) if any(dims) else None
    face_dim = {}  # the lattice is graded: one more than any own facet
    for ids in sorted(p.covers, key=len):
        face_dim[ids] = face_dim[p.covers[ids][0]] + 1 if p.covers[ids] else 0
    faces = tuple((face_dim[ids], tuple(p.vertices[i] for i in ids)) for ids in p.faces)
    return NondegeneracyCertificate(bad is None, (lo, hi), tuple(dims), faces, bad)
