"""Nondegeneracy testing for the faces of a Newton polytope.

A convenient polynomial is nondegenerate when, for every proper face, the
face-restricted polynomial together with all its logarithmic derivatives has
no common zero in the torus.  After a unimodular change of coordinates each
face lives in as many variables as its dimension, which gives:

* dimension 0 (vertices): nothing to check, always nondegenerate;
* dimension 1 (edges): exact -- reduce to one variable and test that the
  edge polynomial is squarefree away from 0 (a gcd over Q);
* dimension 2: a randomized modular test.  For a sampled prime p the face
  system is reduced mod p and emptiness of its common torus zeros over the
  algebraic closure is decided through bivariate resultants (computed by
  evaluation/interpolation of Sylvester determinants) with two random linear
  mixers to suppress spurious resultant roots.  A face is only declared
  degenerate when two distinct primes both exhibit a zero.  A genuine
  degeneracy is visible modulo every good prime, so missing one requires all
  but at most one sampled prime to be bad for the input; the reported
  failure_probability is the heuristic bound trials * q^(trials-1) with
  q = 40/len(prime pool) + 2*D/p_min (40 generously bounds the bad primes of
  desk-scale inputs, D is the Bezout bound of the face system).  This is a
  density heuristic, not a theorem; the exact dimension count performed later
  in the pipeline acts as an independent guard.

Faces of dimension >= 3 (they first appear for five or more variables, or
interior to facets in dimension four) are not supported and raise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import (
    DegenerateError,
    ExactModeUnsupportedError,
    UnsupportedFaceError,
)
from .laurent import LaurentPolynomial
from .linalg import pol_deg, pol_deriv, pol_gcd, rank, saturate_rows, solve_linear
from .polytope import NewtonPolytope, newton_polytope


@dataclass
class FaceReport:
    dim: int
    vertices: tuple            # exponent tuples spanning the face
    support_size: int
    method: str                # "vertex" | "edge-gcd" | "prime-resultant"
    ok: bool
    detail: Optional[str] = None

    def to_json_obj(self):
        return {
            "dim": self.dim,
            "vertices": [list(v) for v in self.vertices],
            "support_size": self.support_size,
            "method": self.method,
            "ok": self.ok,
            "detail": self.detail,
        }


@dataclass
class NondegeneracyCertificate:
    ok: bool
    mode: str                  # "exact" | "probabilistic" | "assumed"
    faces: list
    failure_probability: Fraction   # bound on a missed degeneracy; 0 for exact
    degenerate_face: Optional[FaceReport] = None

    def to_json_obj(self):
        return {
            "ok": self.ok,
            "mode": self.mode,
            "failure_probability": str(self.failure_probability),
            "faces": [f.to_json_obj() for f in self.faces],
            "degenerate_face": self.degenerate_face.to_json_obj() if self.degenerate_face else None,
        }


def assumed_certificate() -> NondegeneracyCertificate:
    return NondegeneracyCertificate(True, "assumed", [], Fraction(1))


# ---------------------------------------------------------------------------
# face enumeration


def proper_faces(p: NewtonPolytope):
    """All proper faces as sorted tuples of vertex ids (facets included)."""
    p.require_convenient()
    facet_sets = [frozenset(f.vertex_ids) for f in p.facets]
    faces = set(facet_sets)
    frontier = set(facet_sets)
    while frontier:
        new = set()
        for a in frontier:
            for b in facet_sets:
                c = a & b
                if c and c not in faces:
                    new.add(c)
        faces |= new
        frontier = new
    return sorted(tuple(sorted(f)) for f in faces)


def face_support(f: LaurentPolynomial, p: NewtonPolytope, vertex_ids):
    """Support points of f lying on the face spanned by the given vertices."""
    vset = set(vertex_ids)
    active = [
        ff for ff in p.facets if vset <= set(ff.vertex_ids)
    ]
    pts = []
    for e in f.support():
        if not any(e):
            continue
        if all(ff.value(e) == 1 for ff in active):
            pts.append(e)
    return pts


def _face_dim(p: NewtonPolytope, vertex_ids) -> int:
    vs = [p.vertices[i] for i in vertex_ids]
    base = vs[0]
    diffs = [[v[c] - base[c] for c in range(p.arity)] for v in vs[1:]]
    return rank(diffs) if diffs else 0


def _face_in_lattice_coords(f, pts):
    """Rewrite the face polynomial in dim(face) variables.

    Returns a dict exponent->Fraction in k variables, where k is the rank of
    the face direction lattice; coordinates are taken in a saturated basis so
    they are integral.
    """
    n = len(pts[0])
    base = pts[0]
    lattice = saturate_rows([[q[c] - base[c] for c in range(n)] for q in pts[1:]])
    cols = [list(col) for col in zip(*lattice)]
    terms = {}
    for q in pts:
        rhs = [q[c] - base[c] for c in range(n)]
        sol = solve_linear(cols, rhs)
        assert sol is not None and all(x.denominator == 1 for x in sol)
        terms[tuple(int(x) for x in sol)] = f.terms[q]
    return terms


# ---------------------------------------------------------------------------
# dimension 1: exact


def _edge_nondegenerate(terms) -> tuple[bool, str]:
    lo = min(e[0] for e in terms)
    coeffs = [Fraction(0)] * (max(e[0] for e in terms) - lo + 1)
    for e, c in terms.items():
        coeffs[e[0] - lo] = c
    g = pol_gcd(coeffs, pol_deriv(coeffs))
    # roots at 0 are outside the torus; the shift above already ensured g(0) != 0
    if pol_deg(g) >= 1:
        return False, "edge polynomial has a repeated torus root (gcd degree %d)" % pol_deg(g)
    return True, None


# ---------------------------------------------------------------------------
# dimension 2: randomized modular resultants


def _sieve_primes(lo: int, hi: int):
    sieve = bytearray([1]) * (hi + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(hi ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(lo, hi + 1) if sieve[i]]


_PRIME_POOL = None


def _prime_pool():
    global _PRIME_POOL
    if _PRIME_POOL is None:
        _PRIME_POOL = _sieve_primes(211, 9973)
    return _PRIME_POOL


def _pmod_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmod_gcd(a, b, p):
    a, b = _pmod_trim(list(a)), _pmod_trim(list(b))
    while b:
        inv = pow(b[-1], p - 2, p)
        while len(a) >= len(b):
            c = a[-1] * inv % p
            k = len(a) - len(b)
            for i in range(len(b)):
                a[k + i] = (a[k + i] - c * b[i]) % p
            _pmod_trim(a)
            if not a:
                break
        a, b = b, a
    return a


def _strip_val(a):
    """Remove the power-of-variable factor from a univariate coefficient list."""
    a = _pmod_trim(list(a))
    v = 0
    while a and a[0] == 0:
        a.pop(0)
        v += 1
    return a, v


def _biv_mod_p(terms, p):
    """Bivariate dict (i,j)->Fraction to mod-p dict, shifted to exponents >= 0."""
    mi = min(e[0] for e in terms)
    mj = min(e[1] for e in terms)
    out = {}
    for (i, j), c in terms.items():
        num = c.numerator % p
        den = c.denominator % p
        if den == 0:
            return None
        out[(i - mi, j - mj)] = num * pow(den, p - 2, p) % p
    return {e: c for e, c in out.items() if c}


def _sylvester_resultant_samples(h0, h1, p, samples):
    """Res_t(h0, h1) evaluated at s=v for each v, via Sylvester determinants.

    h polynomials are dicts (s_exp, t_exp) -> int mod p.  Degrees are fixed
    once from the polynomials, so each sample is the honest evaluation of the
    resultant polynomial in s.
    """
    d0 = max(e[1] for e in h0)
    d1 = max(e[1] for e in h1)
    if d0 == 0 and d1 == 0:
        return [1 for _ in samples]
    size = d0 + d1
    out = []
    for v in samples:
        # coefficient lists in t, specialized at s=v
        def spec(h, dt):
            c = [0] * (dt + 1)
            for (i, j), a in h.items():
                c[j] = (c[j] + a * pow(v, i, p)) % p
            return c
        c0 = spec(h0, d0)
        c1 = spec(h1, d1)
        # Sylvester matrix, rows: d1 shifts of c0, d0 shifts of c1
        m = []
        for r in range(d1):
            row = [0] * size
            for j, a in enumerate(c0):
                row[r + (d0 - j)] = a  # coefficient of t^(size-1-col) convention
            m.append(row)
        for r in range(d0):
            row = [0] * size
            for j, a in enumerate(c1):
                row[r + (d1 - j)] = a
            m.append(row)
        out.append(_det_mod_p(m, p))
    return out


def _det_mod_p(m, p):
    n = len(m)
    det = 1
    for c in range(n):
        piv = None
        for i in range(c, n):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det % p
        det = det * m[c][c] % p
        inv = pow(m[c][c], p - 2, p)
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] * inv % p
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[c])]
    return det % p


def _interpolate(xs, ys, p):
    """Lagrange interpolation over F_p, ascending coefficient list."""
    n = len(xs)
    coeffs = [0] * n
    for i in range(n):
        # basis poly through xs[i]
        num = [1]
        den = 1
        for j in range(n):
            if j == i:
                continue
            num = _pmul(num, [(-xs[j]) % p, 1], p)
            den = den * (xs[i] - xs[j]) % p
        scale = ys[i] * pow(den, p - 2, p) % p
        for k, c in enumerate(num):
            coeffs[k] = (coeffs[k] + scale * c) % p
    return _pmod_trim(coeffs)


def _pmul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return out


def _resultant_in_s(h0, h1, p):
    # degree bound first (cheap dry run for bound only)
    d0 = max(e[1] for e in h0)
    d1 = max(e[1] for e in h1)
    if d0 == 0 or d1 == 0:
        # resultant of something constant in t: gcd in t is that constant poly
        const = h0 if d0 == 0 else h1
        out = [0] * (max(e[0] for e in const) + 1)
        for (i, _), a in const.items():
            out[i] = a
        return _pmod_trim(out)
    bound = d0 * max(e[0] for e in h1) + d1 * max(e[0] for e in h0) + 1
    xs = list(range(min(bound, p)))
    ys = _sylvester_resultant_samples(h0, h1, p, xs)
    return _interpolate(xs, ys, p)


def _swap_vars(h):
    return {(j, i): a for (i, j), a in h.items()}


def _has_torus_zero_direction(system, p, rng):
    """Nonconstant gcd of mixed resultants in the s-direction, mod p."""
    h0 = system[0]
    gc = None
    for _ in range(2):
        lam = rng.randrange(1, p)
        mixed = dict(system[1])
        for e, a in system[2].items():
            mixed[e] = (mixed.get(e, 0) + lam * a) % p
        mixed = {e: a for e, a in mixed.items() if a}
        if not mixed:
            return True  # mixer collapsed: h1 = -lam*h2 identically, treat as hit
        r = _resultant_in_s(h0, mixed, p)
        r, _ = _strip_val(r)
        if not r:
            return True  # resultant identically zero: common factor
        gc = r if gc is None else _pmod_gcd(gc, r, p)
    return bool(gc) and len(gc) - 1 >= 1


def _face2_nondegenerate(terms, seed, trials):
    """Randomized modular emptiness test for a 2-dimensional face system."""
    rng = random.Random(seed)
    pool = _prime_pool()
    # the system: g and its two logarithmic derivatives
    def logd(t, axis):
        return {e: c * e[axis] for e, c in t.items() if e[axis]}
    system_q = [terms, logd(terms, 0), logd(terms, 1)]
    span_s = max(e[0] for e in terms) - min(e[0] for e in terms)
    span_t = max(e[1] for e in terms) - min(e[1] for e in terms)
    bezout = max(1, (span_s + span_t) ** 2)
    hits = 0
    used = []
    for _ in range(trials):
        p = pool[rng.randrange(len(pool))]
        while p in used:
            p = pool[rng.randrange(len(pool))]
        used.append(p)
        reduced = [_biv_mod_p(t, p) if t else None for t in system_q]
        if any(r is None for r in reduced):
            continue  # prime divides a denominator; skip
        if reduced[1] is None or reduced[2] is None:
            continue
        hit_s = _has_torus_zero_direction(reduced, p, rng)
        if not hit_s:
            continue
        swapped = [_swap_vars(r) for r in reduced]
        hit_t = _has_torus_zero_direction(swapped, p, rng)
        if hit_t:
            hits += 1
            if hits >= 2:
                return False, "common torus zero persists modulo two primes (%s)" % used[-1], bezout
    if hits:
        return True, "single-prime hit discarded as noise (prime %d)" % used[-1], bezout
    return True, None, bezout


# ---------------------------------------------------------------------------
# the public test


def is_nondegenerate(
    f: LaurentPolynomial,
    p: NewtonPolytope = None,
    mode: str = "auto",
    seed: int = 0,
    trials: int = 6,
) -> NondegeneracyCertificate:
    """Check Kouchnirenko nondegeneracy of f along every proper face.

    mode "exact" is complete for one or two variables and refuses more;
    "probabilistic" keeps vertices and edges exact and samples primes for
    2-faces; "auto" picks exact when complete, else probabilistic.
    """
    if p is None:
        p = newton_polytope(f)
    p.require_convenient()
    n = f.arity
    if mode == "auto":
        mode = "exact" if n <= 2 else "probabilistic"
    if mode == "exact" and n > 2:
        raise ExactModeUnsupportedError(
            "exact nondegeneracy testing is complete only for n <= 2 "
            "(n = %d); use probabilistic mode or --assume-nondegenerate" % n
        )
    if mode not in ("exact", "probabilistic"):
        raise ValueError("unknown mode %r" % mode)

    reports = []
    worst_bound = Fraction(0)
    bad = None
    for face_ix, vertex_ids in enumerate(proper_faces(p)):
        dim = _face_dim(p, vertex_ids)
        pts = face_support(f, p, vertex_ids)
        vs = tuple(p.vertices[i] for i in vertex_ids)
        if dim == 0:
            rec = FaceReport(0, vs, len(pts), "vertex", True)
        elif dim == 1:
            terms = _face_in_lattice_coords(f, pts)
            ok, detail = _edge_nondegenerate(terms)
            rec = FaceReport(1, vs, len(pts), "edge-gcd", ok, detail)
        elif dim == 2:
            if mode == "exact":
                # only reachable for n == 2 if a proper face were 2-dim, which
                # cannot happen; guard anyway
                raise ExactModeUnsupportedError("2-dimensional face in exact mode")
            terms = _face_in_lattice_coords(f, pts)
            ok, detail, bezout = _face2_nondegenerate(terms, seed * 1000003 + face_ix, trials)
            rec = FaceReport(2, vs, len(pts), "prime-resultant", ok, detail)
            pool = len(_prime_pool())
            q = Fraction(40, pool) + Fraction(2 * bezout, 211)
            q = min(q, Fraction(1))
            worst_bound = max(worst_bound, min(Fraction(1), trials * q ** max(1, trials - 1)))
        else:
            raise UnsupportedFaceError(
                "no nondegeneracy test for a face of dimension %d; "
                "use --assume-nondegenerate" % dim
            )
        reports.append(rec)
        if not rec.ok and bad is None:
            bad = rec
    return NondegeneracyCertificate(
        ok=bad is None,
        mode=mode,
        faces=reports,
        failure_probability=Fraction(0) if mode == "exact" else worst_bound,
        degenerate_face=bad,
    )


def require_nondegenerate(f, p, mode="auto", seed=0, trials=6, assume=False):
    """Pipeline helper: return a certificate or raise DegenerateError."""
    if assume:
        return assumed_certificate()
    cert = is_nondegenerate(f, p, mode=mode, seed=seed, trials=trials)
    if not cert.ok:
        face = cert.degenerate_face
        raise DegenerateError(
            "degenerate along the face spanned by %s (%s)"
            % ([list(v) for v in face.vertices], face.detail or face.method),
            face=face,
        )
    return cert
