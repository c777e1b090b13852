"""Sparse Laurent polynomials with exact rational coefficients.

A polynomial in n variables is a dict mapping integer exponent vectors
(tuples of length n, negative entries allowed) to nonzero Fractions.
"""

from __future__ import annotations

import re
from fractions import Fraction

Exponent = tuple[int, ...]


def term_key(e: Exponent):
    """Graded-lex sort key: total degree first, then lexicographic."""
    return (sum(e), e)


class LaurentPolynomial:
    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms=None):
        self.arity = arity
        t = {}
        if terms:
            for e, c in terms.items():
                c = c if isinstance(c, Fraction) else Fraction(c)
                if c != 0:
                    e = tuple(e)
                    if len(e) != arity:
                        raise ValueError("exponent length %d != arity %d" % (len(e), arity))
                    t[e] = c
        self.terms = t

    # -- constructors

    @classmethod
    def zero(cls, arity: int):
        return cls(arity, {})

    @classmethod
    def constant(cls, arity: int, c):
        return cls(arity, {(0,) * arity: Fraction(c)})

    @classmethod
    def monomial(cls, exp: Exponent, coeff=1):
        return cls(len(exp), {tuple(exp): Fraction(coeff)})

    # -- queries

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> list[Exponent]:
        return sorted(self.terms, key=term_key)

    def coeff(self, exp: Exponent) -> Fraction:
        return self.terms.get(tuple(exp), Fraction(0))

    def __eq__(self, other):
        if isinstance(other, LaurentPolynomial):
            return self.arity == other.arity and self.terms == other.terms
        return NotImplemented

    def __bool__(self):
        return bool(self.terms)

    # -- arithmetic

    def _coerce(self, other):
        if isinstance(other, LaurentPolynomial):
            if other.arity != self.arity:
                raise ValueError("arity mismatch: %d vs %d" % (self.arity, other.arity))
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentPolynomial.constant(self.arity, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        t = dict(self.terms)
        for e, c in other.terms.items():
            s = t.get(e, Fraction(0)) + c
            if s:
                t[e] = s
            else:
                t.pop(e, None)
        return LaurentPolynomial(self.arity, t)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPolynomial(self.arity, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return LaurentPolynomial.zero(self.arity)
            c = Fraction(other)
            return LaurentPolynomial(self.arity, {e: c * v for e, v in self.terms.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        t = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = t.get(e, Fraction(0)) + c1 * c2
                if s:
                    t[e] = s
                else:
                    t.pop(e, None)
        return LaurentPolynomial(self.arity, t)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = LaurentPolynomial.constant(self.arity, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def log_derivative(self, i: int):
        """Apply u_i d/du_i (exponents act as eigenvalues)."""
        t = {}
        for e, c in self.terms.items():
            if e[i]:
                t[e] = c * e[i]
        return LaurentPolynomial(self.arity, t)

    # -- presentation

    def format(self, var_names=None) -> str:
        if not self.terms:
            return "0"
        names = list(var_names) if var_names else default_var_names(self.arity)
        if len(names) != self.arity:
            raise ValueError("need %d variable names, got %d" % (self.arity, len(names)))
        # display order: descending graded-lex
        parts = []
        for e in sorted(self.terms, key=term_key, reverse=True):
            c = self.terms[e]
            factors = []
            for name, k in zip(names, e):
                if k == 0:
                    continue
                factors.append(name if k == 1 else "%s^%d" % (name, k))
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = str(mag) + "*" + "*".join(factors)
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append((" - " if c < 0 else " + ") + body)
        return "".join(parts)

    def __repr__(self):
        return "LaurentPolynomial(%r)" % self.format()


def default_var_names(arity: int) -> list[str]:
    if arity == 1:
        return ["u"]
    return ["u%d" % (i + 1) for i in range(arity)]


class LaurentParseError(ValueError):
    """Syntax error in a Laurent polynomial expression; carries a position."""

    def __init__(self, message: str, position: int):
        super().__init__("syntax error at position %d: %s" % (position, message))
        self.position = position


_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()])|(?P<bad>\S))")


def _tokenize(text: str):
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            break
        if m.group("bad"):
            raise LaurentParseError("unexpected character %r" % m.group("bad"), m.start("bad"))
        if m.group("int"):
            toks.append(("int", m.group("int"), m.start("int")))
        elif m.group("name"):
            toks.append(("name", m.group("name"), m.start("name")))
        else:
            op = m.group("op")
            if op in "()":
                raise LaurentParseError("parentheses are not part of the input grammar", m.start("op"))
            toks.append((op, op, m.start("op")))
        pos = m.end()
    toks.append(("end", "", len(text)))
    return toks


_STEM = re.compile(r"^([A-Za-z_]+?)(\d+)$")


def _infer_order(seen: list[str]) -> list[str]:
    """Variable order for names not given explicitly.

    If every name is a common stem plus a decimal index (u1, u2, ...), the
    indices define the positions and the arity is the largest index; missing
    intermediate indices become unused variables.  Otherwise first appearance
    in the expression wins.
    """
    parsed = [_STEM.match(s) for s in seen]
    if seen and all(parsed) and len({m.group(1) for m in parsed}) == 1:
        stem = parsed[0].group(1)
        top = max(int(m.group(2)) for m in parsed)
        return ["%s%d" % (stem, i) for i in range(1, top + 1)]
    return list(seen)


def parse_laurent(text: str, var_names=None):
    """Parse a Laurent polynomial expression.

    Grammar: terms joined by + and -; each term is '*'-separated factors; a
    factor is an integer, an integer ratio p/q, or name^exponent (exponent an
    optional-sign integer, ^1 implied).  Returns (polynomial, names).
    """
    toks = _tokenize(text)
    ix = 0

    def peek():
        return toks[ix]

    def take(kind=None):
        nonlocal ix
        t = toks[ix]
        if kind is not None and t[0] != kind:
            raise LaurentParseError("expected %s, found %r" % (kind, t[1] or "end of input"), t[2])
        ix += 1
        return t

    # accumulate raw terms as (coeff, {name: exponent})
    raw_terms = []
    seen: list[str] = []

    def parse_signed_int() -> int:
        sign = 1
        t = peek()
        if t[0] in ("+", "-"):
            take()
            if t[0] == "-":
                sign = -1
            t = peek()
        if t[0] != "int":
            raise LaurentParseError("expected integer exponent, found %r" % (t[1] or "end of input"), t[2])
        take()
        return sign * int(t[1])

    def parse_factor(coeff, exps):
        t = peek()
        if t[0] == "int":
            take()
            num = int(t[1])
            if peek()[0] == "/":
                take()
                dt = peek()
                if dt[0] != "int":
                    raise LaurentParseError("expected integer denominator, found %r" % (dt[1] or "end of input"), dt[2])
                take()
                den = int(dt[1])
                if den == 0:
                    raise LaurentParseError("zero denominator", dt[2])
                coeff *= Fraction(num, den)
            else:
                coeff *= num
            return coeff
        if t[0] == "name":
            take()
            name = t[1]
            if name not in seen:
                seen.append(name)
            k = 1
            if peek()[0] == "^":
                take()
                k = parse_signed_int()
            exps[name] = exps.get(name, 0) + k
            return coeff
        raise LaurentParseError("expected a coefficient or variable, found %r" % (t[1] or "end of input"), t[2])

    def parse_term(sign):
        coeff = Fraction(sign)
        exps: dict[str, int] = {}
        coeff = parse_factor(coeff, exps)
        while peek()[0] == "*":
            take()
            coeff = parse_factor(coeff, exps)
        raw_terms.append((coeff, exps))

    t = peek()
    if t[0] == "end":
        raise LaurentParseError("empty expression", t[2])
    sign = 1
    if t[0] in ("+", "-"):
        take()
        sign = -1 if t[0] == "-" else 1
    parse_term(sign)
    while peek()[0] != "end":
        t = take()
        if t[0] not in ("+", "-"):
            raise LaurentParseError("expected '+' or '-', found %r" % t[1], t[2])
        parse_term(-1 if t[0] == "-" else 1)

    if var_names is not None:
        names = list(var_names)
        for i, s in enumerate(names):
            if s in names[:i]:
                raise LaurentParseError("variable %r named twice in %s" % (s, names), 0)
        unknown = [s for s in seen if s not in names]
        if unknown:
            raise LaurentParseError("variable %r not among %s" % (unknown[0], names), 0)
    else:
        names = _infer_order(seen)

    index = {n: i for i, n in enumerate(names)}
    arity = len(names)
    terms: dict[Exponent, Fraction] = {}
    for coeff, exps in raw_terms:
        e = [0] * arity
        for name, k in exps.items():
            e[index[name]] = k
        e = tuple(e)
        s = terms.get(e, Fraction(0)) + coeff
        if s:
            terms[e] = s
        else:
            terms.pop(e, None)
    return LaurentPolynomial(arity, terms), names
