"""Sparse bivariate polynomials over Q, plus dense univariate helpers.

Poly2 is the coefficient workhorse for everything equivariant: exact
polynomials in the torus weights t1, t2 with Fraction coefficients.
poly2_gcd has one route. Its monomial part t1^e1*t2^e2 takes the smallest
exponents over the terms of both operands, and is the gcd when either
operand is a single term. Otherwise one operand must be homogeneous: the
univariate Euclid of Poly1 is folded over it and over each homogeneous
part of the other, all at t1 = x, t2 = 1 less their power of x, and the
result is homogenised.
Exact division works on the term dict directly: each step cancels the
remainder's lex-leading term with a monomial multiple of the divisor.

One private constructor, _poly, wraps a term dict that holds no zero
coefficient; no other code fills a Poly2's slots. + and - are one merge,
_merged, a single pass with add or sub, so a difference builds no negated
copy. +, - and * return NotImplemented for an operand they do not take, so
a RatFunc2 on either side is left to RatFunc2. Poly2 and Poly1 text share
one term formatter and one sign joiner.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd as _int_gcd
from operator import add, sub

Monomial = tuple[int, int]

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# dense univariate polynomials over Q (lists of Fractions, index = degree)
# ---------------------------------------------------------------------------

def _u_trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _u_mul(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    if not p or not q:
        return []
    out = [_ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            if b:
                out[i + j] += a * b
    return _u_trim(out)


def _u_divmod(p: list[Fraction], q: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    if not q:
        raise ZeroDivisionError("univariate division by zero polynomial")
    rem = list(p)
    quo = [_ZERO] * max(0, len(p) - len(q) + 1)
    dq = len(q) - 1
    lc = q[-1]
    while len(rem) - 1 >= dq and rem:
        shift = len(rem) - 1 - dq
        c = rem[-1] / lc
        quo[shift] = c
        for j, b in enumerate(q):
            rem[shift + j] -= c * b
        _u_trim(rem)
    return quo, rem


def _u_gcd(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    """Monic gcd in Q[x]; gcd(0, 0) = 0."""
    a, b = list(p), list(q)
    while b:
        a, b = b, _u_divmod(a, b)[1]
    if a:
        lc = a[-1]
        a = [c / lc for c in a]
    return a


# ---------------------------------------------------------------------------
# Poly2
# ---------------------------------------------------------------------------

class Poly2:
    """Polynomial in t1, t2 with Fraction coefficients, stored sparsely.

    Instances are immutable; no zero coefficients are stored.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: dict[Monomial, Fraction] | None = None):
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for mono, c in terms.items():
                c = Fraction(c)
                if c:
                    clean[(int(mono[0]), int(mono[1]))] = c
        self.terms = clean
        self._hash: int | None = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> Poly2:
        return _P2_ZERO

    @classmethod
    def one(cls) -> Poly2:
        return _P2_ONE

    @classmethod
    def t1(cls) -> Poly2:
        return _P2_T1

    @classmethod
    def t2(cls) -> Poly2:
        return _P2_T2

    @classmethod
    def monomial(cls, e1: int, e2: int, c=1) -> Poly2:
        return cls({(e1, e2): Fraction(c)})

    @classmethod
    def linear(cls, c1, c2) -> Poly2:
        """c1*t1 + c2*t2; a Fraction coefficient is taken as it is."""
        terms = {}
        if c1:
            terms[1, 0] = c1 if type(c1) is Fraction else Fraction(c1)
        if c2:
            terms[0, 1] = c2 if type(c2) is Fraction else Fraction(c2)
        return _poly(terms)

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and (0, 0) in self.terms)

    def const_value(self) -> Fraction:
        """The value of a constant polynomial."""
        if not self.terms:
            return _ZERO
        if self.is_const():
            return self.terms[(0, 0)]
        raise ValueError("polynomial is not constant")

    def leading_monomial(self) -> Monomial:
        """Lexicographically largest monomial, t1-major."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms)

    def leading_coefficient(self) -> Fraction:
        return self.terms[self.leading_monomial()]

    # -- ring operations -----------------------------------------------------

    def __add__(self, other) -> Poly2:
        return _merged(self, other, add)

    def __neg__(self) -> Poly2:
        return _poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> Poly2:
        return _merged(self, other, sub)

    def __mul__(self, other) -> Poly2:
        if isinstance(other, (int, Fraction)):
            return self.scale(Fraction(other))
        if not isinstance(other, Poly2):
            return NotImplemented  # a RatFunc2 multiplies a polynomial itself
        out: dict[Monomial, Fraction] = {}
        for (a1, a2), c in self.terms.items():
            for (b1, b2), d in other.terms.items():
                mono = (a1 + b1, a2 + b2)
                s = out.get(mono, _ZERO) + c * d
                if s:
                    out[mono] = s
                else:
                    out.pop(mono, None)
        return _poly(out)

    __rmul__ = __mul__

    def scale(self, c: Fraction) -> Poly2:
        if not c:
            return _P2_ZERO
        return _poly({m: v * c for m, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly2):
            return NotImplemented  # RatFunc2 compares itself with a polynomial
        return self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            # a constant hashes as its value, like the equal constant RatFunc2;
            # CPython hashes -1 as -2, so a coefficient p/q enters as the odd
            # 2p + 1 and q, and c*p, c = -1, -2, ... hash apart
            if self.is_const():
                key = self.const_value()
            else:
                key = tuple(sorted(
                    (m, 2 * c.numerator + 1, c.denominator) for m, c in self.terms.items()
                ))
            self._hash = hash(key)
        return self._hash

    # -- normalization helpers -------------------------------------------------

    def content(self) -> Fraction:
        """Positive rational c with self/c integer-primitive (0 for zero)."""
        if not self.terms:
            return _ZERO
        num = 0
        den = 1
        for c in self.terms.values():
            num = _int_gcd(num, abs(c.numerator))
            den = den * c.denominator // _int_gcd(den, c.denominator)
        return Fraction(num, den)

    def signed_content(self) -> Fraction:
        """Content with the lex-leading coefficient's sign (0 for zero).

        self divided by it is integer-primitive with a positive lex-leading
        coefficient: the canonical form of a denominator.
        """
        if not self.terms:
            return _ZERO
        c = self.content()
        return -c if self.leading_coefficient() < 0 else c

    def primitive(self) -> Poly2:
        """Integer-primitive multiple with positive lex-leading coefficient."""
        if not self.terms:
            return _P2_ZERO
        return self.scale(1 / self.signed_content())

    # -- string form -------------------------------------------------------------

    def __str__(self) -> str:
        return poly2_to_text(self)

    def __repr__(self) -> str:
        return f"Poly2({poly2_to_text(self)})"


def _poly(terms: dict[Monomial, Fraction]) -> Poly2:
    """The Poly2 of a term dict that holds no zero coefficient, taken as is."""
    p = Poly2.__new__(Poly2)
    p.terms, p._hash = terms, None
    return p


def _merged(mine: Poly2, theirs, op) -> Poly2:
    """mine + theirs or mine - theirs (op is add or sub), in one pass over
    the terms of theirs; NotImplemented for an operand that is not a Poly2."""
    if not isinstance(theirs, Poly2):
        return NotImplemented  # a RatFunc2 adds or subtracts a polynomial itself
    out = dict(mine.terms)
    for mono, c in theirs.terms.items():
        s = op(out.get(mono, _ZERO), c)
        if s:
            out[mono] = s
        else:
            out.pop(mono, None)
    return _poly(out)


_P2_ZERO = Poly2()
_P2_ONE = Poly2({(0, 0): _ONE})
_P2_T1 = Poly2({(1, 0): _ONE})
_P2_T2 = Poly2({(0, 1): _ONE})


# ---------------------------------------------------------------------------
# gcd (monomial part, then one univariate Euclid) and exact division
# ---------------------------------------------------------------------------

def _dehomogenised_parts(p: Poly2) -> list[list[Fraction]]:
    """Each homogeneous part of p at t1 = x, t2 = 1, divided by its power of x."""
    parts: dict[int, dict[int, Fraction]] = {}
    for (e1, e2), c in p.terms.items():
        parts.setdefault(e1 + e2, {})[e1] = c
    return [
        [part.get(i, _ZERO) for i in range(min(part), max(part) + 1)] for part in parts.values()
    ]


def poly2_gcd(a: Poly2, b: Poly2) -> Poly2:
    """Primitive gcd (positive lex-leading) of two polynomials. Unless one is
    a single term, one must be homogeneous, or ValueError is raised."""
    if a.is_zero():
        return b.primitive()
    if b.is_zero():
        return a.primitive()
    # t1^e1*t2^e2 divides a polynomial iff it divides every term
    monos = (*a.terms, *b.terms)
    e1, e2 = min(m[0] for m in monos), min(m[1] for m in monos)
    monomial = _P2_ONE if e1 == e2 == 0 else Poly2.monomial(e1, e2)
    if len(a.terms) == 1 or len(b.terms) == 1:
        return monomial
    homogeneous, other = _dehomogenised_parts(a), _dehomogenised_parts(b)
    if len(homogeneous) > 1:
        homogeneous, other = other, homogeneous
    if len(homogeneous) > 1:
        raise ValueError(f"gcd of two polynomials that are not homogeneous: {a}, {b}")
    # a factor of a homogeneous polynomial is homogeneous, and it divides a
    # polynomial iff it divides each homogeneous part
    g = homogeneous[0]
    for part in other:
        g = _u_gcd(g, part)
        if len(g) == 1:
            return monomial
    k = len(g) - 1
    return Poly2({(e1 + i, e2 + k - i): c for i, c in enumerate(g)}).primitive()


def poly2_divexact(a: Poly2, b: Poly2) -> Poly2:
    """Exact quotient a/b; raises if the division leaves a remainder.

    Each step cancels the remainder's lex-leading term with a monomial
    multiple of b. The leading term of a nonzero multiple of b is divisible
    by b's leading term, so a remainder whose leading term is not proves
    that b does not divide a.
    """
    if b.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    (b1, b2), bc = max(b.terms.items())
    rest = [(mono, c) for mono, c in b.terms.items() if mono != (b1, b2)]
    rem = dict(a.terms)
    quo: dict[Monomial, Fraction] = {}
    while rem:
        lead = max(rem)
        e1, e2 = lead[0] - b1, lead[1] - b2
        if e1 < 0 or e2 < 0:
            raise ValueError("division not exact")
        q = rem.pop(lead) / bc
        quo[(e1, e2)] = q
        for (d1, d2), c in rest:
            mono = (d1 + e1, d2 + e2)
            s = rem.get(mono, _ZERO) - q * c
            if s:
                rem[mono] = s
            else:
                del rem[mono]
    return _poly(quo)


# ---------------------------------------------------------------------------
# text form
# ---------------------------------------------------------------------------

def _power(var: str, e: int) -> str:
    """var^e as text: "" for e = 0, var for e = 1."""
    return "" if not e else var if e == 1 else f"{var}^{e}"


def _format_term(body: str, c: Fraction) -> str:
    """The term c*body of a monomial's text body ("" for the monomial 1)."""
    # integer tests: Fraction == int is a slow Python call
    if body and c.denominator == 1 and c.numerator in (1, -1):
        return body if c.numerator == 1 else "-" + body
    coefficient = str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
    return coefficient + "*" + body if body else coefficient


def _joined(terms: list[str]) -> str:
    """Terms joined by their signs, "a + b - c"; "0" for no term."""
    chunks = terms[:1]
    for term in terms[1:]:
        chunks.append("- " + term[1:] if term.startswith("-") else "+ " + term)
    return " ".join(chunks) or "0"


def _t_monomial(e1: int, e2: int) -> str:
    t1, t2 = _power("t1", e1), _power("t2", e2)
    return f"{t1}*{t2}" if t1 and t2 else t1 or t2


def poly2_to_text(p: Poly2) -> str:
    """Canonical text form: monomials in descending lex order, t1-major."""
    terms = sorted(p.terms.items(), reverse=True)
    return _joined([_format_term(_t_monomial(e1, e2), c) for (e1, e2), c in terms])


_TERM_RE = re.compile(
    r"^(?P<coef>[+-]?\d+(?:/0*[1-9]\d*)?)?"
    r"(?P<v1>\*?t1(?:\^(?P<e1>\d+))?)?"
    r"(?P<v2>\*?t2(?:\^(?P<e2>\d+))?)?$"
)


def poly2_from_text(text: str) -> Poly2:
    """Parse the canonical text form of poly2_to_text; spaces aside, any other
    spelling raises ValueError."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial text")
    if s == "0":
        return Poly2.zero()
    # split into signed terms at top level (no parentheses inside a Poly2)
    pieces: list[str] = []
    current = ""
    for i, ch in enumerate(s):
        if ch in "+-" and i > 0 and s[i - 1] not in "+-*/^":
            pieces.append(current)
            current = ch
        else:
            current += ch
    pieces.append(current)
    terms: dict[Monomial, Fraction] = {}
    for piece in pieces:
        sign = 1
        while piece and piece[0] in "+-":
            if piece[0] == "-":
                sign = -sign
            piece = piece[1:]
        m = _TERM_RE.match(piece)
        if not m or not piece:
            raise ValueError(f"cannot parse polynomial term {piece!r}")
        coef = Fraction(m.group("coef")) if m.group("coef") else _ONE
        e1 = int(m.group("e1")) if m.group("e1") else (1 if m.group("v1") else 0)
        e2 = int(m.group("e2")) if m.group("e2") else (1 if m.group("v2") else 0)
        mono = (e1, e2)
        terms[mono] = terms.get(mono, _ZERO) + sign * coef
    p = Poly2(terms)
    if poly2_to_text(p).replace(" ", "") != s:
        raise ValueError(f"polynomial text {text!r} is not in canonical form")
    return p


# ---------------------------------------------------------------------------
# Poly1: dense univariate polynomials over Q (for characteristic polynomials)
# ---------------------------------------------------------------------------

class Poly1:
    """Univariate polynomial over Q, dense, lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(_u_trim([Fraction(c) for c in coeffs]))

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly1) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __mul__(self, other: Poly1) -> Poly1:
        return Poly1(_u_mul(list(self.coeffs), list(other.coeffs)))

    def derivative(self) -> Poly1:
        return Poly1([i * c for i, c in enumerate(self.coeffs)][1:])

    def gcd(self, other: Poly1) -> Poly1:
        return Poly1(_u_gcd(list(self.coeffs), list(other.coeffs)))

    def __str__(self) -> str:
        return _joined([
            _format_term(_power("x", d), c)
            for d, c in reversed(list(enumerate(self.coeffs))) if c
        ])

    def __repr__(self) -> str:
        return f"Poly1({self})"
