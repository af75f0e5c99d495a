"""Fractions in t1, t2 with a homogeneous denominator, in a canonical form.

This localisation of Q[t1, t2] holds every equivariant value: the
fixed-point formulas divide only by products of tangent weights. The
constructor rejects a denominator that is not homogeneous with
MalformedInputError. That is the one check: sums and products only
multiply existing denominators, and the inverse passes the numerator back
through the constructor. A numerator may be any polynomial.

Canonical form: gcd(num, den) = 1, den integer-primitive with positive
lexicographically-leading coefficient (t1-major). Equality is then
structural.

Two shapes skip the general route (multiply the denominators, then a
bivariate gcd). A constant factor (int, Fraction or constant RatFunc2, on
either side) scales the numerator and keeps the denominator: a nonzero
rational keeps gcd(num, den) = 1 and leaves the primitive, positive-leading
denominator as it is, so no gcd is run. Addends over one denominator add
(or subtract) their numerators over it, then canonicalise: the sum may
share a factor with that denominator, unless the denominator is 1 (the
only canonical constant denominator), where the sum is canonical and no
gcd is run.
A constant factor of 1 returns the value itself. Negation negates the
numerator's coefficients and keeps the denominator: the negative of a
canonical value is canonical, and no Fraction product is run.

Sums of many products (series products, linear combinations of series,
the steps of a series inverse) do not run through these operators: the
series kernel (algebra.series) sums their numerators in integers and
builds each canonical value once, through _canonical over the
denominator 1 and through the constructor otherwise.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import MalformedInputError
from .poly import Poly2, poly2_divexact, poly2_from_text, poly2_gcd, poly2_to_text


class RatFunc2:
    """Fraction in t1, t2 over a homogeneous denominator, in canonical form."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: Poly2, den: Poly2 | None = None):
        if den is None:
            den = Poly2.one()
        if den.is_zero():
            raise MalformedInputError("rational function with zero denominator")
        if len({e1 + e2 for e1, e2 in den.terms}) > 1:
            raise MalformedInputError(f"denominator {poly2_to_text(den)} is not homogeneous")
        if num.is_zero():
            num, den = Poly2.zero(), Poly2.one()
        else:
            g = poly2_gcd(num, den)
            if not g.is_const():
                num = poly2_divexact(num, g)
                den = poly2_divexact(den, g)
            c = den.signed_content()
            if c != 1:
                num = num.scale(1 / c)
                den = den.scale(1 / c)
        self.num = num
        self.den = den
        self._hash: int | None = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls) -> RatFunc2:
        return _RF_ZERO

    @classmethod
    def one(cls) -> RatFunc2:
        return _RF_ONE

    @classmethod
    def const(cls, c) -> RatFunc2:
        return _RF_ONE._scaled(Fraction(c))

    @staticmethod
    def lift(x) -> RatFunc2:
        if isinstance(x, RatFunc2):
            return x
        if isinstance(x, Poly2):
            return RatFunc2(x)
        if isinstance(x, (int, Fraction)):
            return RatFunc2.const(x)
        raise TypeError(f"cannot lift {type(x).__name__} to RatFunc2")

    # -- queries ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_const(self) -> bool:
        return self.num.is_const() and self.den.is_const()

    # -- field operations --------------------------------------------------------

    def __add__(self, other) -> RatFunc2:
        other = RatFunc2.lift(other)
        if self.den == other.den:
            return _over(self.num + other.num, self.den)
        return RatFunc2(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> RatFunc2:
        return _canonical(-self.num, self.den)

    def __sub__(self, other) -> RatFunc2:
        other = RatFunc2.lift(other)
        if self.den == other.den:
            return _over(self.num - other.num, self.den)
        return RatFunc2(self.num * other.den - other.num * self.den, self.den * other.den)

    def __rsub__(self, other) -> RatFunc2:
        return RatFunc2.lift(other) - self

    def __mul__(self, other) -> RatFunc2:
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        other = RatFunc2.lift(other)
        if other.is_const():
            return self._scaled(other.num.const_value())
        if self.is_const():
            return other._scaled(self.num.const_value())
        return RatFunc2(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def _scaled(self, c) -> RatFunc2:
        """self * c for a rational c, already canonical, so __init__ is skipped."""
        if c == 1:
            return self
        if not c:
            return _RF_ZERO
        return _canonical(self.num.scale(c), self.den)

    def inverse(self) -> RatFunc2:
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero rational function")
        return RatFunc2(self.den, self.num)

    def __truediv__(self, other) -> RatFunc2:
        return self * RatFunc2.lift(other).inverse()

    def __rtruediv__(self, other) -> RatFunc2:
        return RatFunc2.lift(other) * self.inverse()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, Poly2)):
            other = RatFunc2.lift(other)
        return isinstance(other, RatFunc2) and self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        if self._hash is None:
            # over denominator 1 the value equals its numerator, and a constant
            # equals its int or Fraction, so it hashes as they do
            self._hash = hash(self.num) if self.den.is_const() else hash((self.num, self.den))
        return self._hash

    # -- text form -------------------------------------------------------------------

    def __str__(self) -> str:
        return ratfunc_to_text(self)

    def __repr__(self) -> str:
        return f"RatFunc2({ratfunc_to_text(self)})"


def _canonical(num: Poly2, den: Poly2) -> RatFunc2:
    """A RatFunc2 from parts already in canonical form, skipping __init__."""
    out = object.__new__(RatFunc2)
    out.num, out.den, out._hash = num, den, None
    return out


def _over(num: Poly2, den: Poly2) -> RatFunc2:
    """num / den for a canonical denominator den: the sum or difference of two
    numerators over it, which may share a factor with den unless den is 1."""
    if den.is_const():  # den is 1: the value is canonical as it stands
        return _RF_ZERO if num.is_zero() else _canonical(num, den)
    return RatFunc2(num, den)


_RF_ZERO = RatFunc2(Poly2.zero())
_RF_ONE = RatFunc2(Poly2.one())


def ratfunc_to_text(f: RatFunc2) -> str:
    """Canonical string: "num" when den = 1, else "(num)/(den)"."""
    if f.den.is_const():  # a canonical constant denominator is 1
        return poly2_to_text(f.num)
    return f"({poly2_to_text(f.num)})/({poly2_to_text(f.den)})"


def ratfunc_from_text(text: str) -> RatFunc2:
    s = text.strip()
    if s.startswith("(") and ")/(" in s and s.endswith(")"):
        left, right = s.split(")/(", 1)
        return RatFunc2(poly2_from_text(left[1:]), poly2_from_text(right[:-1]))
    return RatFunc2(poly2_from_text(s))
