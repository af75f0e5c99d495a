"""Exact Gaussian rationals a + b*i with a, b in Q."""

from __future__ import annotations

from fractions import Fraction


def _coerced(op):
    """A binary GaussRational operator whose other operand may be an int or
    a Fraction; any other operand is left to its own reflected operator."""

    def method(self: GaussRational, other):
        if isinstance(other, (int, Fraction)):
            other = GaussRational(other)
        elif not isinstance(other, GaussRational):
            return NotImplemented
        return op(self, other)

    return method


class GaussRational:
    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def lift(x) -> GaussRational:
        if isinstance(x, GaussRational):
            return x
        return GaussRational(x)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def norm(self) -> Fraction:
        """|z|^2 as a rational number."""
        return self.re * self.re + self.im * self.im

    @_coerced
    def __add__(self, other: GaussRational) -> GaussRational:
        return GaussRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self) -> GaussRational:
        return GaussRational(-self.re, -self.im)

    @_coerced
    def __sub__(self, other: GaussRational) -> GaussRational:
        return self + (-other)

    @_coerced
    def __rsub__(self, other: GaussRational) -> GaussRational:
        return other + (-self)

    @_coerced
    def __mul__(self, other: GaussRational) -> GaussRational:
        return GaussRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def inverse(self) -> GaussRational:
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return GaussRational(self.re / n, -self.im / n)

    @_coerced
    def __truediv__(self, other: GaussRational) -> GaussRational:
        return self * other.inverse()

    @_coerced
    def __rtruediv__(self, other: GaussRational) -> GaussRational:
        return other * self.inverse()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = GaussRational(other)
        return isinstance(other, GaussRational) and self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re} {sign} {abs(self.im)}*i"

    def __repr__(self) -> str:
        return f"GaussRational({self.re!s}, {self.im!s})"


I = GaussRational(0, 1)
