"""Exact Gaussian rationals a + b*i, with Fraction or TruncSeries parts.

Evaluating a closed form at an exact point runs this arithmetic on
Fraction parts; expanding it (algebra.qexpr) runs the same formulas on
series parts of one shape, which meet int and Fraction parts through the
series ring's scalar operands. The inverse multiplies both parts by
1 / norm, so a series norm is inverted once.
"""

from __future__ import annotations

from fractions import Fraction

from .series import TruncSeries


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
        self.re = re if isinstance(re, TruncSeries) else Fraction(re)
        self.im = im if isinstance(im, TruncSeries) else Fraction(im)

    @staticmethod
    def lift(x) -> GaussRational:
        if isinstance(x, GaussRational):
            return x
        return GaussRational(x)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def norm(self):
        """|z|^2: a Fraction, or a TruncSeries when a part is a series."""
        return self.re * self.re + self.im * self.im

    @_coerced
    def __add__(self, other: GaussRational) -> GaussRational:
        return GaussRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self) -> GaussRational:
        return GaussRational(-self.re, -self.im)

    @_coerced
    def __sub__(self, other: GaussRational) -> GaussRational:
        return GaussRational(self.re - other.re, self.im - other.im)

    @_coerced
    def __rsub__(self, other: GaussRational) -> GaussRational:
        return GaussRational(other.re - self.re, other.im - self.im)

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
        inv_n = 1 / n  # a series norm raises ZeroDivisionError without a constant term
        return GaussRational(self.re * inv_n, -self.im * inv_n)

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
        # a real value equals its real part, so it hashes as that part does
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        if isinstance(self.im, Fraction) and self.im < 0:
            return f"{self.re} - {-self.im}*i"
        return f"{self.re} + {self.im}*i"

    def __repr__(self) -> str:
        return f"GaussRational({self.re!s}, {self.im!s})"


I = GaussRational(0, 1)
