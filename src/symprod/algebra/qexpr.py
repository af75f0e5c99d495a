"""Closed forms over q, s_1..s_r, t1, t2 and their expansion.

A closed form is a plain Python function of its atoms, called with the
keywords q, t1, t2 and s1..sr. It builds its value from the atoms and
constants (int, Fraction, GaussRational) with +, -, * and /, and
returns one value or nested lists of values, such as a matrix. Called
on GaussRational atoms it evaluates at an exact point. On the atoms of
expand_q_closed_form it expands under q = -e^{iu} (e^{iu} expanded
eagerly as a truncated exponential) in the truncated series ring, and
the result must be real: a leftover imaginary part signals a
mis-transcribed closed form.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import PoleAtOriginError, RealnessViolationError
from .gaussian import GaussRational
from .poly import Poly2
from .ratfunc import RatFunc2
from .series import TruncSeries


# ---------------------------------------------------------------------------
# complex truncated series: a pair (re, im) of TruncSeries
# ---------------------------------------------------------------------------

def _const(value, u_order: int, s_orders) -> _CSeries:
    """An int, Fraction or GaussRational as a constant complex series."""
    z = GaussRational.lift(value)
    return _CSeries(
        TruncSeries.const(z.re, u_order, s_orders),
        TruncSeries.const(z.im, u_order, s_orders),
    )


def _lifted(op):
    """A binary _CSeries operator whose other operand may be a constant."""

    def method(self: _CSeries, other):
        if isinstance(other, (int, Fraction, GaussRational)):
            other = _const(other, self.re.u_order, self.re.s_orders)
        elif not isinstance(other, _CSeries):
            return NotImplemented
        return op(self, other)

    return method


class _CSeries:
    __slots__ = ("re", "im")

    def __init__(self, re: TruncSeries, im: TruncSeries):
        self.re = re
        self.im = im

    @staticmethod
    def real(series: TruncSeries) -> _CSeries:
        return _CSeries(series, TruncSeries.zero(series.u_order, series.s_orders))

    @_lifted
    def __add__(self, other: _CSeries) -> _CSeries:
        return _CSeries(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    @_lifted
    def __sub__(self, other: _CSeries) -> _CSeries:
        return _CSeries(self.re - other.re, self.im - other.im)

    @_lifted
    def __rsub__(self, other: _CSeries) -> _CSeries:
        return other - self

    @_lifted
    def __mul__(self, other: _CSeries) -> _CSeries:
        return _CSeries(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    @_lifted
    def __truediv__(self, other: _CSeries) -> _CSeries:
        return self * other.inverse()

    @_lifted
    def __rtruediv__(self, other: _CSeries) -> _CSeries:
        return other * self.inverse()

    def inverse(self) -> _CSeries:
        norm = self.re * self.re + self.im * self.im
        if norm.constant_term().is_zero():
            raise PoleAtOriginError("denominator has no invertible constant term")
        inv_norm = norm.inverse()
        return _CSeries(self.re * inv_norm, -self.im * inv_norm)


def _minus_exp_iu(u_order: int, s_orders) -> _CSeries:
    """-e^{iu} as a truncated complex series (the substitution target of q)."""
    re: dict = {}
    im: dict = {}
    zeros = (0,) * len(tuple(s_orders))
    fact = 1
    for m in range(u_order + 1):
        if m:
            fact *= m
        c = Fraction(1, fact)
        if m % 4 == 0:
            re[(m, zeros)] = RatFunc2.const(-c)
        elif m % 4 == 1:
            im[(m, zeros)] = RatFunc2.const(-c)
        elif m % 4 == 2:
            re[(m, zeros)] = RatFunc2.const(c)
        else:
            im[(m, zeros)] = RatFunc2.const(c)
    return _CSeries(
        TruncSeries(u_order, s_orders, re), TruncSeries(u_order, s_orders, im)
    )


def _atoms(u_order: int, s_orders: tuple[int, ...]) -> dict[str, _CSeries]:
    """The atoms q, t1, t2, s1..sr as complex series, with q = -e^{iu}."""
    atoms = {
        "q": _minus_exp_iu(u_order, s_orders),
        "t1": _CSeries.real(TruncSeries.const(Poly2.t1(), u_order, s_orders)),
        "t2": _CSeries.real(TruncSeries.const(Poly2.t2(), u_order, s_orders)),
    }
    for k in range(1, len(s_orders) + 1):
        ds = tuple(1 if j == k - 1 else 0 for j in range(len(s_orders)))
        atoms[f"s{k}"] = _CSeries.real(
            TruncSeries.monomial(0, ds, RatFunc2.one(), u_order, s_orders)
        )
    return atoms


def _real_part(value, u_order: int, s_orders):
    if isinstance(value, list):
        return [_real_part(v, u_order, s_orders) for v in value]
    if not isinstance(value, _CSeries):
        value = _const(value, u_order, s_orders)
    if not value.im.is_zero():
        a, ds, c = next(value.im.monomials())
        raise RealnessViolationError(
            f"imaginary part survives at u^{a} s^{ds}: {c}"
        )
    return value.re


def expand_q_closed_form(form, u_order: int, s_orders):
    """Expand a closed form under q = -e^{iu} into real truncated series.

    Calls form once with the atoms q, t1, t2, s1..sr (r = len(s_orders))
    as truncated complex series, and returns a TruncSeries for each value
    it returns, in the same nesting of lists.

    Raises PoleAtOriginError when a denominator is not invertible around
    u = s = 0, and RealnessViolationError when the expansion keeps a
    nonzero imaginary coefficient.
    """
    s_orders = tuple(s_orders)
    return _real_part(form(**_atoms(u_order, s_orders)), u_order, s_orders)
