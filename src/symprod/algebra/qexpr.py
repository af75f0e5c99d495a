"""Closed-form expressions over q, s_1..s_r, t1, t2 and their expansion.

A QExpr is a finite expression tree with Gaussian-rational constants:
closed forms are built from constants, atoms, +, -, * and /, with no
powers.
expand_q_closed_form substitutes q = -e^{iu} (with e^{iu} expanded
eagerly as a truncated exponential), expands the tree in the truncated
series ring, and insists that the result be real: a leftover imaginary
part signals a mis-transcribed closed form.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import PoleAtOriginError, RealnessViolationError
from .gaussian import GaussRational
from .poly import Poly2
from .ratfunc import RatFunc2
from .series import TruncSeries


class QExpr:
    """Immutable expression tree; build with the module constructors."""

    __slots__ = ("kind", "args")

    def __init__(self, kind: str, args: tuple):
        self.kind = kind
        self.args = args

    # -- constructors -----------------------------------------------------------

    @staticmethod
    def const(value) -> QExpr:
        return QExpr("const", (GaussRational.lift(value),))

    @staticmethod
    def atom(name: str) -> QExpr:
        return QExpr("atom", (name,))

    @staticmethod
    def lift(x) -> QExpr:
        if isinstance(x, QExpr):
            return x
        return QExpr.const(x)

    # -- operators ----------------------------------------------------------------

    def __add__(self, other) -> QExpr:
        return QExpr("add", (self, QExpr.lift(other)))

    def __radd__(self, other) -> QExpr:
        return QExpr("add", (QExpr.lift(other), self))

    def __sub__(self, other) -> QExpr:
        return QExpr("sub", (self, QExpr.lift(other)))

    def __rsub__(self, other) -> QExpr:
        return QExpr("sub", (QExpr.lift(other), self))

    def __neg__(self) -> QExpr:
        return QExpr("sub", (QExpr.const(0), self))

    def __mul__(self, other) -> QExpr:
        return QExpr("mul", (self, QExpr.lift(other)))

    def __rmul__(self, other) -> QExpr:
        return QExpr("mul", (QExpr.lift(other), self))

    def __truediv__(self, other) -> QExpr:
        return QExpr("div", (self, QExpr.lift(other)))

    def __rtruediv__(self, other) -> QExpr:
        return QExpr("div", (QExpr.lift(other), self))

    # -- inspection ------------------------------------------------------------------

    def evaluate(self, values: dict[str, GaussRational]) -> GaussRational:
        """Exact evaluation at Gaussian-rational atom values."""
        if self.kind == "const":
            return self.args[0]
        if self.kind == "atom":
            name = self.args[0]
            if name not in values:
                raise KeyError(f"no value supplied for atom {name!r}")
            return GaussRational.lift(values[name])
        a = self.args[0].evaluate(values)
        b = self.args[1].evaluate(values)
        if self.kind == "add":
            return a + b
        if self.kind == "sub":
            return a - b
        if self.kind == "mul":
            return a * b
        if self.kind == "div":
            return a / b
        raise ValueError(f"unknown expression kind {self.kind!r}")

    def __repr__(self) -> str:
        if self.kind == "const":
            return f"({self.args[0]})"
        if self.kind == "atom":
            return self.args[0]
        sym = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[self.kind]
        return f"({self.args[0]!r} {sym} {self.args[1]!r})"


Q = QExpr.atom("q")
T1 = QExpr.atom("t1")
T2 = QExpr.atom("t2")


def s_atom(k: int) -> QExpr:
    return QExpr.atom(f"s{k}")


# ---------------------------------------------------------------------------
# complex truncated series: a pair (re, im) of TruncSeries
# ---------------------------------------------------------------------------

class _CSeries:
    __slots__ = ("re", "im")

    def __init__(self, re: TruncSeries, im: TruncSeries):
        self.re = re
        self.im = im

    @staticmethod
    def real(series: TruncSeries) -> _CSeries:
        return _CSeries(series, TruncSeries.zero(series.u_order, series.s_orders))

    def __add__(self, other: _CSeries) -> _CSeries:
        return _CSeries(self.re + other.re, self.im + other.im)

    def __sub__(self, other: _CSeries) -> _CSeries:
        return _CSeries(self.re - other.re, self.im - other.im)

    def __mul__(self, other: _CSeries) -> _CSeries:
        return _CSeries(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

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


def _expand(e: QExpr, env: dict[str, _CSeries]) -> _CSeries:
    if e.kind == "const":
        z: GaussRational = e.args[0]
        shape = next(iter(env.values())).re
        u_order, s_orders = shape.u_order, shape.s_orders
        return _CSeries(
            TruncSeries.const(RatFunc2.const(z.re), u_order, s_orders),
            TruncSeries.const(RatFunc2.const(z.im), u_order, s_orders),
        )
    if e.kind == "atom":
        name = e.args[0]
        if name not in env:
            raise ValueError(f"unknown atom {name!r} in closed form")
        return env[name]
    a = _expand(e.args[0], env)
    b = _expand(e.args[1], env)
    if e.kind == "add":
        return a + b
    if e.kind == "sub":
        return a - b
    if e.kind == "mul":
        return a * b
    if e.kind == "div":
        return a * b.inverse()
    raise ValueError(f"unknown expression kind {e.kind!r}")


def expand_q_closed_form(e: QExpr, u_order: int, s_orders) -> TruncSeries:
    """Expand a closed form under q = -e^{iu} into a real truncated series.

    Raises PoleAtOriginError when a denominator is not invertible around
    u = s = 0, and RealnessViolationError when the expansion keeps a
    nonzero imaginary coefficient.
    """
    s_orders = tuple(s_orders)
    env: dict[str, _CSeries] = {
        "q": _minus_exp_iu(u_order, s_orders),
        "t1": _CSeries.real(
            TruncSeries.const(RatFunc2(Poly2.t1()), u_order, s_orders)
        ),
        "t2": _CSeries.real(
            TruncSeries.const(RatFunc2(Poly2.t2()), u_order, s_orders)
        ),
    }
    for k in range(1, len(s_orders) + 1):
        ds = tuple(1 if j == k - 1 else 0 for j in range(len(s_orders)))
        env[f"s{k}"] = _CSeries.real(
            TruncSeries.monomial(0, ds, RatFunc2.one(), u_order, s_orders)
        )
    result = _expand(e, env)
    if not result.im.is_zero():
        a, ds, c = next(result.im.monomials())
        raise RealnessViolationError(
            f"imaginary part survives at u^{a} s^{ds}: {c}"
        )
    return result.re
