"""Closed forms over q, s_1..s_r, t1, t2 and their expansion.

A closed form is a plain Python function of its atoms, called with the
keywords q, t1, t2 and s1..sr. It builds its value from the atoms and
constants (int, Fraction, GaussRational) with +, -, * and /, and
returns one value or nested lists of values, such as a matrix. Called
on GaussRational atoms with Fraction parts it evaluates at an exact
point. The atoms of expand_q_closed_form are GaussRational values with
truncated series parts, q = -e^{iu} (e^{iu} expanded eagerly as a
truncated exponential), so the same arithmetic expands the form in the
truncated series ring. The result must be real: a leftover imaginary
part signals a mis-transcribed closed form.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from ..errors import PoleAtOriginError, RealnessViolationError
from .gaussian import GaussRational
from .poly import Poly2
from .ratfunc import RatFunc2
from .series import TruncSeries


def _minus_exp_iu(u_order: int, s_orders) -> GaussRational:
    """-e^{iu} with truncated series parts (the substitution target of q)."""
    parts: tuple[dict, dict] = ({}, {})  # -i^m / m! is real for even m, imaginary for odd
    zeros = (0,) * len(tuple(s_orders))
    for m in range(u_order + 1):
        parts[m % 2][(m, zeros)] = RatFunc2.const(Fraction((-1) ** (m // 2 + 1), factorial(m)))
    return GaussRational(*(TruncSeries(u_order, s_orders, p) for p in parts))


def _atoms(u_order: int, s_orders: tuple[int, ...]) -> dict[str, GaussRational]:
    """The atoms q, t1, t2, s1..sr with series parts, with q = -e^{iu}."""
    atoms = {
        "q": _minus_exp_iu(u_order, s_orders),
        "t1": GaussRational(TruncSeries.const(Poly2.t1(), u_order, s_orders)),
        "t2": GaussRational(TruncSeries.const(Poly2.t2(), u_order, s_orders)),
    }
    for k in range(1, len(s_orders) + 1):
        ds = tuple(1 if j == k - 1 else 0 for j in range(len(s_orders)))
        atoms[f"s{k}"] = GaussRational(
            TruncSeries.monomial(0, ds, RatFunc2.one(), u_order, s_orders)
        )
    return atoms


def _real_part(value, u_order: int, s_orders):
    if isinstance(value, list):
        return [_real_part(v, u_order, s_orders) for v in value]
    value = GaussRational.lift(value)
    re, im = (
        p if isinstance(p, TruncSeries) else TruncSeries.const(p, u_order, s_orders)
        for p in (value.re, value.im)
    )
    if not im.is_zero():
        a, ds, c = next(im.monomials())
        raise RealnessViolationError(
            f"imaginary part survives at u^{a} s^{ds}: {c}"
        )
    return re


def expand_q_closed_form(form, u_order: int, s_orders):
    """Expand a closed form under q = -e^{iu} into real truncated series.

    Calls form once with the atoms q, t1, t2, s1..sr (r = len(s_orders))
    as GaussRational values with truncated series parts, and returns a
    TruncSeries for each value it returns, in the same nesting of lists.

    Raises PoleAtOriginError when a denominator is not invertible around
    u = s = 0 (the form raised ZeroDivisionError), and
    RealnessViolationError when the expansion keeps a nonzero imaginary
    coefficient.
    """
    s_orders = tuple(s_orders)
    try:
        value = form(**_atoms(u_order, s_orders))
    except ZeroDivisionError as exc:
        raise PoleAtOriginError("denominator has no invertible constant term") from exc
    return _real_part(value, u_order, s_orders)
