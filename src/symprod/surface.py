"""Equivariant geometry of the A_r resolution.

The surface carries r exceptional (-2)-curves E_1..E_r in a chain and
r+1 torus-fixed points x_1..x_{r+1}. Everything is done in the localized
fixed-point basis: a class is its vector of restrictions to the x_k, and
integration is the localization sum over fixed points.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from types import MappingProxyType

from .errors import MalformedInputError, UnsupportedWeightError
from .memo import memo
from .partitions import Label, checked_int
from .algebra import Poly2, RatFunc2

CurveClass = tuple[int, ...]
SurfaceClass = tuple[RatFunc2, ...]  # a class as its restrictions to x_1..x_{r+1}


def check_r(r: int) -> None:
    """A_r has at least one exceptional curve, so r starts at 1."""
    if checked_int(r, "r") < 1:
        raise ValueError("r must be at least 1")


@memo
def tangent_weights(r: int) -> tuple[tuple[Poly2, Poly2, RatFunc2], ...]:
    """The triples (L_k, R_k, L_k R_k) of tangent weights at x_1..x_{r+1}.

    L_k = (r-k+2) t1 + (1-k) t2 and R_k = (-r+k-1) t1 + k t2, so that
    L_k + R_k = t1 + t2, R_k = -L_{k+1}, L_1 = (r+1) t1, R_{r+1} = (r+1) t2.
    """
    check_r(r)
    out = []
    for k in range(1, r + 2):
        left, right = Poly2.linear(r - k + 2, 1 - k), Poly2.linear(-r + k - 1, k)
        # the general route, with its gcd, on purpose: perfbench/selftest.py
        # counts these gcd calls as the cold work of an op-gram child
        out.append((left, right, RatFunc2(left * right, Poly2.one())))
    return tuple(out)


def intersection_number(i: int, j: int) -> int:
    """E_i . E_j: -2 on the diagonal, 1 for neighbours, 0 otherwise."""
    if i == j:
        return -2
    if abs(i - j) == 1:
        return 1
    return 0


def omega_coefficients(r: int) -> tuple[tuple[Fraction, ...], ...]:
    """Rows of the inverse intersection matrix: omega_k = sum_m c_m E_m.

    The A_r intersection matrix (the negated Cartan matrix) has the closed
    inverse c(k, m) = -min(k, m)(r+1-max(k, m))/(r+1).
    """
    return tuple(
        tuple(
            Fraction(-min(k, m) * (r + 1 - max(k, m)), r + 1) for m in range(1, r + 1)
        )
        for k in range(1, r + 1)
    )


# label kind -> (name of its index, largest index minus r)
_LABEL_INDEX = {
    "x": ("fixed point", 1),
    "E": ("exceptional curve", 0),
    "w": ("dual divisor", 0),
}


def check_label(label: Label, r: int) -> None:
    """Reject a fixed-point, curve or dual-divisor index out of range for A_r."""
    spec = _LABEL_INDEX.get(label[0])
    if spec is None:
        return
    name, extra = spec
    if not 1 <= label[1] <= r + extra:
        raise MalformedInputError(
            f"{name} index {label[1]} out of range 1..{r + extra} for r = {r}"
        )


@memo
def class_of(label: Label, r: int) -> SurfaceClass:
    """Localized class of a weight label (identity, E_i, omega_k, [x_k])."""
    check_label(label, r)
    w = tangent_weights(r)
    zero = RatFunc2.zero()
    kind = label[0]
    if kind == "1":
        return (RatFunc2.one(),) * (r + 1)
    coords = [zero] * (r + 1)
    if kind == "x":
        k = label[1]
        coords[k - 1] = w[k - 1][2]
    elif kind == "E":
        i = label[1]
        coords[i - 1] = RatFunc2(w[i - 1][0])
        coords[i] = RatFunc2(w[i][1])
    elif kind == "w":  # sum_m c_m E_m, one fixed point at a time
        coeffs = omega_coefficients(r)[label[1] - 1]
        curves = [class_of(("E", m), r) for m in range(1, r + 1)]
        coords = [sum((c * e[k] for c, e in zip(coeffs, curves) if c), zero) for k in range(r + 1)]
    else:
        raise UnsupportedWeightError(f"no localized class for label {label!r}")
    return tuple(coords)


def integrate(alpha: SurfaceClass, beta: SurfaceClass) -> RatFunc2:
    """Localization sum over the r + 1 = len(alpha) fixed points of alpha*beta / (L_k R_k)."""
    total = RatFunc2.zero()
    for a, b, (_, _, lr) in zip(alpha, beta, tangent_weights(len(alpha) - 1), strict=True):
        if not (a.is_zero() or b.is_zero()):
            total = total + a * b / lr
    return total


# ---------------------------------------------------------------------------
# curve classes
# ---------------------------------------------------------------------------

def e_chain(i: int, j: int, d: int, r: int) -> CurveClass:
    """d(E_i + ... + E_j) as a coefficient vector on E_1..E_r."""
    if not (1 <= i <= j <= r):
        raise ValueError(f"chain indices ({i}, {j}) out of range for r = {r}")
    return tuple(d if i <= k <= j else 0 for k in range(1, r + 1))


@memo
def chain_degrees(s_orders: tuple[int, ...]) -> Mapping[tuple[int, int], tuple]:
    """The chains that fit the s-truncation box s_orders, with their degrees:
    {(i, j): ((d, e_chain(i, j, d, r)), ...)} for d = 1..min(s_orders[i-1:j]),
    in lex order of (i, j), and only the chains with at least one degree.
    The classes d(E_i + ... + E_j) are the ones that carry invariants."""
    r = len(s_orders)
    out = {}
    for i in range(1, r + 1):
        for j in range(i, r + 1):
            top = min(s_orders[i - 1 : j])
            if top >= 1:
                out[i, j] = tuple((d, e_chain(i, j, d, r)) for d in range(1, top + 1))
    return MappingProxyType(out)  # shared by every caller of the memo, so read only


def beta_as_chain(beta: CurveClass) -> tuple[int, int, int] | None:
    """Decompose beta as d(E_i + ... + E_j) with d > 0, or None."""
    support = [k for k, b in enumerate(beta, start=1) if b]
    if not support:
        return None
    i, j = support[0], support[-1]
    if len(support) != j - i + 1:
        return None
    d = beta[i - 1]
    if d <= 0 or any(beta[k - 1] != d for k in support):
        return None
    return i, j, d


def e_dot(label: Label, i: int, j: int) -> int:
    """Intersection of the chain E_i + ... + E_j with a divisor weight, an
    integer: -2, -1, 0 or 1 for a curve E_m, 1 or 0 for a dual divisor.

    The identity weight pairs to zero; fixed-point weights are not
    divisors and are rejected.
    """
    if i > j:
        raise ValueError("need i <= j")
    kind = label[0]
    if kind == "1":
        return 0
    if kind == "E":
        m = label[1]
        return sum(intersection_number(k, m) for k in range(i, j + 1))
    if kind == "w":
        return 1 if i <= label[1] <= j else 0
    raise UnsupportedWeightError(
        f"label {label!r} is not 1 or a divisor on the surface"
    )
