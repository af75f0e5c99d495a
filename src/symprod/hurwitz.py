"""Hurwitz-type counts in symmetric groups.

H(eta_1, ..., eta_s) is 1/n! times the number of tuples (g_1, ..., g_s)
with prescribed cycle types multiplying to the identity. Two routes, one
per quantity:

  * hurwitz  -- class-algebra convolution: one column of class-product
                counts per profile class, applied to a vector over the
                conjugacy classes of S_n;
  * one_part_double_hurwitz -- the sinh closed form for H(sigma, (2)^b, (k)),
                whose t-coefficient is built one part of sigma at a time
                (_sinh_coefficient), so partitions that share their larger
                parts share the memoised entries of their common prefix;
                that memo is the route's one cache, and each call
                de-normalizes its coefficient in integers into one Fraction.

The test suite checks both routes against a dynamic program over the
permutations themselves, which also gives the refined counts
H_sigma(left | right) of its product and sum identities.

The group tables are guarded by a budget on n (default 8), overridable
through the SYMPROD_HURWITZ_BUDGET environment variable.
"""

from __future__ import annotations

import os
from collections.abc import Mapping
from fractions import Fraction
from itertools import permutations
from math import factorial
from types import MappingProxyType
from typing import NamedTuple

from .errors import MalformedInputError, ResourceBudgetError
from .memo import memo
from .partitions import Partition, aut_order, partition

DEFAULT_BUDGET = 8
_BUDGET_ENV = "SYMPROD_HURWITZ_BUDGET"

Perm = tuple[int, ...]


def enumeration_budget() -> int:
    raw = os.environ.get(_BUDGET_ENV)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise MalformedInputError(f"{_BUDGET_ENV}={raw!r} is not an integer") from None


def _compose(p: Perm, q: Perm) -> Perm:
    return tuple(p[qi] for qi in q)


def _cycle_type(p: Perm) -> Partition:
    n = len(p)
    seen = bytearray(n)
    parts = []
    for i in range(n):
        if not seen[i]:
            length = 0
            j = i
            while not seen[j]:
                seen[j] = 1
                j = p[j]
                length += 1
            parts.append(length)
    parts.sort(reverse=True)
    return tuple(parts)


class _GroupData(NamedTuple):
    """Per-n symmetric group tables: class members, sizes and indices, read-only
    because the memo hands the same tables to every caller."""

    n: int
    members: Mapping[Partition, tuple[Perm, ...]]
    classes: tuple[Partition, ...]
    index: Mapping[Partition, int]
    sizes: Mapping[Partition, int]


def _group(n: int) -> _GroupData:
    """The tables for S_n, after checking n against the enumeration budget."""
    budget = enumeration_budget()
    if n > budget:
        raise ResourceBudgetError(
            f"n = {n} exceeds the enumeration budget {budget} "
            f"(override with {_BUDGET_ENV})",
            budget,
        )
    return _group_data(n)


@memo
def _group_data(n: int) -> _GroupData:
    members: dict[Partition, list[Perm]] = {}
    for p in permutations(range(n)):
        members.setdefault(_cycle_type(p), []).append(p)
    classes = tuple(sorted(members, reverse=True))
    return _GroupData(
        n,
        MappingProxyType({c: tuple(ps) for c, ps in members.items()}),
        classes,
        MappingProxyType({c: i for i, c in enumerate(classes)}),
        MappingProxyType({c: len(members[c]) for c in classes}),
    )


@memo
def _column(n: int, b: Partition) -> tuple[tuple[int, ...], ...]:
    """S_b[c][a] = #{(x, y) : x in C_a, y in C_b, x*y = rep_c}.

    y determines x = rep_c * y^-1, and C_b is closed under inverses, so a
    row is the cycle types of rep_c * z over z in C_b: p(n) * |C_b| steps.
    """
    gd = _group_data(n)
    column = []
    for c in gd.classes:
        rep = gd.members[c][0]
        row = [0] * len(gd.classes)
        for z in gd.members[b]:
            row[gd.index[_cycle_type(_compose(rep, z))]] += 1
        column.append(tuple(row))
    return tuple(column)


def _distribution(gd: _GroupData, start: Partition, profiles) -> list[int]:
    """T[c] = #{(x, g_1, ..., g_s) : x in C_start, g_i of the given types,
    x g_1 ... g_s = rep_c}, one column per profile."""
    vec = [0] * len(gd.classes)
    vec[gd.index[start]] = 1
    for b in profiles:
        column = _column(gd.n, b)
        vec = [sum(t * s for t, s in zip(vec, row) if t) for row in column]
    return vec


def _normalize_profiles(profiles, n: int | None) -> tuple[int, tuple[Partition, ...]]:
    ps = tuple(partition(p) for p in profiles)
    if not ps:
        raise ValueError("at least one ramification profile is required")
    sizes = {sum(p) for p in ps}
    if len(sizes) != 1:
        raise ValueError(f"profiles have mixed sizes {sorted(sizes)}")
    size = sizes.pop()
    if n is not None and n != size:
        raise ValueError(f"profiles are partitions of {size}, not {n}")
    return size, ps


def hurwitz(profiles, n: int | None = None) -> Fraction:
    """Disconnected Hurwitz number through class-algebra convolution."""
    n, ps = _normalize_profiles(profiles, n)
    if n == 0:
        return Fraction(1)
    _group(n)
    return _count(n, tuple(sorted(ps)))


@memo
def _count(n: int, ps: tuple[Partition, ...]) -> Fraction:
    gd = _group_data(n)
    # largest class first: the first factor is one member of its class, the
    # product condition determines the factor of the second largest class, and
    # only the smaller classes are convolved
    ordered = sorted(ps, key=gd.sizes.__getitem__, reverse=True)
    if len(ordered) == 1:
        ordered.append((1,) * n)  # H(eta) = H(eta, 1^n)
    second = ordered[1]
    vec = _distribution(gd, ordered[0], ordered[2:])
    return Fraction(vec[gd.index[second]] * gd.sizes[second], factorial(n))


# ---------------------------------------------------------------------------
# one-part double Hurwitz numbers via the sinh generating function
# ---------------------------------------------------------------------------

def one_part_double_hurwitz(sigma, b: int) -> Fraction:
    """H(sigma, (2)^b, (k)) for k = |sigma| from the closed generating form.

    The t^(b - l(sigma) + 1) coefficient of
        (t/2)/sinh(t/2) * prod_i sinh(sigma_i t/2)/(sigma_i t/2)
    is de-normalized in integers by b!, k^(b-1) and 1/|Aut(sigma)|; the
    k-normalization is pinned by matching the enumeration oracle. b must be
    an int (not a bool). Only the coefficient is memoised.
    """
    if isinstance(b, bool) or not isinstance(b, int):
        raise TypeError(f"b must be an int, got {type(b).__name__} {b!r}")
    sigma = partition(sigma)
    k = sum(sigma)
    if k == 0:
        raise ValueError("sigma must be a nonempty partition")
    if b < 0:
        raise ValueError(f"b must be at least 0, got {b}")
    top = b - len(sigma) + 1
    if top < 0 or top % 2:  # the generating series is even in t
        return Fraction(0)
    coeff = _sinh_coefficient(sigma, top // 2)
    num, den = coeff.numerator * factorial(b), coeff.denominator * aut_order(sigma)
    return Fraction(num * k ** (b - 1), den) if b else Fraction(num, den * k)


@memo
def _sinh_coefficient(sigma: Partition, g: int) -> Fraction:
    """c(sigma, g) = [t^(2g)] (t/2)/sinh(t/2) * prod_{p in sigma} sinh(pt/2)/(pt/2).

    sinh(pt/2)/(pt/2) = sum_h (p/2)^(2h)/(2h+1)!, so taking off sigma's last
    part p gives c(sigma, g) = sum_h c(sigma - p, g - h) (p/2)^(2h)/(2h+1)!.
    The empty partition leaves (t/2)/sinh(t/2), whose coefficients follow
    from its product with sinh(t/2)/(t/2) being 1. The sums run h downwards,
    so the entries for g - h are made in increasing order and the recursion
    is no deeper than l(sigma) + 2 for any g.
    """
    if sigma:
        p, rest = sigma[-1], sigma[:-1]
        return sum(_sinh_coefficient(rest, g - h) * _sinh_term(p, h) for h in range(g, -1, -1))
    if g == 0:
        return Fraction(1)
    return -sum(_sinh_coefficient((), g - h) * _sinh_term(1, h) for h in range(g, 0, -1))


def _sinh_term(p: int, h: int) -> Fraction:
    """(p/2)^(2h)/(2h+1)!, the t^(2h) coefficient of sinh(pt/2)/(pt/2)."""
    return Fraction(p ** (2 * h), 4**h * factorial(2 * h + 1))
