"""Partitions, cohomology-weighted partitions and multipartitions.

Conventions:
  * a Partition is a tuple of positive ints, weakly decreasing;
  * a weight label is one of
        ("1",)        the identity class
        ("E", i)      the i-th exceptional curve
        ("w", k)      the k-th dual divisor
        ("x", k)      the k-th fixed-point class
  * a WeightedPartition is a tuple of (part, label) pairs in canonical order;
  * a MultiPartition is a tuple of partitions, one per fixed point.
"""

from __future__ import annotations

from collections import Counter
from itertools import product

from .memo import memo

Partition = tuple[int, ...]
Label = tuple
WeightedPair = tuple[int, Label]
WeightedPartition = tuple[WeightedPair, ...]
MultiPartition = tuple[Partition, ...]

ONE: Label = ("1",)


def checked_int(value, what: str = "a part") -> int:
    """value itself if it is an int and not a bool, else a TypeError naming what."""
    if isinstance(value, bool) or not isinstance(value, int):  # never truncate with int()
        raise TypeError(f"{what} must be an int, got {type(value).__name__} {value!r}")
    return value


def ecurve(i: int) -> Label:
    return ("E", checked_int(i, "a label index"))


def omega(k: int) -> Label:
    return ("w", checked_int(k, "a label index"))


def fixedpt(k: int) -> Label:
    return ("x", checked_int(k, "a label index"))


# label kind -> (sort rank, orbifold degree of its class)
LABEL_KINDS = {"1": (0, 0), "E": (1, 1), "w": (2, 1), "x": (3, 2)}


def label_key(label: Label):
    kind = label[0]
    if kind not in LABEL_KINDS:
        raise ValueError(f"unknown label kind {kind!r} in label {label!r}; expected 1, E, w or x")
    return (LABEL_KINDS[kind][0], 0 if kind == "1" else label[1])


def partition(parts) -> Partition:
    ps = tuple(sorted(map(checked_int, parts), reverse=True))
    if any(p <= 0 for p in ps):
        raise ValueError("partition parts must be positive")
    return ps


@memo
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, in a fixed deterministic order."""
    if checked_int(n, "n") < 0:
        raise ValueError("n must be nonnegative")
    out: list[Partition] = []

    def rec(remaining: int, cap: int, acc: list[int]):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for part in range(min(cap, remaining), 0, -1):
            acc.append(part)
            rec(remaining - part, part, acc)
            acc.pop()

    rec(n, n, [])
    return tuple(out)  # shared by every caller of the memo


def aut_order(items: tuple) -> int:
    """Order of the automorphism group of a multiset tuple, such as a partition
    or a weighted partition: the product of multiplicity factorials, in any
    order of the items. The running count of each item multiplies in, so an
    item of multiplicity m contributes 1 * 2 * ... * m = m!."""
    out, seen = 1, {}
    for item in items:
        m = seen[item] = seen.get(item, 0) + 1
        out *= m
    return out


def age(lam: Partition, n: int) -> int:
    if sum(lam) != checked_int(n, "n"):
        raise ValueError(f"partition {lam} is not a partition of {n}")
    return n - len(lam)


# ---------------------------------------------------------------------------
# weighted partitions
# ---------------------------------------------------------------------------

def pair_key(pair: WeightedPair):
    """The canonical sort key of a (part, label) pair: larger parts first,
    then labels by label_key."""
    return -pair[0], label_key(pair[1])


def weighted_partition(pairs) -> WeightedPartition:
    wp = tuple(sorted(((checked_int(p), label) for p, label in pairs), key=pair_key))
    if any(p <= 0 for p, _ in wp):
        raise ValueError("weighted-partition parts must be positive")
    return wp


def wp_size(wp: WeightedPartition) -> int:
    return sum(p for p, _ in wp)


def underlying(wp: WeightedPartition) -> Partition:
    return partition(p for p, _ in wp)


def enumerate_sub_splittings(
    wp: WeightedPartition,
) -> list[tuple[WeightedPartition, WeightedPartition]]:
    """All ordered pairs (theta, nu) of complementary sub-multisets of wp.

    Each distinct multiset pair is listed exactly once; the count is the
    product of (multiplicity + 1) over distinct weighted pairs. theta and nu
    are built in canonical order, from the distinct pairs taken in that
    order, so neither is sorted again.
    """
    distinct = sorted(Counter(wp).items(), key=lambda kv: pair_key(kv[0]))
    out = []
    ranges = [range(m + 1) for _, m in distinct]
    for picks in product(*ranges):
        theta = []
        nu = []
        for (pair, m), take in zip(distinct, picks):
            theta.extend([pair] * take)
            nu.extend([pair] * (m - take))
        out.append((tuple(theta), tuple(nu)))
    return out


# ---------------------------------------------------------------------------
# multipartitions (fixed-point classes)
# ---------------------------------------------------------------------------

def multipartition(components) -> MultiPartition:
    return tuple(partition(c) for c in components)


def mp_aut_order(mp: MultiPartition) -> int:
    out = 1
    for c in mp:
        out *= aut_order(c)
    return out
