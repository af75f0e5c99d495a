"""Chen-Ruan cohomology of the symmetric product stack of A_r.

The orbifold Poincare pairing is the matching sum: it vanishes unless
the cycle-type multiplicities agree, and otherwise sums products of
surface integrals over length-preserving matchings of cycles. Gram
matrices and their blockwise inverses are built from it. Weighted
partitions also expand into the fixed-point class basis by distributing
every cycle over the fixed points with localized coefficients; the
pairing there is diagonal, and the test suite uses that expansion as the
pairing's reference oracle and for the dual classes.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import permutations

from .algebra import RatFunc2
from .errors import DegenerateBasisError
from .memo import memo
from .partitions import (
    Label,
    MultiPartition,
    WeightedPartition,
    aut_order_weighted,
    mp_aut_order,
    mp_size,
    multipartition,
    underlying,
    wp_size,
)
from .surface import TangentWeights, check_label, class_of, integrate, tangent_weights


class CRClass:
    """Linear combination of fixed-point classes of [Sym^n(A_r)]."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[MultiPartition, RatFunc2] | None = None):
        self.n = n
        clean: dict[MultiPartition, RatFunc2] = {}
        if terms:
            for mp, c in terms.items():
                if mp_size(mp) != n:
                    raise ValueError(f"multipartition {mp} has size != {n}")
                if not c.is_zero():
                    clean[mp] = c
        self.terms = clean

    def coefficient(self, mp: MultiPartition) -> RatFunc2:
        return self.terms.get(mp, RatFunc2.zero())

    def __eq__(self, other) -> bool:
        return isinstance(other, CRClass) and self.n == other.n and self.terms == other.terms

    def __repr__(self) -> str:
        return f"CRClass(n={self.n}, {len(self.terms)} fixed-point terms)"


def expand(wp: WeightedPartition, w: TangentWeights) -> CRClass:
    """Fixed-point expansion of a cohomology-weighted partition.

    Every cycle i(eta) is distributed over the fixed points through
    eta = sum_k (eta|_{x_k} / L_k R_k) [x_k]; identical multipartitions
    are merged, with the automorphism-ratio normalization that makes the
    coefficients exactly the components in the fixed-point basis.
    """
    return _expand(wp, w.r)


@memo
def _expand(wp: WeightedPartition, r: int) -> CRClass:
    w = tangent_weights(r)
    n = wp_size(wp)
    slots = list(wp)
    rows = []
    for _, label in slots:
        sc = class_of(label, w)
        rows.append([sc.coords[k - 1] / w.LR(k) for k in w.points()])
    acc: dict[MultiPartition, RatFunc2] = {}
    assignment = [0] * len(slots)

    def rec(m: int, coeff: RatFunc2):
        if m == len(slots):
            groups: list[list[int]] = [[] for _ in range(r + 1)]
            for slot, k in enumerate(assignment):
                groups[k].append(slots[slot][0])
            mp = multipartition(groups)
            prev = acc.get(mp)
            acc[mp] = coeff if prev is None else prev + coeff
            return
        for k in range(r + 1):
            c = rows[m][k]
            if c.is_zero():
                continue
            assignment[m] = k
            rec(m + 1, coeff * c)

    rec(0, RatFunc2.one())
    aut_wp = aut_order_weighted(wp)
    terms = {
        mp: v * Fraction(mp_aut_order(mp), aut_wp)
        for mp, v in acc.items()
        if not v.is_zero()
    }
    return CRClass(n, terms)


def _integral(l1: Label, l2: Label, r: int) -> RatFunc2:
    """Surface integral of two label classes; symmetric, so one entry per pair."""
    return _ordered_integral(l1, l2, r) if l1 <= l2 else _ordered_integral(l2, l1, r)


@memo
def _ordered_integral(l1: Label, l2: Label, r: int) -> RatFunc2:
    w = tangent_weights(r)
    return integrate(class_of(l1, w), class_of(l2, w), w)


def pairing(wp1: WeightedPartition, wp2: WeightedPartition, w: TangentWeights) -> RatFunc2:
    """Orbifold Poincare pairing by the matching-sum formula.

    Vanishes unless the cycle-type multiplicities agree; otherwise sums
    surface integrals over length-preserving matchings of cycles,
    normalized by the part product and both automorphism orders.
    """
    if wp_size(wp1) != wp_size(wp2):
        raise ValueError("weighted partitions of different sizes")
    # the pairing is symmetric, so one entry serves both orders
    return _matching_sum(wp1, wp2, w.r) if wp1 <= wp2 else _matching_sum(wp2, wp1, w.r)


@memo
def _matching_sum(wp1: WeightedPartition, wp2: WeightedPartition, r: int) -> RatFunc2:
    for _, label in wp1 + wp2:
        check_label(label, r)
    by_size1: dict[int, list[Label]] = defaultdict(list)
    by_size2: dict[int, list[Label]] = defaultdict(list)
    for p, label in wp1:
        by_size1[p].append(label)
    for p, label in wp2:
        by_size2[p].append(label)
    if {p: len(v) for p, v in by_size1.items()} != {p: len(v) for p, v in by_size2.items()}:
        return RatFunc2.zero()
    total = RatFunc2.one()
    for p, labels1 in by_size1.items():
        labels2 = by_size2[p]
        block = RatFunc2.zero()
        for perm in permutations(range(len(labels2))):
            term = RatFunc2.one()
            for j, l1 in enumerate(labels1):
                term = term * _integral(l1, labels2[perm[j]], r)
                if term.is_zero():
                    break
            block = block + term
        if block.is_zero():
            return RatFunc2.zero()
        total = total * block
    parts_product = 1
    for p, _ in wp1:
        parts_product *= p
    norm = Fraction(
        1, parts_product * aut_order_weighted(wp1) * aut_order_weighted(wp2)
    )
    return total * norm


# ---------------------------------------------------------------------------
# Gram matrices
# ---------------------------------------------------------------------------

def _blocks(basis: list[WeightedPartition]) -> list[list[int]]:
    groups: dict[tuple, list[int]] = defaultdict(list)
    for idx, wp in enumerate(basis):
        groups[underlying(wp)].append(idx)
    return list(groups.values())


def gram_matrix(basis, w: TangentWeights) -> list[list[RatFunc2]]:
    """Pairing Gram matrix; block-diagonal across underlying partitions."""
    basis = list(basis)
    size = len(basis)
    zero = RatFunc2.zero()
    gram = [[zero] * size for _ in range(size)]
    for block in _blocks(basis):
        for pos, i in enumerate(block):
            for j in block[pos:]:
                val = pairing(basis[i], basis[j], w)
                gram[i][j] = val
                gram[j][i] = val
    return gram


def _invert(matrix: list[list[RatFunc2]]) -> list[list[RatFunc2]]:
    size = len(matrix)
    zero, one = RatFunc2.zero(), RatFunc2.one()
    aug = [
        list(row) + [one if i == j else zero for j in range(size)]
        for i, row in enumerate(matrix)
    ]
    for col in range(size):
        pivot = next(
            (row for row in range(col, size) if not aug[row][col].is_zero()), None
        )
        if pivot is None:
            raise DegenerateBasisError("singular Gram block")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for row in range(size):
            if row != col and not aug[row][col].is_zero():
                f = aug[row][col]
                aug[row] = [x - f * y for x, y in zip(aug[row], aug[col])]
    return [row[size:] for row in aug]


def gram_inverse(basis, w: TangentWeights) -> list[list[RatFunc2]]:
    """Inverse of the Gram matrix, computed blockwise."""
    basis = list(basis)
    size = len(basis)
    zero = RatFunc2.zero()
    out = [[zero] * size for _ in range(size)]
    gram = gram_matrix(basis, w)
    for block in _blocks(basis):
        sub = [[gram[i][j] for j in block] for i in block]
        inv = _invert(sub)
        for a, i in enumerate(block):
            for b, j in enumerate(block):
                out[i][j] = inv[a][b]
    return out
