"""Chen-Ruan cohomology of the symmetric product stack of A_r.

The orbifold Poincare pairing is a symmetric power of the surface
pairing: it vanishes unless the cycle-type multiplicities agree, and
otherwise is, per part size, the permanent of the surface integrals
between the labels of the cycles of that length. Gram matrices are built
from it; the Gram inverse is the same power of the dual pairing, in
closed form, through the same permanent.
Weighted partitions also expand into the fixed-point class basis by
distributing every cycle over the fixed points with localized
coefficients; the pairing there is diagonal, and the test suite uses that
expansion as the pairing's reference oracle and for the dual classes.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Mapping
from fractions import Fraction
from itertools import product
from math import comb, prod
from types import MappingProxyType

from .algebra import Poly2, RatFunc2
from .errors import DegenerateBasisError
from .memo import memo
from .partitions import (
    ONE,
    Label,
    MultiPartition,
    WeightedPartition,
    aut_order,
    mp_aut_order,
    multipartition,
    underlying,
    weighted_partition,
    wp_size,
)
from .surface import (
    check_label,
    check_r,
    class_of,
    integrate,
    omega_coefficients,
    tangent_weights,
)


@memo
def expand(wp: WeightedPartition, r: int) -> Mapping[MultiPartition, RatFunc2]:
    """Fixed-point expansion of a cohomology-weighted partition, as a read-only
    mapping from each multipartition to its nonzero coefficient.

    Every cycle i(eta) is distributed over the fixed points through
    eta = sum_k (eta|_{x_k} / L_k R_k) [x_k]; identical multipartitions
    are merged, with the automorphism-ratio normalization that makes the
    coefficients exactly the components in the fixed-point basis.
    """
    weights = tangent_weights(r)
    choices = [
        [(k, part, c / lr) for k, (c, (_, _, lr)) in enumerate(zip(class_of(label, r), weights))
         if not c.is_zero()]
        for part, label in wp
    ]
    acc: dict[MultiPartition, RatFunc2] = {}
    for picks in product(*choices):
        groups: list[list[int]] = [[] for _ in range(r + 1)]
        for k, part, _ in picks:
            groups[k].append(part)
        mp = multipartition(groups)
        coeff = prod((c for _, _, c in picks), start=RatFunc2.one())
        acc[mp] = acc[mp] + coeff if mp in acc else coeff
    aut_wp = aut_order(wp)
    return MappingProxyType({
        mp: v * Fraction(mp_aut_order(mp), aut_wp)
        for mp, v in acc.items()
        if not v.is_zero()
    })


def _integral(l1: Label, l2: Label, r: int) -> RatFunc2:
    """Surface integral of two label classes; symmetric, so one entry per pair."""
    return _ordered_integral(l1, l2, r) if l1 <= l2 else _ordered_integral(l2, l1, r)


@memo
def _ordered_integral(l1: Label, l2: Label, r: int) -> RatFunc2:
    return integrate(class_of(l1, r), class_of(l2, r))


def pairing(wp1: WeightedPartition, wp2: WeightedPartition, r: int) -> RatFunc2:
    """Orbifold Poincare pairing, a symmetric power of the surface pairing.

    Vanishes unless the cycle-type multiplicities agree; otherwise the
    product over part sizes of the permanent of surface integrals between
    the labels of that size, normalized by the part product and both
    automorphism orders.
    """
    if wp_size(wp1) != wp_size(wp2):
        raise ValueError("weighted partitions of different sizes")
    # the pairing is symmetric, so one entry serves both orders
    return _matching_sum(wp1, wp2, r) if wp1 <= wp2 else _matching_sum(wp2, wp1, r)


@memo
def _matching_sum(wp1: WeightedPartition, wp2: WeightedPartition, r: int) -> RatFunc2:
    for _, label in wp1 + wp2:
        check_label(label, r)
    if underlying(wp1) != underlying(wp2):
        return RatFunc2.zero()
    total = RatFunc2.one()
    for (_, labels1), (_, labels2) in zip(_labels_by_size(wp1), _labels_by_size(wp2)):
        block = _permanent(labels1, labels2, r, _integral)
        if block == 0:
            return RatFunc2.zero()
        total = total * block
    norm = Fraction(1, prod(p for p, _ in wp1) * aut_order(wp1) * aut_order(wp2))
    return total * norm


def _labels_by_size(wp: WeightedPartition) -> tuple[tuple[int, tuple[Label, ...]], ...]:
    """(part, sorted labels of the cycles of that length), by descending part."""
    by_size: dict[int, list[Label]] = defaultdict(list)
    for p, label in wp:
        by_size[p].append(label)
    return tuple((p, tuple(sorted(v))) for p, v in sorted(by_size.items(), reverse=True))


@memo
def _permanent(rows: tuple[Label, ...], cols: tuple[Label, ...], r: int, entry):
    """Permanent of entry(row, col, r) between two sorted label tuples.

    Expands along the first row; equal columns give equal minors, so each
    distinct column is taken once, times its multiplicity.
    """
    if not rows:
        return 1
    head, total = rows[0], 0
    for pos, col in enumerate(cols):
        if pos and cols[pos - 1] == col:
            continue
        value = entry(head, col, r)
        if value != 0:
            minor = _permanent(rows[1:], cols[:pos] + cols[pos + 1 :], r, entry)
            total += cols.count(col) * value * minor
    return total


# ---------------------------------------------------------------------------
# Gram matrices
# ---------------------------------------------------------------------------

def _blocks(basis: list[WeightedPartition]) -> list[list[int]]:
    groups: dict[tuple, list[int]] = defaultdict(list)
    for idx, wp in enumerate(basis):
        groups[underlying(wp)].append(idx)
    return list(groups.values())


def gram_matrix(basis, r: int) -> list[list[RatFunc2]]:
    """Pairing Gram matrix; block-diagonal across underlying partitions."""
    basis = list(basis)
    size = len(basis)
    zero = RatFunc2.zero()
    gram = [[zero] * size for _ in range(size)]
    for block in _blocks(basis):
        for pos, i in enumerate(block):
            for j in block[pos:]:
                val = pairing(basis[i], basis[j], r)
                gram[i][j] = val
                gram[j][i] = val
    return gram


def gram_inverse(basis, r: int) -> list[list[RatFunc2]]:
    """Inverse of the Gram matrix in closed form, from the dual surface pairing.

    The pairing is the symmetric power of g = diag(1/((r+1) t1 t2), -C) on
    the labels 1, E_1..E_r, so G^{-1}[b, b'] is the part product of b times,
    per part size, the permanent of g^{-1} = diag((r+1) t1 t2, -C^{-1})
    between the labels of b and b' of that size. No 1 pairs with an E_i:
    the entry is c (t1 t2)^k with k the number of 1-labels of b, and c is 0
    unless b' has as many of each size. The basis must pass check_whole_blocks.
    """
    basis = list(basis)
    check_whole_blocks(basis, r)
    out = [[RatFunc2.zero()] * len(basis) for _ in basis]
    for block in _blocks(basis):
        labels = {i: _labels_by_size(basis[i]) for i in block}
        parts_product = prod(p for p, _ in basis[block[0]])
        for pos, i in enumerate(block):
            k = sum(label == ONE for _, label in basis[i])
            for j in block[pos:]:
                c = parts_product * prod(
                    _permanent(rows, cols, r, _dual_entry)
                    for (_, rows), (_, cols) in zip(labels[i], labels[j])
                )
                if c:
                    out[i][j] = out[j][i] = RatFunc2(Poly2.monomial(k, k, c))
    return out


def check_whole_blocks(basis, r: int) -> None:
    """Raise DegenerateBasisError unless each block (the elements of one underlying
    partition) holds every labelling of it by 1, E_1..E_r exactly once."""
    check_r(r)
    basis = list(basis)
    for block in _blocks(basis):
        elements = [basis[i] for i in block]
        lam = underlying(elements[0])
        labellings = prod(comb(m + r, r) for m in Counter(lam).values())
        valid = {
            weighted_partition(wp)
            for wp in elements
            if all(label == ONE or (label[0] == "E" and 1 <= label[1] <= r) for _, label in wp)
        }
        if not len(elements) == len(valid) == labellings:
            raise DegenerateBasisError(
                f"the block of partition {lam} has {len(elements)} elements, {len(valid)} of them "
                f"distinct labellings by 1, E1..E{r}; the Gram inverse needs all {labellings} once"
            )


def _dual_entry(l1: Label, l2: Label, r: int) -> Fraction:
    """g^{-1} between two of 1, E_1..E_r, with the t1 t2 of the 1-1 entry taken
    out: r + 1 between two 1s, 0 between 1 and E_i, and -C^{-1} (the inverse
    intersection matrix) between curves, the entry (k, m) of
    surface.omega_coefficients(r) between E_k and E_m."""
    if l1 == ONE or l2 == ONE:
        return Fraction(r + 1 if l1 == l2 else 0)
    return omega_coefficients(r)[l1[1] - 1][l2[1] - 1]
