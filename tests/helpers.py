"""Shared random builders and oracles for the test suite (seeded, deterministic)."""

from __future__ import annotations

import argparse
import json
import random
from collections import Counter, defaultdict
from functools import lru_cache
from fractions import Fraction
from itertools import permutations, product
from math import comb, factorial, prod

from symprod.algebra import (
    GaussRational,
    Poly1,
    Poly2,
    RatFunc2,
    TruncSeries,
    expand_q_closed_form,
    ratfunc_from_text,
)
from symprod.algebra.poly import _u_divmod, _u_gcd, _u_trim
from symprod.chenruan import _integral, expand, gram_inverse, gram_matrix, pairing
from symprod.cli import _CONFIG, COMMANDS
from symprod.errors import DegenerateBasisError, OutOfScopeError
from symprod.hurwitz import one_part_double_hurwitz
from symprod.invariants import _check_pair, three_point_divisor_series
from symprod.operators import (
    OperatorMatrix,
    VerifyReport,
    closed_form_matrix_a1n2,
    default_divisor_basis,
    divisor_operator,
)
from symprod.partitions import (
    ONE,
    WeightedPartition,
    ecurve,
    enumerate_sub_splittings,
    fixedpt,
    label_key,
    partition,
    partitions_of,
    underlying,
    weighted_partition,
    wp_size,
)
from symprod.surface import beta_as_chain, check_label, check_r, e_dot, tangent_weights
from symprod.textforms import parse_wp, series_to_json, wp_to_text

_THETA = Poly2.linear(1, 1)  # t1 + t2


def counter_aut_order(items) -> int:
    """Reference partitions.aut_order: the product of the factorials of a
    Counter's multiplicities."""
    return prod(factorial(m) for m in Counter(items).values())


# ---------------------------------------------------------------------------
# the Hurwitz oracle: a dynamic program over the permutations themselves
# ---------------------------------------------------------------------------

def _compose(p: tuple, q: tuple) -> tuple:
    """p after q."""
    return tuple(map(p.__getitem__, q))


def _cycle_type(p: tuple) -> tuple:
    seen = [False] * len(p)
    parts = []
    for start in range(len(p)):
        length, j = 0, start
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        if length:
            parts.append(length)
    return tuple(sorted(parts, reverse=True))


@lru_cache(maxsize=None)
def _conjugacy_classes(n: int) -> dict:
    """Cycle type -> every permutation of range(n) with that type."""
    classes: dict = {}
    for p in permutations(range(n)):
        classes.setdefault(_cycle_type(p), []).append(p)
    return classes


@lru_cache(maxsize=None)
def _product_counts(n: int, profiles: tuple) -> dict:
    """g -> number of tuples (g_1, ..., g_s) of the given types with g_1...g_s = g."""
    if not profiles:
        return {tuple(range(n)): 1}
    out: Counter = Counter()
    members = _conjugacy_classes(n)[profiles[-1]]
    for g, count in _product_counts(n, profiles[:-1]).items():
        for h in members:
            out[_compose(g, h)] += count
    return dict(out)


def oracle_hurwitz(profiles, n: int | None = None) -> Fraction:
    """1/n! times the number of tuples of the given cycle types whose product is
    the identity, read off a vector over all n! permutations."""
    ps = tuple(sorted(partition(p) for p in profiles))
    sizes = {sum(p) for p in ps}
    if len(sizes) != 1 or (n is not None and sizes != {n}):
        raise ValueError(f"profiles {ps} are not partitions of one n = {n}")
    n = sizes.pop()
    return Fraction(_product_counts(n, ps).get(tuple(range(n)), 0), factorial(n))


def centralizer_order(lam) -> int:
    """z_lambda = prod_i i^{m_i} m_i!, the centralizer order in S_n."""
    out = 1
    for part, m in Counter(lam).items():
        out *= part**m * factorial(m)
    return out


def _inverse_perm(p: tuple) -> tuple:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def hurwitz_refined(sigma, left, right) -> Fraction:
    """Refined count H_sigma(L | R): 1/n! times the number of tuples of the
    types L then R with product the identity whose left partial product lies
    in the class sigma, summed over the permutations of that class.

    Satisfies H_sigma(L | R) = z_sigma H(L, sigma) H(sigma, R) and sums to
    H(L, R) over all sigma of n. A vacuous sigma (n = 0) gives 1.
    """
    sigma = partition(sigma)
    n = sum(sigma)
    lefts = tuple(sorted(partition(p) for p in left))
    rights = tuple(sorted(partition(p) for p in right))
    for p in lefts + rights:
        if sum(p) != n:
            raise ValueError(f"profile {p} is not a partition of {n}")
    if n == 0:
        return Fraction(1)
    left_counts = _product_counts(n, lefts)
    right_counts = _product_counts(n, rights)
    count = sum(
        left_counts.get(g, 0) * right_counts.get(_inverse_perm(g), 0)
        for g in _conjugacy_classes(n)[sigma]
    )
    return Fraction(count, factorial(n))


def brute_one_part(sigma, b: int) -> Fraction:
    """Enumeration value of H(sigma, (2)^b, (k)); 0 when no (2)-class exists."""
    sigma = partition(sigma)
    k = sum(sigma)
    if k < 2:
        return oracle_hurwitz([sigma, [1] * k], k) if b == 0 else Fraction(0)
    transposition = [2] + [1] * (k - 2)
    return oracle_hurwitz([sigma] + [transposition] * b + [[k]], k)


# ---------------------------------------------------------------------------
# fixed-point basis: the pairing oracle and the dual classes
# ---------------------------------------------------------------------------

def is_subpartition(small, big) -> bool:
    cs, cb = Counter(small), Counter(big)
    return all(cb[p] >= m for p, m in cs.items())


def partition_diff(big, small):
    cb = Counter(big)
    cb.subtract(Counter(small))
    if any(m < 0 for m in cb.values()):
        raise ValueError("not a subpartition")
    return partition(cb.elements())


def mp_contains(big, small) -> bool:
    return len(big) == len(small) and all(
        is_subpartition(s, b) for s, b in zip(small, big)
    )


def mp_diff(big, small):
    return tuple(partition_diff(b, s) for b, s in zip(big, small))


def t_weight(mp, w) -> RatFunc2:
    """Product of tangent weights (L_k R_k)^(length of sigma_k)."""
    out = RatFunc2.one()
    for k, comp in enumerate(mp, start=1):
        if comp:
            for _ in comp:
                out = out * w[k - 1][2]
    return out


def pairing_fixed(mp1, mp2, w) -> RatFunc2:
    """Orbifold pairing of fixed-point classes: diagonal, H(sigma)t(sigma)."""
    if sum(map(sum, mp1)) != sum(map(sum, mp2)):
        raise ValueError("fixed-point classes of different total size")
    if mp1 != mp2:
        return RatFunc2.zero()
    h = Fraction(1)
    for comp in mp1:
        if comp:
            h /= centralizer_order(comp)
    return t_weight(mp1, w) * h


def permutation_pairing(wp1, wp2, r: int) -> RatFunc2:
    """Reference pairing: per part size, the sum over all m! matchings of the
    cycles of that length of the product of their surface integrals,
    normalized by the part product and both automorphism orders."""
    by_size1: dict = defaultdict(list)
    by_size2: dict = defaultdict(list)
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
        1, parts_product * counter_aut_order(wp1) * counter_aut_order(wp2)
    )
    return total * norm


def gauss_jordan_gram_inverse(basis, r: int) -> list:
    """Reference Gram inverse: Gauss-Jordan elimination over RatFunc2 on each
    underlying-partition block of the pairing Gram matrix. Takes any basis
    with invertible blocks, including w and x labels."""
    basis = list(basis)
    size = len(basis)
    zero, one = RatFunc2.zero(), RatFunc2.one()
    gram = gram_matrix(basis, r)
    out = [[zero] * size for _ in range(size)]
    blocks: dict = {}
    for idx, wp in enumerate(basis):
        blocks.setdefault(underlying(wp), []).append(idx)
    for block in blocks.values():
        m = len(block)
        aug = [
            [gram[i][j] for j in block] + [one if a == b else zero for b in range(m)]
            for a, i in enumerate(block)
        ]
        for col in range(m):
            pivot = next((row for row in range(col, m) if not aug[row][col].is_zero()), None)
            if pivot is None:
                raise DegenerateBasisError("singular Gram block")
            aug[col], aug[pivot] = aug[pivot], aug[col]
            pv = aug[col][col]
            aug[col] = [x / pv for x in aug[col]]
            for row in range(m):
                if row != col and not aug[row][col].is_zero():
                    f = aug[row][col]
                    aug[row] = [x - f * y for x, y in zip(aug[row], aug[col])]
        for a, i in enumerate(block):
            for b, j in enumerate(block):
                out[i][j] = aug[a][m + b]
    return out


def dual_basis(basis, r: int) -> list:
    """Classes dual to the basis under the orbifold pairing, each a dict from
    multipartition to its nonzero fixed-point coefficient."""
    basis = list(basis)
    if not basis:
        raise ValueError("empty basis")
    inv = gauss_jordan_gram_inverse(basis, r)
    expansions = [expand(wp, r) for wp in basis]
    duals = []
    for j in range(len(basis)):
        terms: dict = {}
        for c in range(len(basis)):
            if not inv[c][j].is_zero():
                for mp, v in expansions[c].items():
                    terms[mp] = terms.get(mp, RatFunc2.zero()) + v * inv[c][j]
        duals.append({mp: v for mp, v in terms.items() if not v.is_zero()})
    return duals


def fixed_basis_pairing(wp1, wp2, r: int) -> RatFunc2:
    """Reference pairing: expand both classes in the fixed-point basis,
    where the pairing is diagonal with entries pairing_fixed."""
    if wp_size(wp1) != wp_size(wp2):
        raise ValueError("weighted partitions of different sizes")
    a, b, w = expand(wp1, r), expand(wp2, r), tangent_weights(r)
    total = RatFunc2.zero()
    for mp, ca in a.items():
        cb = b.get(mp)
        if cb is not None:
            total = total + ca * cb * pairing_fixed(mp, mp, w)
    return total


def reference_connected_two_point(mu_w, nu_w, a: int, beta) -> Poly2:
    """Reference connected two-point invariant: the closed product evaluated
    term by term for one degree (a, beta), with its own Hurwitz convolution.

        |Aut(mu)| |Aut(nu)| prod(E_ij . gamma) prod(E_ij . delta)
        * (t1+t2) (-1)^g d^(a-1) / (k^(a-2) |Aut(mu_w)| |Aut(nu_w)|)
        * sum_{a1+a2=a} H(mu,(2)^a1,(k)) H(nu,(2)^a2,(k)) / (a1! a2!)
    """
    _check_pair(mu_w, nu_w, len(tuple(beta)))
    k = wp_size(mu_w)
    if a < 0:
        return Poly2.zero()
    chain = beta_as_chain(tuple(beta))
    if chain is None:
        if not any(beta):
            raise OutOfScopeError(
                "degree-zero extended invariants are external table data"
            )
        return Poly2.zero()
    if k == 0:
        # the empty connected invariant at nonzero degree
        return Poly2.zero()
    i, j, d = chain
    mu, nu = underlying(mu_w), underlying(nu_w)
    if (a - len(mu) - len(nu)) % 2:
        return Poly2.zero()
    cross = Fraction(1)
    for _, label in mu_w:
        cross *= e_dot(label, i, j)
        if not cross:
            return Poly2.zero()
    for _, label in nu_w:
        cross *= e_dot(label, i, j)
        if not cross:
            return Poly2.zero()
    hsum = Fraction(0)
    for a1 in range(a + 1):
        a2 = a - a1
        h1 = one_part_double_hurwitz(mu, a1)
        if not h1:
            continue
        h2 = one_part_double_hurwitz(nu, a2)
        if not h2:
            continue
        hsum += h1 * h2 / (factorial(a1) * factorial(a2))
    if not hsum:
        return Poly2.zero()
    g = (a - len(mu) - len(nu) + 2) // 2
    scalar = (
        Fraction(counter_aut_order(mu) * counter_aut_order(nu))
        * cross
        * Fraction(-1) ** g
        * Fraction(d) ** (a - 1)
        / Fraction(k) ** (a - 2)
        / (counter_aut_order(mu_w) * counter_aut_order(nu_w))
        * hsum
    )
    return _THETA.scale(scalar)


# the per-pair factors of a connected piece <nu1, nu2>, found together: the
# oracle of the per-side factor X and the per-partition-pair factor D

def _piece(nu1: WeightedPartition, nu2: WeightedPartition) -> tuple:
    """Degree-free data of the connected piece <nu1, nu2>.

    (mu, nu, k, |Aut mu| |Aut nu| / (|Aut nu1| |Aut nu2|), labels of both).
    """
    mu, nu = underlying(nu1), underlying(nu2)
    weight = Fraction(
        counter_aut_order(mu) * counter_aut_order(nu),
        counter_aut_order(nu1) * counter_aut_order(nu2),
    )
    return mu, nu, wp_size(nu1), weight, tuple(label for _, label in nu1 + nu2)


def _chain_factor(piece: tuple, i: int, j: int) -> Fraction:
    """The piece's weight times prod(E_ij . gamma) over all its labels."""
    cross = piece[3]
    for label in piece[4]:
        cross *= e_dot(label, i, j)
        if not cross:
            break
    return cross


def _hurwitz_convolution(mu: tuple, nu: tuple, a: int) -> Fraction:
    """sum_{a1+a2=a} H(mu,(2)^a1,(k)) H(nu,(2)^a2,(k)) / (a1! a2!)."""
    hsum = Fraction(0)
    for a1 in range(a + 1):
        h1 = one_part_double_hurwitz(mu, a1)
        if not h1:
            continue
        h2 = one_part_double_hurwitz(nu, a - a1)
        if h2:
            hsum += h1 * h2 / (factorial(a1) * factorial(a - a1))
    return hsum


@lru_cache(maxsize=None)
def fraction_chain_factors(nu: WeightedPartition, chains: tuple) -> tuple:
    """Reference invariants._chain_factors: X per chain (i, j) in chains as a
    Fraction, |Aut underlying(nu)| / |Aut nu| times prod(E_ij . gamma)."""
    weight = Fraction(counter_aut_order(underlying(nu)), counter_aut_order(nu))
    return tuple(
        weight * prod(Fraction(e_dot(label, i, j)) for _, label in nu) for i, j in chains
    )


@lru_cache(maxsize=None)
def fraction_degree_factors(mu: tuple, nu: tuple, a_values: tuple) -> tuple:
    """Reference invariants._degree_factors: D per a in a_values as a
    Fraction, zeros included, (-1)^g k^(2-a) times the Hurwitz convolution
    summed per a."""
    k, length = sum(mu), len(mu) + len(nu)
    out = []
    for a in a_values:
        hsum = Fraction(0) if (a - length) % 2 else _hurwitz_convolution(mu, nu, a)
        if hsum:
            hsum *= (-1) ** ((a - length + 2) // 2) * Fraction(k) ** (2 - a)
        out.append(hsum)
    return tuple(out)


def _degree_factor(piece: tuple, a: int) -> Fraction:
    """(-1)^g k^(2-a) times the Hurwitz convolution of the piece's partitions."""
    mu, nu, k, _, labels = piece
    if (a - len(labels)) % 2:
        return Fraction(0)
    hsum = _hurwitz_convolution(mu, nu, a)
    if not hsum:
        return hsum
    g = (a - len(labels) + 2) // 2
    return (-1) ** g * Fraction(k) ** (2 - a) * hsum


def _piece_factors(
    nu1: WeightedPartition, nu2: WeightedPartition, chains: tuple, a_values: tuple
):
    """(chain factors per (i, j) in chains, degree factors per a in a_values)
    of the connected piece <nu1, nu2>, or None when either is all zero."""
    piece = _piece(nu1, nu2)
    crosses = tuple(_chain_factor(piece, i, j) for i, j in chains)
    if not any(crosses):
        return None
    degs = tuple(_degree_factor(piece, a) for a in a_values)
    return (crosses, degs) if any(degs) else None


def _bitmask_splittings(wp) -> set:
    """Every (theta, nu) split of wp, one slot subset per bitmask."""
    slots = list(wp)
    seen = set()
    for mask in range(1 << len(slots)):
        theta = weighted_partition(s for b, s in enumerate(slots) if mask >> b & 1)
        nu = weighted_partition(s for b, s in enumerate(slots) if not mask >> b & 1)
        seen.add((theta, nu))
    return seen


def bitmask_disconnected(mu1, mu2, a: int, beta) -> RatFunc2:
    """Reference disconnected two-point invariant: the splitting sum over
    slot bitmasks, pairing(theta1, theta2) times the reference connected
    invariant of the leftovers."""
    total = RatFunc2.zero()
    for theta1, nu1 in _bitmask_splittings(mu1):
        for theta2, nu2 in _bitmask_splittings(mu2):
            if underlying(theta1) != underlying(theta2):
                continue
            if not nu1 or not nu2:
                continue
            conn = reference_connected_two_point(nu1, nu2, a, beta)
            if conn.is_zero():
                continue
            total = total + pairing(theta1, theta2, len(beta)) * RatFunc2(conn)
    return total


@lru_cache(maxsize=None)
def _splittings_by_theta(wp: WeightedPartition) -> dict:
    """The splittings (theta, nu) of wp with a nonempty nu, grouped by
    underlying(theta); an empty connected piece contributes nothing."""
    out: dict = {}
    for theta, nu in enumerate_sub_splittings(wp):
        if nu:
            out.setdefault(underlying(theta), []).append((theta, nu))
    return out


def matched_pair_two_point_scalars(mu1_w, mu2_w, a_values, chains, r: int) -> dict:
    """Reference invariants.two_point_scalars: the splitting sum over matched
    pairs. Each pair of splittings (theta1, nu1), (theta2, nu2) with a common
    underlying theta adds the numerator of its theta pairing times X(nu1)
    X(nu2) D(underlying nu1, underlying nu2, a), skipping zero factors."""
    _check_pair(mu1_w, mu2_w, r)
    if not chains:
        return {}
    chains, a_values = tuple(chains), tuple(a_values)
    by_theta1 = _splittings_by_theta(mu1_w)
    acc: dict = {}
    for key, pieces2 in _splittings_by_theta(mu2_w).items():
        pieces1 = by_theta1.get(key, ())
        for theta2, nu2 in pieces2:
            xs2 = fraction_chain_factors(nu2, chains)
            if not any(xs2):
                continue
            lam2 = underlying(nu2)
            for theta1, nu1 in pieces1:
                xs1 = fraction_chain_factors(nu1, chains)
                if not any(xs1):
                    continue
                degs = fraction_degree_factors(underlying(nu1), lam2, a_values)
                if not any(degs):
                    continue
                pair = pairing(theta1, theta2, r).num.const_value()
                if not pair:
                    continue
                for (i, j), x1, x2 in zip(chains, xs1, xs2):
                    x = x1 * x2
                    if x:
                        x *= pair
                        for a, y in zip(a_values, degs):
                            if y:
                                acc[(a, i, j)] = acc.get((a, i, j), 0) + x * y
    return {key: c for key, c in acc.items() if c}


def sorting_sub_splittings(wp: WeightedPartition) -> list:
    """Reference partitions.enumerate_sub_splittings: the same walk over the
    distinct pairs, with theta and nu each sorted by weighted_partition."""
    distinct = sorted(Counter(wp).items(), key=lambda kv: (-kv[0][0], label_key(kv[0][1])))
    out = []
    for picks in product(*[range(m + 1) for _, m in distinct]):
        theta, nu = [], []
        for (pair, m), take in zip(distinct, picks):
            theta.extend([pair] * take)
            nu.extend([pair] * (m - take))
        out.append((weighted_partition(theta), weighted_partition(nu)))
    return out


def labelling_maps(lam, labels) -> Counter:
    """Reference partitions.labellings: every map f from the parts of lam to
    labels, its labelling sorted by weighted_partition, counted by a Counter."""
    return Counter(weighted_partition(zip(lam, f)) for f in product(labels, repeat=len(lam)))


@lru_cache(maxsize=None)
def map_labellings(mu, i: int, j: int) -> tuple:
    """Reference partitions.labellings by E_i..E_j, with each labelling's
    count aut_order(mu) // aut_order(nu): every map f from the parts of mu to
    i..j, as (labelling, count) in first-seen order."""
    return tuple(labelling_maps(mu, [ecurve(e) for e in range(i, j + 1)]).items())


def fraction_two_point_column(wp: WeightedPartition, a_values, chains) -> dict:
    """Reference invariants.two_point_column: the same sum with every addend a
    Fraction, {B: {(a, i, j): c}} with zeros omitted."""
    chains, a_values = tuple(chains), tuple(a_values)
    out: dict = {}
    for theta, nu in sorting_sub_splittings(wp):
        if not nu:
            continue
        xs = fraction_chain_factors(nu, chains)
        if not any(xs):
            continue
        lam, theta_aut = underlying(nu), counter_aut_order(theta)
        for mu in partitions_of(sum(lam)):
            degs = fraction_degree_factors(min(mu, lam), max(mu, lam), a_values)  # D is symmetric
            if not any(degs):
                continue
            scale = Fraction(prod(mu), theta_aut)
            for (i, j), x in zip(chains, xs):
                if not x:
                    continue
                x *= scale
                for labelled, count in map_labellings(mu, i, j):
                    b = weighted_partition(theta + labelled)
                    c = x * (count * counter_aut_order(b))
                    values = out.setdefault(b, {})
                    for a, y in zip(a_values, degs):
                        if y:
                            values[(a, i, j)] = values.get((a, i, j), 0) + c * y
    out = {b: {key: c for key, c in values.items() if c} for b, values in out.items()}
    return {b: values for b, values in out.items() if values}


# ---------------------------------------------------------------------------
# the reference divisor operator: one three-point series per basis pair
# ---------------------------------------------------------------------------

def reference_two_point_product(basis, r: int, u_top: int, unit_box: tuple) -> list:
    """Reference P = G^{-1} T_2: the two-point scalars of every basis pair,
    contracted with the c of each G^{-1} entry c (t1 t2)^k one Fraction
    multiply-add at a time. P[i][j] lists (a, i', j', (t1+t2) value) for
    the chains i'..j' inside unit_box, zeros omitted."""
    ginv = gram_inverse(basis, r)
    chains = [(i, j) for i in range(1, r + 1) for j in range(i, r + 1) if min(unit_box[i - 1 : j])]
    size = len(basis)
    t2 = [
        [
            matched_pair_two_point_scalars(basis[j], basis[a], range(u_top + 1), chains, r)
            for j in range(size)
        ]
        for a in range(size)
    ]
    product = []
    for i in range(size):
        ginv_row = [
            (a, g.num.leading_coefficient()) for a, g in enumerate(ginv[i]) if not g.is_zero()
        ]
        row = []
        for j in range(size):
            acc: dict = {}
            for a, c in ginv_row:
                for key, v in t2[a][j].items():
                    acc[key] = acc.get(key, 0) + c * v
            row.append([(*key, RatFunc2(_THETA.scale(v))) for key, v in acc.items() if v])
        product.append(row)
    return product


def reference_divisor_operator(
    n: int,
    r: int,
    divisor: str,
    basis,
    u_order: int,
    s_orders,
    table=None,
) -> OperatorMatrix:
    """Reference divisor-operator matrix M = G^{-1} T, with T the full
    three-point series <<b_j, D, b_a>> of every basis pair (j <= a, used
    for both orders) contracted entry by entry with the Gram inverse."""
    basis = tuple(weighted_partition(wp) for wp in basis)
    if not basis:
        raise ValueError("empty basis")
    if any(wp_size(b) != n for b in basis):
        raise ValueError(f"basis elements must have size {n}")
    for b in basis:
        for _, label in b:
            check_label(label, r)
    s_orders = tuple(s_orders)
    size = len(basis)
    ginv = gauss_jordan_gram_inverse(basis, r)
    tmat = [[None] * size for _ in range(size)]
    for j in range(size):
        for a in range(j, size):
            res = three_point_divisor_series(
                basis[j], divisor, basis[a], u_order, s_orders, table
            )
            tmat[a][j] = res
            if a != j:
                tmat[j][a] = res
    cells = {}
    gaps: set[tuple[int, int]] = set()
    zero = TruncSeries.zero(u_order, s_orders)
    for i in range(size):
        for j in range(size):
            acc = zero
            for a in range(size):
                c = ginv[i][a]
                if c.is_zero():
                    continue
                acc = acc + tmat[a][j].series.scale(c)
                if tmat[a][j].gap:
                    gaps.add((i, j))
            if acc.coeffs:
                cells[i, j] = acc
    return OperatorMatrix(
        n=n,
        r=r,
        divisor=divisor,
        basis=basis,
        u_order=u_order,
        s_orders=s_orders,
        cells=cells,
        gaps=gaps,
    )


# ---------------------------------------------------------------------------
# algebra oracles: the general bivariate gcd, the term-by-term series loops and
# the polynomial text form with Fraction comparisons
# ---------------------------------------------------------------------------

def _to_recursive(p: Poly2) -> dict:
    """View in (Q[t2])[t1]: map t1-degree -> dense list of t2 coefficients."""
    rec: dict = {}
    for (e1, e2), c in p.terms.items():
        coeff = rec.setdefault(e1, [])
        coeff.extend([Fraction(0)] * (e2 + 1 - len(coeff)))
        coeff[e2] += c
    return {d: c for d, c in rec.items() if any(c)}


def _from_recursive(rec: dict) -> Poly2:
    return Poly2({(e1, e2): c for e1, coeff in rec.items() for e2, c in enumerate(coeff)})


def _rec_degree(rec: dict) -> int:
    return max(rec) if rec else -1


def _rec_content(rec: dict) -> list:
    g: list = []
    for coeff in rec.values():
        g = _u_gcd(g, coeff)
    return g


def _rec_div_content(rec: dict, cont: list) -> dict:
    out = {}
    for d, p in rec.items():
        q, r = _u_divmod(p, cont)
        assert not r, "content division not exact"
        out[d] = q
    return out


def _u_mul(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    """Product of two dense univariate polynomials, lowest degree first."""
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            if b:
                out[i + j] += a * b
    return _u_trim(out)


def poly1_product(p: Poly1, q: Poly1) -> Poly1:
    """p * q; the library needs no product of characteristic polynomials."""
    return Poly1(_u_mul(list(p.coeffs), list(q.coeffs)))


def _u_add(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    """Sum of two dense univariate polynomials, lowest degree first."""
    out = [Fraction(0)] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return _u_trim(out)


def _rec_prem(a: dict, b: dict) -> dict:
    """Pseudo-remainder of a by b in (Q[t2])[t1]."""
    db = _rec_degree(b)
    lb = b[db]
    rem = {d: list(p) for d, p in a.items()}
    while rem and _rec_degree(rem) >= db:
        da = _rec_degree(rem)
        minus_la = [-c for c in rem[da]]
        # rem <- lb*rem - la*t1^(da-db)*b
        new = {d: _u_mul(p, lb) for d, p in rem.items()}
        for d, p in b.items():
            shifted = d + da - db
            new[shifted] = _u_add(new.get(shifted, []), _u_mul(p, minus_la))
        rem = {d: p for d, p in new.items() if p}
    return rem


def reference_poly2_gcd(a: Poly2, b: Poly2) -> Poly2:
    """Primitive gcd by content/primitive-part recursion in (Q[t2])[t1],
    with shortcuts only for zero, constant and two single-term operands."""
    if a.is_zero():
        return b.primitive()
    if b.is_zero():
        return a.primitive()
    if a.is_const() or b.is_const():
        return Poly2.one()
    if len(a.terms) == 1 and len(b.terms) == 1:
        (a1, a2), = a.terms
        (b1, b2), = b.terms
        return Poly2.monomial(min(a1, b1), min(a2, b2))

    ra, rb = _to_recursive(a), _to_recursive(b)
    ca, cb = _rec_content(ra), _rec_content(rb)
    pa, pb = _rec_div_content(ra, ca), _rec_div_content(rb, cb)
    if _rec_degree(pa) < _rec_degree(pb):
        pa, pb = pb, pa
    while pb:
        rem = _rec_prem(pa, pb)
        pa = pb
        if rem:
            rem = _rec_div_content(rem, _rec_content(rem))
        pb = rem
    cont = _u_gcd(ca, cb)
    g = _from_recursive(pa) * _from_recursive({0: cont})
    return g.primitive()


def _reference_format_term(mono, c: Fraction) -> str:
    e1, e2 = mono
    parts = []
    if e1:
        parts.append("t1" if e1 == 1 else f"t1^{e1}")
    if e2:
        parts.append("t2" if e2 == 1 else f"t2^{e2}")
    coefficient = str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
    if not parts:
        return coefficient
    body = "*".join(parts)
    if c == 1:
        return body
    if c == -1:
        return "-" + body
    return coefficient + "*" + body


def reference_poly2_to_text(p: Poly2) -> str:
    """Monomials in descending lex order, a unit coefficient found by comparing
    the Fraction with 1 and -1."""
    if p.is_zero():
        return "0"
    chunks = []
    for mono in sorted(p.terms, reverse=True):
        term = _reference_format_term(mono, p.terms[mono])
        if not chunks:
            chunks.append(term)
        elif term.startswith("-"):
            chunks.append("- " + term[1:])
        else:
            chunks.append("+ " + term)
    return " ".join(chunks)


def reference_series_mul(a: TruncSeries, b: TruncSeries) -> TruncSeries:
    """a * b by one RatFunc2 product and one RatFunc2 sum per pair of terms."""
    if a.shape() != b.shape():
        raise ValueError("truncation orders differ")
    out: dict = {}
    for (a1, d1), c1 in a.coeffs.items():
        for (a2, d2), c2 in b.coeffs.items():
            u = a1 + a2
            if u > a.u_order:
                continue
            ds = tuple(x + y for x, y in zip(d1, d2))
            if any(d > dmax for d, dmax in zip(ds, a.s_orders)):
                continue
            key = (u, ds)
            prod = c1 * c2
            s = out.get(key)
            s = prod if s is None else s + prod
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
    return TruncSeries(a.u_order, a.s_orders, out)


def reference_series_add(a: TruncSeries, b: TruncSeries) -> TruncSeries:
    """a + b by one RatFunc2 sum per key that both hold, over the coeffs dicts."""
    if a.shape() != b.shape():
        raise ValueError("truncation orders differ")
    out = dict(a.coeffs)
    for key, c in b.coeffs.items():
        out[key] = out[key] + c if key in out else c
    return TruncSeries(a.u_order, a.s_orders, out)  # drops the zero sums


def reference_series_scale(s: TruncSeries, c) -> TruncSeries:
    """c * s by one RatFunc2 product per key, for any value RatFunc2.lift takes."""
    c = RatFunc2.lift(c)
    return TruncSeries(s.u_order, s.s_orders, {key: v * c for key, v in s.coeffs.items()})


def reference_sub(a, b):
    """a - b as a plus the negation of b, for any operands of the algebra types.

    Series, and the series parts of Gaussian rationals, are negated and
    added one RatFunc2 coefficient at a time (a scalar next to a series is
    its constant series), so the oracle runs no series ring operation.
    """
    if isinstance(a, GaussRational) or isinstance(b, GaussRational):
        a, b = GaussRational.lift(a), GaussRational.lift(b)
        return GaussRational(reference_sub(a.re, b.re), reference_sub(a.im, b.im))
    if isinstance(a, TruncSeries) or isinstance(b, TruncSeries):
        shape = (a if isinstance(a, TruncSeries) else b).shape()
        a, b = (x if isinstance(x, TruncSeries) else TruncSeries.const(x, *shape) for x in (a, b))
        return reference_series_add(a, reference_series_scale(b, -1))
    return a + (-b)


def reference_lincomb(pairs, u_order: int, s_orders) -> TruncSeries:
    """sum c * s over (c, s) pairs, one scaled series added at a time."""
    acc = TruncSeries.zero(u_order, s_orders)
    for c, s in pairs:
        acc = reference_series_add(acc, reference_series_scale(s, c))
    return acc


def reference_series_inverse(s: TruncSeries) -> TruncSeries:
    """1/s by the Neumann sum (1/c0) * sum_k (-N)^k, one full product per power."""
    c0 = s.constant_term()
    if c0.is_zero():
        raise ZeroDivisionError("series has no invertible constant term")
    # 1/(c0(1+N)) = (1/c0) * sum (-N)^k, N nilpotent in the truncated ring
    one = TruncSeries.one(s.u_order, s.s_orders)
    n = reference_sub(reference_series_scale(s, c0.inverse()), one)
    bound = s.u_order + sum(s.s_orders)
    out = power = one
    sign = 1
    for _ in range(bound):
        power = reference_series_mul(power, n)
        if power.is_zero():
            break
        sign = -sign
        out = reference_series_add(out, reference_series_scale(power, sign))
    return reference_series_scale(out, c0.inverse())


# ---------------------------------------------------------------------------
# exact evaluation and the t2 = -t1 substitution, for checks on library values
# ---------------------------------------------------------------------------

def conjugate(z: GaussRational) -> GaussRational:
    return GaussRational(z.re, -z.im)


def evaluate_poly2(p: Poly2, v1: Fraction, v2: Fraction) -> Fraction:
    return sum((c * v1**e1 * v2**e2 for (e1, e2), c in p.terms.items()), Fraction(0))


def evaluate_ratfunc(f: RatFunc2, v1: Fraction, v2: Fraction) -> Fraction:
    d = evaluate_poly2(f.den, v1, v2)
    if d == 0:
        raise ZeroDivisionError("pole of rational function at evaluation point")
    return evaluate_poly2(f.num, v1, v2) / d


def poly2_subs_t2_minus_t1(p: Poly2) -> list[Fraction]:
    """Substitute t2 = -t1; returns a dense univariate poly in t1."""
    out: list[Fraction] = []
    for (e1, e2), c in p.terms.items():
        d = e1 + e2
        if len(out) <= d:
            out.extend([Fraction(0)] * (d + 1 - len(out)))
        out[d] += c * (-1) ** e2
    while out and out[-1] == 0:
        out.pop()
    return out


def ratfunc_subs_t2_minus_t1(f: RatFunc2) -> tuple[list[Fraction], list[Fraction]]:
    """Numerator and denominator after t2 = -t1, as univariate polys."""
    return poly2_subs_t2_minus_t1(f.num), poly2_subs_t2_minus_t1(f.den)


def nonzero_degree_ok(report: VerifyReport) -> bool:
    """No verify mismatch at a nonzero s-degree, the beta != 0 layers."""
    return not [m for m in report.mismatches if any(m[3])]


def diff_every_entry_report(u_order: int, s_order: int, table) -> VerifyReport:
    """verify_a1n2's report with every one of the 25 entries diffed monomial by
    monomial, equal or not, against its own expansion of the closed form."""
    basis = default_divisor_basis(2, 1)
    expected = expand_q_closed_form(closed_form_matrix_a1n2, u_order, (s_order,))
    built = divisor_operator(2, 1, "D1", basis, u_order, (s_order,), table=table)
    mismatches = []
    for i in range(5):
        for j in range(5):
            got = built.entry(i, j)
            for a, ds, _ in (expected[i][j] - got).monomials():
                mismatches.append((
                    i + 1, j + 1, a, ds,
                    str(got.coefficient(a, ds)), str(expected[i][j].coefficient(a, ds)),
                ))
    return VerifyReport(u_order, s_order, 25, mismatches, set(built.gaps))


# ---------------------------------------------------------------------------
# the op-matrix JSON oracle, and readers for the round-trip checks
# ---------------------------------------------------------------------------

def op_matrix_to_json(op: OperatorMatrix) -> dict:
    return {
        "n": op.n,
        "r": op.r,
        "divisor": op.divisor,
        "basis": [wp_to_text(b) for b in op.basis],
        "u_order": op.u_order,
        "s_orders": list(op.s_orders),
        "entries": [
            {"row": i + 1, "col": j + 1, **series_to_json(op.entry(i, j))}
            for i in range(op.size())
            for j in range(op.size())
        ],
        "gaps": sorted([i + 1, j + 1] for i, j in op.gaps),
    }


def reference_op_matrix_dumps(op: OperatorMatrix) -> str:
    """The op-matrix JSON text by the json module's (pure-Python) indent encoder."""
    return json.dumps(op_matrix_to_json(op), indent=1, sort_keys=True)


def series_from_json(payload: dict) -> TruncSeries:
    coeffs = {
        (term["u"], tuple(term["s"])): ratfunc_from_text(term["coeff"])
        for term in payload["terms"]
    }
    return TruncSeries(payload["u_order"], tuple(payload["s_orders"]), coeffs)


def op_matrix_from_json(payload: dict) -> OperatorMatrix:
    cells = {}
    for item in payload["entries"]:
        series = series_from_json(item)
        if series.coeffs:
            cells[item["row"] - 1, item["col"] - 1] = series
    return OperatorMatrix(
        n=payload["n"],
        r=payload["r"],
        divisor=payload["divisor"],
        basis=tuple(parse_wp(b) for b in payload["basis"]),
        u_order=payload["u_order"],
        s_orders=tuple(payload["s_orders"]),
        cells=cells,
        gaps={(i - 1, j - 1) for i, j in payload["gaps"]},
    )


def random_fraction(rng: random.Random, span: int = 6) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, 4))


def random_poly2(rng: random.Random, terms: int = 3, degree: int = 3) -> Poly2:
    out = {}
    for _ in range(rng.randint(0, terms)):
        out[(rng.randint(0, degree), rng.randint(0, degree))] = random_fraction(rng)
    return Poly2(out)


def random_nonzero_poly2(rng: random.Random, terms: int = 3, degree: int = 3) -> Poly2:
    while True:
        p = random_poly2(rng, terms, degree)
        if not p.is_zero():
            return p


def random_homogeneous_poly2(rng: random.Random, degree: int = 2) -> Poly2:
    """A nonzero homogeneous polynomial of degree at most `degree`."""
    while True:
        d = rng.randint(0, degree)
        p = Poly2({(i, d - i): random_fraction(rng) for i in range(d + 1)})
        if not p.is_zero():
            return p


def random_ratfunc(rng: random.Random) -> RatFunc2:
    """A homogeneous numerator (zero in about one draw of four) over a
    homogeneous denominator."""
    num = random_homogeneous_poly2(rng) if rng.randint(0, 3) else Poly2.zero()
    return RatFunc2(num, random_homogeneous_poly2(rng))


def random_series(
    rng: random.Random, u_order: int = 2, s_orders=(2,), terms: int = 4, ratfunc: bool = False
) -> TruncSeries:
    """Up to `terms` random coefficients: constants, or random_ratfunc values."""
    coeffs = {}
    for _ in range(rng.randint(0, terms)):
        key = (
            rng.randint(0, u_order),
            tuple(rng.randint(0, d) for d in s_orders),
        )
        coeffs[key] = random_ratfunc(rng) if ratfunc else RatFunc2.const(random_fraction(rng))
    return TruncSeries(u_order, s_orders, coeffs)


def divisor_labels(r: int) -> list:
    return [ONE] + [ecurve(i) for i in range(1, r + 1)]


def all_labels(r: int) -> list:
    return divisor_labels(r) + [fixedpt(k) for k in range(1, r + 2)]


def reference_check_whole_blocks(basis, r: int) -> None:
    """Reference chenruan.check_whole_blocks: a block holds all prod C(m + r, r)
    labellings of its partition by 1, E_1..E_r, over the multiplicities m of
    its parts, once each, with the labels checked by hand."""
    check_r(r)
    basis = list(basis)
    blocks: dict = defaultdict(list)
    for wp in basis:
        blocks[underlying(wp)].append(wp)
    for lam, elements in blocks.items():
        want = prod(comb(m + r, r) for m in Counter(lam).values())
        valid = {
            weighted_partition(wp)
            for wp in elements
            if all(label == ONE or (label[0] == "E" and 1 <= label[1] <= r) for _, label in wp)
        }
        if not len(elements) == len(valid) == want:
            raise DegenerateBasisError(
                f"the block of partition {lam} has {len(elements)} elements, {len(valid)} of them "
                f"distinct labellings by 1, E1..E{r}; the Gram inverse needs all {want} once"
            )


def random_weighted_partition(rng: random.Random, n: int, labels) -> tuple:
    lam = rng.choice(partitions_of(n)) if n else ()
    return weighted_partition((p, rng.choice(labels)) for p in lam)


def all_weighted_partitions(n: int, labels) -> list:
    """Every weighted partition of n over the given labels."""
    from itertools import combinations_with_replacement

    out = set()
    for lam in partitions_of(n):
        grouped = sorted(set(lam), reverse=True)
        choices_per_part = []
        for part in grouped:
            mult = lam.count(part)
            choices_per_part.append(
                list(combinations_with_replacement(range(len(labels)), mult))
            )

        def rec(level, acc):
            if level == len(grouped):
                out.add(weighted_partition(acc))
                return
            part = grouped[level]
            for combo in choices_per_part[level]:
                rec(level + 1, acc + [(part, labels[i]) for i in combo])

        rec(0, [])
    return sorted(out)


# ---------------------------------------------------------------------------
# the CLI oracle: the parser with every subparser built, whatever the call
# ---------------------------------------------------------------------------

def reference_build_parser(command=None):
    """The oracle of ``cli.build_parser``: the parser with a subparser for
    every subcommand of ``COMMANDS``, in order, whatever ``command`` is, and
    ``command``'s subparser (or None)."""
    parser = argparse.ArgumentParser(
        prog="symprod",
        description="Divisor operators of the orbifold quantum cohomology "
        "of symmetric products of A_r resolutions (exact arithmetic).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}
    for name, (func, help_text, flags) in COMMANDS.items():
        p = subparsers[name] = sub.add_parser(name, help=help_text)
        for flag, keywords in flags + (_CONFIG,):
            p.add_argument(flag, **keywords)
        p.set_defaults(func=func)
    return parser, subparsers.get(command)
