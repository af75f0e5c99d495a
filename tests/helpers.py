"""Shared random builders and oracles for the test suite (seeded, deterministic)."""

from __future__ import annotations

import random
from collections import Counter
from functools import lru_cache
from fractions import Fraction
from itertools import permutations
from math import factorial

from symprod.algebra import GaussRational, Poly2, RatFunc2, TruncSeries, ratfunc_from_text
from symprod.chenruan import CRClass, expand, gram_inverse, pairing
from symprod.errors import OutOfScopeError
from symprod.hurwitz import one_part_double_hurwitz
from symprod.invariants import _check_pair
from symprod.operators import OperatorMatrix, VerifyReport
from symprod.partitions import (
    ONE,
    aut_order,
    aut_order_weighted,
    centralizer_order,
    ecurve,
    fixedpt,
    mp_size,
    partition,
    partitions_of,
    underlying,
    weighted_partition,
    wp_size,
)
from symprod.surface import beta_as_chain, e_dot
from symprod.textforms import parse_wp

_THETA = Poly2.linear(1, 1)  # t1 + t2


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
            out = out * w.LR(k) ** len(comp)
    return out


def pairing_fixed(mp1, mp2, w) -> RatFunc2:
    """Orbifold pairing of fixed-point classes: diagonal, H(sigma)t(sigma)."""
    if mp_size(mp1) != mp_size(mp2):
        raise ValueError("fixed-point classes of different total size")
    if mp1 != mp2:
        return RatFunc2.zero()
    h = Fraction(1)
    for comp in mp1:
        if comp:
            h /= centralizer_order(comp)
    return t_weight(mp1, w) * h


def dual_basis(basis, w) -> list:
    """Classes dual to the basis under the orbifold pairing."""
    basis = list(basis)
    if not basis:
        raise ValueError("empty basis")
    n = wp_size(basis[0])
    inv = gram_inverse(basis, w)
    expansions = [expand(wp, w) for wp in basis]
    duals = []
    for j in range(len(basis)):
        terms: dict = {}
        for c in range(len(basis)):
            if not inv[c][j].is_zero():
                for mp, v in expansions[c].terms.items():
                    terms[mp] = terms.get(mp, RatFunc2.zero()) + v * inv[c][j]
        duals.append(CRClass(n, terms))
    return duals


def fixed_basis_pairing(wp1, wp2, w) -> RatFunc2:
    """Reference pairing: expand both classes in the fixed-point basis,
    where the pairing is diagonal with entries pairing_fixed."""
    if wp_size(wp1) != wp_size(wp2):
        raise ValueError("weighted partitions of different sizes")
    a, b = expand(wp1, w), expand(wp2, w)
    total = RatFunc2.zero()
    for mp, ca in a.terms.items():
        cb = b.terms.get(mp)
        if cb is not None:
            total = total + ca * cb * pairing_fixed(mp, mp, w)
    return total


def reference_connected_two_point(mu_w, nu_w, a: int, beta, w) -> Poly2:
    """Reference connected two-point invariant: the closed product evaluated
    term by term for one degree (a, beta), with its own Hurwitz convolution.

        |Aut(mu)| |Aut(nu)| prod(E_ij . gamma) prod(E_ij . delta)
        * (t1+t2) (-1)^g d^(a-1) / (k^(a-2) |Aut(mu_w)| |Aut(nu_w)|)
        * sum_{a1+a2=a} H(mu,(2)^a1,(k)) H(nu,(2)^a2,(k)) / (a1! a2!)
    """
    _check_pair(mu_w, nu_w)
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
        Fraction(aut_order(mu) * aut_order(nu))
        * cross
        * Fraction(-1) ** g
        * Fraction(d) ** (a - 1)
        / Fraction(k) ** (a - 2)
        / (aut_order_weighted(mu_w) * aut_order_weighted(nu_w))
        * hsum
    )
    return _THETA.scale(scalar)


def _bitmask_splittings(wp) -> set:
    """Every (theta, nu) split of wp, one slot subset per bitmask."""
    slots = list(wp)
    seen = set()
    for mask in range(1 << len(slots)):
        theta = weighted_partition(s for b, s in enumerate(slots) if mask >> b & 1)
        nu = weighted_partition(s for b, s in enumerate(slots) if not mask >> b & 1)
        seen.add((theta, nu))
    return seen


def bitmask_disconnected(mu1, mu2, a: int, beta, w) -> RatFunc2:
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
            conn = reference_connected_two_point(nu1, nu2, a, beta, w)
            if conn.is_zero():
                continue
            total = total + pairing(theta1, theta2, w) * RatFunc2(conn)
    return total


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


# ---------------------------------------------------------------------------
# JSON readers for the round-trip checks of the library's writers
# ---------------------------------------------------------------------------

def series_from_json(payload: dict) -> TruncSeries:
    coeffs = {
        (term["u"], tuple(term["s"])): ratfunc_from_text(term["coeff"])
        for term in payload["terms"]
    }
    return TruncSeries(payload["u_order"], tuple(payload["s_orders"]), coeffs)


def op_matrix_from_json(payload: dict) -> OperatorMatrix:
    basis = tuple(parse_wp(b) for b in payload["basis"])
    size = len(basis)
    u_order = payload["u_order"]
    s_orders = tuple(payload["s_orders"])
    entries = [
        [TruncSeries.zero(u_order, s_orders) for _ in range(size)] for _ in range(size)
    ]
    for item in payload["entries"]:
        entries[item["row"] - 1][item["col"] - 1] = series_from_json(item)
    return OperatorMatrix(
        n=payload["n"],
        r=payload["r"],
        divisor=payload["divisor"],
        basis=basis,
        u_order=u_order,
        s_orders=s_orders,
        entries=entries,
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


def random_ratfunc(rng: random.Random) -> RatFunc2:
    return RatFunc2(random_poly2(rng, 3, 2), random_nonzero_poly2(rng, 2, 2))


def random_series(
    rng: random.Random, u_order: int = 2, s_orders=(2,), terms: int = 4
) -> TruncSeries:
    coeffs = {}
    for _ in range(rng.randint(0, terms)):
        key = (
            rng.randint(0, u_order),
            tuple(rng.randint(0, d) for d in s_orders),
        )
        coeffs[key] = RatFunc2.const(random_fraction(rng))
    return TruncSeries(u_order, s_orders, coeffs)


def divisor_labels(r: int) -> list:
    return [ONE] + [ecurve(i) for i in range(1, r + 1)]


def all_labels(r: int) -> list:
    return divisor_labels(r) + [fixedpt(k) for k in range(1, r + 2)]


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
