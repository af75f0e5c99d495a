"""Two-point extended invariants of nonzero degree and divisor 3-point series.

The connected two-point invariant of twisted degree (a, d*E_{ij}) is the
closed product of automorphism factors, chain intersection numbers, a
sign/degree factor and a convolution of one-part double Hurwitz numbers.
It factors as (t1+t2) d^(a-1) C, with a rational scalar C that depends on
the underlying partitions, the chain i..j and a, but not on d.
Disconnected invariants are splitting sums of pairings against connected
pieces, enumerated once per insertion pair for all degrees of a two-point
series: per (a, i, j) the scalars of the pieces with a common pairing
value P sum to C_P, R = sum_P P (t1+t2) C_P, and each degree d gets
R d^(a-1).

Three-point series with one divisor insertion come from the divisor
equations: d/du for the twisted divisor, s_l d/ds_l plus an s=0 boundary
term for the untwisted ones. Degree-zero data is never computed here; it
enters through a pluggable table with canonical keys, and missing entries
are reported as gaps.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .algebra import Poly2, RatFunc2, TruncSeries
from .chenruan import pairing
from .errors import MalformedInputError, OutOfScopeError, UnsupportedWeightError
from .hurwitz import one_part_double_hurwitz
from .memo import memo
from .partitions import (
    Partition,
    WeightedPartition,
    aut_order,
    aut_order_weighted,
    enumerate_sub_splittings,
    underlying,
    wp_size,
)
from .surface import TangentWeights, beta_as_chain, check_label, e_chain, e_dot
from .textforms import (
    label_to_text,
    parse_wp,
    useries_from_json,
    useries_to_json,
    wp_to_text,
)

_THETA = Poly2.linear(1, 1)  # t1 + t2

DIVISOR_TWO = "(2)"
TWO_POINT_MARKER = "1"  # table key marker for the beta=0 two-point series
_TABLE_DIVISOR_RE = re.compile(r"1|D[1-9]\d*")  # the marker or an untwisted divisor


def _check_pair(mu_w: WeightedPartition, nu_w: WeightedPartition) -> None:
    for _, label in mu_w + nu_w:
        if label[0] not in ("1", "E", "w"):
            raise UnsupportedWeightError(
                f"weight {label_to_text(label)} unsupported: connected "
                "invariants take weights 1 or divisors only"
            )
    if wp_size(mu_w) != wp_size(nu_w):
        raise ValueError("the two insertions must have equal size")


def _piece(nu1: WeightedPartition, nu2: WeightedPartition) -> tuple:
    """Degree-free data of the connected piece <nu1, nu2>.

    (mu, nu, k, |Aut mu| |Aut nu| / (|Aut nu1| |Aut nu2|), labels of both).
    """
    mu, nu = underlying(nu1), underlying(nu2)
    weight = Fraction(
        aut_order(mu) * aut_order(nu), aut_order_weighted(nu1) * aut_order_weighted(nu2)
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


@memo
def _hurwitz_convolution(mu: Partition, nu: Partition, a: int) -> Fraction:
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


def connected_two_point(
    mu_w: WeightedPartition,
    nu_w: WeightedPartition,
    a: int,
    beta,
    w: TangentWeights,
) -> Poly2:
    """Connected extended two-point invariant of twisted degree (a, beta).

    Nonzero only for beta = d(E_i + ... + E_j) with d > 0 and weights that
    all pair nontrivially with the chain; then it equals

        |Aut(mu)| |Aut(nu)| prod(E_ij . gamma) prod(E_ij . delta)
        * (t1+t2) (-1)^g d^(a-1) / (k^(a-2) |Aut(mu_w)| |Aut(nu_w)|)
        * sum_{a1+a2=a} H(mu,(2)^a1,(k)) H(nu,(2)^a2,(k)) / (a1! a2!)

    with g = (a - l(mu) - l(nu) + 2)/2; parity failures vanish. So it is
    (t1+t2) d^(a-1) C, where the scalar C depends only on the underlying
    partitions, the chain i..j and a, never on d; the splitting sum adds
    these scalars per pairing value before building any rational function.
    """
    _check_pair(mu_w, nu_w)
    if a < 0:
        return Poly2.zero()
    chain = beta_as_chain(tuple(beta))
    if chain is None:
        if not any(beta):
            raise OutOfScopeError(
                "degree-zero extended invariants are external table data"
            )
        return Poly2.zero()
    if not mu_w:
        # the empty connected invariant at nonzero degree
        return Poly2.zero()
    i, j, d = chain
    piece = _piece(mu_w, nu_w)
    scalar = _chain_factor(piece, i, j)
    if scalar:
        scalar *= _degree_factor(piece, a)
    return _THETA.scale(scalar * Fraction(d) ** (a - 1))


def _splitting_sums(
    mu1_w: WeightedPartition,
    mu2_w: WeightedPartition,
    a_values,
    chains,
    w: TangentWeights,
) -> dict:
    """Disconnected invariants keyed (a, i, j, d) for every a in a_values
    and every (i, j, ds) in chains, d in ds; zeros omitted.

    The splittings of both insertions are enumerated and paired once.
    Each connected piece is (t1+t2) d^(a-1) times chain and degree
    factors, so per (a, i, j) the pieces of each pairing value P sum to
    one scalar C_P, and R = sum_P P (t1+t2) C_P gives R d^(a-1) at every d.
    """
    for _, label in mu1_w + mu2_w:
        check_label(label, w.r)
    _check_pair(mu1_w, mu2_w)
    by_theta1: dict = {}
    for theta, nu in enumerate_sub_splittings(mu1_w):
        if nu:  # an empty connected piece contributes nothing
            by_theta1.setdefault(underlying(theta), []).append((theta, nu))
    terms: dict = {}  # pairing value -> (chain factors, degree factors) of its pieces
    # an empty nu2 finds no partner: its theta1 would leave nu1 empty
    for theta2, nu2 in enumerate_sub_splittings(mu2_w):
        for theta1, nu1 in by_theta1.get(underlying(theta2), ()):
            piece = _piece(nu1, nu2)
            crosses = [_chain_factor(piece, i, j) for i, j, _ in chains]
            if not any(crosses):
                continue
            pair = pairing(theta1, theta2, w)
            if pair.is_zero():
                continue
            degs = [_degree_factor(piece, a) for a in a_values]
            if any(degs):
                terms.setdefault(pair, []).append((crosses, degs))
    out = {}
    for ci, (i, j, ds) in enumerate(chains):
        for ai, a in enumerate(a_values):
            total = RatFunc2.zero()
            for pair, members in terms.items():
                c = sum(crosses[ci] * degs[ai] for crosses, degs in members)
                if c:
                    total = total + pair * RatFunc2(_THETA.scale(c))
            if total.is_zero():
                continue
            for d in ds:
                out[(a, i, j, d)] = total if d == 1 else total * Fraction(d) ** (a - 1)
    return out


def disconnected_two_point(
    mu1_w: WeightedPartition,
    mu2_w: WeightedPartition,
    a: int,
    beta,
    w: TangentWeights,
) -> RatFunc2:
    """Disconnected two-point invariant as a splitting sum.

    Both insertions are factored as theta(xi) nu(gamma) over all
    sub-multiset splittings with a common underlying theta; each pair
    contributes pairing(theta_1, theta_2) times the connected invariant
    of the leftovers.
    """
    beta = tuple(beta)
    if not any(beta):
        raise OutOfScopeError("degree-zero extended invariants are external table data")
    chain = beta_as_chain(beta)  # a beta that is not a chain still has its inputs checked
    chains = [] if chain is None else [(chain[0], chain[1], (chain[2],))]
    sums = _splitting_sums(mu1_w, mu2_w, (a,), chains, w)
    return next(iter(sums.values()), RatFunc2.zero())


def two_point_series(
    mu1_w: WeightedPartition,
    mu2_w: WeightedPartition,
    u_order: int,
    s_orders,
    w: TangentWeights,
) -> TruncSeries:
    """Truncated two-point function over nonzero degrees only.

    Sums disconnected invariants times u^a s^(curve exponents) over all
    a <= u_order and all chains d*E_{ij} whose exponent vector fits the
    s-truncation box. The beta = 0 column is intentionally absent.
    """
    s_orders = tuple(s_orders)
    r = w.r
    if len(s_orders) != r:
        raise ValueError(f"need {r} s-orders, got {len(s_orders)}")
    chains = [
        (i, j, range(1, min(s_orders[i - 1 : j]) + 1))
        for i in range(1, r + 1)
        for j in range(i, r + 1)
        if min(s_orders[i - 1 : j])
    ]
    sums = _splitting_sums(mu1_w, mu2_w, range(u_order + 1), chains, w)
    coeffs = {(a, e_chain(i, j, d, r)): v for (a, i, j, d), v in sums.items()}
    return TruncSeries(u_order, s_orders, coeffs)


# ---------------------------------------------------------------------------
# degree-zero plug-in table
# ---------------------------------------------------------------------------

class ZeroDegreeTable:
    """External beta = 0 data for divisor three-point series.

    Keys are (left, divisor, right) canonical text triples; the divisor
    slot is "D<l>" for the untwisted boundary terms and the marker "1"
    for the beta = 0 part of the plain two-point function (consumed by
    the twisted divisor through d/du). Values are u-only coefficient
    lists. Absent keys mean "unknown" and surface as gaps, never zeros.
    """

    def __init__(self, entries: dict | None = None):
        self.entries: dict[tuple[str, str, str], tuple] = {}
        if entries:
            for key, pairs in entries.items():
                self.set(key[0], key[1], key[2], pairs)

    def set(self, left: str, divisor: str, right: str, pairs) -> None:
        """Store an entry under its canonical key.

        A bad key raises MalformedInputError, as does a u-exponent that is
        not an integer (booleans excluded), is negative or appears twice.
        """
        if not (isinstance(divisor, str) and _TABLE_DIVISOR_RE.fullmatch(divisor)):
            raise MalformedInputError(f'table divisor {divisor!r} is neither "1" nor D<l>')
        try:
            key = (wp_to_text(parse_wp(left)), divisor, wp_to_text(parse_wp(right)))
        except (AttributeError, ValueError) as exc:  # AttributeError: not a string
            raise MalformedInputError(f"table key: {exc}") from None
        series, seen = [], set()
        for a, v in pairs:
            if isinstance(a, bool) or not isinstance(a, int) or a < 0:
                raise MalformedInputError(f"series exponent {a!r} is not an integer >= 0")
            if a in seen:
                raise MalformedInputError(f"series exponent {a} appears twice")
            seen.add(a)
            series.append((a, RatFunc2.lift(v)))
        self.entries[key] = tuple(series)

    def get(self, left_wp: WeightedPartition, divisor: str, right_wp: WeightedPartition):
        """Coefficient list for a key, trying both outer orders; None if absent."""
        left, right = wp_to_text(left_wp), wp_to_text(right_wp)
        hit = self.entries.get((left, divisor, right))
        if hit is None:
            hit = self.entries.get((right, divisor, left))
        return hit

    def to_json(self) -> dict:
        return {
            "entries": [
                {
                    "left": key[0],
                    "divisor": key[1],
                    "right": key[2],
                    "series": useries_to_json(pairs),
                }
                for key, pairs in sorted(self.entries.items())
            ]
        }

    @classmethod
    def from_json(cls, payload) -> ZeroDegreeTable:
        """Table from its JSON form; a schema violation raises MalformedInputError."""
        table = cls()
        try:
            for item in payload["entries"]:
                pairs = useries_from_json(item["series"])
                table.set(item["left"], item["divisor"], item["right"], pairs)
        except KeyError as exc:
            raise MalformedInputError(f"degree-zero table lacks the field {exc}") from None
        except (AttributeError, TypeError, ValueError) as exc:
            raise MalformedInputError(f"malformed degree-zero table: {exc}") from None
        return table

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> ZeroDegreeTable:
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


def _embed_useries(pairs, u_order: int, s_orders) -> TruncSeries:
    zeros = (0,) * len(tuple(s_orders))
    coeffs = {}
    for a, v in pairs:
        if a <= u_order and not v.is_zero():
            coeffs[(a, zeros)] = v
    return TruncSeries(u_order, tuple(s_orders), coeffs)


@dataclass
class ThreePointResult:
    series: TruncSeries
    gap: bool = False
    missing_key: tuple | None = None


def three_point_divisor_series(
    alpha1_w: WeightedPartition,
    divisor: str,
    alpha2_w: WeightedPartition,
    u_order: int,
    s_orders,
    w: TangentWeights,
    table: ZeroDegreeTable | None = None,
) -> ThreePointResult:
    """Three-point function with one divisor insertion, via divisor equations.

    divisor is "(2)" or "D<l>". The beta != 0 part never consults the
    table; the beta = 0 part is table data (d/du of the two-point entry
    for "(2)", the s = 0 boundary entry for "D<l>") and its absence is
    flagged as a gap.
    """
    s_orders = tuple(s_orders)
    if divisor == DIVISOR_TWO:
        # compute one u-order higher so the derivative is exact at u_order
        base = two_point_series(alpha1_w, alpha2_w, u_order + 1, s_orders, w).d_du()
        pairs = table.get(alpha1_w, TWO_POINT_MARKER, alpha2_w) if table else None
        if pairs is None:
            key = (wp_to_text(alpha1_w), TWO_POINT_MARKER, wp_to_text(alpha2_w))
            return ThreePointResult(base, gap=True, missing_key=key)
        derived = tuple((a - 1, v * a) for a, v in pairs if 1 <= a <= u_order + 1)
        return ThreePointResult(base + _embed_useries(derived, u_order, s_orders))
    if divisor.startswith("D"):
        ell = int(divisor[1:])
        if not 1 <= ell <= w.r:
            raise ValueError(f"divisor {divisor!r} out of range D1..D{w.r}")
        base = two_point_series(alpha1_w, alpha2_w, u_order, s_orders, w).s_scale_d(ell)
        pairs = table.get(alpha1_w, divisor, alpha2_w) if table else None
        if pairs is None:
            key = (wp_to_text(alpha1_w), divisor, wp_to_text(alpha2_w))
            return ThreePointResult(base, gap=True, missing_key=key)
        return ThreePointResult(base + _embed_useries(pairs, u_order, s_orders))
    raise ValueError(f"unknown divisor symbol {divisor!r}")
