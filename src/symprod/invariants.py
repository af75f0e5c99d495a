"""Two-point extended invariants of nonzero degree and divisor 3-point series.

The connected two-point invariant of twisted degree (a, d*E_{ij}) is the
closed product of automorphism factors, chain intersection numbers, a
sign/degree factor and a convolution of one-part double Hurwitz numbers;
it is a polynomial divisible by t1 + t2. Disconnected invariants are
splitting sums of pairings against connected pieces, enumerated once per
insertion pair for all degrees of a two-point series. Three-point series
with one divisor insertion come from the divisor equations: d/du for the
twisted divisor, s_l d/ds_l plus an s=0 boundary term for the untwisted
ones. Degree-zero data is never computed here; it enters through a
pluggable table with canonical keys, and missing entries are reported as gaps.
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
from .partitions import (
    WeightedPartition,
    aut_order,
    aut_order_weighted,
    enumerate_sub_splittings,
    underlying,
    wp_size,
)
from .surface import TangentWeights, beta_as_chain, check_label, e_chain, e_dot
from .textforms import parse_wp, useries_from_json, useries_to_json, wp_to_text

_THETA = Poly2.linear(1, 1)  # t1 + t2

DIVISOR_TWO = "(2)"
TWO_POINT_MARKER = "1"  # table key marker for the beta=0 two-point series
_TABLE_DIVISOR_RE = re.compile(r"1|D[1-9]\d*")  # the marker or an untwisted divisor


def _check_pair(mu_w: WeightedPartition, nu_w: WeightedPartition) -> None:
    for _, label in mu_w + nu_w:
        if label[0] not in ("1", "E", "w"):
            raise UnsupportedWeightError(
                f"weight {label!r} unsupported: connected invariants take "
                "weights 1 or divisors only"
            )
    if wp_size(mu_w) != wp_size(nu_w):
        raise ValueError("the two insertions must have equal size")


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

    with g = (a - l(mu) - l(nu) + 2)/2; parity failures vanish.
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


def _splitting_sums(
    mu1_w: WeightedPartition,
    mu2_w: WeightedPartition,
    degrees,
    w: TangentWeights,
) -> dict:
    """Disconnected invariants at every (a, beta) in degrees; zeros omitted.

    The splittings of both insertions are enumerated and paired once;
    only the connected pieces depend on the degree.
    """
    for _, label in mu1_w + mu2_w:
        check_label(label, w.r)
    _check_pair(mu1_w, mu2_w)
    by_theta1: dict = {}
    for theta, nu in enumerate_sub_splittings(mu1_w):
        if nu:  # an empty connected piece contributes nothing
            by_theta1.setdefault(underlying(theta), []).append((theta, nu))
    pieces = []  # an empty nu2 finds no partner: its theta1 would leave nu1 empty
    for theta2, nu2 in enumerate_sub_splittings(mu2_w):
        for theta1, nu1 in by_theta1.get(underlying(theta2), ()):
            pair = pairing(theta1, theta2, w)
            if not pair.is_zero():
                pieces.append((pair, nu1, nu2))
    out = {}
    for a, beta in degrees:
        total = RatFunc2.zero()
        for pair, nu1, nu2 in pieces:
            conn = connected_two_point(nu1, nu2, a, beta, w)
            if not conn.is_zero():
                total = total + pair * RatFunc2(conn)
        if not total.is_zero():
            out[(a, beta)] = total
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
    return _splitting_sums(mu1_w, mu2_w, [(a, beta)], w).get((a, beta), RatFunc2.zero())


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
    degrees = [
        (a, e_chain(i, j, d, r))
        for i in range(1, r + 1)
        for j in range(i, r + 1)
        for d in range(1, min(s_orders[i - 1 : j]) + 1)
        for a in range(u_order + 1)
    ]
    return TruncSeries(u_order, s_orders, _splitting_sums(mu1_w, mu2_w, degrees, w))


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
        """Store an entry under its canonical key; a bad key raises MalformedInputError."""
        if not (isinstance(divisor, str) and _TABLE_DIVISOR_RE.fullmatch(divisor)):
            raise MalformedInputError(f'table divisor {divisor!r} is neither "1" nor D<l>')
        try:
            key = (wp_to_text(parse_wp(left)), divisor, wp_to_text(parse_wp(right)))
        except (AttributeError, ValueError) as exc:  # AttributeError: not a string
            raise MalformedInputError(f"table key: {exc}") from None
        self.entries[key] = tuple((int(a), RatFunc2.lift(v)) for a, v in pairs)

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
