"""Two-point extended invariants of nonzero degree and divisor 3-point series.

The connected two-point invariant of twisted degree (a, d*E_{ij}) is the
closed product of automorphism factors, chain intersection numbers, a
sign/degree factor and a convolution of one-part double Hurwitz numbers.
It factors as (t1+t2) d^(a-1) C, with a rational scalar C that depends on
the underlying partitions, the chain i..j and a, but not on d.
A connected piece <nu1, nu2> is X(nu1) X(nu2) D(underlying nu1,
underlying nu2, a): X depends on one side and the chain, D on two
partitions and a, and each is found once for all degrees. Both are
integers from end to end: X is an int per chain, and D a reduced integer
pair per nonzero a, convolved from the integer numerators of two rows of
one-part Hurwitz numbers. A row is memoised and reads each number through
hurwitz.one_part_double_hurwitz, once per (sigma, b), because the
benchmark traces that call as its Hurwitz layer (perfbench/tracing.py);
a D built straight from the sinh coefficients would leave that layer
unseen. These factors write the two-point function of one insertion b
as a vector V_b over weighted partitions (two_point_column), which is
its column of G^{-1} T_2, and the disconnected invariant of two
insertions b1, b2 is the pairing <b1, V_b2>. V is summed in integers,
numerators over denominators, from terms that _column_terms lists once
per (theta, mu, chain); its values are reduced integer pairs, which the
operators and two_point_scalars read as built.

Scalar form: a piece with a 1-label has chain factor 0, so every term B
of V_b carries all k 1-labels of b in its theta part. The pairing of b1
with B is then c / (t1 t2)^k, since among the surface integrals of 1 and
the divisors only the 1-1 integral 1/((r+1) t1 t2) depends on t, and a
1 pairs with a divisor to 0. So every disconnected invariant of degree
(a, d*E_{ij}) is (t1+t2) d^(a-1) C / (t1 t2)^k with one rational C per
(a, i, j), and it is 0 when the two insertions have different numbers
of 1-labels. two_point_scalars sums these C from <b1, V_b2> in
Fractions; RatFunc2 values are built from them by one helper, for
two_point_series and disconnected_two_point only.

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
from itertools import combinations_with_replacement, groupby, product
from math import factorial, gcd, lcm, prod
from types import MappingProxyType

from .algebra import Poly2, RatFunc2, TruncSeries
from .chenruan import pairing
from .errors import MalformedInputError, OutOfScopeError, UnsupportedWeightError
from .hurwitz import one_part_double_hurwitz
from .memo import memo
from .partitions import (
    ONE,
    Partition,
    WeightedPartition,
    aut_order,
    checked_int,
    ecurve,
    enumerate_sub_splittings,
    pair_key,
    partitions_of,
    underlying,
    wp_size,
)
from .surface import beta_as_chain, chain_degrees, check_label, check_r, e_dot
from .textforms import (
    label_to_text,
    parse_wp,
    useries_from_json,
    useries_to_json,
    wp_to_text,
)

DIVISOR_TWO = "(2)"
TWO_POINT_MARKER = "1"  # table key marker for the beta=0 two-point series
_DIVISOR_RE = re.compile(r"D[1-9]\d*")  # an untwisted divisor, no leading zero
_TABLE_DIVISOR_RE = re.compile("1|" + _DIVISOR_RE.pattern)  # the marker or an untwisted divisor


def _check_pair(mu_w: WeightedPartition, nu_w: WeightedPartition, r: int) -> None:
    check_r(r)
    for _, label in mu_w + nu_w:
        check_label(label, r)
        if label[0] not in ("1", "E", "w"):
            raise UnsupportedWeightError(
                f"weight {label_to_text(label)} unsupported: connected "
                "invariants take weights 1 or divisors only"
            )
    if wp_size(mu_w) != wp_size(nu_w):
        raise ValueError("the two insertions must have equal size")


def divisor_index(divisor: str, r: int) -> int:
    """0 for the twisted divisor "(2)", l for the untwisted D<l> with 1 <= l <= r.

    Any other symbol raises ValueError. The table is keyed on the canonical
    spelling, so D01 or "D 1" is out of range, not another name for D1.
    """
    if divisor == DIVISOR_TWO:
        return 0
    if not divisor.startswith("D"):
        raise ValueError(f"unknown divisor symbol {divisor!r}")
    ell = int(divisor[1:]) if _DIVISOR_RE.fullmatch(divisor) else 0
    if not 1 <= ell <= r:
        raise ValueError(
            f'divisor {divisor!r} out of range: the divisors are "(2)" and D1..D{r}'
        )
    return ell


@memo
def _hurwitz_row(sigma: Partition, top: int) -> tuple:
    """sigma's row H(sigma, (2)^b, (k))/b!, b <= top, over one common
    denominator: (den, numerators), all ints, so no Fraction reaches D."""
    hs = [one_part_double_hurwitz(sigma, b) for b in range(top + 1)]
    dens = [h.denominator * factorial(b) for b, h in enumerate(hs)]
    den = lcm(*dens)
    return den, tuple(h.numerator * (den // d) for h, d in zip(hs, dens))


@memo
def _chain_factors(nu: WeightedPartition, chains: tuple) -> tuple:
    """X of one side nu of a connected piece, per chain (i, j) in chains:
    |Aut underlying(nu)| / |Aut nu| times prod(E_ij . gamma) over nu's labels.

    Each X is an int. The quotient of automorphism orders is a product of
    multinomials, one per part size split by its labels, so it divides
    exactly, and e_dot is an integer."""
    weight = aut_order(underlying(nu)) // aut_order(nu)
    return tuple(weight * prod(e_dot(label, i, j) for _, label in nu) for i, j in chains)


@memo
def _degree_factors(mu: Partition, nu: Partition, a_values: tuple) -> tuple:
    """D of a connected piece between the underlying partitions mu and nu of
    k, per a in a_values: (-1)^g k^(2-a) times their Hurwitz convolution
    sum_{a1+a2=a} H(mu, (2)^a1, (k))/a1! H(nu, (2)^a2, (k))/a2!, with
    g = (a - l(mu) - l(nu) + 2)/2, and 0 when a - l(mu) - l(nu) is odd.

    The result lists only the nonzero values, as (a, num, den) in the order
    of a_values, each a reduced integer pair with den > 0. It is found in
    ints: the convolution runs on the numerators of the two rows of
    _hurwitz_row, each over its one common denominator; (-1)^g flips the
    sign and k^(2-a) multiplies the numerator (a <= 2) or the denominator.
    The memoised rows read each one-part Hurwitz number once for all pieces
    and all a; they go through one_part_double_hurwitz, not the sinh
    coefficients, so that the traced Hurwitz layer sees every number the
    operators use."""
    k, length = sum(mu), len(mu) + len(nu)
    top = max(a_values, default=0)
    den_mu, row_mu = _hurwitz_row(mu, top)
    den_nu, row_nu = _hurwitz_row(nu, top)
    out = []
    for a in a_values:
        if (a - length) % 2:
            continue
        num = sum(row_mu[a1] * row_nu[a - a1] for a1 in range(a + 1))
        if not num:
            continue
        if (a - length + 2) // 2 % 2:  # (-1)^g
            num = -num
        den = den_mu * den_nu
        if a <= 2:
            num *= k ** (2 - a)
        else:
            den *= k ** (a - 2)
        g = gcd(num, den)
        out.append((a, num // g, den // g))
    return tuple(out)


def connected_two_point(
    mu_w: WeightedPartition,
    nu_w: WeightedPartition,
    a: int,
    beta,
) -> Poly2:
    """Connected extended two-point invariant of twisted degree (a, beta) on A_r, r = len(beta).

    Nonzero only for beta = d(E_i + ... + E_j) with d > 0 and weights that
    all pair nontrivially with the chain; then it equals

        (t1+t2) d^(a-1) X_ij(mu_w) X_ij(nu_w) D(mu, nu, a)

    for the underlying partitions mu, nu, with X and D of _chain_factors
    and _degree_factors. So it is (t1+t2) d^(a-1) C, where the scalar C
    never depends on d; two_point_scalars sums these scalars in Fractions
    before building any rational function.
    """
    beta = tuple(beta)
    _check_pair(mu_w, nu_w, len(beta))
    if a < 0:
        return Poly2.zero()
    chain = beta_as_chain(beta)
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
    x = _chain_factors(mu_w, ((i, j),))[0] * _chain_factors(nu_w, ((i, j),))[0]
    degs = _degree_factors(underlying(mu_w), underlying(nu_w), (a,)) if x else ()
    if not degs:
        return Poly2.zero()
    _, num, den = degs[0]
    c = Fraction(x * num, den) * Fraction(d) ** (a - 1)
    return Poly2.linear(c, c)


@memo
def _labellings(mu: Partition, i: int, j: int) -> tuple:
    """The distinct labellings mu_f of the parts of mu by E_i..E_j, each with
    the number of maps f from the parts to i..j that give it.

    A labelling takes one multiset of labels per block of equal parts, so it
    is listed once per choice of one combinations_with_replacement per block,
    in canonical order: blocks by descending part, labels ascending within
    one. Its count is the product of the blocks' multinomials m! / |Aut|.
    """
    labels = [ecurve(e) for e in range(i, j + 1)]
    blocks = []
    for part, run in groupby(mu):
        m = len(tuple(run))
        blocks.append([
            (tuple((part, label) for label in combo), factorial(m) // aut_order(combo))
            for combo in combinations_with_replacement(labels, m)
        ])
    return tuple(
        (tuple(pair for pairs, _ in choice for pair in pairs), prod(count for _, count in choice))
        for choice in product(*blocks)
    )


@memo
def _column_terms(theta: WeightedPartition, mu: Partition, i: int, j: int) -> tuple:
    """The pairs (B, count |Aut B|) for B = theta + mu_f over the distinct
    labellings mu_f of _labellings(mu, i, j), with count the number of maps f
    that give mu_f. Both halves are canonical, so B is their merge under
    pair_key, with no part re-checked."""
    out = []
    for labelled, count in _labellings(mu, i, j):
        b = tuple(sorted(theta + labelled, key=pair_key))
        out.append((b, count * aut_order(b)))
    return tuple(out)


def two_point_column(wp: WeightedPartition, a_values, chains) -> dict:
    """The two-point function of wp as a vector V over weighted partitions,
    {B: ((a, i, j, num, den), ...)} for a in a_values and (i, j) in
    chains, zeros omitted, each value num/den reduced with den > 0. With
    mu_f the parts of mu labelled by f: parts -> i..j,

        V = sum_{(theta, nu) splitting of wp, mu |- |nu|, f}
            X_ij(nu) D(mu, underlying nu, a) prod(mu) |Aut B| / |Aut theta| [B]

    for B = theta + mu_f. On the curves the surface pairing is the
    intersection form, so the dual labels of a piece's other side collapse
    to E_i + ... + E_j, and pairing b with V gives the scalars C of
    two_point_scalars(b, wp): in a basis of whole blocks, V is wp's column
    of G^{-1} T_2.

    The sum runs in integers, numerators over denominators: _column_terms
    gives each B with its integer weight once per (theta, mu, chain), and
    addends over different denominators meet over their lcm.
    """
    a_values, chains = tuple(a_values), tuple(chains)
    acc: dict = {}
    for theta, nu in enumerate_sub_splittings(wp):
        if not nu:  # an empty connected piece contributes nothing
            continue
        xs = _chain_factors(nu, chains)
        if not any(xs):
            continue
        lam = tuple(p for p, _ in nu)  # nu is canonical, so its parts descend
        theta_aut = aut_order(theta)
        for mu in partitions_of(sum(lam)):
            degs = _degree_factors(min(mu, lam), max(mu, lam), a_values)  # D is symmetric
            if not degs:
                continue
            part_product = prod(mu)
            for (i, j), x in zip(chains, xs):
                if not x:
                    continue
                x *= part_product
                addends = [((a, i, j), x * num, theta_aut * den) for a, num, den in degs]
                for b, weight in _column_terms(theta, mu, i, j):
                    values = acc.setdefault(b, {})
                    for key, num, den in addends:
                        num *= weight
                        old_num, old_den = values.get(key, (0, den))
                        if old_den != den:
                            common = lcm(old_den, den)
                            old_num, num = old_num * (common // old_den), num * (common // den)
                            den = common
                        values[key] = old_num + num, den
    out = {}
    for b, values in acc.items():
        terms = []
        for (a, i, j), (num, den) in values.items():
            if num:
                g = gcd(num, den)
                terms.append((a, i, j, num // g, den // g))
        if terms:
            out[b] = tuple(terms)
    return out


def two_point_scalars(
    mu1_w: WeightedPartition,
    mu2_w: WeightedPartition,
    a_values,
    chains,
    r: int,
) -> dict:
    """The scalars C of the module docstring's scalar form, keyed (a, i, j)
    for every a in a_values and every chain (i, j) in chains; zeros omitted.

    C is the pairing of mu1_w with the vector V = two_point_column(mu2_w):
    the sum over B of V[B] times the numerator of pairing(mu1_w, B), read
    from V's integer terms. The pairing is block-diagonal, so only the B
    with mu1_w's underlying partition are paired.
    """
    _check_pair(mu1_w, mu2_w, r)
    if not chains:  # no chain fits the box, so no splitting contributes
        return {}
    block = underlying(mu1_w)
    acc: dict = {}
    for b, terms in two_point_column(mu2_w, a_values, chains).items():
        if underlying(b) != block:
            continue
        pair = pairing(mu1_w, b, r).num.const_value()
        if pair:
            for a, i, j, num, den in terms:
                acc[a, i, j] = acc.get((a, i, j), 0) + pair * num / den
    return {key: c for key, c in acc.items() if c}


def _scalar_invariant(c: Fraction, a: int, d: int, mu_w: WeightedPartition) -> RatFunc2:
    """(t1+t2) d^(a-1) c / (t1 t2)^k, the invariant at degree (a, d*E_{ij})
    of the scalar c of a pair of insertions with k 1-labels each."""
    k = sum(label == ONE for _, label in mu_w)
    c = c * Fraction(d) ** (a - 1)
    return RatFunc2(Poly2.linear(c, c), Poly2.monomial(k, k))


def disconnected_two_point(
    mu1_w: WeightedPartition,
    mu2_w: WeightedPartition,
    a: int,
    beta,
) -> RatFunc2:
    """Disconnected two-point invariant of twisted degree (a, beta) on A_r, r = len(beta).

    It is the pairing of mu1_w with the two-point column of mu2_w, in the
    scalar form of the module docstring, and 0 unless beta is a chain
    d*E_{ij}.
    """
    beta = tuple(beta)
    check_r(len(beta))
    if not any(beta):
        raise OutOfScopeError("degree-zero extended invariants are external table data")
    chain = beta_as_chain(beta)  # a beta that is not a chain still has its inputs checked
    scalars = two_point_scalars(mu1_w, mu2_w, (a,), [chain[:2]] if chain else [], len(beta))
    if not scalars:
        return RatFunc2.zero()
    return _scalar_invariant(scalars[(a, *chain[:2])], a, chain[2], mu1_w)


def two_point_series(
    mu1_w: WeightedPartition,
    mu2_w: WeightedPartition,
    u_order: int,
    s_orders,
) -> TruncSeries:
    """Truncated two-point function over nonzero degrees only, on A_r with r = len(s_orders).

    Sums disconnected invariants times u^a s^(curve exponents) over all
    a <= u_order and all chains d*E_{ij} whose exponent vector fits the
    s-truncation box. The beta = 0 column is intentionally absent.
    """
    s_orders = tuple(checked_int(s, "an s-order") for s in s_orders)
    chains = chain_degrees(s_orders)
    a_values = range(checked_int(u_order, "u_order") + 1)
    scalars = two_point_scalars(mu1_w, mu2_w, a_values, tuple(chains), len(s_orders))
    coeffs = {
        (a, ds): _scalar_invariant(c, a, d, mu1_w)
        for (a, i, j), c in scalars.items()
        for d, ds in chains[i, j]
    }
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

    def __init__(self, entries=()):
        """A table from what dict() takes: a mapping or an iterable of
        ((left, divisor, right), pairs). This is the one place a table is
        checked: a bad key, a u-exponent that is not an int >= 0 (booleans
        excluded) or appears twice, a key given twice in any spelling, and
        mirror keys (l, D, r), (r, D, l) whose series differ (one would go
        unread) raise MalformedInputError.
        """
        checked: dict[tuple[str, str, str], tuple] = {}
        for key, pairs in entries.items() if hasattr(entries, "items") else entries:
            left, divisor, right = key
            if not (isinstance(divisor, str) and _TABLE_DIVISOR_RE.fullmatch(divisor)):
                raise MalformedInputError(f'table divisor {divisor!r} is neither "1" nor D<l>')
            try:
                canonical = (wp_to_text(parse_wp(left)), divisor, wp_to_text(parse_wp(right)))
            except (AttributeError, ValueError) as exc:  # AttributeError: not a string
                raise MalformedInputError(f"table key: {exc}") from None
            series = {}
            for a, v in pairs:
                if isinstance(a, bool) or not isinstance(a, int) or a < 0:
                    raise MalformedInputError(f"series exponent {a!r} is not an integer >= 0")
                if a in series:
                    raise MalformedInputError(f"series exponent {a} appears twice")
                series[a] = RatFunc2.lift(v)
            if canonical in checked:
                raise MalformedInputError(f"malformed degree-zero table: the key {key} appears twice")
            checked[canonical] = tuple(series.items())
        for key, series in checked.items():
            if dict(checked.get(key[::-1], series)) != dict(series):
                raise MalformedInputError(
                    f"degree-zero table keys {key} and {key[::-1]} hold different series")
        self._entries = MappingProxyType(checked)

    @property
    def entries(self) -> MappingProxyType:  # read-only, and never reassigned
        return self._entries

    def get(self, left_wp: WeightedPartition, divisor: str, right_wp: WeightedPartition):
        """Coefficient list for a key, trying both outer orders; None if absent."""
        left, right = wp_to_text(left_wp), wp_to_text(right_wp)
        return self._entries.get((left, divisor, right), self._entries.get((right, divisor, left)))

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
        """Table from its JSON form; a schema violation raises MalformedInputError,
        and the constructor checks the items, a repeated key included."""
        try:
            items = [
                ((item["left"], item["divisor"], item["right"]), useries_from_json(item["series"]))
                for item in payload["entries"]
            ]
        except KeyError as exc:
            raise MalformedInputError(f"degree-zero table lacks the field {exc}") from None
        except (AttributeError, TypeError, ValueError) as exc:
            raise MalformedInputError(f"malformed degree-zero table: {exc}") from None
        return cls(items)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> ZeroDegreeTable:
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


def _embed_useries(pairs, u_order: int, s_orders: tuple) -> TruncSeries:
    zeros = (0,) * len(s_orders)
    coeffs = {(a, zeros): v for a, v in pairs if a <= u_order and not v.is_zero()}
    return TruncSeries(u_order, s_orders, coeffs)


@dataclass
class ThreePointResult:
    series: TruncSeries
    missing_key: tuple | None = None

    @property
    def gap(self) -> bool:
        return self.missing_key is not None


def three_point_divisor_series(
    alpha1_w: WeightedPartition,
    divisor: str,
    alpha2_w: WeightedPartition,
    u_order: int,
    s_orders,
    table: ZeroDegreeTable | None = None,
) -> ThreePointResult:
    """Three-point function with one divisor insertion, via divisor equations; r = len(s_orders).

    divisor is "(2)" or "D<l>". The beta != 0 part never consults the
    table; the beta = 0 part is table data, read by one lookup in the slot
    "1" for "(2)" (then d/du of that two-point entry) and in the slot D<l>
    for "D<l>" (the s = 0 boundary entry). An absent entry is named by
    missing_key, and the result is then a gap.
    """
    s_orders = tuple(s_orders)
    check_r(len(s_orders))
    checked_int(u_order, "u_order")  # "(2)" passes on u_order + 1, an int even for True
    ell = divisor_index(divisor, len(s_orders))
    slot = divisor if ell else TWO_POINT_MARKER
    pairs = table.get(alpha1_w, slot, alpha2_w) if table else None
    if ell:
        base = two_point_series(alpha1_w, alpha2_w, u_order, s_orders).s_scale_d(ell)
    else:
        # compute one u-order higher so the derivative is exact at u_order
        base = two_point_series(alpha1_w, alpha2_w, u_order + 1, s_orders).d_du()
        if pairs is not None:
            pairs = tuple((a - 1, v * a) for a, v in pairs if 1 <= a <= u_order + 1)
    if pairs is None:
        key = (wp_to_text(alpha1_w), slot, wp_to_text(alpha2_w))
        return ThreePointResult(base, missing_key=key)
    return ThreePointResult(base + _embed_useries(pairs, u_order, s_orders))
