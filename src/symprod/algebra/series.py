"""Truncated power series in u and s_1..s_r with RatFunc2 coefficients.

Truncation is a per-variable box: coefficients are kept for u-exponent
a <= u_order and s_k-exponent d_k <= s_orders[k]. Box truncation commutes
with ring operations, so products of truncations agree with truncations
of full products.

Exponents are nonnegative: a key with a negative exponent raises
ShapeError. An int or Fraction on either side of +, -, * and ==, or
divided by a series, is the constant series of that series' shape (as
RatFunc2.lift lifts rationals), so a GaussRational can hold series parts
next to rational ones; a series of another shape raises ShapeError, and a
Poly2 or RatFunc2 operand of +, - or * raises TypeError. + and - are one
merge, one pass over the second operand's keys that builds no negated series.

Products, linear combinations and the inverse share one integer
accumulator. A per-shape table packs each in-box key (a, ds) into one
int, u most significant and each s_k field of radix 2*s_k + 1: the sum of
two in-box keys then carries out of no field, and a difference with a
negative field has no in-box packing, so one dict from packed int to key
is both the box test and the unpacking. Each operand coefficient is
written once per call as (packed key, denominator, lcd, integer
numerator terms over lcd); products are summed in ints per (packed key,
denominator product), a group rescaled by an lcm when it meets a new lcd.
Each group makes one Fraction per output t-term and one RatFunc2, and the
groups that share a key are then added. A product of two series over
denominator 1 thus runs no Fraction arithmetic.

The inverse is one triangular recursion over the box, not a sum of powers:
with c0 the constant term, b_0 = 1/c0, and each other key k, taken in
increasing total degree, is b_k = sum over j != 0, j <= k of (-a_j/c0) *
b_(k-j). The steps -a_j/c0 are written in integers once, and each b_k is
canonicalised once and keeps its integer form for the keys after it. The
box is a monomial quotient, so the inverse is unique.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm

from ..errors import EmptyOrderError, ShapeError
from ..memo import memo
from .poly import Poly2, _poly
from .ratfunc import RatFunc2, _canonical

Key = tuple[int, tuple[int, ...]]


@memo
def _box(u_order: int, s_orders: tuple[int, ...]) -> tuple:
    """(packed -> key, key -> packed, the packed keys but 0 in increasing
    total degree) of one shape; a key packs u-major, each s_k field of radix
    2*s_k + 1."""
    unpack, pack = {}, {}
    ranges = [range(u_order + 1)] + [range(d + 1) for d in s_orders]
    for a, *ds in sorted(product(*ranges), key=sum):
        packed = a
        for d, dmax in zip(ds, s_orders):
            packed = packed * (2 * dmax + 1) + d
        key = (a, tuple(ds))
        unpack[packed] = key
        pack[key] = packed
    return unpack, pack, tuple(unpack)[1:]  # [0] is the constant key


def _int_form(f: RatFunc2) -> tuple:
    """(den, lcd, [(mono, n)]) with f = sum n * mono / (lcd * den), lcd the
    lcm of the numerator's coefficient denominators; den is None for 1."""
    den = None if f.den.is_const() else f.den
    terms = f.num.terms
    if len(terms) == 1:
        ((mono, c),) = terms.items()
        return den, c.denominator, [(mono, c.numerator)]
    lcd = lcm(*(c.denominator for c in terms.values()))
    return den, lcd, [(mono, c.numerator * (lcd // c.denominator)) for mono, c in terms.items()]


def _accumulate(groups: dict, dens: dict, pairs) -> None:
    """Add f * g into groups[(packed key, den)] = [lcd, {mono: n}] for each
    (packed key, form of f, form of g) in pairs, in ints over the group's lcd."""
    for packed, (df, lf, tf), (dg, lg, tg) in pairs:
        if df is None:
            den = dg
        elif dg is None:
            den = df
        else:
            den = dens.get((df, dg))
            if den is None:
                den = dens[(df, dg)] = df * dg
        pair_lcd = lf * lg
        group = groups.get((packed, den))
        if group is None:
            groups[(packed, den)] = group = [pair_lcd, {}]
        elif group[0] % pair_lcd:
            new = lcm(group[0], pair_lcd)
            up = new // group[0]
            acc = group[1]
            for mono in acc:
                acc[mono] *= up
            group[0] = new
        acc = group[1]
        up = group[0] // pair_lcd
        for (a1, a2), x in tf:
            x *= up
            for (b1, b2), y in tg:
                mono = (a1 + b1, a2 + b2)
                acc[mono] = acc.get(mono, 0) + x * y


def _collect(groups: dict, unpack: dict) -> dict:
    """key -> the sum of the values of its groups; zero sums are left out."""
    out: dict = {}
    for (packed, den), (lcd, acc) in groups.items():
        if lcd == 1:
            terms = {mono: Fraction(n) for mono, n in acc.items() if n}
        else:
            terms = {mono: Fraction(n, lcd) for mono, n in acc.items() if n}
        if not terms:
            continue
        num = _poly(terms)
        f = _canonical(num, Poly2.one()) if den is None else RatFunc2(num, den)
        key = unpack[packed]
        prev = out.get(key)
        if prev is not None:
            f = prev + f
            if f.is_zero():
                del out[key]
                continue
        out[key] = f
    return out


class TruncSeries:
    __slots__ = ("u_order", "s_orders", "coeffs")

    def __init__(self, u_order: int, s_orders, coeffs: dict[Key, RatFunc2] | None = None):
        if u_order < 0 or any(d < 0 for d in s_orders):
            raise ShapeError("truncation orders must be nonnegative")
        self.u_order = int(u_order)
        self.s_orders = tuple(int(d) for d in s_orders)
        clean: dict[Key, RatFunc2] = {}
        if coeffs:
            for (a, ds), c in coeffs.items():
                ds = tuple(ds)
                if len(ds) != len(self.s_orders):
                    raise ShapeError("s-exponent tuple has wrong length")
                if a < 0 or any(d < 0 for d in ds):
                    raise ShapeError(f"negative exponent in key {(a, ds)}")
                if a > self.u_order or any(d > dmax for d, dmax in zip(ds, self.s_orders)):
                    continue
                if not c.is_zero():
                    clean[(a, ds)] = c
        self.coeffs = clean

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, u_order: int, s_orders) -> TruncSeries:
        return cls(u_order, s_orders)

    @classmethod
    def one(cls, u_order: int, s_orders) -> TruncSeries:
        zeros = (0,) * len(tuple(s_orders))
        return cls(u_order, s_orders, {(0, zeros): RatFunc2.one()})

    @classmethod
    def const(cls, value, u_order: int, s_orders) -> TruncSeries:
        zeros = (0,) * len(tuple(s_orders))
        return cls(u_order, s_orders, {(0, zeros): RatFunc2.lift(value)})

    @classmethod
    def monomial(cls, a: int, ds, value, u_order: int, s_orders) -> TruncSeries:
        return cls(u_order, s_orders, {(a, tuple(ds)): RatFunc2.lift(value)})

    # -- queries ------------------------------------------------------------------

    def shape(self) -> tuple[int, tuple[int, ...]]:
        return (self.u_order, self.s_orders)

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, a: int, ds) -> RatFunc2:
        return self.coeffs.get((a, tuple(ds)), RatFunc2.zero())

    def constant_term(self) -> RatFunc2:
        return self.coefficient(0, (0,) * len(self.s_orders))

    def monomials(self):
        """Sorted (a, ds, coefficient) triples."""
        for key in sorted(self.coeffs):
            yield key[0], key[1], self.coeffs[key]

    def _lift(self, other):
        """An int or Fraction as a constant series of this shape; anything else as is."""
        if isinstance(other, (int, Fraction)):
            return TruncSeries.const(other, self.u_order, self.s_orders)
        return other

    def _check_shape(self, other: TruncSeries) -> None:
        if self.shape() != other.shape():
            raise ShapeError(
                f"truncation orders differ: {self.shape()} vs {other.shape()}"
            )

    # -- ring operations -------------------------------------------------------------

    def _merged(self, other, negate: bool) -> TruncSeries:
        """self - other if negate else self + other, in one pass over other."""
        other = self._lift(other)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._check_shape(other)
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            s = out.get(key)
            if negate:
                s = -c if s is None else s - c
            else:
                s = c if s is None else s + c
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
        return self._wrap(out)

    def __add__(self, other) -> TruncSeries:
        return self._merged(other, False)

    __radd__ = __add__

    def __neg__(self) -> TruncSeries:
        return self._wrap({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other) -> TruncSeries:
        return self._merged(other, True)

    def __rsub__(self, other) -> TruncSeries:
        other = self._lift(other)
        return other._merged(self, True) if isinstance(other, TruncSeries) else NotImplemented

    def __mul__(self, other) -> TruncSeries:
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._check_shape(other)
        unpack, pack, _ = _box(self.u_order, self.s_orders)
        mine = [(pack[key], _int_form(c)) for key, c in self.coeffs.items()]
        theirs = [(pack[key], _int_form(c)) for key, c in other.coeffs.items()]
        groups: dict = {}
        _accumulate(groups, {}, (
            (p + q, f, g) for p, f in mine for q, g in theirs if p + q in unpack
        ))
        return self._wrap(_collect(groups, unpack))

    __rmul__ = __mul__

    def __rtruediv__(self, other) -> TruncSeries:
        return self.inverse() * other

    @classmethod
    def lincomb(cls, pairs, u_order: int, s_orders) -> TruncSeries:
        """The sum of c * s over (c, s) pairs: RatFunc2 c, series s of the given shape."""
        out = cls.zero(u_order, s_orders)
        unpack, pack, _ = _box(out.u_order, out.s_orders)
        groups: dict = {}
        dens: dict = {}
        for c, s in pairs:
            out._check_shape(s)
            if c.is_zero():
                continue
            form = _int_form(c)
            _accumulate(groups, dens, (
                (pack[key], form, _int_form(v)) for key, v in s.coeffs.items()
            ))
        out.coeffs = _collect(groups, unpack)
        return out

    def scale(self, value) -> TruncSeries:
        c = RatFunc2.lift(value)
        if c.is_zero():
            return TruncSeries(self.u_order, self.s_orders)
        return self._wrap({k: v * c for k, v in self.coeffs.items()})

    def inverse(self) -> TruncSeries:
        """Multiplicative inverse; requires an invertible constant term.

        One triangular recursion over the box: with c0 the constant term
        and a_j the other coefficients, b_0 = 1/c0 and, in increasing total
        degree u + sum(d), b_k = sum over j != 0, j <= k of (-a_j/c0) *
        b_(k-j). Each key's sum is accumulated in ints and canonicalised once.
        """
        c0 = self.constant_term()
        if c0.is_zero():
            raise ZeroDivisionError("series has no invertible constant term")
        unpack, pack, order = _box(self.u_order, self.s_orders)
        inv_c0 = c0.inverse()
        minus_inv_c0 = -inv_c0
        steps = [
            (pack[key], _int_form(c * minus_inv_c0)) for key, c in self.coeffs.items() if pack[key]
        ]
        out = {unpack[0]: inv_c0}
        forms = {0: _int_form(inv_c0)}  # packed k -> integer form of b_k
        dens: dict = {}
        for k in order:
            groups: dict = {}
            # k - j has a negative field, and so no integer form, unless j <= k
            _accumulate(groups, dens, (
                (k, f, forms[k - j]) for j, f in steps if k - j in forms
            ))
            for key, b in _collect(groups, unpack).items():  # key is unpack[k]
                out[key] = b
                forms[k] = _int_form(b)
        return self._wrap(out)

    def __eq__(self, other) -> bool:
        other = self._lift(other)
        return (
            isinstance(other, TruncSeries)
            and self.shape() == other.shape()
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        if self.coeffs.keys() <= {(0, (0,) * len(self.s_orders))}:
            # a constant series equals its int or Fraction, so it hashes as that
            return hash(self.constant_term())
        return hash((self.shape(), tuple(sorted(self.coeffs.items()))))

    # -- calculus ----------------------------------------------------------------------

    def d_du(self) -> TruncSeries:
        """d/du; the result carries u_order - 1 (the top coefficient is lost)."""
        if self.u_order == 0:
            raise EmptyOrderError("cannot differentiate a series truncated at u^0")
        out: dict[Key, RatFunc2] = {}
        for (a, ds), c in self.coeffs.items():
            if a >= 1:
                out[(a - 1, ds)] = c * a
        return TruncSeries(self.u_order - 1, self.s_orders, out)

    def s_scale_d(self, ell: int) -> TruncSeries:
        """The degree-preserving operator s_ell * d/d(s_ell); ell is 1-based."""
        if not 1 <= ell <= len(self.s_orders):
            raise IndexError(f"s-index {ell} out of range 1..{len(self.s_orders)}")
        out: dict[Key, RatFunc2] = {}
        for (a, ds), c in self.coeffs.items():
            d = ds[ell - 1]
            if d:
                out[(a, ds)] = c * d
        return self._wrap(out)

    def _wrap(self, coeffs: dict[Key, RatFunc2]) -> TruncSeries:
        out = TruncSeries.__new__(TruncSeries)
        out.u_order = self.u_order
        out.s_orders = self.s_orders
        out.coeffs = coeffs
        return out

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        chunks = []
        for a, ds, c in self.monomials():
            mono = []
            if a:
                mono.append("u" if a == 1 else f"u^{a}")
            for k, d in enumerate(ds, start=1):
                if d:
                    mono.append(f"s{k}" if d == 1 else f"s{k}^{d}")
            body = "*".join(mono) if mono else "1"
            chunks.append(f"({c})*{body}")
        return " + ".join(chunks)

    def __repr__(self) -> str:
        return f"TruncSeries(u_order={self.u_order}, s_orders={self.s_orders}, {self})"

