"""Truncated power series in u and s_1..s_r with RatFunc2 coefficients.

Truncation is a per-variable box: coefficients are kept for u-exponent
a <= u_order and s_k-exponent d_k <= s_orders[k]. Box truncation commutes
with ring operations, so products of truncations agree with truncations
of full products.

Exponents are nonnegative: a key with a negative exponent raises
ShapeError, and a coefficient that RatFunc2.lift does not take raises
TypeError. An int or Fraction on either side of +, -, * and ==, or
divided by a series, is the constant series of that series' shape, so a
GaussRational can hold series parts next to rational ones; a series of
another shape raises ShapeError, and a Poly2 or RatFunc2 operand of +, -
or * raises TypeError.

The working state is an integer form per coefficient. A per-shape table
packs each in-box key (a, ds) into one int, u most significant and each
s_k field of radix 2*s_k + 1: the sum of two in-box keys then carries out
of no field, and a difference with a negative field has no in-box
packing, so one dict from packed int to key is both the box test and the
unpacking. Under its packed key a coefficient is (den, lcd, {monomial:
n}), the value sum n * monomial / (lcd * den), with den a canonical
denominator or None for 1, and lcd > 0 coprime to the gcd of the n. The
form of a value is unique, so ==, hash, is_zero and a comparison with a
scalar can read the forms. coeffs, the read-only mapping from key to
canonical RatFunc2, is built from the forms when it is first read and
then kept; a series built from RatFunc2 values (the constructor, _wrap)
holds only that mapping and derives its forms on its first ring
operation.

Every ring operation reads and writes forms. Over denominator 1 a sum is
an integer merge over the lcm of the two lcds, negation and a rational
scale act on the integers, and each result is reduced by the gcd of its
integers and lcd. Products, linear combinations and the inverse share one
integer accumulator: products are summed in ints per (packed key,
denominator product), a group rescaled by an lcm when it meets a new lcd.
A coefficient over any other denominator is canonicalised through
RatFunc2 (a polynomial gcd) once, when the operation ends. Ring
operations over denominator 1 thus run no Fraction arithmetic and build
no RatFunc2.

The inverse is one triangular recursion over the box, not a sum of powers:
with c0 the constant term, b_0 = 1/c0, and each other key k, taken in
increasing total degree, is b_k = sum over j != 0, j <= k of (-a_j/c0) *
b_(k-j). The steps -a_j/c0 are written in integers once, and each b_k is
reduced once and keeps its form for the keys after it. The inverse of a
constant series is 1/c0, with no pass over the box. The box is a monomial
quotient, so the inverse is unique.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, lcm
from types import MappingProxyType

from ..errors import EmptyOrderError, ShapeError
from ..memo import memo
from ..partitions import checked_int
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
    """The form (den, lcd, {mono: n}) of a canonical f: f = sum n * mono /
    (lcd * den), lcd the lcm of the numerator's coefficient denominators;
    den is None for 1."""
    den = None if f.den.is_const() else f.den
    terms = f.num.terms
    if len(terms) == 1:
        ((mono, c),) = terms.items()
        return den, c.denominator, {mono: c.numerator}
    lcd = lcm(*(c.denominator for c in terms.values()))
    return den, lcd, {mono: c.numerator * (lcd // c.denominator) for mono, c in terms.items()}


def _ratfunc(form: tuple) -> RatFunc2:
    """The canonical RatFunc2 of a reduced form."""
    den, lcd, terms = form
    if lcd == 1:
        num = _poly({mono: Fraction(n) for mono, n in terms.items()})
    else:
        num = _poly({mono: Fraction(n, lcd) for mono, n in terms.items()})
    return _canonical(num, Poly2.one() if den is None else den)


def _reduced(den, lcd: int, acc: dict) -> tuple | None:
    """The form (den, lcd, acc) with its zero terms dropped and lcd coprime
    to the gcd of the rest; None when no term is left."""
    terms = {mono: n for mono, n in acc.items() if n}
    if not terms:
        return None
    if lcd != 1:
        g = gcd(lcd, *terms.values())
        if g != 1:
            lcd //= g
            terms = {mono: n // g for mono, n in terms.items()}
    return den, lcd, terms


def _scaled(form: tuple, num: int, den: int = 1) -> tuple:
    """form * num / den for nonzero ints: a canonical value times a nonzero
    rational keeps its denominator, so the integers carry the factor."""
    d, lcd, terms = form
    return _reduced(d, lcd * den, {mono: n * num for mono, n in terms.items()})


def _sum(f: tuple, g: tuple, negate: bool) -> tuple | None:
    """The form of f - g if negate else f + g; None for zero."""
    (df, lf, tf), (dg, lg, tg) = f, g
    if df is not None or dg is not None:
        x, y = _ratfunc(f), _ratfunc(g)
        s = x - y if negate else x + y
        return None if s.is_zero() else _int_form(s)
    lcd = lf if lf == lg else lcm(lf, lg)
    uf, ug = lcd // lf, lcd // lg
    if negate:
        ug = -ug
    acc = dict(tf) if uf == 1 else {mono: n * uf for mono, n in tf.items()}
    for mono, n in tg.items():
        acc[mono] = acc.get(mono, 0) + n * ug
    return _reduced(None, lcd, acc)


def _inverse(form: tuple) -> tuple:
    """The form of 1/f for a nonzero f: a rational constant in ints, any
    other value through RatFunc2."""
    den, lcd, terms = form
    if den is None and terms.keys() == {(0, 0)}:
        n = terms[(0, 0)]
        return None, abs(n), {(0, 0): lcd if n > 0 else -lcd}
    return _int_form(_ratfunc(form).inverse())


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
        tg = tg.items()
        for (a1, a2), x in tf.items():
            x *= up
            for (b1, b2), y in tg:
                mono = (a1 + b1, a2 + b2)
                acc[mono] = acc.get(mono, 0) + x * y


def _collect(groups: dict) -> dict:
    """packed key -> the form of the sum of its groups; zero sums are left
    out. A group over denominator 1 is reduced in ints; a key with a group
    over any other denominator is canonicalised through RatFunc2."""
    out: dict = {}
    other: dict = {}  # packed key -> sum of its groups over other denominators
    for (packed, den), (lcd, acc) in groups.items():
        if den is None:
            form = _reduced(None, lcd, acc)
            if form is not None:
                out[packed] = form
            continue
        terms = {mono: Fraction(n, lcd) for mono, n in acc.items() if n}
        if terms:
            f = RatFunc2(_poly(terms), den)
            prev = other.get(packed)
            other[packed] = f if prev is None else prev + f
    for packed, f in other.items():
        form = out.get(packed)
        if form is not None:
            f = f + _ratfunc(form)
        if f.is_zero():
            out.pop(packed, None)
        else:
            out[packed] = _int_form(f)
    return out


def _series(u_order: int, s_orders: tuple, forms: dict | None, coeffs=None) -> TruncSeries:
    """A series of a checked shape from its forms or its read-only coeffs."""
    out = object.__new__(TruncSeries)
    out.u_order, out.s_orders, out._forms, out._coeffs = u_order, s_orders, forms, coeffs
    return out


def _forms_of(s: TruncSeries) -> dict:
    """The forms of s: its own, or a new dict derived from its coeffs."""
    if s._forms is not None:
        return s._forms
    pack = _box(s.u_order, s.s_orders)[1]
    return {pack[key]: _int_form(c) for key, c in s._coeffs.items()}


class TruncSeries:
    __slots__ = ("u_order", "s_orders", "_forms", "_coeffs")

    def __init__(self, u_order: int, s_orders, coeffs: dict[Key, RatFunc2] | None = None):
        self.u_order = checked_int(u_order, "u_order")
        self.s_orders = tuple(checked_int(d, "an s-order") for d in s_orders)
        if u_order < 0 or any(d < 0 for d in self.s_orders):
            raise ShapeError("truncation orders must be nonnegative")
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
                try:
                    c = RatFunc2.lift(c)
                except TypeError:
                    raise TypeError(
                        f"coefficient at key {(a, ds)} is a {type(c).__name__},"
                        " not a rational function"
                    ) from None
                if not c.is_zero():
                    clean[(a, ds)] = c
        self._forms = None
        self._coeffs = MappingProxyType(clean)

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

    @property
    def coeffs(self) -> MappingProxyType:
        """Read-only key -> canonical RatFunc2 of the nonzero coefficients."""
        if self._coeffs is None:
            unpack = _box(self.u_order, self.s_orders)[0]
            self._coeffs = MappingProxyType(
                {unpack[packed]: _ratfunc(form) for packed, form in self._forms.items()}
            )
        return self._coeffs

    def _int_forms(self) -> dict:
        """packed key -> form of the nonzero coefficients; never changed."""
        if self._forms is None:
            self._forms = _forms_of(self)
        return self._forms

    def shape(self) -> tuple[int, tuple[int, ...]]:
        return (self.u_order, self.s_orders)

    def is_zero(self) -> bool:
        return not (self._coeffs if self._forms is None else self._forms)

    def coefficient(self, a: int, ds) -> RatFunc2:
        """The coefficient at one key; built alone while coeffs is unread."""
        key = (a, tuple(ds))
        if self._coeffs is not None:
            return self._coeffs.get(key, RatFunc2.zero())
        form = self._forms.get(_box(self.u_order, self.s_orders)[1].get(key))
        return RatFunc2.zero() if form is None else _ratfunc(form)

    def constant_term(self) -> RatFunc2:
        return self.coefficient(0, (0,) * len(self.s_orders))

    def monomials(self):
        """Sorted (a, ds, coefficient) triples."""
        coeffs = self.coeffs
        for key in sorted(coeffs):
            yield key[0], key[1], coeffs[key]

    def _with_forms(self, forms: dict) -> TruncSeries:
        return _series(self.u_order, self.s_orders, forms)

    def _lift(self, other):
        """An int or Fraction as a constant series of this shape; anything else as is."""
        if isinstance(other, (int, Fraction)):
            num, den = other.as_integer_ratio()
            return self._with_forms({0: (None, den, {(0, 0): num})} if num else {})
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
        out = dict(self._int_forms())
        for packed, g in other._int_forms().items():
            f = out.get(packed)
            if f is None:
                out[packed] = _scaled(g, -1) if negate else g
                continue
            s = _sum(f, g, negate)
            if s is None:
                del out[packed]
            else:
                out[packed] = s
        return self._with_forms(out)

    def __add__(self, other) -> TruncSeries:
        return self._merged(other, False)

    __radd__ = __add__

    def __neg__(self) -> TruncSeries:
        return self._with_forms({k: _scaled(f, -1) for k, f in self._int_forms().items()})

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
        unpack = _box(self.u_order, self.s_orders)[0]
        mine = list(self._int_forms().items())
        theirs = list(other._int_forms().items())
        groups: dict = {}
        _accumulate(groups, {}, (
            (p + q, f, g) for p, f in mine for q, g in theirs if p + q in unpack
        ))
        return self._with_forms(_collect(groups))

    __rmul__ = __mul__

    def __rtruediv__(self, other) -> TruncSeries:
        return self.inverse() * other

    @classmethod
    def lincomb(cls, pairs, u_order: int, s_orders) -> TruncSeries:
        """The sum of c * s over (c, s) pairs: a factor c that RatFunc2.lift
        takes (a RatFunc2, Poly2, int or Fraction), series s of the given shape."""
        out = cls.zero(u_order, s_orders)
        groups: dict = {}
        dens: dict = {}
        for c, s in pairs:
            out._check_shape(s)
            try:
                c = RatFunc2.lift(c)
            except TypeError:
                raise TypeError(
                    f"lincomb factor {c!r} is a {type(c).__name__}, not a rational function"
                ) from None
            if c.is_zero():
                continue
            form = _int_form(c)
            _accumulate(groups, dens, ((p, form, g) for p, g in s._int_forms().items()))
        return out._with_forms(_collect(groups))

    def scale(self, value) -> TruncSeries:
        if not isinstance(value, (int, Fraction)):
            c = RatFunc2.lift(value)
            if not c.is_const():
                return self * TruncSeries.const(c, self.u_order, self.s_orders)
            value = c.num.const_value()
        if not value:
            return self._with_forms({})
        num, den = value.as_integer_ratio()
        return self._with_forms({k: _scaled(f, num, den) for k, f in self._int_forms().items()})

    def inverse(self) -> TruncSeries:
        """Multiplicative inverse; requires an invertible constant term.

        One triangular recursion over the box: with c0 the constant term
        and a_j the other coefficients, b_0 = 1/c0 and, in increasing total
        degree u + sum(d), b_k = sum over j != 0, j <= k of (-a_j/c0) *
        b_(k-j). Each key's sum is accumulated in ints and reduced once. A
        constant series makes no pass over the box.
        """
        forms = self._int_forms()
        c0 = forms.get(0)
        if c0 is None:
            raise ZeroDivisionError("series has no invertible constant term")
        out = {0: _inverse(c0)}  # packed k -> form of b_k
        if len(forms) == 1:
            return self._with_forms(out)
        groups: dict = {}
        minus_inv_c0 = _scaled(out[0], -1)
        _accumulate(groups, {}, ((j, f, minus_inv_c0) for j, f in forms.items() if j))
        steps = list(_collect(groups).items())
        dens: dict = {}
        for k in _box(self.u_order, self.s_orders)[2]:
            groups = {}
            # k - j has a negative field, and so no form, unless j <= k
            _accumulate(groups, dens, ((k, f, out[k - j]) for j, f in steps if k - j in out))
            out.update(_collect(groups))
        return self._with_forms(out)

    def __eq__(self, other) -> bool:
        other = self._lift(other)
        if not isinstance(other, TruncSeries) or self.shape() != other.shape():
            return False
        return _forms_of(self) == _forms_of(other)  # a comparison keeps no forms

    def __hash__(self) -> int:
        forms = _forms_of(self)
        if forms.keys() <= {0}:
            # a constant series equals its int or Fraction, so it hashes as that
            return hash(_ratfunc(forms[0])) if forms else 0
        return hash((self.shape(), frozenset(
            (packed, den, lcd, frozenset(terms.items()))
            for packed, (den, lcd, terms) in forms.items()
        )))

    # -- calculus ----------------------------------------------------------------------

    def d_du(self) -> TruncSeries:
        """d/du; the result carries u_order - 1 (the top coefficient is lost)."""
        if self.u_order == 0:
            raise EmptyOrderError("cannot differentiate a series truncated at u^0")
        unpack = _box(self.u_order, self.s_orders)[0]
        pack = _box(self.u_order - 1, self.s_orders)[1]
        out = {}
        for packed, f in self._int_forms().items():
            a, ds = unpack[packed]
            if a:
                out[pack[(a - 1, ds)]] = _scaled(f, a)
        return _series(self.u_order - 1, self.s_orders, out)

    def s_scale_d(self, ell: int) -> TruncSeries:
        """The degree-preserving operator s_ell * d/d(s_ell); ell is 1-based."""
        if not 1 <= ell <= len(self.s_orders):
            raise IndexError(f"s-index {ell} out of range 1..{len(self.s_orders)}")
        unpack = _box(self.u_order, self.s_orders)[0]
        out = {}
        for packed, f in self._int_forms().items():
            d = unpack[packed][1][ell - 1]
            if d:
                out[packed] = _scaled(f, d)
        return self._with_forms(out)

    def _wrap(self, coeffs: dict[Key, RatFunc2]) -> TruncSeries:
        """A series of this shape holding coeffs, nonzero RatFunc2 values at
        in-box keys, as they are; the caller gives coeffs up."""
        return _series(self.u_order, self.s_orders, None, MappingProxyType(coeffs))

    def __str__(self) -> str:
        if self.is_zero():
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
