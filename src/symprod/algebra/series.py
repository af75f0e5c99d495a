"""Truncated power series in u and s_1..s_r with RatFunc2 coefficients.

Truncation is a per-variable box: coefficients are kept for u-exponent
a <= u_order and s_k-exponent d_k <= s_orders[k]. Box truncation commutes
with ring operations, so products of truncations agree with truncations
of full products.

Exponents are nonnegative: a key with a negative exponent raises
ShapeError. An int or Fraction on either side of +, -, * and ==, or
divided by a series, is the constant series of that series' shape (as
RatFunc2.lift lifts rationals), so a GaussRational can hold series parts
next to rational ones; a series of another shape raises ShapeError.

Products and linear combinations accumulate first and canonicalise once:
the terms that land on one key are summed as numerators over their common
denominator (ratfunc._sum_products), and only those sums become RatFunc2
values, rather than one canonical RatFunc2 per term product.

The inverse is one triangular recursion over the box, not a sum of powers:
with c0 the constant term, b_0 = 1/c0, and each other key k, taken in
increasing total degree, is b_k = sum over j != 0, j <= k of (-a_j/c0) *
b_(k-j), one _sum_products call per key. The box is a monomial quotient, so
the inverse is unique and each key is canonicalised once.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from ..errors import EmptyOrderError, ShapeError
from .ratfunc import RatFunc2, _sum_products

Key = tuple[int, tuple[int, ...]]


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

    def __add__(self, other) -> TruncSeries:
        other = self._lift(other)
        self._check_shape(other)
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            s = out.get(key)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
        return self._wrap(out)

    __radd__ = __add__

    def __neg__(self) -> TruncSeries:
        return self._wrap({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other) -> TruncSeries:
        return self + (-other)

    def __rsub__(self, other) -> TruncSeries:
        return -self + other

    def __mul__(self, other) -> TruncSeries:
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_shape(other)
        return self._wrap(_sum_products(self._product_terms(other)))

    __rmul__ = __mul__

    def __rtruediv__(self, other) -> TruncSeries:
        return self.inverse() * other

    def _product_terms(self, other: TruncSeries):
        """(key, c1, c2) for every pair of terms whose product is inside the box."""
        umax, smax = self.u_order, self.s_orders
        for (a1, d1), c1 in self.coeffs.items():
            for (a2, d2), c2 in other.coeffs.items():
                a = a1 + a2
                if a > umax:
                    continue
                ds = tuple(x + y for x, y in zip(d1, d2))
                if any(d > dmax for d, dmax in zip(ds, smax)):
                    continue
                yield (a, ds), c1, c2

    @classmethod
    def lincomb(cls, pairs, u_order: int, s_orders) -> TruncSeries:
        """The sum of c * s over (c, s) pairs: RatFunc2 c, series s of the given shape."""
        out = cls.zero(u_order, s_orders)
        terms = []
        for c, s in pairs:
            out._check_shape(s)
            terms.extend((key, c, v) for key, v in s.coeffs.items())
        out.coeffs = _sum_products(terms)
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
        b_(k-j). Each key's sum is accumulated and canonicalised once.
        """
        c0 = self.constant_term()
        if c0.is_zero():
            raise ZeroDivisionError("series has no invertible constant term")
        inv_c0 = c0.inverse()
        minus_inv_c0 = -inv_c0
        steps = [(a, ds, c * minus_inv_c0) for (a, ds), c in self.coeffs.items() if a or any(ds)]
        out = {(0, (0,) * len(self.s_orders)): inv_c0}
        ranges = [range(self.u_order + 1)] + [range(d + 1) for d in self.s_orders]
        for a, *ds in sorted(product(*ranges), key=sum)[1:]:  # [0] is the constant key
            key = (a, tuple(ds))
            terms = []
            for ja, jds, c in steps:
                # no key has a negative exponent, so a step j not <= k finds nothing
                b = out.get((a - ja, tuple(d - j for d, j in zip(ds, jds))))
                if b is not None:
                    terms.append((key, c, b))
            out.update(_sum_products(terms))
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

