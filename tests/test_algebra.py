"""Exact-arithmetic foundation: polynomials, rational functions, series,
closed-form expansion, characteristic polynomials."""

import operator
import random
import re
from fractions import Fraction
from itertools import product
from math import factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    conjugate,
    evaluate_ratfunc,
    random_fraction,
    random_homogeneous_poly2,
    random_nonzero_poly2,
    random_poly2,
    random_ratfunc,
    random_series,
    reference_lincomb,
    reference_poly2_gcd,
    reference_poly2_to_text,
    reference_series_add,
    reference_series_inverse,
    reference_series_mul,
    reference_series_scale,
    reference_sub,
)
from symprod.algebra import (
    GaussRational,
    I,
    Poly1,
    Poly2,
    RatFunc2,
    TruncSeries,
    char_poly,
    char_poly_squarefree,
    expand_q_closed_form,
    poly2_divexact,
    poly2_from_text,
    poly2_gcd,
    poly2_to_text,
    ratfunc_from_text,
    ratfunc_to_text,
)
from symprod.algebra import ratfunc as ratfunc_module, series as series_module
from symprod.algebra.qexpr import _minus_exp_iu
from symprod.errors import (
    EmptyOrderError,
    MalformedInputError,
    PoleAtOriginError,
    RealnessViolationError,
    ShapeError,
)
from symprod.textforms import series_to_json

T1P, T2P = Poly2.t1(), Poly2.t2()


# ---------------------------------------------------------------------------
# rational-function canonical form
# ---------------------------------------------------------------------------

def test_normalize_cancels_common_factor():
    f = RatFunc2(T1P * T1P - T2P * T2P, T1P + T2P)
    assert f == RatFunc2(T1P - T2P)
    assert f.den == Poly2.one()


def test_normalize_zero_numerator():
    f = RatFunc2(Poly2.zero(), T1P)
    assert f.is_zero()
    assert f.den == Poly2.one()


def test_normalize_sign_convention():
    f = RatFunc2(T1P.scale(Fraction(2)), T2P.scale(Fraction(-2)))
    assert f.num == -T1P
    assert f.den == T2P
    assert f.den.leading_coefficient() > 0


def test_zero_denominator_rejected():
    with pytest.raises(MalformedInputError):
        RatFunc2(T1P, Poly2.zero())


def test_nonhomogeneous_denominator_rejected():
    with pytest.raises(MalformedInputError, match=r"t1 \+ 1"):
        RatFunc2(Poly2.one(), T1P + Poly2.one())
    with pytest.raises(MalformedInputError, match=r"t1 \+ 1"):
        ratfunc_from_text("(1)/(t1 + 1)")
    with pytest.raises(MalformedInputError):
        RatFunc2(T1P + Poly2.one()).inverse()
    # a numerator may be any polynomial
    assert ratfunc_to_text(RatFunc2(T1P + Poly2.one(), T1P - T2P)) == "(t1 + 1)/(t1 - t2)"


def test_normalize_idempotent():
    rng = random.Random(11)
    for _ in range(40):
        f = random_ratfunc(rng)
        again = RatFunc2(f.num, f.den)
        assert again == f
        assert (again.num, again.den) == (f.num, f.den)


def test_gcd_and_divexact_random():
    rng = random.Random(5)
    for _ in range(60):
        a = random_nonzero_poly2(rng)
        b = random_homogeneous_poly2(rng, 3)
        g = random_homogeneous_poly2(rng)
        assert poly2_divexact(a * g, g) == a
        joint = poly2_gcd(a * g, b * g)
        # the gcd divides both products and contains the planted factor
        assert poly2_divexact(a * g, joint) * joint == a * g
        assert poly2_divexact(b * g, joint) * joint == b * g
        poly2_divexact(joint, g.primitive())  # exact: g divides the gcd


def test_ring_axioms_poly2():
    rng = random.Random(7)
    for _ in range(50):
        a, b, c = (random_poly2(rng) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a


def test_field_axioms_ratfunc():
    rng = random.Random(9)
    for _ in range(30):
        a, b, c = (random_ratfunc(rng) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        if not b.is_zero():
            assert (a / b) * b == a


def test_ratfunc_equality_by_cross_multiplication():
    rng = random.Random(13)
    for _ in range(30):
        f = random_ratfunc(rng)
        scale = random_homogeneous_poly2(rng)
        g = RatFunc2(f.num * scale, f.den * scale)
        assert f == g
        assert f.num * g.den == g.num * f.den


def test_ratfunc_text_compares_no_polynomials(monkeypatch):
    # the constant denominator of a canonical value is 1: no Poly2 comparison
    def no_eq(self, other):
        raise AssertionError("Poly2.__eq__ called")

    series = TruncSeries(1, (1,), {
        (0, (0,)): RatFunc2(T1P + Poly2.one()),
        (1, (1,)): RatFunc2(T1P, T1P - T2P.scale(2)),
    })
    monkeypatch.setattr(Poly2, "__eq__", no_eq)
    terms = series_to_json(series)["terms"]
    assert [t["coeff"] for t in terms] == ["t1 + 1", "(t1)/(t1 - 2*t2)"]
    assert str(series) == "(t1 + 1)*1 + ((t1)/(t1 - 2*t2))*u*s1"


def test_ratfunc_text_roundtrip():
    rng = random.Random(17)
    for _ in range(40):
        f = random_ratfunc(rng)
        assert ratfunc_from_text(ratfunc_to_text(f)) == f
    assert poly2_from_text(poly2_to_text(Poly2.zero())) == Poly2.zero()
    assert poly2_from_text("t1+t2") == T1P + T2P  # spaces are not part of the spelling
    quotient = RatFunc2(T1P + T2P, T1P * T2P)
    assert ratfunc_from_text("(t1 + t2)/(t1*t2)") == ratfunc_from_text("(t1+t2)/(t1*t2)") == quotient
    assert ratfunc_to_text(ratfunc_from_text("(1/2*t1)/(t2)")) == "(1/2*t1)/(t2)"


# each loads as a polynomial, but poly2_to_text spells it otherwise
@pytest.mark.parametrize("text", ["2t1t2", "t1^0", "--t1", "1/02*t1", "t1^007", "t2 + t1"])
def test_poly2_from_text_rejects_noncanonical_spelling(text):
    with pytest.raises(ValueError, match="not in canonical form") as err:
        poly2_from_text(text)
    assert repr(text) in str(err.value)


# each side is canonical, but ratfunc_to_text spells the quotient otherwise
@pytest.mark.parametrize(
    "text", ["(2*t1)/(2)", "(t1)/(1)", "(t1*t2)/(t1)", "(t1)/(-t2)", "(t1)/(2*t2)"]
)
def test_ratfunc_from_text_rejects_noncanonical_quotient(text):
    with pytest.raises(ValueError, match="not in canonical form") as err:
        ratfunc_from_text(text)
    assert repr(text) in str(err.value)


# coefficients with a special text form: units (no "1*"), unit fractions, large
# integers, and any of them alone as a constant term
_text_coefficients = st.one_of(
    st.sampled_from([Fraction(1), Fraction(-1)]),
    st.builds(Fraction, st.sampled_from([1, -1]), st.integers(2, 9)),
    st.integers(-(10**30), 10**30).map(Fraction),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), _text_coefficients, max_size=4
    ).map(Poly2)
)
def test_poly2_to_text_matches_reference(p):
    assert poly2_to_text(p) == reference_poly2_to_text(p)


@pytest.mark.parametrize("coeffs, text", [
    ([], "0"),
    ([5], "5"),
    ([0, 1], "x"),
    ([-2, 0, 1], "x^2 - 2"),
    ([0, 0, -1], "-x^2"),
    ([Fraction(1, 2), -1, 0, 3], "3*x^3 - x + 1/2"),
    ([Fraction(-3, 4), Fraction(2, 3)], "2/3*x - 3/4"),
    ([-1, Fraction(-5, 2), 1, -1], "-x^3 + x^2 - 5/2*x - 1"),
])
def test_poly1_text(coeffs, text):
    # the same term and sign rules as Poly2 text, highest degree first
    assert str(Poly1(coeffs)) == text


# differential check of RatFunc2 * and + against the general constructors

_DIFF_SETTINGS = settings(max_examples=150, derandomize=True, database=None, deadline=None)


def _product(factors) -> Poly2:
    out = Poly2.one()
    for f in factors:
        out = out * f
    return out


_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), _fractions, max_size=3
).map(Poly2)
# canonical linear factors and their products: denominators that can cancel
_LINEAR = [T1P, T2P, T1P - T2P, T1P + T2P, T1P + T2P.scale(Fraction(2))]
_dens = st.lists(st.sampled_from(_LINEAR), max_size=2).map(_product)
_ratfuncs = st.builds(RatFunc2, _polys, _dens)
_constants = st.one_of(
    st.integers(-6, 6),
    _fractions,
    _fractions.map(RatFunc2.const),
)


def _general_mul(a, b) -> RatFunc2:
    a, b = RatFunc2.lift(a), RatFunc2.lift(b)
    return RatFunc2(a.num * b.num, a.den * b.den)


def _general_add(a, b) -> RatFunc2:
    a, b = RatFunc2.lift(a), RatFunc2.lift(b)
    return RatFunc2(a.num * b.den + b.num * a.den, a.den * b.den)


def _same_canonical(got, want):
    assert isinstance(got, RatFunc2)
    assert (got.num, got.den) == (want.num, want.den)
    assert ratfunc_to_text(got) == ratfunc_to_text(want)


@st.composite
def _equal_den_pairs(draw):
    """Addends over one denominator whose sum may cancel against it or vanish."""
    factors = draw(st.lists(st.sampled_from(_LINEAR), min_size=1, max_size=2))
    den = _product(factors)
    p = draw(_polys.filter(lambda poly: not poly.is_zero()))
    kind = draw(st.sampled_from(["free", "cancel", "zero"]))
    if kind == "zero":
        q = -p
    elif kind == "cancel":
        # p + q = h * f for a factor f of den
        q = draw(_polys) * draw(st.sampled_from(factors)) - p
    else:
        q = draw(_polys)
    return RatFunc2(p, den), RatFunc2(q, den)


@_DIFF_SETTINGS
@given(_ratfuncs, st.one_of(_constants, _ratfuncs))
def test_ratfunc_mul_matches_general(a, b):
    want = _general_mul(a, b)
    _same_canonical(a * b, want)
    _same_canonical(b * a, want)
    _same_canonical(-a, RatFunc2(-a.num, a.den))


@_DIFF_SETTINGS
@given(_ratfuncs, _constants)
def test_ratfunc_add_constant_matches_general(a, c):
    want = _general_add(a, c)
    _same_canonical(a + c, want)
    _same_canonical(c + a, want)


@_DIFF_SETTINGS
@given(_equal_den_pairs())
def test_ratfunc_add_equal_den_matches_general(pair):
    a, b = pair
    _same_canonical(a + b, _general_add(a, b))
    _same_canonical(b + a, _general_add(b, a))


def test_constant_factor_makes_no_gcd(monkeypatch):
    import symprod.algebra.ratfunc as ratfunc

    calls = []

    def counting_gcd(a, b):
        calls.append((a, b))
        return poly2_gcd(a, b)

    monkeypatch.setattr(ratfunc, "poly2_gcd", counting_gcd)
    f = RatFunc2(T1P * T1P + T2P, T1P - T2P)
    series = TruncSeries(2, (1,), {(0, (0,)): f, (1, (1,)): f * f})
    p, q = RatFunc2(T1P * T1P), RatFunc2(T2P.scale(3))
    calls.clear()
    products = [
        f * 3,
        f * RatFunc2.const(Fraction(2, 3)),
        RatFunc2.const(-5) * f,
        -f,
        series.scale(RatFunc2.const(Fraction(-1, 2))),
        series.scale(7),
        p + q,  # a polynomial sum, over denominator 1
        p - p,
    ]
    assert calls == []
    assert f * 1 is f and f * RatFunc2.one() is f and RatFunc2.one() * f is f
    assert products[-2] == RatFunc2(T1P * T1P + T2P.scale(3))
    assert products[-1] is RatFunc2.zero()
    assert products[0] == RatFunc2(T1P * T1P * 3 + T2P * 3, T1P - T2P)
    # the counter sees the general route
    assert f * f == RatFunc2(f.num * f.num, f.den * f.den) and calls


_OVER_ONE = [
    Poly2.zero(),
    Poly2.one(),
    Poly2.monomial(0, 0, Fraction(-7, 3)),
    Poly2.linear(Fraction(2, 3), Fraction(4, 3)),  # content 2/3, kept over 1
    T1P * T2P - T2P.scale(5),  # not homogeneous, which a numerator may be
] + [random_poly2(random.Random(seed), terms=4, degree=4) for seed in range(40)]


def test_polynomial_over_one_is_the_general_value_with_no_gcd(monkeypatch):
    import symprod.algebra.ratfunc as ratfunc

    calls = []

    def counting_gcd(a, b):
        calls.append((a, b))
        return poly2_gcd(a, b)

    monkeypatch.setattr(ratfunc, "poly2_gcd", counting_gcd)
    want = [RatFunc2(p, Poly2.one()) for p in _OVER_ONE]
    assert calls  # the counter sees the general route
    calls.clear()
    got = [RatFunc2(p) for p in _OVER_ONE]
    assert calls == []
    for p, g, w in zip(_OVER_ONE, got, want):
        assert (g.num.terms, g.den) == (w.num.terms, w.den), p
        _same_canonical(g, w)
    with pytest.raises(TypeError, match="numerator must be a Poly2, got int"):
        RatFunc2(3)


def test_linear_takes_a_fraction_as_it_is():
    c = Fraction(-5, 6)
    p = Poly2.linear(c, c)
    assert p.terms[1, 0] is c and p.terms[0, 1] is c
    assert p == Poly2({(1, 0): c, (0, 1): c})
    assert Poly2.linear(0, Fraction(0)).is_zero()
    assert Poly2.linear(2, 0).terms == {(1, 0): Fraction(2)}
    assert type(Poly2.linear(2, -1).terms[0, 1]) is Fraction


def test_negation_runs_no_fraction_product(monkeypatch):
    values = [
        RatFunc2(T1P.scale(Fraction(2, 3)) + T2P.scale(Fraction(-5, 7)), T1P * T2P),
        RatFunc2(T1P * T1P + T2P, T1P - T2P),
        RatFunc2.const(Fraction(-1, 2)),
        RatFunc2.zero(),
    ]
    want = [v * Fraction(-1) for v in values]

    def forbidden(*args):
        raise AssertionError("Fraction product in a negation")

    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(Fraction, name, forbidden)
    got = [-v for v in values]
    monkeypatch.undo()
    for g, w in zip(got, want):
        _same_canonical(g, w)
    assert [-g for g in got] == values


def test_ratfunc_equal_den_sum_cancels():
    d = T1P - T2P
    total = RatFunc2(T1P, d) + RatFunc2(-T2P, d)
    assert (total.num, total.den) == (Poly2.one(), Poly2.one())
    assert (RatFunc2(T1P, d) + RatFunc2(-T1P, d)).is_zero()
    assert (RatFunc2(T1P, d) * 0).den == Poly2.one()


# poly2_divexact over every divisor shape the canonical form meets

_nonzero_fractions = _fractions.filter(bool)
_divisors = st.one_of(
    _nonzero_fractions.map(lambda c: Poly2.monomial(0, 0, c)),
    st.builds(Poly2.monomial, st.integers(0, 3), st.integers(0, 3), _nonzero_fractions),
    st.lists(st.sampled_from(_LINEAR), min_size=1, max_size=3).map(_product),
    _polys.filter(lambda p: not p.is_zero()),
)


@_DIFF_SETTINGS
@given(_polys, _divisors)
def test_divexact_inverts_multiplication(a, b):
    assert poly2_divexact(a * b, b) == a
    assert poly2_divexact(Poly2.zero(), b) == Poly2.zero()


@pytest.mark.parametrize(
    "a, b, error",
    [
        (T1P, T2P, ValueError),
        (T1P + Poly2.one(), T1P - Poly2.one(), ValueError),
        (T1P * T1P + T2P, T1P, ValueError),
        (T1P, Poly2.zero(), ZeroDivisionError),
    ],
)
def test_divexact_rejects_remainder(a, b, error):
    with pytest.raises(error):
        poly2_divexact(a, b)


# poly2_gcd against the general recursion when one operand is a single term

_monomials = st.builds(Poly2.monomial, st.integers(0, 4), st.integers(0, 4), _nonzero_fractions)
_gcd_partners = st.one_of(
    _polys,
    _monomials,
    # every term carries t1 or t2: no constant term, or a monomial multiple
    _polys.map(lambda p: Poly2({m: c for m, c in p.terms.items() if m != (0, 0)})),
    st.builds(lambda p, m: p * m, _polys, _monomials),
    st.builds(lambda fs, m: _product(fs) * m, st.lists(st.sampled_from(_LINEAR), max_size=3), _monomials),
)


@_DIFF_SETTINGS
@given(_monomials, _gcd_partners)
def test_poly2_gcd_with_a_monomial_matches_reference(m, f):
    assert poly2_gcd(m, f) == reference_poly2_gcd(m, f)
    assert poly2_gcd(f, m) == reference_poly2_gcd(f, m)


def test_poly2_gcd_rejects_two_nonhomogeneous_operands():
    with pytest.raises(ValueError, match="not homogeneous"):
        poly2_gcd(T1P + Poly2.one(), T1P * T2P - Poly2.one())
    # one homogeneous operand is enough
    assert poly2_gcd(T1P * T1P - T2P * T2P, T1P * T1P - T2P * T2P + T1P - T2P) == T1P - T2P


@_DIFF_SETTINGS
@given(_monomials, _gcd_partners)
def test_poly2_gcd_with_a_monomial_runs_no_recursion(m, f):
    import symprod.algebra.poly as poly

    def no_euclid(a, b):
        raise AssertionError("single-term gcd entered the univariate Euclid")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(poly, "_u_gcd", no_euclid)
        poly2_gcd(m, f)
        poly2_gcd(f, m)


# poly2_gcd against the general recursion when one operand is homogeneous: the
# weight forms of the tangent spaces, up to r = 4, with planted common factors

_WEIGHT_FORMS = [
    T1P, T2P, T1P + T2P, T1P - T2P,
    T1P.scale(2) - T2P, T1P - T2P.scale(2), T1P.scale(2) - T2P.scale(3), T1P.scale(4) - T2P,
]
_weight_products = st.lists(st.sampled_from(_WEIGHT_FORMS), max_size=3).map(_product)


@st.composite
def _homogeneous_polys(draw, max_degree=3):
    d = draw(st.integers(0, max_degree))
    coeffs = draw(st.lists(_fractions, min_size=d + 1, max_size=d + 1))
    return Poly2({(i, d - i): c for i, c in enumerate(coeffs)})


_nonzero_homogeneous = _homogeneous_polys().filter(lambda p: not p.is_zero())


@st.composite
def _homogeneous_gcd_operands(draw):
    """(h, f, common): h homogeneous and nonzero, f general or homogeneous,
    both multiples of the planted product of weight forms `common`. A factor
    `shared` of h may divide one homogeneous part of f and not the others."""
    common, shared = draw(_weight_products), draw(_weight_products)
    h = shared * draw(_nonzero_homogeneous) * common
    f = draw(st.one_of(
        _polys,
        _homogeneous_polys(),
        _weight_products,
        st.builds(lambda a, b: shared * a + b, _homogeneous_polys(), _polys),
    ))
    f = f * draw(_weight_products) * common
    return h, f, common


@_DIFF_SETTINGS
@given(_homogeneous_gcd_operands())
def test_poly2_gcd_with_a_homogeneous_operand_matches_reference(operands):
    h, f, common = operands
    want = reference_poly2_gcd(h, f)
    assert poly2_gcd(h, f) == want
    assert poly2_gcd(f, h) == want
    poly2_divexact(want, common.primitive())  # exact: the planted factor divides


# ---------------------------------------------------------------------------
# truncated series
# ---------------------------------------------------------------------------

# differential check of the series product against one RatFunc2 sum per term pair

_SHAPE = (2, (1, 1))
_series_dens = st.one_of(_dens, st.builds(Poly2.monomial, st.integers(0, 3), st.integers(0, 3)))
# the coefficient denominators the data has: k! from the exponential e^{iu}, up to 12!
_series_fractions = st.builds(
    Fraction,
    st.one_of(st.integers(-6, 6), st.integers(-10**30, 10**30)),
    st.sampled_from([1, 2, 3, 4, 6, 24, 120, 5040, factorial(12)]),
)
_nonzero_series_fractions = _series_fractions.filter(bool)
_series_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), _series_fractions, max_size=3
).map(Poly2)
_series_coeffs = st.builds(RatFunc2, _series_polys, _series_dens)


def _box_keys(shape):
    """Keys inside the box of shape (u_order, s_orders)."""
    u_order, s_orders = shape
    return st.tuples(st.integers(0, u_order), st.tuples(*(st.integers(0, d) for d in s_orders)))


def _coeff_dicts(shape, max_size=3):
    return st.dictionaries(_box_keys(shape), _series_coeffs, max_size=max_size)


# random shapes for the kernel tests: u <= 4, r in 0..3, each s-order 0..3
_shapes = st.tuples(st.integers(0, 4), st.lists(st.integers(0, 3), max_size=3).map(tuple))
_SERIES_SETTINGS = settings(max_examples=60, derandomize=True, database=None, deadline=None)
_nonzero_series_coeffs = _series_coeffs.filter(lambda c: not c.is_zero())


@st.composite
def _cross_den_pair(draw):
    """(h, f/h, f) with f/h over another denominator than f, unless it cancels.

    h*(f/h) - f vanishes although its two products have different
    denominators.
    """
    h = RatFunc2(draw(_monomials))
    f = draw(_nonzero_series_coeffs)
    return h, f / h, f


@st.composite
def _scaled_pair(draw):
    """(f, g, -c*f, g/c): f*g + (-c*f)*(g/c) vanishes, although the two
    products have one denominator and different coefficient denominators."""
    f, g = draw(_nonzero_series_coeffs), draw(_nonzero_series_coeffs)
    c = draw(_nonzero_series_fractions)
    return f, g, f * (-c), g / c


@st.composite
def _series_operands(draw, shape=_SHAPE, planted=(1, (0, 0)), max_size=3):
    """Two series of one shape, with a planted sum at the key planted.

    "equal": f*h + g*h, where f and g share a denominator and f + g may
    cancel against it or vanish (see _equal_den_pairs); "cross": (f/h)*h
    - f, which vanishes across two denominators; "scaled": f*g +
    (-c*f)*(g/c), which vanishes over one denominator (see _scaled_pair).
    Other terms add products over other denominators at the same keys.
    """
    a, b = draw(_coeff_dicts(shape, max_size)), draw(_coeff_dicts(shape, max_size))
    kind = draw(st.sampled_from(["plain", "equal", "cross", "scaled"]))
    k0, k1 = (0, (0,) * len(shape[1])), planted
    if kind == "equal":
        f, g = draw(_equal_den_pairs())
        h = draw(_nonzero_series_coeffs)
        a[k0], a[k1], b[k1], b[k0] = f, g, h, h
    elif kind == "cross":
        h, f_h, f = draw(_cross_den_pair())
        a[k0], a[k1], b[k1], b[k0] = f_h, f, h, RatFunc2.const(-1)
    elif kind == "scaled":
        f, g, f_c, g_c = draw(_scaled_pair())
        a[k0], b[k1], a[k1], b[k0] = f, g, f_c, g_c
    return TruncSeries(*shape, a), TruncSeries(*shape, b)


@st.composite
def _shaped_series_operands(draw):
    """_series_operands at a random shape, planted at a random key; a planted
    key at the constant key is overwritten and leaves an unplanted case."""
    shape = draw(_shapes)
    return draw(_series_operands(shape, draw(_box_keys(shape)), max_size=6))


def _same_series(got, want):
    assert got.shape() == want.shape()
    assert got.coeffs == want.coeffs
    assert not any(c.is_zero() for c in got.coeffs.values())
    assert str(got) == str(want)


@_SERIES_SETTINGS
@given(_series_operands())
def test_series_mul_matches_reference(operands):
    a, b = operands
    _same_series(a * b, reference_series_mul(a, b))
    _same_series(b * a, reference_series_mul(b, a))


def _s_field_overflow(u_order, s_orders, ds):
    """s^ds times itself in the box (u_order, s_orders), with a term at every
    key: 2*ds overflows an s field, and so falls outside the box."""
    exponents = product(range(u_order + 1), *(range(d + 1) for d in s_orders))
    dense = {(a, tuple(es)): RatFunc2.const(i + 1) for i, (a, *es) in enumerate(exponents)}
    square = TruncSeries.monomial(0, ds, Fraction(3, 2), u_order, s_orders)
    return square, square + TruncSeries(u_order, s_orders, dense)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(_shaped_series_operands())
@example(_s_field_overflow(1, (1,), (1,)))  # 2 s^1 overflows the last field
@example(_s_field_overflow(2, (2, 1, 3), (2, 0, 0)))  # and a field above another
@example(_s_field_overflow(0, (3, 3), (0, 2)))
def test_series_mul_matches_reference_at_random_shapes(operands):
    """The packed-key product at any shape: the sum of two in-box keys may
    overflow an s field, and must then leave the box, not alias a key."""
    a, b = operands
    _same_series(a * b, reference_series_mul(a, b))
    _same_series(b * a, reference_series_mul(b, a))
    _same_series(a * a, reference_series_mul(a, a))


# Gram-inverse entries are 0, constants and c*(t1*t2)^k; any coefficient may occur
_lincomb_factors = st.one_of(
    st.just(RatFunc2.zero()),
    _fractions.map(RatFunc2.const),
    st.builds(lambda c, k: RatFunc2(Poly2.monomial(k, k, c)), _nonzero_fractions, st.integers(1, 3)),
    _series_coeffs,
)


@st.composite
def _lincomb_pairs(draw, shape=_SHAPE):
    """(c, s) pairs, with a planted sum at one key as in _series_operands:
    h*f + h*g with f + g over one denominator, h*(f/h) - f, or f*g +
    (-c*f)*(g/c)."""
    pairs = draw(st.lists(
        st.tuples(_lincomb_factors, _coeff_dicts(shape).map(lambda d: TruncSeries(*shape, d))),
        max_size=4,
    ))
    kind = draw(st.sampled_from(["plain", "equal", "cross", "scaled"]))
    if kind == "equal":
        f, g = draw(_equal_den_pairs())
        h = draw(_lincomb_factors.filter(lambda c: not c.is_zero()))
        planted = [(h, f), (h, g)]
    elif kind == "cross":
        h, f_h, f = draw(_cross_den_pair())
        planted = [(h, f_h), (RatFunc2.const(-1), f)]
    elif kind == "scaled":
        f, g, f_c, g_c = draw(_scaled_pair())
        planted = [(f, g), (f_c, g_c)]
    else:
        planted = []
    key = draw(_box_keys(shape))
    for c, coeff in planted:
        terms = draw(_coeff_dicts(shape))
        terms[key] = coeff
        pairs.insert(draw(st.integers(0, len(pairs))), (c, TruncSeries(*shape, terms)))
    return pairs


@_SERIES_SETTINGS
@given(_lincomb_pairs())
def test_series_lincomb_matches_reference(pairs):
    _same_series(TruncSeries.lincomb(pairs, *_SHAPE), reference_lincomb(pairs, *_SHAPE))
    _same_series(TruncSeries.lincomb(iter(pairs[::-1]), *_SHAPE), reference_lincomb(pairs, *_SHAPE))


@st.composite
def _shaped_lincomb_pairs(draw):
    shape = draw(_shapes)
    return shape, draw(_lincomb_pairs(shape))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(_shaped_lincomb_pairs())
def test_series_lincomb_matches_reference_at_random_shapes(case):
    shape, pairs = case
    _same_series(TruncSeries.lincomb(pairs, *shape), reference_lincomb(pairs, *shape))


def test_series_product_over_denominator_one_runs_no_fraction_arithmetic(monkeypatch):
    q = _minus_exp_iu(12, (12,))
    want = [reference_series_mul(a, b) for a, b in ((q.re, q.re), (q.re, q.im), (q.im, q.im))]

    def forbidden(*args):
        raise AssertionError("Fraction arithmetic in a series product over denominator 1")

    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        monkeypatch.setattr(Fraction, name, forbidden)
    got = [q.re * q.re, q.re * q.im, q.im * q.im]
    monkeypatch.undo()
    for g, w in zip(got, want):
        _same_series(g, w)


def test_series_rejects_negative_exponent():
    for key in ((-1, (0,)), (0, (-1,))):
        with pytest.raises(ShapeError):
            TruncSeries(2, (1,), {key: RatFunc2.one()})


def test_series_lincomb_checks_shapes():
    one = TruncSeries.one(*_SHAPE)
    assert TruncSeries.lincomb([], *_SHAPE) == TruncSeries.zero(*_SHAPE)
    assert TruncSeries.lincomb([(RatFunc2.const(2), one)], *_SHAPE) == one.scale(2)
    with pytest.raises(ShapeError):
        TruncSeries.lincomb([(RatFunc2.one(), TruncSeries.one(2, (1,)))], *_SHAPE)


_LINCOMB_SERIES = TruncSeries(
    *_SHAPE,
    {(0, (0, 0)): RatFunc2.const(Fraction(2, 3)), (1, (1, 0)): Poly2.linear(1, -2), (2, (0, 1)): 5},
)


@pytest.mark.parametrize(
    "factor", [3, Fraction(-5, 7), Poly2.linear(2, 1)], ids=["int", "Fraction", "Poly2"]
)
def test_series_lincomb_lifts_its_factors(factor):
    """A factor that RatFunc2.lift takes is lifted, as the constructor and
    scale lift theirs."""
    s = _LINCOMB_SERIES
    got = TruncSeries.lincomb([(factor, s), (RatFunc2.one(), s)], *_SHAPE)
    want = reference_lincomb([(RatFunc2.lift(factor), s), (RatFunc2.one(), s)], *_SHAPE)
    _same_series(got, want)
    _same_series(TruncSeries.lincomb([(factor, s)], *_SHAPE), s.scale(factor))


def test_series_lincomb_rejects_a_factor_it_cannot_lift():
    with pytest.raises(TypeError, match=r"lincomb factor '2' is a str, not a rational function"):
        TruncSeries.lincomb([(RatFunc2.one(), _LINCOMB_SERIES), ("2", _LINCOMB_SERIES)], *_SHAPE)


# ---------------------------------------------------------------------------
# subtraction merges both operands in one pass; the oracle adds the negation
# ---------------------------------------------------------------------------

def _same_poly(got, want):
    assert isinstance(got, Poly2)
    assert got.terms == want.terms
    assert all(got.terms.values())  # no zero coefficient is stored


@_DIFF_SETTINGS
@given(_polys, _polys)
def test_poly2_sub_matches_negated_sum(a, b):
    _same_poly(a - b, reference_sub(a, b))
    _same_poly(b - a, reference_sub(b, a))
    _same_poly(a - a, Poly2.zero())
    _same_poly((a + b) - b, a)


def _negated_second(pair):
    return pair[0], -pair[1]


@_DIFF_SETTINGS
@given(st.one_of(
    st.tuples(_polys.map(RatFunc2), _polys.map(RatFunc2)),  # both over 1
    _equal_den_pairs(),  # over one non-constant denominator
    _equal_den_pairs().map(_negated_second),  # and a difference that cancels or vanishes
    st.tuples(_ratfuncs, _ratfuncs),  # mostly over different denominators
))
def test_ratfunc_sub_matches_negated_sum(pair):
    a, b = pair
    _same_canonical(a - b, reference_sub(a, b))
    _same_canonical(b - a, reference_sub(b, a))
    _same_canonical(a - a, RatFunc2.zero())


@_DIFF_SETTINGS
@given(_ratfuncs, _constants)
def test_ratfunc_sub_constant_matches_negated_sum(a, c):
    _same_canonical(a - c, reference_sub(a, c))
    _same_canonical(c - a, reference_sub(c, a))


_series_scalars = st.one_of(st.integers(-3, 3), _series_fractions)


@_SERIES_SETTINGS
@given(st.one_of(_series_operands(), _shaped_series_operands()), _series_scalars)
def test_series_sub_matches_negated_sum(operands, c):
    a, b = operands
    for x, y in ((a, b), (b, a), (a, c), (c, a), (b, Fraction(c)), (Fraction(c), b)):
        _same_series(x - y, reference_sub(x, y))
    # exact cancellation leaves no key
    assert (a - a).coeffs == {}
    _same_series((a + b) - b, a)
    _same_series(c - (c - a), a)


def test_series_sub_checks_shapes():
    a, b = TruncSeries.one(2, (1,)), TruncSeries.one(2, (2,))
    for x, y in ((a, b), (b, a), (1 - a, b), (a, Fraction(1, 2) - b)):
        with pytest.raises(ShapeError):
            x - y


# ---------------------------------------------------------------------------
# sums, negation, scaling and the derivatives of the integer forms against
# one RatFunc2 operation per coefficient
# ---------------------------------------------------------------------------

# over denominator 1 only: the forms' integer merge, with lcds from k!
_den_one_series = _shapes.flatmap(lambda shape: st.tuples(
    *(st.dictionaries(_box_keys(shape), _series_polys.map(RatFunc2), max_size=6)
      .map(lambda d, shape=shape: TruncSeries(*shape, d)) for _ in range(2))
))


@st.composite
def _cancelling_operands(draw):
    """(a, b) of one shape over denominator 1, other denominators or both,
    with b holding -a's coefficient at some of a's keys, so that a + b
    cancels there."""
    a, b = draw(st.one_of(_series_operands(), _shaped_series_operands(), _den_one_series))
    terms = dict(b.coeffs)
    if a.coeffs:
        for key in draw(st.sets(st.sampled_from(sorted(a.coeffs)))):
            terms[key] = -a.coeffs[key]
    return a, TruncSeries(*a.shape(), terms)


@_SERIES_SETTINGS
@given(_cancelling_operands())
def test_series_add_matches_reference(operands):
    a, b = operands
    _same_series(a + b, reference_series_add(a, b))
    _same_series(b + a, reference_series_add(b, a))
    _same_series(a + reference_series_scale(a, -1), TruncSeries.zero(*a.shape()))


_scale_factors = st.one_of(
    st.integers(-3, 3), _series_fractions, _series_polys, _series_coeffs,
    _series_fractions.map(RatFunc2.const),
)


@_SERIES_SETTINGS
@given(_cancelling_operands(), _scale_factors)
def test_series_neg_and_scale_match_reference(operands, c):
    for s in operands:
        _same_series(-s, reference_series_scale(s, -1))
        _same_series(s.scale(c), reference_series_scale(s, c))
        _same_series(-(-s), s)
    a, b = operands
    # a result's forms feed the next operation
    _same_series((a + b).scale(c), reference_series_scale(reference_series_add(a, b), c))


@_SERIES_SETTINGS
@given(_cancelling_operands(), st.integers(1, 3))
def test_series_derivatives_match_reference(operands, ell):
    for s in (*operands, operands[0] + operands[1]):
        if s.u_order:
            want = {(a - 1, ds): c * a for (a, ds), c in s.coeffs.items() if a}
            _same_series(s.d_du(), TruncSeries(s.u_order - 1, s.s_orders, want))
        if ell <= len(s.s_orders):
            want = {(a, ds): c * ds[ell - 1] for (a, ds), c in s.coeffs.items()}
            _same_series(s.s_scale_d(ell), TruncSeries(*s.shape(), want))


def test_series_lifts_poly2_coefficients():
    p = Poly2.linear(1, 1)
    a = TruncSeries(2, (1,), {(0, (0,)): Poly2.one(), (1, (0,)): p, (2, (1,)): Poly2.zero()})
    want = TruncSeries(2, (1,), {(0, (0,)): RatFunc2.one(), (1, (0,)): RatFunc2(p)})
    _same_series(a, want)
    _same_series(a * a, reference_series_mul(want, want))
    _same_series(a.inverse(), reference_series_inverse(want))


def test_series_lifts_rational_coefficients():
    a = TruncSeries(2, (1,), {(0, (0,)): 2, (1, (1,)): Fraction(-1, 3), (2, (0,)): 0})
    want = TruncSeries(2, (1,), {
        (0, (0,)): RatFunc2.const(2), (1, (1,)): RatFunc2.const(Fraction(-1, 3)),
    })
    _same_series(a, want)
    _same_series(a * a, reference_series_mul(want, want))
    _same_series(a.inverse(), reference_series_inverse(want))


@pytest.mark.parametrize("value", ["t1", 1.5])
def test_series_rejects_a_coefficient_it_cannot_lift(value):
    with pytest.raises(TypeError, match=re.escape("key (1, (0,))")):
        TruncSeries(2, (1,), {(0, (0,)): RatFunc2.one(), (1, (0,)): value})


def test_series_ring_operations_build_no_ratfunc_until_read(monkeypatch):
    u_order, s_orders = 6, (4,)
    q = _minus_exp_iu(u_order, s_orders)
    theta = TruncSeries.const(Poly2.linear(1, 1), u_order, s_orders)
    s1 = TruncSeries.monomial(0, (1,), 1, u_order, s_orders)
    two = RatFunc2.const(2)
    built = []
    init, canonical = RatFunc2.__init__, ratfunc_module._canonical

    def counted_init(self, *args):
        built.append(args)
        init(self, *args)

    def counted_canonical(*args):
        built.append(args)
        return canonical(*args)

    monkeypatch.setattr(RatFunc2, "__init__", counted_init)
    for module in (ratfunc_module, series_module):
        monkeypatch.setattr(module, "_canonical", counted_canonical)
    x = 1 + s1 * q.re - s1 * s1 * q.im
    y = theta * x.inverse() - (-x).scale(Fraction(2, 3)) + 3 * theta
    z = TruncSeries.lincomb([(two, y), (two, x.s_scale_d(1))], u_order, s_orders)
    w = (z - 1 / (1 - s1)).d_du()
    assert not w.is_zero() and w != 0 and z != y and not built
    coeffs = w.coeffs  # the first read builds every coefficient once
    assert len(built) == len(coeffs) and w.coeffs is coeffs
    monkeypatch.undo()
    x_ref = reference_sub(
        reference_series_add(TruncSeries.one(u_order, s_orders), reference_series_mul(s1, q.re)),
        reference_series_mul(reference_series_mul(s1, s1), q.im),
    )
    assert x == x_ref and 1 / (1 - s1) == reference_series_inverse(1 - s1)


def test_series_coeffs_are_read_only():
    terms = {(0, (0,)): RatFunc2.one(), (1, (1,)): RatFunc2(Poly2.t1())}
    a = TruncSeries(2, (1,), terms)
    terms[(2, (0,))] = RatFunc2.one()  # the constructor copied the dict
    for s in (a, a * a, a + 1, -a):  # built from RatFunc2 values, or from forms
        want = dict(s.coeffs)
        with pytest.raises(TypeError):
            s.coeffs[(1, (0,))] = RatFunc2.one()
        with pytest.raises(TypeError):
            del s.coeffs[(0, (0,))]
        assert s.coeffs == want and (2, (0,)) not in a.coeffs


def test_constant_series_inverse_makes_no_pass_over_the_box(monkeypatch):
    norm = _minus_exp_iu(12, (12,)).norm()  # |e^{iu}|^2 = 1 in every box
    passes = []
    accumulate = series_module._accumulate
    monkeypatch.setattr(
        series_module, "_accumulate", lambda *args: passes.append(1) or accumulate(*args)
    )
    assert norm == 1 and norm.inverse() == 1 and not passes
    c = TruncSeries.const(Fraction(-2, 3), 12, (12,))
    assert c.inverse() == Fraction(-3, 2) and not passes
    # one pass writes the steps, and one more per key of the box but the constant
    (c + TruncSeries.monomial(1, (0,), 1, 12, (12,))).inverse()
    assert len(passes) == 1 + 13 * 13 - 1


_gauss_parts = st.one_of(
    _series_fractions, _coeff_dicts(_SHAPE).map(lambda d: TruncSeries(*_SHAPE, d))
)
_gaussians = st.builds(GaussRational, _gauss_parts, _gauss_parts)


def _same_gaussian(got, want):
    assert isinstance(got, GaussRational)
    for g, w in ((got.re, want.re), (got.im, want.im)):
        assert type(g) is type(w)
        if isinstance(g, TruncSeries):
            _same_series(g, w)
        else:
            assert g == w


@_SERIES_SETTINGS
@given(_gaussians, _gaussians, _series_fractions)
def test_gaussian_sub_matches_negated_sum(z, w, c):
    for x, y in ((z, w), (w, z), (1, z), (z, 1), (c, z), (z, c)):
        _same_gaussian(x - y, reference_sub(x, y))
    assert (z - z).is_zero()


def test_subtraction_builds_no_negated_copy(monkeypatch):
    p, q, d = T1P * T1P - T2P.scale(Fraction(1, 3)), T1P * T2P + T2P * T2P, T1P - T2P
    rationals = [(p, q), (RatFunc2(p), RatFunc2(q)), (RatFunc2(p, d), RatFunc2(q, d)),
                 (RatFunc2(p, d), RatFunc2(q, T1P)), (RatFunc2(p, d), 2), (2, RatFunc2(p, d))]
    a = TruncSeries(2, (1,), {(0, (0,)): RatFunc2(p), (1, (1,)): RatFunc2(q, d)})
    b = TruncSeries(2, (1,), {(1, (1,)): RatFunc2(p), (2, (0,)): RatFunc2(q), (0, (1,)): RatFunc2(d)})
    z, w = GaussRational(a, b), GaussRational(b, 1)
    series = [(a, b), (b, a), (1, a), (a, Fraction(1, 2)), (z, w), (1, z), (z, 3)]
    want = [reference_sub(x, y) for x, y in rationals + series]

    def forbidden(self):
        raise AssertionError(f"negated copy of a {type(self).__name__} in a subtraction")

    for cls in (Poly2, RatFunc2, TruncSeries, GaussRational):
        monkeypatch.setattr(cls, "__neg__", forbidden)
    # a series key that only the subtrahend holds negates its integer form,
    # so no RatFunc2 is negated either
    got = [x - y for x, y in rationals + series]
    monkeypatch.undo()
    for g, w in zip(got, want):
        assert g == w


# ---------------------------------------------------------------------------
# mixed operands: a Poly2 leaves a RatFunc2 operand to RatFunc2, and every
# other pair that no type takes raises TypeError
# ---------------------------------------------------------------------------

@_DIFF_SETTINGS
@given(_polys, _ratfuncs)
@example(Poly2.linear(1, 1), RatFunc2(Poly2.one(), T1P))
def test_poly2_with_ratfunc_operand_equals_lifted_poly2(p, f):
    lifted = RatFunc2(p)
    for got, want in ((p + f, lifted + f), (p - f, lifted - f), (p * f, lifted * f),
                      (f + p, f + lifted), (f - p, f - lifted), (f * p, f * lifted)):
        _same_canonical(got, want)


_P, _F, _S = Poly2.linear(1, 1), RatFunc2(Poly2.one(), T1P), TruncSeries.one(2, (1,))
_UNSUPPORTED = [
    *((a, op, b) for op in "+-"
      for a, b in ((_P, 1), (1, _P), (_P, Fraction(1, 2)), (Fraction(1, 2), _P))),
    *((a, op, b) for op in "+-*" for a, b in ((_S, _F), (_F, _S), (_S, _P), (_P, _S))),
]


@pytest.mark.parametrize(
    "a, op, b", _UNSUPPORTED,
    ids=[f"{type(a).__name__}{op}{type(b).__name__}" for a, op, b in _UNSUPPORTED],
)
def test_unsupported_operand_pairs_raise_type_error(a, op, b):
    with pytest.raises(TypeError):
        {"+": operator.add, "-": operator.sub, "*": operator.mul}[op](a, b)


@st.composite
def _invertible_series(draw):
    """A series of a random shape (s_orders of length 0-3, orders 0-3) with
    an invertible constant term, a constant or a homogeneous form over a
    product of weight forms, and one to three other terms. Half of the other
    keys have exponents 0 and 1 only, so that many powers stay in the box."""
    u_order = draw(st.integers(0, 3))
    s_orders = tuple(draw(st.lists(st.integers(0, 3), max_size=3)))

    def keys(cap):
        exps = (st.integers(0, min(d, cap)) for d in s_orders)
        return st.tuples(st.integers(0, min(u_order, cap)), st.tuples(*exps))

    coeffs = draw(st.dictionaries(
        st.one_of(keys(1), keys(3)), _nonzero_series_coeffs, min_size=1, max_size=3
    ))
    if draw(st.booleans()):
        c0 = RatFunc2(draw(_nonzero_homogeneous), draw(_dens))
    else:
        c0 = RatFunc2.const(draw(_nonzero_series_fractions))
    coeffs[(0, (0,) * len(s_orders))] = c0
    return TruncSeries(u_order, s_orders, coeffs)


# a dense case: its inverse has 64 terms in the box (3, (3, 3, 3))
_DENSE_INVERTIBLE = TruncSeries(3, (3, 3, 3), {
    (0, (0, 0, 0)): RatFunc2(T1P + T2P, T1P * T2P),
    (1, (0, 0, 0)): RatFunc2.const(Fraction(1, 5040)),
    (0, (1, 0, 0)): RatFunc2(T1P, T1P - T2P),
    (0, (0, 1, 1)): RatFunc2(T2P * T2P + T1P, T1P),
})


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(_invertible_series())
@example(_DENSE_INVERTIBLE)
def test_series_inverse_matches_reference(s):
    inv = s.inverse()
    _same_series(inv, reference_series_inverse(s))
    assert s * inv == TruncSeries.one(*s.shape())


def test_series_inverse_needs_a_constant_term():
    s = TruncSeries.monomial(1, (0,), RatFunc2.one(), 2, (1,))
    for inverse in (TruncSeries.inverse, reference_series_inverse):
        with pytest.raises(ZeroDivisionError):
            inverse(s)
        with pytest.raises(ZeroDivisionError):
            inverse(TruncSeries.zero(0, ()))


def _u(a, coeff=1, u_order=2, s_orders=(2,)):
    return TruncSeries.monomial(a, (0,) * len(s_orders), RatFunc2.const(coeff), u_order, s_orders)


def test_series_product_truncates():
    one = TruncSeries.one(2, ())
    u = TruncSeries.monomial(1, (), RatFunc2.one(), 2, ())
    prod = (one + u) * (one - u)
    assert prod == one - u * u


def test_series_geometric_telescope():
    s_orders = (5,)
    geo = TruncSeries(0, s_orders, {
        (0, (d,)): RatFunc2.one() for d in range(6)
    })
    one = TruncSeries.one(0, s_orders)
    s = TruncSeries.monomial(0, (1,), RatFunc2.one(), 0, s_orders)
    assert geo * (one - s) == one


def test_series_truncation_contract():
    u = TruncSeries.monomial(1, (), RatFunc2.one(), 1, ())
    assert (u * u).is_zero()


def test_series_shape_error():
    with pytest.raises(ShapeError):
        TruncSeries.one(2, (1,)) + TruncSeries.one(2, (2,))
    # a scalar takes the shape of its series; another series keeps its own
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(ShapeError):
            op(2 + TruncSeries.one(2, (1,)), TruncSeries.one(2, (2,)))


def test_series_scalar_operands():
    # an int or Fraction on either side of +, - and *, and in scalar / series,
    # is the constant series of the other operand's shape
    s = TruncSeries(2, (1,), {
        (0, (0,)): RatFunc2.const(3),
        (1, (1,)): RatFunc2(Poly2.t1()),
        (2, (0,)): RatFunc2.const(Fraction(-1, 6)),
    })

    def const(c):
        return TruncSeries.const(c, 2, (1,))

    assert s + 2 == s + const(2)
    assert 2 + s == const(2) + s
    assert 2 - s == const(2) - s
    assert s - Fraction(1, 2) == s - const(Fraction(1, 2))
    assert Fraction(3) * s == s.scale(3)
    assert s * 3 == s.scale(3)
    assert (s * 0).is_zero() and (0 * s).is_zero()
    assert 1 / s == s.inverse()
    assert Fraction(2, 3) / s == s.inverse().scale(Fraction(2, 3))
    assert const(Fraction(5, 2)) == Fraction(5, 2) and const(0) == 0
    assert s != 3 and TruncSeries.zero(2, (1,)) == 0
    with pytest.raises(ZeroDivisionError):
        1 / (s - 3)


def test_derivative_examples():
    f = TruncSeries.monomial(2, (), RatFunc2.const(3), 3, ())
    assert f.d_du() == TruncSeries.monomial(1, (), RatFunc2.const(6), 2, ())
    const = TruncSeries.one(3, ())
    assert const.d_du().is_zero()
    # d/du of the truncated exponential drops one order and matches
    expo4 = TruncSeries(4, (), {
        (a, ()): RatFunc2.const(Fraction(1, _fact(a))) for a in range(5)
    })
    expo3 = TruncSeries(3, (), {
        (a, ()): RatFunc2.const(Fraction(1, _fact(a))) for a in range(4)
    })
    assert expo4.d_du() == expo3


def _fact(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def test_derivative_empty_order():
    with pytest.raises(EmptyOrderError):
        TruncSeries.one(0, ()).d_du()


def test_s_scale_examples():
    s_orders = (3, 3)
    cubed = TruncSeries.monomial(0, (3, 0), RatFunc2.one(), 0, s_orders)
    assert cubed.s_scale_d(1) == cubed.scale(3)
    other = TruncSeries.monomial(0, (0, 1), RatFunc2.one(), 0, s_orders)
    assert other.s_scale_d(1).is_zero()
    mixed = TruncSeries(0, (3,), {
        (0, (d,)): RatFunc2.const(Fraction(1, d)) for d in range(1, 4)
    })
    flat = TruncSeries(0, (3,), {
        (0, (d,)): RatFunc2.one() for d in range(1, 4)
    })
    assert mixed.s_scale_d(1) == flat


def test_s_scale_index_error():
    with pytest.raises(IndexError):
        TruncSeries.one(0, (2,)).s_scale_d(2)


def test_derivatives_commute():
    rng = random.Random(23)
    for _ in range(25):
        f = random_series(rng, u_order=3, s_orders=(2, 2))
        assert f.d_du().s_scale_d(1) == f.s_scale_d(1).d_du()


def test_series_ring_axioms():
    rng = random.Random(29)
    for ratfunc in (False, True):
        for _ in range(25):
            a, b, c = (random_series(rng, ratfunc=ratfunc) for _ in range(3))
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)


# ---------------------------------------------------------------------------
# closed-form expansion under q = -e^{iu}
# ---------------------------------------------------------------------------

def test_expand_single_factor_is_not_real():
    with pytest.raises(RealnessViolationError):
        expand_q_closed_form(lambda q, s1, **_: 1 / (1 + s1 * q), 2, (2,))


def _paired_entry_theta_i(q, s1, t1, t2):
    return (t1 + t2) * I * (1 / (1 + s1 * q) - 1 / (1 + s1 / q))


def _paired_entry_i_theta(q, s1, t1, t2):
    # a constant GaussRational on the left of one with series parts
    return I * (t1 + t2) * (1 / (1 + s1 * q) - 1 / (1 + s1 / q))


def test_expand_paired_entry_sine_slope():
    minus_two_theta = RatFunc2(Poly2.linear(-2, -2))
    for entry in (_paired_entry_theta_i, _paired_entry_i_theta):
        series = expand_q_closed_form(entry, 3, (3,))
        assert series.coefficient(1, (1,)) == minus_two_theta
        # full sine expansion: coefficient of u^a s^d is -2 theta (-1)^((a-1)/2) d^a / a!
        for d in range(1, 4):
            for a in (1, 3):
                want = minus_two_theta * Fraction((-1) ** ((a - 1) // 2) * d**a, _fact(a))
                assert series.coefficient(a, (d,)) == want
            assert series.coefficient(2, (d,)).is_zero()


def test_expand_u_independent_geometric():
    series = expand_q_closed_form(lambda s1, **_: 2 / (1 - s1), 2, (4,))
    for d in range(5):
        assert series.coefficient(0, (d,)) == RatFunc2.const(2)
        assert series.coefficient(1, (d,)).is_zero()
        assert series.coefficient(2, (d,)).is_zero()


def test_expand_cosine_layer():
    def entry(q, s1, **_):
        return 1 / (1 + s1 * q) + 1 / (1 + s1 / q)

    series = expand_q_closed_form(entry, 2, (4,))
    for d in range(1, 5):
        assert series.coefficient(2, (d,)) == RatFunc2.const(-d * d)


def test_expand_pole_at_origin():
    with pytest.raises(PoleAtOriginError):
        expand_q_closed_form(lambda s1, **_: 1 / s1, 1, (2,))
    with pytest.raises(PoleAtOriginError):
        expand_q_closed_form(lambda q, **_: 1 / (1 + q), 1, (2,))
    with pytest.raises(PoleAtOriginError):  # a zero value, not just a zero constant term
        expand_q_closed_form(lambda s1, **_: 1 / (s1 - s1), 1, (2,))


def test_expand_keeps_nesting_and_lifts_constants():
    def form(q, s1, t1, t2):
        return [[0, Fraction(-1, 2)], [t1 * t2, 2 - s1]]

    got = expand_q_closed_form(form, 1, (1,))
    one = TruncSeries.one(1, (1,))
    s = TruncSeries.monomial(0, (1,), 1, 1, (1,))
    assert got == [
        [TruncSeries.zero(1, (1,)), one.scale(Fraction(-1, 2))],
        [TruncSeries.const(T1P * T2P, 1, (1,)), one.scale(2) - s],
    ]
    with pytest.raises(RealnessViolationError):
        expand_q_closed_form(lambda **_: [[1, I]], 1, (1,))


def test_expand_without_q_matches_pointwise_evaluation():
    # division-free closed forms without q are polynomials: the expansion,
    # summed at rational points, must equal direct evaluation
    rng = random.Random(31)
    for _ in range(20):
        start = random_fraction(rng)
        steps = [
            (rng.choice(["add", "mul", "sub"]), rng.choice(["s1", "s2", "t1", "t2"]))
            for _ in range(rng.randint(1, 4))
        ]

        def form(steps=steps, start=start, **atoms):
            value = start
            for op, name in steps:
                if op == "add":
                    value = value + atoms[name]
                elif op == "sub":
                    value = value - atoms[name]
                else:
                    value = value * atoms[name]
            return value

        series = expand_q_closed_form(form, 0, (4, 4))
        t1v, t2v = Fraction(3), Fraction(5)
        s1v, s2v = Fraction(1, 2), Fraction(1, 3)
        direct = GaussRational.lift(form(
            t1=GaussRational(t1v), t2=GaussRational(t2v),
            s1=GaussRational(s1v), s2=GaussRational(s2v),
        ))
        summed = Fraction(0)
        for a, ds, c in series.monomials():
            assert a == 0  # no q, no u-dependence
            summed += evaluate_ratfunc(c, t1v, t2v) * s1v ** ds[0] * s2v ** ds[1]
        assert direct == GaussRational(summed)


def test_expand_division_remultiplies():
    rng = random.Random(37)
    for _ in range(10):
        a, b, k = random_fraction(rng), random_fraction(rng), rng.randint(1, 3)

        def num(s1, **_):
            return a + s1 * b

        def den(q, s1, **_):
            return 1 + s1 * q * k

        def ratio(**atoms):
            return num(**atoms) / den(**atoms)

        orders = (3, (3,))
        product = _expand_complex_ok(ratio, *orders) * _expand_complex_ok(den, *orders)
        want = _expand_complex_ok(num, *orders)
        assert product.re == want.re and product.im == want.im


def _expand_complex_ok(form, u_order, s_orders):
    """Expansion that keeps imaginary parts: the form on the complex atoms."""
    from symprod.algebra.qexpr import _atoms

    return form(**_atoms(u_order, tuple(s_orders)))


# ---------------------------------------------------------------------------
# characteristic polynomials
# ---------------------------------------------------------------------------

def test_char_poly_identity_not_squarefree():
    ident = [[Fraction(int(i == j)) for j in range(5)] for i in range(5)]
    p, squarefree = char_poly_squarefree(ident)
    assert not squarefree
    # (x-1)^5
    want = Poly1([-1, 1])
    prod = Poly1([1])
    for _ in range(5):
        prod = prod * want
    assert p == prod


def test_char_poly_distinct_diagonal():
    diag = [[Fraction(i + 1 if i == j else 0) for j in range(5)] for i in range(5)]
    p, squarefree = char_poly_squarefree(diag)
    assert squarefree
    prod = Poly1([1])
    for k in range(1, 6):
        prod = prod * Poly1([-k, 1])
    assert p == prod


def test_char_poly_companion():
    companion = [[Fraction(0), Fraction(2)], [Fraction(1), Fraction(0)]]
    p, squarefree = char_poly_squarefree(companion)
    assert squarefree
    assert p == Poly1([-2, 0, 1])


def test_char_poly_block_duplication():
    rng = random.Random(41)
    for _ in range(10):
        m = [[random_fraction(rng) for _ in range(2)] for _ in range(2)]
        doubled = [
            [m[i % 2][j % 2] if (i < 2) == (j < 2) else Fraction(0) for j in range(4)]
            for i in range(4)
        ]
        _, squarefree = char_poly_squarefree(doubled)
        assert not squarefree


def test_char_poly_rejects_nonsquare():
    with pytest.raises(ValueError):
        char_poly_squarefree([[Fraction(1), Fraction(2)]])


def test_char_poly_takes_gaussian_entries_and_checks_realness():
    # one route over Q(i): [[0, i], [i, 0]] has the real polynomial x^2 + 1,
    # a rational matrix gives the same Poly1 lifted or not, and [[i]] has x - i
    p = char_poly([[0, I], [I, 0]])
    assert p == Poly1([1, 0, 1])
    companion = [[Fraction(0), Fraction(2)], [Fraction(1), Fraction(0)]]
    lifted = [[GaussRational(x) for x in row] for row in companion]
    assert char_poly(lifted) == char_poly(companion) == Poly1([-2, 0, 1])
    with pytest.raises(RealnessViolationError, match="nonreal coefficient"):
        char_poly([[I]])


def test_char_poly_gaussian_is_not_exported():
    import symprod.algebra as algebra

    assert "char_poly_gaussian" not in algebra.__all__
    assert not hasattr(algebra, "char_poly_gaussian")


# ---------------------------------------------------------------------------
# Gaussian rationals
# ---------------------------------------------------------------------------

def test_gaussian_arithmetic():
    i = GaussRational(0, 1)
    assert i * i == GaussRational(-1)
    z = GaussRational(Fraction(1, 2), Fraction(-3, 4))
    assert conjugate(conjugate(z)) == z
    assert (z * conjugate(z)).is_real()
    assert z / z == GaussRational(1)


def test_gaussian_inverse_random():
    rng = random.Random(43)
    for _ in range(30):
        z = GaussRational(random_fraction(rng), random_fraction(rng))
        if z.is_zero():
            continue
        assert z * z.inverse() == GaussRational(1)


def test_gaussian_with_series_parts_zero_real_and_equal():
    zero, one = TruncSeries.zero(1, (1,)), TruncSeries.one(1, (1,))
    assert GaussRational(zero, zero).is_zero() and GaussRational(zero).is_zero()
    assert GaussRational(one, zero).is_real() and not GaussRational(one, zero).is_zero()
    assert not GaussRational(zero, one).is_real()
    assert not GaussRational(zero, one).is_zero()
    assert GaussRational(one, zero) == 1 == GaussRational(one)
    assert GaussRational(zero, one) == I
    assert GaussRational(zero, one) != GaussRational(zero, one.scale(2))
    assert str(GaussRational(one, one.scale(-1))) == f"{one} + {one.scale(-1)}*i"


def test_gaussian_series_inverse_inverts_the_norm_once(monkeypatch):
    calls = []
    inverse = TruncSeries.inverse

    def counted(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(TruncSeries, "inverse", counted)
    s1 = GaussRational(TruncSeries.monomial(0, (1,), 1, 3, (2,)))
    z = 1 + s1 * _minus_exp_iu(3, (2,))  # 1 + s q, both parts nonzero
    assert not z.is_real()
    inv = z.inverse()
    assert len(calls) == 1
    assert calls[0] == z.norm()
    assert z * inv == 1
    assert len(calls) == 1
    assert 1 / z == inv and len(calls) == 2


def test_equal_values_hash_equal():
    shape = (2, (1, 1))
    poly = Poly2.linear(1, 1)
    assert poly == RatFunc2(poly) and RatFunc2(poly) == poly
    assert len({poly, RatFunc2(poly)}) == 1
    assert len({RatFunc2.const(2), 2, Fraction(2)}) == 1
    assert len({RatFunc2.const(2), Poly2.monomial(0, 0, 2)}) == 1
    assert len({GaussRational(2), 2}) == 1
    assert len({TruncSeries.one(*shape), 1}) == 1
    assert len({GaussRational(TruncSeries.const(Fraction(1, 2), *shape)), Fraction(1, 2)}) == 1
    series_parts = GaussRational(TruncSeries.const(1, *shape), TruncSeries.const(-3, *shape))
    assert len({series_parts, GaussRational(1, -3)}) == 1
    rng = random.Random(83)
    values = [0, 1, -2, Fraction(3, 4), GaussRational(0, 1)]
    for _ in range(20):
        c = random_fraction(rng)
        values += [c, RatFunc2.const(c), Poly2.monomial(0, 0, c), GaussRational(c)]
        values.append(TruncSeries.const(c, *shape))
        f = random_ratfunc(rng)
        values += [f, f.num, RatFunc2(f.num), TruncSeries.const(f, *shape)]
    for x in values:
        for y in values:
            if x == y:
                assert hash(x) == hash(y), (x, y)


def test_small_multiples_of_a_polynomial_hash_apart():
    # CPython hashes the int -1 as -2; (t1+t2)*c must not meet (t1+t2)*c' there
    theta = Poly2.linear(1, 1)
    multiples = [theta.scale(Fraction(c)) for c in (1, -1, 2, -2, 3, -3, 4, -4)]
    assert len({hash(p) for p in multiples}) == len(multiples)
    assert len({hash(RatFunc2(p)) for p in multiples}) == len(multiples)
    assert len({hash(RatFunc2(p, T1P * T2P)) for p in multiples}) == len(multiples)
    assert hash(Poly2.monomial(0, 0, -1)) == hash(-1)  # a constant hashes as its value
