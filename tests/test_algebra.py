"""Exact-arithmetic foundation: polynomials, rational functions, series,
closed-form expansion, characteristic polynomials."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    conjugate,
    evaluate_ratfunc,
    random_fraction,
    random_nonzero_poly2,
    random_poly2,
    random_ratfunc,
    random_series,
)
from symprod.algebra import (
    GaussRational,
    I,
    Poly1,
    Poly2,
    RatFunc2,
    TruncSeries,
    char_poly_squarefree,
    expand_q_closed_form,
    poly2_divexact,
    poly2_from_text,
    poly2_gcd,
    poly2_to_text,
    ratfunc_from_text,
    ratfunc_to_text,
)
from symprod.errors import (
    EmptyOrderError,
    MalformedInputError,
    PoleAtOriginError,
    RealnessViolationError,
    ShapeError,
)

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
        b = random_nonzero_poly2(rng)
        g = random_nonzero_poly2(rng, 2, 2)
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
        scale = random_nonzero_poly2(rng, 2, 2)
        g = RatFunc2(f.num * scale, f.den * scale)
        assert f == g
        assert f.num * g.den == g.num * f.den


def test_ratfunc_text_roundtrip():
    rng = random.Random(17)
    for _ in range(40):
        f = random_ratfunc(rng)
        assert ratfunc_from_text(ratfunc_to_text(f)) == f
    assert poly2_from_text(poly2_to_text(Poly2.zero())) == Poly2.zero()


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
    calls.clear()
    products = [
        f * 3,
        f * RatFunc2.const(Fraction(2, 3)),
        RatFunc2.const(-5) * f,
        -f,
        series.scale(RatFunc2.const(Fraction(-1, 2))),
        series.scale(7),
    ]
    assert calls == []
    assert products[0] == RatFunc2(T1P * T1P * 3 + T2P * 3, T1P - T2P)
    # the counter sees the general route
    assert f * f == RatFunc2(f.num * f.num, f.den * f.den) and calls


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


# ---------------------------------------------------------------------------
# truncated series
# ---------------------------------------------------------------------------

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
    for _ in range(25):
        a = random_series(rng)
        b = random_series(rng)
        c = random_series(rng)
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
    # a GaussRational on the left defers to the series' reflected operator
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
