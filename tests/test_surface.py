"""Localized geometry of the chain of (-2)-curves."""

from fractions import Fraction

import pytest

from helpers import ratfunc_subs_t2_minus_t1
from symprod.algebra import Poly2, RatFunc2
from symprod.chenruan import expand, gram_inverse, gram_matrix, pairing
from symprod.errors import MalformedInputError, UnsupportedWeightError
from symprod.invariants import (
    connected_two_point,
    disconnected_two_point,
    three_point_divisor_series,
    two_point_scalars,
    two_point_series,
)
from symprod.operators import default_divisor_basis, divisor_operator
from symprod.partitions import ONE, ecurve, fixedpt, omega
from symprod.surface import (
    beta_as_chain,
    chain_degrees,
    check_label,
    class_of,
    e_chain,
    e_dot,
    integrate,
    intersection_number,
    tangent_weights,
)

THETA = Poly2.linear(1, 1)


def test_tangent_weights_r1():
    w = tangent_weights(1)
    assert w[0][0] == Poly2.linear(2, 0)
    assert w[0][1] == Poly2.linear(-1, 1)
    assert w[1][0] == Poly2.linear(1, -1)
    assert w[1][1] == Poly2.linear(0, 2)


def test_tangent_weights_r2_corner():
    w = tangent_weights(2)
    assert w[0][0] == Poly2.linear(3, 0)
    assert w[2][1] == Poly2.linear(0, 3)


def test_tangent_weight_identities():
    for r in range(1, 7):
        w = tangent_weights(r)
        assert w[0][0] == Poly2.linear(r + 1, 0)
        assert w[r][1] == Poly2.linear(0, r + 1)
        for left, right, _ in w:
            assert left + right == THETA
        for i in range(1, r + 1):
            assert w[i - 1][1] == -w[i][0]


def test_localized_gram_is_intersection_matrix():
    for r in range(1, 7):
        curves = [class_of(ecurve(i), r) for i in range(1, r + 1)]
        for i in range(r):
            for j in range(r):
                assert integrate(curves[i], curves[j]) == RatFunc2.const(
                    intersection_number(i + 1, j + 1)
                ), (r, i, j)


def test_omega_duality():
    for r in range(1, 9):
        for k in range(1, r + 1):
            om = class_of(omega(k), r)
            for j in range(1, r + 1):
                want = RatFunc2.const(int(j == k))
                assert integrate(om, class_of(ecurve(j), r)) == want


def test_integrate_examples():
    x1 = class_of(fixedpt(1), 1)
    assert integrate(x1, x1) == tangent_weights(1)[0][2]
    one = class_of(ONE, 1)
    assert integrate(one, one) == RatFunc2.one() / RatFunc2(
        Poly2.monomial(1, 1, 2)
    )
    assert integrate(x1, one) == RatFunc2.one()
    assert integrate(class_of(ecurve(1), 1), one).is_zero()


def test_tangent_product_mod_theta():
    # L_k R_k = -(r+1)^2 t1^2 modulo t1 + t2
    for r in range(1, 7):
        for k, (_, _, lr) in enumerate(tangent_weights(r), start=1):
            num, den = ratfunc_subs_t2_minus_t1(lr)
            assert den == [Fraction(1)]
            tau = [Fraction(0), Fraction(0), Fraction(-((r + 1) ** 2))]
            assert num == tau, (r, k)


def test_curve_exponents():
    # a curve class is its vector of s_1..s_r exponents
    assert e_chain(1, 2, 3, 3) == (3, 3, 0)
    assert e_chain(2, 2, 1, 3) == (0, 1, 0)
    with pytest.raises(ValueError):
        e_chain(2, 1, 1, 3)


def test_chain_degrees():
    # every chain that fits the box, with d from 1 to the smallest s-order it spans
    assert chain_degrees((2, 0, 1)) == {
        (1, 1): ((1, (1, 0, 0)), (2, (2, 0, 0))),
        (3, 3): ((1, (0, 0, 1)),),
    }
    assert chain_degrees((1, 1)) == {
        (1, 1): ((1, (1, 0)),),
        (1, 2): ((1, (1, 1)),),
        (2, 2): ((1, (0, 1)),),
    }
    assert chain_degrees((3,)) == {(1, 1): ((1, (1,)), (2, (2,)), (3, (3,)))}
    assert chain_degrees((0,)) == {}
    assert list(chain_degrees((1, 1, 1))) == [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]


def test_beta_as_chain():
    assert beta_as_chain((2, 2, 0)) == (1, 2, 2)
    assert beta_as_chain((0, 5, 0)) == (2, 2, 5)
    assert beta_as_chain((0, 0, 0)) is None
    assert beta_as_chain((1, 0, 1)) is None  # support gap
    assert beta_as_chain((1, 2, 0)) is None  # non-constant
    assert beta_as_chain((-1, 0, 0)) is None  # not effective


def test_e_dot_examples():
    assert e_dot(ecurve(1), 1, 1) == -2
    assert e_dot(ecurve(1), 1, 2) == -1
    assert e_dot(ONE, 1, 3) == 0
    assert e_dot(omega(2), 1, 3) == 1
    assert e_dot(omega(4), 1, 3) == 0
    assert e_dot(ecurve(3), 1, 1) == 0


def test_e_dot_rejects_nondivisors():
    with pytest.raises(UnsupportedWeightError):
        e_dot(fixedpt(1), 1, 1)


def test_label_index_checked_against_r():
    for label in (ecurve(0), ecurve(2), omega(2), fixedpt(0), fixedpt(3)):
        with pytest.raises(MalformedInputError):
            check_label(label, 1)
        with pytest.raises(MalformedInputError):
            class_of(label, 1)
    for label in (ONE, ecurve(1), omega(1), fixedpt(1), fixedpt(2)):
        check_label(label, 1)


_ONE_1 = ((1, ONE),)  # 1(1): its 1-label passes every label check at any r
_POINT_CLASS = (RatFunc2.one(),)  # a class on one fixed point, so r = 0


_RANK_ZERO_CALLS = [
    (class_of, (ONE, 0)),
    (integrate, (_POINT_CLASS, _POINT_CLASS)),
    (expand, (_ONE_1, 0)),
    (pairing, (_ONE_1, _ONE_1, 0)),
    (gram_matrix, ([_ONE_1], 0)),
    (gram_inverse, ([_ONE_1], 0)),
    (two_point_scalars, (_ONE_1, _ONE_1, (0,), (), 0)),
    (two_point_series, (_ONE_1, _ONE_1, 1, ())),
    (three_point_divisor_series, (_ONE_1, "D1", _ONE_1, 1, ())),
    (connected_two_point, (_ONE_1, _ONE_1, 0, ())),
    (disconnected_two_point, (_ONE_1, _ONE_1, 0, ())),
    (divisor_operator, (1, 0, "(2)", [_ONE_1], 1, ())),
    (default_divisor_basis, (2, 0)),
    (tangent_weights, (0,)),
]


@pytest.mark.parametrize(
    "fn, args", [pytest.param(fn, args, id=fn.__name__) for fn, args in _RANK_ZERO_CALLS]
)
def test_rank_below_one_is_rejected(fn, args):
    # the rank is an int r, or read off the s-orders, beta or the class tuple
    with pytest.raises(ValueError, match="^r must be at least 1$"):
        fn(*args)


@pytest.mark.parametrize(
    "read, key",
    [
        pytest.param(lambda: expand(((2, ecurve(1)),), 1), ((2,), ()), id="expand"),
        pytest.param(lambda: chain_degrees((1,)), (1, 1), id="chain_degrees"),
        pytest.param(lambda: tangent_weights(1), 0, id="tangent_weights"),
    ],
)
def test_memoised_surface_data_is_read_only(read, key):
    # every caller shares a memo's value, so no caller may change it for the others
    value = read()
    before = value[key]
    with pytest.raises(TypeError):
        value[key] = RatFunc2.const(7)
    assert read()[key] == before
