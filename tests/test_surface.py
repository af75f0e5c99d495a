"""Localized geometry of the chain of (-2)-curves."""

from fractions import Fraction

import pytest

from helpers import ratfunc_subs_t2_minus_t1
from symprod.algebra import Poly2, RatFunc2
from symprod.errors import MalformedInputError, UnsupportedWeightError
from symprod.partitions import ONE, ecurve, fixedpt, omega
from symprod.surface import (
    beta_as_chain,
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
    assert w.L(1) == Poly2.linear(2, 0)
    assert w.R(1) == Poly2.linear(-1, 1)
    assert w.L(2) == Poly2.linear(1, -1)
    assert w.R(2) == Poly2.linear(0, 2)


def test_tangent_weights_r2_corner():
    w = tangent_weights(2)
    assert w.L(1) == Poly2.linear(3, 0)
    assert w.R(3) == Poly2.linear(0, 3)


def test_tangent_weight_identities():
    for r in range(1, 7):
        w = tangent_weights(r)
        assert w.L(1) == Poly2.linear(r + 1, 0)
        assert w.R(r + 1) == Poly2.linear(0, r + 1)
        for i in w.points():
            assert w.L(i) + w.R(i) == THETA
        for i in range(1, r + 1):
            assert w.R(i) == -w.L(i + 1)


def test_localized_gram_is_intersection_matrix():
    for r in range(1, 7):
        w = tangent_weights(r)
        curves = [class_of(ecurve(i), w) for i in range(1, r + 1)]
        for i in range(r):
            for j in range(r):
                assert integrate(curves[i], curves[j], w) == RatFunc2.const(
                    intersection_number(i + 1, j + 1)
                ), (r, i, j)


def test_omega_duality():
    for r in range(1, 9):
        w = tangent_weights(r)
        for k in range(1, r + 1):
            om = class_of(omega(k), w)
            for j in range(1, r + 1):
                want = RatFunc2.const(int(j == k))
                assert integrate(om, class_of(ecurve(j), w), w) == want


def test_integrate_examples():
    w = tangent_weights(1)
    x1 = class_of(fixedpt(1), w)
    assert integrate(x1, x1, w) == w.LR(1)
    one = class_of(ONE, w)
    assert integrate(one, one, w) == RatFunc2.one() / RatFunc2(
        Poly2.monomial(1, 1, 2)
    )
    assert integrate(x1, one, w) == RatFunc2.one()
    assert integrate(class_of(ecurve(1), w), one, w).is_zero()


def test_tangent_product_mod_theta():
    # L_k R_k = -(r+1)^2 t1^2 modulo t1 + t2
    for r in range(1, 7):
        w = tangent_weights(r)
        for k in w.points():
            num, den = ratfunc_subs_t2_minus_t1(w.LR(k))
            assert den == [Fraction(1)]
            tau = [Fraction(0), Fraction(0), Fraction(-((r + 1) ** 2))]
            assert num == tau, (r, k)


def test_curve_exponents():
    # a curve class is its vector of s_1..s_r exponents
    assert e_chain(1, 2, 3, 3) == (3, 3, 0)
    assert e_chain(2, 2, 1, 3) == (0, 1, 0)
    with pytest.raises(ValueError):
        e_chain(2, 1, 1, 3)


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
    w = tangent_weights(1)
    for label in (ecurve(0), ecurve(2), omega(2), fixedpt(0), fixedpt(3)):
        with pytest.raises(MalformedInputError):
            check_label(label, 1)
        with pytest.raises(MalformedInputError):
            class_of(label, w)
    for label in (ONE, ecurve(1), omega(1), fixedpt(1), fixedpt(2)):
        check_label(label, 1)
