"""Connected/disconnected two-point invariants and divisor series."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    bitmask_disconnected,
    divisor_labels,
    poly2_subs_t2_minus_t1,
    random_weighted_partition,
    reference_connected_two_point,
)
from symprod.algebra import Poly2, RatFunc2
from symprod.errors import MalformedInputError, OutOfScopeError, UnsupportedWeightError
from symprod.invariants import (
    ZeroDegreeTable,
    connected_two_point,
    disconnected_two_point,
    three_point_divisor_series,
    two_point_series,
)
from symprod.partitions import ONE, ecurve, fixedpt, omega, partitions_of, weighted_partition
from symprod.surface import e_chain, tangent_weights
from symprod.textforms import wp_to_text

THETA = Poly2.linear(1, 1)


def wp(*pairs):
    return weighted_partition(pairs)


W1 = tangent_weights(1)
TWO_E1 = wp((2, ecurve(1)))
ONE_TWO_E1 = wp((1, ecurve(1)), (2, ecurve(1)))


def test_connected_basic_value():
    for d in (1, 2, 3):
        got = connected_two_point(TWO_E1, TWO_E1, 0, (d,), W1)
        assert got == THETA.scale(Fraction(4, d))


def test_connected_identity_weight_kills():
    got = connected_two_point(wp((2, ONE)), TWO_E1, 0, (1,), W1)
    assert got.is_zero()


def test_connected_parity_vanishing():
    assert connected_two_point(TWO_E1, TWO_E1, 1, (1,), W1).is_zero()


def test_connected_negative_a_is_zero():
    assert connected_two_point(TWO_E1, TWO_E1, -1, (1,), W1).is_zero()


def test_connected_rejects_fixed_point_weights():
    with pytest.raises(UnsupportedWeightError):
        connected_two_point(wp((2, fixedpt(1))), TWO_E1, 0, (1,), W1)


def test_connected_degree_zero_out_of_scope():
    with pytest.raises(OutOfScopeError):
        connected_two_point(TWO_E1, TWO_E1, 0, (0,), W1)
    with pytest.raises(OutOfScopeError):
        disconnected_two_point(TWO_E1, TWO_E1, 2, (0,), W1)


def test_connected_symmetry_random():
    rng = random.Random(71)
    for _ in range(30):
        r = rng.randint(1, 2)
        w = tangent_weights(r)
        k = rng.randint(1, 4)
        labels = divisor_labels(r)
        mu = random_weighted_partition(rng, k, labels)
        nu = random_weighted_partition(rng, k, labels)
        a = rng.randint(0, 3)
        i = rng.randint(1, r)
        j = rng.randint(i, r)
        beta = e_chain(i, j, rng.randint(1, 3), r)
        assert connected_two_point(mu, nu, a, beta, w) == connected_two_point(
            nu, mu, a, beta, w
        )


def _divisor_label(r):
    return st.one_of(st.just(ONE), st.integers(1, r).map(ecurve), st.integers(1, r).map(omega))


@st.composite
def _connected_case(draw):
    r = draw(st.integers(1, 3))
    # the identity weight kills a connected piece, so draw it less often
    labels = st.one_of(_divisor_label(r), st.integers(1, r).map(ecurve), st.integers(1, r).map(omega))
    n = draw(st.sampled_from((3, 2, 4, 1, 0)))
    mu = weighted_partition((p, draw(labels)) for p in draw(st.sampled_from(partitions_of(n))))
    nu = weighted_partition((p, draw(labels)) for p in draw(st.sampled_from(partitions_of(n))))
    a = draw(st.integers(-1, 4))
    lowest = len(mu) + len(nu) - 2  # the least a with nonzero Hurwitz factors
    if lowest <= 4 and draw(st.booleans()):
        a = draw(st.sampled_from(range(lowest, 5, 2)))
    if draw(st.integers(0, 2)):
        i = draw(st.integers(1, r))
        beta = e_chain(i, draw(st.integers(i, r)), draw(st.integers(1, 3)), r)
    else:  # any vector: gaps, unequal coefficients and beta = 0 included
        beta = tuple(draw(st.lists(st.sampled_from((1, 2, 0)), min_size=r, max_size=r)))
    return r, mu, nu, a, beta


def _outcome(fn, *args):
    try:
        return fn(*args)
    except OutOfScopeError:
        return OutOfScopeError


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_connected_case())
def test_connected_matches_reference_property(case):
    r, mu, nu, a, beta = case
    w = tangent_weights(r)
    assert _outcome(connected_two_point, mu, nu, a, beta, w) == _outcome(
        reference_connected_two_point, mu, nu, a, beta, w
    )


def test_connected_theta_divisible_polynomial():
    rng = random.Random(73)
    for _ in range(40):
        r = rng.randint(1, 2)
        w = tangent_weights(r)
        k = rng.randint(1, 4)
        labels = divisor_labels(r)
        mu = random_weighted_partition(rng, k, labels)
        nu = random_weighted_partition(rng, k, labels)
        a = rng.randint(0, 4)
        beta = e_chain(1, 1, rng.randint(1, 2), r)
        val = connected_two_point(mu, nu, a, beta, w)
        # polynomial output, and substituting t2 = -t1 kills it
        assert poly2_subs_t2_minus_t1(val) == []


def test_disconnected_single_parts_equal_connected():
    rng = random.Random(79)
    for _ in range(15):
        r = rng.randint(1, 2)
        w = tangent_weights(r)
        labels = divisor_labels(r)
        k = rng.randint(1, 3)
        mu = wp((k, rng.choice(labels)))
        nu = wp((k, rng.choice(labels)))
        a = rng.randint(0, 3)
        beta = e_chain(1, r, rng.randint(1, 2), r)
        assert disconnected_two_point(mu, nu, a, beta, w) == RatFunc2(
            connected_two_point(mu, nu, a, beta, w)
        )


def test_disconnected_three_point_example():
    for d in (1, 2):
        got = disconnected_two_point(ONE_TWO_E1, ONE_TWO_E1, 0, (d,), W1)
        assert got == RatFunc2(THETA.scale(Fraction(-12, d)))


def test_disconnected_no_common_splitting():
    w2 = tangent_weights(2)
    left = wp((1, ecurve(1)), (1, ecurve(1)), (1, ecurve(1)))
    right = wp((3, ecurve(1)))
    # only the empty theta matches, and the full connected term vanishes
    # (a 3-cycle cannot multiply with an identity profile to 1 transposition-free)
    got = disconnected_two_point(left, right, 0, (1, 0), w2)
    assert got.is_zero()


def test_disconnected_vanishes_off_chains():
    w3 = tangent_weights(3)
    left = wp((2, ecurve(1)))
    for beta in [(1, 0, 1), (1, 2, 0), (0, 0, 0, 0)[:3]]:
        if not any(beta):
            continue
        assert disconnected_two_point(left, left, 0, beta, w3).is_zero()


def test_disconnected_bitmask_oracle():
    # independent splitting enumeration over slot bitmasks
    rng = random.Random(83)
    for _ in range(20):
        r = rng.randint(1, 2)
        w = tangent_weights(r)
        labels = divisor_labels(r)
        n = rng.randint(1, 3)
        mu1 = random_weighted_partition(rng, n, labels)
        mu2 = random_weighted_partition(rng, n, labels)
        a = rng.randint(0, 2)
        beta = e_chain(1, 1, rng.randint(1, 2), r)
        assert bitmask_disconnected(mu1, mu2, a, beta, w) == disconnected_two_point(
            mu1, mu2, a, beta, w
        )


def test_two_point_series_layers():
    series = two_point_series(TWO_E1, TWO_E1, 2, (3,), W1)
    for d in (1, 2, 3):
        assert series.coefficient(0, (d,)) == RatFunc2(THETA.scale(Fraction(4, d)))
        assert series.coefficient(1, (d,)).is_zero()  # parity
        # cosine layer: u^2 coefficient is -theta*d
        assert series.coefficient(2, (d,)) == RatFunc2(THETA.scale(-d))
    assert series.coefficient(0, (0,)).is_zero()  # no degree-zero column


@st.composite
def _series_case(draw):
    r = draw(st.sampled_from((3, 2, 1)))  # r = 3 first: its long chains are the rare case
    labels = _divisor_label(r)
    n = draw(st.integers(1, 3))
    mu1 = weighted_partition((p, draw(labels)) for p in draw(st.sampled_from(partitions_of(n))))
    # half the cases share mu1's cycle type, so whole-partition splittings match
    lam = [p for p, _ in mu1] if draw(st.booleans()) else draw(st.sampled_from(partitions_of(n)))
    mu2 = weighted_partition((p, draw(labels)) for p in lam)
    u_order = draw(st.integers(0, 2))
    s_orders = tuple(draw(st.lists(st.sampled_from((2, 1, 0)), min_size=r, max_size=r)))
    return r, mu1, mu2, u_order, s_orders


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(_series_case())
def test_two_point_series_matches_bitmask_oracle_property(case):
    r, mu1, mu2, u_order, s_orders = case
    w = tangent_weights(r)
    series = two_point_series(mu1, mu2, u_order, s_orders, w)
    expected = {}
    # the whole box: off-chain degrees must come out zero, beta = 0 absent
    for exps in product(*(range(d + 1) for d in s_orders)):
        if not any(exps):
            continue
        for a in range(u_order + 1):
            val = bitmask_disconnected(mu1, mu2, a, exps, w)
            if not val.is_zero():
                expected[(a, exps)] = val
    assert series.coeffs == expected


def test_two_point_series_r2_support():
    w2 = tangent_weights(2)
    left = wp((2, ecurve(1)))
    series = two_point_series(left, left, 0, (2, 2), w2)
    # E_11 chain: (E_11.E_1)^2 = 4; adjacent and mixed chains meet E_1 once
    assert series.coefficient(0, (1, 0)) == RatFunc2(THETA.scale(4))
    assert series.coefficient(0, (0, 1)) == RatFunc2(THETA)
    assert series.coefficient(0, (1, 1)) == RatFunc2(THETA)
    assert series.coefficient(0, (0, 2)) == RatFunc2(THETA.scale(Fraction(1, 2)))


def test_three_point_s_scale():
    res = three_point_divisor_series(TWO_E1, "D1", TWO_E1, 0, (3,), W1, None)
    assert res.gap  # no table supplied
    for d in (1, 2, 3):
        assert res.series.coefficient(0, (d,)) == RatFunc2(THETA.scale(4))


def test_three_point_derivative_parity():
    res = three_point_divisor_series(TWO_E1, "(2)", TWO_E1, 3, (2,), W1, None)
    # u-even two-point function differentiates to a u-odd series
    for a, ds, _ in res.series.monomials():
        assert a % 2 == 1


def test_three_point_table_only_touches_degree_zero():
    table = ZeroDegreeTable()
    table.set(wp_to_text(TWO_E1), "D1", wp_to_text(TWO_E1), [(0, RatFunc2.const(7))])
    res = three_point_divisor_series(TWO_E1, "D1", TWO_E1, 1, (2,), W1, table)
    assert not res.gap
    assert res.series.coefficient(0, (0,)) == RatFunc2.const(7)
    # nonzero-degree layers agree with the tableless run
    bare = three_point_divisor_series(TWO_E1, "D1", TWO_E1, 1, (2,), W1, None)
    for d in (1, 2):
        for a in (0, 1):
            assert res.series.coefficient(a, (d,)) == bare.series.coefficient(a, (d,))


def test_three_point_gap_reports_key():
    res = three_point_divisor_series(TWO_E1, "D1", TWO_E1, 0, (1,), W1, ZeroDegreeTable())
    assert res.gap
    assert res.missing_key == (wp_to_text(TWO_E1), "D1", wp_to_text(TWO_E1))


def test_table_json_roundtrip(tmp_path):
    table = ZeroDegreeTable()
    table.set("2(E1)", "D1", "2(1)", [(0, RatFunc2.one()), (2, RatFunc2.const(Fraction(1, 3)))])
    table.set("2(E1)", "1", "2(E1)", [(0, RatFunc2.const(-1))])
    path = tmp_path / "table.json"
    table.save(path)
    loaded = ZeroDegreeTable.load(path)
    assert loaded.entries == table.entries
    # symmetric lookup
    assert loaded.get(wp((2, ONE)), "D1", wp((2, ecurve(1)))) is not None
    # stable bytes
    table.save(tmp_path / "again.json")
    assert (tmp_path / "table.json").read_text() == (tmp_path / "again.json").read_text()


def test_table_keys_canonical():
    table = ZeroDegreeTable()
    table.set("1(E1)+1(1)", "D1", " 2(E1) ", [(0, RatFunc2.one())])
    assert set(table.entries) == {("1(1)+1(E1)", "D1", "2(E1)")}
    assert table.get(wp((1, ONE), (1, ecurve(1))), "D1", TWO_E1) is not None


@pytest.mark.parametrize(
    "left, divisor, right",
    [
        ("2(Q1)", "D1", "2(E1)"),  # unparsable key
        ("2(E0)", "D1", "2(E1)"),  # index 0 is out of range for every r
        ("1(x0)+1(1)", "D1", "2(E1)"),
        ("2(E1)", "D1", "2(w0)"),
        ("2(E1)", "D1", "2+E1"),
        ("2(E1)", "D0", "2(E1)"),  # unknown divisors
        ("2(E1)", "(2)", "2(E1)"),
        ("2(E1)", "E1", "2(E1)"),
        (2, "D1", "2(E1)"),  # not a string
    ],
)
def test_table_set_rejects_bad_keys(left, divisor, right):
    with pytest.raises(MalformedInputError):
        ZeroDegreeTable().set(left, divisor, right, [(0, RatFunc2.one())])


@pytest.mark.parametrize(
    "payload",
    [
        [1, 2],
        {},
        {"entries": {"left": "2(E1)"}},
        {"entries": [[1, 2]]},
        {"entries": [{"left": "2(E1)", "divisor": "D1", "right": "2(E1)"}]},
        {"entries": [{"left": "2(E1)", "divisor": "D1", "right": "2(E1)", "series": 5}]},
        {"entries": [{"left": "2(E1)", "divisor": "D1", "right": "2(E1)",
                      "series": [[0, "1/0"]]}]},
        {"entries": [{"left": "2(E1)", "divisor": "D1", "right": "2(E1)",
                      "series": [[0, 7]]}]},
        {"entries": [{"left": "2(E1)", "divisor": "D9x", "right": "2(E1)",
                      "series": [[0, "1"]]}]},
    ],
)
def test_table_from_json_rejects_bad_schema(payload):
    with pytest.raises(MalformedInputError):
        ZeroDegreeTable.from_json(payload)


@pytest.mark.parametrize(
    "series",
    [
        [[0.5, "1"]],  # not an integer
        [[1.0, "1"]],
        [[True, "1"]],  # a boolean is not an exponent
        [["2", "1"]],  # nor is a string
        [[None, "1"]],
        [[-1, "1"]],  # negative
        [[0, "1"], [0, "2"]],  # repeated
        [[2, "1"], [0, "3"], [2, "1"]],
    ],
)
def test_table_from_json_rejects_bad_exponents(series):
    payload = {"entries": [
        {"left": "2(E1)", "divisor": "D1", "right": "2(E1)", "series": series}
    ]}
    with pytest.raises(MalformedInputError, match="exponent"):
        ZeroDegreeTable.from_json(payload)


def test_table_from_json_keeps_integer_exponents():
    payload = {"entries": [
        {"left": "2(E1)", "divisor": "D1", "right": "2(E1)", "series": [[2, "1"], [0, "3"]]}
    ]}
    table = ZeroDegreeTable.from_json(payload)
    assert table.entries == {
        ("2(E1)", "D1", "2(E1)"): ((2, RatFunc2.one()), (0, RatFunc2.const(3)))
    }


@pytest.mark.parametrize(
    "pairs",
    [
        [(-1, 1), (0.5, 2), (0, 3)],  # int() used to store -1, 0, 0
        [(0.5, 1)],
        [(True, 1)],
        [("2", 1)],
        [(0, 1), (0, 2)],
    ],
)
def test_table_set_rejects_bad_exponents(pairs):
    with pytest.raises(MalformedInputError, match="exponent"):
        ZeroDegreeTable().set("2(E1)", "D1", "2(E1)", pairs)
    with pytest.raises(MalformedInputError, match="exponent"):
        ZeroDegreeTable({("2(E1)", "D1", "2(E1)"): pairs})


def test_table_set_keeps_integer_exponents():
    table = ZeroDegreeTable({("2(E1)", "D1", "2(E1)"): [(2, 1), (0, Fraction(1, 3))]})
    assert table.entries == {
        ("2(E1)", "D1", "2(E1)"): ((2, RatFunc2.one()), (0, RatFunc2.const(Fraction(1, 3))))
    }


def test_table_from_json_canonicalises_keys():
    payload = {"entries": [
        {"left": "1(E1)+1(1)", "divisor": "1", "right": "2(E1)", "series": [[0, "3"]]}
    ]}
    table = ZeroDegreeTable.from_json(payload)
    assert table.entries == {("1(1)+1(E1)", "1", "2(E1)"): ((0, RatFunc2.const(3)),)}


def test_mismatched_sizes_rejected():
    with pytest.raises(ValueError):
        connected_two_point(TWO_E1, wp((3, ecurve(1))), 0, (1,), W1)
    with pytest.raises(ValueError):
        disconnected_two_point(TWO_E1, wp((1, ONE)), 0, (1,), W1)


def test_two_point_series_checks_inputs_without_chains():
    # an s-box with no chain still rejects what no box could accept
    with pytest.raises(UnsupportedWeightError):
        two_point_series(wp((2, fixedpt(1))), wp((2, fixedpt(1))), 1, (0,), W1)
    with pytest.raises(ValueError, match="equal size"):
        two_point_series(TWO_E1, wp((1, ONE)), 1, (0,), W1)


def test_disconnected_rejects_label_out_of_range():
    with pytest.raises(MalformedInputError):
        disconnected_two_point(wp((2, ecurve(5))), TWO_E1, 0, (1,), W1)


def test_two_point_series_rejects_label_out_of_range():
    with pytest.raises(MalformedInputError):
        two_point_series(wp((2, ecurve(5))), TWO_E1, 0, (3,), W1)
    with pytest.raises(MalformedInputError):
        two_point_series(TWO_E1, wp((1, ONE), (1, ecurve(2))), 0, (3,), W1)


def test_three_point_rejects_divisor_out_of_range():
    for divisor in ("D0", "D2", "D3"):
        with pytest.raises(ValueError, match="out of range"):
            three_point_divisor_series(TWO_E1, divisor, TWO_E1, 1, (1,), W1, None)
