"""Connected/disconnected two-point invariants and divisor series."""

import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    _chain_factor,
    _degree_factor,
    _piece,
    _piece_factors,
    bitmask_disconnected,
    divisor_labels,
    fraction_chain_factors,
    fraction_degree_factors,
    fraction_two_point_column,
    map_labellings,
    matched_pair_two_point_scalars,
    poly2_subs_t2_minus_t1,
    random_weighted_partition,
    reference_connected_two_point,
)
import symprod.invariants as invariants
from symprod import clear_caches
from symprod.algebra import Poly2, RatFunc2, TruncSeries
from symprod.errors import MalformedInputError, OutOfScopeError, UnsupportedWeightError
from symprod.invariants import (
    ThreePointResult,
    ZeroDegreeTable,
    connected_two_point,
    disconnected_two_point,
    three_point_divisor_series,
    two_point_series,
)
from symprod.operators import default_divisor_basis, divisor_operator, zero_degree_table_a1n2
from symprod.partitions import (
    ONE,
    aut_order,
    ecurve,
    fixedpt,
    labellings,
    omega,
    partitions_of,
    underlying,
    weighted_partition,
)
from symprod.surface import e_chain
from symprod.textforms import wp_to_text

THETA = Poly2.linear(1, 1)


def wp(*pairs):
    return weighted_partition(pairs)


TWO_E1 = wp((2, ecurve(1)))
ONE_TWO_E1 = wp((1, ecurve(1)), (2, ecurve(1)))


def test_connected_basic_value():
    for d in (1, 2, 3):
        got = connected_two_point(TWO_E1, TWO_E1, 0, (d,))
        assert got == THETA.scale(Fraction(4, d))


def test_connected_identity_weight_kills():
    got = connected_two_point(wp((2, ONE)), TWO_E1, 0, (1,))
    assert got.is_zero()


def test_connected_parity_vanishing():
    assert connected_two_point(TWO_E1, TWO_E1, 1, (1,)).is_zero()


def test_connected_negative_a_is_zero():
    assert connected_two_point(TWO_E1, TWO_E1, -1, (1,)).is_zero()


def test_connected_rejects_fixed_point_weights():
    with pytest.raises(UnsupportedWeightError):
        connected_two_point(wp((2, fixedpt(1))), TWO_E1, 0, (1,))


def test_connected_degree_zero_out_of_scope():
    with pytest.raises(OutOfScopeError):
        connected_two_point(TWO_E1, TWO_E1, 0, (0,))
    with pytest.raises(OutOfScopeError):
        disconnected_two_point(TWO_E1, TWO_E1, 2, (0,))


def test_connected_symmetry_random():
    rng = random.Random(71)
    for _ in range(30):
        r = rng.randint(1, 2)
        k = rng.randint(1, 4)
        labels = divisor_labels(r)
        mu = random_weighted_partition(rng, k, labels)
        nu = random_weighted_partition(rng, k, labels)
        a = rng.randint(0, 3)
        i = rng.randint(1, r)
        j = rng.randint(i, r)
        beta = e_chain(i, j, rng.randint(1, 3), r)
        assert connected_two_point(mu, nu, a, beta) == connected_two_point(nu, mu, a, beta)


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
    _, mu, nu, a, beta = case
    assert _outcome(connected_two_point, mu, nu, a, beta) == _outcome(
        reference_connected_two_point, mu, nu, a, beta
    )


@st.composite
def _piece_factor_case(draw):
    r = draw(st.integers(1, 3))
    # the identity weight kills X, so draw it less often
    labels = st.one_of(_divisor_label(r), st.integers(1, r).map(ecurve), st.integers(1, r).map(omega))
    k = draw(st.integers(1, 6))
    nu1, nu2 = (
        weighted_partition((p, draw(labels)) for p in draw(st.sampled_from(partitions_of(k))))
        for _ in range(2)
    )
    every_chain = [(i, j) for i in range(1, r + 1) for j in range(i, r + 1)]
    chains = tuple(draw(st.lists(st.sampled_from(every_chain), min_size=1, unique=True)))
    lowest = len(nu1) + len(nu2) - 2  # the least a with nonzero Hurwitz factors
    a_values = tuple(draw(st.lists(st.integers(max(0, lowest - 2), lowest + 4), min_size=1)))
    return nu1, nu2, chains, a_values


def _exact_ints(*values) -> bool:
    """Every value is an int: not a bool, a float or a Fraction."""
    return all(type(v) is int for v in values)


def _degree_values(degs: tuple, a_values: tuple) -> list:
    """D's nonzero (a, num, den) triples read as one Fraction per a in
    a_values, zeros included, after checking that each is a reduced pair of
    ints with num != 0 < den."""
    for a, num, den in degs:
        assert _exact_ints(a, num, den)  # exact, never a float
        assert num and den > 0 and gcd(num, den) == 1, (a, num, den)
    values = {a: Fraction(num, den) for a, num, den in degs}
    return [values.get(a, Fraction(0)) for a in a_values]


def test_degree_factors_match_hurwitz_convolution_oracle():
    """D from the memoised Hurwitz rows equals (-1)^g k^(2-a) times the
    convolution oracle for every |mu| = |nu| <= 6 and a <= 12 (2,717 cases);
    rows grown one a at a time and read all at once agree, and only the
    nonzero values are listed, in the order of a."""
    clear_caches()
    a_values = tuple(range(13))
    cases = nonzero = 0
    for k in range(1, 7):
        for mu in partitions_of(k):
            for nu in partitions_of(k):
                want = list(fraction_degree_factors(mu, nu, a_values))
                got = [
                    _degree_values(invariants._degree_factors(mu, nu, (a,)), (a,))[0]
                    for a in a_values
                ]
                assert got == want, (mu, nu)
                degs = invariants._degree_factors(mu, nu, a_values)
                assert _degree_values(degs, a_values) == want
                assert [a for a, _, _ in degs] == [a for a, v in zip(a_values, want) if v]
                cases += len(a_values)
                nonzero += sum(1 for v in want if v)
    assert (cases, nonzero) == (2717, 1005)


def test_degree_factors_call_each_hurwitz_number_once(monkeypatch):
    """The operator path asks one_part_double_hurwitz for each (sigma, b) once."""
    calls = []
    hurwitz = invariants.one_part_double_hurwitz

    def counted(sigma, b):
        calls.append((sigma, b))
        return hurwitz(sigma, b)

    monkeypatch.setattr(invariants, "one_part_double_hurwitz", counted)
    clear_caches()
    divisor_operator(4, 1, "D1", default_divisor_basis(4, 1), 4, (4,))
    assert calls
    assert len(calls) == len(set(calls))


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(_piece_factor_case())
@example((wp((1, ONE), (2, omega(1))), wp((3, ecurve(1))), ((1, 1),), (0, 1, 2, 3)))
@example((wp((1, omega(2)), (1, ecurve(3)), (2, ecurve(2))), wp((2, omega(2)), (2, ecurve(1))),
          ((1, 3), (2, 2), (2, 3)), (2, 3, 4)))
def test_piece_factors_separate_property(case):
    """X(nu1) X(nu2) D(underlying nu1, underlying nu2, a) is the per-pair
    chain factor times the per-pair degree factor of the piece <nu1, nu2>."""
    nu1, nu2, chains, a_values = case
    xs1, xs2 = (invariants._chain_factors(nu, chains) for nu in (nu1, nu2))
    assert _exact_ints(*xs1, *xs2)  # exact, never a float
    degs = _degree_values(
        invariants._degree_factors(underlying(nu1), underlying(nu2), a_values), a_values
    )
    piece = _piece(nu1, nu2)
    assert [x1 * x2 for x1, x2 in zip(xs1, xs2)] == [_chain_factor(piece, i, j) for i, j in chains]
    assert degs == [_degree_factor(piece, a) for a in a_values]
    products = [x1 * x2 * y for x1, x2 in zip(xs1, xs2) for y in degs]
    want = _piece_factors(nu1, nu2, chains, a_values)
    if want is None:
        assert not any(products)
    else:
        crosses, want_degs = want
        assert products == [x * y for x in crosses for y in want_degs]


@st.composite
def _factor_case(draw):
    r = draw(st.integers(1, 4))
    labels = st.one_of(
        st.just(ONE), st.integers(1, r).map(ecurve), st.integers(1, r).map(omega)
    )
    k = draw(st.integers(1, 6))
    nu = weighted_partition((p, draw(labels)) for p in draw(st.sampled_from(partitions_of(k))))
    mu = draw(st.sampled_from(partitions_of(k)))
    every_chain = [(i, j) for i in range(1, r + 1) for j in range(i, r + 1)]
    chains = tuple(draw(st.lists(st.sampled_from(every_chain), min_size=1, unique=True)))
    a_values = tuple(draw(st.lists(st.integers(0, 12), min_size=1, max_size=13)))
    return nu, mu, chains, a_values


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_factor_case())
def test_integer_factors_match_fraction_oracles(case):
    """X is one int per chain and D one reduced int pair per nonzero a, equal
    as rationals to the Fraction formulas of the oracles, for r <= 4, the
    labels 1, E and omega, and a <= 12 in any order, repeats included."""
    nu, mu, chains, a_values = case
    xs = invariants._chain_factors(nu, chains)
    assert _exact_ints(*xs)
    assert list(xs) == list(fraction_chain_factors(nu, chains))
    lam = underlying(nu)
    degs = invariants._degree_factors(mu, lam, a_values)
    assert _degree_values(degs, a_values) == list(fraction_degree_factors(mu, lam, a_values))


def test_factor_memos_hold_ints_only(monkeypatch):
    """Every value that the X, D and Hurwitz-row memos hand out while an
    operator is built is made of ints."""
    seen: dict = {}

    def recording(name):
        cached = getattr(invariants, name)

        def wrapper(*args):
            value = cached(*args)
            seen.setdefault(name, []).append(value)
            return value

        monkeypatch.setattr(invariants, name, wrapper)

    for name in ("_chain_factors", "_degree_factors", "_hurwitz_row"):
        recording(name)
    clear_caches()
    divisor_operator(3, 2, "(2)", default_divisor_basis(3, 2), 6, (2, 1))
    assert sorted(seen) == ["_chain_factors", "_degree_factors", "_hurwitz_row"]
    assert all(_exact_ints(*xs) for xs in seen["_chain_factors"])
    assert all(_exact_ints(*t) for degs in seen["_degree_factors"] for t in degs)
    assert any(seen["_degree_factors"])
    assert all(_exact_ints(den, *nums) and den > 0 for den, nums in seen["_hurwitz_row"])


@st.composite
def _column_case(draw):
    r = draw(st.integers(1, 3))
    labels = _divisor_label(r)
    n = draw(st.integers(1, 6))
    wp = weighted_partition((p, draw(labels)) for p in draw(st.sampled_from(partitions_of(n))))
    every_chain = [(i, j) for i in range(1, r + 1) for j in range(i, r + 1)]
    chains = tuple(draw(st.lists(st.sampled_from(every_chain), min_size=1, unique=True)))
    # any subset of 0..6, gaps between the a values included
    a_values = tuple(draw(st.lists(st.integers(0, 6), min_size=1, unique=True)))
    return wp, a_values, chains


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(_column_case())
@example((wp((1, ecurve(1)), (2, omega(2)), (3, ecurve(3))), (0, 2, 5, 6),
          ((1, 1), (1, 3), (2, 3))))
@example((wp((1, ONE), (1, ecurve(2)), (2, ecurve(1)), (2, omega(1))), (1, 3, 4), ((1, 2), (2, 2))))
def test_two_point_column_matches_fraction_oracle_property(case):
    """The integer accumulation of the column builder gives the values of
    the same sum taken one Fraction addend at a time."""
    wp_, a_values, chains = case
    got = invariants.two_point_column(wp_, a_values, chains)
    # each term (a, i, j, num, den) is a reduced integer pair with a positive
    # denominator, and its Fraction is the oracle's value
    for terms in got.values():
        assert type(terms) is tuple and terms
        for *_, num, den in terms:
            assert type(num) is int and type(den) is int
            assert num and den > 0 and gcd(num, den) == 1
    view = {b: {(a, i, j): Fraction(num, den) for a, i, j, num, den in terms}
            for b, terms in got.items()}
    assert view == fraction_two_point_column(wp_, a_values, chains)


@st.composite
def _labelling_case(draw):
    mu = draw(st.sampled_from(partitions_of(draw(st.integers(1, 6)))))
    i = draw(st.integers(1, 4))
    return mu, i, draw(st.integers(i, 4))


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(_labelling_case())
@example(((2, 2, 1, 1, 1, 1), 1, 4))
@example(((1, 1, 1, 1, 1, 1), 2, 4))
@example(((3,), 3, 3))
def test_labellings_match_map_enumeration(case):
    """Each distinct labelling of mu by E_i..E_j comes once, with the number
    of maps that give it, as counting every map shows; each is canonical,
    and so is every term B of the column terms built on it."""
    mu, i, j = case
    labels = tuple(map(ecurve, range(i, j + 1)))
    got = tuple((nu, aut_order(mu) // aut_order(nu)) for nu in labellings(mu, labels))
    assert Counter(got) == Counter(map_labellings(mu, i, j))
    assert len(got) == len({labelled for labelled, _ in got})
    assert sum(count for _, count in got) == (j - i + 1) ** len(mu)
    theta = wp((2, ONE), (1, ecurve(i)), (1, omega(j)))
    for labelled, _ in got:
        assert weighted_partition(labelled) == labelled
    terms = invariants._column_terms(theta, mu, i, j)
    assert len(terms) == len(got)
    for (b, weight), (labelled, count) in zip(terms, got):
        assert weighted_partition(b) == b == weighted_partition(theta + labelled)
        assert weight == count * aut_order(b)


def test_connected_theta_divisible_polynomial():
    rng = random.Random(73)
    for _ in range(40):
        r = rng.randint(1, 2)
        k = rng.randint(1, 4)
        labels = divisor_labels(r)
        mu = random_weighted_partition(rng, k, labels)
        nu = random_weighted_partition(rng, k, labels)
        a = rng.randint(0, 4)
        beta = e_chain(1, 1, rng.randint(1, 2), r)
        val = connected_two_point(mu, nu, a, beta)
        # polynomial output, and substituting t2 = -t1 kills it
        assert poly2_subs_t2_minus_t1(val) == []


def test_disconnected_single_parts_equal_connected():
    rng = random.Random(79)
    for _ in range(15):
        r = rng.randint(1, 2)
        labels = divisor_labels(r)
        k = rng.randint(1, 3)
        mu = wp((k, rng.choice(labels)))
        nu = wp((k, rng.choice(labels)))
        a = rng.randint(0, 3)
        beta = e_chain(1, r, rng.randint(1, 2), r)
        assert disconnected_two_point(mu, nu, a, beta) == RatFunc2(
            connected_two_point(mu, nu, a, beta)
        )


def test_disconnected_three_point_example():
    for d in (1, 2):
        got = disconnected_two_point(ONE_TWO_E1, ONE_TWO_E1, 0, (d,))
        assert got == RatFunc2(THETA.scale(Fraction(-12, d)))


def test_disconnected_no_common_splitting():
    left = wp((1, ecurve(1)), (1, ecurve(1)), (1, ecurve(1)))
    right = wp((3, ecurve(1)))
    # only the empty theta matches, and the full connected term vanishes
    # (a 3-cycle cannot multiply with an identity profile to 1 transposition-free)
    got = disconnected_two_point(left, right, 0, (1, 0))
    assert got.is_zero()


def test_disconnected_vanishes_off_chains():
    left = wp((2, ecurve(1)))
    for beta in [(1, 0, 1), (1, 2, 0), (0, 0, 0, 0)[:3]]:
        if not any(beta):
            continue
        assert disconnected_two_point(left, left, 0, beta).is_zero()


def test_disconnected_bitmask_oracle():
    # independent splitting enumeration over slot bitmasks
    rng = random.Random(83)
    for _ in range(20):
        r = rng.randint(1, 2)
        labels = divisor_labels(r)
        n = rng.randint(1, 3)
        mu1 = random_weighted_partition(rng, n, labels)
        mu2 = random_weighted_partition(rng, n, labels)
        a = rng.randint(0, 2)
        beta = e_chain(1, 1, rng.randint(1, 2), r)
        assert bitmask_disconnected(mu1, mu2, a, beta) == disconnected_two_point(
            mu1, mu2, a, beta
        )


def test_two_point_series_layers():
    series = two_point_series(TWO_E1, TWO_E1, 2, (3,))
    for d in (1, 2, 3):
        assert series.coefficient(0, (d,)) == RatFunc2(THETA.scale(Fraction(4, d)))
        assert series.coefficient(1, (d,)).is_zero()  # parity
        # cosine layer: u^2 coefficient is -theta*d
        assert series.coefficient(2, (d,)) == RatFunc2(THETA.scale(-d))
    assert series.coefficient(0, (0,)).is_zero()  # no degree-zero column


def _bitmask_series(mu1, mu2, u_order, s_orders):
    """The coefficients of two_point_series from the bitmask oracle."""
    expected = {}
    for exps in product(*(range(d + 1) for d in s_orders)):
        if not any(exps):
            continue
        for a in range(u_order + 1):
            val = bitmask_disconnected(mu1, mu2, a, exps)
            if not val.is_zero():
                expected[(a, exps)] = val
    return expected


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
    _, mu1, mu2, u_order, s_orders = case
    series = two_point_series(mu1, mu2, u_order, s_orders)
    # the whole box: off-chain degrees must come out zero, beta = 0 absent
    assert series.coeffs == _bitmask_series(mu1, mu2, u_order, s_orders)


@st.composite
def _scalar_form_case(draw):
    r = draw(st.integers(1, 3))
    labels = _divisor_label(r)
    n = draw(st.integers(1, 4))
    mu1 = weighted_partition((p, draw(labels)) for p in draw(st.sampled_from(partitions_of(n))))
    if draw(st.booleans()):
        # mu1's cycle type with its 1-labels kept and its divisors redrawn,
        # so whole-partition splittings match and the 1-label counts agree
        divisors = st.one_of(st.integers(1, r).map(ecurve), st.integers(1, r).map(omega))
        mu2 = weighted_partition(
            (p, label if label == ONE else draw(divisors)) for p, label in mu1
        )
    else:
        mu2 = weighted_partition(
            (p, draw(labels)) for p in draw(st.sampled_from(partitions_of(n)))
        )
    u_order = draw(st.integers(0, 2))
    s_orders = tuple(draw(st.lists(st.sampled_from((2, 1, 0)), min_size=r, max_size=r)))
    return r, mu1, mu2, u_order, s_orders


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(_scalar_form_case())
@example((1, wp((1, ONE), (1, ONE), (2, ecurve(1))), wp((1, ONE), (1, ONE), (2, omega(1))), 2, (1,)))
@example(
    (2, wp((1, ONE), (1, ecurve(2)), (2, ecurve(1))), wp((1, ONE), (1, ecurve(1)), (2, ecurve(2))),
     1, (1, 1))
)
def test_two_point_series_scalar_form_property(case):
    """Every coefficient is (t1+t2) c / (t1 t2)^k with k the number of
    1-labels, and the series is 0 when the two insertions' counts differ."""
    _, mu1, mu2, u_order, s_orders = case
    series = two_point_series(mu1, mu2, u_order, s_orders)
    k1, k2 = (sum(label == ONE for _, label in mu) for mu in (mu1, mu2))
    if k1 != k2:
        assert series.is_zero()
    for v in series.coeffs.values():
        assert v.den == Poly2.monomial(k1, k1)
        c = v.num.terms[(1, 0)]
        assert v.num == THETA.scale(c) and c


@st.composite
def _scalars_case(draw):
    r = draw(st.integers(1, 3))
    labels = _divisor_label(r)
    n = draw(st.integers(1, 5))
    mu1 = weighted_partition((p, draw(labels)) for p in draw(st.sampled_from(partitions_of(n))))
    # half the cases share mu1's cycle type, so both sides lie in one block
    lam = [p for p, _ in mu1] if draw(st.booleans()) else draw(st.sampled_from(partitions_of(n)))
    mu2 = weighted_partition((p, draw(labels)) for p in lam)
    return r, mu1, mu2


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(_scalars_case())
@example((2, wp((1, ONE), (2, ecurve(1))), wp((1, ecurve(2)), (2, ecurve(1)))))
@example((2, wp((1, ONE), (1, ONE), (2, ecurve(1))), wp((1, ONE), (1, ecurve(2)), (2, omega(2)))))
@example((1, wp((3, ecurve(1))), wp((1, ecurve(1)), (2, omega(1)))))
@example((3, wp((5, ecurve(2))), wp((1, ecurve(1)), (2, omega(3)), (2, ecurve(2)))))
@example((3, wp((1, omega(1)), (4, ecurve(3))), wp((2, ecurve(2)), (3, omega(2)))))
def test_two_point_scalars_match_matched_pair_oracle_property(case):
    """<b1, V_b2>, the pairing of b1 with the column of b2, gives the
    scalars of the splitting sum over theta-matched pairs; insertions with
    different numbers of 1-labels give none."""
    r, mu1, mu2 = case
    chains = [(i, j) for i in range(1, r + 1) for j in range(i, r + 1)]
    got = invariants.two_point_scalars(mu1, mu2, range(4), chains, r)
    assert got == matched_pair_two_point_scalars(mu1, mu2, range(4), chains, r)
    if sum(label == ONE for _, label in mu1) != sum(label == ONE for _, label in mu2):
        assert got == {}


def test_splitting_memos_key_on_chains_and_u_range():
    # warm calls that differ only in the chains or the u-range must not
    # share a connected piece's factors
    mu1 = wp((1, ecurve(1)), (1, ecurve(2)), (2, ecurve(1)))
    mu2 = wp((1, ecurve(2)), (1, ecurve(1)), (2, ecurve(2)))
    calls = [
        (two_point_series, (mu1, mu2, u_order, s_orders))
        for u_order in (1, 3)
        for s_orders in ((1, 0), (1, 1), (0, 1))
    ]
    calls.append((disconnected_two_point, (mu1, mu2, 2, (1, 1))))
    clear_caches()
    warm = [fn(*args) for fn, args in calls]
    for (fn, args), got in zip(calls, warm):
        clear_caches()
        assert got == fn(*args)
        if fn is two_point_series:
            assert got.coeffs == _bitmask_series(*args)
            assert got.coeffs  # the box is not all zero
        else:
            assert got == bitmask_disconnected(*args) and not got.is_zero()


def test_splittings_enumerated_once_per_weighted_partition(monkeypatch):
    enumerate_once = invariants.enumerate_sub_splittings
    seen = []

    def counted(wp):
        seen.append(wp)
        return enumerate_once(wp)

    monkeypatch.setattr(invariants, "enumerate_sub_splittings", counted)
    clear_caches()
    basis = default_divisor_basis(4, 1)
    divisor_operator(4, 1, "D1", basis, 4, (4,))
    # one call per distinct basis element, not two per basis pair
    assert len(seen) == len(basis) == 20
    assert sorted(seen) == sorted(basis)


def test_two_point_series_r2_support():
    left = wp((2, ecurve(1)))
    series = two_point_series(left, left, 0, (2, 2))
    # E_11 chain: (E_11.E_1)^2 = 4; adjacent and mixed chains meet E_1 once
    assert series.coefficient(0, (1, 0)) == RatFunc2(THETA.scale(4))
    assert series.coefficient(0, (0, 1)) == RatFunc2(THETA)
    assert series.coefficient(0, (1, 1)) == RatFunc2(THETA)
    assert series.coefficient(0, (0, 2)) == RatFunc2(THETA.scale(Fraction(1, 2)))


def test_three_point_s_scale():
    res = three_point_divisor_series(TWO_E1, "D1", TWO_E1, 0, (3,), None)
    assert res.gap  # no table supplied
    for d in (1, 2, 3):
        assert res.series.coefficient(0, (d,)) == RatFunc2(THETA.scale(4))


def test_three_point_derivative_parity():
    res = three_point_divisor_series(TWO_E1, "(2)", TWO_E1, 3, (2,), None)
    # u-even two-point function differentiates to a u-odd series
    for a, ds, _ in res.series.monomials():
        assert a % 2 == 1


def test_three_point_table_only_touches_degree_zero():
    table = ZeroDegreeTable({(wp_to_text(TWO_E1), "D1", wp_to_text(TWO_E1)): [(0, RatFunc2.const(7))]})
    res = three_point_divisor_series(TWO_E1, "D1", TWO_E1, 1, (2,), table)
    assert not res.gap
    assert res.series.coefficient(0, (0,)) == RatFunc2.const(7)
    # nonzero-degree layers agree with the tableless run
    bare = three_point_divisor_series(TWO_E1, "D1", TWO_E1, 1, (2,), None)
    for d in (1, 2):
        for a in (0, 1):
            assert res.series.coefficient(a, (d,)) == bare.series.coefficient(a, (d,))


def test_three_point_gap_reports_key():
    res = three_point_divisor_series(TWO_E1, "D1", TWO_E1, 0, (1,), ZeroDegreeTable())
    assert res.gap
    assert res.missing_key == (wp_to_text(TWO_E1), "D1", wp_to_text(TWO_E1))


def test_three_point_reads_one_table_slot_per_divisor(monkeypatch):
    # "(2)" reads the "1" slot and differentiates its series; D1 reads its own slot
    marker = [(0, RatFunc2.const(5)), (2, RatFunc2.const(3)), (3, RatFunc2.const(7))]
    table = ZeroDegreeTable({(wp_to_text(TWO_E1), "1", wp_to_text(TWO_E1)): marker})
    slots, get = [], ZeroDegreeTable.get
    monkeypatch.setattr(
        ZeroDegreeTable, "get", lambda self, a, d, b: slots.append(d) or get(self, a, d, b)
    )
    res = three_point_divisor_series(TWO_E1, "(2)", TWO_E1, 1, (1,), table)
    bare = three_point_divisor_series(TWO_E1, "(2)", TWO_E1, 1, (1,), None)
    assert not res.gap and bare.gap and slots == ["1"]
    # d/du of 5 + 3 u^2 + 7 u^3 cut at u^1: 6 u
    assert res.series - bare.series == TruncSeries.monomial(1, (0,), 6, 1, (1,))
    res = three_point_divisor_series(TWO_E1, "D1", TWO_E1, 1, (1,), table)
    assert slots == ["1", "D1"]
    assert res.missing_key == (wp_to_text(TWO_E1), "D1", wp_to_text(TWO_E1))
    two_one = wp((2, ONE))
    res = three_point_divisor_series(TWO_E1, "(2)", two_one, 1, (1,), table)
    assert res.missing_key == (wp_to_text(TWO_E1), "1", wp_to_text(two_one))


def test_three_point_gap_is_whether_a_key_is_missing():
    series = TruncSeries.zero(0, (1,))
    assert not ThreePointResult(series).gap
    assert ThreePointResult(series, missing_key=("2(E1)", "D1", "2(E1)")).gap
    with pytest.raises(TypeError):
        ThreePointResult(series, gap=True)


def test_table_json_roundtrip(tmp_path):
    table = ZeroDegreeTable({
        ("2(E1)", "D1", "2(1)"): [(0, RatFunc2.one()), (2, RatFunc2.const(Fraction(1, 3)))],
        ("2(E1)", "1", "2(E1)"): [(0, RatFunc2.const(-1))],
    })
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
    table = ZeroDegreeTable([(("1(E1)+1(1)", "D1", " 2(E1) "), [(0, RatFunc2.one())])])
    assert set(table.entries) == {("1(1)+1(E1)", "D1", "2(E1)")}
    assert table.get(wp((1, ONE), (1, ecurve(1))), "D1", TWO_E1) is not None


def test_package_does_not_export_the_routes_that_only_tests_call():
    import symprod

    for name in ("expand", "connected_two_point", "disconnected_two_point"):
        assert not hasattr(symprod, name), name


def test_table_refuses_a_key_given_twice_in_any_spelling():
    # the second spelling of one canonical key would have replaced the first
    entries = {
        ("1(E1)+1(1)", "D1", "2(E1)"): [(0, 1)],
        ("1(1)+1(E1)", "D1", "2(E1)"): [(0, 7)],
        ("2(E1)", "D1", "1(1)+1(E1)"): [(0, 5)],
    }
    with pytest.raises(MalformedInputError) as caught:
        ZeroDegreeTable(entries)
    assert str(caught.value) == (
        "malformed degree-zero table: the key ('1(1)+1(E1)', 'D1', '2(E1)') appears twice"
    )
    with pytest.raises(MalformedInputError, match="appears twice"):
        ZeroDegreeTable(list(entries.items())[:2])


def test_table_refuses_mirror_keys_with_different_series():
    # (l, D, r) is read before (r, D, l), so the 5 would never be read
    entries = {("1(1)+1(E1)", "D1", "2(E1)"): [(0, 7)], ("2(E1)", "D1", "1(1)+1(E1)"): [(0, 5)]}
    with pytest.raises(MalformedInputError) as caught:
        ZeroDegreeTable(entries)
    message = str(caught.value)
    assert "different series" in message
    assert "('1(1)+1(E1)', 'D1', '2(E1)')" in message and "('2(E1)', 'D1', '1(1)+1(E1)')" in message
    # equal mirror copies, in any spelling and pair order, are one value read both ways
    table = ZeroDegreeTable({
        ("1(E1)+1(1)", "D1", "2(E1)"): [(0, 7), (2, 1)],
        ("2(E1)", "D1", "1(1)+1(E1)"): [(2, 1), (0, 7)],
    })
    assert len(table.entries) == 2
    assert table.get(TWO_E1, "D1", wp((1, ONE), (1, ecurve(1)))) == ((2, RatFunc2.one()), (0, RatFunc2.const(7)))


def test_table_entries_are_read_only():
    table = zero_degree_table_a1n2()
    key = next(iter(table.entries))
    with pytest.raises(TypeError):
        table.entries[key] = ((0, RatFunc2.one()),)
    with pytest.raises(TypeError):
        del table.entries[key]
    with pytest.raises(AttributeError):
        table.entries = {}
    assert not hasattr(ZeroDegreeTable, "set")
    assert len(table.entries) == 25


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
        ZeroDegreeTable({(left, divisor, right): [(0, RatFunc2.one())]})


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
        ZeroDegreeTable([(("2(E1)", "D1", "2(E1)"), pairs)])
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
        connected_two_point(TWO_E1, wp((3, ecurve(1))), 0, (1,))
    with pytest.raises(ValueError):
        disconnected_two_point(TWO_E1, wp((1, ONE)), 0, (1,))


def test_two_point_series_checks_inputs_without_chains():
    # an s-box with no chain still rejects what no box could accept
    with pytest.raises(UnsupportedWeightError):
        two_point_series(wp((2, fixedpt(1))), wp((2, fixedpt(1))), 1, (0,))
    with pytest.raises(ValueError, match="equal size"):
        two_point_series(TWO_E1, wp((1, ONE)), 1, (0,))


def test_disconnected_rejects_label_out_of_range():
    with pytest.raises(MalformedInputError):
        disconnected_two_point(wp((2, ecurve(5))), TWO_E1, 0, (1,))


def test_connected_rejects_label_out_of_range():
    # A_1 has no E2, E5 or w3
    for label in (ecurve(2), ecurve(5), omega(3)):
        with pytest.raises(MalformedInputError, match="for r = 1"):
            connected_two_point(wp((2, label)), wp((2, label)), 0, (1,))
        with pytest.raises(MalformedInputError, match="for r = 1"):
            connected_two_point(TWO_E1, wp((2, label)), 0, (1,))


def test_two_point_series_rejects_label_out_of_range():
    with pytest.raises(MalformedInputError):
        two_point_series(wp((2, ecurve(5))), TWO_E1, 0, (3,))
    with pytest.raises(MalformedInputError):
        two_point_series(TWO_E1, wp((1, ONE), (1, ecurve(2))), 0, (3,))


def test_three_point_rejects_divisor_out_of_range():
    for divisor in ("D0", "D2", "D3"):
        with pytest.raises(ValueError, match="out of range"):
            three_point_divisor_series(TWO_E1, divisor, TWO_E1, 1, (1,), None)


@pytest.mark.parametrize("divisor", ["D01", "D 1", "D+1"])
def test_three_point_rejects_noncanonical_divisor(divisor):
    # int() would read each as D1, and the table lookup would then miss
    table = zero_degree_table_a1n2()
    with pytest.raises(ValueError, match=r'the divisors are "\(2\)" and D1\.\.D1'):
        three_point_divisor_series(TWO_E1, divisor, TWO_E1, 1, (1,), table)
