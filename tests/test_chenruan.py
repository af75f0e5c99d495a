"""Fixed-point expansion, orbifold pairing and dual bases."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    all_labels,
    divisor_labels,
    dual_basis,
    fixed_basis_pairing,
    mp_contains,
    mp_diff,
    pairing_fixed,
    random_weighted_partition,
    ratfunc_subs_t2_minus_t1,
    t_weight,
)
from symprod.algebra import RatFunc2
from symprod import clear_caches
from symprod.chenruan import CRClass, _matching_sum, expand, gram_inverse, gram_matrix, pairing
from symprod.errors import DegenerateBasisError, MalformedInputError
from symprod.partitions import (
    ONE,
    ecurve,
    enumerate_sub_splittings,
    fixedpt,
    multipartition,
    omega,
    partitions_of,
    underlying,
    weighted_partition,
    wp_size,
)
from symprod.surface import tangent_weights


def wp(*pairs):
    return weighted_partition(pairs)


def test_t_weight_value_r1():
    w = tangent_weights(1)
    mp = multipartition([(1,), (1,)])
    assert t_weight(mp, w) == w.LR(1) * w.LR(2)


def test_t_weight_multiplicative_on_nested():
    rng = random.Random(51)
    for _ in range(25):
        r = rng.randint(1, 2)
        w = tangent_weights(r)
        big = multipartition(
            [
                sorted((rng.randint(1, 3) for _ in range(rng.randint(0, 3))), reverse=True)
                for _ in range(r + 1)
            ]
        )
        small = multipartition(
            [comp[: rng.randint(0, len(comp))] for comp in big]
        )
        assert mp_contains(big, small)
        assert t_weight(big, w) == t_weight(small, w) * t_weight(mp_diff(big, small), w)


def test_t_weight_tau_power_mod_theta():
    for r in (1, 2):
        w = tangent_weights(r)
        mp = multipartition([(2, 1)] + [(1,)] * r)
        tw = t_weight(mp, w)
        num, den = ratfunc_subs_t2_minus_t1(tw)
        length = 2 + r
        tau_power = [Fraction(0)] * (2 * length) + [Fraction((-((r + 1) ** 2)) ** length)]
        assert den == [Fraction(1)]
        assert num == tau_power


def test_expand_single_cycle_identity():
    # 1(1) distributes as sum of [x_k]/(L_k R_k)
    for r in (1, 2):
        w = tangent_weights(r)
        c = expand(wp((1, ONE)), w)
        for k in w.points():
            comp = [()] * (r + 1)
            comp[k - 1] = (1,)
            assert c.coefficient(multipartition(comp)) == w.LR(k).inverse()


def test_expand_doubled_point_coefficient():
    w = tangent_weights(1)
    c = expand(wp((1, ONE), (1, ONE)), w)
    mp = multipartition([(1, 1), ()])
    assert c.coefficient(mp) == (w.LR(1) ** 2).inverse()


def test_expand_fixed_point_class_is_idempotent():
    w = tangent_weights(1)
    c = expand(wp((2, fixedpt(1))), w)
    mp = multipartition([(2,), ()])
    assert c.terms == {mp: RatFunc2.one()}


def test_pairing_fixed_examples():
    w = tangent_weights(1)
    mp_a = multipartition([(1, 1), ()])
    assert pairing_fixed(mp_a, mp_a, w) == (w.LR(1) ** 2) / 2
    mp_b = multipartition([(2,), ()])
    assert pairing_fixed(mp_b, mp_b, w) == w.LR(1) / 2
    assert pairing_fixed(mp_a, mp_b, w).is_zero()


def test_pairing_examples():
    from symprod.algebra import Poly2

    w = tangent_weights(1)
    assert pairing(wp((2, ecurve(1))), wp((2, ecurve(1))), w) == RatFunc2.const(-1)
    t1t2 = RatFunc2(Poly2.monomial(1, 1))
    assert pairing(wp((2, ONE)), wp((2, ONE)), w) == RatFunc2.const(Fraction(1, 4)) / t1t2
    assert pairing(wp((2, ecurve(1))), wp((1, ONE), (1, ONE)), w).is_zero()


def test_pairing_matches_direct_formula():
    # exhaustive n <= 2 over identity, curve and point weights, r <= 2
    from helpers import all_weighted_partitions

    for r in (1, 2):
        w = tangent_weights(r)
        labels = all_labels(r)
        for n in (1, 2):
            wps = all_weighted_partitions(n, labels)
            for a in wps:
                for b in wps:
                    assert pairing(a, b, w) == fixed_basis_pairing(a, b, w), (a, b, r)


def test_pairing_symmetry_and_block_vanishing():
    rng = random.Random(57)
    for _ in range(20):
        r = rng.randint(1, 2)
        w = tangent_weights(r)
        n = rng.randint(1, 3)
        a = random_weighted_partition(rng, n, all_labels(r))
        b = random_weighted_partition(rng, n, all_labels(r))
        assert pairing(a, b, w) == pairing(b, a, w)
        if underlying(a) != underlying(b):
            assert pairing(a, b, w).is_zero()


def test_fixed_class_self_pairing_via_direct():
    # <sigma~|sigma~> computed by the matching formula equals H(sigma~) t(sigma~)
    for r in (1, 2):
        w = tangent_weights(r)
        for n in (1, 2, 3):
            for mp in _multipartitions_of(n, r + 1):
                as_wp = weighted_partition(
                    [(part, fixedpt(k + 1)) for k, comp in enumerate(mp) for part in comp]
                )
                assert pairing(as_wp, as_wp, w) == pairing_fixed(mp, mp, w)


def _multipartitions_of(n, p):
    from itertools import product as iproduct

    def compositions(total, slots):
        if slots == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in compositions(total - head, slots - 1):
                yield (head,) + rest

    out = []
    for sizes in compositions(n, p):
        pools = [partitions_of(c) for c in sizes]
        for combo in iproduct(*pools):
            out.append(multipartition(combo))
    return out


def test_splitting_identity_random():
    # components on a nested fixed-point class factor through sub-splittings
    rng = random.Random(61)
    checked = 0
    while checked < 40:
        r = rng.randint(1, 2)
        w = tangent_weights(r)
        n = rng.randint(2, 4)
        lam = random_weighted_partition(rng, n, divisor_labels(r))
        delta = rng.choice(_multipartitions_of(n, r + 1))
        m = rng.randint(0, n)
        subs = [mp for mp in _multipartitions_of(m, r + 1) if mp_contains(delta, mp)]
        if not subs:
            continue
        sigma = rng.choice(subs)
        rest = mp_diff(delta, sigma)
        lhs = expand(lam, w).coefficient(delta)
        rhs = RatFunc2.zero()
        for theta, nu in enumerate_sub_splittings(lam):
            if wp_size(theta) != m:
                continue
            rhs = rhs + expand(theta, w).coefficient(sigma) * expand(nu, w).coefficient(rest)
        assert lhs == rhs, (lam, delta, sigma)
        checked += 1


def test_dual_basis_two_block():
    w = tangent_weights(1)
    basis = [wp((2, ecurve(1))), wp((2, ONE))]
    duals = dual_basis(basis, w)
    # dual of 2(E1) is -2(E1): its expansion scaled by -1
    want = CRClass(2, {mp: -c for mp, c in expand(basis[0], w).terms.items()})
    assert duals[0] == want
    # duality relations through the pairing
    expansions = [expand(b, w) for b in basis]
    for i, ei in enumerate(expansions):
        for j, dj in enumerate(duals):
            total = RatFunc2.zero()
            for mp, c in ei.terms.items():
                total = total + c * dj.coefficient(mp) * pairing_fixed(mp, mp, w)
            assert total == RatFunc2.const(int(i == j))


def test_dual_of_fixed_point_class():
    w = tangent_weights(1)
    base = wp((2, fixedpt(1)))
    duals = dual_basis([base], w)
    mp = multipartition([(2,), ()])
    scale = pairing_fixed(mp, mp, w).inverse()
    assert duals[0].coefficient(mp) == scale


def test_degenerate_basis_rejected():
    w = tangent_weights(1)
    basis = [wp((2, ecurve(1))), wp((2, ecurve(1)))]
    with pytest.raises(DegenerateBasisError):
        gram_inverse(basis, w)


def test_pairing_matrix_type():
    w = tangent_weights(1)
    basis = [wp((2, ecurve(1))), wp((2, ONE)), wp((1, ONE), (1, ONE))]
    gram = gram_matrix(basis, w)
    assert [len(row) for row in gram] == [3, 3, 3]
    for i in range(3):
        for j in range(3):
            assert gram[i][j] == gram[j][i]
            if underlying(basis[i]) != underlying(basis[j]):
                assert gram[i][j].is_zero()


def test_gram_block_structure():
    w = tangent_weights(1)
    basis = [
        wp((1, ecurve(1)), (1, ecurve(1))),
        wp((2, ecurve(1))),
        wp((1, ONE), (1, ecurve(1))),
        wp((2, ONE)),
        wp((1, ONE), (1, ONE)),
    ]
    gram = gram_matrix(basis, w)
    shapes = [underlying(b) for b in basis]
    for i in range(5):
        for j in range(5):
            if shapes[i] != shapes[j]:
                assert gram[i][j].is_zero()
            assert gram[i][j] == gram[j][i]


def test_pairing_rejects_label_out_of_range():
    # the cycle types differ, so the matching sum alone would return 0
    w = tangent_weights(1)
    with pytest.raises(MalformedInputError):
        pairing(wp((2, ecurve(5))), wp((1, ONE), (1, ONE)), w)
    with pytest.raises(MalformedInputError):
        pairing(wp((1, ONE), (1, ONE)), wp((2, fixedpt(3))), w)


# ---------------------------------------------------------------------------
# property tests: the matching-sum pairing against the fixed-basis oracle
# ---------------------------------------------------------------------------

_PROPERTY_SETTINGS = settings(max_examples=60, derandomize=True, database=None, deadline=None)


@st.composite
def _labels_and_rank(draw):
    r = draw(st.integers(1, 3))
    labels = st.one_of(
        st.just(ONE),
        st.integers(1, r).map(ecurve),
        st.integers(1, r).map(omega),
        st.integers(1, r + 1).map(fixedpt),
    )
    return r, labels


@st.composite
def _weighted_partition(draw, n, labels):
    lam = draw(st.sampled_from(partitions_of(n)))
    return weighted_partition((part, draw(labels)) for part in lam)


@st.composite
def _pairing_case(draw):
    r, labels = draw(_labels_and_rank())
    n = draw(st.integers(1, 5))
    a = draw(_weighted_partition(n, labels))
    # half the cases share a's cycle type, so the pairing is rarely forced to 0
    if draw(st.booleans()):
        b = weighted_partition((part, draw(labels)) for part, _ in a)
    else:
        b = draw(_weighted_partition(n, labels))
    return r, a, b


@_PROPERTY_SETTINGS
@given(_pairing_case())
def test_pairing_matches_fixed_basis_oracle_property(case):
    r, a, b = case
    w = tangent_weights(r)
    assert pairing(a, b, w) == fixed_basis_pairing(a, b, w)


@_PROPERTY_SETTINGS
@given(_pairing_case())
def test_pairing_symmetric_property(case):
    r, a, b = case
    w = tangent_weights(r)
    ab = pairing(a, b, w)
    clear_caches()
    assert pairing(b, a, w) == ab
    # the memo keeps one entry per unordered pair, so check the uncached sum both ways
    assert _matching_sum.__wrapped__(b, a, r) == _matching_sum.__wrapped__(a, b, r) == ab


def test_pairing_reversed_adds_no_cache_entry():
    w = tangent_weights(2)
    a = weighted_partition([(2, ecurve(1)), (1, ONE)])
    b = weighted_partition([(2, ONE), (1, ecurve(2))])
    clear_caches()
    ab = pairing(a, b, w)
    size = _matching_sum.cache_info().currsize
    assert pairing(b, a, w) == ab
    assert _matching_sum.cache_info().currsize == size == 1


@st.composite
def _unequal_sizes_case(draw):
    r, labels = draw(_labels_and_rank())
    n1, n2 = draw(st.lists(st.integers(1, 4), min_size=2, max_size=2, unique=True))
    return r, draw(_weighted_partition(n1, labels)), draw(_weighted_partition(n2, labels))


@_PROPERTY_SETTINGS
@given(_unequal_sizes_case())
def test_pairing_unequal_sizes_rejected_property(case):
    r, a, b = case
    w = tangent_weights(r)
    with pytest.raises(ValueError, match="different sizes"):
        pairing(a, b, w)
