"""Fixed-point expansion, orbifold pairing and dual bases."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    all_labels,
    divisor_labels,
    dual_basis,
    fixed_basis_pairing,
    gauss_jordan_gram_inverse,
    mp_contains,
    mp_diff,
    pairing_fixed,
    permutation_pairing,
    random_weighted_partition,
    ratfunc_subs_t2_minus_t1,
    t_weight,
)
from symprod.algebra import RatFunc2
from symprod import clear_caches
from symprod.chenruan import (
    _dual_entry,
    _matching_sum,
    expand,
    gram_inverse,
    gram_matrix,
    pairing,
)
from symprod.errors import DegenerateBasisError, MalformedInputError
from symprod.operators import default_divisor_basis
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
from symprod.surface import omega_coefficients, tangent_weights


def wp(*pairs):
    return weighted_partition(pairs)


def test_t_weight_value_r1():
    w = tangent_weights(1)
    mp = multipartition([(1,), (1,)])
    assert t_weight(mp, w) == w[0][2] * w[1][2]


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
        c = expand(wp((1, ONE)), r)
        for k, (_, _, lr) in enumerate(tangent_weights(r)):
            comp = [()] * (r + 1)
            comp[k] = (1,)
            assert c.get(multipartition(comp), RatFunc2.zero()) == lr.inverse()


def test_expand_doubled_point_coefficient():
    w = tangent_weights(1)
    c = expand(wp((1, ONE), (1, ONE)), 1)
    mp = multipartition([(1, 1), ()])
    assert c.get(mp, RatFunc2.zero()) == (w[0][2] * w[0][2]).inverse()


def test_expand_fixed_point_class_is_idempotent():
    c = expand(wp((2, fixedpt(1))), 1)
    mp = multipartition([(2,), ()])
    assert c == {mp: RatFunc2.one()}


def test_pairing_fixed_examples():
    w = tangent_weights(1)
    mp_a = multipartition([(1, 1), ()])
    assert pairing_fixed(mp_a, mp_a, w) == w[0][2] * w[0][2] / 2
    mp_b = multipartition([(2,), ()])
    assert pairing_fixed(mp_b, mp_b, w) == w[0][2] / 2
    assert pairing_fixed(mp_a, mp_b, w).is_zero()


def test_pairing_examples():
    from symprod.algebra import Poly2

    assert pairing(wp((2, ecurve(1))), wp((2, ecurve(1))), 1) == RatFunc2.const(-1)
    t1t2 = RatFunc2(Poly2.monomial(1, 1))
    assert pairing(wp((2, ONE)), wp((2, ONE)), 1) == RatFunc2.const(Fraction(1, 4)) / t1t2
    assert pairing(wp((2, ecurve(1))), wp((1, ONE), (1, ONE)), 1).is_zero()


def test_pairing_matches_direct_formula():
    # exhaustive n <= 2 over identity, curve and point weights, r <= 2
    from helpers import all_weighted_partitions

    for r in (1, 2):
        labels = all_labels(r)
        for n in (1, 2):
            wps = all_weighted_partitions(n, labels)
            for a in wps:
                for b in wps:
                    assert pairing(a, b, r) == fixed_basis_pairing(a, b, r), (a, b, r)


def test_pairing_symmetry_and_block_vanishing():
    rng = random.Random(57)
    for _ in range(20):
        r = rng.randint(1, 2)
        n = rng.randint(1, 3)
        a = random_weighted_partition(rng, n, all_labels(r))
        b = random_weighted_partition(rng, n, all_labels(r))
        assert pairing(a, b, r) == pairing(b, a, r)
        if underlying(a) != underlying(b):
            assert pairing(a, b, r).is_zero()


def test_fixed_class_self_pairing_via_direct():
    # <sigma~|sigma~> computed by the matching formula equals H(sigma~) t(sigma~)
    for r in (1, 2):
        w = tangent_weights(r)
        for n in (1, 2, 3):
            for mp in _multipartitions_of(n, r + 1):
                as_wp = weighted_partition(
                    [(part, fixedpt(k + 1)) for k, comp in enumerate(mp) for part in comp]
                )
                assert pairing(as_wp, as_wp, r) == pairing_fixed(mp, mp, w)


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
        n = rng.randint(2, 4)
        lam = random_weighted_partition(rng, n, divisor_labels(r))
        delta = rng.choice(_multipartitions_of(n, r + 1))
        m = rng.randint(0, n)
        subs = [mp for mp in _multipartitions_of(m, r + 1) if mp_contains(delta, mp)]
        if not subs:
            continue
        sigma = rng.choice(subs)
        rest = mp_diff(delta, sigma)
        lhs = expand(lam, r).get(delta, RatFunc2.zero())
        rhs = RatFunc2.zero()
        for theta, nu in enumerate_sub_splittings(lam):
            if wp_size(theta) != m:
                continue
            rhs = rhs + expand(theta, r).get(sigma, RatFunc2.zero()) * expand(nu, r).get(
                rest, RatFunc2.zero()
            )
        assert lhs == rhs, (lam, delta, sigma)
        checked += 1


def test_dual_basis_two_block():
    w = tangent_weights(1)
    basis = [wp((2, ecurve(1))), wp((2, ONE))]
    duals = dual_basis(basis, 1)
    # dual of 2(E1) is -2(E1): its expansion scaled by -1
    want = {mp: -c for mp, c in expand(basis[0], 1).items()}
    assert duals[0] == want
    # duality relations through the pairing
    expansions = [expand(b, 1) for b in basis]
    for i, ei in enumerate(expansions):
        for j, dj in enumerate(duals):
            total = RatFunc2.zero()
            for mp, c in ei.items():
                total = total + c * dj.get(mp, RatFunc2.zero()) * pairing_fixed(mp, mp, w)
            assert total == RatFunc2.const(int(i == j))


def test_dual_of_fixed_point_class():
    w = tangent_weights(1)
    base = wp((2, fixedpt(1)))
    duals = dual_basis([base], 1)
    mp = multipartition([(2,), ()])
    scale = pairing_fixed(mp, mp, w).inverse()
    assert duals[0].get(mp, RatFunc2.zero()) == scale


def test_degenerate_basis_rejected():
    basis = [wp((2, ecurve(1))), wp((2, ecurve(1)))]
    with pytest.raises(DegenerateBasisError):
        gram_inverse(basis, 1)


def _blocks_of(basis):
    blocks: dict = {}
    for b in basis:
        blocks.setdefault(underlying(b), []).append(b)
    return blocks


def test_gram_inverse_inverts_the_gram_matrix():
    for n, r in [(1, 1), (2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (2, 3), (3, 3)]:
        basis = default_divisor_basis(n, r)
        gram, inv = gram_matrix(basis, r), gram_inverse(basis, r)
        index = {b: i for i, b in enumerate(basis)}
        for block in _blocks_of(basis).values():
            rows = [index[b] for b in block]
            for i in rows:
                for j in rows:
                    entry = RatFunc2.zero()
                    for c in rows:
                        entry = entry + gram[i][c] * inv[c][j]
                    assert entry == RatFunc2.const(int(i == j)), (n, r, i, j)


def test_gram_inverse_runs_no_division_and_no_pairing(monkeypatch):
    import symprod.chenruan as chenruan

    def refuse(*args):
        raise AssertionError("the closed-form Gram inverse paired or divided")

    for name in ("gram_matrix", "pairing", "_matching_sum", "_integral"):
        monkeypatch.setattr(chenruan, name, refuse)
    for name in ("__truediv__", "__rtruediv__", "inverse"):
        monkeypatch.setattr(RatFunc2, name, refuse)
    clear_caches()
    inv = gram_inverse(default_divisor_basis(4, 2), 2)
    assert len(inv) == 51


@st.composite
def _whole_blocks_case(draw):
    n, r = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    blocks = _blocks_of(default_divisor_basis(n, r))
    chosen = draw(st.lists(st.sampled_from(sorted(blocks)), min_size=1, unique=True))
    return r, draw(st.permutations([b for k in chosen for b in blocks[k]]))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(_whole_blocks_case())
def test_gram_inverse_matches_gauss_jordan_property(case):
    r, basis = case
    assert gram_inverse(basis, r) == gauss_jordan_gram_inverse(basis, r)


# the blocks of (2) and of (1, 1) at r = 1
_TWO = [wp((2, ONE)), wp((2, ecurve(1)))]
_ONE_ONE = [
    wp((1, ONE), (1, ONE)), wp((1, ONE), (1, ecurve(1))), wp((1, ecurve(1)), (1, ecurve(1)))
]


@pytest.mark.parametrize(
    "basis, message",
    [
        (
            _TWO[:1],
            r"partition \(2,\) has 1 elements, 1 of them distinct labellings by 1, E1..E1; "
            r"the Gram inverse needs all 2 once",
        ),
        (_TWO + _TWO[:1], r"partition \(2,\) has 3 elements, 2 of them"),
        ([_TWO[0], wp((2, omega(1)))], r"partition \(2,\) has 2 elements, 1 of them"),
        (
            [_ONE_ONE[0], wp((1, ONE), (1, fixedpt(2))), _ONE_ONE[2]],
            r"partition \(1, 1\) has 3 elements, 2 of them",
        ),
        # a whole block next to a partial one
        (_TWO + _ONE_ONE[:2], r"partition \(1, 1\) has 2 elements, 2 of them .* all 3 once"),
    ],
)
def test_gram_inverse_rejects_a_basis_that_is_not_whole_blocks(basis, message):
    with pytest.raises(DegenerateBasisError, match=message):
        gram_inverse(basis, 1)


def test_pairing_matrix_type():
    basis = [wp((2, ecurve(1))), wp((2, ONE)), wp((1, ONE), (1, ONE))]
    gram = gram_matrix(basis, 1)
    assert [len(row) for row in gram] == [3, 3, 3]
    for i in range(3):
        for j in range(3):
            assert gram[i][j] == gram[j][i]
            if underlying(basis[i]) != underlying(basis[j]):
                assert gram[i][j].is_zero()


def test_gram_block_structure():
    basis = [
        wp((1, ecurve(1)), (1, ecurve(1))),
        wp((2, ecurve(1))),
        wp((1, ONE), (1, ecurve(1))),
        wp((2, ONE)),
        wp((1, ONE), (1, ONE)),
    ]
    gram = gram_matrix(basis, 1)
    shapes = [underlying(b) for b in basis]
    for i in range(5):
        for j in range(5):
            if shapes[i] != shapes[j]:
                assert gram[i][j].is_zero()
            assert gram[i][j] == gram[j][i]


def test_pairing_rejects_label_out_of_range():
    # the cycle types differ, so the matching sum alone would return 0
    with pytest.raises(MalformedInputError):
        pairing(wp((2, ecurve(5))), wp((1, ONE), (1, ONE)), 1)
    with pytest.raises(MalformedInputError):
        pairing(wp((1, ONE), (1, ONE)), wp((2, fixedpt(3))), 1)


# ---------------------------------------------------------------------------
# property tests: the permanent pairing against the fixed-basis and
# permutation oracles
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
    assert pairing(a, b, r) == fixed_basis_pairing(a, b, r)


@st.composite
def _label_pool_case(draw):
    # at least three parts, labelled from a pool of one or two labels, so that
    # equal labels of one part size, and so repeated columns of the permanent,
    # are common
    r, labels = draw(_labels_and_rank())
    pool = st.sampled_from(draw(st.lists(labels, min_size=1, max_size=2)))
    n = draw(st.integers(3, 6))
    lam = draw(st.sampled_from([lam for lam in partitions_of(n) if len(lam) >= 3]))
    a = weighted_partition((part, draw(pool)) for part in lam)
    return r, a, weighted_partition((part, draw(pool)) for part in lam)


@_PROPERTY_SETTINGS
@given(_label_pool_case())
# 1 against E_i integrates to 0, so most matchings vanish
@example((1, wp(*[(1, ONE)] * 6), wp(*[(1, ONE)] * 4, *[(1, ecurve(1))] * 2)))
@example((2, wp(*[(1, ONE)] * 3, (1, ecurve(2))), wp((1, ONE), *[(1, ecurve(2))] * 3)))
@example((
    3, wp((2, ONE), (2, ecurve(1)), (1, ONE), (1, ONE)), wp((2, ecurve(1)), (2, ONE), (1, ONE), (1, ONE))
))
@example((1, wp(*[(1, omega(1))] * 3, (1, fixedpt(2))), wp((1, fixedpt(2)), *[(1, omega(1))] * 3)))
@example((2, wp(*[(2, fixedpt(3))] * 3), wp(*[(2, fixedpt(3))] * 2, (2, ecurve(2)))))
def test_pairing_matches_permutation_oracle_property(case):
    r, a, b = case
    assert pairing(a, b, r) == permutation_pairing(a, b, r)


def test_pairing_takes_each_surface_integral_few_times(monkeypatch):
    import symprod.chenruan as chenruan

    integral, calls = chenruan._integral, []

    def counting(*args):
        calls.append(args)
        return integral(*args)

    monkeypatch.setattr(chenruan, "_integral", counting)
    a = [ONE, ONE, ecurve(1), ecurve(1), ecurve(2), ecurve(2), omega(1), fixedpt(2)]
    b = [ONE, ecurve(1), ecurve(1), ecurve(2), omega(1), omega(2), fixedpt(1), fixedpt(2)]
    clear_caches()
    value = pairing(wp(*[(1, l) for l in a]), wp(*[(1, l) for l in b]), 2)
    # a sum over the 8! matchings makes 69,792 calls; the permanent makes 260
    assert len(calls) < 500
    assert str(value) == "(10/3*t1^2 + 39/2*t1*t2 - 67/3*t2^2)/(t1*t2)"


@_PROPERTY_SETTINGS
@given(_pairing_case())
def test_pairing_symmetric_property(case):
    r, a, b = case
    ab = pairing(a, b, r)
    clear_caches()
    assert pairing(b, a, r) == ab
    # the memo keeps one entry per unordered pair, so check the uncached sum both ways
    assert _matching_sum.__wrapped__(b, a, r) == _matching_sum.__wrapped__(a, b, r) == ab


def test_pairing_reversed_adds_no_cache_entry():
    a = weighted_partition([(2, ecurve(1)), (1, ONE)])
    b = weighted_partition([(2, ONE), (1, ecurve(2))])
    clear_caches()
    ab = pairing(a, b, 2)
    size = _matching_sum.cache_info().currsize
    assert pairing(b, a, 2) == ab
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
    with pytest.raises(ValueError, match="different sizes"):
        pairing(a, b, r)


@pytest.mark.parametrize("r", range(1, 7))
def test_dual_entry_is_the_inverse_intersection_matrix(r):
    """Each curve entry is one entry of the inverse intersection matrix, and
    the 1 row is r + 1 on the diagonal and 0 against every curve."""
    omega_rows = omega_coefficients(r)
    for k in range(1, r + 1):
        for m in range(1, r + 1):
            assert _dual_entry(ecurve(k), ecurve(m), r) == omega_rows[k - 1][m - 1]
        assert _dual_entry(ONE, ecurve(k), r) == _dual_entry(ecurve(k), ONE, r) == 0
    assert _dual_entry(ONE, ONE, r) == r + 1
