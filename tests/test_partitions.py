"""Partition combinatorics and weighted-partition splittings."""

import random
from collections import Counter
from math import factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    all_labels,
    centralizer_order,
    counter_aut_order,
    labelling_maps,
    random_weighted_partition,
    sorting_sub_splittings,
)
from symprod import clear_caches
from symprod.partitions import (
    ONE,
    age,
    aut_order,
    ecurve,
    enumerate_sub_splittings,
    fixedpt,
    label_key,
    labellings,
    omega,
    partition,
    partitions_of,
    underlying,
    weighted_partition,
    wp_size,
)


def test_partition_canonical_storage():
    assert partition([1, 2, 1]) == (2, 1, 1)
    with pytest.raises(ValueError):
        partition([0, 1])


@pytest.mark.parametrize("part", [2.5, 1.9, 2.0, True, False, "2"])
def test_parts_that_are_not_ints_are_rejected(part):
    # a part is never truncated by int(): 2.5 is not a part 2, nor True a part 1
    from symprod.hurwitz import one_part_double_hurwitz

    message = f"a part must be an int, got {type(part).__name__} {part!r}"
    for build in (
        lambda: partition([part, 1]),
        lambda: one_part_double_hurwitz([part, 1], 2),
        lambda: weighted_partition([(part, ONE), (1, ecurve(1))]),
    ):
        with pytest.raises(TypeError) as caught:
            build()
        assert str(caught.value) == message


@pytest.mark.parametrize("index", [1.9, 2.0, True, False, "2", None])
@pytest.mark.parametrize("label", [ecurve, omega, fixedpt])
def test_label_indices_that_are_not_ints_are_rejected(label, index):
    # an index is never truncated by int(): 1.9 is not E_1, nor True w_1
    with pytest.raises(TypeError) as caught:
        label(index)
    assert str(caught.value) == (
        f"a label index must be an int, got {type(index).__name__} {index!r}"
    )


def test_weighted_partition_rejects_unknown_label_kind():
    with pytest.raises(ValueError, match="unknown label kind 'y'"):
        weighted_partition([(2, ("y", 1))])
    with pytest.raises(ValueError, match="unknown label kind 'y'"):
        weighted_partition([(1, ONE), (1, ("y", 1))])


@pytest.mark.parametrize(
    "label, error, message",
    [
        (("E", True), TypeError, "a label index must be an int, got bool True"),
        (("E", 1.5), TypeError, "a label index must be an int, got float 1.5"),
        (("w", "2"), TypeError, "a label index must be an int, got str '2'"),
        (("E",), ValueError, "label ('E',) is not ('1',) or a kind E, w or x with one index"),
        (("1", 5), ValueError, "label ('1', 5) is not ('1',) or a kind E, w or x with one index"),
        (("x", 1, 2), ValueError,
         "label ('x', 1, 2) is not ('1',) or a kind E, w or x with one index"),
        ((), ValueError, "unknown label kind None in label (); expected 1, E, w or x"),
    ],
)
def test_label_key_checks_the_shape_of_a_label(label, error, message):
    """A label reaches every weighted partition through label_key, so its shape
    is checked there: ("E", True) had printed as ETrue, ("1", 5) as 1, and
    ("E",) raised a bare IndexError."""
    for build in (
        lambda: label_key(label),
        lambda: weighted_partition([(2, label)]),
        lambda: weighted_partition([(1, ONE), (1, label)]),
    ):
        with pytest.raises(error) as caught:
            build()
        assert str(caught.value) == message


def test_aut_order_examples():
    assert aut_order(partition([1, 1, 2])) == 2
    assert aut_order(partition([3])) == 1
    assert aut_order(partition([2, 2, 2])) == 6


def test_aut_order_of_weighted_partitions():
    assert aut_order(weighted_partition([(1, ONE), (1, ecurve(1))])) == 1
    assert aut_order(weighted_partition([(1, ONE), (1, ONE)])) == 2
    wp = weighted_partition([(2, ecurve(1)), (2, ecurve(1)), (1, ecurve(1))])
    assert aut_order(wp) == 2


_AUT_ITEMS = st.one_of(
    st.integers(1, 4),
    st.tuples(
        st.integers(1, 3), st.sampled_from([ONE, ecurve(1), ecurve(2), omega(1), fixedpt(2)])
    ),
)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.lists(_AUT_ITEMS, max_size=9).flatmap(lambda items: st.permutations(items)))
def test_aut_order_matches_counter_formula_on_shuffled_tuples(items):
    """aut_order takes a multiset tuple in any order: equal items need not be
    adjacent, and partitions and weighted pairs may mix."""
    items = tuple(items)
    assert aut_order(items) == counter_aut_order(items)
    assert aut_order(items[::-1]) == counter_aut_order(items)


def test_centralizer_examples():
    assert centralizer_order(partition([2])) == 2
    assert centralizer_order(partition([2, 1])) == 2
    assert centralizer_order(partition([1, 1, 1])) == 6


def test_age_examples():
    assert age(partition([2]), 2) == 1
    for n in range(1, 6):
        assert age(partition([1] * n), n) == 0
    assert age(partition([2] + [1] * 3), 5) == 1
    with pytest.raises(ValueError):
        age(partition([2]), 3)


def test_class_equation():
    # the conjugacy classes n!/z_lambda partition S_n
    for n in range(1, 11):
        assert sum(factorial(n) // centralizer_order(lam) for lam in partitions_of(n)) == factorial(n)


def test_partitions_of_is_a_memoised_tuple():
    clear_caches()
    assert partitions_of.cache_info().currsize == 0
    parts = partitions_of(5)
    assert isinstance(parts, tuple)
    assert parts == ((5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1), (1,) * 5)
    assert partitions_of(5) is parts
    assert partitions_of(0) == ((),)
    assert partitions_of.cache_info().currsize == 2
    clear_caches()
    assert partitions_of.cache_info().currsize == 0
    assert partitions_of(5) == parts and partitions_of(5) is not parts
    with pytest.raises(ValueError, match="nonnegative"):
        partitions_of(-1)


def test_aut_divides_centralizer():
    for n in range(1, 9):
        for lam in partitions_of(n):
            assert centralizer_order(lam) % aut_order(lam) == 0


def test_splittings_examples():
    wp = weighted_partition([(1, ONE), (2, ecurve(1))])
    splits = enumerate_sub_splittings(wp)
    assert len(splits) == 4
    assert (weighted_partition([]), wp) in splits
    assert (wp, weighted_partition([])) in splits
    assert (
        weighted_partition([(1, ONE)]),
        weighted_partition([(2, ecurve(1))]),
    ) in splits

    doubled = weighted_partition([(1, ONE), (1, ONE)])
    assert len(enumerate_sub_splittings(doubled)) == 3

    assert enumerate_sub_splittings(weighted_partition([])) == [
        (weighted_partition([]), weighted_partition([]))
    ]


def test_splittings_count_and_complement():
    rng = random.Random(3)
    labels = all_labels(2)
    for _ in range(40):
        wp = random_weighted_partition(rng, rng.randint(1, 5), labels)
        splits = enumerate_sub_splittings(wp)
        want = 1
        for m in Counter(wp).values():
            want *= m + 1
        assert len(splits) == want
        assert len(set(splits)) == want
        for theta, nu in splits:
            assert wp_size(theta) + wp_size(nu) == wp_size(wp)
            assert weighted_partition(theta + nu) == wp


@st.composite
def _any_weighted_partition(draw):
    r = draw(st.integers(1, 3))
    label = st.one_of(
        st.just(ONE),
        st.integers(1, r).map(ecurve),
        st.integers(1, r).map(omega),
        st.integers(1, r + 1).map(fixedpt),
    )
    lam = draw(st.sampled_from(partitions_of(draw(st.integers(0, 7)))))
    return weighted_partition((p, draw(label)) for p in lam)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(_any_weighted_partition())
@example(weighted_partition([(2, ONE), (2, ecurve(1)), (2, ecurve(1)), (1, fixedpt(2)),
                             (1, omega(1)), (1, omega(1))]))
def test_splittings_are_built_in_canonical_order(wp):
    """The splittings come out as the re-sorting oracle lists them, in the
    same order, and every theta and nu is a fixed point of weighted_partition."""
    splits = enumerate_sub_splittings(wp)
    assert splits == sorting_sub_splittings(wp)
    for theta, nu in splits:
        assert type(theta) is tuple and type(nu) is tuple
        assert weighted_partition(theta) == theta
        assert weighted_partition(nu) == nu


@st.composite
def _labelling_case(draw):
    """A partition of n <= 7 and distinct labels of all_labels(r), r <= 3, in any
    order, with at most 4,096 maps from the parts to the labels."""
    lam = draw(st.sampled_from(partitions_of(draw(st.integers(0, 7)))))
    pool = all_labels(draw(st.integers(1, 3)))
    most = max(k for k in range(len(pool) + 1) if k ** len(lam) <= 4096)
    labels = draw(st.permutations(pool))[: draw(st.integers(0, most))]
    return lam, tuple(labels)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(_labelling_case())
@example(((1,) * 7, (fixedpt(3), ONE, ecurve(2))))
@example(((2, 2, 1, 1, 1, 1), tuple(all_labels(1))))
@example(((3, 2, 2), tuple(reversed(all_labels(3)))))
@example(((), ()))
@example(((2, 1), ()))
def test_labellings_are_every_map_labelling_once(case):
    """labellings lists each labelling that some map from the parts to the
    labels gives, once, canonical as built and over lam itself; the maps that
    give nu number aut_order(lam) // aut_order(nu), so they sum to
    len(labels) ** len(lam)."""
    lam, labels = case
    got = labellings(lam, labels)
    assert len(set(got)) == len(got)
    for nu in got:
        assert weighted_partition(nu) == nu
        assert underlying(nu) == lam
    maps = labelling_maps(lam, labels)
    assert set(got) == set(maps)
    assert {nu: aut_order(lam) // aut_order(nu) for nu in got} == maps
    assert sum(aut_order(lam) // aut_order(nu) for nu in got) == len(labels) ** len(lam)
