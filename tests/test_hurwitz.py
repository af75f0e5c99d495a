"""Hurwitz counts: values, agreement with the enumeration oracle, closed-form gate."""

import random
import re
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from helpers import brute_one_part, centralizer_order, hurwitz_refined, oracle_hurwitz
from symprod import clear_caches
from symprod.errors import MalformedInputError, ResourceBudgetError
from symprod.hurwitz import _group_data, hurwitz, one_part_double_hurwitz
from symprod.partitions import partition, partitions_of


def test_oracle_examples():
    for count in (hurwitz, oracle_hurwitz):
        assert count([[2], [2]]) == Fraction(1, 2)
        assert count([[2], [2], [2]]) == 0
        assert count([[3], [3]]) == Fraction(1, 3)


def test_identity_profiles():
    for count in (hurwitz, oracle_hurwitz):
        assert count([[1], [1]]) == 1
        assert count([[1, 1], [1, 1]]) == Fraction(1, 2)
        assert count([[1, 1, 1]]) == Fraction(1, 6)


def test_refined_examples():
    assert hurwitz_refined([2], [[2]], [[2]]) == Fraction(1, 2)
    assert hurwitz_refined([1, 1], [[2]], [[2]]) == 0
    assert hurwitz_refined([], [], []) == 1


def test_gjv_examples():
    assert one_part_double_hurwitz([1, 1], 1) == Fraction(1, 2)
    assert one_part_double_hurwitz([2], 2) == Fraction(1, 2)
    assert one_part_double_hurwitz([2], 1) == 0


@pytest.mark.parametrize("sigma, b", [([1, 1], -1), ([2], -3)])
def test_gjv_negative_b_rejected(sigma, b):
    # no value, not a silent zero, for a count with a negative b
    with pytest.raises(ValueError, match="b must be at least 0"):
        one_part_double_hurwitz(sigma, b)


@pytest.mark.parametrize("b", [2.0, 1.0, True, False, Fraction(2), "2"])
def test_gjv_rejects_b_that_is_not_an_int(b):
    # a b that is not an int never reaches the memo, so the answer does not
    # depend on which int b was asked for before (2.0 and 2 share a key)
    clear_caches()
    message = re.escape(f"b must be an int, got {type(b).__name__} {b!r}")
    for sigma, prior in (((2,), 2), ((1, 1), 1), ((2,), 0)):
        one_part_double_hurwitz(sigma, prior)
        with pytest.raises(TypeError, match=message):
            one_part_double_hurwitz(sigma, b)


def test_gjv_matches_oracle_small():
    # the normalization gate: closed form against enumeration, k <= 4, b <= 4
    for k in range(1, 5):
        for sigma in partitions_of(k):
            for b in range(5):
                assert one_part_double_hurwitz(sigma, b) == brute_one_part(sigma, b), (
                    sigma,
                    b,
                )


def test_fast_equals_oracle_exhaustive():
    # every profile multiset with n <= 5, s <= 4
    for n in range(1, 6):
        parts = partitions_of(n)
        for s in range(1, 5):
            for profiles in combinations_with_replacement(parts, s):
                assert hurwitz(profiles, n) == oracle_hurwitz(profiles, n), profiles


def test_profile_permutation_invariance():
    rng = random.Random(19)
    for _ in range(20):
        n = rng.randint(2, 5)
        parts = partitions_of(n)
        profiles = [rng.choice(parts) for _ in range(rng.randint(2, 4))]
        shuffled = profiles[:]
        rng.shuffle(shuffled)
        assert hurwitz(profiles, n) == hurwitz(shuffled, n)


def test_parity_vanishing():
    rng = random.Random(21)
    for _ in range(30):
        n = rng.randint(2, 5)
        parts = partitions_of(n)
        profiles = [rng.choice(parts) for _ in range(rng.randint(1, 4))]
        if sum(n - len(p) for p in profiles) % 2 == 1:
            assert hurwitz(profiles, n) == 0


def test_refined_product_and_sum_identities():
    # the refined count factors through plain counts, and sums back
    for n in range(1, 5):
        parts = partitions_of(n)
        for s_len, t_len in [(1, 1), (1, 2), (2, 1), (2, 2)]:
            for lefts in combinations_with_replacement(parts, s_len):
                for rights in combinations_with_replacement(parts, t_len):
                    total = Fraction(0)
                    for sigma in parts:
                        refined = hurwitz_refined(sigma, lefts, rights)
                        product = (
                            centralizer_order(sigma)
                            * hurwitz(list(lefts) + [sigma], n)
                            * hurwitz([sigma] + list(rights), n)
                        )
                        assert refined == product, (sigma, lefts, rights)
                        total += refined
                    assert total == hurwitz(list(lefts) + list(rights), n)


def test_budget_error_names_bound(monkeypatch):
    monkeypatch.setenv("SYMPROD_HURWITZ_BUDGET", "3")
    with pytest.raises(ResourceBudgetError) as err:
        hurwitz([[4], [4]], 4)
    assert "3" in str(err.value)
    assert err.value.budget == 3


def test_budget_default_allows_small(monkeypatch):
    monkeypatch.delenv("SYMPROD_HURWITZ_BUDGET", raising=False)
    with pytest.raises(ResourceBudgetError):
        hurwitz([partition([9]), partition([9])], 9)


def test_budget_checked_before_memo(monkeypatch):
    monkeypatch.delenv("SYMPROD_HURWITZ_BUDGET", raising=False)
    hurwitz([[2], [2]], 2)  # memoised under the default budget
    monkeypatch.setenv("SYMPROD_HURWITZ_BUDGET", "1")
    with pytest.raises(ResourceBudgetError):
        hurwitz([[2], [2]], 2)


def test_budget_unparsable_rejected(monkeypatch):
    monkeypatch.setenv("SYMPROD_HURWITZ_BUDGET", "abc")
    with pytest.raises(MalformedInputError, match="SYMPROD_HURWITZ_BUDGET"):
        hurwitz([[2], [2]], 2)


def test_backends_agree_at_n6_spot_checks():
    for profiles in (
        [[2, 1, 1, 1, 1], [2, 1, 1, 1, 1], [6]],
        [[3, 3], [2, 2, 2], [6]],
        [[6], [6]],
    ):
        assert hurwitz(profiles, 6) == oracle_hurwitz(profiles, 6)


def test_cache_hits_equal_recomputation():
    from symprod import clear_caches

    profiles = [[2, 1], [2, 1], [3]]
    first = hurwitz(profiles, 3)
    again = hurwitz(profiles, 3)
    clear_caches()
    fresh = hurwitz(profiles, 3)
    assert first == again == fresh
    assert oracle_hurwitz(profiles, 3) == fresh


@pytest.mark.parametrize("field, key", [
    ("members", (3,)), ("classes", 0), ("index", (3,)), ("sizes", (3,)),
])
def test_group_tables_are_read_only(field, key):
    # every caller shares the memo's tables, so no caller may change them for the others
    profiles = [[2, 1], [2, 1], [3]]
    before = hurwitz(profiles, 3)
    table = getattr(_group_data(3), field)
    value = table[key]
    with pytest.raises(TypeError):
        table[key] = 0
    with pytest.raises(AttributeError):
        setattr(_group_data(3), field, None)
    assert getattr(_group_data(3), field)[key] == value
    assert hurwitz(profiles, 3) == before == oracle_hurwitz(profiles, 3)
    assert all(isinstance(ps, tuple) for ps in _group_data(3).members.values())


def test_vacuous_sigma_size_guard():
    with pytest.raises(ValueError):
        hurwitz_refined([], [[2]], [])


@st.composite
def _profile_lists(draw):
    n = draw(st.integers(1, 6))
    profiles = draw(st.lists(st.sampled_from(partitions_of(n)), min_size=1, max_size=5))
    return n, profiles


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(_profile_lists())
def test_hurwitz_matches_oracle_property(case):
    n, profiles = case
    assert hurwitz(profiles, n) == oracle_hurwitz(profiles, n), profiles
