"""The package's one memo registry and its clear."""

import re

import pytest

from symprod import clear_caches
from symprod.algebra import TruncSeries
from symprod.chenruan import expand, gram_matrix, pairing
from symprod.errors import ShapeError
from symprod.hurwitz import hurwitz
from symprod.invariants import three_point_divisor_series, two_point_series
from symprod.memo import _registry
from symprod.operators import default_divisor_basis, divisor_operator, op_matrix_dumps
from symprod.partitions import ONE, age, ecurve, partitions_of, weighted_partition
from symprod.surface import class_of, e_chain


def _compute():
    op = divisor_operator(2, 2, "D1", default_divisor_basis(2, 2), 1, (1, 1))
    profiles = [[2, 1], [2, 1], [3]]
    count = hurwitz(profiles, 3)
    wp = weighted_partition([(1, ecurve(1)), (1, ONE)])
    cls = expand(wp, 2)
    # the operator pairs nothing; a two-point series at a nonzero box does
    series = two_point_series(wp, wp, 1, (1, 1))
    # products and inverses of series share the per-shape packed-key table
    inverse = (TruncSeries.one(2, (1,)) + TruncSeries.monomial(1, (1,), 3, 2, (1,))).inverse()
    return op_matrix_dumps(op), count, cls, series, inverse


def test_clear_caches_empties_every_memo():
    clear_caches()
    first = _compute()
    # the computation reaches every memo, so the clear below is checked on each
    assert all(cached.cache_info().currsize for cached in _registry), [
        cached.__name__ for cached in _registry if not cached.cache_info().currsize
    ]
    clear_caches()
    assert [cached.cache_info().currsize for cached in _registry] == [0] * len(_registry)
    assert _compute() == first


_B = weighted_partition([(2, ecurve(1))])


# (function, non-int arguments, the int arguments they would find in a cache, message)
_NON_INT_CALLS = [
    (class_of, (ecurve(1), 1.0), (ecurve(1), 1), "r must be an int, got float 1.0"),
    (pairing, (_B, _B, True), (_B, _B, 1), "r must be an int, got bool True"),
    (gram_matrix, ([_B], 1.0), ([_B], 1), "r must be an int, got float 1.0"),
    (TruncSeries, (2.7, (1.5,)), (2, (1,)), "u_order must be an int, got float 2.7"),
    (TruncSeries, (2, (1.5,)), (2, (1,)), "an s-order must be an int, got float 1.5"),
    (TruncSeries, (True, (1,)), (1, (1,)), "u_order must be an int, got bool True"),
    (two_point_series, (_B, _B, True, (1,)), (_B, _B, 1, (1,)),
     "u_order must be an int, got bool True"),
    (two_point_series, (_B, _B, 1, (1.5,)), (_B, _B, 1, (1,)),
     "an s-order must be an int, got float 1.5"),
    (three_point_divisor_series, (_B, "D1", _B, True, (1,)), (_B, "D1", _B, 1, (1,)),
     "u_order must be an int, got bool True"),
    (three_point_divisor_series, (_B, "(2)", _B, True, (1,)), (_B, "(2)", _B, 1, (1,)),
     "u_order must be an int, got bool True"),
    (e_chain, (1, 1, 2.5, 1), (1, 1, 2, 1), "d must be an int, got float 2.5"),
    (e_chain, (1.5, 2, 1, 2), (1, 2, 1, 2), "i must be an int, got float 1.5"),
    (age, ((2,), 2.0), ((2,), 2), "n must be an int, got float 2.0"),
    (hurwitz, ([(2,), (2,)], 2.0), ([(2,), (2,)], 2), "n must be an int, got float 2.0"),
    (partitions_of, (True,), (1,), "n must be an int, got bool True"),
]


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize(
    "fn, bad, good, message", _NON_INT_CALLS,
    ids=[f"{case[0].__name__}-{k}" for k, case in enumerate(_NON_INT_CALLS)],
)
def test_int_checks_hold_whatever_a_cache_holds(fn, bad, good, message, warm):
    """A memoised body checks its arguments only on a miss, so the keys are
    typed: after the int call, the float or bool one must still miss and raise."""
    clear_caches()
    if warm:
        fn(*good)
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        fn(*bad)


_OUT_OF_RANGE_CALLS = [
    (class_of, (ecurve(1), 0), ValueError, "exceptional curve index 1 out of range 1..0 for r = 0"),
    (TruncSeries, (-1, (1,)), ShapeError, "truncation orders must be nonnegative"),
    (TruncSeries, (1, (-1,)), ShapeError, "truncation orders must be nonnegative"),
    (e_chain, (2, 1, 1, 2), ValueError, "chain indices (2, 1) out of range for r = 2"),
    (age, ((2,), 3), ValueError, "partition (2,) is not a partition of 3"),
    (hurwitz, ([(2,)], 3), ValueError, "profiles are partitions of 2, not 3"),
    (partitions_of, (-1,), ValueError, "n must be nonnegative"),
]


@pytest.mark.parametrize(
    "fn, args, error, message", _OUT_OF_RANGE_CALLS,
    ids=[f"{case[0].__name__}-{k}" for k, case in enumerate(_OUT_OF_RANGE_CALLS)],
)
def test_out_of_range_ints_keep_their_errors(fn, args, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        fn(*args)
