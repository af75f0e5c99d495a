"""The package's one memo registry and its clear."""

from symprod import clear_caches
from symprod.algebra import TruncSeries
from symprod.chenruan import expand
from symprod.hurwitz import hurwitz
from symprod.invariants import two_point_series
from symprod.memo import _registry
from symprod.operators import default_divisor_basis, divisor_operator, op_matrix_dumps
from symprod.partitions import ONE, ecurve, weighted_partition


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
