"""The package's one memo registry and its clear."""

import re

import pytest

from symprod import clear_caches
from symprod.algebra import TruncSeries
from symprod.chenruan import expand, gram_inverse, gram_matrix, pairing
from symprod.errors import ShapeError
from symprod.hurwitz import hurwitz
from symprod.invariants import three_point_divisor_series, two_point_column, two_point_series
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


def _basis_with(label):
    """The default basis of n=2, r=1 with every E1 written as label."""
    return [
        tuple((p, label if old == ecurve(1) else old) for p, old in b)
        for b in default_divisor_basis(2, 1)
    ]


# (label, error, message): shapes that label_key rejects, where each once passed
_BAD_LABELS = [
    (("E", True), TypeError, "a label index must be an int, got bool True"),
    (("E", 1.5), TypeError, "a label index must be an int, got float 1.5"),
    (("E",), ValueError, "label ('E',) is not ('1',) or a kind E, w or x with one index"),
    (("1", 5), ValueError, "label ('1', 5) is not ('1',) or a kind E, w or x with one index"),
]

_LABEL_CALLS = {
    "divisor_operator": lambda basis: divisor_operator(2, 1, "D1", basis, 1, (1,)),
    "gram_inverse": lambda basis: gram_inverse(basis, 1),
    "two_point_column": lambda basis: two_point_column(basis[0], (1, 2), ((1, 1),)),
}


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("call", sorted(_LABEL_CALLS))
@pytest.mark.parametrize(
    "label, error, message", _BAD_LABELS, ids=[repr(case[0]) for case in _BAD_LABELS]
)
def test_label_shape_checks_hold_whatever_a_cache_holds(call, label, error, message, warm):
    """("E", True) equals ("E", 1) and hashes as it does, so a memo keyed on a
    weighted partition finds the E1 entry; the shape check runs before any."""
    clear_caches()
    if warm:
        _LABEL_CALLS[call](default_divisor_basis(2, 1))
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        _LABEL_CALLS[call](_basis_with(label))


_SHAPE_CALLS = {
    "pairing": lambda label: pairing(((2, label),), ((2, label),), 2),
    "class_of": lambda label: class_of(label, 2),
}


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("call", sorted(_SHAPE_CALLS))
@pytest.mark.parametrize(
    "label, error, message", _BAD_LABELS, ids=[repr(case[0]) for case in _BAD_LABELS]
)
def test_pairing_and_class_of_check_label_shapes_whatever_a_cache_holds(call, label, error,
                                                                        message, warm):
    """pairing(2(E True), 2(E True), 1) returned -1, the value of 2(E1), and
    class_of(("E", 1.5), 2) raised a bare tuple-index TypeError: both index
    ranges pass, so the shape is checked before the memos, and the error
    names the label."""
    clear_caches()
    if warm:
        _SHAPE_CALLS[call](ecurve(1))
    with pytest.raises(error) as caught:
        _SHAPE_CALLS[call](label)
    assert repr(label) in str(caught.value) and message in str(caught.value)
