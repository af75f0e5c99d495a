"""Text grammar and JSON round trips."""

import pytest

from helpers import series_from_json
from symprod.algebra import RatFunc2
from symprod.partitions import ONE, ecurve, fixedpt, omega, weighted_partition
from symprod.textforms import (
    label_to_text,
    parse_label,
    parse_partition,
    parse_wp,
    series_to_json,
    wp_to_text,
)


def test_partition_text():
    assert parse_partition("2+1+1") == (2, 1, 1)
    assert parse_partition("1+2+1") == (2, 1, 1)
    assert parse_partition("") == ()
    with pytest.raises(ValueError):
        parse_partition("2+x")


def test_label_text():
    for label in (ONE, ecurve(2), omega(1), fixedpt(3)):
        assert parse_label(label_to_text(label)) == label
    with pytest.raises(ValueError):
        parse_label("E")
    with pytest.raises(ValueError):
        parse_label("y2")
    for text in ("E0", "w0", "x00"):
        with pytest.raises(ValueError):
            parse_label(text)
    assert parse_label("E01") == ecurve(1)


def test_weighted_partition_text():
    wp = weighted_partition([(1, ONE), (2, ecurve(1))])
    assert wp_to_text(wp) == "2(E1)+1(1)"
    assert parse_wp("2(E1)+1(1)") == wp
    assert parse_wp("1(1)+2(E1)") == wp  # canonical reordering
    assert parse_wp("") == ()
    with pytest.raises(ValueError):
        parse_wp("2[E1]")


def test_series_json_roundtrip():
    from symprod.algebra import TruncSeries

    series = TruncSeries(
        2,
        (2, 1),
        {
            (0, (1, 0)): RatFunc2.const(3),
            (2, (0, 1)): RatFunc2.one() / RatFunc2.const(7),
        },
    )
    payload = series_to_json(series)
    assert series_from_json(payload) == series
    assert series_to_json(series_from_json(payload)) == payload
