"""Text and JSON forms: partitions, weight labels, series.

Grammar: a partition is parts joined by "+" ("2+1+1"); a weighted
partition is part(label) chunks joined by "+" ("2(E1)+1(1)") with labels
in {1, E1..Er, w1..wr, x1..x{r+1}}. Rational functions use the canonical
"(num)/(den)" strings from the algebra layer, which are byte-stable.
"""

from __future__ import annotations

import re

from .algebra import RatFunc2, TruncSeries, ratfunc_from_text, ratfunc_to_text
from .partitions import (
    LABEL_KINDS,
    Label,
    ONE,
    Partition,
    WeightedPartition,
    partition,
    weighted_partition,
)


def parse_partition(text: str) -> Partition:
    s = text.strip()
    if not s:
        return ()
    try:
        return partition(int(chunk) for chunk in s.split("+"))
    except ValueError as exc:
        raise ValueError(f"cannot parse partition {text!r}: {exc}") from None


def label_to_text(label: Label) -> str:
    kind = label[0]
    if kind not in LABEL_KINDS:
        raise ValueError(f"label {label!r} has no text form")
    return "1" if kind == "1" else f"{kind}{label[1]}"


_LABEL_RE = re.compile(r"^(1|[Ewx]0*[1-9]\d*)$")  # indices start at 1


def parse_label(text: str) -> Label:
    s = text.strip()
    if not _LABEL_RE.match(s):
        raise ValueError(f"cannot parse weight label {text!r}")
    return ONE if s == "1" else (s[0], int(s[1:]))


def wp_to_text(wp: WeightedPartition) -> str:
    if not wp:
        return ""
    return "+".join(f"{p}({label_to_text(label)})" for p, label in wp)


_WP_CHUNK_RE = re.compile(r"^(\d+)\(([^()]*)\)$")


def parse_wp(text: str) -> WeightedPartition:
    s = text.strip()
    if not s:
        return ()
    pairs = []
    for chunk in s.split("+"):
        m = _WP_CHUNK_RE.match(chunk.strip())
        if not m:
            raise ValueError(f"cannot parse weighted-partition chunk {chunk!r}")
        pairs.append((int(m.group(1)), parse_label(m.group(2))))
    return weighted_partition(pairs)


# ---------------------------------------------------------------------------
# series JSON
# ---------------------------------------------------------------------------

def series_to_json(series: TruncSeries) -> dict:
    return {
        "u_order": series.u_order,
        "s_orders": list(series.s_orders),
        "terms": [
            {"u": a, "s": list(ds), "coeff": ratfunc_to_text(c)}
            for a, ds, c in series.monomials()
        ],
    }


def useries_to_json(pairs) -> list:
    """A u-only coefficient list [(a, RatFunc2), ...] as JSON."""
    return [[a, ratfunc_to_text(RatFunc2.lift(v))] for a, v in pairs]


def useries_from_json(payload) -> tuple:
    """A u-only coefficient list from JSON; the ``ZeroDegreeTable`` constructor checks the exponents."""
    return tuple((a, ratfunc_from_text(v)) for a, v in payload)
