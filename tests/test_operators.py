"""Operator assembly, the closed-form benchmark, grading, eigenchecks."""

import hashlib
import json.encoder
import random
import re
from fractions import Fraction
from itertools import permutations
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    all_weighted_partitions,
    diff_every_entry_report,
    divisor_labels,
    nonzero_degree_ok,
    op_matrix_from_json,
    op_matrix_to_json,
    random_series,
    random_weighted_partition,
    ratfunc_subs_t2_minus_t1,
    reference_divisor_operator,
    reference_op_matrix_dumps,
    reference_two_point_product,
)
from symprod.algebra import (
    Poly2,
    RatFunc2,
    TruncSeries,
    expand_q_closed_form,
)
from symprod.operators import (
    AllCells,
    OperatorMatrix,
    closed_form_matrix_a1n2,
    default_divisor_basis,
    divisor_operator,
    eigen_certify,
    grading,
    op_matrix_dumps,
    op_matrix_to_csv,
    op_matrix_to_latex,
    verify_a1n2,
    zero_degree_table_a1n2,
)
from symprod.chenruan import check_whole_blocks, gram_inverse, gram_matrix
from symprod.errors import (
    DegenerateBasisError,
    MalformedInputError,
    ShapeError,
    UnsupportedWeightError,
)
from symprod.invariants import ZeroDegreeTable
from symprod.partitions import ONE, ecurve, fixedpt, omega, underlying, weighted_partition
from symprod.surface import chain_degrees, e_chain
from symprod.textforms import wp_to_text

THETA = Poly2.linear(1, 1)


def test_closed_form_constant_entries():
    m = expand_q_closed_form(closed_form_matrix_a1n2, 2, (2,))
    s13 = m[0][2]
    assert s13.coefficient(0, (0,)) == RatFunc2.const(-1)
    assert len(s13.coeffs) == 1
    s53 = m[4][2]
    assert s53.coefficient(0, (0,)) == RatFunc2(Poly2.monomial(1, 1, 4))
    assert len(s53.coeffs) == 1


def test_closed_form_diagonal_entry():
    s33 = expand_q_closed_form(closed_form_matrix_a1n2, 2, (3,))[2][2]
    assert s33.coefficient(0, (0,)) == RatFunc2(-THETA)
    for d in (1, 2, 3):
        assert s33.coefficient(0, (d,)) == RatFunc2(THETA.scale(-2))
        assert s33.coefficient(1, (d,)).is_zero()
        assert s33.coefficient(2, (d,)).is_zero()


def test_divisor_operator_contraction_sign():
    # the dual of 2(E1) is -2(E1): entry (2,2) flips the raw 3-point sign
    basis = default_divisor_basis(2, 1)
    op = divisor_operator(2, 1, "D1", basis, 0, (3,), zero_degree_table_a1n2())
    for d in (1, 2, 3):
        assert op.entry(1, 1).coefficient(0, (d,)) == RatFunc2(THETA.scale(-4))
    assert not op.gaps


def test_operator_entries_theta_divisible_divisor_block():
    # with pure divisor-weight basis elements, the u^0 nonzero-degree
    # layers inherit (t1+t2)-divisibility from the connected invariants
    basis = default_divisor_basis(2, 1)
    op = divisor_operator(2, 1, "D1", basis, 0, (2,), zero_degree_table_a1n2())
    divisor_only = [
        all(label[0] in ("E", "w") for _, label in b) for b in basis
    ]
    for i in range(5):
        for j in range(5):
            if not (divisor_only[i] and divisor_only[j]):
                continue
            for _, ds, c in op.entry(i, j).monomials():
                if not any(ds):
                    continue
                num, _ = ratfunc_subs_t2_minus_t1(c)
                assert num == []


def test_verify_small_orders():
    report = verify_a1n2(2, 3)
    assert report.full_ok
    assert nonzero_degree_ok(report)
    assert report.entries_matched == 25
    assert "25/25" in report.summary()


def test_verify_u_zero_subset():
    report = verify_a1n2(0, 2)
    assert report.full_ok


def test_verify_detects_corrupted_table():
    table = zero_degree_table_a1n2()
    basis = default_divisor_basis(2, 1)
    key = wp_to_text(basis[1])  # the diagonal 2(E1) entry
    entries = dict(table.entries)
    (a0, val), = entries[key, "D1", key]
    entries[key, "D1", key] = [(a0, val + RatFunc2.one())]
    table = ZeroDegreeTable(entries)
    report = verify_a1n2(1, 2, table)
    assert not report.full_ok
    assert nonzero_degree_ok(report)  # corruption only hits the beta = 0 layer
    bad_entries = {(m[0], m[1]) for m in report.mismatches}
    assert bad_entries == {(2, 2)}
    assert report.entries_matched == 24
    _same_report(report, diff_every_entry_report(1, 2, table))


def test_verify_offdiagonal_corruption_hits_symmetric_pair():
    # the two mirror copies of one constant back both outer orders of the
    # 3-point function, and a table takes them only when they agree
    entries = dict(zero_degree_table_a1n2().entries)
    basis = default_divisor_basis(2, 1)
    key_left = wp_to_text(basis[1])   # 2(E1)
    key_right = wp_to_text(basis[3])  # 2(1)
    (a0, val), = entries[key_left, "D1", key_right]
    for key in ((key_left, "D1", key_right), (key_right, "D1", key_left)):
        entries[key] = [(a0, val + RatFunc2.one())]
    table = ZeroDegreeTable(entries)
    report = verify_a1n2(1, 2, table)
    bad_entries = {(m[0], m[1]) for m in report.mismatches}
    assert bad_entries == {(2, 4), (4, 2)}
    _same_report(report, diff_every_entry_report(1, 2, table))


def test_verify_report_with_many_mismatches_is_unchanged():
    # u-dependent terms in every stored value: several monomials per entry,
    # and more mismatches than the summary lists
    table = ZeroDegreeTable(
        (key, [(a0, val), (1, val + 1), (3, RatFunc2.const(2))])
        for key, ((a0, val),) in zero_degree_table_a1n2().entries.items()
    )
    report = verify_a1n2(3, 2, table)
    assert len({(m[0], m[1]) for m in report.mismatches}) > 1
    assert len(report.mismatches) > 20 and "more mismatches" in report.summary()
    _same_report(report, diff_every_entry_report(3, 2, table))


def _same_report(report, want):
    """The equality shortcut changes no byte of a report: the same mismatch
    list, in the same order, and the same summary text."""
    assert report.mismatches == want.mismatches
    assert report.summary() == want.summary()
    assert report.gaps == want.gaps


def test_verify_expands_the_closed_form_once(monkeypatch):
    import symprod.operators as operators

    expand, calls = operators.expand_q_closed_form, []

    def counted(form, u_order, s_orders):
        calls.append((u_order, tuple(s_orders)))
        return expand(form, u_order, s_orders)

    table = zero_degree_table_a1n2()
    monkeypatch.setattr(operators, "expand_q_closed_form", counted)
    # with no table, the built-in one comes from the comparison's own expansion
    assert verify_a1n2(3, 2).full_ok
    assert calls == [(3, (2,))]
    calls.clear()
    assert verify_a1n2(3, 2, table).full_ok
    assert calls == [(3, (2,))]


@pytest.mark.parametrize("u_order, s_order", [(0, 0), (2, 0), (3, 2), (12, 12)])
def test_table_from_expansion_matches_built_in_table(u_order, s_order):
    from symprod.operators import _table_from_expansion

    m = expand_q_closed_form(closed_form_matrix_a1n2, u_order, (s_order,))
    assert _table_from_expansion(m).entries == zero_degree_table_a1n2().entries


def test_table_from_expansion_rejects_a_u_dependent_s0_layer():
    from symprod.operators import _table_from_expansion

    m = expand_q_closed_form(closed_form_matrix_a1n2, 2, (1,))
    # a u s term is beta != 0 data and leaves the table as it is
    m[0][0] = m[0][0] + TruncSeries.monomial(1, (1,), 1, 2, (1,))
    assert _table_from_expansion(m).entries == zero_degree_table_a1n2().entries
    m[0][0] = m[0][0] + TruncSeries.monomial(1, (0,), 1, 2, (1,))
    with pytest.raises(RuntimeError, match="should be u-independent"):
        _table_from_expansion(m)


def test_verify_missing_entry_reports_gap():
    basis = default_divisor_basis(2, 1)
    key = (wp_to_text(basis[0]), "D1", wp_to_text(basis[0]))
    table = ZeroDegreeTable(
        (k, pairs) for k, pairs in zero_degree_table_a1n2().entries.items() if k != key
    )
    report = verify_a1n2(1, 2, table)
    assert report.gaps
    assert not report.full_ok
    assert nonzero_degree_ok(report)


def test_operator_rejects_size_below_one():
    """Sym^0 is a point with no divisor classes."""
    for n in (0, -2):
        with pytest.raises(ValueError, match="^n must be at least 1$"):
            default_divisor_basis(n, 1)
        with pytest.raises(ValueError, match="^n must be at least 1$"):
            divisor_operator(n, 1, "D1", [()], 1, (1,))
    with pytest.raises(TypeError, match="^n must be an int, got bool True$"):
        default_divisor_basis(True, 1)


def test_default_basis_matches_benchmark_order():
    # the paper's ordered degree basis of [Sym^2(A_1)]
    e1 = ecurve(1)
    assert default_divisor_basis(2, 1) == [
        weighted_partition([(1, e1), (1, e1)]),
        weighted_partition([(2, e1)]),
        weighted_partition([(1, ONE), (1, e1)]),
        weighted_partition([(2, ONE)]),
        weighted_partition([(1, ONE), (1, ONE)]),
    ]


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("n", range(1, 7))
def test_default_basis_is_every_weighted_partition_by_the_divisor_labels(n, r):
    assert sorted(default_divisor_basis(n, r)) == all_weighted_partitions(n, divisor_labels(r))


@pytest.mark.parametrize(
    "n, r, size", [(12, 1, 1165), (7, 3, 1240), (6, 4, 1265), (13, 1, 1770), (8, 3, 2580)]
)
def test_default_basis_sizes_of_the_large_rows(n, r, size):
    basis = default_divisor_basis(n, r)
    assert len(basis) == len(set(basis)) == size


@pytest.mark.parametrize("index", [1.5, True])
def test_a_basis_with_a_non_int_label_index_is_rejected(index):
    """With every E1 of the n=2 r=2 basis written ("E", 1.5), the whole-block
    check once passed (1.5 lies in 1..2) and the operator held 6 cells where
    the real basis gives 27, with no error; ("E", True) printed as ETrue."""
    basis = [
        tuple((p, ("E", index) if label == ecurve(1) else label) for p, label in b)
        for b in default_divisor_basis(2, 2)
    ]
    message = f"^a label index must be an int, got {type(index).__name__} {index!r}$"
    for build in (
        lambda: divisor_operator(2, 2, "D1", basis, 1, (1, 1)),
        lambda: check_whole_blocks(basis, 2),
        lambda: gram_inverse(basis, 2),
    ):
        with pytest.raises(TypeError, match=message):
            build()
    assert len(divisor_operator(2, 2, "D1", default_divisor_basis(2, 2), 1, (1, 1)).cells) == 27


def test_grading_preserved_and_signs():
    rng = random.Random(91)
    labels = [ONE, ecurve(1), omega(1), fixedpt(1), fixedpt(2)]
    for _ in range(20):
        n = rng.randint(1, 4)
        wp = random_weighted_partition(rng, n, labels)
        age = n - len(wp)
        got = grading(wp, n)
        want = age + sum(
            {"1": 0, "E": 1, "w": 1, "x": 2}[label[0]] for _, label in wp
        )
        assert got == want
    with pytest.raises(ValueError, match="unknown label kind 'y'"):
        grading(((2, ("y", 1)),), 2)


def test_eigen_certify_reference_point():
    report = eigen_certify(
        closed_form_matrix_a1n2,
        {"t1": 1, "t2": 2, "s1": Fraction(1, 3), "q": Fraction(1, 5)},
    )
    assert report.squarefree
    assert report.char_poly.degree() == 5


def test_eigen_certify_pole():
    with pytest.raises(ZeroDivisionError):
        eigen_certify(
            closed_form_matrix_a1n2,
            {"t1": 1, "t2": 2, "s1": 1, "q": Fraction(1, 5)},
        )


@pytest.mark.parametrize(
    "values",
    [
        {"t1": 1, "t2": 2, "s1": Fraction(1, 3)},
        {"t1": 1, "t2": 2, "s1": Fraction(1, 3), "q": Fraction(1, 5), "s2": 1},
    ],
)
def test_eigen_certify_names_exactly_the_atoms(values):
    with pytest.raises(TypeError):
        eigen_certify(closed_form_matrix_a1n2, values)


def test_contraction_closes_against_three_point_values():
    # G * M recovers the three-point series: the dual-basis contraction
    # convention is pinned by <D * b_j | b_i> = <<b_j, D, b_i>>
    from symprod.chenruan import gram_matrix
    from symprod.invariants import three_point_divisor_series
    from symprod.algebra import TruncSeries

    basis = default_divisor_basis(2, 1)
    table = zero_degree_table_a1n2()
    u_order, s_orders = 2, (2,)
    op = divisor_operator(2, 1, "D1", basis, u_order, s_orders, table)
    gram = gram_matrix(basis, 1)
    for i in range(5):
        for j in range(5):
            acc = TruncSeries.zero(u_order, s_orders)
            for c in range(5):
                if not gram[i][c].is_zero():
                    acc = acc + op.entry(c, j).scale(gram[i][c])
            want = three_point_divisor_series(
                basis[j], "D1", basis[i], u_order, s_orders, table
            ).series
            assert acc == want, (i, j)


def test_matrix_json_roundtrip():
    op = divisor_operator(
        2, 1, "D1", default_divisor_basis(2, 1), 1, (2,), zero_degree_table_a1n2()
    )
    payload = op_matrix_to_json(op)
    back = op_matrix_from_json(payload)
    assert back.basis == op.basis
    assert back.cells == op.cells
    assert back.gaps == op.gaps
    assert op_matrix_to_json(back) == payload


def test_matrix_text_emitters():
    op = divisor_operator(
        2, 1, "D1", default_divisor_basis(2, 1), 0, (1,), zero_degree_table_a1n2()
    )
    latex = op_matrix_to_latex(op)
    assert latex.startswith("%")
    assert "\\begin{pmatrix}" in latex and "\\end{pmatrix}" in latex
    csv_text = op_matrix_to_csv(op)
    assert csv_text.splitlines()[0] == "row,col,u,s1,coefficient"
    assert any("4*t1" in line for line in csv_text.splitlines())


def test_divisor_operator_rejects_label_out_of_range():
    basis = [weighted_partition([(2, ecurve(1))]), weighted_partition([(2, ecurve(2))])]
    with pytest.raises(MalformedInputError):
        divisor_operator(2, 1, "D1", basis, 0, (1,))


# sha256 of op_matrix_dumps: the JSON output is byte-stable by contract
PINNED_OP_MATRICES = [
    ((2, 2, "(2)", 2, (2, 2), False),
     "79bab28c2bfbf9cb9dac379bbebd50f60ed8dafa0a0e727fcc1632a109e564e5"),
    ((2, 2, "D1", 2, (2, 2), False),
     "d582357e24b9522fc0a8560bb2e492348c91012a0d9fe4e9ff483c20c3ad431d"),
    ((2, 2, "D2", 2, (2, 2), False),
     "123ff7119fdefecee1f6a0310487e5c450846107a5d9a1932f3a52719d187045"),
    ((2, 1, "D1", 3, (3,), True),
     "b1e3a9571e8a04bc5d27c057245e36f5335a951a6805d65f32e5248214c7cf15"),
    ((2, 4, "D1", 3, (2, 2, 2, 2), False),
     "8e527b40337d431b584b1c875fc0b1a15807d6baedec830aceb48f0f714c1aca"),
    # bases with two or more 1-labels: the powers of t1 t2 in G^{-1} and T_2 cancel
    ((3, 2, "(2)", 3, (2, 2), False),
     "b80c4a024d04292371382780217cf0fa88243ae22a0840067d26406bbe3ba14c"),
    ((4, 2, "D1", 2, (1, 1), False),
     "ba5a4def9d7c124fe9a008c4b07876ccc9327631c04a7bb794f2a46a70ab84e7"),
    # r = 3: the a d^(a-1) multiplier of "(2)" and a partial s-box
    ((3, 3, "(2)", 2, (1, 1, 1), False),
     "ca6df90a0ced904d6f0e56de03f7faf8e3ff7e12371574d12bcdc6898f81d33a"),
    ((3, 3, "D2", 2, (2, 1, 2), False),
     "b6ce9758815f3d616479085fd71f0e1d33d04b29131e7871a40aa4d593438d1d"),
    # a box with a hole (s2 = 0) and d = 2: 74 cells hold a term
    ((3, 3, "D3", 2, (2, 0, 1), False),
     "238eb30c0317c2f6730e7b74aeb9839d5ad34b23c1b62271abd29566d9e77f21"),
    # a table without the "1" marker rows: every "(2)" cell is a gap, not a zero
    ((2, 1, "(2)", 3, (3,), True),
     "f0497e10bd5e0963232b2ed4ae2922dec437ba1789cf6544d44c77f76746872c"),
]


def test_op_matrix_json_pinned():
    for (n, r, divisor, u_order, s_orders, with_table), digest in PINNED_OP_MATRICES:
        table = zero_degree_table_a1n2() if with_table else None
        op = divisor_operator(
            n, r, divisor, default_divisor_basis(n, r), u_order, s_orders, table
        )
        text = op_matrix_dumps(op)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, divisor


_ESCAPED_DIVISOR = 'D"\\\u00e9'  # a quote, a backslash and a non-ASCII character


def _row_columns(pattern: str, size: int, rng: random.Random) -> list:
    """The columns of a row that hold a term, by the row's pattern."""
    if pattern == "random":
        return [j for j in range(size) if rng.random() < 0.75]
    return {
        "none": [], "full": list(range(size)),
        "first": [0], "last": [size - 1], "ends": sorted({0, size - 1}),
    }[pattern]


@st.composite
def _op_matrices(draw):
    """OperatorMatrix values built directly: any basis prefix, random rational
    entries of the matrix's shape, and any gap set, the rule AllCells among
    them. Each row holds its terms at random columns, at none, at every
    column, or only at its first or last column or both, so that the runs of
    entries with no term start and end at the row's edges."""
    n, r = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    full = default_divisor_basis(n, r)
    basis = tuple(draw(st.permutations(full))[: draw(st.integers(1, min(6, len(full))))])
    size = len(basis)
    u_order = draw(st.integers(0, 2))
    s_orders = tuple(draw(st.lists(st.integers(0, 2), min_size=r, max_size=r)))
    rng = random.Random(draw(st.integers(0, 2**16)))
    patterns = ["random", "none", "full", "first", "last", "ends"]
    rows = draw(st.lists(st.sampled_from(patterns), min_size=size, max_size=size))
    stored = {}
    for i, pattern in enumerate(rows):
        for j in _row_columns(pattern, size, rng):
            series = random_series(rng, u_order, s_orders, ratfunc=True)
            while not series.coeffs:
                series = random_series(rng, u_order, s_orders, ratfunc=True)
            stored[i, j] = series
    cells = [(i, j) for i in range(size) for j in range(size)]
    share = draw(st.sampled_from([0.0, 0.3, 1.0, "rule"]))  # no gaps, some, all, or the rule
    gaps = AllCells(size) if share == "rule" else {cell for cell in cells if rng.random() < share}
    divisor = draw(st.sampled_from(["(2)", "D1", _ESCAPED_DIVISOR]))
    return OperatorMatrix(n, r, divisor, basis, u_order, s_orders, stored, gaps)


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(_op_matrices())
@example(
    OperatorMatrix(
        1, 1, _ESCAPED_DIVISOR, tuple(default_divisor_basis(1, 1)[:1]), 0, (0,), {}, {(0, 0)},
    )
)
def test_op_matrix_dumps_matches_reference(op):
    assert op_matrix_dumps(op) == reference_op_matrix_dumps(op)


def test_op_matrix_dumps_never_iterates_the_gap_rule(monkeypatch):
    """The rule AllCells gives every column of every row by itself; the writer
    never asks it for its N^2 cells."""
    op = divisor_operator(3, 2, "D1", default_divisor_basis(3, 2), 2, (1, 1))
    assert isinstance(op.gaps, AllCells) and op.cells
    want = reference_op_matrix_dumps(op)  # the oracle sorts the cells themselves

    def refuse(self):
        raise AssertionError("the writer iterated AllCells")

    monkeypatch.setattr(AllCells, "__iter__", refuse)
    assert op_matrix_dumps(op) == want


def test_op_matrix_dumps_runs_no_pure_python_encoder(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    op = divisor_operator(
        2, 1, "D1", default_divisor_basis(2, 1), 1, (1,), zero_degree_table_a1n2()
    )
    assert json.loads(op_matrix_dumps(op)) == op_matrix_to_json(op)


# ---------------------------------------------------------------------------
# differential check against the per-pair reference assembly
# ---------------------------------------------------------------------------

def _synthetic_table(basis, r: int, rng: random.Random, holes: bool, mirrored: bool):
    """Degree-zero data for every basis pair and table divisor, one outer
    order per pair; holes drops about a quarter of the keys, mirrored
    stores both orders of one off-diagonal pair with equal values."""

    def value():
        coeffs = {(1, 0): rng.randint(-2, 2), (0, 1): rng.randint(-2, 2),
                  (0, 0): rng.randint(-3, 3)}
        return [(a, RatFunc2(Poly2(coeffs))) for a in sorted(rng.sample(range(4), 2))]

    texts = [wp_to_text(b) for b in basis]
    entries = {}
    for key in ["1"] + [f"D{l}" for l in range(1, r + 1)]:
        for j in range(len(basis)):
            for a in range(j, len(basis)):
                if holes and rng.random() < 0.25:
                    continue
                left, right = (texts[j], texts[a]) if rng.random() < 0.5 else (texts[a], texts[j])
                entries[left, key, right] = value()
        if mirrored and len(basis) > 1:
            j, a = sorted(rng.sample(range(len(basis)), 2))
            entries[texts[j], key, texts[a]] = entries[texts[a], key, texts[j]] = value()
    return ZeroDegreeTable(entries)


@st.composite
def _operator_case(draw):
    n, r = draw(st.sampled_from([(n, r) for n in (1, 2, 3) for r in (1, 2, 3)]))
    blocks: dict = {}
    for b in default_divisor_basis(n, r):
        blocks.setdefault(underlying(b), []).append(b)
    # whole blocks keep the Gram matrix invertible; the size cap keeps it fast
    chosen = draw(
        st.lists(st.sampled_from(sorted(blocks)), min_size=1, unique=True).filter(
            lambda keys: sum(len(blocks[k]) for k in keys) <= 14
        )
    )
    basis = draw(st.permutations([b for k in chosen for b in blocks[k]]))
    ell = draw(st.integers(0 if n > 1 else 1, r))  # "(2)" needs n >= 2
    divisor = f"D{ell}" if ell else "(2)"
    u_order = draw(st.integers(0, 2))
    s_orders = tuple(draw(st.lists(st.integers(0, 2), min_size=r, max_size=r)))
    kind = draw(st.sampled_from(["none", "a1n2", "full", "holes", "mirrored"]))
    if kind == "none":
        table = None
    elif kind == "a1n2":
        table = zero_degree_table_a1n2()
    else:
        rng = random.Random(draw(st.integers(0, 2**16)))
        table = _synthetic_table(basis, r, rng, kind == "holes", kind == "mirrored")
    return n, r, divisor, basis, u_order, s_orders, table


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(_operator_case())
@example((2, 1, "D1", default_divisor_basis(2, 1), 2, (2,), zero_degree_table_a1n2()))
@example((2, 1, "(2)", default_divisor_basis(2, 1)[::-1], 1, (3,), zero_degree_table_a1n2()))
@example((3, 1, "D1", [b for b in default_divisor_basis(3, 1) if underlying(b) != (3,)], 2, (2,),
          None))  # a column's terms in the left-out (3) block are dropped
def test_divisor_operator_matches_per_pair_reference(case):
    n, r, divisor, basis, u_order, s_orders, table = case
    got = divisor_operator(n, r, divisor, basis, u_order, s_orders, table)
    want = reference_divisor_operator(n, r, divisor, basis, u_order, s_orders, table)
    assert got.basis == want.basis
    assert got.cells == want.cells
    assert got.gaps == want.gaps
    # only the entries with a term are stored, each of the matrix's shape
    zero = TruncSeries.zero(u_order, s_orders)
    for series in got.cells.values():
        assert series.coeffs and series.shape() == zero.shape()
    for i in range(len(basis)):
        for j in range(len(basis)):
            if (i, j) not in got.cells:
                assert got.entry(i, j) == zero


def test_two_point_product_is_shared_by_every_divisor(monkeypatch):
    import symprod
    import symprod.operators as operators

    counts = {"gram_inverse": 0, "columns": 0}
    gram_inverse, two_point_column = operators.gram_inverse, operators.two_point_column

    def counted_gram_inverse(basis, r):
        counts["gram_inverse"] += 1
        return gram_inverse(basis, r)

    def counted_two_point_column(wp, a_values, chains):
        counts["columns"] += 1
        return two_point_column(wp, a_values, chains)

    monkeypatch.setattr(operators, "gram_inverse", counted_gram_inverse)
    monkeypatch.setattr(operators, "two_point_column", counted_two_point_column)
    symprod.clear_caches()
    basis = default_divisor_basis(2, 3)
    assert len(basis) == 14  # one column of P per basis element
    # with no table every entry is a gap, so no G^{-1} is taken
    for divisor in ("(2)", "D1", "D2", "D3"):
        divisor_operator(2, 3, divisor, basis, 4, (3, 3, 3))
    assert counts == {"gram_inverse": 0, "columns": 14}
    symprod.clear_caches()
    divisor_operator(2, 3, "D2", basis, 4, (3, 3, 3))
    assert counts == {"gram_inverse": 0, "columns": 28}
    # with a table, G^{-1} contracts the beta = 0 layer: one per operator
    symprod.clear_caches()
    basis, table = default_divisor_basis(2, 1), zero_degree_table_a1n2()
    for divisor in ("(2)", "D1"):
        divisor_operator(2, 1, divisor, basis, 4, (3,), table)
    assert counts == {"gram_inverse": 2, "columns": 33}


@pytest.mark.parametrize("table", [None, ZeroDegreeTable()], ids=["no-table", "table"])
def test_divisor_operator_rejects_a_partial_block(table):
    basis = default_divisor_basis(2, 1)
    partial = basis[:2] + basis[3:]
    with pytest.raises(DegenerateBasisError) as want:
        gram_inverse(partial, 1)
    with pytest.raises(DegenerateBasisError, match=f"^{re.escape(str(want.value))}$"):
        divisor_operator(2, 1, "D1", partial, 2, (2,), table)


@pytest.mark.parametrize("n, r, with_table", [(3, 2, False), (2, 1, True)])
def test_divisor_operator_makes_no_pairing_call(monkeypatch, n, r, with_table):
    import symprod
    import symprod.invariants as invariants

    table = zero_degree_table_a1n2() if with_table else None
    want = [
        reference_divisor_operator(n, r, f"D{ell}" if ell else "(2)", default_divisor_basis(n, r),
                                   2, (2,) * r, table).cells
        for ell in range(r + 1)
    ]

    def refuse(*args):
        raise AssertionError("the operator paired two weighted partitions")

    monkeypatch.setattr(invariants, "pairing", refuse)
    symprod.clear_caches()
    for ell in range(r + 1):
        divisor = f"D{ell}" if ell else "(2)"
        op = divisor_operator(n, r, divisor, default_divisor_basis(n, r), 2, (2,) * r, table)
        assert op.cells == want[ell]


def _assert_reduced_pairs(product: dict) -> None:
    """Every value of P is a pair (num, den) of ints, reduced, with num != 0
    and den > 0."""
    for terms in product.values():
        for *_, num, den in terms:
            assert type(num) is int and type(den) is int
            assert num and den > 0 and gcd(num, den) == 1


@pytest.mark.parametrize("n, r", [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (2, 3)])
def test_two_point_product_values_are_theta_times_rationals(n, r):
    import symprod.operators as operators

    basis = tuple(default_divisor_basis(n, r))
    product = dict(operators._two_point_product(basis, r, 3, tuple(chain_degrees((1,) * r))))
    assert product and all(product.values())  # only the nonzero cells are held
    _assert_reduced_pairs(product)
    # every beta != 0 coefficient of M_D is (t1+t2) c m for its value c of P
    # and its multiplier m: d^a for "D<l>", a d^(a-1) for "(2)"
    u_order, s_orders = 2, (2,) * r
    for ell in range(r + 1):
        divisor = f"D{ell}" if ell else "(2)"
        op = divisor_operator(n, r, divisor, basis, u_order, s_orders)
        for i in range(len(basis)):
            for j in range(len(basis)):
                want = {}
                for a, ci, cj, num, den in product.get((i, j), ()):
                    c = Fraction(num, den)
                    for d in range(1, 3):
                        ds = e_chain(ci, cj, d, r)
                        if ell and a <= u_order and ci <= ell <= cj:
                            want[(a, ds)] = RatFunc2(THETA.scale(c * d**a))
                        elif not ell and a:
                            want[(a - 1, ds)] = RatFunc2(THETA.scale(c * a * d ** (a - 1)))
                coeffs = op.entry(i, j).coeffs
                assert {key: v for key, v in coeffs.items() if any(key[1])} == want


@pytest.mark.parametrize(
    "n, r, unit_box",
    [(2, 1, (1,)), (3, 1, (1,)), (4, 1, (1,))]
    + [(n, 2, box) for n in (2, 3) for box in [(1, 1), (1, 0), (0, 1)]]
    + [(2, 3, box) for box in [(1, 1, 1), (1, 0, 1), (0, 1, 0), (1, 1, 0)]]
    + [(3, 3, (1, 1, 1)), (3, 3, (1, 0, 1))]
    + [(5, 1, (1,)), (4, 2, (1, 1)), (4, 3, (1, 1, 1)), (4, 3, (1, 0, 1))],
)
def test_two_point_product_matches_fraction_contraction(n, r, unit_box):
    import symprod.operators as operators

    basis = tuple(default_divisor_basis(n, r))
    product = dict(operators._two_point_product(basis, r, 3, tuple(chain_degrees(unit_box))))
    _assert_reduced_pairs(product)
    want = reference_two_point_product(basis, r, 3, unit_box)
    assert any(want_entry for want_row in want for want_entry in want_row)
    assert len(want) == len(basis)
    for i, want_row in enumerate(want):
        for j, want_entry in enumerate(want_row):
            entry = product.pop((i, j), ())
            got = {
                (a, ci, cj): RatFunc2(THETA.scale(Fraction(num, den)))
                for a, ci, cj, num, den in entry
            }
            assert got == {(a, ci, cj): v for a, ci, cj, v in want_entry}
    assert not product  # no cell outside the basis


@st.composite
def _symmetry_case(draw):
    n, r = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    basis = tuple(draw(st.permutations(default_divisor_basis(n, r))))
    return r, basis, draw(st.integers(0, 3))


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(_symmetry_case())
@example((3, tuple(default_divisor_basis(4, 3)), 2))
@example((2, tuple(default_divisor_basis(4, 2))[::-1], 3))
def test_two_point_product_times_gram_is_symmetric(case):
    """T_2 = G P is the matrix of two-point series, which is symmetric in its
    two insertions: in each (a, i', j') layer, (G P)[i][j] = (G P)[j][i]."""
    import symprod.operators as operators

    r, basis, u_top = case
    product = operators._two_point_product(basis, r, u_top, tuple(chain_degrees((1,) * r)))
    gram = gram_matrix(basis, r)
    t2: dict = {}
    for (row, j), terms in product:
        for i, g in enumerate(gram[row]):  # G is symmetric, so its column is its row
            if g.is_zero():
                continue
            layers = t2.setdefault((i, j), {})
            for a, ci, cj, num, den in terms:
                value = layers.get((a, ci, cj), RatFunc2.zero()) + g * Fraction(num, den)
                layers[a, ci, cj] = value
    t2 = {cell: {k: v for k, v in layers.items() if not v.is_zero()} for cell, layers in t2.items()}
    assert any(t2.values())
    for (i, j), layers in t2.items():
        assert layers == t2.get((j, i), {}), (basis[i], basis[j])


@st.composite
def _reversal_case(draw):
    """(n, r, l, u_order, s_orders) with s_orders the same reversed."""
    n, r = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    half = draw(st.lists(st.integers(0, 2), min_size=(r + 1) // 2, max_size=(r + 1) // 2))
    ell = draw(st.integers(0 if n > 1 else 1, r))  # "(2)" needs n >= 2
    return n, r, ell, draw(st.integers(0, 2)), tuple(half + half[: r // 2][::-1])


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(_reversal_case())
@example((3, 2, 1, 2, (1, 1)))
@example((2, 3, 1, 2, (2, 1, 2)))
@example((3, 4, 0, 1, (1, 2, 2, 1)))
def test_operator_commutes_with_the_a_r_reversal(case):
    """The reversal E_i -> E_{r+1-i} of A_r maps D_l to D_{r+1-l} and (2) to
    itself. With pi the basis permutation it induces, on a box whose s-orders
    read the same reversed, M_{D_l}[i, j] is M_{D_{r+1-l}}[pi i, pi j] with
    its s-exponents reversed, and the same cells hold terms on both sides."""
    n, r, ell, u_order, s_orders = case
    basis = default_divisor_basis(n, r)
    index = {b: k for k, b in enumerate(basis)}
    pi = [
        index[weighted_partition(
            (p, ecurve(r + 1 - label[1]) if label[0] == "E" else label) for p, label in b
        )]
        for b in basis
    ]
    op = divisor_operator(n, r, f"D{ell}" if ell else "(2)", basis, u_order, s_orders)
    image = divisor_operator(n, r, f"D{r + 1 - ell}" if ell else "(2)", basis, u_order, s_orders)
    assert set(image.cells) == {(pi[i], pi[j]) for i, j in op.cells}
    for (i, j), entry in op.cells.items():
        want = {(a, ds[::-1]): c for (a, ds), c in image.cells[pi[i], pi[j]].coeffs.items()}
        assert entry.coeffs == want, (op.divisor, basis[i], basis[j])


def _assert_gram_times_operator_is_symmetric(op):
    """G M_D = d_D(T_2) + T_D|_{s=0} is the matrix of three-point series
    <<b_j, D, b_i>>: symmetric when the table is, since both orders of a pair
    read one stored series."""
    gram = gram_matrix(op.basis, op.r)
    cols = [[op.entry(c, j) for c in range(op.size())] for j in range(op.size())]
    gm = [
        [TruncSeries.lincomb(zip(gram[i], col), op.u_order, op.s_orders) for col in cols]
        for i in range(op.size())
    ]
    assert any(not e.is_zero() for row in gm for e in row)
    for i in range(op.size()):
        for j in range(i):
            assert gm[i][j] == gm[j][i], (op.divisor, op.basis[i], op.basis[j])


@pytest.mark.parametrize("divisor", ["(2)", "D1"])
@pytest.mark.parametrize("u_order, s_order", [(0, 1), (1, 2), (3, 1), (2, 3)])
def test_gram_times_a1n2_operator_is_symmetric(divisor, u_order, s_order):
    basis = default_divisor_basis(2, 1)
    op = divisor_operator(2, 1, divisor, basis, u_order, (s_order,), zero_degree_table_a1n2())
    _assert_gram_times_operator_is_symmetric(op)


@pytest.mark.parametrize("n, r", [(1, 1), (2, 2), (3, 1)])
@pytest.mark.parametrize("seed", [0, 1])
def test_gram_times_operator_with_a_full_table_is_symmetric(n, r, seed):
    basis = default_divisor_basis(n, r)
    rng = random.Random(seed)
    table = _synthetic_table(basis, r, rng, holes=False, mirrored=bool(seed))
    for ell in range(0 if n > 1 else 1, r + 1):  # "(2)" needs n >= 2
        op = divisor_operator(n, r, f"D{ell}" if ell else "(2)", basis, 2, (1,) * r, table)
        assert not op.gaps
        _assert_gram_times_operator_is_symmetric(op)


def test_equal_coefficients_are_built_and_formatted_once(monkeypatch):
    import symprod
    import symprod.operators as operators

    ratfunc, to_text = operators.RatFunc2, operators.ratfunc_to_text
    built, formatted = [], []

    def counted_ratfunc(num):  # the one-argument route: a polynomial over 1
        value = ratfunc(num)
        built.append(value)
        return value

    def counted_to_text(f):
        formatted.append(f)
        return to_text(f)

    monkeypatch.setattr(operators, "RatFunc2", counted_ratfunc)
    monkeypatch.setattr(operators, "ratfunc_to_text", counted_to_text)
    symprod.clear_caches()
    basis = default_divisor_basis(2, 3)
    beta, values_written = set(), set()
    for divisor in ("(2)", "D1", "D2", "D3"):
        op = divisor_operator(2, 3, divisor, basis, 4, (3, 3, 3))
        series = list(op.cells.values())
        # the entries skip TruncSeries' key checks, which would change nothing
        assert all(TruncSeries(s.u_order, s.s_orders, s.coeffs).coeffs == s.coeffs for s in series)
        coeffs = [s.coeffs for s in series]
        values = {v for c in coeffs for key, v in c.items() if any(key[1])}
        assert len(values) > 1, divisor
        beta |= values
        # each distinct (t1+t2) c is built once across the four divisors: a
        # value an earlier divisor built is read from the memo, not rebuilt
        assert len(built) == len(set(built)) == len(beta), divisor
        op_matrix_dumps(op)
        values_written |= {v for c in coeffs for v in c.values()}
        # each distinct value is formatted once across the four divisors: a
        # value an earlier divisor wrote is read from the memo, not formatted again
        assert len(formatted) == len(set(formatted)) == len(values_written), divisor
    assert set(formatted) == values_written
    assert set(built) == beta
    assert operators._theta_times.cache_info().currsize == len(beta)
    # built directly, each value is the canonical (t1+t2) * c
    for value in built:
        c = value.num.terms[1, 0]
        want = RatFunc2(THETA) * c
        assert (value.num.terms, value.den) == (want.num.terms, want.den), c
    # the same four divisors again build nothing
    for divisor in ("(2)", "D1", "D2", "D3"):
        divisor_operator(2, 3, divisor, basis, 4, (3, 3, 3))
    assert len(built) == len(beta)


@pytest.mark.parametrize("n, r, u_order, s_orders", [(2, 3, 4, (3, 3, 3)), (3, 2, 3, (2, 1))])
def test_divisors_in_one_session_match_each_built_alone(n, r, u_order, s_orders):
    """The divisors share P and the (t1+t2) c values in one process; in any
    order, each gives the bytes it gives when built alone with cold memos."""
    import symprod

    basis = default_divisor_basis(n, r)
    divisors = ["(2)"] + [f"D{ell}" for ell in range(1, r + 1)]
    alone = {}
    for divisor in divisors:
        symprod.clear_caches()
        alone[divisor] = op_matrix_dumps(divisor_operator(n, r, divisor, basis, u_order, s_orders))
    for order in permutations(divisors):
        symprod.clear_caches()
        for divisor in order:
            op = divisor_operator(n, r, divisor, basis, u_order, s_orders)
            assert op_matrix_dumps(op) == alone[divisor], order


def test_op_matrix_dumps_formats_lists_once_per_distinct_text(monkeypatch):
    import symprod.operators as operators

    json_list, calls = operators._json_list, []

    def counted(texts, depth):
        calls.append(depth)
        return json_list(texts, depth)

    monkeypatch.setattr(operators, "_json_list", counted)
    op = divisor_operator(4, 1, "D1", default_divisor_basis(4, 1), 4, (4,))
    text = op_matrix_dumps(op)
    series = [op.entry(i, j) for i in range(op.size()) for j in range(op.size())]
    nonempty = sum(1 for s in series if s.coeffs)
    s_exponents = {key[1] for s in series for key in s.coeffs}
    shapes = {(s.u_order, s.s_orders) for s in series}
    # one list per nonempty entry's terms, per distinct s-exponent tuple and
    # per distinct entry shape, and the few top-level lists; the 400 entries'
    # s_orders lists and the gap pairs are not formatted one by one
    assert len(series) == 400 and nonempty > 1
    assert len(calls) <= nonempty + len(s_exponents) + len(shapes) + 5
    assert text == reference_op_matrix_dumps(op)


@pytest.mark.parametrize("s_orders", [(1,), (1, 1, 1)])
def test_divisor_operator_rejects_wrong_number_of_s_orders(s_orders):
    with pytest.raises(ValueError, match=f"^need 2 s-orders, got {len(s_orders)}$"):
        divisor_operator(2, 2, "D1", default_divisor_basis(2, 2), 2, s_orders)


@pytest.mark.parametrize("table", [None, ZeroDegreeTable()], ids=["no-table", "table"])
@pytest.mark.parametrize(
    "name, value, message",
    [
        ("n", 2.0, "n must be an int, got float 2.0"),
        ("n", True, "n must be an int, got bool True"),
        ("r", True, "r must be an int, got bool True"),
        ("r", Fraction(1), "r must be an int, got Fraction Fraction(1, 1)"),
        ("u_order", 2.0, "u_order must be an int, got float 2.0"),
        ("u_order", True, "u_order must be an int, got bool True"),
        ("s_orders", (1.5,), "an s-order must be an int, got float 1.5"),
        ("s_orders", (True,), "an s-order must be an int, got bool True"),
    ],
)
def test_divisor_operator_rejects_non_int_arguments(name, value, message, table):
    args = {"n": 2, "r": 1, "u_order": 2, "s_orders": (1,), name: value}
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        divisor_operator(args["n"], args["r"], "D1", default_divisor_basis(2, 1),
                         args["u_order"], args["s_orders"], table)


@pytest.mark.parametrize("u_order, s_orders", [(-1, (1,)), (2, (-1,))])
def test_divisor_operator_keeps_the_shape_error_for_negative_int_orders(u_order, s_orders):
    with pytest.raises(ShapeError, match="^truncation orders must be nonnegative$"):
        divisor_operator(2, 1, "D1", default_divisor_basis(2, 1), u_order, s_orders)


_ODD_PROBES = [(0,), (0, 0, 0), (), 0, "ab", None, (0.0, 0), (1.0, 1), (0.5, 0), ("0", 0),
               frozenset({0}), (-1, 0), (0, -1)]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 6),
    st.lists(st.tuples(st.integers(-3, 9), st.integers(-3, 9)), max_size=12),
)
def test_all_cells_rule_is_the_built_set(size, probes):
    rule = AllCells(size)
    built = {(i, j) for i in range(size) for j in range(size)}
    assert rule == built and built == rule
    assert not rule != built and not built != rule
    assert len(rule) == len(built)
    assert list(rule) == sorted(built)
    assert set(rule) == built
    for cell in [*built, *probes, *_ODD_PROBES, (size, 0), (0, size), (size, size)]:
        assert (cell in rule) == (cell in built), cell
    if built:  # a set that misses one cell, or holds one more, is not equal
        assert rule != built - {(0, 0)} and built - {(0, 0)} != rule
    assert rule != built | {(size, 0)} and built | {(size, 0)} != rule
    assert rule - {(0, 0)} == built - {(0, 0)} and type(rule - {(0, 0)}) is set


def test_operator_gaps_are_the_rule_without_a_table_and_a_set_with_one():
    basis = default_divisor_basis(2, 1)
    op = divisor_operator(2, 1, "D1", basis, 2, (1,))
    assert isinstance(op.gaps, AllCells) and len(op.gaps) == 25
    assert op.gaps == set(op.gaps) == {(i, j) for i in range(5) for j in range(5)}
    full = divisor_operator(2, 1, "D1", basis, 2, (1,), zero_degree_table_a1n2())
    assert type(full.gaps) is set and not full.gaps


@pytest.mark.parametrize("table", [None, ZeroDegreeTable()], ids=["no-table", "table"])
@pytest.mark.parametrize("r", [1, 3])
def test_the_twisted_divisor_needs_two_points(r, table):
    """Sym^1(A_r) has no twisted sector, so "(2)" has no class at n = 1; it had
    given an operator with no term and every cell a gap. Each D_l at n = 1
    is the operator of A_r itself and is built."""
    basis = default_divisor_basis(1, r)
    message = 'divisor "(2)" needs n >= 2, got n = 1: Sym^1(A_r) has no twisted sector'
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        divisor_operator(1, r, "(2)", basis, 2, (1,) * r, table)
    for ell in range(1, r + 1):
        op = divisor_operator(1, r, f"D{ell}", basis, 2, (1,) * r, table)
        assert op.size() == r + 1


_OUT_OF_RANGE = 'divisor {!r} out of range: the divisors are "(2)" and D1..D3'
_X1_BASIS = [weighted_partition([(2, ecurve(1))]), weighted_partition([(2, fixedpt(1))])]
_X1_UNSUPPORTED = "weight x1 unsupported: connected invariants take weights 1 or divisors only"


@pytest.mark.parametrize("table", [None, ZeroDegreeTable()], ids=["no-table", "table"])
@pytest.mark.parametrize(
    "divisor, basis, error, message",
    [
        pytest.param("D0", None, ValueError, _OUT_OF_RANGE.format("D0"), id="D0"),
        pytest.param("D4", None, ValueError, _OUT_OF_RANGE.format("D4"), id="D4"),
        pytest.param("D01", None, ValueError, _OUT_OF_RANGE.format("D01"), id="D01"),
        pytest.param("(3)", None, ValueError, "unknown divisor symbol '(3)'", id="(3)"),
        pytest.param("D1", _X1_BASIS, UnsupportedWeightError, _X1_UNSUPPORTED, id="x1-D1"),
        pytest.param("(2)", _X1_BASIS, UnsupportedWeightError, _X1_UNSUPPORTED, id="x1-(2)"),
        # the divisor is checked before the weights, and both before G^{-1}
        pytest.param("D9", _X1_BASIS, ValueError, _OUT_OF_RANGE.format("D9"), id="x1-D9"),
    ],
)
def test_divisor_operator_input_errors_do_not_depend_on_table(divisor, basis, error, message,
                                                              table):
    basis = default_divisor_basis(2, 3) if basis is None else basis
    with pytest.raises(error, match=f"^{re.escape(message)}$") as excinfo:
        divisor_operator(2, 3, divisor, basis, 2, (1, 1, 1), table)
    assert excinfo.type is error


def test_divisor_operator_without_table_builds_no_degree_zero_series(monkeypatch):
    import symprod.operators as operators

    table = zero_degree_table_a1n2()
    counts = {"three_point_divisor_series": 0, "lincomb": 0}
    three_point, lincomb = operators.three_point_divisor_series, TruncSeries.lincomb

    def counted_three_point(*args):
        counts["three_point_divisor_series"] += 1
        return three_point(*args)

    def counted_lincomb(cls, *args):
        counts["lincomb"] += 1
        return lincomb(*args)

    monkeypatch.setattr(operators, "three_point_divisor_series", counted_three_point)
    monkeypatch.setattr(TruncSeries, "lincomb", classmethod(counted_lincomb))
    basis = default_divisor_basis(2, 3)
    for divisor in ("(2)", "D1", "D2", "D3"):
        op = divisor_operator(2, 3, divisor, basis, 4, (3, 3, 3))
        assert op.gaps == {(i, j) for i in range(len(basis)) for j in range(len(basis))}
    assert counts == {"three_point_divisor_series": 0, "lincomb": 0}
    # with a table, one series per unordered pair of the 5 basis elements
    divisor_operator(2, 1, "D1", default_divisor_basis(2, 1), 2, (2,), table)
    assert counts == {"three_point_divisor_series": 15, "lincomb": 25}
