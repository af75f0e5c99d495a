"""Operator assembly, the closed-form benchmark, grading, eigenchecks."""

import hashlib
import random
from fractions import Fraction

import pytest

from helpers import (
    nonzero_degree_ok,
    op_matrix_from_json,
    random_weighted_partition,
    ratfunc_subs_t2_minus_t1,
)
from symprod.algebra import (
    Poly2,
    RatFunc2,
    expand_q_closed_form,
)
from symprod.operators import (
    closed_form_matrix_a1n2,
    default_divisor_basis,
    divisor_operator,
    eigen_certify,
    grading,
    op_matrix_dumps,
    op_matrix_to_csv,
    op_matrix_to_json,
    op_matrix_to_latex,
    verify_a1n2,
    zero_degree_table_a1n2,
)
from symprod.errors import MalformedInputError
from symprod.partitions import ONE, ecurve, fixedpt, weighted_partition
from symprod.surface import tangent_weights
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
    w = tangent_weights(1)
    basis = default_divisor_basis(2, 1)
    op = divisor_operator(2, 1, "D1", basis, 0, (3,), w, zero_degree_table_a1n2())
    for d in (1, 2, 3):
        assert op.entry(1, 1).coefficient(0, (d,)) == RatFunc2(THETA.scale(-4))
    assert not op.gaps


def test_operator_entries_theta_divisible_divisor_block():
    # with pure divisor-weight basis elements, the u^0 nonzero-degree
    # layers inherit (t1+t2)-divisibility from the connected invariants
    w = tangent_weights(1)
    basis = default_divisor_basis(2, 1)
    op = divisor_operator(2, 1, "D1", basis, 0, (2,), w, zero_degree_table_a1n2())
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
    (a0, val), = table.entries[(key, "D1", key)]
    table.set(key, "D1", key, [(a0, val + RatFunc2.one())])
    report = verify_a1n2(1, 2, table)
    assert not report.full_ok
    assert nonzero_degree_ok(report)  # corruption only hits the beta = 0 layer
    bad_entries = {(m[0], m[1]) for m in report.mismatches}
    assert bad_entries == {(2, 2)}
    assert report.entries_matched == 24


def test_verify_offdiagonal_corruption_hits_symmetric_pair():
    # one stored constant backs both outer orders of the 3-point function
    table = zero_degree_table_a1n2()
    basis = default_divisor_basis(2, 1)
    key_left = wp_to_text(basis[1])   # 2(E1)
    key_right = wp_to_text(basis[3])  # 2(1)
    (a0, val), = table.entries[(key_left, "D1", key_right)]
    table.set(key_left, "D1", key_right, [(a0, val + RatFunc2.one())])
    report = verify_a1n2(1, 2, table)
    bad_entries = {(m[0], m[1]) for m in report.mismatches}
    assert bad_entries == {(2, 4), (4, 2)}


def test_verify_missing_entry_reports_gap():
    table = zero_degree_table_a1n2()
    basis = default_divisor_basis(2, 1)
    key = (wp_to_text(basis[0]), "D1", wp_to_text(basis[0]))
    del table.entries[key]
    report = verify_a1n2(1, 2, table)
    assert report.gaps
    assert not report.full_ok
    assert nonzero_degree_ok(report)


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


def test_grading_preserved_and_signs():
    rng = random.Random(91)
    labels = [ONE, ecurve(1), fixedpt(1), fixedpt(2)]
    for _ in range(20):
        n = rng.randint(1, 4)
        wp = random_weighted_partition(rng, n, labels)
        age = n - len(wp)
        got = grading(wp, n)
        want = age + sum(
            {"1": 0, "E": 1, "x": 2}[label[0]] for _, label in wp
        )
        assert got == want


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

    w = tangent_weights(1)
    basis = default_divisor_basis(2, 1)
    table = zero_degree_table_a1n2()
    u_order, s_orders = 2, (2,)
    op = divisor_operator(2, 1, "D1", basis, u_order, s_orders, w, table)
    gram = gram_matrix(basis, w)
    for i in range(5):
        for j in range(5):
            acc = TruncSeries.zero(u_order, s_orders)
            for c in range(5):
                if not gram[i][c].is_zero():
                    acc = acc + op.entry(c, j).scale(gram[i][c])
            want = three_point_divisor_series(
                basis[j], "D1", basis[i], u_order, s_orders, w, table
            ).series
            assert acc == want, (i, j)


def test_matrix_json_roundtrip():
    w = tangent_weights(1)
    op = divisor_operator(
        2, 1, "D1", default_divisor_basis(2, 1), 1, (2,), w, zero_degree_table_a1n2()
    )
    payload = op_matrix_to_json(op)
    back = op_matrix_from_json(payload)
    assert back.basis == op.basis
    assert back.entries == op.entries
    assert back.gaps == op.gaps
    assert op_matrix_to_json(back) == payload


def test_matrix_text_emitters():
    w = tangent_weights(1)
    op = divisor_operator(
        2, 1, "D1", default_divisor_basis(2, 1), 0, (1,), w, zero_degree_table_a1n2()
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


def test_divisor_operator_rejects_weights_for_another_r():
    basis = default_divisor_basis(2, 1)
    with pytest.raises(ValueError, match="r = 2, not r = 1"):
        divisor_operator(2, 1, "D1", basis, 1, (1,), w=tangent_weights(2))


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
]


def test_op_matrix_json_pinned():
    for (n, r, divisor, u_order, s_orders, with_table), digest in PINNED_OP_MATRICES:
        table = zero_degree_table_a1n2() if with_table else None
        op = divisor_operator(
            n, r, divisor, default_divisor_basis(n, r), u_order, s_orders, None, table
        )
        text = op_matrix_dumps(op)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, divisor
