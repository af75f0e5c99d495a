"""Divisor-operator matrices, the n=2 r=1 closed-form benchmark and
eigenvalue certification.

The operator of quantum multiplication by a divisor D in an ordered
weighted-partition basis has columns D * b_j expanded through dual
classes: M = G^{-1} T with G the pairing Gram matrix and T the matrix
of three-point series <<b_j, D, b_a>>. The beta != 0 layers of T are
computed from the splitting/connected machinery; beta = 0 layers come
from a ZeroDegreeTable and propagate as gaps when absent.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import (
    GaussRational,
    I,
    Poly1,
    RatFunc2,
    TruncSeries,
    char_poly_gaussian,
    expand_q_closed_form,
    is_squarefree,
)
from .chenruan import gram_inverse, gram_matrix
from .errors import RealnessViolationError
from .invariants import ThreePointResult, ZeroDegreeTable, three_point_divisor_series
from .partitions import (
    ONE,
    WeightedPartition,
    age,
    ecurve,
    underlying,
    weighted_partition,
    wp_size,
)
from .surface import TangentWeights, check_label, tangent_weights
from .textforms import series_to_json, wp_to_text


@dataclass
class OperatorMatrix:
    """Square matrix of truncated series for D * (-) in an ordered basis."""

    n: int
    r: int
    divisor: str
    basis: tuple[WeightedPartition, ...]
    u_order: int
    s_orders: tuple[int, ...]
    entries: list[list[TruncSeries]]
    gaps: set[tuple[int, int]] = field(default_factory=set)

    def entry(self, i: int, j: int) -> TruncSeries:
        return self.entries[i][j]

    def size(self) -> int:
        return len(self.basis)


def divisor_operator(
    n: int,
    r: int,
    divisor: str,
    basis,
    u_order: int,
    s_orders,
    w: TangentWeights | None = None,
    table: ZeroDegreeTable | None = None,
) -> OperatorMatrix:
    """Assemble the divisor-operator matrix in the given basis."""
    if w is None:
        w = tangent_weights(r)
    elif w.r != r:
        raise ValueError(f"tangent weights are for r = {w.r}, not r = {r}")
    basis = tuple(weighted_partition(wp) for wp in basis)
    if not basis:
        raise ValueError("empty basis")
    if any(wp_size(b) != n for b in basis):
        raise ValueError(f"basis elements must have size {n}")
    for b in basis:
        for _, label in b:
            check_label(label, w.r)
    s_orders = tuple(s_orders)
    size = len(basis)
    ginv = gram_inverse(basis, w)
    tmat: list[list[ThreePointResult]] = [[None] * size for _ in range(size)]
    for j in range(size):
        for a in range(j, size):
            res = three_point_divisor_series(
                basis[j], divisor, basis[a], u_order, s_orders, w, table
            )
            tmat[a][j] = res
            if a != j:
                tmat[j][a] = res
    entries = []
    gaps: set[tuple[int, int]] = set()
    zero = TruncSeries.zero(u_order, s_orders)
    for i in range(size):
        row = []
        for j in range(size):
            acc = zero
            for a in range(size):
                c = ginv[i][a]
                if c.is_zero():
                    continue
                acc = acc + tmat[a][j].series.scale(c)
                if tmat[a][j].gap:
                    gaps.add((i, j))
            row.append(acc)
        entries.append(row)
    return OperatorMatrix(
        n=n,
        r=r,
        divisor=divisor,
        basis=basis,
        u_order=u_order,
        s_orders=s_orders,
        entries=entries,
        gaps=gaps,
    )


# ---------------------------------------------------------------------------
# the n = 2, r = 1 benchmark: closed-form first divisor operator
# ---------------------------------------------------------------------------

def default_divisor_basis(n: int, r: int) -> list[WeightedPartition]:
    """All weighted partitions of n with weights in {1, E_1..E_r}, ordered by
    descending orbifold degree (longer partitions first within a degree)."""
    from itertools import combinations_with_replacement

    from .partitions import partitions_of

    labels = [ONE] + [ecurve(i) for i in range(1, r + 1)]
    out = []
    for lam in partitions_of(n):
        slots = sorted(set(lam), reverse=True)
        per_part = []
        for part in slots:
            mult = lam.count(part)
            per_part.append(
                [list(combo) for combo in combinations_with_replacement(labels, mult)]
            )

        def assemble(level: int, acc: list):
            if level == len(slots):
                out.append(weighted_partition(acc))
                return
            part = slots[level]
            for combo in per_part[level]:
                assemble(level + 1, acc + [(part, lab) for lab in combo])

        assemble(0, [])
    out = sorted(set(out), key=lambda wp: (-grading(wp, n), -len(wp), wp_to_text(wp)))
    return out


def closed_form_matrix_a1n2(q, s1, t1, t2) -> list[list]:
    """The known 5x5 closed-form matrix of the first divisor operator on
    [Sym^2(A_1)], in the default_divisor_basis(2, 1) ordering
    {1(E1)1(E1), 2(E1), 1(1)1(E1), 2(1), 1(1)1(1)}.

    A closed form in the sense of algebra.qexpr: pass it to
    expand_q_closed_form, or call it on exact values of its atoms.
    """
    theta = t1 + t2
    f_plus = 1 / (1 + s1 * q)      # 1/(1+sq)
    f_minus = 1 / (1 + s1 / q)     # 1/(1+s/q)
    g_inv = 1 / (1 - s1)           # 1/(1-s)
    return [
        [
            2 * theta * (1 - f_plus - f_minus),
            I * theta * (f_plus - f_minus),
            -1,
            0,
            0,
        ],
        [
            -2 * I * theta * (f_plus - f_minus),
            theta * (2 - f_plus - f_minus - 2 * g_inv),
            0,
            -1,
            0,
        ],
        [
            2 * t1 * t2,
            0,
            -1 * theta * (1 + s1) * g_inv,
            0,
            Fraction(-1, 2),
        ],
        [0, 4 * t1 * t2, 0, 0, 0],
        [0, 0, 4 * t1 * t2, 0, 0],
    ]


def zero_degree_table_a1n2() -> ZeroDegreeTable:
    """Degree-zero data for the n=2, r=1 first divisor operator.

    The s = 0 layer of the closed-form matrix is u-independent; pushing it
    through the exact Gram matrix gives the beta = 0 three-point values
    T = G * M|_{s=0}, which is all the table has to hold.
    """
    basis = default_divisor_basis(2, 1)
    w = tangent_weights(1)
    gram = gram_matrix(basis, w)
    m0 = expand_q_closed_form(closed_form_matrix_a1n2, 2, (0,))
    size = len(basis)
    consts: list[list[RatFunc2]] = [[None] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            series = m0[i][j]
            for a, ds, _ in series.monomials():
                if a != 0:
                    raise RuntimeError("s=0 layer of the benchmark matrix "
                                       "should be u-independent")
            consts[i][j] = series.coefficient(0, (0,))
    table = ZeroDegreeTable()
    for a in range(size):
        for j in range(size):
            val = RatFunc2.zero()
            for c in range(size):
                val = val + gram[a][c] * consts[c][j]
            table.set(
                wp_to_text(basis[j]), "D1", wp_to_text(basis[a]), [(0, val)]
            )
    return table


@dataclass
class VerifyReport:
    u_order: int
    s_order: int
    entries_total: int
    mismatches: list  # (i, j, a, ds, got, want) with 1-based i, j
    gaps: set

    @property
    def full_ok(self) -> bool:
        return not self.mismatches and not self.gaps

    @property
    def entries_matched(self) -> int:
        bad = {(m[0], m[1]) for m in self.mismatches}
        return self.entries_total - len(bad)

    def summary(self) -> str:
        head = f"{self.entries_matched}/{self.entries_total} entries match"
        if self.full_ok:
            return head + f" (u-order {self.u_order}, s-order {self.s_order})"
        lines = [head]
        for i, j, a, ds, got, want in self.mismatches[:20]:
            mono = f"u^{a} " + " ".join(
                f"s{k}^{d}" for k, d in enumerate(ds, start=1) if d
            )
            lines.append(f"  entry ({i},{j}) at {mono.strip()}: got {got}, expected {want}")
        if len(self.mismatches) > 20:
            lines.append(f"  ... {len(self.mismatches) - 20} more mismatches")
        for i, j in sorted(self.gaps):
            lines.append(f"  entry ({i + 1},{j + 1}): degree-zero gap")
        return "\n".join(lines)


def verify_a1n2(
    u_order: int,
    s_order: int,
    table: ZeroDegreeTable | None = None,
) -> VerifyReport:
    """Check the computed n=2, r=1 divisor operator against the closed forms.

    Every beta != 0 coefficient is computed independently of the table;
    with the degree-zero table loaded the full matrices must agree.
    """
    basis = default_divisor_basis(2, 1)
    w = tangent_weights(1)
    expected = expand_q_closed_form(closed_form_matrix_a1n2, u_order, (s_order,))
    if table is None:
        table = zero_degree_table_a1n2()
    built = divisor_operator(
        2, 1, "D1", basis, u_order, (s_order,), w, table
    )
    mismatches = []
    for i in range(5):
        for j in range(5):
            diff = expected[i][j] - built.entries[i][j]
            for a, ds, _ in diff.monomials():
                mismatches.append(
                    (
                        i + 1,
                        j + 1,
                        a,
                        ds,
                        str(built.entries[i][j].coefficient(a, ds)),
                        str(expected[i][j].coefficient(a, ds)),
                    )
                )
    return VerifyReport(
        u_order=u_order,
        s_order=s_order,
        entries_total=25,
        mismatches=mismatches,
        gaps=set(built.gaps),
    )


# ---------------------------------------------------------------------------
# orbifold grading
# ---------------------------------------------------------------------------

_LABEL_DEGREE = {"1": 0, "E": 1, "w": 1, "x": 2}


def grading(wp: WeightedPartition, n: int) -> int:
    """Orbifold degree: age plus the sum of the weight degrees."""
    total = age(underlying(wp), n)
    for _, label in wp:
        kind = label[0]
        if kind not in _LABEL_DEGREE:
            raise ValueError(f"no grading for label {label!r}")
        total += _LABEL_DEGREE[kind]
    return total


# ---------------------------------------------------------------------------
# eigenvalue certification
# ---------------------------------------------------------------------------

@dataclass
class EigenReport:
    char_poly: Poly1
    squarefree: bool
    values: dict

    def summary(self) -> str:
        verdict = (
            "squarefree: distinct eigenvalues certified"
            if self.squarefree
            else "NOT squarefree: repeated eigenvalue (derogatory at this point)"
        )
        return f"exact characteristic polynomial {self.char_poly}\n{verdict}"


def eigen_certify(form, values: dict) -> EigenReport:
    """Evaluate a closed-form matrix at exact rational values and certify
    distinct eigenvalues through a squarefree characteristic polynomial.

    form is a closed form returning a square matrix (see algebra.qexpr);
    it is called once with values lifted to GaussRational. values must
    name exactly the atoms of form (t1, t2, s1..sr, q): a missing or extra
    name raises TypeError, and evaluation at a pole ZeroDivisionError.
    """
    matrix = form(**{k: GaussRational.lift(v) for k, v in values.items()})
    evaluated = [[GaussRational.lift(e) for e in row] for row in matrix]
    coeffs = char_poly_gaussian(evaluated)
    for c in coeffs:
        if not c.is_real():
            raise RealnessViolationError(
                "characteristic polynomial has a nonreal coefficient"
            )
    p = Poly1([c.re for c in coeffs])
    return EigenReport(char_poly=p, squarefree=is_squarefree(p), values=dict(values))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def op_matrix_to_json(op: OperatorMatrix) -> dict:
    return {
        "n": op.n,
        "r": op.r,
        "divisor": op.divisor,
        "basis": [wp_to_text(b) for b in op.basis],
        "u_order": op.u_order,
        "s_orders": list(op.s_orders),
        "entries": [
            {"row": i + 1, "col": j + 1, **series_to_json(op.entries[i][j])}
            for i in range(op.size())
            for j in range(op.size())
        ],
        "gaps": sorted([i + 1, j + 1] for i, j in op.gaps),
    }


def op_matrix_to_latex(op: OperatorMatrix) -> str:
    lines = [
        "% operator of quantum multiplication by " + op.divisor,
        "\\begin{pmatrix}",
    ]
    for i in range(op.size()):
        cells = []
        for j in range(op.size()):
            s = str(op.entries[i][j])
            if (i, j) in op.gaps:
                s += " + [\\text{gap}]"
            cells.append(s)
        tail = " \\\\" if i < op.size() - 1 else ""
        lines.append(" & ".join(cells) + tail)
    lines.append("\\end{pmatrix}")
    return "\n".join(lines)


def op_matrix_to_csv(op: OperatorMatrix) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["row", "col", "u"]
        + [f"s{k}" for k in range(1, op.r + 1)]
        + ["coefficient"]
    )
    for i in range(op.size()):
        for j in range(op.size()):
            for a, ds, c in op.entries[i][j].monomials():
                writer.writerow([i + 1, j + 1, a, *ds, str(c)])
    return buf.getvalue()


def op_matrix_dumps(op: OperatorMatrix) -> str:
    return json.dumps(op_matrix_to_json(op), indent=1, sort_keys=True)
