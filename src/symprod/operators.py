"""Divisor-operator matrices, the n=2 r=1 closed-form benchmark and
eigenvalue certification.

The operator of quantum multiplication by a divisor D in an ordered
weighted-partition basis has columns D * b_j expanded through dual
classes: M_D = G^{-1} T_D with G the pairing Gram matrix and T_D the
matrix of three-point series <<b_j, D, b_a>>. By the divisor equations
the beta != 0 part of T_D is d_D T_2, with T_2 the two-point series and
d_D = d/du for "(2)" or s_l d/ds_l for "D<l>"; d_D commutes with G^{-1},
which depends on t only, so

    M_D = d_D(G^{-1} T_2) + G^{-1} T_D|_{s=0}.

One product P = G^{-1} T_2 per basis serves every divisor, and it needs
neither G^{-1} nor the pairing: column j of P is the coordinate vector of
the two-point function of b_j written as a vector V_j over weighted
partitions (invariants.two_point_column), from a factor X of one side of
each connected piece and a factor D of two underlying partitions. Every
value of P is (t1+t2) times a rational; a nonzero cell of P holds the
terms (a, i, j, num, den) of reduced integer pairs as the column builder
made them. Each scaled value (t1+t2) c is the polynomial c t1 + c t2 taken
over 1 by RatFunc2(poly), which runs no gcd, once per distinct c. The
beta = 0 layers T_D|_{s=0} come from a ZeroDegreeTable, through the
three-point series at the s^0 box, and propagate as gaps when absent. With
no table no such series is built and no G^{-1} is taken: every beta = 0
value is unknown, so every entry is a gap, and OperatorMatrix.gaps is
AllCells(N), a set of every cell held as a rule, not as N^2 tuples. The
matrix stores only the entries that hold a term.

op_matrix_dumps writes the op-matrix JSON text directly from the
OperatorMatrix. Its bytes are those of json.dumps(indent=1,
sort_keys=True) over the nested-dict oracle in tests/helpers.py, without
running the json module's pure-Python indent encoder, and its Python work is
per row and per term, never per cell: a run of entries with no term in a row
is one str.join of per-column texts, a row's gaps are one str.join (AllCells
gives them by its rule, never as N^2 tuples), and a term's text comes from
two memos, so the divisors of one session format each coefficient and each
key once. The writers read only the stored cells. The CLI looks its writer
up at each call, not in a table built at import, so a wrapper that rebinds
op_matrix_dumps in symprod.cli (the bench's traced layer) is the one that
runs."""

from __future__ import annotations

import csv
import io
import itertools
from collections.abc import Set
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import gcd

from .algebra import (
    GaussRational,
    I,
    Poly1,
    Poly2,
    RatFunc2,
    TruncSeries,
    char_poly_squarefree,
    expand_q_closed_form,
    ratfunc_to_text,
)
from .chenruan import check_whole_blocks, gram_inverse, gram_matrix
from .invariants import (
    ThreePointResult,
    ZeroDegreeTable,
    _check_pair,
    divisor_index,
    three_point_divisor_series,
    two_point_column,
)
from .memo import memo
from .partitions import (
    LABEL_KINDS,
    WeightedPartition,
    age,
    checked_int,
    divisor_labels,
    label_key,
    labellings,
    partitions_of,
    underlying,
    weighted_partition,
    wp_size,
)
from .surface import chain_degrees, check_label, check_r
from .textforms import wp_to_text


@memo
def _theta_times(num: int, den: int) -> RatFunc2:
    """(t1+t2) num/den for a reduced nonzero pair with den > 0: the polynomial
    c t1 + c t2 over 1, canonical as built, so no gcd and no Fraction product
    runs. Memoised, so the divisors of one basis share each value and its hash."""
    c = Fraction(num, den)
    return RatFunc2(Poly2.linear(c, c))


class AllCells(Set):
    """Every cell (i, j) with 0 <= i, j < size, as a read-only set held as a
    rule: the gaps of an operator with no table, without size**2 tuples.

    It equals the built set of those cells, from either side, iterates in
    sorted order, and the set operators (&, |, -) return plain sets."""

    __slots__ = ("_range",)

    def __init__(self, size: int):
        self._range = range(size)

    def __contains__(self, cell) -> bool:
        return (
            isinstance(cell, tuple) and len(cell) == 2
            and cell[0] in self._range and cell[1] in self._range
        )

    def __len__(self) -> int:
        return len(self._range) ** 2

    def __iter__(self):
        return itertools.product(self._range, repeat=2)

    @classmethod
    def _from_iterable(cls, cells) -> set:
        return set(cells)


@dataclass
class OperatorMatrix:
    """Square matrix of truncated series for D * (-) in an ordered basis.

    cells holds the entries with a term, keyed (i, j), each of the matrix's
    shape (u_order, s_orders); every other entry is zero. gaps holds the
    cells whose beta = 0 value is unknown: AllCells with no table, else a
    plain set."""

    n: int
    r: int
    divisor: str
    basis: tuple[WeightedPartition, ...]
    u_order: int
    s_orders: tuple[int, ...]
    cells: dict[tuple[int, int], TruncSeries]
    gaps: Set[tuple[int, int]] = field(default_factory=set)

    def entry(self, i: int, j: int) -> TruncSeries:
        cell = self.cells.get((i, j))
        return TruncSeries.zero(self.u_order, self.s_orders) if cell is None else cell

    def size(self) -> int:
        return len(self.basis)


@memo
def _two_point_product(basis, r: int, u_top: int, chains: tuple) -> tuple:
    """P = G^{-1} T_2 of a basis, shared by every divisor, as its nonzero cells.

    Column j of P is the coordinate vector of two_point_column(b_j): the
    two-point scalars up to u^u_top for the chains (i, j) of a box, the keys
    of surface.chain_degrees. A scalar never depends on d, so every box with
    the same chains shares P, and the coefficient at (a, d E_ij) is the
    d = 1 value times d^(a-1). P holds ((i, j), terms) for each nonzero
    cell, with terms the column's terms (a, i', j', num, den) at b_i as
    built: the value at the chain i'..j' is (t1+t2) num/den. Neither G^{-1}
    nor the pairing enters P; only the block check that makes G invertible
    runs.
    """
    check_whole_blocks(basis, r)
    index = {b: pos for pos, b in enumerate(basis)}
    cells = []
    a_values = tuple(range(u_top + 1))
    for j, b in enumerate(basis):
        for element, terms in two_point_column(b, a_values, chains).items():
            # an element outside the whole-block basis lies in a block that it
            # leaves out, which the block-diagonal pairing keeps out of G^{-1} T_2
            i = index.get(element)
            if i is not None:
                cells.append(((i, j), terms))
    # every caller shares the memoised result, so hand out tuples only
    return tuple(cells)


class _Once(dict):
    """A dict that fills a missing key k with fn(k), so fn runs once per key."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def check_n(n: int) -> None:
    """Sym^0 is a point with no divisor classes, so n starts at 1."""
    if checked_int(n, "n") < 1:
        raise ValueError("n must be at least 1")


def divisor_operator(
    n: int,
    r: int,
    divisor: str,
    basis,
    u_order: int,
    s_orders,
    table: ZeroDegreeTable | None = None,
) -> OperatorMatrix:
    """Assemble the divisor-operator matrix M_D in the given basis.

    M_D = d_D(G^{-1} T_2) + G^{-1} T_D|_{s=0}: the beta != 0 part scales
    the coefficients of the shared product P = G^{-1} T_2 by integers
    (d/du for "(2)", s_l d/ds_l for "D<l>"). With a table, the beta = 0
    part contracts the three-point series at the s^0 box, which carry the
    table data and mark its gaps. With none, no such series is built and no
    G^{-1} is taken: every beta = 0 value is unknown, so every entry is a
    gap, and gaps is the rule AllCells. Only the entries with a term are
    stored. n, r, u_order and each s-order must be ints (not bools): any other
    type raises TypeError naming the argument. "(2)" is the class of the
    twisted sector, which n = 1 lacks, so it raises ValueError there; D<l>
    at n = 1 gives the operators of A_r itself.
    """
    check_n(n)
    check_r(r)
    checked_int(u_order, "u_order")
    basis = tuple(weighted_partition(wp) for wp in basis)
    if not basis:
        raise ValueError("empty basis")
    if any(wp_size(b) != n for b in basis):
        raise ValueError(f"basis elements must have size {n}")
    for b in basis:
        for _, label in b:
            check_label(label, r)
    s_orders = tuple(checked_int(s, "an s-order") for s in s_orders)
    if len(s_orders) != r:
        raise ValueError(f"need {r} s-orders, got {len(s_orders)}")
    ell = divisor_index(divisor, r)
    if not ell and n == 1:
        raise ValueError('divisor "(2)" needs n >= 2, got n = 1: Sym^1(A_r) has no twisted sector')
    for b in basis:  # the weight rule of every pair, checked once per element
        _check_pair(b, b, r)
    size = len(basis)
    cells: dict[tuple[int, int], dict] = {}
    if table is None:  # every beta = 0 value is unknown
        gaps = AllCells(size)
    else:
        zeros = (0,) * r
        ginv = gram_inverse(basis, r)
        tzero: list[list[ThreePointResult]] = [[None] * size for _ in range(size)]
        for j in range(size):
            for a in range(j, size):
                tzero[a][j] = tzero[j][a] = three_point_divisor_series(
                    basis[j], divisor, basis[a], u_order, zeros, table
                )
        gaps = set()
        for i in range(size):
            ginv_row = [(a, c) for a, c in enumerate(ginv[i]) if not c.is_zero()]
            for j in range(size):
                if any(tzero[a][j].gap for a, _ in ginv_row):
                    gaps.add((i, j))
                cells[i, j] = dict(TruncSeries.lincomb(
                    ((c, tzero[a][j].series) for a, c in ginv_row), u_order, zeros
                ).coeffs)
    chains = chain_degrees(s_orders)
    product = _two_point_product(basis, r, u_order + 1, tuple(chains))
    # (t1+t2) c m for c = num/den, looked up by (num m, den), so each distinct
    # pair in this call is reduced once, and each value is built once per process
    scaled = _Once(lambda nd: _theta_times(nd[0] // (g := gcd(*nd)), nd[1] // g))
    for cell, terms in product:
        coeffs = cells.setdefault(cell, {})
        for a, ci, cj, num, den in terms:
            if ell:
                if a <= u_order and ci <= ell <= cj:
                    for d, ds in chains[ci, cj]:
                        coeffs[(a, ds)] = scaled[num * d**a, den]
            elif a:
                for d, ds in chains[ci, cj]:
                    coeffs[(a - 1, ds)] = scaled[num * (a * d ** (a - 1)), den]
    # every key above lies in the box and every value is nonzero, so each
    # entry takes this shape without TruncSeries re-checking its keys
    shape = TruncSeries.zero(u_order, s_orders)
    return OperatorMatrix(
        n=n,
        r=r,
        divisor=divisor,
        basis=basis,
        u_order=u_order,
        s_orders=s_orders,
        cells={cell: shape._wrap(coeffs) for cell, coeffs in cells.items() if coeffs},
        gaps=gaps,
    )


# ---------------------------------------------------------------------------
# the n = 2, r = 1 benchmark: closed-form first divisor operator
# ---------------------------------------------------------------------------

def default_divisor_basis(n: int, r: int) -> list[WeightedPartition]:
    """Every labelling by 1, E_1..E_r of every partition of n (partitions.labellings),
    ordered by descending orbifold degree (longer partitions first within a degree)."""
    check_n(n)
    check_r(r)
    basis = [nu for lam in partitions_of(n) for nu in labellings(lam, divisor_labels(r))]
    return sorted(basis, key=lambda wp: (-grading(wp, n), -len(wp), wp_to_text(wp)))


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
    return _table_from_expansion(expand_q_closed_form(closed_form_matrix_a1n2, 2, (0,)))


def _table_from_expansion(m) -> ZeroDegreeTable:
    """The degree-zero table from the s^0 layer of an expansion m of
    closed_form_matrix_a1n2 at any box with r = 1.

    Raises RuntimeError when that layer has a u-dependent term.
    """
    basis = default_divisor_basis(2, 1)
    gram = gram_matrix(basis, 1)
    size = len(basis)
    consts: list[list[RatFunc2]] = [[None] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            entry = m[i][j]  # read at its s^0 keys only
            if any(not entry.coefficient(a, (0,)).is_zero() for a in range(1, entry.u_order + 1)):
                raise RuntimeError("s=0 layer of the benchmark matrix should be u-independent")
            consts[i][j] = entry.constant_term()
    entries = {}
    for a in range(size):
        for j in range(size):
            val = RatFunc2.zero()
            for c in range(size):
                val = val + gram[a][c] * consts[c][j]
            entries[wp_to_text(basis[j]), "D1", wp_to_text(basis[a])] = [(0, val)]
    return ZeroDegreeTable(entries)


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
    with the degree-zero table loaded the full matrices must agree. With no
    table, the built-in one is read off the s^0 layer of the one expansion
    of the closed form that the comparison uses.
    """
    basis = default_divisor_basis(2, 1)
    expected = expand_q_closed_form(closed_form_matrix_a1n2, u_order, (s_order,))
    if table is None:
        table = _table_from_expansion(expected)
    built = divisor_operator(2, 1, "D1", basis, u_order, (s_order,), table=table)
    mismatches = []
    for i in range(5):
        for j in range(5):
            got = built.entry(i, j)
            if got == expected[i][j]:  # canonical coefficients: equality is structural
                continue
            for a, ds, _ in (expected[i][j] - got).monomials():
                mismatches.append(
                    (
                        i + 1,
                        j + 1,
                        a,
                        ds,
                        str(got.coefficient(a, ds)),
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

def grading(wp: WeightedPartition, n: int) -> int:
    """Orbifold degree: age plus the sum of the weight degrees."""
    for _, label in wp:
        label_key(label)  # the label's shape: a ValueError or TypeError if it is wrong
    return age(underlying(wp), n) + sum(LABEL_KINDS[label[0]][1] for _, label in wp)


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
    name raises TypeError, evaluation at a pole ZeroDivisionError, and a
    nonreal characteristic polynomial RealnessViolationError.
    """
    lifted = {k: GaussRational.lift(v) for k, v in values.items()}
    p, squarefree = char_poly_squarefree(form(**lifted))
    return EigenReport(char_poly=p, squarefree=squarefree, values=dict(values))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def op_matrix_to_latex(op: OperatorMatrix) -> str:
    lines = [
        "% operator of quantum multiplication by " + op.divisor,
        "\\begin{pmatrix}",
    ]
    for i in range(op.size()):
        cells = []
        for j in range(op.size()):
            s = str(op.cells.get((i, j), 0))  # an absent cell is zero
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
    for i, j in sorted(op.cells):
        for a, ds, c in op.cells[i, j].monomials():
            writer.writerow([i + 1, j + 1, a, *ds, str(c)])
    return buf.getvalue()


def _json_list(texts, depth: int) -> str:
    """A JSON list of already-encoded items, as json.dumps(indent=1) writes it
    with the list's opening line at the given depth."""
    if not texts:
        return "[]"
    inner = "\n" + " " * (depth + 1)
    return "[" + inner + ("," + inner).join(texts) + "\n" + " " * depth + "]"


@memo
def _term_head(value: RatFunc2) -> str:
    """A term's text up to its s-list, from its coefficient: once per distinct
    value per process, so the divisors of one basis share it."""
    return '{\n     "coeff": %s,\n     "s": ' % encode_basestring_ascii(ratfunc_to_text(value))


@memo
def _term_tail(key: tuple) -> str:
    """A term's text from its s-list on, once per distinct (u, s-exponents) key."""
    a, ds = key
    return '%s,\n     "u": %d\n    }' % (_json_list(["%d" % d for d in ds], 5), a)


_SEP = ",\n  "  # between two items of the entries or the gaps list


def _gap_columns(gaps) -> list:
    """Each row that holds a gap, as (i, the 1-based texts of its gap columns in
    order). AllCells gives every row the one list of all its columns, by its
    rule, and never yields its N^2 cells."""
    if isinstance(gaps, AllCells):
        every = ["%d" % (j + 1) for j in gaps._range]
        return [(i, every) for i in gaps._range]
    rows: dict[int, list[str]] = {}
    for i, j in sorted(gaps):
        rows.setdefault(i, []).append("%d" % (j + 1))
    return list(rows.items())


def _closed(chunks: list) -> list:
    """chunks, each item of a top-level list followed by _SEP, as the chunks of
    that list's text: the last item takes no separator."""
    if not chunks:
        return ["[]"]
    chunks[-1] = chunks[-1][: -len(_SEP)]
    return ["[\n  ", *chunks, "\n ]"]


def op_matrix_dumps(op: OperatorMatrix) -> str:
    """The op-matrix JSON text, written directly.

    Byte-identical to json.dumps(payload, indent=1, sort_keys=True) of the
    nested dict that the tests' oracle builds: keys in sorted order, one
    space of indent per depth, strings escaped by the json module's ASCII
    escaper and integers by %d. Every entry takes the matrix's truncation
    orders, and an absent cell has no terms.

    The Python work is per row and per term, never per cell. An entry is its
    column's text, then its row's, so a run of entries with no term in a row
    is one str.join of the column texts, glued by the row's empty-entry text
    and the separator. A row's gaps are one str.join of its gap columns,
    which AllCells gives by its rule. A stored cell sorts its keys only, and
    a term's text is _term_head of its value plus _term_tail of its key. The
    document is one join of all these chunks, so no list's text is built
    and then copied again.
    """
    size, cells = op.size(), op.cells
    numbers = ["%d" % k for k in range(1, size + 1)]
    cols = ['{\n   "col": %s,\n   "row": ' % k for k in numbers]
    middle = ',\n   "s_orders": %s,\n   "terms": ' % _json_list(
        ["%d" % d for d in op.s_orders], 3
    )
    end = ',\n   "u_order": %d\n  }' % op.u_order
    stored: dict[int, list[int]] = {}
    for i, j in sorted(cell for cell, series in cells.items() if series.coeffs):
        stored.setdefault(i, []).append(j)
    entries = []  # every entry followed by _SEP
    for i in range(size):
        row = numbers[i] + middle
        glue = row + "[]" + end + _SEP  # an entry with no term, after its column's text
        start = 0
        for j in stored.get(i, ()):
            if start < j:
                entries += (glue.join(cols[start:j]), glue)
            coeffs = cells[i, j].coeffs
            terms = [_term_head(coeffs[key]) + _term_tail(key) for key in sorted(coeffs)]
            entries += (cols[j], row, "[\n    ", ",\n    ".join(terms), "\n   ]", end, _SEP)
            start = j + 1
        if start < size:
            entries += (glue.join(cols[start:]), glue)
    gaps = []  # every gap followed by _SEP
    for i, columns in _gap_columns(op.gaps):
        pre = "[\n   %d,\n   " % (i + 1)
        gaps += (pre, ("\n  ]" + _SEP + pre).join(columns), "\n  ]" + _SEP)
    return "".join([
        '{\n "basis": %s,\n "divisor": %s,\n "entries": ' % (
            _json_list([encode_basestring_ascii(wp_to_text(b)) for b in op.basis], 1),
            encode_basestring_ascii(op.divisor),
        ),
        *_closed(entries),
        ',\n "gaps": ',
        *_closed(gaps),
        ',\n "n": %d,\n "r": %d,\n "s_orders": %s,\n "u_order": %d\n}' % (
            op.n, op.r, _json_list(["%d" % d for d in op.s_orders], 1), op.u_order
        ),
    ])
