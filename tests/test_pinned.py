"""Pinned hashes of the n = 2, r = 1 closed-form outputs and of two-point series.

The degree-zero table is derived from the same closed-form matrix that
verify-a1n2 expects, so a slip in that matrix would move both sides of
every comparison test. These hashes pin the matrix, the table file and
the eigenvalue certificate to fixed bytes instead. The two-point rows pin
the stdout of the two-point subcommand, with 1, E and w labels, across
blocks and at r = 1, 2 and 3. The op-matrix rows pin the LaTeX and CSV
writers, which print every coefficient through the polynomial text form:
one case reads the n = 2, r = 1 table, and one has no table, so every
entry carries a gap mark.
"""

import hashlib
import json

import pytest

from symprod.algebra import expand_q_closed_form
from symprod.cli import main
from symprod.operators import closed_form_matrix_a1n2
from symprod.textforms import series_to_json


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_closed_form_expansion_pinned():
    matrix = expand_q_closed_form(closed_form_matrix_a1n2, 4, (4,))
    assert len(matrix) == 5 and all(len(row) == 5 for row in matrix)
    text = json.dumps(
        [[series_to_json(e) for e in row] for row in matrix], sort_keys=True
    )
    assert _sha256(text.encode()) == (
        "9fee56291343feaf7b94634d410142c5b57e68db0ca5d90b0d37a8150c0dac78"
    )


def test_closed_form_expansion_u12_s12_pinned():
    """The verify-a1n2 depth, where each 1/(1 + s*q) is a series inverse."""
    matrix = expand_q_closed_form(closed_form_matrix_a1n2, 12, (12,))
    assert len(matrix) == 5 and all(len(row) == 5 for row in matrix)
    text = json.dumps(
        [[series_to_json(e) for e in row] for row in matrix], sort_keys=True
    )
    assert _sha256(text.encode()) == (
        "609d33af4d97fe95324a9448a558735f44fe8bca8b382bdfc5349d723dd826cd"
    )


def test_make_table_file_pinned(tmp_path, capsys):
    out = tmp_path / "t.json"
    assert main(["make-table", "--case", "a1n2", "--out", str(out)]) == 0
    capsys.readouterr()
    assert _sha256(out.read_bytes()) == (
        "726c78b53ef197ab06a4393291b0ab278d0212d9e0722ac2cb701022271445b5"
    )


@pytest.mark.parametrize(
    "point, digest",
    [
        ([], "d8e0ba983cd2139d15a8aabb90638eae528bcb2c1218efaa58fc7f2e02b06703"),
        (
            ["--t1", "3/2", "--t2", "5", "--s", "2/7", "--q", "3/4"],
            "0ae9f50bd1d1f564e769922525f38c86eff31fbc4b483d7efe483073037340f7",
        ),
    ],
)
def test_eigencheck_stdout_pinned(capsys, point, digest):
    assert main(["eigencheck", *point]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert _sha256(captured.out.encode()) == digest


@pytest.mark.parametrize(
    "args, digest",
    [
        (
            ["--n", "4", "--r", "3", "--left", "1(1)+1(E2)+2(E1)", "--right", "1(1)+1(w3)+2(E2)",
             "--u-order", "4", "--s-orders", "1,1,1"],
            "ebe6d4e26a4b8d12d15dc2222ba097d9281c2d11b53abc9725774d6b3ffd4bcf",
        ),
        (
            ["--n", "5", "--r", "2", "--left", "1(E1)+2(w2)+2(E1)", "--right", "1(E2)+2(E1)+2(E2)",
             "--u-order", "5", "--s-orders", "2,2"],
            "4b31e3347fa8ed261686823d74e05e244aacbcb3204f096b0a0946f27c59310c",
        ),
        (
            ["--n", "3", "--r", "1", "--left", "3(E1)", "--right", "1(E1)+2(w1)",
             "--u-order", "6", "--s-orders", "3"],
            "7efc832bc025c975b95e7426d6f8e18df60a47ae959bf55bbf03f9c7346e8295",
        ),
        (  # a box with a hole and d = 2; w3 at r = 3 has three nonzero coefficients
            ["--n", "3", "--r", "3", "--left", "1(w3)+2(E1)", "--right", "1(E3)+2(E1)",
             "--u-order", "3", "--s-orders", "2,0,1"],
            "f632760e427d52177ea0e90824b1178a56fc0058d9233d1e80798a53ef701567",
        ),
        (  # n = 5 at r = 3, 24 terms
            ["--n", "5", "--r", "3", "--left", "2(E2)+2(E1)+1(E3)", "--right", "2(E3)+2(E2)+1(E1)",
             "--u-order", "5", "--s-orders", "2,2,2"],
            "7b65102a877ff6431ff19393b76f0b5c1a31dc6243ae98c9e83305883a42934a",
        ),
        (  # n = 6, 1 and w labels on both sides, up to d = 3; 18 terms
            ["--n", "6", "--r", "2", "--left", "2(w2)+2(E1)+1(1)+1(E2)",
             "--right", "2(E2)+2(E1)+1(1)+1(w1)", "--u-order", "5", "--s-orders", "3,3"],
            "bc998ee11877ee4760388d776dcedf3998ebe300c68d447deb2c63dc5ecd39e7",
        ),
    ],
)
def test_two_point_stdout_pinned(capsys, args, digest):
    assert main(["two-point", *args]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert _sha256(captured.out.encode()) == digest


_TABLE_CASE = ["--n", "2", "--r", "1", "--divisor", "D1", "--u-order", "3", "--s-orders", "3",
               "--table", "a1n2"]
_GAP_CASE = ["--n", "2", "--r", "2", "--divisor", "(2)", "--u-order", "2", "--s-orders", "2"]


@pytest.mark.parametrize(
    "args, fmt, digest",
    [
        (_TABLE_CASE, "latex", "58c64d52c6481c6163cd74fdfb46883418c268cbdbc80345f99724e792538695"),
        (_TABLE_CASE, "csv", "e093bdb7d891928d8b482c519a0c569ec6a7638dcae631a7ef9eb6d81c1dc4b9"),
        (_GAP_CASE, "latex", "cd84dc75978693b22b8b1febfba63bb1bed13dc6a37f8a1b6e691ed253c9cfe7"),
        (_GAP_CASE, "csv", "e33e3c91a8214b8d1cea9654bb4d44cabc20d76af29f2330407b58704bcf1118"),
    ],
    ids=["table-latex", "table-csv", "gaps-latex", "gaps-csv"],
)
def test_op_matrix_text_formats_pinned(capsys, args, fmt, digest):
    assert main(["op-matrix", *args, "--format", fmt]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == digest
