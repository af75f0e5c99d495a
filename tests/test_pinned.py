"""Pinned hashes of the n = 2, r = 1 closed-form outputs.

The degree-zero table is derived from the same closed-form matrix that
verify-a1n2 expects, so a slip in that matrix would move both sides of
every comparison test. These hashes pin the matrix, the table file and
the eigenvalue certificate to fixed bytes instead.
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
