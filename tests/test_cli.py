"""Command-line behavior: outputs, formats, exit codes, config files."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import (
    op_matrix_from_json,
    oracle_hurwitz,
    reference_build_parser,
    series_from_json,
)
from symprod import cli
from symprod.cli import COMMANDS, main
from symprod.invariants import ZeroDegreeTable
from symprod.operators import zero_degree_table_a1n2


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_python_dash_m_runs_the_cli():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "symprod", "verify-a1n2", "--u-order", "2", "--s-order", "2"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "25/25" in proc.stdout


def test_hurwitz_brute(capsys):
    code, out, _ = run(capsys, "hurwitz", "--n", "2", "--profiles", "2;2")
    assert code == 0 and out.strip() == "1/2"


def test_hurwitz_fast_backend(capsys):
    # the class-algebra count is the one backend, and it agrees with the oracle
    code, out, _ = run(capsys, "hurwitz", "--n", "4", "--profiles", "2+1+1;2+1+1;3+1")
    assert code == 0
    assert out.strip() == str(oracle_hurwitz([[2, 1, 1], [2, 1, 1], [3, 1]], 4))
    with pytest.raises(SystemExit) as err:
        main(["hurwitz", "--n", "4", "--profiles", "2+1+1;2+1+1;3+1", "--backend", "fast"])
    assert err.value.code == 2


def test_hurwitz_gjv(capsys):
    code, out, _ = run(capsys, "one-part-hurwitz", "--sigma", "1+1", "--k", "2", "--b", "1")
    assert code == 0 and out.strip() == "1/2"


def test_hurwitz_backend_gjv_rejected():
    # the closed form has its own subcommand and no selector flag
    for argv in (
        ["hurwitz", "--backend", "gjv", "--sigma", "1+1", "--k", "2", "--b", "1"],
        ["one-part-hurwitz", "--backend", "gjv", "--sigma", "1+1", "--k", "2", "--b", "1"],
        ["one-part-hurwitz", "--gjv", "--sigma", "1+1", "--k", "2", "--b", "1"],
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2, argv


@pytest.mark.parametrize(
    "argv",
    [
        # flags of the other subcommand are rejected, not silently dropped
        ["hurwitz", "--gjv", "--n", "3", "--profiles", "2+1;3", "--backend", "fast",
         "--sigma", "1+1", "--k", "2", "--b", "1"],
        ["hurwitz", "--profiles", "2;2", "--sigma", "1+1", "--b", "3"],
        ["one-part-hurwitz", "--sigma", "1+1", "--k", "2", "--b", "1", "--profiles", "2;2"],
        ["one-part-hurwitz", "--sigma", "1+1", "--k", "2"],
        ["one-part-hurwitz", "--sigma", "1+1", "--k", "2", "--b", "-1"],
        ["one-part-hurwitz", "--sigma", "2+1", "--k", "2", "--b", "1"],
    ],
)
def test_hurwitz_subcommands_reject_stray_flags(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and "Traceback" not in captured.err


def test_one_part_hurwitz_negative_b_error_line(capsys):
    code, out, err = run(capsys, "one-part-hurwitz", "--sigma", "1+1", "--k", "2", "--b", "-1")
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: b must be at least 0, got -1"]


def test_hurwitz_parity_zero(capsys):
    code, out, _ = run(capsys, "hurwitz", "--n", "2", "--profiles", "2;2;2")
    assert code == 0 and out.strip() == "0"


def test_two_point_json_roundtrip(capsys):
    code, out, _ = run(
        capsys,
        "two-point", "--n", "2", "--r", "1",
        "--left", "2(E1)", "--right", "2(E1)",
        "--u-order", "0", "--s-orders", "3",
    )
    assert code == 0
    payload = json.loads(out)
    series = series_from_json(payload)
    assert str(series.coefficient(0, (1,))) == "4*t1 + 4*t2"
    assert str(series.coefficient(0, (3,))) == "4/3*t1 + 4/3*t2"
    # print -> parse -> print is stable
    from symprod.textforms import series_to_json

    assert series_to_json(series) == {k: payload[k] for k in ("u_order", "s_orders", "terms")}


def test_two_point_disjoint_support_empty(capsys):
    code, out, _ = run(
        capsys,
        "two-point", "--n", "2", "--r", "1",
        "--left", "2(E1)", "--right", "2(E1)",
        "--u-order", "1", "--s-orders", "0",
    )
    assert code == 0
    assert json.loads(out)["terms"] == []


def test_two_point_label_out_of_range(capsys):
    code, out, err = run(
        capsys,
        "two-point", "--n", "2", "--r", "1",
        "--left", "2(E5)", "--right", "2(E1)",
    )
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "out of range" in err


def test_two_point_unsupported_weight_without_chains(capsys):
    for argv in (
        ["--n", "2", "--r", "1", "--left", "2(x1)", "--right", "2(x1)",
         "--s-orders", "0"],
        ["--n", "2", "--r", "2", "--left", "1(1)+1(E1)", "--right", "1(E2)+1(x1)",
         "--u-order", "3", "--s-orders", "2,2"],
    ):
        code, out, err = run(capsys, "two-point", *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and "unsupported" in err
        # the label is named as the user typed it, not as a Python tuple
        assert "x1" in err and "('x'" not in err


def test_verify_cli_pass(capsys):
    code, out, _ = run(capsys, "verify-a1n2", "--u-order", "1", "--s-order", "2")
    assert code == 0
    assert "25/25 entries match" in out


def test_verify_cli_corrupt_table(tmp_path, capsys):
    code, _, _ = run(capsys, "make-table", "--case", "a1n2", "--out", str(tmp_path / "t.json"))
    assert code == 0
    payload = json.loads((tmp_path / "t.json").read_text())
    payload["entries"][0]["series"] = [[0, "17"]]
    (tmp_path / "bad.json").write_text(json.dumps(payload))
    code, out, _ = run(
        capsys, "verify-a1n2", "--u-order", "1", "--s-order", "1",
        "--table", str(tmp_path / "bad.json"),
    )
    assert code == 1
    assert "entry" in out


@pytest.mark.parametrize("case", ["repeat", "equal-repeat", "mirror"])
def test_table_that_would_drop_an_entry_is_usage_error(tmp_path, capsys, case):
    # a key stored twice, or mirror keys with different series, would leave
    # one series unread; equal mirror copies, as make-table writes them, load
    code, _, _ = run(capsys, "make-table", "--case", "a1n2", "--out", str(tmp_path / "t.json"))
    assert code == 0
    payload = json.loads((tmp_path / "t.json").read_text())
    key = ("1(1)+1(1)", "D1", "1(1)+1(E1)")
    entry = next(e for e in payload["entries"] if (e["left"], e["divisor"], e["right"]) == key)
    if case == "mirror":
        entry["series"] = [[0, "7"]]
    else:
        series = [[0, "7"]] if case == "repeat" else entry["series"]
        payload["entries"].append(dict(entry, series=series))
    (tmp_path / "bad.json").write_text(json.dumps(payload))
    for argv in (
        ["verify-a1n2", "--u-order", "1", "--s-order", "1"],
        ["op-matrix", "--n", "2", "--r", "1", "--u-order", "0", "--s-orders", "1"],
    ):
        code, out, err = run(capsys, *argv, "--table", str(tmp_path / "bad.json"))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and "Traceback" not in err
        assert str(key) in err
        if case == "mirror":
            assert str(key[::-1]) in err and "different series" in err
        else:
            assert "appears twice" in err


@pytest.mark.parametrize("drop", ["series", "entries"])
def test_table_schema_error_is_usage_error(tmp_path, capsys, drop):
    code, _, _ = run(capsys, "make-table", "--case", "a1n2", "--out", str(tmp_path / "t.json"))
    assert code == 0
    payload = json.loads((tmp_path / "t.json").read_text())
    if drop == "series":
        del payload["entries"][0]["series"]
    else:
        del payload["entries"]
    (tmp_path / "bad.json").write_text(json.dumps(payload))
    for argv in (
        ["verify-a1n2", "--u-order", "1", "--s-order", "1"],
        ["op-matrix", "--n", "2", "--r", "1", "--u-order", "0", "--s-orders", "1"],
    ):
        code, out, err = run(capsys, *argv, "--table", str(tmp_path / "bad.json"))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and drop in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["verify-a1n2", "--u-order", "1", "--s-order", "1"],
    ["op-matrix", "--n", "2", "--r", "1", "--u-order", "0", "--s-orders", "1"],
], ids=["verify-a1n2", "op-matrix"])
def test_table_empty_path_is_usage_error(capsys, argv):
    # an empty --table is a path like any other, not "use the built-in table"
    code, out, err = run(capsys, *argv, "--table", "")
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: [Errno 2] No such file or directory: ''"]


@pytest.mark.parametrize("command", ["op-matrix", "two-point"])
@pytest.mark.parametrize("r, s_orders, message", [
    ("1", "1,1", "error: need 1 s-order, got 2"),
    ("1", "1 1 1", "error: need 1 s-order, got 3"),
    ("2", "1,1,1", "error: need 1 or 2 s-orders, got 3"),
    ("3", "1 1", "error: need 1 or 3 s-orders, got 2"),
], ids=["r1-2", "r1-3", "r2-3", "r3-2"])
def test_wrong_number_of_s_orders_is_usage_error(capsys, command, r, s_orders, message):
    args = {"op-matrix": ["--divisor", "D1"], "two-point": ["--left", "2(1)", "--right", "2(1)"]}
    code, out, err = run(capsys, command, "--n", "2", "--r", r, "--u-order", "1",
                         "--s-orders", s_orders, *args[command])
    assert code == 2 and out == ""
    assert err.splitlines() == [message]


def test_table_noncanonical_key_matches(tmp_path, capsys):
    argv = ["op-matrix", "--n", "2", "--r", "1", "--divisor", "D1",
            "--u-order", "0", "--s-orders", "1"]
    gaps = {}
    for left in ("1(1)+1(E1)", "1(E1)+1(1)"):
        entry = {"left": left, "divisor": "D1", "right": "1(1)+1(E1)", "series": [[0, "1"]]}
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"entries": [entry]}))
        code, out, _ = run(capsys, *argv, "--table", str(path))
        assert code == 0
        gaps[left] = len(json.loads(out)["gaps"])
    assert gaps == {"1(1)+1(E1)": 24, "1(E1)+1(1)": 24}


@pytest.mark.parametrize(
    "series", [[[0.5, "1"]], [[True, "1"]], [["2", "1"]], [[-1, "1"]], [[0, "1"], [0, "2"]]]
)
def test_table_bad_exponent_is_usage_error(tmp_path, capsys, series):
    entry = {"left": "1(1)+1(E1)", "divisor": "D1", "right": "1(1)+1(E1)", "series": series}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"entries": [entry]}))
    code, out, err = run(
        capsys, "op-matrix", "--n", "2", "--r", "1", "--u-order", "0", "--s-orders", "1",
        "--table", str(path),
    )
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "exponent" in err and "Traceback" not in err


def test_table_index_zero_label_is_usage_error(tmp_path, capsys):
    entry = {"left": "2(E0)", "divisor": "D1", "right": "1(1)+1(E1)", "series": [[0, "1"]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"entries": [entry]}))
    code, out, err = run(
        capsys, "op-matrix", "--n", "2", "--r", "1", "--u-order", "0", "--s-orders", "1",
        "--table", str(path),
    )
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "E0" in err and "Traceback" not in err


def test_table_nonhomogeneous_denominator_is_usage_error(tmp_path, capsys):
    entry = {"left": "1(1)+1(E1)", "divisor": "D1", "right": "1(1)+1(E1)",
             "series": [[0, "(1)/(t1 + 1)"]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"entries": [entry]}))
    code, out, err = run(
        capsys, "op-matrix", "--n", "2", "--r", "1", "--divisor", "D1",
        "--u-order", "0", "--s-orders", "1", "--table", str(path),
    )
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "t1 + 1" in err and "homogeneous" in err and "Traceback" not in err


@pytest.mark.parametrize("coeff", ["2t1t2", "(t1*t2)/(t1)"])
def test_table_noncanonical_coefficient_is_usage_error(tmp_path, capsys, coeff):
    entry = {"left": "1(1)+1(E1)", "divisor": "D1", "right": "1(1)+1(E1)",
             "series": [[0, coeff]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"entries": [entry]}))
    code, out, err = run(
        capsys, "op-matrix", "--n", "2", "--r", "1", "--divisor", "D1",
        "--u-order", "0", "--s-orders", "1", "--table", str(path),
    )
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert coeff in err and "canonical" in err and "Traceback" not in err


def test_make_table_output_loads_unchanged(tmp_path, capsys):
    code, _, _ = run(capsys, "make-table", "--case", "a1n2", "--out", str(tmp_path / "t.json"))
    assert code == 0
    assert ZeroDegreeTable.load(tmp_path / "t.json").entries == zero_degree_table_a1n2().entries


def test_op_matrix_json(capsys):
    code, out, _ = run(
        capsys,
        "op-matrix", "--n", "2", "--r", "1", "--divisor", "D1",
        "--u-order", "1", "--s-orders", "2", "--table", "a1n2",
    )
    assert code == 0
    op = op_matrix_from_json(json.loads(out))
    assert op.size() == 5
    assert not op.gaps


def test_op_matrix_gaps_noted(capsys):
    code, out, err = run(
        capsys,
        "op-matrix", "--n", "2", "--r", "1", "--divisor", "D1",
        "--u-order", "0", "--s-orders", "1",
    )
    assert code == 0
    assert json.loads(out)["gaps"]
    assert "degree-zero gaps" in err


def test_op_matrix_latex_and_csv(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "op-matrix", "--n", "2", "--r", "1", "--divisor", "D1",
        "--u-order", "0", "--s-orders", "1", "--table", "a1n2",
        "--format", "latex",
    )
    assert code == 0 and "\\begin{pmatrix}" in out
    target = tmp_path / "matrix.csv"
    code, out, _ = run(
        capsys,
        "op-matrix", "--n", "2", "--r", "1", "--divisor", "D1",
        "--u-order", "0", "--s-orders", "1", "--table", "a1n2",
        "--format", "csv", "--out", str(target),
    )
    assert code == 0
    assert target.read_text().startswith("row,col,u,s1,coefficient")


@pytest.mark.parametrize("fmt", ["json", "latex", "csv"])
def test_op_matrix_out_file_holds_the_stdout_bytes(tmp_path, capsysbinary, fmt):
    """--out writes exactly what stdout prints: the text and one newline, also
    after the CSV's last \\r\\n."""
    argv = ["op-matrix", "--n", "3", "--r", "2", "--divisor", "(2)", "--u-order", "2",
            "--s-orders", "1 1", "--format", fmt]
    assert main(argv) == 0
    printed = capsysbinary.readouterr().out
    target = tmp_path / f"matrix.{fmt}"
    assert main(argv + ["--out", str(target)]) == 0
    assert capsysbinary.readouterr().out == b""
    assert target.read_bytes() == printed
    assert printed.endswith(b"\r\n\n" if fmt == "csv" else b"\n")


def test_op_matrix_divisor_out_of_range(capsys):
    code, out, err = run(
        capsys,
        "op-matrix", "--n", "2", "--r", "1", "--divisor", "D3",
        "--u-order", "1", "--s-orders", "1",
    )
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "D3" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["op-matrix", "--n", "0", "--r", "1", "--divisor", "D1", "--u-order", "1", "--s-orders", "1"],
    ["op-matrix", "--n", "-1", "--r", "2", "--divisor", "(2)", "--u-order", "1", "--s-orders", "1"],
    ["two-point", "--n", "0", "--r", "1", "--left", "", "--right", ""],
])
def test_size_below_one_is_usage_error(capsys, argv):
    """[Sym^0] is a point with no divisor classes: n = 0 prints no operator
    on the empty basis element and no empty two-point series."""
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: n must be at least 1"]


@pytest.mark.parametrize("divisor", ["D01", "D 1", "D+1"])
def test_op_matrix_noncanonical_divisor_is_usage_error(capsys, divisor):
    code, out, err = run(
        capsys,
        "op-matrix", "--n", "2", "--r", "1", "--divisor", divisor,
        "--u-order", "1", "--s-orders", "1", "--table", "a1n2",
    )
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        f'error: divisor {divisor!r} out of range: the divisors are "(2)" and D1..D1'
    ]


def test_eigencheck_default(capsys):
    code, out, _ = run(capsys, "eigencheck")
    assert code == 0
    assert "distinct eigenvalues certified" in out


def test_eigencheck_pole_is_usage_error(capsys):
    code, _, err = run(capsys, "eigencheck", "--s", "1")
    assert code == 2
    assert "pole" in err


def test_eigencheck_zero_denominator_is_usage_error(capsys):
    code, out, err = run(capsys, "eigencheck", "--t2", "1/0")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_eigencheck_identity_self_test(capsys):
    code, out, _ = run(capsys, "eigencheck", "--identity-self-test")
    assert code == 0
    assert "derogatory" in out


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        main(["hurwitz", "--does-not-exist"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["hurwitz", "--n", "2"])
    assert err.value.code == 2
    assert "required" in capsys.readouterr().err


def test_budget_exit_code(monkeypatch, capsys):
    monkeypatch.setenv("SYMPROD_HURWITZ_BUDGET", "3")
    code, _, err = run(capsys, "hurwitz", "--n", "4", "--profiles", "2+1+1;2+1+1")
    assert code == 3
    assert "budget" in err


def test_budget_variable_unparsable(monkeypatch, capsys):
    monkeypatch.setenv("SYMPROD_HURWITZ_BUDGET", "abc")
    code, out, err = run(capsys, "hurwitz", "--n", "2", "--profiles", "2;2")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "SYMPROD_HURWITZ_BUDGET" in err


def test_config_file_defaults(tmp_path, capsys):
    config = tmp_path / "job.json"
    config.write_text(json.dumps({"n": 2, "profiles": "2;2"}))
    code, out, _ = run(capsys, "hurwitz", "--config", str(config))
    assert code == 0 and out.strip() == "1/2"
    # explicit flags win over the config
    code, out, _ = run(
        capsys, "hurwitz", "--config", str(config), "--profiles", "2;2;2"
    )
    assert code == 0 and out.strip() == "0"
    code, _, err = run(capsys, "hurwitz", "--config", str(config.with_suffix(".bad")))
    assert code == 2


def test_config_rejects_unknown_keys(tmp_path, capsys):
    config = tmp_path / "job.json"
    config.write_text(json.dumps({"bogus": 1}))
    with pytest.raises(SystemExit) as err:
        main(["hurwitz", "--config", str(config)])
    assert err.value.code == 2


@pytest.mark.parametrize("key", ["func", "command"])
def test_config_rejects_internal_keys(tmp_path, capsys, key):
    config = tmp_path / "job.json"
    config.write_text(json.dumps({key: "x"}))
    with pytest.raises(SystemExit) as err:
        main(["hurwitz", "--config", str(config)])
    assert err.value.code == 2


def test_config_values_type_checked(tmp_path, capsys):
    config = tmp_path / "job.json"
    config.write_text(json.dumps({"u_order": 7.5}))
    with pytest.raises(SystemExit) as err:
        main(["verify-a1n2", "--config", str(config)])
    assert err.value.code == 2
    assert "invalid int value: '7.5'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, config",
    [
        # a string is not a switch value: "false" would turn the switch on
        ("eigencheck", {"identity-self-test": "false"}),
        ("eigencheck", {"identity-self-test": 1}),
        # a boolean is not a valued flag's value: true used to read as --n 1
        ("hurwitz", {"n": True, "profiles": "1;1"}),
        ("verify-a1n2", {"u_order": False}),
    ],
)
def test_config_value_must_fit_flag_kind(tmp_path, capsys, command, config):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(config))
    with pytest.raises(SystemExit) as err:
        main([command, "--config", str(path)])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].startswith("symprod: error: config key")


def test_config_switch_takes_json_booleans(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"identity-self-test": True}))
    code, out, _ = run(capsys, "eigencheck", "--config", str(path))
    assert code == 0 and "derogatory" in out
    path.write_text(json.dumps({"identity-self-test": False, "s": "1/3"}))
    code, out, _ = run(capsys, "eigencheck", "--config", str(path))
    assert code == 0 and "distinct eigenvalues certified" in out


# subcommand -> flags holding every required one
_REQUIRED_FLAGS = {
    "two-point": {"n": 2, "r": 1, "left": "2(E1)", "right": "2(E1)"},
    "op-matrix": {"n": 2, "r": 1, "u-order": 1, "s-orders": "1"},
    "one-part-hurwitz": {"sigma": "2+1", "k": 3, "b": 2},
}


@pytest.mark.parametrize("command", sorted(_REQUIRED_FLAGS))
def test_config_gives_required_flags(tmp_path, capsys, command):
    flags = _REQUIRED_FLAGS[command]
    path = tmp_path / "job.json"
    path.write_text(json.dumps(flags))
    argv = [item for key, value in flags.items() for item in (f"--{key}", str(value))]
    want = run(capsys, command, *argv)
    assert want[0] == 0
    assert run(capsys, command, "--config", str(path)) == want


def test_config_not_an_object(tmp_path, capsys):
    config = tmp_path / "job.json"
    config.write_text("[1, 2]")
    code, out, err = run(capsys, "hurwitz", "--config", str(config))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read config:") and "Traceback" not in err


# ---------------------------------------------------------------------------
# fuzz: any argv over the seven subcommands ends in a documented exit code
# ---------------------------------------------------------------------------

def _values(valid, invalid):
    """Mostly valid values; an invalid one about one time in five."""
    return st.integers(0, 4).flatmap(
        lambda k: st.sampled_from(invalid if k == 0 else valid)
    )


# TMP stands for the example's temporary directory
_INVALID_INT = ["-1", "x", ""]
_ORDER = _values(["0", "1", "2"], _INVALID_INT)
_R = _values(["1", "2"], ["0", "3"] + _INVALID_INT)
_WP = _values(
    ["2(E1)", "1(1)+1(E1)", "2(w1)", "1(E2)+1(1)", "2(1)", "1(E1)+1(E1)"],
    ["3(E1)", "1(1)", "2(x1)", "2(E5)", "2(", "", "2(Q1)"],
)
_S_ORDERS = _values(["0", "1", "2", "1,2", "2,0"], ["1,2,3", "a", "-1"])
_RATIONAL = _values(["1", "2", "1/3", "1/5", "-1"], ["0", "x", "1/0", ""])
_TABLE = _values(["TMP/table.json", "a1n2"], ["TMP/missing.json", "a1n3"])
_OUT = _values(["TMP/out.txt"], ["TMP/missing/out.txt", "TMP"])

# subcommand -> {flag: (values or None for a switch, required)}
_FLAGS = {
    "hurwitz": {
        "--n": (_values(["2", "3"], ["0"] + _INVALID_INT), False),
        "--profiles": (_values(["2;2", "2+1;3", "2;2;2", "1+1;2", "3;3;3", "2+1;2+1;3"],
                               ["", ";", "x", "0;0", "2;3"]), True),
    },
    "one-part-hurwitz": {
        "--sigma": (_values(["1+1", "2", "2+1"], ["x", "", "0"]), True),
        "--k": (_values(["2", "3"], ["0"] + _INVALID_INT), True),
        "--b": (_values(["0", "1", "2", "3"], _INVALID_INT), True),
    },
    "two-point": {
        "--n": (_values(["2"], ["0", "3"] + _INVALID_INT), True),
        "--r": (_R, True),
        "--left": (_WP, True),
        "--right": (_WP, True),
        "--u-order": (_ORDER, False),
        "--s-orders": (_S_ORDERS, False),
    },
    "op-matrix": {
        "--n": (_values(["1", "2", "3"], ["0"] + _INVALID_INT), True),
        "--r": (_R, True),
        "--divisor": (_values(["(2)", "D1", "D2"], ["D3", "D0", "X"]), False),
        "--u-order": (_ORDER, False),
        "--s-orders": (_S_ORDERS, False),
        "--table": (_TABLE, False),
        "--format": (_values(["json", "latex", "csv"], ["pdf"]), False),
        "--out": (_OUT, False),
    },
    "verify-a1n2": {
        "--u-order": (_ORDER, False),
        "--s-order": (_ORDER, False),
        "--table": (_TABLE, False),
    },
    "eigencheck": {
        "--t1": (_RATIONAL, False),
        "--t2": (_RATIONAL, False),
        "--s": (_RATIONAL, False),
        "--q": (_RATIONAL, False),
        "--identity-self-test": (None, False),
    },
    "make-table": {
        "--case": (_values(["a1n2"], ["a2n2"]), False),
        "--out": (_OUT, True),
    },
}

_ENTRY = '{"left": "2(E1)", "divisor": "D1", "right": "2(E1)", "series": [[0, "1"]]}'
_TABLE_TEXT = _values(
    ['{"entries": [%s]}' % _ENTRY,
     '{"entries": [%s]}' % _ENTRY.replace('"2(E1)"', '"1(E1)+1(E1)"', 1)],
    ["not json", "[1, 2]", "{}", '{"entries": 5}', '{"entries": [[1]]}',
     '{"entries": [{"left": "2(E1)"}]}',
     '{"entries": [%s]}' % _ENTRY.replace('"1"', '"1/0"'),
     '{"entries": [%s]}' % _ENTRY.replace('"1"', "7"),
     '{"entries": [%s]}' % _ENTRY.replace("D1", "D0"),
     '{"entries": [%s]}' % _ENTRY.replace("[0,", "[0.5,"),
     '{"entries": [%s]}' % _ENTRY.replace("[0,", "[true,"),
     '{"entries": [%s]}' % _ENTRY.replace("[0,", "[-1,"),
     '{"entries": [%s]}' % _ENTRY.replace('[[0, "1"]]', '[[0, "1"], [0, "2"]]'),
     '{"entries": [%s]}' % _ENTRY.replace("2(E1)", "2(Q1)", 1)],
)
_CONFIG_TEXT = st.none() | _values(
    ["{}", '{"u-order": 1}', '{"s_orders": "2"}'],
    ["nope", "[1, 2]", '"text"', "null", '{"bogus": 1}', '{"n": "x"}', '{"u_order": 7.5}'],
)


# a JSON value of any kind, for a switch or a valued flag alike
_CONFIG_VALUE = st.one_of(
    st.booleans(), st.sampled_from(["true", "false", "1", "x", ""]), st.integers(-1, 2), st.none()
)


_STRAY_FLAGS = [["--gjv"], ["--backend", "fast"], ["--sigma", "1+1"], ["--n", "2"],
                ["--profiles", "2;2"], ["--table", "a1n2"], ["--identity-self-test"]]


@st.composite
def _cli_case(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]
    for flag, (values, required) in _FLAGS[command].items():
        # required flags are left out one time in ten, optional ones half the time
        if draw(st.integers(0, 9)) < (9 if required else 5):
            argv += [flag] if values is None else [flag, draw(values)]
    if draw(st.integers(0, 9)) == 0:  # a flag of another subcommand, or a removed one
        argv += draw(st.sampled_from(_STRAY_FLAGS))
    if draw(st.booleans()):
        config = draw(_CONFIG_TEXT)
    else:  # one of this command's flags, switch or valued, with any kind of value
        flag = draw(st.sampled_from(sorted(_FLAGS[command])))
        config = json.dumps({flag.lstrip("-"): draw(_CONFIG_VALUE)})
    return argv, draw(_TABLE_TEXT), config


@settings(
    max_examples=150, derandomize=True, database=None, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(_cli_case())
def test_cli_fuzz_exit_codes(tmp_path, capsys, case):
    argv, table_text, config_text = case
    argv = [a.replace("TMP", str(tmp_path)) for a in argv]
    (tmp_path / "table.json").write_text(table_text)
    if config_text is not None:
        (tmp_path / "job.json").write_text(config_text)
        argv += ["--config", str(tmp_path / "job.json")]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3), (argv, err)
    assert "Traceback" not in err, argv


@pytest.mark.parametrize("command", ["op-matrix", "two-point"])
def test_r_below_one_is_named_before_the_s_orders(capsys, command):
    argv = [command, "--n", "2", "--r", "0", "--s-orders", "1 2"]
    if command == "two-point":
        argv += ["--left", "2(1)", "--right", "2(1)"]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.strip() == "error: r must be at least 1"


# ---------------------------------------------------------------------------
# one subparser per call: the same output as the parser with all of them
# ---------------------------------------------------------------------------

_CONFIGS = {
    "unknown.json": {"bogus": 1},
    "func.json": {"func": "x"},
    "command.json": {"command": "x"},
    "kind.json": {"u_order": True},
    "switch.json": {"identity-self-test": "false"},
    "float.json": {"u_order": 7.5},
    "list.json": [1, 2],
    "two-point.json": {"n": 2, "r": 1, "left": "2(E1)", "right": "2(E1)"},
}

# TMP stands for the directory holding _CONFIGS
_PARITY_ARGVS = [
    [], ["-h"], ["bogus"], ["-h", "op-matrix"], ["--config", "TMP/two-point.json", "two-point"],
    *([name, "-h"] for name in COMMANDS),
    ["hurwitz", "--n", "2"], ["make-table"], ["two-point", "--n", "2", "--left", "2(E1)"],
    ["hurwitz", "--bogus"], ["op-matrix", "--n", "2", "--r", "1", "extra"],
    ["hurwitz", "--profiles", "2;2", "--sigma", "1+1"], ["verify-a1n2", "--profiles", "2;2"],
    ["op-matrix", "--n", "2", "--r", "1", "--format", "pdf"],
    ["op-matrix", "--n", "x", "--r", "1"],
    ["hurwitz", "--config", "TMP/unknown.json"], ["hurwitz", "--config", "TMP/func.json"],
    ["hurwitz", "--config", "TMP/command.json"], ["verify-a1n2", "--config", "TMP/kind.json"],
    ["eigencheck", "--config", "TMP/switch.json"], ["verify-a1n2", "--conf", "TMP/float.json"],
    ["verify-a1n2", "--config", "TMP/list.json"], ["verify-a1n2", "--config"],
    ["verify-a1n2", "--config", "TMP/missing.json"],
    ["two-point", "--config", "TMP/two-point.json"],
    ["two-point", "--conf", "TMP/two-point.json", "--u-order", "1"],
    ["hurwitz", "--n", "2", "--profiles", "2;2"],
    ["op-matrix", "--n", "2", "--r", "1", "--u-order", "0", "--s-orders", "1", "--format", "csv"],
    ["verify-a1n2", "--u-order", "1", "--s-order", "1"],
]


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", _PARITY_ARGVS, ids=lambda argv: " ".join(argv) or "no-args")
def test_cli_output_matches_parser_with_every_subcommand(tmp_path, capsys, monkeypatch, argv):
    for name, config in _CONFIGS.items():
        (tmp_path / name).write_text(json.dumps(config))
    argv = [a.replace("TMP", str(tmp_path)) for a in argv]
    got = _outcome(capsys, argv)
    monkeypatch.setattr(cli, "build_parser", reference_build_parser)
    assert got == _outcome(capsys, argv)


def _count_add_parser(monkeypatch) -> list:
    calls = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        calls.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    return calls


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_known_subcommand_builds_one_subparser(capsys, monkeypatch, name):
    calls = _count_add_parser(monkeypatch)
    code, out, _ = _outcome(capsys, [name, "-h"])
    assert code == 0 and out.startswith(f"usage: symprod {name} ")
    assert calls == [name]
    code, _, err = _outcome(capsys, [name, "--bogus"])
    assert code == 2 and err.startswith("usage: symprod ")
    assert calls == [name, name]


def test_top_level_help_lists_every_subcommand(capsys, monkeypatch):
    calls = _count_add_parser(monkeypatch)
    code, out, _ = _outcome(capsys, ["-h"])
    assert code == 0 and calls == list(COMMANDS)
    text = " ".join(out.split())
    assert "{" + ",".join(COMMANDS) + "}" in text
    for name, (_, help_text, _) in COMMANDS.items():
        assert f"{name} {' '.join(help_text.split())}" in text
