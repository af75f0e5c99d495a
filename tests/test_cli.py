"""Command-line behavior: outputs, formats, exit codes, config files."""

import json

import pytest

from symprod.cli import main
from symprod.operators import op_matrix_from_json
from symprod.textforms import series_from_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hurwitz_brute(capsys):
    code, out, _ = run(capsys, "hurwitz", "--n", "2", "--profiles", "2;2")
    assert code == 0 and out.strip() == "1/2"


def test_hurwitz_fast_backend(capsys):
    code, out, _ = run(
        capsys, "hurwitz", "--n", "4", "--profiles", "2+1+1;2+1+1;3+1", "--backend", "fast"
    )
    assert code == 0
    brute_code, brute_out, _ = run(
        capsys, "hurwitz", "--n", "4", "--profiles", "2+1+1;2+1+1;3+1"
    )
    assert brute_code == 0 and out == brute_out


def test_hurwitz_gjv(capsys):
    code, out, _ = run(capsys, "hurwitz", "--gjv", "--sigma", "1+1", "--k", "2", "--b", "1")
    assert code == 0 and out.strip() == "1/2"


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


def test_op_matrix_divisor_out_of_range(capsys):
    code, out, err = run(
        capsys,
        "op-matrix", "--n", "2", "--r", "1", "--divisor", "D3",
        "--u-order", "1", "--s-orders", "1",
    )
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "D3" in err and "Traceback" not in err


def test_eigencheck_default(capsys):
    code, out, _ = run(capsys, "eigencheck")
    assert code == 0
    assert "distinct eigenvalues certified" in out


def test_eigencheck_pole_is_usage_error(capsys):
    code, _, err = run(capsys, "eigencheck", "--s", "1")
    assert code == 2
    assert "pole" in err


def test_eigencheck_identity_self_test(capsys):
    code, out, _ = run(capsys, "eigencheck", "--identity-self-test")
    assert code == 0
    assert "derogatory" in out


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        main(["hurwitz", "--does-not-exist"])
    assert err.value.code == 2
    code, _, err_text = run(capsys, "hurwitz", "--n", "2")
    assert code == 2 and "required" in err_text


def test_budget_exit_code(monkeypatch, capsys):
    monkeypatch.setenv("SYMPROD_HURWITZ_BUDGET", "3")
    code, _, err = run(capsys, "hurwitz", "--n", "4", "--profiles", "2+1+1;2+1+1")
    assert code == 3
    assert "budget" in err


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
