"""The benchmark workloads: what one op runs in its cold child, and how the
parent checks the child's report.

Inputs are fixed; the seed only permutes the divisor order of
``op-chains``. Outputs are checked against sha256 hashes recorded in
``golden.json`` (the op-matrix JSON is byte-stable by contract), and
``verify-a1n2`` must print 25/25 matched entries and exit 0.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")

VERIFY_ARGV = ("verify-a1n2", "--u-order", "12", "--s-order", "12")
GRAM_ARGV = ("op-matrix", "--n", "4", "--r", "1", "--divisor", "D1",
             "--u-order", "4", "--s-orders", "4")
CHAIN_DIVISORS = ("(2)", "D1", "D2", "D3")
CHAIN_N, CHAIN_R, CHAIN_U_ORDER, CHAIN_S_ORDERS = 2, 3, 4, (3, 3, 3)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_cli(argv) -> tuple[int, str, str]:
    """``symprod.cli.main(argv)`` with stdout and stderr captured."""
    cli = importlib.import_module("symprod.cli")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


class Workload:
    name = ""

    def body(self) -> dict:
        """Run one op; called in the cold child."""
        raise NotImplementedError

    def check(self, report: dict) -> str | None:
        """Why the op's output is wrong, or None if it is right."""
        raise NotImplementedError


class VerifyA1n2(Workload):
    name = "verify-a1n2"

    def body(self) -> dict:
        code, out, err = run_cli(VERIFY_ARGV)
        return {"exit": code, "stdout": out, "stderr": err}

    def check(self, report: dict) -> str | None:
        if not report["stdout"].startswith("25/25 entries match"):
            return f"expected 25/25 entries, got {report['stdout'][:200]!r}"
        return None


class GoldenWorkload(Workload):
    """An op whose outputs are checked against recorded sha256 hashes."""

    def __init__(self, golden):
        self.golden = golden

    def check(self, report: dict) -> str | None:
        got = report.get("outputs")
        if got != self.golden:
            return f"output hashes {got} differ from golden {self.golden}"
        return None


class OpGram(GoldenWorkload):
    name = "op-gram"

    def body(self) -> dict:
        code, out, err = run_cli(GRAM_ARGV)
        return {"exit": code, "stderr": err, "outputs": sha256(out)}


class OpChains(GoldenWorkload):
    """One library session: four divisor operators sharing warm caches."""

    name = "op-chains"

    def __init__(self, golden, seed: int):
        super().__init__(golden)
        self.order = list(CHAIN_DIVISORS)
        random.Random(seed).shuffle(self.order)

    def body(self) -> dict:
        operators = importlib.import_module("symprod.operators")
        basis = operators.default_divisor_basis(CHAIN_N, CHAIN_R)
        outputs = {}
        for divisor in self.order:
            op = operators.divisor_operator(
                CHAIN_N, CHAIN_R, divisor, basis, CHAIN_U_ORDER, CHAIN_S_ORDERS
            )
            outputs[divisor] = sha256(operators.op_matrix_dumps(op))
        return {"exit": 0, "stderr": "", "outputs": outputs}


NAMES = (VerifyA1n2.name, OpGram.name, OpChains.name)


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def build(name: str, seed: int) -> Workload:
    golden = load_golden()
    if name == VerifyA1n2.name:
        return VerifyA1n2()
    if name == OpGram.name:
        return OpGram(golden[OpGram.name])
    if name == OpChains.name:
        return OpChains(golden[OpChains.name], seed)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


def failure(workload: Workload, exit_code: int, report: dict) -> str | None:
    """Why an op failed: an exception, a nonzero exit, a traceback on
    stderr or a wrong output. None if it succeeded."""
    if "error" in report:
        return report["error"]
    if "traceback" in report:
        return "exception: " + report["traceback"].strip().splitlines()[-1]
    if exit_code != 0:
        return f"exit code {exit_code}"
    if "Traceback" in report.get("stderr", ""):
        return "traceback on stderr"
    return workload.check(report)
