"""The op-matrix benchmark workloads still write their recorded outputs."""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("name", ["verify-a1n2", "op-gram", "op-chains"])
def test_workload_outputs_match_golden(monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    workload = workloads.build(name, 0)
    assert workload.check(workload.body()) is None
