"""The benchmark tracer still finds every traced name at its call sites."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_names_resolve(monkeypatch):
    # resolve() only reads module attributes; it patches nothing
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    resolved = tracing.resolve()
    assert [layer.name for layer, _ in resolved] == [layer.name for layer in tracing.LAYERS]
