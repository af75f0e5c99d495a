"""Per-layer spans for the traced run, from call-site wrappers.

symprod's modules bind their imports locally (``from .chenruan import
pairing``), so a wrapper on the defining module alone would miss most
calls. Each traced function is therefore replaced in every symprod
module that binds it, the defining module included; package
``__init__`` re-exports are left alone because no library code calls
through them. Modules are resolved with ``importlib.import_module``:
``symprod.hurwitz`` as an attribute is the function that
``symprod/__init__.py`` re-exports, not the module.

Every layer names the call sites that must bind it. A name that is
missing there, or bound to another object, raises ``TraceSetupError``:
the traced run fails instead of reporting 0 for a layer it no longer
sees.

A span's self time is its duration minus the durations of the traced
spans it directly encloses. Inclusive time counts only the outermost
active span of a layer, so recursion is not counted twice. Install the
tracer only in a forked child: it patches modules for the rest of the
process.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass


class TraceSetupError(RuntimeError):
    """A traced name is missing from, or rebound in, a call site."""


@dataclass(frozen=True)
class Layer:
    name: str  # metric prefix, "<module>.<function>"
    module: str  # defining module
    attr: str  # function name
    sites: tuple[str, ...]  # modules that must bind and call it
    distinct: bool = False  # count distinct argument keys (by hash)


LAYERS = (
    Layer("chenruan.gram_inverse", "symprod.chenruan", "gram_inverse",
          ("symprod.operators",)),
    Layer("chenruan.gram_matrix", "symprod.chenruan", "gram_matrix",
          ("symprod.chenruan", "symprod.operators")),
    Layer("chenruan.pairing", "symprod.chenruan", "pairing",
          ("symprod.chenruan", "symprod.invariants"), distinct=True),
    Layer("chenruan.expand", "symprod.chenruan", "expand",
          ("symprod.chenruan",), distinct=True),
    Layer("invariants.three_point_divisor_series", "symprod.invariants",
          "three_point_divisor_series", ("symprod.operators",)),
    Layer("invariants.two_point_series", "symprod.invariants", "two_point_series",
          ("symprod.invariants", "symprod.cli"), distinct=True),
    Layer("invariants.disconnected_two_point", "symprod.invariants",
          "disconnected_two_point", ("symprod.invariants",), distinct=True),
    Layer("invariants.connected_two_point", "symprod.invariants",
          "connected_two_point", ("symprod.invariants",), distinct=True),
    Layer("partitions.enumerate_sub_splittings", "symprod.partitions",
          "enumerate_sub_splittings", ("symprod.invariants",)),
    Layer("hurwitz.one_part_double_hurwitz", "symprod.hurwitz",
          "one_part_double_hurwitz", ("symprod.invariants", "symprod.cli"),
          distinct=True),
    Layer("algebra.poly2_gcd", "symprod.algebra.poly", "poly2_gcd",
          ("symprod.algebra.ratfunc",)),
    Layer("algebra.expand_q_closed_form", "symprod.algebra.qexpr",
          "expand_q_closed_form", ("symprod.operators",)),
    Layer("operators.divisor_operator", "symprod.operators", "divisor_operator",
          ("symprod.operators", "symprod.cli")),
    Layer("operators.op_matrix_dumps", "symprod.operators", "op_matrix_dumps",
          ("symprod.operators", "symprod.cli")),
    Layer("operators.verify_a1n2", "symprod.operators", "verify_a1n2",
          ("symprod.cli",)),
    Layer("cli.main", "symprod.cli", "main", ("symprod.cli",)),
)

# counted RatFunc2 constructions; RatFunc2 must define its own __init__
RATFUNC_MODULE, RATFUNC_CLASS = "symprod.algebra.ratfunc", "RatFunc2"


def _bound(module: str, attr: str):
    try:
        mod = importlib.import_module(module)
    except ImportError as exc:
        raise TraceSetupError(f"cannot import {module}: {exc}") from None
    if not hasattr(mod, attr):
        raise TraceSetupError(f"{module}.{attr} no longer exists")
    return getattr(mod, attr)


def resolve() -> list[tuple[Layer, object]]:
    """Check every traced name and return (layer, function) pairs.

    Patches nothing, so the parent can run it before forking.
    """
    out = []
    for layer in LAYERS:
        fn = _bound(layer.module, layer.attr)
        for site in layer.sites:
            if _bound(site, layer.attr) is not fn:
                raise TraceSetupError(
                    f"{site}.{layer.attr} is not {layer.module}.{layer.attr}"
                )
        out.append((layer, fn))
    cls = _bound(RATFUNC_MODULE, RATFUNC_CLASS)
    if "__init__" not in vars(cls):
        raise TraceSetupError(f"{RATFUNC_MODULE}.{RATFUNC_CLASS} has no own __init__")
    return out


def _key(args: tuple, kwargs: dict) -> int:
    """Hash of a call's arguments; storing hashes keeps no argument alive."""
    try:
        return hash((args, tuple(sorted(kwargs.items()))))
    except TypeError:  # an unhashable argument, such as a list basis
        return hash(repr((args, sorted(kwargs.items()))))


class _Stat:
    __slots__ = ("calls", "self_s", "incl_s", "active", "keys")

    def __init__(self, distinct: bool):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.active = 0
        self.keys: set[int] | None = set() if distinct else None


class Tracer:
    """Span statistics per layer, plus a few counters."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.ratfunc_new = 0
        self.gcd_nontrivial = 0
        self.dumps_bytes = 0
        self._stack: list[float] = []  # child-span time of each open span

    def install(self) -> Tracer:
        hooks = {
            "algebra.poly2_gcd": self._on_gcd,
            "operators.op_matrix_dumps": self._on_dumps,
        }
        for layer, fn in resolve():
            wrapper = self._span(layer, fn, hooks.get(layer.name))
            for name, mod in list(sys.modules.items()):
                if not name.startswith("symprod.") or hasattr(mod, "__path__"):
                    continue  # package re-exports are not call sites
                if getattr(mod, layer.attr, None) is fn:
                    setattr(mod, layer.attr, wrapper)
        self._count_ratfuncs(_bound(RATFUNC_MODULE, RATFUNC_CLASS))
        return self

    def _on_gcd(self, g) -> None:
        if not g.is_const():
            self.gcd_nontrivial += 1

    def _on_dumps(self, text: str) -> None:
        self.dumps_bytes += len(text.encode("utf-8"))

    def _count_ratfuncs(self, cls) -> None:
        init = cls.__init__

        @functools.wraps(init)
        def counted_init(obj, *args, **kwargs):
            self.ratfunc_new += 1
            init(obj, *args, **kwargs)

        cls.__init__ = counted_init

    def _span(self, layer: Layer, fn, on_result):
        stat = self.stats[layer.name] = _Stat(layer.distinct)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            if stat.keys is not None:
                stat.keys.add(_key(args, kwargs))
            stat.active += 1
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                stat.self_s += span - stack.pop()
                if stack:
                    stack[-1] += span
                stat.active -= 1
                if not stat.active:
                    stat.incl_s += span
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def snapshot(self) -> dict[str, float]:
        """Flat ``<layer>.<stat>`` values, the per-layer metric names."""
        out: dict[str, float] = {}
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.self_s"] = stat.self_s
            out[f"{name}.incl_s"] = stat.incl_s
            if stat.keys is not None:
                out[f"{name}.distinct"] = len(stat.keys)
        gcd_calls = self.stats["algebra.poly2_gcd"].calls
        out["algebra.poly2_gcd.nontrivial_ratio"] = (
            self.gcd_nontrivial / gcd_calls if gcd_calls else 0.0
        )
        out["algebra.ratfunc2.new"] = self.ratfunc_new
        out["operators.op_matrix_dumps.bytes"] = self.dumps_bytes
        return out
