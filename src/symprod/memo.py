"""The package's one memoisation policy.

Every cache in symprod is an unbounded ``functools.lru_cache`` made by
``memo``, keyed on hashable, canonical arguments, and registered here so
that ``clear_caches`` reaches all of them.
"""

from __future__ import annotations

from functools import lru_cache

_registry: list = []


def memo(fn):
    """fn memoised without bound and registered for ``clear_caches``."""
    cached = lru_cache(maxsize=None)(fn)
    _registry.append(cached)
    return cached


def clear_caches() -> None:
    """Empty every memo cache in the package."""
    for cached in _registry:
        cached.cache_clear()
