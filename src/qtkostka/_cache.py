"""The package's memo tables, each declared once and reported together.

`memo` is `functools.cache` that also registers the table under
"module.name", with the function's leading underscore dropped.
`memo_checked(check)` does the same for a public function whose key must
pass `check` first: the key is the checked value, so a key that only hashes
like a valid one never reaches the table.  A table registers when its module
is imported; `cache_info()` imports the two that `import qtkostka` leaves
out, so it lists every table.
"""

from __future__ import annotations

from functools import cache, wraps
from typing import Callable

_TABLES: dict[str, Callable] = {}


def memo(fn: Callable) -> Callable:
    table = cache(fn)
    module = fn.__module__.rpartition(".")[2]
    _TABLES[f"{module}.{fn.__name__.lstrip('_')}"] = table
    return table


def memo_checked(check: Callable) -> Callable[[Callable], Callable]:
    def decorate(fn: Callable) -> Callable:
        table = memo(fn)

        @wraps(fn)
        def checked(key):
            return table(check(key))

        checked.cache_info = table.cache_info
        checked.cache_clear = table.cache_clear
        return checked

    return decorate


def cache_info() -> dict[str, dict[str, int]]:
    """Hits, misses and current size of every memo table, keyed "module.name"."""
    from . import oracle, stats  # noqa: F401

    report = {}
    for name, table in _TABLES.items():
        info = table.cache_info()
        report[name] = {"hits": info.hits, "misses": info.misses, "size": info.currsize}
    return report


def clear_caches() -> None:
    """Empty every registered table; later calls refill them."""
    for table in _TABLES.values():
        table.cache_clear()
