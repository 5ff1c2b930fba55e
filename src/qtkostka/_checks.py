"""The one place that decides whether an argument is valid.

Each kind of argument (int, partition, point, word, tableau, standard
tableau) has one rule and one message, and every refusal is an `InputError`,
which is both a `TypeError` and a `ValueError`.  Cached entry points run only
`int_parts` before the lookup, and the full check on a miss.  An argument is
checked once, where it enters the library: a public function checks its
arguments here and hands them to a private core, and library code that
holds a value the library built calls the core, or the trusted constructors
`SchurExpansion._of` and `QTPoly._trusted`, instead of the public function.
`tests/test_api.py` pins the rule and lists the calls that check what a
caller gave.  This module imports nothing from the package, so every route
can use it without sharing other code.
"""

from __future__ import annotations

from fractions import Fraction
from operator import ge
from typing import Iterable


class InputError(TypeError, ValueError):
    """An argument of the wrong type or outside its domain."""


def _refuse(name: str, value, kind: str) -> InputError:
    return InputError(f"{name} = {value!r} is not {kind}")


def as_int(value, name: str, low: int | None = None) -> int:
    """value, once it is an int (not a bool) and, when low is given, at least low."""
    if type(value) is not int or (low is not None and value < low):
        raise _refuse(name, value, "an int" if low is None else f"an int >= {low}")
    return value


def is_partition(parts: Iterable[int]) -> bool:
    """True when parts is weakly decreasing and every part is a positive int (not a bool)."""
    seq = tuple(parts)
    if not {int}.issuperset(map(type, seq)):
        return False
    return all(map(ge, seq, seq[1:])) and (not seq or seq[-1] > 0)


def int_parts(parts: Iterable[int]) -> tuple[int, ...]:
    """parts as a tuple, once each part's type is exactly int: True and 1.0 hash
    like 1, so cached entry points call this before the lookup, and leave the
    order and positivity of the parts to the check on a miss."""
    try:
        lam = tuple(parts)
    except TypeError:
        raise _refuse("parts", parts, "a partition") from None
    for p in lam:
        if type(p) is not int:
            raise _refuse("parts", lam, "a partition")
    return lam


def as_partition(parts: Iterable[int], name: str) -> tuple[int, ...]:
    """parts as a tuple, once it is a partition."""
    try:
        lam = tuple(parts)
    except TypeError:
        raise _refuse(name, parts, "a partition") from None
    if not is_partition(lam):
        raise _refuse(name, lam, "a partition")
    return lam


def as_point(q0, t0) -> tuple[Fraction, Fraction]:
    """(q0, t0) as Fractions, once each is an int or a Fraction (not a float or bool)."""
    for name, x in (("q0", q0), ("t0", t0)):
        if not isinstance(x, (int, Fraction)) or isinstance(x, bool):
            raise _refuse(name, x, "an int or a Fraction")
    return tuple(x if type(x) is Fraction else Fraction(x) for x in (q0, t0))


def _as_points(points, name: str) -> list[tuple[Fraction, Fraction]]:
    """points as a list of (q0, t0) Fraction pairs, once it is a nonempty
    iterable of pairs, each checked by `as_point`.  Private: only the rational
    tables take a list of points."""
    try:
        pairs = [tuple(item) for item in points]
    except TypeError:
        pairs = []
    if not pairs or {len(pair) for pair in pairs} != {2}:
        raise _refuse(name, points, "a nonempty list of (q0, t0) pairs")
    return [as_point(*pair) for pair in pairs]


def as_word(word: Iterable[int], name: str) -> tuple[int, ...]:
    """word as a tuple, once every letter is a positive int; one C-level type pass."""
    try:
        w = tuple(word)
    except TypeError:
        raise _refuse(name, word, "a word of positive ints") from None
    if w and not ({int}.issuperset(map(type, w)) and min(w) > 0):
        raise _refuse(name, w, "a word of positive ints")
    return w


def _one_shot(tab) -> bool:
    """True when tab is its own iterator, which the shape pass would consume and
    the row pass then see empty; a tuple is never one and costs no call."""
    return type(tab) is not tuple and iter(tab) is tab


def is_tableau(tab) -> bool:
    """Partition shape, positive int entries, rows weakly and columns strictly increasing."""
    try:
        if _one_shot(tab) or not is_partition(map(len, tab)):
            return False
        below: tuple = ()
        for r, row in enumerate(tab):
            prev = 1
            for c, x in enumerate(row):
                if type(x) is not int or x < prev or (r and x <= below[c]):
                    return False
                prev = x
            below = row
    except TypeError:
        return False
    return True


def as_tableau(tab, name: str):
    """tab, once it is a column-strict tableau."""
    if not is_tableau(tab):
        raise _refuse(name, tab, "a column-strict tableau")
    return tab


def is_standard(tab) -> bool:
    """Partition shape, rows and columns increasing, letters exactly 1..n; one pass."""
    try:
        if _one_shot(tab):
            return False
        n = sum(map(len, tab))
        seen = [False] * (n + 1)
        below: tuple = ()
        for r, row in enumerate(tab):
            if not row or (r and len(row) > len(below)):
                return False
            prev = 0
            for c, x in enumerate(row):
                if type(x) is not int or x <= prev or x > n or seen[x] or (r and x <= below[c]):
                    return False
                seen[x] = True
                prev = x
            below = row
    except TypeError:
        return False
    return True


def as_standard(tab, name: str):
    """tab, once it is a standard tableau."""
    if not is_standard(tab):
        raise _refuse(name, tab, "a standard tableau")
    return tab

