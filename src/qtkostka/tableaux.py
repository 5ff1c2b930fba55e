"""Words, Young tableaux, charge, and the insertion algorithms.

Tableaux are tuples of rows, bottom row first, each row a tuple of
positive integers.  Rows weakly increase, columns strictly increase
upward.  The reading word lists rows left to right starting with the
top row, so the bottom row is read last.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate
from operator import gt
from types import MappingProxyType
from typing import Iterable, Mapping

from ._cache import memo_checked
from ._checks import as_int, as_partition, as_standard, as_tableau, as_word
from ._checks import int_parts, is_standard, is_tableau  # noqa: F401  (public names)
from .partitions import Partition, horizontal_strips, partitions_of
from .qtpoly import QTPoly

Word = tuple[int, ...]
Tableau = tuple[tuple[int, ...], ...]


def parse_tableau(text: str) -> Tableau:
    """Parse rows separated by '/', bottom row first, entries comma-separated."""
    text = text.strip()
    if not text:
        return ()
    rows = []
    for chunk in text.split("/"):
        try:
            rows.append(tuple(int(piece) for piece in chunk.split(",")))
        except ValueError:
            raise ValueError(f"cannot parse tableau row {chunk!r}") from None
    return as_tableau(tuple(rows), "tableau")


def format_tableau(tab: Tableau) -> str:
    return "/".join(",".join(str(x) for x in row) for row in as_tableau(tab, "tab"))


def shape(tab: Tableau) -> Partition:
    return tuple(len(row) for row in tab)


def reading_word(tab: Tableau) -> Word:
    out: list[int] = []
    for row in reversed(tab):
        out.extend(row)
    return tuple(out)


def content(word: Iterable[int]) -> tuple[int, ...]:
    """Multiplicity vector of the letters 1..max(word)."""
    return _content(as_word(word, "word"))


def _content(letters: Word) -> tuple[int, ...]:
    if not letters:
        return ()
    counts = [0] * max(letters)
    for x in letters:
        counts[x - 1] += 1
    return tuple(counts)


def standard_subwords(word: Word) -> list[Word]:
    """Decompose a word of partition content into standard subwords.

    Scanning right to left, mark the first 1, then the first 2 to its
    left, and so on, wrapping around to the right end whenever the left
    end is passed; the marked letters form one standard subword, which
    is removed before repeating.
    """
    return _standard_subwords(as_word(word, "word"))


def _standard_subwords(word: Word) -> list[Word]:
    as_partition(_content(word), "content")
    remaining = list(enumerate(word))
    subwords: list[Word] = []
    while remaining:
        top = max(letter for _, letter in remaining)
        marked: list[int] = []
        cursor = len(remaining) - 1
        for target in range(1, top + 1):
            steps = 0
            while remaining[cursor][1] != target:
                cursor -= 1
                if cursor < 0:
                    cursor = len(remaining) - 1
                steps += 1
                if steps > len(remaining):
                    raise ValueError(f"letter {target} missing in {word}")
            marked.append(cursor)
            cursor -= 1
            if cursor < 0:
                cursor = len(remaining) - 1
        picked = sorted(marked)
        subwords.append(tuple(remaining[i][1] for i in picked))
        for i in reversed(picked):
            del remaining[i]
    return subwords


def _standard_charge(word: Word) -> int:
    # inverse[k] is the position of letter k + 1; letter k + 1 raises the index
    # when it stands right of letter k, and charge sums the running index
    inverse = sorted(range(len(word)), key=word.__getitem__)
    return sum(accumulate(map(gt, inverse[1:], inverse)))


def charge(word: Iterable[int]) -> int:
    """Lascoux-Schutzenberger charge of a word with partition content."""
    w = as_word(word, "word")
    if not w:
        return 0
    if sorted(w) == list(range(1, len(w) + 1)):
        # a permutation is its own single standard subword
        return _standard_charge(w)
    return sum(_standard_charge(sub) for sub in _standard_subwords(w))  # w is checked


def tableau_charge(tab: Tableau) -> int:
    return charge(reading_word(as_tableau(tab, "tab")))


def row_insert_into(rows: list[list[int]], x: int) -> None:
    """Row insertion in place into a list of row lists."""
    current = x
    for row in rows:
        j = bisect_right(row, current)
        if j == len(row):
            row.append(current)
            return
        row[j], current = current, row[j]
    rows.append([current])


def column_insert_into(rows: list[list[int]], x: int) -> None:
    """Column insertion in place into a list of row lists."""
    current = x
    col = 0
    while True:
        for row in rows:
            if len(row) > col and row[col] >= current:
                row[col], current = current, row[col]
                break
        else:
            for row in rows:
                if len(row) == col:
                    row.append(current)
                    return
            rows.append([current])
            return
        col += 1


def row_insert(tab: Tableau, x: int) -> Tableau:
    """Schensted row insertion: x bumps the leftmost entry strictly greater."""
    rows = [list(row) for row in as_tableau(tab, "tab")]
    row_insert_into(rows, as_int(x, "x", 1))
    return tuple(tuple(row) for row in rows)


def column_insert(tab: Tableau, x: int) -> Tableau:
    """Column insertion: x bumps the lowest entry >= x of each column in turn."""
    rows = [list(row) for row in as_tableau(tab, "tab")]
    column_insert_into(rows, as_int(x, "x", 1))
    return tuple(tuple(row) for row in rows)


def reverse_row_insert(tab: Tableau, cell: tuple[int, int]) -> tuple[Tableau, int]:
    """Undo a row insertion ending at the given corner; returns (rest, letter)."""
    r, c = cell
    sh = shape(tab)
    if not (1 <= r <= len(sh) and sh[r - 1] == c and (r == len(sh) or sh[r] < c)):
        raise ValueError(f"({r},{c}) is not a removable corner of {sh}")
    rows = [list(row) for row in tab]
    current = rows[r - 1].pop()
    for i in range(r - 2, -1, -1):
        row = rows[i]
        j = bisect_left(row, current) - 1
        if j < 0:
            raise ValueError("reverse row insertion fell off a row")
        row[j], current = current, row[j]
    return tuple(tuple(row) for row in rows if row), current


def reverse_column_insert(tab: Tableau, cell: tuple[int, int]) -> tuple[Tableau, int]:
    """Undo a column insertion ending at the given corner; returns (rest, letter)."""
    r, c = cell
    sh = shape(tab)
    if not (1 <= r <= len(sh) and sh[r - 1] == c and (r == len(sh) or sh[r] < c)):
        raise ValueError(f"({r},{c}) is not a removable corner of {sh}")
    rows = [list(row) for row in tab]
    current = rows[r - 1].pop()
    for col in range(c - 2, -1, -1):
        column = [row[col] for row in rows if len(row) > col]
        j = bisect_left(column, current) - 1
        if j < 0:
            raise ValueError("reverse column insertion fell off a column")
        rows[j][col], current = current, rows[j][col]
    return tuple(tuple(row) for row in rows if row), current


def rectify(word: Iterable[int]) -> Tableau:
    """The unique tableau whose reading word is Knuth equivalent to word."""
    return rectify_lowered(as_word(word, "word"), 0)


def rectify_lowered(word: Iterable[int], m: int) -> Tableau:
    """rectify of the letters of word above m, each lowered by m; word is not checked."""
    rows: list[list[int]] = []
    for x in word:
        if x > m:
            row_insert_into(rows, x - m)
    return tuple(map(tuple, rows))


def conjugate_tableau(tab: Tableau) -> Tableau:
    """Rectify the reversed reading word; transposes standard tableaux."""
    return rectify(tuple(reversed(reading_word(as_standard(tab, "tab")))))


@memo_checked(int_parts)
def standard_tableaux(sh: Partition) -> tuple[Tableau, ...]:
    """All standard tableaux of the given shape, in a fixed order.

    Each is a tuple of row tuples built from its parent (the tableau without
    n) by replacing the one row that gains n, so every other row object is
    the parent's own.
    """
    if not as_partition(sh, "sh"):  # the part order, on a miss
        return ((),)
    n = sum(sh)
    out: list[Tableau] = []
    for r in range(len(sh)):
        if r + 1 < len(sh) and sh[r] == sh[r + 1]:
            continue
        smaller = tuple(p for p in (sh[:r] + (sh[r] - 1,) + sh[r + 1 :]) if p)
        for sub in standard_tableaux(smaller):
            row = sub[r] + (n,) if r < len(sub) else (n,)
            out.append(sub[:r] + (row,) + sub[r + 1 :])
    return tuple(out)


def all_standard_tableaux(n: int) -> tuple[Tableau, ...]:
    out: list[Tableau] = []
    for sh in partitions_of(n):
        out.extend(standard_tableaux(sh))
    return tuple(out)


def column_strict_tableaux(weight: Partition) -> tuple[Tableau, ...]:
    """All column-strict tableaux of the given content.

    Generated as chains of horizontal strips: the cells holding each letter
    form a horizontal strip over the cells of the smaller letters.
    """
    weight = as_partition(weight, "weight")
    results: list[Tableau] = []

    def extend(level: int, current: Partition, rows: list[list[int]]) -> None:
        if level == len(weight):
            results.append(tuple(tuple(row) for row in rows))
            return
        for bigger in horizontal_strips(current, weight[level]):
            grown = [list(row) for row in rows]
            for i, length in enumerate(bigger):
                if i >= len(grown):
                    grown.append([])
                grown[i].extend([level + 1] * (length - len(grown[i])))
            extend(level + 1, bigger, grown)

    extend(0, (), [])
    return tuple(results)


@memo_checked(int_parts)
def charge_table(weight: Partition) -> Mapping[Partition, QTPoly]:
    """{lam: K_{lam,weight}(t)}, the sum of t^charge over the column-strict
    tableaux of shape lam and content weight, from one enumeration.

    The shapes come in `partitions_of` order; those with no tableau (the ones
    not dominating weight) are absent.  The mapping is read-only because the
    cache shares it.
    """
    charges: dict[Partition, dict[tuple[int, int], int]] = {}
    for tab in column_strict_tableaux(weight):  # checks weight, on a miss
        terms = charges.setdefault(shape(tab), {})
        key = (0, charge(reading_word(tab)))
        terms[key] = terms.get(key, 0) + 1
    return MappingProxyType(
        {lam: QTPoly(charges[lam]) for lam in partitions_of(sum(weight)) if lam in charges}
    )
