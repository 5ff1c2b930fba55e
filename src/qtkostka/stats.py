"""Standard-tableau statistics that expand the Macdonald functions.

Every supported H_mu[X;q,t] is a sum of q^b t^a s_shape over standard
tableaux: the t-exponent is a shifted charge, the q-exponent counts
vertical dominoes plus a head offset.  The machinery here builds and
unbuilds the block structure behind those statistics: row block insertion
and its inverse (the column versions are their transposes), prefix
deletion, types, and the sign-reversing pair involution used in the
cancellation argument.  Every public function that takes a tableau rejects
one that is not standard.

`stat_genfun`, `head_genfun` and `unimodal_profile` read one table of counts
per mu, filled by one walk over the Young lattice (`_stat_counts`).  The
walk adds labels 1..n-1 a cell at a time and carries each tableau's charge
and its reduced tableau, which grows a cell a step by one row insertion
into a small key tableau; single labels never enter it.  Label n then
takes every outer corner in one loop: its key is followed only to the row
where it lands in the reduced tableau, and the type is read from an entry
kept per (reduced tableau, row).  No tableau is enumerated, stored,
rectified or charged on its own.
`full_type` and `stat_pair` type and charge one given tableau by Table 1's
rule; the walk calls them once per shape to check itself.

Table 1 (`HEAD_TABLE`) is the one source of the head rule: `_reduced` and
`_steps` read its prefix h and block mm, and the walk's words follow `_steps`.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import repeat
from typing import Iterable, Optional, Sequence

from ._cache import memo
from ._checks import as_int, as_partition, as_standard
from .partitions import (
    Partition,
    UnsupportedShapeError,
    _conjugate,
    _direct_family,
    _partitions_of,
    classify_shape,
    contains,
    first_column_removed,
    first_row_removed,
    is_horizontal_strip,
    is_vertical_strip,
    part,
    remove_snake,
    snake_involution,
)
from .qtpoly import QTPoly
from .schur import SchurExpansion
from .tableaux import (
    Tableau,
    _conjugate_tableau,
    _format_tableau,
    charge,
    column_insert_into,
    is_standard,
    reading_word,
    rectify_lowered,
    reverse_column_insert,
    reverse_row_insert,
    row_insert_into,
    shape,
)

# (alpha, beta, (prefix h, block mm), gamma) per head.  The size-4 block is
# Table 1 verbatim; the two size-3 bent heads carry the alpha values forced
# by the statistic propositions (the printed table swaps them).
HEAD_TABLE: dict[Tableau, tuple[int, int, tuple[int, int], int]] = {
    ((1, 2, 3),): (3, 2, (0, 3), 0),
    ((1, 3), (2,)): (1, 1, (1, 2), 1),
    ((1, 2), (3,)): (2, 1, (1, 2), 2),
    ((1,), (2,), (3,)): (0, 0, (0, 3), 3),
    ((1, 2, 3, 4),): (6, 3, (0, 4), 0),
    ((1, 3, 4), (2,)): (3, 2, (1, 3), 1),
    ((1, 2, 4), (3,)): (4, 2, (2, 2), 2),
    ((1, 2, 3), (4,)): (5, 2, (2, 2), 3),
    ((1, 2), (3, 4)): (4, 2, (2, 2), 2),
    ((1, 3), (2, 4)): (2, 1, (2, 2), 4),
    ((1, 4), (2,), (3,)): (1, 1, (2, 2), 3),
    ((1, 3), (2,), (4,)): (2, 1, (2, 2), 4),
    ((1, 2), (3,), (4,)): (3, 1, (1, 3), 5),
    ((1,), (2,), (3,), (4,)): (0, 0, (0, 4), 6),
}


class TypeSequence:
    """Full type of a standard tableau: optional head, then H/V/S letters.
    Immutable: equal types hash alike, and no field can be assigned."""

    __slots__ = ("head", "blocks")
    head: Optional[Tableau]
    blocks: tuple[str, ...]

    def __init__(self, head: Optional[Tableau], blocks: tuple[str, ...]):
        if head is not None and head not in HEAD_TABLE:
            raise ValueError(f"{head} is not a head tableau")
        bad = [x for x in blocks if x not in ("H", "V", "S")]
        if bad:
            raise ValueError(f"unknown block letters {bad}")
        text = "".join(blocks)
        if "S" in text and set(text[text.index("S") :]) != {"S"}:
            raise ValueError("singles must follow all dominoes")
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "blocks", blocks)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.head, self.blocks) == (other.head, other.blocks)

    def __hash__(self):
        return hash((self.head, self.blocks))

    def __repr__(self):
        return f"TypeSequence(head={self.head!r}, blocks={self.blocks!r})"

    def __reduce__(self):
        return TypeSequence, (self.head, self.blocks)

    def text(self) -> str:
        letters = ",".join(self.blocks)
        if self.head is None:
            return letters
        return f"({_format_tableau(self.head)})|{letters}"


def _size(tab: Tableau) -> int:
    return sum(map(len, tab))


def _standard(tab: Tableau, name: str = "tab") -> Tableau:
    """tab as a tuple of tuples, once it is a standard tableau."""
    as_standard(tab, name)
    if type(tab) is tuple and {tuple}.issuperset(map(type, tab)):
        return tab
    return tuple(map(tuple, tab))


def _lower(rows: Iterable[Sequence[int]], m: int) -> Tableau:
    if min(map(min, filter(None, rows)), default=m + 1) <= m:
        raise ValueError(f"cannot lower labels by {m}: some label too small")
    return tuple([tuple([x - m for x in row]) for row in rows])


def head_tableau(tab: Tableau, m: int) -> Tableau:
    """The sub-tableau on labels 1..m of a standard tableau (always of partition shape)."""
    as_int(m, "m", 0)
    tab = _standard(tab)
    if _size(tab) < m:
        raise ValueError(f"tableau has fewer than {m} cells")
    return _head_tableau(tab, m)


def _head_tableau(tab: Tableau, m: int) -> Tableau:
    sub = []
    for row in tab:
        k = bisect_right(row, m)  # rows increase, so the labels <= m are a prefix
        if not k:
            break
        sub.append(row[:k])
    return tuple(sub)


def delete_prefix(h: int, tab: Tableau) -> Tableau:
    """Remove labels 1..h of a standard tableau and lower the rest, staying
    in the Knuth class."""
    as_int(h, "prefix length h", 0)
    tab = _standard(tab)
    if _size(tab) < h:
        raise ValueError(f"tableau has fewer than {h} cells")
    return _close_up("read", h, tab)


def unbuild(m: int, tab: Tableau) -> Tableau:
    """Strip the row block 1..m (or the column block) and close up the rest."""
    as_int(m, "block size m", 2)
    tab = _standard(tab)
    if _size(tab) < m:
        raise ValueError(f"tableau has fewer than {m} cells")
    return _unbuild(m, tab)


def _unbuild(m: int, tab: Tableau) -> Tableau:
    # In a standard tableau, m at the end of a block means 1..m fill the block.
    if len(tab[0]) >= m and tab[0][m - 1] == m:
        return _close_up("row", m, tab)
    if len(tab) >= m and tab[m - 1][0] == m:
        return _close_up("col", m, tab)
    raise ValueError(f"labels 1..{m} form neither a first-row nor first-column block")


def _close_up(kind: str, m: int, tab: Tableau) -> Tableau:
    """The row-insertion rectification, lowered by m, of the labels > m of tab
    read as a "read" word (the reading word: this deletes the prefix m), a
    "row" word (the first row, then the reading word of the rows above it) or
    a "col" word (the reading word of tab without its first column, then the
    first column from the top down)."""
    # Column-inserting x into P(w) gives P(x w) and row-inserting gives P(w x),
    # so the insertions that close up the rest after a block is taken off are
    # one rectification.
    if kind == "read":
        if not m:  # a tableau is the rectification of its own reading word
            return tab
        word = reading_word(tab)
    elif kind == "row":
        word = tab[0] + reading_word(tab[1:])
    else:
        word = [x for row in reversed(tab) for x in row[1:]]
        word += [row[0] for row in reversed(tab)]
    return rectify_lowered(word, m)


def _strip_cells(outer: Partition, inner: Partition) -> list[tuple[int, int]]:
    return [
        (r, c)
        for r in range(1, len(outer) + 1)
        for c in range(part(inner, r) + 1, part(outer, r) + 1)
    ]


def _block_args(m: int, rho: Partition, tab: Tableau, name: str) -> tuple[int, Partition, Tableau]:
    """(m, rho, tab) once m is an int >= 1, rho a partition and tab a standard tableau,
    as a tuple of tuples."""
    return as_int(m, "block size m", 1), as_partition(rho, "rho"), _standard(tab, name)


def add_row_block(m: int, rho: Partition, tab: Tableau) -> Tableau:
    """Build a bigger tableau whose smallest m labels form a first-row block,
    steered by the shape rho."""
    return _add_row_block(*_block_args(m, rho, tab, "tab"))


def _add_row_block(m: int, rho: Partition, tab: Tableau) -> Tableau:
    n = _size(tab)
    lam = shape(tab)
    if sum(rho) != 2 * n + m:
        raise ValueError(f"|rho| must be {2 * n + m}, got {sum(rho)}")
    if not (contains(rho, lam) and is_horizontal_strip(rho, lam)):
        raise ValueError(f"{rho}/{lam} is not a horizontal strip")
    anchor = first_row_removed(rho)
    cells = sorted(_strip_cells(lam, anchor), key=lambda rc: -rc[1])
    work, ejected = tab, []
    for cell in cells:
        work, letter = reverse_column_insert(work, cell)
        ejected.append(letter)
    if ejected != sorted(ejected):
        raise RuntimeError(f"evacuation of {tab} against {rho} not increasing")
    rows = [[x + m for x in row] for row in work]
    for x in range(1, m + 1):
        row_insert_into(rows, x)
    for x in ejected:
        row_insert_into(rows, x + m)
    return tuple(map(tuple, rows))


def inverse_row_block(m: int, rho: Partition, built: Tableau) -> Tableau:
    """Recover T from add_row_block(m, rho, T) = built."""
    return _inverse_row_block(*_block_args(m, rho, built, "built"))


def _inverse_row_block(m: int, rho: Partition, built: Tableau) -> Tableau:
    size = _size(built)
    if sum(rho) != 2 * (size - m) + m:
        raise ValueError(f"|rho| must be {2 * (size - m) + m}, got {sum(rho)}")
    lam = shape(built)
    anchor = first_row_removed(rho)
    if not contains(lam, anchor):
        raise ValueError(f"{lam} does not contain {anchor}")
    cells = sorted(_strip_cells(lam, anchor), key=lambda rc: -rc[1])
    work, popped = built, []
    for cell in cells:
        work, letter = reverse_row_insert(work, cell)
        popped.append(letter)
    letters = popped[::-1]
    if letters[:m] != list(range(1, m + 1)):
        raise ValueError(f"{built} was not built over {rho}: block 1..{m} missing")
    rows = [list(row) for row in _lower(work, m)]
    for x in reversed(letters[m:]):
        column_insert_into(rows, x - m)
    return tuple(map(tuple, rows))


def add_col_block(m: int, rho: Partition, tab: Tableau) -> Tableau:
    """Transpose of add_row_block: the smallest m labels end up as a
    first-column block."""
    m, rho, tab = _block_args(m, rho, tab, "tab")
    n = _size(tab)
    lam = shape(tab)
    if sum(rho) != 2 * n + m:
        raise ValueError(f"|rho| must be {2 * n + m}, got {sum(rho)}")
    if not (contains(rho, lam) and is_vertical_strip(rho, lam)):
        raise ValueError(f"{rho}/{lam} is not a vertical strip")
    return _conjugate_tableau(_add_row_block(m, _conjugate(rho), _conjugate_tableau(tab)))


def inverse_col_block(m: int, rho: Partition, built: Tableau) -> Tableau:
    """Recover T from add_col_block(m, rho, T) = built, by transposing inverse_row_block."""
    m, rho, built = _block_args(m, rho, built, "built")
    size = _size(built)
    if sum(rho) != 2 * (size - m) + m:
        raise ValueError(f"|rho| must be {2 * (size - m) + m}, got {sum(rho)}")
    lam = shape(built)
    anchor = first_column_removed(rho)
    if not contains(lam, anchor):
        raise ValueError(f"{lam} does not contain {anchor}")
    try:
        rest = _inverse_row_block(m, _conjugate(rho), _conjugate_tableau(built))
    except ValueError:
        # past the checks above, any failure means built did not come from rho
        raise ValueError(f"{built} was not built over {rho}: block 1..{m} missing") from None
    return _conjugate_tableau(rest)


def _domino_tail(tab: Tableau, dominoes: int, seen: dict) -> tuple[str, ...]:
    """One H/V letter per unbuilt domino of a standard tableau.  seen keeps the
    tail of each tableau met, for as long as its caller keeps seen: one walk,
    or one typing.  Each caller's tableaux of one size take one domino count."""
    # Keys are what is left after the first domino or the head is taken off,
    # so many tableaux of one size share each entry.
    if not dominoes:
        return ()
    tail = seen.get(tab)
    if tail is None:
        letter = "H" if tab[0][1:2] == (2,) else "V"  # 2 sits right of 1 or above it
        tail = seen[tab] = (letter,) + _domino_tail(_unbuild(2, tab), dominoes - 1, seen)
    return tail


def type_two_col(tab: Tableau, dominoes: int) -> TypeSequence:
    """The (2^a 1^b) type: one H/V letter per unbuilt domino, then singles."""
    tab = _standard(tab)
    if 2 * as_int(dominoes, "dominoes", 0) > _size(tab):
        raise ValueError(f"cannot take {dominoes!r} dominoes out of {_size(tab)} cells")
    return _type_of(2, dominoes, tab)


def _direct_parts(mu: Partition) -> tuple[int, int, int]:
    kind = classify_shape(mu)
    if kind[0] != "direct":
        raise UnsupportedShapeError(
            f"statistics are defined for the row families only, not {mu}"
        )
    return kind[1], kind[2], kind[3]


def _checked(mu: Partition, tab: Tableau) -> tuple[int, int, int, Tableau]:
    """(m, a, b, tab) for mu = (m, 2^a, 1^b), once tab is a standard tableau of
    size |mu|; tab comes back as a tuple of tuples."""
    tab = _standard(tab)  # first, so a refused tab reaches no table
    m, a, b = _direct_parts(mu)  # classify_shape checks mu before sum(mu) reads it
    if _size(tab) != sum(mu):
        raise ValueError(f"|T| = {_size(tab)} but |mu| = {sum(mu)}")
    return m, a, b, tab


def full_type(mu: Partition, tab: Tableau) -> TypeSequence:
    """type_mu(T): for m in {3,4} the head plus the type of the reduced tableau."""
    m, a, _, tab = _checked(tuple(mu), tab)
    return _type_of(m, a, tab)


def _head_size(m: int, a: int) -> int:
    """Labels 1..this are the head under (m, 2^a, 1^b); none when m = 2 and a = 0."""
    return m if m > 2 else 2 * (a > 0)


def _type_of(m: int, a: int, tab: Tableau) -> TypeSequence:
    """The type of a standard tableau under the shape (m, 2^a, 1^b)."""
    cut = _head_size(m, a)
    head, reduced = _reduced(cut, tab) if cut else ((), ())
    return _typed(m, a, _size(tab), head, reduced, {})


def _typed(m: int, a: int, n: int, head: Tableau, reduced: Tableau, seen: dict) -> TypeSequence:
    """The type of a standard T of size n under (m, 2^a, 1^b), from its head
    (labels 1.._head_size(m, a)) and the domino labels of its reduced
    tableau; the b singles, counted from n, m and a, follow.  seen is the
    caller's `_domino_tail` table."""
    singles = ("S",) * (n - 2 * a - (m if m > 2 else 0))
    if m > 2:
        return _type_sequence(head, _domino_tail(reduced, a, seen) + singles)
    if a:
        letter = "H" if len(head) == 1 else "V"
        return _type_sequence(None, (letter,) + _domino_tail(reduced, a - 1, seen) + singles)
    return _type_sequence(None, singles)


# The two heads whose reduced tableau, after Table 1's two steps, is no one
# close-up of T: the walk chains the two words for them.
_TWO_STEP_HEADS = {((1, 2, 4), (3,)), ((1, 3), (2,), (4,))}


def _steps(head: Tableau) -> tuple[int, str, int]:
    """(h, kind, mm) for a head, from Table 1: delete the prefix h, then take off
    the block mm, a first "row" when what is left of the head is one row, else a
    first "col".  The first domino of a (2^a 1^b) shape is (0, kind, 2)."""
    h, mm = HEAD_TABLE[head][2] if _size(head) > 2 else (0, 2)
    return h, "row" if len(_close_up("read", h, head)) == 1 else "col", mm


def _reduced(m: int, tab: Tableau) -> tuple[Tableau, Tableau]:
    """(head, reduced tableau) of a standard tableau under a head of size m, by
    Table 1: delete the prefix h, then take off the block mm ((0, 2) for a first
    domino).  `_unbuild` finds where the block lies, so no word kind is needed."""
    head = _head_tableau(tab, m)
    h, mm = HEAD_TABLE[head][2] if m > 2 else (0, 2)
    return head, _unbuild(mm, _close_up("read", h, tab))


@memo
def _type_sequence(head: Optional[Tableau], blocks: tuple[str, ...]) -> TypeSequence:
    return TypeSequence(head, blocks)


@memo
def _type_weights(a: int, b: int, ts: TypeSequence) -> tuple[int, int]:
    """(alpha + beta n + H weight, #V + gamma): a_mu(T) is charge(T) less the first."""
    n = 2 * a + b
    if ts.head is None:
        alpha = beta = gamma = 0
    else:
        alpha, beta, _, gamma = HEAD_TABLE[ts.head]
    h_weight = sum(
        (n + 1) - 2 * i for i, letter in enumerate(ts.blocks[:a], start=1) if letter == "H"
    )
    return alpha + beta * n + h_weight, ts.blocks.count("V") + gamma


def stat_pair(mu: Partition, tab: Tableau) -> tuple[int, int]:
    """(a_mu(T), b_mu(T)); q tracks b and t tracks a in the expansions."""
    m, a, b, tab = _checked(tuple(mu), tab)
    shift, stat_b = _type_weights(a, b, _type_of(m, a, tab))
    return charge(reading_word(tab)) - shift, stat_b  # tab is standard: no second check


_Counts = dict[Partition, dict[tuple[int, int], int]]  # shape -> (b, a) -> number of T


def _insert_key(keys: Tableau, x: int) -> tuple[Tableau, int]:
    """Row-insert x into the key tableau keys: (the grown key tableau, the row,
    from index 0, where its new cell lands)."""
    rows = list(keys)
    for r, row in enumerate(keys):
        j = bisect_right(row, x)
        if j == len(row):
            rows[r] = row + (x,)
            return tuple(rows), r
        rows[r] = row[:j] + (x,) + row[j + 1 :]
        x = row[j]
    rows.append((x,))
    return tuple(rows), len(keys)


def _word_key(word: str, r: int, c: int, width: int) -> int:
    """A number that orders the cell in row r, column c (both from 0) as a word
    of that kind reads it, for fewer than width cells: "read" is the reading
    word, and "row" and "col" are the words of `_close_up`."""
    if word == "col":  # each row less its first cell from the top down, then the first column
        return width * (width - 1 - r) + c if c else width * width + width - r
    if word == "row" and r == 0:  # row 0 first, then the rows above it from the top down
        return c
    return width * (width - r) + c


def _head_words(head: Tableau) -> tuple[tuple[str, int], ...]:
    """(word, labels dropped) for each row-insertion that takes the labels of a
    standard tableau with this head to its reduced tableau, one after another:
    the block word of `_steps`, after the reading word for a two-step head."""
    h, kind, mm = _steps(head)
    if head in _TWO_STEP_HEADS:
        return (("read", h), (kind, mm))
    return ((kind, h + mm),)


def _feed(words, keys: tuple, k: int, r: int, c: int, width: int) -> tuple[tuple, Optional[int]]:
    """(keys, row) once label k of T has gone into row r, column c: each word
    inserts the cell's key into its key tableau, and the cell that grows there
    is the cell the next word reads, or the row of R that takes a label; row is
    None when a word drops label k."""
    grown = list(keys)
    for i, (word, drop) in enumerate(words):
        if k <= drop:
            return tuple(grown), None
        k -= drop
        grown[i], r = _insert_key(keys[i], _word_key(word, r, c, width))
        c = len(grown[i][r]) - 1
    return tuple(grown), r


def _placed(tab: Tableau, r: int, x: int) -> Tableau:
    """tab with x put at the end of its row r (from index 0), or on a new row."""
    return tab[:r] + (tab[r] + (x,) if r < len(tab) else (x,),) + tab[r + 1 :]


def _landings(words, keys: tuple, cells, width: int) -> list[int]:
    """For each (row, column, ...) of cells, the row of R where the last label
    of T lands once it has gone into that cell: `_feed`'s insertions, each
    followed only as far as the row its new cell lands in, so that no key
    tableau or R is built.  With no words, the row of T."""
    found = []
    for r, c, _, _ in cells:
        for (word, _), tab in zip(words, keys):
            x = _word_key(word, r, c, width)
            r = 0
            for row in tab:  # row-insert x into tab, as _insert_key does
                c = bisect_right(row, x)
                if c == len(row):
                    break
                x = row[c]
                r += 1
            else:
                c = 0
        found.append(r)
    return found


def _check_walk(mu: Partition, tab: Tableau, ts: TypeSequence, a: int, b: int) -> None:
    """Raise unless the public full_type and stat_pair give tab what the walk carried."""
    if full_type(mu, tab) != ts or stat_pair(mu, tab) != (a, b):
        raise RuntimeError(
            f"the statistics walk gave {tab} the type {ts.text()} and (a, b) = {(a, b)} "
            f"under {mu}, but full_type and stat_pair disagree"
        )


@memo
def _stat_counts(
    mu: Partition,
) -> tuple[dict[Optional[Tableau], _Counts], dict[TypeSequence, dict[int, int]]]:
    """The number of standard T of size |mu| with each (b_mu, a_mu) by head and
    shape, and with each a_mu by type, from one depth-first walk over the
    Young lattice.  Only these counts are kept.

    The walk places labels 1, 2, ..., n - 1 one cell at a time.  Down each
    path it carries:
    - the charge of T: the index of k is that of k - 1, plus one when k sits
      in a row at or below the row of k - 1 (rows from index 0), and charge
      is the sum of the indices;
    - the place of T in `standard_tableaux` order, sum row(k) (n+1)^(k-1),
      so that types keep the order in which the per-tableau loop met them;
    - the head (labels 1..m, or the first domino of a (2^a 1^b) shape), and
      from it the words of `_head_words`, which `_steps` reads off Table 1;
    - the reduced tableau R, grown a cell a step while the labels are domino
      labels of R (up to n - b).  R is P(w) for the word w of those labels
      of T past the head, read in the head's `_close_up` order.  Since
      P(w) restricted to labels below k is P of w so restricted, and
      P(w) = Q(w^-1) for a standard word, R's next label lands in the row
      where row-inserting the new cell's position in that word
      (`_word_key`) into the carried key tableau ends (`_feed`).  The two
      heads in `_TWO_STEP_HEADS` chain two words, as `_reduced` chains
      two rectifications.  Each R is a node of a tree per head, found from
      its parent node by the row that takes its last label, so no R is
      built or hashed twice.
    Label n takes each outer corner of labels 1..n-1 in one loop, with the
    corners, shapes and places read from a table kept for the walk by the
    shape of labels 1..n-1.  `_landings` follows each corner's key only as
    far as the row where label n lands in R, and the parent node keeps, by
    that row, the record of the type that R with label n gives T through
    `_typed` (the walk's `_domino_tail` table) and `_type_weights`.  When mu has a
    single (b > 0), no label past n - b is a domino label of R.
    `_domino_tail` reads only where the domino labels sit, and a larger
    label moves none of them (R without it is P of the shorter word), so
    the singles never enter R: R is typed as it stands, every corner shares
    one record and no key is followed.  Each T then adds one to a count by
    type, shape and charge, which becomes the counts by (b, a) at the end,
    so no tableau is enumerated, stored, rectified or charged on its own.

    Once per shape the walk hands one tableau to the public `full_type` and
    `stat_pair` and raises if they disagree with what it carried.  They find
    the charge from the reading word and R by Table 1's two rectifications,
    with the block found in the tableau by `_unbuild` rather than taken from
    the word kind of `_steps`, so the check shares neither the carried charge
    nor the walk's words, and the benchmark's tracer still sees calls to them
    and to `charge`.
    """
    m, a, b = _direct_family(mu)  # each caller has checked mu by _direct_parts
    n = sum(mu)
    cut = _head_size(m, a)
    width = n + 1
    powers = [width**k for k in range(n + 1)]
    shape_list = _partitions_of(n)
    tails: dict[Tableau, tuple[str, ...]] = {}  # the walk's _domino_tail table
    # tally counts the T of each type, shape and charge under one int key:
    # the type's index times stride (its offset) + the shape's index times
    # span (its offset) + the charge
    span = width * width  # above any charge
    stride = span * len(shape_list)
    tally: dict[int, int] = {}
    unchecked = set(range(0, stride, span))  # the shape offsets not yet checked
    by_head: dict[Optional[Tableau], _Counts] = {}
    # type -> [first place, offset, type, shift, b, counts by shape of its head, {a: number of T}]
    records: dict[TypeSequence, list] = {}
    rows: list[list[int]] = []  # T, grown and shrunk in place
    # set when label cut is placed, for the tableaux below that head
    head: Tableau = ()
    words: tuple = ()
    shapes: _Counts = by_head.setdefault(None, {}) if m == 2 else {}
    # shape of labels 1..n-1 -> (row, column, place, shape offset) of each cell label n can take
    corners: dict[Partition, list[tuple[int, int, int, int]]] = {}

    def take_head() -> tuple[tuple, tuple]:
        """(keys, root node) once the head is in rows."""
        nonlocal head, words, shapes
        head = tuple(map(tuple, rows))
        words = _head_words(head)
        if m > 2:
            shapes = by_head.setdefault(head, {})
        keys = ((),) * len(words)
        for x, r, c in sorted((x, r, c) for r, row in enumerate(head) for c, x in enumerate(row)):
            keys = _feed(words, keys, x, r, c, width)[0]  # the words drop every head label
        return keys, ((), {})  # a node is (R, {row that takes the next label: node or record})

    def classify(reduced: Tableau) -> list:
        ts = _typed(m, a, n, head, reduced, tails)
        record = records.get(ts)
        if record is None:
            weights = _type_weights(a, b, ts)
            record = records[ts] = [float("inf"), len(records) * stride, ts, *weights, shapes, {}]
        return record

    def settle(node: tuple, row: int) -> list:
        # when b > 0, R holds the domino labels alone, which type T
        record = node[1][row] = classify(node[0] if b else _placed(node[0], row, n - cut))
        return record

    def headed(r: int) -> list:
        # label n = cut completes the head in row r, and R is empty
        if r == len(rows):
            rows.append([])
        rows[r].append(n)
        take_head()
        rows[r].pop()
        if not rows[r]:
            rows.pop()
        return classify(())

    def cells(parent: Partition) -> list[tuple[int, int, int, int]]:
        found = []
        for r in range(len(parent) + 1):
            c = parent[r] if r < len(parent) else 0
            if not r or c < parent[r - 1]:
                i = shape_list.index(parent[:r] + (c + 1,) + parent[r + 1 :])
                found.append((r, c, i * powers[n] + r * powers[n - 1], i * span))
        return found

    def finish(last: int, index: int, total: int, order: int, keys, node: tuple) -> None:
        # label n in each cell it can take beside labels 1..n-1 in rows
        parent = tuple(map(len, rows))
        corner = corners.get(parent)
        if corner is None:
            corner = corners[parent] = cells(parent)
        if n == cut:  # label n completes the head, so each T is its own head
            landings = [r for r, _, _, _ in corner]
            lands = {r: headed(r) for r in landings}
        else:  # when b > 0, label n is a single of R, and where it lands does not type T
            lands, landings = node[1], repeat(0) if b else _landings(words, keys, corner, width)
        total += index
        for (r, _, place, offset), row in zip(corner, landings):
            record = lands.get(row) or settle(node, row)
            charge = total + (r <= last)
            key = record[1] + offset + charge
            tally[key] = tally.get(key, 0) + 1
            place += order
            if place < record[0]:
                record[0] = place
            if offset in unchecked:
                unchecked.discard(offset)
                tab = _placed(tuple(map(tuple, rows)), r, n)
                _check_walk(mu, tab, record[2], charge - record[3], record[4])

    def grow(k: int, last: int, index: int, total: int, order: int, keys, node: tuple) -> None:
        if k == n:
            return finish(last, index, total, order, keys, node)
        height = len(rows)
        for r in range(height + 1):
            if r == height:
                c = 0
                rows.append([k])
            elif r and len(rows[r]) == len(rows[r - 1]):
                continue
            else:
                c = len(rows[r])
                rows[r].append(k)
            step = index + (r <= last)
            if k == cut:
                grown, child = take_head()
            elif cut < k <= n - b:  # a domino label of R
                grown, row = _feed(words, keys, k, r, c, width)
                child = node[1].get(row)
                if child is None:
                    child = node[1][row] = (_placed(node[0], row, k - cut), {})
            else:
                grown, child = keys, node
            grow(k + 1, r, step, total + step, order + r * powers[k - 1], grown, child)
            if c:
                rows[r].pop()
            else:
                rows.pop()

    if n:
        grow(1, -1, 0, 0, 0, (), ((), {}))
    else:  # the one tableau of size 0 has no cell for the walk to place
        record = classify(())
        _check_walk(mu, (), record[2], 0, 0)
        record[0], tally[0] = 0, 1
    del grow  # grow calls itself through this cell: free the walk's tables now, not at a gc
    listed = list(records.values())  # in the order of their offsets
    pairs: dict[tuple[int, int], tuple[int, int]] = {}  # one (b, a) object per value
    for key, number in tally.items():
        e, rest = divmod(key, stride)
        i, charge = divmod(rest, span)
        _, _, _, shift, stat_b, counts, by_a = listed[e]
        stat_a = charge - shift
        pair = pairs.setdefault((stat_b, stat_a), (stat_b, stat_a))
        bucket = counts.setdefault(shape_list[i], {})
        bucket[pair] = bucket.get(pair, 0) + number
        by_a[stat_a] = by_a.get(stat_a, 0) + number
    by_type = {record[2]: record[6] for record in sorted(listed)}  # by first place
    return by_head, by_type


def _expansion(tables: Iterable[_Counts], gamma: int = 0) -> SchurExpansion:
    """The sum of q^(b - gamma) t^a s_shape over the counts in tables."""
    total: _Counts = {}
    for counts in tables:
        for sh, bucket in counts.items():
            into = total.setdefault(sh, {})
            for (b, a), k in bucket.items():
                into[b - gamma, a] = into.get((b - gamma, a), 0) + k
    return SchurExpansion._of({sh: QTPoly._trusted(terms) for sh, terms in total.items()})


def stat_genfun(mu: Partition) -> SchurExpansion:
    """Sum of q^b_mu(T) t^a_mu(T) s_shape(T) over all standard T of size |mu|."""
    mu = tuple(mu)
    _direct_parts(mu)
    return _expansion(_stat_counts(mu)[0].values())


def head_genfun(mu: Partition, heads: tuple[Tableau, ...]) -> SchurExpansion:
    """Sum of q^(b_mu(T) - gamma) t^a_mu(T) s_shape(T) over standard T whose
    head lies in heads (all sharing one gamma)."""
    mu = tuple(mu)
    m, _, _ = _direct_parts(mu)
    if m == 2:
        raise ValueError(f"{mu} is of the form (2^a 1^b), which has no head")
    normal = []
    for S in heads:
        # every standard tableau of size 3 or 4 is a head
        if not is_standard(S) or _size(S) != m:
            raise ValueError(f"{S} is not a head tableau of size {m}")
        normal.append(tuple(map(tuple, S)))  # a tuple of tuples, as HEAD_TABLE keys are
    gammas = {HEAD_TABLE[S][3] for S in normal}
    if len(gammas) != 1:
        raise ValueError("heads must share a single gamma offset")
    by_head = _stat_counts(mu)[0]
    return _expansion((by_head[h] for h in by_head if h in normal), gammas.pop())


def _build_pair(n: int, m: int, tab: Tableau, rho: Partition) -> tuple:
    """(status, m, rho, T built over rho) of a build pair (T, rho), once its
    arguments are valid; an immaterial pair builds nothing."""
    as_int(n, "n", 0)
    m, rho, tab = _block_args(m, rho, tab, "tab")
    if _size(tab) != n:
        raise ValueError(f"|T| = {_size(tab)} but n = {n}")
    core = remove_snake(rho, n)
    if core is None:
        return "immaterial", m, rho, None
    built = _add_row_block(m, rho, tab)
    return "stable" if shape(built) == core else "unstable", m, rho, built


def classify_pair(n: int, m: int, tab: Tableau, rho: Partition) -> str:
    """stable / unstable / immaterial status of a build pair (T, rho)."""
    return _build_pair(n, m, tab, rho)[0]


def pair_involution(n: int, m: int, tab: Tableau, rho: Partition) -> tuple[Tableau, Partition]:
    """The sign-reversing involution on unstable pairs: flip the snake over the
    built shape and rebuild the tableau against the flipped steering shape."""
    status, m, rho, built = _build_pair(n, m, tab, rho)
    if status != "unstable":
        raise ValueError(f"pair is {status}; the involution needs an unstable pair")
    flipped = snake_involution(shape(built), n, rho)
    return _inverse_row_block(m, flipped, built), flipped


def is_unimodal(seq) -> bool:
    """Weakly increases to a peak, then weakly decreases."""
    values = list(seq)
    if not values:
        return True
    i = 0
    while i + 1 < len(values) and values[i] <= values[i + 1]:
        i += 1
    while i + 1 < len(values) and values[i] >= values[i + 1]:
        i += 1
    return i == len(values) - 1


def unimodal_profile(mu: Partition) -> dict[TypeSequence, tuple[int, ...]]:
    """Counts of standard tableaux by full type and a_mu value: for each type
    the sequence (A^0, A^1, ..., A^max)."""
    mu = tuple(mu)
    _direct_parts(mu)
    return {
        ts: tuple(counts.get(i, 0) for i in range(max(counts) + 1))
        for ts, counts in _stat_counts(mu)[1].items()
    }
