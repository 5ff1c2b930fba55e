"""Integer partitions and their diagram combinatorics.

Partitions are tuples of weakly decreasing positive integers with no
trailing zeros; the empty tuple is the unique partition of 0.  Diagrams
are drawn in French notation (row 1 is the longest row, at the bottom)
and cells are addressed by 1-based (row, column) pairs.  `classify_shape`
sorts a partition into the supported shape families.
"""

from __future__ import annotations

from typing import Optional

from ._cache import memo, memo_checked
from ._checks import as_int, as_partition, int_parts, is_partition

Partition = tuple[int, ...]
_Cell = tuple[int, int]


def parse_partition(text: str) -> Partition:
    """Parse a comma-separated partition; the empty string is empty."""
    text = text.strip()
    if not text:
        return ()
    try:
        parts = tuple(int(piece) for piece in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse partition from {text!r}") from None
    return as_partition(parts, "parts")


def format_partition(lam: Partition) -> str:
    return ",".join(str(p) for p in as_partition(lam, "lam"))


def part(lam: Partition, i: int) -> int:
    """The i-th part (1-based), zero beyond the last row."""
    return lam[i - 1] if 1 <= i <= len(lam) else 0


def conjugate(lam: Partition) -> Partition:
    lam = as_partition(lam, "lam")
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= c) for c in range(1, lam[0] + 1))


def contains(outer: Partition, inner: Partition) -> bool:
    return all(part(outer, i + 1) >= p for i, p in enumerate(inner))


def arm_leg(mu: Partition, row: int, col: int) -> tuple[int, int]:
    """Arm (cells strictly east) and leg (strictly north) of a cell of mu."""
    if not (1 <= row <= len(mu) and 1 <= col <= mu[row - 1]):
        raise ValueError(f"cell ({row},{col}) is not in {mu}")
    arm = mu[row - 1] - col
    leg = sum(1 for r in range(row, len(mu)) if mu[r] >= col)
    return arm, leg


def weighted_size(mu: Partition) -> int:
    """The statistic n(mu) = sum over rows of (row index - 1) * part."""
    return sum(i * p for i, p in enumerate(mu))


def first_row_removed(lam: Partition) -> Partition:
    return lam[1:]


def first_column_removed(lam: Partition) -> Partition:
    return tuple(p - 1 for p in lam if p > 1)


def is_horizontal_strip(outer: Partition, inner: Partition) -> bool:
    """True when outer/inner has at most one cell in each column."""
    if not contains(outer, inner):
        return False
    return all(part(outer, i + 2) <= part(inner, i + 1) for i in range(len(outer)))


def is_vertical_strip(outer: Partition, inner: Partition) -> bool:
    """True when outer/inner has at most one cell in each row."""
    if not contains(outer, inner):
        return False
    return all(part(outer, i + 1) - part(inner, i + 1) <= 1 for i in range(len(outer)))


def _strip_size(k: int) -> int:
    return as_int(k, "strip size k")


# The strip enumerators run int_parts on lam and check k before their table
# lookup, and check that lam is a partition on a miss (conjugate checks it
# for the vertical ones).


@memo_checked(int_parts, _strip_size)
def horizontal_strips(lam: Partition, k: int) -> tuple[Partition, ...]:
    """All mu with mu/lam a horizontal strip of size k, lexicographic order."""
    as_partition(lam, "lam")
    if k < 0:
        return ()
    rows = len(lam) + 1
    found: list[Partition] = []

    def grow(i: int, prev: int, left: int, acc: list[int]) -> None:
        if i == rows:
            if left == 0:
                found.append(tuple(p for p in acc if p > 0))
            return
        low = lam[i] if i < len(lam) else 0
        high = min(prev, low + left)
        if i > 0:
            high = min(high, lam[i - 1])
        for val in range(low, high + 1):
            acc.append(val)
            grow(i + 1, val, left - (val - low), acc)
            acc.pop()

    grow(0, (lam[0] if lam else 0) + k, k, [])
    return tuple(sorted(found))


@memo_checked(int_parts, _strip_size)
def vertical_strips(lam: Partition, k: int) -> tuple[Partition, ...]:
    """All mu with mu/lam a vertical strip of size k, lexicographic order."""
    return tuple(sorted(conjugate(mu) for mu in horizontal_strips(conjugate(lam), k)))


@memo_checked(int_parts, _strip_size)
def horizontal_strips_inside(mu: Partition, k: int) -> tuple[Partition, ...]:
    """All lam with mu/lam a horizontal strip of size k, lexicographic order."""
    as_partition(mu, "mu")
    if k < 0:
        return ()
    found: list[Partition] = []

    def shrink(i: int, left: int, acc: list[int]) -> None:
        if i == len(mu):
            if left == 0:
                found.append(tuple(p for p in acc if p > 0))
            return
        low = max(part(mu, i + 2), mu[i] - left)
        for val in range(low, mu[i] + 1):
            acc.append(val)
            shrink(i + 1, left - (mu[i] - val), acc)
            acc.pop()

    shrink(0, k, [])
    return tuple(sorted(found))


@memo_checked(int_parts, _strip_size)
def vertical_strips_inside(mu: Partition, k: int) -> tuple[Partition, ...]:
    """All lam with mu/lam a vertical strip of size k, lexicographic order."""
    return tuple(sorted(conjugate(lam) for lam in horizontal_strips_inside(conjugate(mu), k)))


def _border_walk(mu: Partition) -> list[_Cell]:
    """Cells of the border mu / mu^rc, walked from (1, mu_1) to the top left.

    The walk starts at the right end of the bottom row and follows the rim
    cell by cell; consecutive cells share an edge.
    """
    cells: list[_Cell] = []
    for r in range(1, len(mu) + 1):
        low = mu[r] if r < len(mu) else 1
        for c in range(mu[r - 1], low - 1, -1):
            cells.append((r, c))
    return cells


def snake_height(mu: Partition, k: int) -> int:
    """Number of distinct rows met by the first k cells of the border walk."""
    walk = _border_walk(mu)
    if not 1 <= k <= len(walk):
        raise ValueError(f"k={k} outside the border of {mu} (size {len(walk)})")
    return len({r for r, _ in walk[:k]})


def remove_snake(mu: Partition, k: int) -> Optional[Partition]:
    """Remove the first k border cells; None when the rest is not a partition."""
    if k == 0:
        return mu
    walk = _border_walk(mu)
    if not 1 <= k <= len(walk):
        return None
    rows = list(mu)
    for r, _ in walk[:k]:
        rows[r - 1] -= 1
    while rows and rows[-1] == 0:
        rows.pop()
    cand = tuple(rows)
    return cand if is_partition(cand) else None


def _add_snake(rho: Partition, k: int, h: int) -> Optional[Partition]:
    """Extend rho by a k-cell snake of height h; None when not a partition.

    The result is (rho_h + k - h + 1, rho_1 + 1, ..., rho_{h-1} + 1,
    rho_{h+1}, rho_{h+2}, ...).
    """
    if h < 1 or k < h:
        raise ValueError(f"need 1 <= h <= k, got k={k}, h={h}")
    first = part(rho, h) + k - h + 1
    middle = [part(rho, i) + 1 for i in range(1, h)]
    tail = list(rho[h:])
    cand = tuple([first] + middle + tail)
    return cand if is_partition(cand) else None


def snake_involution(lam: Partition, n: int, rho: Partition) -> Partition:
    """The snake flip of rho over lam: rebuilds the n-snake one row taller or
    shorter, fixing the removed shape.  Involutive away from its fixed locus.
    """
    if sum(rho) != sum(lam) + n:
        raise ValueError("rho must extend lam by n cells")
    if not is_horizontal_strip(rho, lam):
        raise ValueError(f"{rho}/{lam} is not a horizontal strip")
    gamma = remove_snake(rho, n)
    if gamma is None:
        raise ValueError(f"{rho} has no {n}-snake complement")
    if gamma == lam:
        raise ValueError("rho is fixed: lam equals the snake complement")
    h = snake_height(rho, n)
    if part(lam, h) > part(gamma, h):
        flipped = _add_snake(gamma, n, h + 1)
    else:
        flipped = _add_snake(gamma, n, h - 1)
    if flipped is None:
        raise RuntimeError(f"snake flip failed for lam={lam}, n={n}, rho={rho}")
    return flipped


class UnsupportedShapeError(ValueError):
    """Raised for partitions outside the supported shape families."""


def classify_shape(mu: Partition) -> tuple:
    """Sort mu into a direct family ("direct", m, a, b) or ("conjugate", nu).

    Direct families: m=2 covers mu = (2^a 1^b); m=3 and m=4 cover
    (m, 2^a, 1^b).  A shape is conjugate-supported when its transpose is
    direct.  Everything else raises UnsupportedShapeError.
    """
    mu = as_partition(mu, "mu")
    direct = _direct_family(mu)
    if direct is not None:
        return ("direct",) + direct
    nu = conjugate(mu)
    if _direct_family(nu) is not None:
        return ("conjugate", nu)
    raise UnsupportedShapeError(
        f"shape ({format_partition(mu)}) has no vertex-operator route"
    )


def _direct_family(mu: Partition) -> Optional[tuple[int, int, int]]:
    if all(p <= 2 for p in mu):
        return (2, mu.count(2), mu.count(1))
    rest = mu[1:]
    if mu[0] in (3, 4) and all(p <= 2 for p in rest):
        return (mu[0], rest.count(2), rest.count(1))
    return None


def partitions_of(n: int) -> tuple[Partition, ...]:
    """Partitions of n in descending lexicographic order; none when n < 0."""
    return _partitions_of(as_int(n, "n"))


@memo
def _partitions_of(n: int) -> tuple[Partition, ...]:
    def gen(m: int, cap: int):
        if m == 0:
            yield ()
            return
        for p in range(min(m, cap), 0, -1):
            for rest in gen(m - p, p):
                yield (p,) + rest

    return tuple(gen(n, n)) if n >= 0 else ()


def linear_extension(n: int) -> tuple[Partition, ...]:
    """A linear order refining dominance, smallest partition first."""
    return tuple(reversed(partitions_of(n)))


def dominance_leq(lam: Partition, mu: Partition) -> bool:
    """True when lam <= mu in dominance order (equal sizes required)."""
    lam, mu = as_partition(lam, "lam"), as_partition(mu, "mu")
    if sum(lam) != sum(mu):
        raise ValueError("dominance compares partitions of equal size")
    total_l = total_m = 0
    for i in range(max(len(lam), len(mu))):
        total_l += part(lam, i + 1)
        total_m += part(mu, i + 1)
        if total_l > total_m:
            return False
    return True
