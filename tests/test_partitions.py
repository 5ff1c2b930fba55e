from fractions import Fraction
from math import comb

import pytest

from qtkostka._checks import int_parts
from qtkostka.partitions import (
    _add_snake,
    _border_walk,
    _conjugate,
    arm_leg,
    conjugate,
    dominance_leq,
    first_column_removed,
    first_row_removed,
    horizontal_strips,
    horizontal_strips_inside,
    is_horizontal_strip,
    is_partition,
    is_vertical_strip,
    linear_extension,
    parse_partition,
    partitions_of,
    remove_snake,
    snake_height,
    snake_involution,
    vertical_strips,
    vertical_strips_inside,
    weighted_size,
)


def test_parse_and_validate():
    assert parse_partition("5,4,2,2,1") == (5, 4, 2, 2, 1)
    assert parse_partition("") == ()
    assert is_partition((3, 3, 1))
    assert not is_partition((1, 2))
    assert not is_partition((2, 0))
    with pytest.raises(ValueError):
        parse_partition("2,x")
    with pytest.raises(ValueError):
        parse_partition("1,2")


def test_conjugate():
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
    assert conjugate(conjugate((5, 4, 2, 2, 1))) == (5, 4, 2, 2, 1)
    assert conjugate(()) == ()


def test_the_unchecked_conjugate_agrees_and_is_an_involution():
    for n in range(13):
        for lam in partitions_of(n):
            assert _conjugate(lam) == conjugate(lam)
            assert _conjugate(_conjugate(lam)) == lam


def test_arm_leg():
    # cell (1,1) of (3,2): arm 2, leg 1
    assert arm_leg((3, 2), 1, 1) == (2, 1)
    assert arm_leg((3, 2), 2, 2) == (0, 0)
    assert arm_leg((1,), 1, 1) == (0, 0)


def test_weighted_size():
    assert weighted_size(()) == 0
    assert weighted_size((4, 2, 1)) == 0 * 4 + 1 * 2 + 2 * 1
    assert weighted_size((1, 1, 1, 1)) == 6


def test_row_and_column_removal():
    assert first_row_removed((5, 4, 2)) == (4, 2)
    assert first_column_removed((5, 4, 2)) == (4, 3, 1)
    assert first_column_removed((1, 1)) == ()


@pytest.mark.parametrize("n", range(8))
def test_partitions_of_counts(n):
    counts = [1, 1, 2, 3, 5, 7, 11, 15]
    assert len(partitions_of(n)) == counts[n]
    assert all(is_partition(lam) and sum(lam) == n for lam in partitions_of(n))


def test_partitions_of_descending_lex():
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


def test_linear_extension_refines_dominance():
    for n in range(1, 8):
        order = linear_extension(n)
        assert sorted(order) == sorted(partitions_of(n))
        pos = {lam: i for i, lam in enumerate(order)}
        for lam in order:
            for mu in order:
                if lam != mu and dominance_leq(lam, mu):
                    assert pos[lam] < pos[mu]


def test_dominance():
    assert dominance_leq((2, 2), (3, 1))
    assert not dominance_leq((3, 1), (2, 2))
    assert dominance_leq((2, 2, 1), (3, 1, 1))
    # first incomparable pair appears at n = 6
    assert not dominance_leq((3, 1, 1, 1), (2, 2, 2))
    assert not dominance_leq((2, 2, 2), (3, 1, 1, 1))
    with pytest.raises(ValueError):
        dominance_leq((2,), (1,))


def test_strips_outer():
    assert set(horizontal_strips((1,), 2)) == {(3,), (2, 1)}
    assert set(vertical_strips((1,), 2)) == {(2, 1), (1, 1, 1)}
    for outer in horizontal_strips((2, 1), 3):
        assert sum(outer) == 6
    assert horizontal_strips((), 0) == ((),)


def test_strips_inside():
    assert set(horizontal_strips_inside((2, 2), 1)) == {(2, 1)}
    assert set(vertical_strips_inside((2, 2), 1)) == {(2, 1)}
    assert set(horizontal_strips_inside((3, 1), 2)) == {(2,), (1, 1)}


def test_the_strip_walk_takes_any_number_of_rows():
    # the walk once recursed once per row, so 1200 rows raised RecursionError
    tall, wide = (1,) * 1200, (1200,)
    assert horizontal_strips(tall, 1) == ((1,) * 1201, (2,) + (1,) * 1199)
    assert vertical_strips(wide, 1) == ((1200, 1), (1201,))
    assert horizontal_strips_inside(tall, 1) == ((1,) * 1199,)


# every n up to 8 in Tier-1, and 9..12 in the slow tier
BRUTE_FORCE_SIZES = [n if n < 9 else pytest.param(n, marks=pytest.mark.slow) for n in range(13)]


def _check_by_brute_force(n, is_strip, outside, inside):
    # every (lam, k) against a filter over all partitions of n + k and n - k,
    # order included
    for lam in partitions_of(n):
        for k in range(-1, n + 3):
            outer = tuple(sorted(mu for mu in partitions_of(n + k) if is_strip(mu, lam)))
            inner = tuple(sorted(nu for nu in partitions_of(n - k) if is_strip(lam, nu)))
            assert outside(lam, k) == outer, (lam, k)
            assert inside(lam, k) == inner, (lam, k)


@pytest.mark.parametrize("n", BRUTE_FORCE_SIZES)
def test_vertical_strips_match_brute_force(n):
    _check_by_brute_force(n, is_vertical_strip, vertical_strips, vertical_strips_inside)


@pytest.mark.parametrize("n", BRUTE_FORCE_SIZES)
def test_horizontal_strips_match_brute_force(n):
    _check_by_brute_force(n, is_horizontal_strip, horizontal_strips, horizontal_strips_inside)


def _one_cell_moved(lam, step):
    # every partition made from lam by adding step (1 or -1) to one row
    found = []
    for i in range(len(lam) + 1):
        row = list(lam) + [0]
        row[i] += step
        while row and row[-1] == 0:
            row.pop()
        if is_partition(tuple(row)):
            found.append(tuple(row))
    return sorted(found)


# k cells over the rows open to them, at most gap_i in row i: every gap here is
# at least k, but the staircase's, which are 1 (and the first row's, open).
# A walk over every row vector within the row bounds, kept or not, would visit
# 11^6 candidates at (50, 40, 30, 20, 10), k = 10, and 3^31 on the staircase:
# the walk must cut each row to the cells still left to place.
WIDE_SHAPES = [
    ((50, 40, 30, 20, 10), 1, 6, 5),
    ((50, 40, 30, 20, 10), 2, comb(7, 5), comb(6, 4)),
    ((50, 40, 30, 20, 10), 10, comb(15, 5), comb(14, 4)),
    ((12, 9, 6, 3), 1, 5, 4),
    ((12, 9, 6, 3), 2, comb(6, 4), comb(5, 3)),
    (tuple(range(30, 0, -1)), 2, comb(31, 2) + 1, comb(30, 2)),
]


@pytest.mark.parametrize("lam, k, outside, inside", WIDE_SHAPES)
def test_strips_of_wide_shapes(lam, k, outside, inside):
    # shapes too large for the brute force: each strip is checked on its own,
    # and a one-cell strip is an addable or a removable corner
    n = sum(lam)
    outer, inner = horizontal_strips(lam, k), horizontal_strips_inside(lam, k)
    for found in (outer, inner):
        assert list(found) == sorted(set(found))
    assert all(sum(mu) == n + k and is_horizontal_strip(mu, lam) for mu in outer)
    assert all(sum(nu) == n - k and is_horizontal_strip(lam, nu) for nu in inner)
    assert (len(outer), len(inner)) == (outside, inside)
    if k == 1:
        assert list(outer) == _one_cell_moved(lam, 1)
        assert list(inner) == _one_cell_moved(lam, -1)


def test_border_walk_length():
    for lam in partitions_of(6):
        walk = _border_walk(lam)
        assert len(walk) == lam[0] + len(lam) - 1


def test_remove_snake_examples():
    assert remove_snake((5, 4, 2, 2, 1), 4) == (3, 2, 2, 2, 1)
    assert remove_snake((5, 4, 2, 2, 1), 5) is None
    assert remove_snake((3,), 3) == ()
    assert remove_snake((2, 2), 3) == (1,)
    assert remove_snake((2, 2), 4) is None


def test_snake_height_and_add():
    assert snake_height((5, 4, 2, 2, 1), 4) == 2
    rho = (3, 2, 2, 2, 1)
    rebuilt = _add_snake(rho, 4, snake_height((5, 4, 2, 2, 1), 4))
    assert rebuilt == (5, 4, 2, 2, 1)


def test_add_remove_round_trip():
    for lam in partitions_of(7):
        for k in range(1, 8):
            core = remove_snake(lam, k)
            if core is None:
                continue
            assert _add_snake(core, k, snake_height(lam, k)) == lam


def test_snake_involution_examples():
    assert snake_involution((5, 5, 2), 10, (13, 5, 4)) == (12, 5, 5)
    assert snake_involution((5, 5, 2), 10, (12, 5, 5)) == (13, 5, 4)
    assert snake_involution((4, 2, 1), 5, (8, 3, 1)) == (7, 4, 1)
    assert snake_involution((4, 2, 1), 5, (7, 4, 1)) == (8, 3, 1)


def test_snake_involution_is_involution():
    # lam is the built shape; the flip fixes the snake complement of rho and
    # moves the snake height by one, pairing up the non-fixed rho exactly
    n = 4
    for lam in partitions_of(5):
        for rho in horizontal_strips(lam, n):
            core = remove_snake(rho, n)
            if core is None or core == lam:
                continue
            try:
                flipped = snake_involution(lam, n, rho)
            except RuntimeError:
                # no partner at either neighbouring height; such pairs never
                # arise from a built tableau, so nothing needs cancelling
                continue
            assert flipped != rho
            assert sum(flipped) == sum(lam) + n
            assert remove_snake(flipped, n) == core
            assert snake_involution(lam, n, flipped) == rho
            assert abs(snake_height(rho, n) - snake_height(flipped, n)) == 1


def test_int_parts_checks_the_type_of_each_part():
    assert int_parts([3, 1]) == (3, 1)
    assert int_parts(()) == ()
    for parts in [(True,), (1.0,), (2, False), (Fraction(2), 1)]:
        with pytest.raises(ValueError, match="is not a partition"):
            int_parts(parts)


def test_is_partition_wants_int_parts():
    # True and 1.0 compare equal to 1 but are not parts
    for parts in [(True,), (1.0,), (2, True), (2.0, 1), (True, True)]:
        assert not is_partition(parts)
    assert is_partition((2, 1)) and is_partition(())
