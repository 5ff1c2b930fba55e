import json
from bisect import bisect_right
from functools import cache
from itertools import permutations, product

import pytest

from qtkostka import InputError, cache_info
from qtkostka.partitions import partitions_of
from qtkostka.tableaux import (
    _content,
    _standard_charge,
    all_standard_tableaux,
    charge,
    column_insert,
    column_strict_tableaux,
    conjugate_tableau,
    format_tableau,
    is_standard,
    is_tableau,
    parse_tableau,
    reading_word,
    rectify,
    reverse_column_insert,
    reverse_row_insert,
    row_insert,
    shape,
    standard_subwords,
    standard_tableaux,
    tableau_charge,
)

T = parse_tableau


def test_parse_format_round_trip():
    text = "1,3,5,6/2,4"
    assert format_tableau(T(text)) == text
    assert T(text) == ((1, 3, 5, 6), (2, 4))
    assert shape(T(text)) == (4, 2)
    assert T("") == ()


def test_validity():
    assert is_tableau(T("1,1,2/2,3"))
    assert not is_tableau(((1, 2), (1, 3)))  # column repeats
    assert is_standard(T("1,3/2"))
    assert not is_standard(T("1,1,2/2,3"))
    with pytest.raises(ValueError):
        T("1,2/1,3")


def test_reading_word():
    # rows read top to bottom, bottom row last
    assert reading_word(T("1,3,5,6/2,4")) == (2, 4, 1, 3, 5, 6)
    assert reading_word(()) == ()


def test_content():
    assert _content((2, 1, 1, 3, 2)) == (2, 2, 1)
    assert _content(()) == ()


def test_standard_subwords_example():
    word = (7, 3, 4, 6, 2, 2, 3, 5, 1, 1, 1, 2, 4, 8)
    subs = standard_subwords(word)
    assert sorted(subs) == sorted([(7, 3, 6, 2, 5, 1, 4, 8), (4, 2, 3, 1), (1, 2)])
    assert [charge(s) for s in subs] == [6, 2, 1]


def test_charge():
    word = (7, 3, 4, 6, 2, 2, 3, 5, 1, 1, 1, 2, 4, 8)
    assert charge(word) == 9
    assert charge(()) == 0
    assert charge((1, 2, 3)) == 3
    assert charge((3, 2, 1)) == 0
    # charge of the reading word of the unique row tableau is maximal
    assert tableau_charge(T("1,2,3,4")) == 6
    assert tableau_charge(T("1/2/3/4")) == 0
    with pytest.raises(ValueError):
        charge((2, 2, 1))  # content (1,2) is not a partition


def test_row_insert():
    tab = T("1,3,5,6/2,4")
    assert row_insert(tab, 4) == ((1, 3, 4, 6), (2, 4, 5))
    assert row_insert((), 2) == ((2,),)


def test_column_insert():
    # bumped entries move to the next column, settling at the lowest slot
    assert column_insert(T("1,3/2"), 1) == ((1, 1, 3), (2,))
    assert column_insert(T("1,3/2"), 4) == ((1, 3), (2,), (4,))
    assert column_insert(T("1,3/2"), 2) == ((1, 2, 3), (2,))
    assert column_insert((), 5) == ((5,),)


def test_reverse_row_insert():
    tab = T("1,3,5,6/2,4")
    bigger = row_insert(tab, 4)
    rest, letter = reverse_row_insert(bigger, (2, 3))
    assert (rest, letter) == (tab, 4)
    with pytest.raises(ValueError):
        reverse_row_insert(bigger, (1, 1))  # not a corner


def test_row_insert_round_trip_everywhere():
    for tab in all_standard_tableaux(5):
        for x in range(1, 7):
            grown = row_insert(tab, x)
            sh, old = shape(grown), shape(tab)
            corner = next(
                (r + 1, sh[r]) for r in range(len(sh)) if sh[r] != (old[r] if r < len(old) else 0)
            )
            assert reverse_row_insert(grown, corner) == (tab, x)


def test_column_insert_round_trip_everywhere():
    # letters doubled so the inserted odd letter never collides
    for tab in all_standard_tableaux(5):
        doubled = tuple(tuple(2 * x for x in row) for row in tab)
        for x in (1, 3, 5, 7, 9, 11):
            grown = column_insert(doubled, x)
            sh, old = shape(grown), shape(doubled)
            corner = next(
                (r + 1, sh[r]) for r in range(len(sh)) if sh[r] != (old[r] if r < len(old) else 0)
            )
            assert reverse_column_insert(grown, corner) == (doubled, x)


def test_rectify():
    assert rectify((2, 4, 1, 3, 5, 6)) == T("1,3,5,6/2,4")
    assert rectify((3, 2, 1)) == ((1,), (2,), (3,))


def test_conjugate_tableau():
    assert conjugate_tableau(T("1,2/3")) == ((1, 3), (2,))
    for tab in all_standard_tableaux(5):
        image = conjugate_tableau(tab)
        assert shape(image) == tuple(
            sum(1 for row in tab if len(row) > c) for c in range(len(tab[0]))
        ) if tab else image == ()
        assert conjugate_tableau(image) == tab


def test_standard_tableaux_counts():
    assert len(standard_tableaux((2, 1))) == 2
    assert len(standard_tableaux((3, 2))) == 5
    assert len(standard_tableaux((2, 2, 1))) == 5
    assert standard_tableaux(()) == ((),)
    assert len(all_standard_tableaux(4)) == 10
    for tab in standard_tableaux((3, 2)):
        assert is_standard(tab) and shape(tab) == (3, 2)


@pytest.mark.parametrize("warm", [False, True])
def test_standard_tableaux_refuses_non_partitions_whether_or_not_cached(warm):
    # (True,) and (1.0,) hash like (1,): a warm cache would answer them, and a
    # cold one would store their tableaux under (1,)
    standard_tableaux.cache_clear()
    if warm:
        assert standard_tableaux((1,)) == (((1,),),)
    for sh in [(1.0,), (True,), (2.0, 1), (2, True), (1, 2), (2, 0)]:
        with pytest.raises(ValueError, match="is not a partition"):
            standard_tableaux(sh)
    assert standard_tableaux((1,)) == (((1,),),)
    assert [type(x) for tab in standard_tableaux((2, 1)) for row in tab for x in row] == [int] * 6
    info = standard_tableaux.cache_info()
    assert cache_info()["tableaux.standard_tableaux"] == {
        "hits": info.hits,
        "misses": info.misses,
        "size": info.currsize,
    }
    with pytest.raises(ValueError, match="is not a partition"):
        column_strict_tableaux((True, True))


def test_column_strict_tableaux():
    # K_{(2,1),(1,1,1)} = 2 semistandard fillings
    assert len([t for t in column_strict_tableaux((1, 1, 1)) if shape(t) == (2, 1)]) == 2
    # weight (2,1): shapes (3) and (2,1) only
    tabs = column_strict_tableaux((2, 1))
    assert {shape(t) for t in tabs} == {(3,), (2, 1)}
    for tab in column_strict_tableaux((2, 2)):
        assert _content(reading_word(tab)) == (2, 2)
        assert is_tableau(tab)


def _seed_row_insert(tab, x):
    # the tuple-based row insertion the list kernel replaced, as a reference
    rows = [list(row) for row in tab]
    current = x
    for row in rows:
        j = bisect_right(row, current)
        if j == len(row):
            row.append(current)
            current = -1
            break
        row[j], current = current, row[j]
    if current != -1:
        rows.append([current])
    return tuple(tuple(row) for row in rows)


def _seed_column_insert(tab, x):
    rows = [list(row) for row in tab]
    current = x
    col = 0
    while True:
        bumped = False
        for row in rows:
            if len(row) > col and row[col] >= current:
                row[col], current = current, row[col]
                bumped = True
                break
        if not bumped:
            for row in rows:
                if len(row) == col:
                    row.append(current)
                    break
            else:
                rows.append([current])
            return tuple(tuple(row) for row in rows)
        col += 1


def _seed_rectify(word):
    tab = ()
    for letter in word:
        tab = _seed_row_insert(tab, letter)
    return tab


def test_charge_of_a_permutation_is_its_standard_charge():
    for n in range(1, 8):
        for w in permutations(range(1, n + 1)):
            assert charge(w) == sum(_standard_charge(s) for s in standard_subwords(w))


def _seed_standard_charge(word):
    # the per-letter position dict that the sorted inverse replaced
    position = {letter: i for i, letter in enumerate(word)}
    index = 0
    total = 0
    for letter in range(2, len(word) + 1):
        if position[letter] > position[letter - 1]:
            index += 1
        total += index
    return total


def test_standard_charge_matches_the_dict_form():
    for n in range(8):
        for w in permutations(range(1, n + 1)):
            assert _standard_charge(w) == _seed_standard_charge(w)


def test_charge_checks_a_word_once(monkeypatch):
    # a word that is not a permutation once went through as_word twice:
    # in charge, then in content under standard_subwords
    from qtkostka import tableaux

    seen = []
    real = tableaux.as_word
    monkeypatch.setattr(tableaux, "as_word", lambda *args: seen.append(args) or real(*args))
    assert charge((2, 1, 1, 2)) == charge((2, 1)) + charge((1, 2))
    assert len(seen) == 3
    with pytest.raises(ValueError, match="content = \\(1, 2\\) is not a partition"):
        charge((1, 2, 2))
    assert len(seen) == 4
    assert standard_subwords((2, 1, 1, 2)) == [(2, 1), (1, 2)]
    assert len(seen) == 5


def test_insertion_matches_the_tuple_reference():
    tabs = list(all_standard_tableaux(6))
    tabs += [tab for weight in ((2, 2, 1), (3, 2), (2, 1, 1, 1)) for tab in column_strict_tableaux(weight)]
    for tab in tabs:
        for x in range(1, 8):
            assert row_insert(tab, x) == _seed_row_insert(tab, x)
            assert column_insert(tab, x) == _seed_column_insert(tab, x)


def test_rectify_matches_the_tuple_reference():
    for n in range(10):
        for tab in all_standard_tableaux(n):
            word = reading_word(tab)
            for h in range(3):
                lowered = [x - h for x in word if x > h]
                assert rectify(lowered) == _seed_rectify(lowered)
    for n in range(7):
        for word in product(range(1, 4), repeat=n):
            assert rectify(word) == _seed_rectify(word)


def _seed_is_standard(tab):
    # the sorted-letters definition is_standard replaced
    if not is_tableau(tab):
        return False
    letters = sorted(x for row in tab for x in row)
    return letters == list(range(1, len(letters) + 1))


def _compositions(n):
    if n == 0:
        yield ()
        return
    for k in range(1, n + 1):
        for rest in _compositions(n - k):
            yield (k,) + rest


def test_is_standard_matches_the_sorted_reference():
    # every row-length sequence of size <= 4, with and without an empty row,
    # filled with every letter from -1 to n + 1
    for n in range(5):
        row_lengths = set(_compositions(n))
        row_lengths |= {
            c[:i] + (0,) + c[i:] for c in _compositions(n) for i in range(len(c) + 1)
        }
        for lengths in row_lengths:
            for letters in product(range(-1, n + 2), repeat=n):
                it = iter(letters)
                tab = tuple(tuple(next(it) for _ in range(k)) for k in lengths)
                assert is_standard(tab) == _seed_is_standard(tab), tab


def test_is_standard_rejects_non_integer_letters():
    assert not is_standard(((1.0, 2),))
    assert not is_standard(((0.5,),))
    assert not is_standard(((True,),))  # True == 1, but it is a bool
    assert not is_standard(((True, 2),))


@cache
def _seed_standard_tableaux(sh):
    # the list-of-lists body that rebuilt every row of each tableau, as a reference
    if not sh:
        return ((),)
    n = sum(sh)
    out = []
    for r in range(len(sh)):
        if r + 1 < len(sh) and sh[r] == sh[r + 1]:
            continue
        smaller = tuple(p for p in (sh[:r] + (sh[r] - 1,) + sh[r + 1 :]) if p)
        for sub in _seed_standard_tableaux(smaller):
            rows = [list(row) for row in sub]
            while len(rows) <= r:
                rows.append([])
            rows[r].append(n)
            out.append(tuple(tuple(row) for row in rows))
    return tuple(out)


def test_standard_tableaux_match_the_list_reference_as_json_in_order():
    for n in range(11):
        want = [tab for sh in partitions_of(n) for tab in _seed_standard_tableaux(sh)]
        got = all_standard_tableaux(n)
        assert json.dumps(got) == json.dumps(want)
        assert {type(tab) for tab in got} == {tuple}


def test_standard_tableaux_share_every_row_that_n_leaves_alone():
    for n in range(1, 9):
        for sh in partitions_of(n):
            for tab in standard_tableaux(sh):
                r = next(i for i, row in enumerate(tab) if row[-1] == n)
                smaller = tuple(p for p in (sh[:r] + (sh[r] - 1,) + sh[r + 1 :]) if p)
                parents = standard_tableaux(smaller)
                without_n = tuple(filter(None, (tuple(x for x in row if x != n) for row in tab)))
                parent = parents[parents.index(without_n)]
                assert all(tab[i] is parent[i] for i in range(len(parent)) if i != r)


def test_a_standard_tableau_is_its_tuple_of_rows():
    for tab in standard_tableaux((3, 2, 1)):
        assert type(tab) is tuple and {type(row) for row in tab} == {tuple}
        assert tab == tuple(map(tuple, tab)) and is_standard(tab)
    assert standard_tableaux(()) == ((),)


@pytest.mark.parametrize(
    "rows",
    [
        ((1, 1),),
        ((2, 1),),
        ((1, 2), (1,)),
        ((1,), (2, 3)),
        ((True,),),
        ((True, 2),),
        ((1, 2), (True,)),
        ((1.0,),),
        ((1,), ()),
        ((1, 3),),
        5,
        None,
        ((1,), 2),
    ],
)
def test_the_standard_tableau_constructor_refuses_what_is_standard_refuses(rows):
    # stats._standard is what turns rows into the tuple of row tuples that
    # every statistics entry point works on
    from qtkostka.stats import _standard

    before = cache_info()
    with pytest.raises(InputError, match="is not a standard tableau"):
        _standard(rows)
    assert cache_info() == before
    built = _standard([[1, 3], [2]])
    assert built == ((1, 3), (2,)) and {type(row) for row in built} == {tuple}


def test_a_subclass_of_standard_tableau_is_checked_like_any_value():
    # no type is trusted: a tuple subclass is checked like any value
    from qtkostka.stats import full_type

    class Loose(tuple):
        __slots__ = ()

    bad, good = Loose(((1, 1),)), Loose(((1, 2),))
    assert not is_standard(bad) and is_standard(good)
    with pytest.raises(InputError, match="is not a standard tableau"):
        conjugate_tableau(bad)
    with pytest.raises(InputError, match="is not a standard tableau"):
        full_type((2,), bad)
    assert full_type((2,), good) == full_type((2,), ((1, 2),))
