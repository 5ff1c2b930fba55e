import hashlib
import json

import pytest

from qtkostka import InputError, cache_info, clear_caches, stats
from qtkostka.partitions import (
    contains,
    first_column_removed,
    horizontal_strips,
    is_vertical_strip,
    part,
    partitions_of,
    vertical_strips,
)
from qtkostka.stats import (
    _TWO_STEP_HEADS,
    HEAD_TABLE,
    TypeSequence,
    _close_up,
    _reduced,
    _steps,
    add_col_block,
    add_row_block,
    classify_pair,
    delete_prefix,
    full_type,
    head_genfun,
    head_tableau,
    inverse_col_block,
    inverse_row_block,
    is_unimodal,
    pair_involution,
    stat_genfun,
    stat_pair,
    type_two_col,
    unbuild,
    unimodal_profile,
)
from qtkostka.tableaux import (
    all_standard_tableaux,
    column_insert,
    parse_tableau,
    reading_word,
    reverse_column_insert,
    reverse_row_insert,
    row_insert,
    row_insert_into,
    shape,
    standard_tableaux,
)
from qtkostka.vertex import UnsupportedShapeError, classify_shape, macdonald

T = parse_tableau


def test_head_table_shape():
    assert len(HEAD_TABLE) == 14
    assert HEAD_TABLE[T("1,2,3")] == (3, 2, (0, 3), 0)
    assert HEAD_TABLE[T("1,3/2")] == (1, 1, (1, 2), 1)
    assert HEAD_TABLE[T("1,2/3")] == (2, 1, (1, 2), 2)
    assert HEAD_TABLE[T("1/2/3")] == (0, 0, (0, 3), 3)
    assert HEAD_TABLE[T("1,2,3,4")] == (6, 3, (0, 4), 0)
    assert HEAD_TABLE[T("1,3/2,4")] == (2, 1, (2, 2), 4)
    assert HEAD_TABLE[T("1/2/3/4")] == (0, 0, (0, 4), 6)


def test_head_tableau():
    assert head_tableau(T("1,4,5/2,6/3"), 3) == T("1/2/3")
    assert head_tableau(T("1,2,4/3"), 3) == T("1,2/3")
    assert head_tableau(T("1,2,4/3"), 1) == T("1")


def test_head_tableau_matches_the_filter_reference():
    # the per-row filter that the prefix search replaced
    for n in range(1, 8):
        for tab in all_standard_tableaux(n):
            for m in range(1, n + 1):
                rows = (tuple(x for x in row if x <= m) for row in tab)
                assert head_tableau(tab, m) == tuple(row for row in rows if row)


def test_delete_prefix():
    assert delete_prefix(1, T("1,2,4/3")) == T("1,3/2")
    assert delete_prefix(0, T("1,3/2")) == T("1,3/2")
    assert delete_prefix(3, T("1,2,3")) == ()


def _seed_delete_prefix(h, tab):
    # the body that delete_prefix had before it became one _close_up("read", h, .)
    if h == 0:
        return tab
    rows = []
    for x in reading_word(tab):
        if x > h:
            row_insert_into(rows, x - h)
    return tuple(map(tuple, rows))


def test_delete_prefix_matches_the_seed_reference():
    for n in range(9):
        for tab in all_standard_tableaux(n):
            for h in range(n + 1):
                assert delete_prefix(h, tab) == _seed_delete_prefix(h, tab)


@pytest.mark.parametrize("tab", [((2,),), ((1, 1),), ((1, 3), (2, 4, 5)), ((True, 2),)])
def test_delete_prefix_refuses_a_tableau_that_is_not_standard(tab):
    # ((2,),) once gave ((1,),) and ((1, 1),) gave ()
    for h in (0, 1):
        with pytest.raises(ValueError, match="is not a standard tableau"):
            delete_prefix(h, tab)


def test_delete_prefix_refuses_a_bad_prefix_length():
    for h in (-1, True, 1.0):
        with pytest.raises(ValueError, match="prefix length"):
            delete_prefix(h, T("1,2/3"))
    with pytest.raises(ValueError, match="fewer than 4 cells"):
        delete_prefix(4, T("1,2/3"))


def test_row_block_examples():
    assert add_row_block(2, (11, 3), T("1,3,5,6/2,4")) == T("1,2,4,6,7/3,5,8")
    assert add_row_block(2, (8, 3, 1), T("1,2,3/4/5")) == T("1,2,5,7/3,4/6")
    assert inverse_row_block(2, (11, 3), T("1,2,4,6,7/3,5,8")) == T("1,3,5,6/2,4")


def test_col_block_example():
    built = add_col_block(2, (4, 3, 1, 1, 1, 1, 1, 1, 1), T("1,3,5,6/2,4"))
    assert built == T("1,3,5,7/2,4,6/8")
    assert inverse_col_block(2, (4, 3, 1, 1, 1, 1, 1, 1, 1), built) == T("1,3,5,6/2,4")


def test_unbuild_chain():
    assert unbuild(2, T("1,4,5/2,6/3")) == T("1,3/2/4")
    assert unbuild(2, T("1,3/2/4")) == T("1,2")
    assert unbuild(2, T("1,2")) == ()


def test_type_two_col():
    assert type_two_col(T("1,4,5/2,6/3"), 3).blocks == ("V", "V", "H")
    assert type_two_col(T("1,2"), 1).blocks == ("H",)
    assert type_two_col(T("1/2"), 1).blocks == ("V",)


def test_type_two_col_refuses_a_domino_count_that_is_not_an_int():
    for dominoes in (True, 1.0, -1):
        with pytest.raises(ValueError, match="dominoes = .* is not an int >= 0"):
            type_two_col(T("1,2"), dominoes)
    with pytest.raises(ValueError, match="dominoes out of 2 cells"):
        type_two_col(T("1,2"), 2)


def test_full_type():
    kind = full_type((2, 2, 2), T("1,4,5/2,6/3"))
    assert kind.blocks == ("V", "V", "H")
    assert kind.head is None
    head_kind = full_type((3, 2, 1), T("1,2,3/4,5/6"))
    assert head_kind.head == T("1,2,3")
    assert len(head_kind.blocks) == 2 and head_kind.blocks[1] == "S"


def test_type_sequence_text_round_trip():
    kind = TypeSequence(T("1,3/2"), ("V", "H", "S"))
    assert kind.text() == "(1,3/2)|V,H,S"
    assert TypeSequence(None, ("H", "V")).text() == "H,V"


def test_stat_pair_examples():
    assert stat_pair((2, 1), T("1,3/2")) == (1, 1)
    assert stat_pair((2, 1), T("1,2/3")) == (0, 0)
    assert stat_pair((3,), T("1,2/3")) == (0, 2)
    assert stat_pair((3,), T("1,2,3")) == (0, 0)
    assert stat_pair((3,), T("1/2/3")) == (0, 3)


def test_stat_pair_rejects_size_mismatch():
    with pytest.raises(ValueError):
        stat_pair((2, 1), T("1,2"))


@pytest.mark.parametrize("mu", [("a",), (1.5,), (None, 1)])
def test_stat_pair_and_full_type_check_the_shape_before_its_size(mu):
    # sum(mu) would raise a TypeError; stat_genfun raises this ValueError
    for fn in (stat_pair, full_type, lambda mu, _: stat_genfun(mu)):
        with pytest.raises(ValueError, match="is not a partition"):
            fn(mu, ((1,),))


def test_stat_genfun_small():
    assert stat_genfun((2, 1)) == macdonald((2, 1))
    assert stat_genfun((1, 1)) == macdonald((1, 1))
    assert stat_genfun((3, 2)) == macdonald((3, 2))
    assert stat_genfun((4, 1)) == macdonald((4, 1))


def test_involution_example():
    tab, rho = T("1,2,3/4/5"), (8, 3, 1)
    assert classify_pair(5, 2, tab, rho) == "unstable"
    that, flipped = pair_involution(5, 2, tab, rho)
    assert that == T("1,2,3,5/4")
    assert flipped == (7, 4, 1)
    assert pair_involution(5, 2, that, flipped) == (tab, rho)
    assert full_type((2, 2, 1), that).blocks == full_type((2, 2, 1), tab).blocks


def test_involution_needs_unstable():
    for lam in partitions_of(3):
        for tab in standard_tableaux(lam):
            for rho in horizontal_strips(lam, 5):
                if classify_pair(3, 2, tab, rho) != "unstable":
                    with pytest.raises(ValueError):
                        pair_involution(3, 2, tab, rho)


def test_every_built_tableau_has_a_stable_preimage():
    # n = 2, m = 2: the generating-function argument needs each surviving
    # term to be produced by exactly one stable pair
    n, m = 2, 2
    stable_images = {}
    for lam in partitions_of(n):
        for tab in standard_tableaux(lam):
            for rho in horizontal_strips(lam, n + m):
                if classify_pair(n, m, tab, rho) == "stable":
                    built = add_row_block(m, rho, tab)
                    stable_images.setdefault(built, []).append((tab, rho))
    assert stable_images
    for built, pairs in stable_images.items():
        assert len(pairs) == 1
        tab, rho = pairs[0]
        assert unbuild(m, built) == tab


def test_is_unimodal():
    assert is_unimodal((1, 2, 3, 2, 1))
    assert is_unimodal((1, 1, 1))
    assert is_unimodal(())
    assert is_unimodal((0, 0, 2, 7, 12, 14, 13, 9, 4, 2))
    assert not is_unimodal((2, 1, 2))
    assert not is_unimodal((1, 3, 2, 3))


def test_unimodal_profile_printed_rows():
    profile = unimodal_profile((3, 1, 1, 1))
    assert profile[TypeSequence(T("1,2,3"), ("S", "S", "S"))] == (1, 2, 3, 4, 2, 1, 1)
    assert profile[TypeSequence(T("1/2/3"), ("S", "S", "S"))] == (1, 1, 2, 4, 3, 2, 1)
    total = sum(sum(seq) for seq in profile.values())
    assert total == len(all_standard_tableaux(6))


def _seed_unbuild(m, tab):
    # the tuple-based unbuild the list loops replaced, as a reference
    if m < 2:
        raise ValueError("block size must be at least 2")
    if sum(len(row) for row in tab) < m:
        raise ValueError(f"tableau has fewer than {m} cells")
    if len(tab[0]) >= m and tab[0][:m] == tuple(range(1, m + 1)):
        rest = tab[1:]
        for x in reversed(tab[0][m:]):
            rest = column_insert(rest, x)
    elif len(tab) >= m and all(tab[i][0] == i + 1 for i in range(m)):
        extras = tuple(tab[i][0] for i in range(m, len(tab)))
        rest = tuple(row[1:] for row in tab if len(row) > 1)
        for x in reversed(extras):
            rest = row_insert(rest, x)
    else:
        raise ValueError(f"labels 1..{m} form neither a first-row nor first-column block")
    if any(x <= m for row in rest for x in row):
        raise ValueError(f"cannot lower labels by {m}: some label too small")
    return tuple(tuple(x - m for x in row) for row in rest)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _direct_shapes(n):
    out = []
    for mu in partitions_of(n):
        try:
            if classify_shape(mu)[0] == "direct":
                out.append(mu)
        except UnsupportedShapeError:
            pass
    return out


def test_unbuild_matches_the_tuple_reference():
    # unbuild is one rectification now; the column-insertion body is the reference
    for tab in (tab for n in range(10) for tab in all_standard_tableaux(n)):
        for m in (2, 3, 4):
            assert _outcome(unbuild, m, tab) == _outcome(_seed_unbuild, m, tab)
    # not standard (labels left at or below m, or no block at all): these once
    # reached the block code and failed there
    for tab in [((1, 2, 2),), ((1, 2), (2,)), ((1, 2, 3), (3,)), ((1,), (2,), (2,)), ((2, 3), (4,))]:
        for m in (2, 3, 4):
            with pytest.raises(InputError, match="is not a standard tableau"):
                unbuild(m, tab)


def test_heads_reduce_in_one_rectification():
    # Table 1's block word, from _steps, against _reduced's two steps: it must
    # agree on every tableau exactly when the head is not in _TWO_STEP_HEADS
    agrees = {}
    for n in range(3, 9):
        for tab in all_standard_tableaux(n):
            for m in [m for m in (3, 4) if m <= n]:
                head = head_tableau(tab, m)
                kind = _steps(head)[1]
                same = _close_up(kind, m, tab) == _reduced(m, tab)[1]
                agrees[head] = agrees.get(head, True) and same
    assert set(agrees) == set(HEAD_TABLE)
    assert {head for head, ok in agrees.items() if not ok} == _TWO_STEP_HEADS
    assert _TWO_STEP_HEADS == {T("1,2,4/3"), T("1,3/2/4")}


def test_the_two_heads_without_a_word_need_both_steps():
    for head in _TWO_STEP_HEADS:
        tabs = [tab for tab in all_standard_tableaux(7) if head_tableau(tab, 4) == head]
        for kind in ("read", "row", "col"):
            assert any(_close_up(kind, 4, tab) != _reduced(4, tab)[1] for tab in tabs)
        # the two words the walk chains for them, the second of kind from _steps
        h, kind, mm = _steps(head)
        for tab in tabs:
            assert _close_up(kind, mm, _close_up("read", h, tab)) == _reduced(4, tab)[1]


def test_a_wrong_head_word_stops_the_walk(monkeypatch):
    # the walk's self-check finds the block in the tableau (_unbuild), so it
    # does not read the kind that _steps gives the walk's words
    real = stats._steps

    def flipped(head):
        h, kind, mm = real(head)
        if head == ((1, 2, 3),):
            kind = {"row": "col", "col": "row"}[kind]
        return h, kind, mm

    monkeypatch.setattr(stats, "_steps", flipped)
    clear_caches()
    try:
        with pytest.raises(RuntimeError, match="the statistics walk gave"):
            stat_genfun((3, 2, 1))
    finally:
        clear_caches()


def test_unimodal_profile_counts_match_stat_pair():
    for n in range(1, 9):
        for mu in _direct_shapes(n):
            by_type = {}
            for tab in all_standard_tableaux(n):
                bucket = by_type.setdefault(full_type(mu, tab), {})
                a = stat_pair(mu, tab)[0]
                bucket[a] = bucket.get(a, 0) + 1
            expected = {
                ts: tuple(counts.get(i, 0) for i in range(max(counts) + 1))
                for ts, counts in by_type.items()
            }
            assert unimodal_profile(mu) == expected


def test_stat_genfun_matches_macdonald_at_size_9():
    for mu in [(2, 2, 2, 2, 1), (3, 2, 2, 2), (4, 2, 2, 1)]:
        assert stat_genfun(mu) == macdonald(mu)


def test_domino_tail_cache_info_and_clear():
    before = stat_genfun((2, 2, 2, 1))
    info = cache_info()["stats.domino_tail"]
    assert set(info) == {"hits", "misses", "size"}
    assert info["size"] > 0 and info["misses"] > 0
    clear_caches()
    assert cache_info()["stats.domino_tail"]["size"] == 0
    assert stat_genfun((2, 2, 2, 1)) == before


def _strip_cells(outer, inner):
    return [
        (r, c)
        for r in range(1, len(outer) + 1)
        for c in range(part(inner, r) + 1, part(outer, r) + 1)
    ]


def _seed_add_col_block(m, rho, tab):
    # the column-insertion code that the transposed add_row_block replaced
    n, lam = sum(map(len, tab)), shape(tab)
    if sum(rho) != 2 * n + m:
        raise ValueError(f"|rho| must be {2 * n + m}, got {sum(rho)}")
    if not (contains(rho, lam) and is_vertical_strip(rho, lam)):
        raise ValueError(f"{rho}/{lam} is not a vertical strip")
    cells = sorted(_strip_cells(lam, first_column_removed(rho)), key=lambda rc: -rc[0])
    work, ejected = tab, []
    for cell in cells:
        work, letter = reverse_row_insert(work, cell)
        ejected.append(letter)
    out = tuple(tuple(x + m for x in row) for row in work)
    for x in list(range(1, m + 1)) + [x + m for x in ejected]:
        out = column_insert(out, x)
    return out


def _seed_inverse_col_block(m, rho, built):
    cells = sorted(_strip_cells(shape(built), first_column_removed(rho)), key=lambda rc: -rc[0])
    work, popped = built, []
    for cell in cells:
        work, letter = reverse_column_insert(work, cell)
        popped.append(letter)
    letters = popped[::-1]
    if letters[:m] != list(range(1, m + 1)):
        raise ValueError(f"{built} was not built over {rho}: block 1..{m} missing")
    rest = tuple(tuple(x - m for x in row) for row in work)
    for x in reversed([x - m for x in letters[m:]]):
        rest = row_insert(rest, x)
    return rest


def test_col_blocks_match_the_insertion_reference():
    pairs = 0
    for n in range(7):
        for m in (2, 3, 4):
            for lam in partitions_of(n):
                for tab in standard_tableaux(lam):
                    for rho in vertical_strips(lam, n + m):
                        built = add_col_block(m, rho, tab)
                        assert built == _seed_add_col_block(m, rho, tab)
                        assert inverse_col_block(m, rho, built) == tab
                        assert _seed_inverse_col_block(m, rho, built) == tab
                        pairs += 1
    assert pairs == 2118


def test_col_blocks_keep_their_own_messages():
    with pytest.raises(ValueError, match="is not a vertical strip"):
        add_col_block(2, (6, 1, 1, 1, 1, 1, 1, 1, 1), T("1,3,5,6/2,4"))
    with pytest.raises(ValueError, match=r"\|rho\| must be 14"):
        add_col_block(2, (4, 3, 1, 1, 1, 1, 1, 1), T("1,3,5,6/2,4"))
    rho = (4, 3, 1, 1, 1, 1, 1, 1, 1)
    assert inverse_col_block(2, rho, T("1,3,5,7/2,4,6/8")) == T("1,3,5,6/2,4")
    with pytest.raises(ValueError, match=r"\(\(1, 2, 3, 4\), .* not built over \(4, 3, 1, 1"):
        inverse_col_block(2, rho, T("1,2,3,4/5,6,7/8"))


NOT_STANDARD = [
    ((2, 2), ((1, 2), (1, 2))),  # repeated letters
    ((2, 2), ((1, 1), (2, 2))),  # a weakly increasing row
    ((2, 2), ((1, 2, 4, 3),)),  # a decreasing pair in a row, once read as (2, 1)
    ((2, 1, 1), ((1, 2), (4, 3))),  # once read as (0, 0)
    ((3, 1), ((1, 2), (4, 3))),
    ((2, 2), ((1,), (2, 3, 4))),  # not of partition shape
    ((4,), ((1, 3), (2,), (4,), ())),  # an empty row
    ((2, 2), ((1, 2, 3, 5),)),  # letters not 1..n
    ((3, 1), ((2, 3), (1, 4))),  # a column that decreases
    ((2,), ((True, 2),)),  # a bool letter, once read as (0, 0)
    ((1,), ((True,),)),
]


@pytest.mark.parametrize("mu, tab", NOT_STANDARD)
def test_stat_pair_and_full_type_reject_non_standard_tableaux(mu, tab):
    for fn in (stat_pair, full_type):
        with pytest.raises(ValueError, match="is not a standard tableau"):
            fn(mu, tab)


def test_head_genfun_refuses_heads_that_do_not_fit_mu():
    with pytest.raises(ValueError, match="has no head"):
        head_genfun((2, 2), (T("1,2,3"),))  # once SchurExpansion(0)
    with pytest.raises(ValueError, match="has no head"):
        head_genfun((1, 1), ())
    for mu, head in [((3,), T("1,2")), ((3, 1), T("1,2,3,4")), ((4,), T("1,2,3"))]:
        with pytest.raises(ValueError, match=f"is not a head tableau of size {mu[0]}"):
            head_genfun(mu, (head,))  # ((3,), 1,2) once raised a bare KeyError
    for head in [((True, 2, 3),), ((1, 2, 2),), ((1, 3, 2),)]:
        with pytest.raises(ValueError, match="is not a head tableau of size 3"):
            head_genfun((3, 1), (head,))
    with pytest.raises(ValueError, match="single gamma"):
        head_genfun((3, 1), (T("1,2,3"), T("1/2/3")))


def test_head_genfun_reads_heads_given_as_lists():
    # a head as lists once raised "unhashable type: 'list'"
    want = head_genfun((3, 1), (T("1,2,3"),))
    assert head_genfun((3, 1), ([[1, 2, 3]],)) == want
    assert head_genfun((3, 1), [([1, 2, 3],)]) == want
    assert head_genfun((3, 1), (h for h in [T("1,2,3")])) == want
    pair = (T("1,2,4/3"), T("1,2/3,4"))  # both with gamma 2
    assert head_genfun((4, 2), ([list(r) for r in h] for h in pair)) == head_genfun((4, 2), pair)


def test_a_cached_shape_never_answers_for_a_key_that_only_hashes_like_it():
    tab, heads = T("1,3/2,4"), (T("1,2,3"),)
    assert stat_pair((2, 2), tab) == stat_pair((2, 2), tab)
    for mu in [(2, 2), (1, 1), (3, 1)]:
        stat_genfun(mu)
        unimodal_profile(mu)
    head_genfun((3, 1), heads)
    size = cache_info()["stats.stat_counts"]["size"]
    calls = [
        lambda: stat_pair((2.0, 2), tab),
        lambda: stat_pair((True, True, True, True), tab),
        lambda: full_type((2.0, 2), tab),
    ]
    # the three readers share one table, which holds (2, 2), (1, 1) and (3, 1)
    for bad in [(2.0, 2), (True, True), (True,) * 4, (3.0, 1)]:
        calls += [lambda bad=bad: stat_genfun(bad), lambda bad=bad: unimodal_profile(bad)]
        calls += [lambda bad=bad: head_genfun(bad, heads)]
    for call in calls:
        with pytest.raises(ValueError, match="is not a partition"):
            call()
    assert cache_info()["stats.stat_counts"]["size"] == size


def test_one_walk_per_mu_calls_the_public_statistics_once_per_shape(monkeypatch):
    # the walk types and charges every tableau itself; full_type, stat_pair and
    # charge run only in its self-check, on one tableau of each shape
    from qtkostka import stats

    calls = {"full_type": 0, "stat_pair": 0, "charge": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(stats, name, counted(name, getattr(stats, name)))
    clear_caches()
    mu = (3, 2, 1)
    stat_genfun(mu)
    unimodal_profile(mu)
    head_genfun(mu, (T("1,2,3"),))
    head_genfun(mu, (T("1,3/2"),))
    shapes = len(partitions_of(6))
    assert calls == {"full_type": shapes, "stat_pair": shapes, "charge": shapes}


def test_stat_pair_types_the_tableau_it_is_given():
    # stat_pair once reused the type of the last full_type call, held in a
    # module global; each call now types its own tableau
    from qtkostka import stats

    assert not hasattr(stats, "_last_type")
    rows = [[1, 2], [3, 4]]
    assert full_type((2, 2), rows) == full_type((2, 2), T("1,2/3,4"))
    rows[0][1], rows[1][0] = 3, 2  # now 1,3/2,4, of another type
    assert stat_pair((2, 2), rows) == stat_pair((2, 2), T("1,3/2,4")) == (2, 2)
    full_type((2, 2), T("1,2/3,4"))
    assert stat_pair((2, 2), T("1,3/2,4")) == (2, 2)
    tab = T("1,3/2/4")
    want = {mu: stat_pair(mu, tab) for mu in [(3, 1), (2, 2)]}
    for mu in want:  # the same object under another (m, a)
        full_type((2, 1, 1), tab)
        assert stat_pair(mu, tab) == want[mu]


def _reference_counts(mu):
    # the per-tableau loop the walk replaced: every standard tableau from
    # standard_tableaux, typed by full_type and charged by stat_pair
    by_head, by_type = {}, {}
    for sh in partitions_of(sum(mu)):
        for tab in standard_tableaux(sh):
            ts = full_type(mu, tab)
            a, b = stat_pair(mu, tab)
            bucket = by_head.setdefault(ts.head, {}).setdefault(sh, {})
            bucket[b, a] = bucket.get((b, a), 0) + 1
            bucket = by_type.setdefault(ts, {})
            bucket[a] = bucket.get(a, 0) + 1
    return by_head, by_type


def _assert_the_walk_matches_the_reference(mu):
    by_head, by_type = stats._stat_counts(mu)
    want_head, want_type = _reference_counts(mu)
    assert by_head == want_head, mu
    # unimodal_profile and the CLI print types in this order
    assert list(by_type.items()) == list(want_type.items()), mu


def test_the_walk_matches_the_per_tableau_reference():
    shapes = 0
    for n in range(10):
        for mu in _direct_shapes(n):
            _assert_the_walk_matches_the_reference(mu)
            shapes += 1
    assert shapes == 58


@pytest.mark.slow
@pytest.mark.parametrize("mu", _direct_shapes(10))
def test_the_walk_matches_the_per_tableau_reference_at_size_10(mu):
    _assert_the_walk_matches_the_reference(mu)


def test_the_walk_inserts_keys_only_above_the_last_label(monkeypatch):
    # label n only follows its key to the row where it lands in R; a walk
    # that grows the key tableaux at each leaf too made 1112, 1108 and 1368
    calls = 0
    real = stats._insert_key

    def counted(keys, x):
        nonlocal calls
        calls += 1
        return real(keys, x)

    monkeypatch.setattr(stats, "_insert_key", counted)
    found = {}
    for mu in [(2, 2, 2, 2), (3, 2, 2, 1), (4, 2, 2)]:
        clear_caches()
        calls = 0
        stat_genfun(mu)
        found[mu] = calls
    assert found == {(2, 2, 2, 2): 348, (3, 2, 2, 1): 344, (4, 2, 2): 418}


def _swapped_words(original):
    def faulty(word, r, c, width):
        return original({"row": "col", "col": "row"}.get(word, word), r, c, width)

    return faulty


def _reversed_keys(original):
    def faulty(keys, x):
        return original(keys, -x)

    return faulty


def _first_row_landings(original):
    # label n lands in the first row of R wherever its key would land
    def faulty(words, keys, cells, width):
        return [0 for _ in original(words, keys, cells, width)]

    return faulty


# Where label n lands in R decides the type of T only when label n is a
# domino label of R, that is when mu has no single (b = 0): the landing fault
# runs on mu3..mu5 alone.
_FAULT_SHAPES = [(2, 2, 1, 1), (3, 2, 1), (4, 2, 1), (2, 2, 2), (3, 2, 2), (4, 2, 2)]


@pytest.mark.parametrize(
    "name, fault, mu",
    [
        pytest.param(name, fault, mu, id=f"mu{i}-{name}-{fault.__name__}")
        for name, fault in [
            ("_word_key", _swapped_words),
            ("_insert_key", _reversed_keys),
            ("_landings", _first_row_landings),
        ]
        for i, mu in enumerate(_FAULT_SHAPES)
        if name != "_landings" or i >= 3
    ],
)
def test_a_fault_in_what_the_walk_carries_raises(monkeypatch, name, fault, mu):
    from qtkostka import stats

    clear_caches()
    monkeypatch.setattr(stats, name, fault(getattr(stats, name)))
    disagree = "the statistics walk gave .* but full_type and stat_pair disagree"
    with pytest.raises(RuntimeError, match=disagree):
        stat_genfun(mu)
    assert cache_info()["stats.stat_counts"]["size"] == 0
    monkeypatch.undo()
    assert stat_genfun(mu) == macdonald(mu)


def test_the_walk_caches_no_tableau_and_stays_small():
    import tracemalloc

    mu = (4, 2, 2, 2, 1)
    clear_caches()
    size = cache_info()["tableaux.standard_tableaux"]["size"]
    tracemalloc.start()
    try:
        stat_genfun(mu)
        unimodal_profile(mu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cache_info()["tableaux.standard_tableaux"]["size"] == size
    assert peak < 4 * 2**20  # the per-tableau loop peaked near 9 MiB


def test_lists_of_lists_are_read_as_their_tuples():
    # a standard tableau given as lists: full_type((2, 2), ...) once missed the
    # block of 1,2/3,4 and full_type((3, 1), ...) raised "unhashable type"
    for tab in all_standard_tableaux(4):
        rows = [list(row) for row in tab]
        for mu in [(2, 2), (3, 1), (4,), (2, 1, 1)]:
            assert full_type(mu, rows) == full_type(mu, tab)
            assert stat_pair(mu, rows) == stat_pair(mu, tab)
        assert type_two_col(rows, 1) == type_two_col(tab, 1)
        assert head_tableau(rows, 2) == head_tableau(tab, 2)
        assert delete_prefix(0, rows) == delete_prefix(0, tab) == tab
        for m in (2, 3, 4):
            assert _outcome(unbuild, m, rows) == _outcome(unbuild, m, tab)
        for rho in horizontal_strips(shape(tab), 6):  # |rho| = 2 * 4 + 2
            assert add_row_block(2, rho, rows) == add_row_block(2, rho, tab)


def _json_digest(h, f):
    h.update(json.dumps(f.to_json(), sort_keys=True).encode())


# Digests of the outputs of the statistics kernel before its per-shape and
# per-type tables were added; any change to an answer changes them.
GENFUN_DIGEST = "578311647a29e47d9ace1b3d3e72383e775d131d8b6778b59edfc951715322a3"
PAIR_DIGEST = "f270d8b97c91fe6392eba9995b1841b79ccaf61930577fc687ff66c673def88d"


def _genfun_digest():
    h = hashlib.sha256()
    for n in range(1, 10):
        for mu in _direct_shapes(n):
            _json_digest(h, stat_genfun(mu))
            profile = sorted((ts.text(), seq) for ts, seq in unimodal_profile(mu).items())
            h.update(repr(profile).encode())
            if mu[0] > 2:
                for head in HEAD_TABLE:
                    if sum(map(len, head)) == mu[0]:
                        _json_digest(h, head_genfun(mu, (head,)))
    return h.hexdigest()


def _pair_digest():
    h = hashlib.sha256()
    for n in range(1, 9):
        for mu in _direct_shapes(n):
            for tab in all_standard_tableaux(n):
                h.update(repr((mu, tab, stat_pair(mu, tab), full_type(mu, tab).text())).encode())
    return h.hexdigest()


def test_statistics_match_the_pinned_digests():
    assert _genfun_digest() == GENFUN_DIGEST
    assert _pair_digest() == PAIR_DIGEST
