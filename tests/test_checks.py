"""The input contract: every public entry point refuses a bool, a float, a
negative or a non-partition argument with a ValueError/TypeError, and a
refused argument never stores a memo entry."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qtkostka
from qtkostka import InputError, QTPoly, SchurExpansion, cache_info
from qtkostka._checks import as_standard, as_tableau, is_standard, is_tableau
from qtkostka.battery import run_battery
from qtkostka.oracle import (
    count_syt,
    generic_points,
    kostka_foulkes,
    kostka_oracle,
    macdonald_oracle,
    scalar_qt,
    scalar_t,
    schur_to_power,
    verify_rational_props,
    z_factor,
)
from qtkostka.partitions import (
    conjugate,
    dominance_leq,
    horizontal_strips,
    horizontal_strips_inside,
    partitions_of,
    vertical_strips,
    vertical_strips_inside,
)
from qtkostka.schur import hl_vertex, hl_vertex_snake, mul_h
from qtkostka.stats import (
    add_col_block,
    add_row_block,
    classify_pair,
    delete_prefix,
    full_type,
    head_tableau,
    inverse_col_block,
    inverse_row_block,
    pair_involution,
    stat_genfun,
    stat_pair,
    type_two_col,
    unbuild,
)
from qtkostka.tableaux import (
    charge,
    column_insert,
    column_strict_tableaux,
    conjugate_tableau,
    rectify,
    row_insert,
    standard_subwords,
    standard_tableaux,
    tableau_charge,
)
from qtkostka.vertex import (
    component_groups,
    gaussian_binomial,
    hall_littlewood,
    hl_identity_suite,
    stem_coefficient,
    t_pochhammer,
    two_column_hl,
)

F = Fraction
Q0, T0 = F(1, 3), F(1, 2)
MU = (2, 1)
TAB = ((1, 3), (2,))
P21 = schur_to_power(MU)
S21 = SchurExpansion.schur(MU)
RHO = (5, 2, 1)  # TAB and RHO make a build pair for a block of size 2
BUILT = add_row_block(2, RHO, TAB)


def _not_a_partition(parts):
    return any(p <= 0 for p in parts) or list(parts) != sorted(parts, reverse=True)


# a value that is not an int: bools and floats hash like ints
NOT_INT = st.one_of(
    st.booleans(),
    st.floats(allow_nan=False),
    st.fractions(),
    st.text(max_size=3),
    st.none(),
)
NEGATIVE = st.integers(max_value=-1)
NOT_NONNEGATIVE = st.one_of(NOT_INT, NEGATIVE)
NOT_POSITIVE = st.one_of(NOT_INT, st.integers(max_value=0))
NOT_POINT = st.one_of(st.booleans(), st.floats(allow_nan=False), st.text(max_size=3), st.none())
NOT_A_PAIR = st.one_of(
    st.integers(), st.none(), st.tuples(st.integers()), st.tuples(*[st.integers()] * 3)
)
# no point at all, or a list holding an item that is not a (q0, t0) pair
NOT_POINTS = st.one_of(
    st.sampled_from([[], (), None, 5]),
    st.lists(NOT_A_PAIR, min_size=1, max_size=3).map(lambda items: [(Q0, T0)] + items),
)
# sequences of ints in the wrong order or with a part below 1, sequences
# holding a non-int part, and values that are no sequence at all
INT_NON_PARTITIONS = st.lists(st.integers(-2, 4), min_size=1, max_size=4).map(tuple)
INT_NON_PARTITIONS = INT_NON_PARTITIONS.filter(_not_a_partition)
BAD_PART = st.sampled_from([True, False, 1.0, 2.0, F(2), "1", None])
MIXED = st.lists(st.one_of(st.integers(1, 3), BAD_PART), min_size=1, max_size=4).map(tuple)
MIXED = MIXED.filter(lambda parts: any(type(p) is not int for p in parts))
NOT_PARTITION = st.one_of(INT_NON_PARTITIONS, MIXED, st.booleans(), st.floats(), st.none())
BAD_LETTER = st.sampled_from([True, 1.0, 2.0, 0, -1, None])
NOT_WORD = st.one_of(
    st.lists(st.one_of(st.integers(1, 3), BAD_LETTER), min_size=1, max_size=5)
    .map(tuple)
    .filter(lambda w: any(type(x) is not int or x < 1 for x in w)),
    st.sampled_from([(2,), (1, 3), (2, 2, 1)]),  # content not a partition
    st.none(),
)
STANDARD = [((1,),), ((1, 2),), ((1,), (2,)), TAB, ((1, 2), (3,)), ((1, 2, 4), (3,))]


@st.composite
def not_standard(draw):
    """A standard tableau with one letter replaced, or one that is no tableau at all."""
    tab = [list(row) for row in draw(st.sampled_from(STANDARD))]
    r = draw(st.integers(0, len(tab) - 1))
    c = draw(st.integers(0, len(tab[r]) - 1))
    old = tab[r][c]
    tab[r][c] = draw(st.sampled_from([True, 1.0, float(old), 0, -1, 99, old + 1, old - 1]))
    return draw(st.sampled_from([tuple(map(tuple, tab)), 5, (5,), ((1,), 2)]))


NOT_STANDARD = not_standard()
NOT_TABLEAU = st.one_of(
    st.sampled_from([((2, 1),), ((1,), (1,)), ((1, 2), (1,)), ((1,), (2, 3)), ((0,),)]),
    st.sampled_from([((1.0,),), ((True, 2),), ((1,), ()), 5, None]),
)
NOT_DECIMAL = st.one_of(
    st.booleans(),
    st.floats(allow_nan=False),
    st.none(),
    st.text(max_size=3).filter(lambda s: not re.fullmatch(r"-?[0-9]+", s)),
)


# (name, strategy for the bad argument, kind of argument, call with it)
ENTRY_POINTS = [
    ("conjugate", NOT_PARTITION, "partition", conjugate),
    (
        "parse_partition",
        INT_NON_PARTITIONS.map(lambda parts: ",".join(map(str, parts))),
        "text",
        qtkostka.parse_partition,
    ),
    (
        "parse_tableau",
        st.sampled_from(["2,1", "1/1", "1,2/1", "1/2,3", "0", "1,x"]),
        "text",
        qtkostka.parse_tableau,
    ),
    ("format_partition", NOT_PARTITION, "partition", qtkostka.format_partition),
    ("dominance_leq", NOT_PARTITION, "partition", lambda x: dominance_leq(x, MU)),
    ("horizontal_strips/lam", NOT_PARTITION, "partition", lambda x: horizontal_strips(x, 1)),
    ("vertical_strips/lam", NOT_PARTITION, "partition", lambda x: vertical_strips(x, 1)),
    (
        "horizontal_strips_inside/mu",
        NOT_PARTITION,
        "partition",
        lambda x: horizontal_strips_inside(x, 1),
    ),
    (
        "vertical_strips_inside/mu",
        NOT_PARTITION,
        "partition",
        lambda x: vertical_strips_inside(x, 1),
    ),
    ("horizontal_strips/k", NOT_INT, "int", lambda x: horizontal_strips(MU, x)),
    ("vertical_strips/k", NOT_INT, "int", lambda x: vertical_strips(MU, x)),
    ("horizontal_strips_inside/k", NOT_INT, "int", lambda x: horizontal_strips_inside(MU, x)),
    ("vertical_strips_inside/k", NOT_INT, "int", lambda x: vertical_strips_inside(MU, x)),
    ("macdonald", NOT_PARTITION, "partition", qtkostka.macdonald),
    ("kostka/lam", NOT_PARTITION, "partition", lambda x: qtkostka.kostka(x, MU)),
    ("kostka/mu", NOT_PARTITION, "partition", lambda x: qtkostka.kostka(MU, x)),
    ("SchurExpansion", NOT_PARTITION, "partition", lambda x: SchurExpansion({x: 1})),
    ("standard_tableaux", NOT_PARTITION, "partition", standard_tableaux),
    ("column_strict_tableaux", NOT_PARTITION, "partition", column_strict_tableaux),
    ("hall_littlewood", NOT_PARTITION, "partition", hall_littlewood),
    ("stat_pair/mu", NOT_PARTITION, "partition", lambda x: stat_pair(x, TAB)),
    ("full_type/mu", NOT_PARTITION, "partition", lambda x: full_type(x, TAB)),
    ("stat_genfun", NOT_PARTITION, "partition", stat_genfun),
    ("macdonald_oracle/mu", NOT_PARTITION, "partition", lambda x: macdonald_oracle(x, Q0, T0)),
    ("kostka_oracle/lam", NOT_PARTITION, "partition", lambda x: kostka_oracle(x, MU, Q0, T0)),
    ("kostka_oracle/mu", NOT_PARTITION, "partition", lambda x: kostka_oracle(MU, x, Q0, T0)),
    ("kostka_foulkes/lam", NOT_PARTITION, "partition", lambda x: kostka_foulkes(x, MU)),
    ("schur_to_power", NOT_PARTITION, "partition", schur_to_power),
    ("z_factor", NOT_PARTITION, "partition", z_factor),
    ("count_syt", NOT_PARTITION, "partition", count_syt),
    ("partitions_of", NOT_INT, "int", partitions_of),
    ("gaussian_binomial", NOT_NONNEGATIVE, "int", lambda x: gaussian_binomial(x, 1)),
    ("QTPoly/exponent", NOT_NONNEGATIVE, "int", lambda x: QTPoly({(x, 0): 1})),
    ("QTPoly/coefficient", NOT_INT, "int", lambda x: QTPoly({(0, 0): x})),
    ("QTPoly.t", NOT_NONNEGATIVE, "int", QTPoly.t),
    ("QTPoly.reverse", NOT_INT, "int", lambda x: QTPoly.one().reverse(x, 0)),
    ("from_terms/exponent", NOT_NONNEGATIVE, "int", lambda x: QTPoly.from_terms([(0, x, 1)])),
    ("from_terms/coefficient", NOT_DECIMAL, "int", lambda x: QTPoly.from_terms([(0, 0, x)])),
    ("mul_h", NOT_INT, "int", lambda x: mul_h(x, S21)),
    ("hl_vertex", NOT_INT, "int", lambda x: hl_vertex(x, S21)),
    (
        "hl_vertex_snake/k",  # None asks for the default k
        NOT_NONNEGATIVE.filter(lambda x: x is not None),
        "int",
        lambda x: hl_vertex_snake(2, S21, x),
    ),
    ("two_column_hl", NOT_NONNEGATIVE, "int", lambda x: two_column_hl(1, x)),
    ("stem_coefficient", NOT_NONNEGATIVE, "int", lambda x: stem_coefficient(x, 0, 0)),
    ("t_pochhammer", NOT_NONNEGATIVE, "int", lambda x: t_pochhammer(1, 0, x)),
    ("component_groups", NOT_INT, "int", component_groups),
    ("delete_prefix/h", NOT_NONNEGATIVE, "int", lambda x: delete_prefix(x, TAB)),
    ("type_two_col/dominoes", NOT_NONNEGATIVE, "int", lambda x: type_two_col(TAB, x)),
    ("head_tableau/m", NOT_NONNEGATIVE, "int", lambda x: head_tableau(TAB, x)),
    ("unbuild/m", NOT_NONNEGATIVE, "int", lambda x: unbuild(x, BUILT)),
    ("add_row_block/m", NOT_NONNEGATIVE, "int", lambda x: add_row_block(x, RHO, TAB)),
    ("inverse_col_block/m", NOT_NONNEGATIVE, "int", lambda x: inverse_col_block(x, RHO, BUILT)),
    ("classify_pair/n", NOT_NONNEGATIVE, "int", lambda x: classify_pair(x, 2, TAB, RHO)),
    ("add_row_block/rho", NOT_PARTITION, "partition", lambda x: add_row_block(2, x, TAB)),
    ("add_col_block/rho", NOT_PARTITION, "partition", lambda x: add_col_block(2, x, TAB)),
    ("classify_pair/rho", NOT_PARTITION, "partition", lambda x: classify_pair(3, 2, TAB, x)),
    ("pair_involution/rho", NOT_PARTITION, "partition", lambda x: pair_involution(3, 2, TAB, x)),
    ("generic_points/count", NOT_NONNEGATIVE, "int", lambda x: generic_points(x, 0)),
    ("generic_points/seed", NOT_INT, "int", lambda x: generic_points(1, x)),
    ("hl_identity_suite", NOT_POSITIVE, "int", hl_identity_suite),
    ("run_battery/max_n", NOT_POSITIVE, "int", lambda x: run_battery(max_n=x)),
    ("run_battery/oracle_degree", NOT_POSITIVE, "int", lambda x: run_battery(oracle_degree=x)),
    ("run_battery/n_points", NOT_NONNEGATIVE, "int", lambda x: run_battery(n_points=x)),
    ("run_battery/seed", NOT_INT, "int", lambda x: run_battery(seed=x)),
    ("evaluate/q0", NOT_POINT, "point", lambda x: QTPoly.q(1).evaluate(x, T0)),
    ("evaluate/t0", NOT_POINT, "point", lambda x: QTPoly.t(1).evaluate(Q0, x)),
    ("macdonald_oracle/q0", NOT_POINT, "point", lambda x: macdonald_oracle(MU, x, T0)),
    ("kostka_oracle/t0", NOT_POINT, "point", lambda x: kostka_oracle(MU, MU, Q0, x)),
    ("scalar_qt/q0", NOT_POINT, "point", lambda x: scalar_qt(P21, P21, x, T0)),
    ("scalar_t/t0", NOT_POINT, "point", lambda x: scalar_t(P21, P21, x)),
    ("verify_rational_props/a", NOT_NONNEGATIVE, "int", lambda x: verify_rational_props(x, 0, [])),
    ("verify_rational_props/b", NOT_NONNEGATIVE, "int", lambda x: verify_rational_props(0, x, [])),
    (
        "verify_rational_props/points",
        NOT_POINTS,
        "points",
        lambda x: verify_rational_props(0, 0, x),
    ),
    (
        "verify_rational_props/q0",
        NOT_POINT,
        "point",
        lambda x: verify_rational_props(0, 0, [(Q0, T0), (x, T0)]),
    ),
    ("stat_pair/tab", NOT_STANDARD, "tableau", lambda x: stat_pair(MU, x)),
    ("full_type/tab", NOT_STANDARD, "tableau", lambda x: full_type(MU, x)),
    ("conjugate_tableau", NOT_STANDARD, "tableau", conjugate_tableau),
    ("delete_prefix/tab", NOT_STANDARD, "tableau", lambda x: delete_prefix(0, x)),
    ("type_two_col/tab", NOT_STANDARD, "tableau", lambda x: type_two_col(x, 0)),
    ("head_tableau/tab", NOT_STANDARD, "tableau", lambda x: head_tableau(x, 1)),
    ("unbuild/tab", NOT_STANDARD, "tableau", lambda x: unbuild(2, x)),
    ("add_row_block/tab", NOT_STANDARD, "tableau", lambda x: add_row_block(2, RHO, x)),
    ("inverse_row_block/built", NOT_STANDARD, "tableau", lambda x: inverse_row_block(2, RHO, x)),
    ("add_col_block/tab", NOT_STANDARD, "tableau", lambda x: add_col_block(2, RHO, x)),
    ("classify_pair/tab", NOT_STANDARD, "tableau", lambda x: classify_pair(3, 2, x, RHO)),
    ("tableau_charge", NOT_TABLEAU, "tableau", tableau_charge),
    ("row_insert", NOT_TABLEAU, "tableau", lambda x: row_insert(x, 1)),
    ("column_insert", NOT_TABLEAU, "tableau", lambda x: column_insert(x, 1)),
    ("format_tableau", NOT_TABLEAU, "tableau", qtkostka.format_tableau),
    ("charge", NOT_WORD, "word", charge),
    ("rectify", NOT_WORD.filter(lambda w: w not in [(2,), (1, 3), (2, 2, 1)]), "word", rectify),
    ("standard_subwords", NOT_WORD.filter(lambda w: w is not None), "word", standard_subwords),
]


def _warm():
    """Fill the tables the entry points above read with their good arguments."""
    qtkostka.kostka(MU, MU)
    stat_pair(MU, TAB)
    full_type(MU, TAB)
    stat_genfun(MU)
    kostka_oracle(MU, MU, Q0, T0)
    macdonald_oracle(MU, Q0, T0)
    kostka_foulkes(MU, MU)
    hall_littlewood(MU)
    hl_vertex(1, S21)
    mul_h(1, S21)


def _reaches_a_table(kind, value):
    # a sequence of ints passes the type pass before a cached lookup, so
    # the full check runs on the miss: a miss is counted, nothing is stored
    return kind == "partition" and isinstance(value, tuple) and all(type(p) is int for p in value)


@pytest.mark.parametrize(
    "strategy, kind, call", [entry[1:] for entry in ENTRY_POINTS], ids=[e[0] for e in ENTRY_POINTS]
)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_every_entry_point_refuses_bad_input_and_stores_nothing(strategy, kind, call, data):
    _warm()
    bad = data.draw(strategy)
    before = cache_info()
    with pytest.raises((ValueError, TypeError)):
        call(bad)
    after = cache_info()
    assert {k: v["size"] for k, v in after.items()} == {k: v["size"] for k, v in before.items()}
    if not _reaches_a_table(kind, bad):
        assert {k: v["misses"] for k, v in after.items()} == {
            k: v["misses"] for k, v in before.items()
        }


def test_the_checks_raise_one_class_that_is_both_value_and_type_error():
    assert issubclass(InputError, ValueError) and issubclass(InputError, TypeError)
    with pytest.raises(InputError, match=r"lam = \(1, 2\) is not a partition"):
        conjugate((1, 2))
    with pytest.raises(InputError, match=r"n = 2\.0 is not an int >= 0"):
        gaussian_binomial(2.0, 1)
    with pytest.raises(InputError, match=r"q0 = 0\.5 is not an int or a Fraction"):
        QTPoly.one().evaluate(0.5, 1)
    with pytest.raises(InputError, match=r"tab = \(\(1, 1\),\) is not a standard tableau"):
        conjugate_tableau(((1, 1),))
    with pytest.raises(InputError, match=r"points = \[\] is not a nonempty list of \(q0, t0\)"):
        verify_rational_props(0, 0, [])


# each of these answered at the parent commit
GAPS = {
    "conjugate((1, 2)) -> (2,)": lambda: conjugate((1, 2)),
    "dominance_leq((1, 2), (3,)) -> True": lambda: dominance_leq((1, 2), (3,)),
    "charge([True, 1]) -> 0": lambda: charge([True, 1]),
    "rectify([1.0, 2])": lambda: rectify([1.0, 2]),
    "row_insert(((2, 1),), 1)": lambda: row_insert(((2, 1),), 1),
    "column_insert(((1,),), 0) -> ((0, 1),)": lambda: column_insert(((1,),), 0),
    "tableau_charge(((1, 2), (1,))) -> 1": lambda: tableau_charge(((1, 2), (1,))),
    "gaussian_binomial(2.5, 1) -> 1 + t": lambda: gaussian_binomial(2.5, 1),
    "gaussian_binomial(2.0, 1) stored a float key": lambda: gaussian_binomial(2.0, 1),
    "stem_coefficient(1, -3, 0) -> q": lambda: stem_coefficient(1, -3, 0),
    "t_pochhammer(1, 0, -1) -> 1": lambda: t_pochhammer(1, 0, -1),
    "two_column_hl(-1, 0) -> HLExpansion(0)": lambda: two_column_hl(-1, 0),
    "two_column_hl(1, -1) gave terms on non-shapes": lambda: two_column_hl(1, -1),
    "hl_vertex_snake(2, s, -1) -> 0": lambda: hl_vertex_snake(2, S21, -1),
    "component_groups(3.0) answered": lambda: component_groups(3.0),
    "head_tableau(((1, 2), (3,)), True) -> ((1,),)": lambda: head_tableau(((1, 2), (3,)), True),
    "classify_pair(1, 2, ((1,),), (2, 1, True)) -> immaterial": (
        lambda: classify_pair(1, 2, ((1,),), (2, 1, True))
    ),
    "unbuild(2.0, ((1, 2, 3),)) raised a bare TypeError": lambda: unbuild(2.0, ((1, 2, 3),)),
    "stat_pair((2, 1), 5) raised a bare TypeError": lambda: stat_pair((2, 1), 5),
    "full_type((2, 1), ((1, 2), 3)) raised a bare TypeError": (
        lambda: full_type((2, 1), ((1, 2), 3))
    ),
    # a one-shot iterator: the shape pass consumed it and the row pass saw no rows
    "as_standard(iter([(5,)])) passed": lambda: as_standard(iter([(5,)]), "tab"),
    "as_tableau(iter([(5, 3)])) passed": lambda: as_tableau(iter([(5, 3)]), "tab"),
    "head_tableau(iter([(5, 7)]), 0) -> ()": lambda: head_tableau(iter([(5, 7)]), 0),
    "delete_prefix(0, iter([(3,)])) -> ()": lambda: delete_prefix(0, iter([(3,)])),
    # a check over no points passed with nothing checked, and a point that is
    # no pair raised a bare unpacking error
    "verify_rational_props(0, 0, []) -> []": lambda: verify_rational_props(0, 0, []),
    "verify_rational_props(0, 0, [(1,)]) raised a bare ValueError": (
        lambda: verify_rational_props(0, 0, [(1,)])
    ),
    "verify_rational_props(0, 0, [5]) raised a bare TypeError": (
        lambda: verify_rational_props(0, 0, [5])
    ),
    # the strip enumerators once checked nothing before their table lookup
    "horizontal_strips((True,), 1) stored a bool key": lambda: horizontal_strips((True,), 1),
    "vertical_strips((2,), 1.0) stored a float key": lambda: vertical_strips((2,), 1.0),
    "horizontal_strips_inside((2.0,), 1) answered": lambda: horizontal_strips_inside((2.0,), 1),
    "vertical_strips_inside((2,), True) answered": lambda: vertical_strips_inside((2,), True),
}


@pytest.mark.parametrize("probe", list(GAPS))
def test_each_gap_now_raises_and_leaves_the_caches_alone(probe):
    before = cache_info()
    with pytest.raises(InputError):
        GAPS[probe]()
    assert cache_info() == before


def test_a_strip_enumerator_refuses_parts_out_of_order_on_a_miss():
    # horizontal_strips((1, 2), 1) once answered (); the ints reach the table
    # lookup, and the full check on the miss refuses them before anything is stored
    calls = [
        lambda: horizontal_strips((1, 2), 1),
        lambda: vertical_strips((1, 2), 1),
        lambda: horizontal_strips_inside((1, 2), 1),
        lambda: vertical_strips_inside((2, 0), 1),
    ]
    for call in calls:
        before = cache_info()
        with pytest.raises(InputError, match="is not a partition"):
            call()
        assert {k: v["size"] for k, v in cache_info().items()} == {
            k: v["size"] for k, v in before.items()
        }


def test_the_gaps_still_answer_good_input():
    assert conjugate((2, 1, 1)) == (3, 1)
    assert dominance_leq((2, 1), (3,))
    assert charge([2, 1]) == 0 and charge([1, 2]) == 1
    assert rectify([2, 1]) == ((1,), (2,))
    assert row_insert(((1, 2),), 1) == ((1, 1), (2,))
    assert column_insert(((1,),), 1) == ((1, 1),)
    assert tableau_charge(((1, 2), (3,))) == 2
    assert gaussian_binomial(2, 1) == QTPoly.one() + QTPoly.t(1)
    assert gaussian_binomial(2, 3) == QTPoly.zero() == stem_coefficient(1, 0, 2)
    assert t_pochhammer(1, 0, 0) == QTPoly.one()
    assert two_column_hl(0, 0) == two_column_hl(0, 0).unit()
    assert hl_vertex_snake(2, S21, 1) == hl_vertex_snake(2, S21)
    assert len(component_groups(3)) == 4
    assert head_tableau(((1, 2), (3,)), 1) == ((1,),)
    assert classify_pair(1, 2, ((1,),), (3, 1)) == "stable"
    assert classify_pair(3, 2, ((1, 2, 3),), (5, 3)) == "immaterial"
    assert unbuild(2, ((1, 2, 3),)) == ((1,),)
    assert stat_pair((2, 1), ((1, 2), (3,))) == stat_pair((2, 1), [[1, 2], [3]])
    assert full_type((2, 1), ((1, 3), (2,))).text() == "V,S"
    assert is_standard([[1, 2], [3]]) and is_tableau([[1, 1], [2]])
    assert horizontal_strips((1,), 1) == ((1, 1), (2,)) == vertical_strips([1], 1)
    assert horizontal_strips((2, 1), -1) == () == vertical_strips_inside((2,), 3)
    assert horizontal_strips_inside((2, 1), 1) == ((1, 1), (2,))


def test_a_tableau_that_is_its_own_iterator_is_refused():
    # checking it would consume it, valid or not
    for rows in ([(5,)], [(1,)], [(1, 2), (3,)]):
        assert not is_standard(iter(rows)) and not is_tableau(iter(rows))
        assert not is_standard(row for row in rows)
