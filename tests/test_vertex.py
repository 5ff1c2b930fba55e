import gc
import hashlib
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtkostka import InputError, cache_info, clear_caches, vertex
from qtkostka.partitions import partitions_of
from qtkostka.qtpoly import QTPoly
from qtkostka.schur import SchurExpansion, hl_vertex, hl_vertex_dual, mul_e, mul_h, omega
from qtkostka.vertex import (
    HLExpansion,
    UnsupportedShapeError,
    classify_shape,
    component_groups,
    gaussian_binomial,
    hall_littlewood,
    hl_identity_suite,
    kostka,
    macdonald,
    qt_vertex,
    reassembled_vertex,
    row3_hl,
    stem_coefficient,
    t_pochhammer,
    two_column_hl,
    vertex2,
    vertex3,
    vertex4,
    vertex4_second_form,
    vertex4_third_form,
)

q, t, one = QTPoly.q, QTPoly.t, QTPoly.one()
s = SchurExpansion.schur
unit = SchurExpansion.unit


def expansion(pairs):
    return SchurExpansion(dict(pairs))


def test_classify_shape():
    assert classify_shape((2, 2, 1)) == ("direct", 2, 2, 1)
    assert classify_shape((3, 2, 1, 1)) == ("direct", 3, 1, 2)
    assert classify_shape((4,)) == ("direct", 4, 0, 0)
    assert classify_shape(()) == ("direct", 2, 0, 0)
    assert classify_shape((3, 3, 1)) == ("conjugate", (3, 2, 2))
    with pytest.raises(UnsupportedShapeError) as err:
        classify_shape((3, 3, 2))
    assert "(3,3,2)" in str(err.value)


def test_unsupported_is_unique_at_degree_8():
    bad = []
    for n in range(9):
        for mu in partitions_of(n):
            try:
                classify_shape(mu)
            except UnsupportedShapeError:
                bad.append(mu)
    assert bad == [(3, 3, 2)]


def test_hall_littlewood_values():
    assert hall_littlewood((2, 1))
    assert hall_littlewood((2, 1)) == expansion([((2, 1), one), ((3,), t(1))])
    assert hall_littlewood((1, 1, 1)) == expansion(
        [((1, 1, 1), one), ((2, 1), t(1) + t(2)), ((3,), t(3))]
    )
    assert hall_littlewood((3,)) == s((3,))
    assert hall_littlewood(()) == unit()


def test_macdonald_small_values():
    assert macdonald((2, 1)) == expansion(
        [((3,), t(1)), ((2, 1), one + QTPoly.monomial(1, 1)), ((1, 1, 1), q(1))]
    )
    assert macdonald((1, 1, 1)) == expansion(
        [((3,), t(3)), ((2, 1), t(1) + t(2)), ((1, 1, 1), one)]
    )
    assert macdonald((3,)) == expansion(
        [((3,), one), ((2, 1), q(1) + q(2)), ((1, 1, 1), q(3))]
    )


def test_vertex2_value():
    f = s((2,)) + s((1, 1)).scaled(q(1))
    assert vertex2(f) == expansion(
        [
            ((4,), t(2)),
            ((3, 1), t(1) + QTPoly.monomial(1, 1) + QTPoly.monomial(1, 2)),
            ((2, 2), one + QTPoly.monomial(2, 2)),
            ((2, 1, 1), q(1) + QTPoly.monomial(1, 1) + QTPoly.monomial(2, 1)),
            ((1, 1, 1, 1), q(2)),
        ]
    )


def test_vertex3_on_unit():
    assert vertex3(unit()) == expansion(
        [((3,), one), ((2, 1), q(1) + q(2)), ((1, 1, 1), q(3))]
    )


def test_vertex3_on_s1():
    qt = QTPoly.monomial(1, 1)
    q2t, q3t = QTPoly.monomial(2, 1), QTPoly.monomial(3, 1)
    assert vertex3(s((1,))) == expansion(
        [
            ((4,), t(1)),
            ((3, 1), one + qt + q2t),
            ((2, 2), q(1) + q2t),
            ((2, 1, 1), q(1) + q(2) + q3t),
            ((1, 1, 1, 1), q(3)),
        ]
    )


def test_vertex4_on_unit():
    assert vertex4(unit()) == expansion(
        [
            ((4,), one),
            ((3, 1), q(1) + q(2) + q(3)),
            ((2, 2), q(2) + q(4)),
            ((2, 1, 1), q(3) + q(4) + q(5)),
            ((1, 1, 1, 1), q(6)),
        ]
    )


def test_vertex4_forms():
    for n in range(4):
        for lam in partitions_of(n):
            assert vertex4(s(lam)) == vertex4_third_form(s(lam))
    # the second printed form disagrees: its s_(4) coefficient on 1 is wrong
    coeff = vertex4_second_form(unit()).coefficient((4,))
    assert coeff == one - 2 * q(1) + 2 * q(3)
    assert coeff != vertex4(unit()).coefficient((4,))


def test_qt_vertex_matches_macdonald_growth():
    for a in range(3):
        for b in range(3):
            base = (2,) * a + (1,) * b
            for m in (2, 3, 4):
                if m + 2 * a + b > 7:
                    continue
                grown = (m,) + base if m > 2 else (2,) * (a + 1) + (1,) * b
                assert qt_vertex(m, macdonald(base)) == macdonald(grown)


def test_component_groups_structure():
    for m, count, gammas in ((3, 4, (0, 1, 2, 3)), (4, 8, (0, 1, 2, 3, 3, 4, 5, 6))):
        groups = component_groups(m)
        assert len(groups) == count
        assert tuple(sorted(g for g, _, _ in groups)) == tuple(sorted(gammas))
        heads = [h for _, hs, _ in groups for h in hs]
        assert len(heads) == {3: 4, 4: 10}[m]


def test_reassembly():
    for m in (3, 4):
        for lam in ((), (1,), (2,), (1, 1), (2, 1)):
            assert reassembled_vertex(m, s(lam)) == qt_vertex(m, s(lam))


def test_gaussian_binomial():
    assert gaussian_binomial(4, 2) == QTPoly.from_terms(
        [(0, 0, 1), (0, 1, 1), (0, 2, 2), (0, 3, 1), (0, 4, 1)]
    )
    assert gaussian_binomial(3, 0) == one
    assert gaussian_binomial(3, 4) == QTPoly.zero()
    assert gaussian_binomial(3, -1) == QTPoly.zero()


def test_t_pochhammer():
    assert t_pochhammer(1, 2, 0) == one
    expected = (one - QTPoly.monomial(1, 2)) * (one - QTPoly.monomial(1, 3))
    assert t_pochhammer(1, 2, 2) == expected


def test_stem_coefficients():
    assert stem_coefficient(1, 1, 0) == q(1)
    assert stem_coefficient(1, 1, 1) == one - QTPoly.monomial(1, 2)
    assert stem_coefficient(1, 1, 2) == QTPoly.zero()
    assert stem_coefficient(1, 1, -1) == QTPoly.zero()


def test_two_column_table():
    for a in range(3):
        for b in range(3):
            assert two_column_hl(a, b).to_schur() == macdonald((2,) * a + (1,) * b)


def test_three_row_table():
    assert row3_hl(0, 0).to_schur() == macdonald((3,))
    assert row3_hl(1, 1).to_schur() == macdonald((3, 2, 1))


def test_hl_expansion_json():
    f = two_column_hl(1, 1)
    assert f.to_json() == {
        "basis": "hall-littlewood-t",
        "degree": 3,
        "terms": [
            {"lambda": [2, 1], "coeff": [[0, 0, "1"], [1, 2, "-1"]]},
            {"lambda": [1, 1, 1], "coeff": [[1, 0, "1"]]},
        ],
    }


def test_kostka_entries():
    assert kostka((3,), (2, 1)) == t(1)
    assert kostka((1, 1, 1), (2, 1)) == q(1)
    assert kostka((2, 1), (2, 1)) == one + QTPoly.monomial(1, 1)
    with pytest.raises(ValueError, match="size mismatch"):
        kostka((2,), (2, 1))
    with pytest.raises(ValueError, match="size mismatch"):
        kostka((2, 2), (2, 1))


def test_kostka_rejects_a_non_partition_lam():
    for lam in [(1, 2), (2, 1, 0), (3, 0)]:
        with pytest.raises(ValueError, match=r"lam = \(.*\) is not a partition"):
            kostka(lam, (2, 1))
    assert kostka([2, 1], (2, 1)) == kostka((2, 1), (2, 1))


def test_kostka_conjugate_route():
    # (3,3,1) is reached through its conjugate (3,2,2)
    f = macdonald((3, 3, 1))
    direct = omega(macdonald((3, 2, 2)).map_coefficients(lambda c: c.swap_qt()))
    assert f == direct
    assert f.is_nonnegative()


def test_identity_suite_passes():
    report = hl_identity_suite(6)
    assert report
    assert all(entry["status"] == "pass" for entry in report)
    names = {entry["check"] for entry in report}
    assert "hl-identity/dual4-base" in names
    with pytest.raises(ValueError):
        hl_identity_suite(10)
    with pytest.raises(InputError, match="max_n = -5 is not an int >= 1"):
        hl_identity_suite(-5)  # once a one-entry report that passed


def test_hall_littlewood_accepts_a_list():
    assert hall_littlewood([2, 1]) == hall_littlewood((2, 1)) == s((2, 1)) + s((3,)).scaled(t(1))


def test_macdonald_unchanged_after_clearing_caches():
    shapes = [(2, 2, 1), (3, 2, 1), (4, 2), (2, 1, 1, 1, 1)]
    before = [macdonald(mu) for mu in shapes]
    clear_caches()
    assert all(entry["size"] == 0 for entry in cache_info().values())
    assert [macdonald(mu) for mu in shapes] == before


def test_vertex_built_seed_is_the_charge_expansion():
    f = unit()
    for b in range(1, 11):
        f = hl_vertex(1, f)
        assert f == hall_littlewood((1,) * b), b


def test_macdonald_on_a_fresh_cache_makes_no_hall_littlewood_call(monkeypatch):
    import qtkostka.vertex as vertex

    def refuse(nu):
        raise AssertionError(f"hall_littlewood({nu}) called")

    monkeypatch.setattr(vertex, "hall_littlewood", refuse)
    clear_caches()
    shapes = [(1,), (1, 1, 1), (2, 1, 1), (3, 2, 1), (4, 1, 1), (4, 2), (3, 1, 1, 1)]
    assert all(macdonald(mu) for mu in shapes)
    assert cache_info()["vertex.hall_littlewood"]["misses"] == 0


def test_macdonald_rejects_non_int_parts_whether_or_not_cached():
    macdonald((1,))  # (True,) and (1.0,) hash like (1,)
    for mu in [(True,), (1.0,), (2, True), (2.0, 1)]:
        with pytest.raises(ValueError, match="is not a partition"):
            macdonald(mu)
    for mu in [(1, 2), (2, 0), (-1,)]:
        with pytest.raises(ValueError, match="is not a partition"):
            macdonald(mu)


@pytest.mark.parametrize("warm", [False, True])
def test_bool_and_float_parts_are_refused_whether_or_not_cached(warm):
    # (True,) and (1.0,) hash like (1,): a warm cache would answer them
    clear_caches()
    if warm:
        assert kostka((1,), (1,)) == one and hall_littlewood((1,)) == s((1,))
    assert macdonald.cache_info().currsize == hall_littlewood.cache_info().currsize == warm
    for call in [
        lambda: kostka((True,), (1,)),
        lambda: kostka((1,), (True,)),
        lambda: kostka((1.0,), (1,)),
        lambda: kostka(("a",), (1,)),
        lambda: kostka((1,), ("a",)),
        lambda: hall_littlewood((True,)),
        lambda: hall_littlewood((1.0,)),
    ]:
        with pytest.raises(ValueError, match="is not a partition"):
            call()


def test_macdonald_cache_info_counts_calls():
    before = macdonald.cache_info()
    macdonald((2, 1))
    macdonald((2, 1))
    after = macdonald.cache_info()
    assert after.hits + after.misses == before.hits + before.misses + 2
    assert after.hits >= before.hits + 1


def test_hl_expansion_is_its_own_type():
    f = two_column_hl(1, 1)
    assert isinstance(f, HLExpansion) and isinstance(f, SchurExpansion)
    as_schur = SchurExpansion(dict((nu, c) for nu, c in f.terms()))
    assert f != as_schur and as_schur != f
    with pytest.raises(TypeError):
        f + as_schur
    assert type(f + f) is HLExpansion and f + f == f.scaled(2)
    for op in (lambda g: mul_e(1, g), lambda g: hl_vertex(2, g), omega):
        with pytest.raises(TypeError, match="take a SchurExpansion, not HLExpansion"):
            op(f)
    assert repr(HLExpansion({(1,): 1})) == "HLExpansion((1)*H(1,))"
    assert repr(HLExpansion()) == "HLExpansion(0)"
    assert "basis" not in macdonald((2, 1)).to_json()


# --- the row operators against their chain forms ------------------------------


def chain_vertex2(f):
    """vertex2 as a chain of SchurExpansion arithmetic, before it used one accumulation."""
    return hl_vertex(2, f) + hl_vertex_dual(2, f).scaled(q(1))


def chain_vertex3(f):
    h3, b3 = hl_vertex(3, f), hl_vertex_dual(3, f)
    h2, b2 = hl_vertex(2, f), hl_vertex_dual(2, f)
    return (
        h3
        + (mul_e(1, h2) - h3).scaled(q(1))
        + (mul_e(1, b2) - b3).scaled(q(2))
        + b3.scaled(q(3))
    )


def chain_vertex4(f):
    h4, b4 = hl_vertex(4, f), hl_vertex_dual(4, f)
    h3, b3 = hl_vertex(3, f), hl_vertex_dual(3, f)
    h2, b2 = hl_vertex(2, f), hl_vertex_dual(2, f)
    return (
        h4
        + (mul_h(1, h3) - h4).scaled(q(1))
        + (mul_h(2, h2) - h4).scaled(q(2))
        + (mul_e(2, h2) - mul_e(1, h3) + h4).scaled(q(3))
        + (mul_h(2, b2) - mul_h(1, b3) + b4).scaled(q(3))
        + (mul_e(2, b2) - b4).scaled(q(4))
        + (mul_e(1, b3) - b4).scaled(q(5))
        + b4.scaled(q(6))
    )


CHAINS = [(vertex2, chain_vertex2), (vertex3, chain_vertex3), (vertex4, chain_vertex4)]


@pytest.mark.parametrize("op, chain", CHAINS, ids=["vertex2", "vertex3", "vertex4"])
def test_row_operators_match_their_chain_forms_on_every_schur_function(op, chain):
    for n in range(7):
        for lam in partitions_of(n):
            assert op(s(lam)) == chain(s(lam)), lam


small_poly = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(-4, 4), max_size=3
).map(QTPoly)


@st.composite
def homogeneous(draw):
    shapes = partitions_of(draw(st.integers(0, 4)))
    return SchurExpansion(draw(st.dictionaries(st.sampled_from(shapes), small_poly, max_size=4)))


@settings(max_examples=40, deadline=None)
@given(f=homogeneous(), which=st.sampled_from(CHAINS))
def test_row_operators_match_their_chain_forms(f, which):
    op, chain = which
    assert op(f) == chain(f)


def _supported_shapes(max_n):
    for n in range(max_n + 1):
        for mu in partitions_of(n):
            try:
                classify_shape(mu)
            except UnsupportedShapeError:
                continue
            yield mu


# sha256 of macdonald(mu).to_json() over the 118 supported shapes with n <= 10,
# computed before vertex2/3/4 were folded into one accumulation each
MACDONALD_DIGEST = "135ffd89568306a6396f89438e3eaa3de282e34c140207ebad8b6601b2337cfe"


def test_macdonald_matches_the_pinned_digest():
    clear_caches()
    h = hashlib.sha256()
    shapes = list(_supported_shapes(10))
    assert len(shapes) == 118
    for mu in shapes:
        h.update(json.dumps(macdonald(mu).to_json(), sort_keys=True).encode())
    assert h.hexdigest() == MACDONALD_DIGEST


# --- the row operators stream their terms -------------------------------------

JING, DUAL = "hl_vertex", "hl_vertex_dual"
STREAMS = {
    vertex2: [JING, "used", DUAL, "used"],
    vertex3: [JING, "used", DUAL, "used", JING, "mul_e", "used", DUAL, "mul_e", "used"],
    vertex4: [JING, "used", DUAL, "used"]
    + [op for g in (JING, DUAL, JING, DUAL) for op in (g, "mul_h", "used", "mul_e", "used")],
}


@pytest.mark.parametrize("op", STREAMS, ids=["vertex2", "vertex3", "vertex4"])
def test_each_term_is_summed_before_the_next_operator_output_is_made(op, monkeypatch):
    # a term built ahead of its turn would be held while others are built; each
    # Jing image that feeds two Pieri terms is the only output made before a use
    f = macdonald((2, 2, 1))
    expected = op(f)
    log = []

    def made(name, fn):
        def logged(*args):
            log.append(name)
            return fn(*args)

        return logged

    for name in ("hl_vertex", "hl_vertex_dual", "mul_h", "mul_e"):
        monkeypatch.setattr(vertex, name, made(name, getattr(vertex, name)))
    summed = vertex.linear_combination

    def pulled(pairs):
        for pair in pairs:
            log.append("used")
            yield pair

    monkeypatch.setattr(vertex, "linear_combination", lambda pairs: summed(pulled(pairs)))
    assert op(f) == expected
    assert log == STREAMS[op]


def test_the_fourth_operator_peaks_below_twice_what_it_keeps():
    # building all ten terms before summing them peaked at 2.4 times
    clear_caches()
    f = macdonald((2, 2, 2, 1))
    gc.collect()
    tracemalloc.start()
    try:
        g = qt_vertex(4, f)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g and peak <= 2 * retained, (peak, retained)
