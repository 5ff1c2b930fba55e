import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtkostka import cache_info, clear_caches, schur
from qtkostka._series import series_bernstein, series_hl_vertex, series_hl_vertex_dual
from qtkostka.partitions import partitions_of
from qtkostka.qtpoly import QTPoly
from qtkostka.schur import (
    SchurExpansion,
    bernstein,
    hl_vertex,
    hl_vertex_dual,
    hl_vertex_snake,
    linear_combination,
    mul_e,
    mul_h,
    omega,
    skew_e,
    skew_h,
)
from qtkostka.vertex import HLExpansion, UnsupportedShapeError, classify_shape, macdonald

one = QTPoly.one()
t = QTPoly.t(1)
s = SchurExpansion.schur
unit = SchurExpansion.unit


def test_expansion_basics():
    f = SchurExpansion({(2, 1): 2, (3,): QTPoly.t(1)})
    assert f.coefficient((2, 1)) == 2 * one
    assert f.coefficient((1, 1, 1)) == QTPoly.zero()
    assert f.terms() == [((3,), t), ((2, 1), 2 * one)]
    assert f.degree() == 3
    assert (f - f) == SchurExpansion()
    assert (-f) + f == SchurExpansion()
    assert f.scaled(3).coefficient((2, 1)) == 6 * one


@pytest.mark.parametrize("key", [(1, 2), (True,), (1.0,), (2, 0), (-1,)])
def test_constructor_refuses_keys_that_are_not_partitions(key):
    with pytest.raises(ValueError, match="is not a partition"):
        SchurExpansion({key: 1})
    with pytest.raises(ValueError, match="is not a partition"):
        SchurExpansion.schur(key)


@pytest.mark.parametrize("key", [(True,), (1.0,), (2, True)])
def test_coefficient_refuses_parts_that_only_hash_like_ints(key):
    # (True,) and (1.0,) hash like (1,), so a plain lookup would answer 5
    f = SchurExpansion({(1,): 5, (2, 1): 1})
    with pytest.raises(ValueError, match="is not a partition"):
        f.coefficient(key)
    assert f.coefficient([1]) == 5 * one and f.coefficient((2,)) == QTPoly.zero()


def test_a_non_partition_never_reaches_the_operators():
    # read as a shape, s_(1,2) would make hl_vertex(2, .) answer -s_(3,1)
    with pytest.raises(ValueError, match="is not a partition"):
        hl_vertex(2, SchurExpansion({(1, 2): 1}))
    f = SchurExpansion({(2, 1): 1, (): 3})
    assert (f + f).coefficient(()) == 6 * one and f.scaled(2) == f + f
    assert f.map_coefficients(lambda c: c * t).coefficient((2, 1)) == t


def test_mixed_degree_rejected():
    f = s((2,)) + s((1,))
    with pytest.raises(ValueError):
        f.degree()


def test_json_round_trip():
    f = SchurExpansion({(2, 1): QTPoly.monomial(1, 1, 3), (1, 1, 1): 1})
    assert SchurExpansion.from_json(f.to_json()) == f


def test_from_json_refuses_bad_shapes_and_degrees():
    def blob(degree, *lams):
        terms = [{"lambda": list(lam), "coeff": [[0, 0, "1"]]} for lam in lams]
        return {"degree": degree, "terms": terms}

    assert SchurExpansion.from_json(blob(3, (2, 1), (3,))) == s((2, 1)) + s((3,))
    assert SchurExpansion.from_json(blob(0)) == SchurExpansion()
    assert SchurExpansion.from_json(blob(0, ())) == unit()
    for lams in [[(1.0,)], [(True,)], [(1, 2)], [(2, 0)]]:
        with pytest.raises(ValueError, match="is not a partition"):
            SchurExpansion.from_json(blob(1, *lams))
    with pytest.raises(ValueError, match="appears twice"):
        SchurExpansion.from_json(blob(3, (2, 1), (2, 1)))
    for bad in [blob(5, (2, 1)), blob(1)]:
        with pytest.raises(ValueError, match="does not match the size"):
            SchurExpansion.from_json(bad)
    for bad in [blob(True, (1,)), blob(3.0, (2, 1)), blob(None)]:
        with pytest.raises(ValueError, match="degree = .* is not an int"):
            SchurExpansion.from_json(bad)
    with pytest.raises(ValueError, match="mixes degrees"):
        SchurExpansion.from_json(blob(3, (2, 1), (1,)))


big_poly = st.dictionaries(
    st.tuples(st.integers(0, 6), st.integers(0, 6)), st.integers(-(10**30), 10**30), max_size=4
).map(QTPoly)


@st.composite
def expansions(draw):
    cls = draw(st.sampled_from([SchurExpansion, HLExpansion]))
    shapes = partitions_of(draw(st.integers(0, 6)))
    return cls(draw(st.dictionaries(st.sampled_from(shapes), big_poly, max_size=5)))


@settings(max_examples=80, deadline=None)
@given(f=expansions())
def test_json_round_trip_is_the_identity(f):
    blob = json.loads(json.dumps(f.to_json()))
    assert type(f).from_json(blob) == f


def test_is_nonnegative():
    assert SchurExpansion({(1,): QTPoly.q(2)}).is_nonnegative()
    assert not SchurExpansion({(1,): QTPoly.q(1) - one}).is_nonnegative()


def test_pieri_rules():
    assert mul_h(2, s((1,))) == s((3,)) + s((2, 1))
    assert mul_e(2, s((1,))) == s((2, 1)) + s((1, 1, 1))
    assert mul_h(0, s((2, 1))) == s((2, 1))
    assert mul_h(3, unit()) == s((3,))
    assert mul_e(3, unit()) == s((1, 1, 1))


def test_skew_rules():
    assert skew_h(1, s((2, 1))) == s((2,)) + s((1, 1))
    assert skew_e(2, s((2, 1))) == s((1,))
    assert skew_h(3, s((2, 1))) == SchurExpansion()
    assert skew_h(0, s((2, 1))) == s((2, 1))


def test_skew_mul_adjoint():
    # <h_k-perp f, g> = <f, h_k g> with Schur orthonormality
    def pairing(f, g):
        total = QTPoly.zero()
        for lam, c in f.terms():
            total = total + c * g.coefficient(lam)
        return total

    f = s((3, 2)) + s((2, 2, 1)).scaled(QTPoly.q(1))
    g = s((2, 1)) + s((3,)).scaled(2)
    assert pairing(skew_h(2, f), g) == pairing(f, mul_h(2, g))
    assert pairing(skew_e(2, f), g) == pairing(f, mul_e(2, g))


def test_bernstein():
    assert bernstein(2, s((1,))) == s((2, 1))
    assert bernstein(3, s((2, 2))) == s((3, 2, 2))
    assert bernstein(0, unit()) == unit()
    # straightening: s_(1,2) and s_(0,1) both vanish
    assert bernstein(1, s((2,))) == SchurExpansion()
    assert bernstein(0, s((1,))) == SchurExpansion()
    # s_(1,3) = -s_(2,2), s_(0,2) = -s_(1,1), s_(-1,1) = -1, s_(-2,1) = -s_(0,-1) = 0,
    # s_(1,3,3) = -s_(2,2,3) = 0 and s_(0,3,3) = -s_(2,1,3) = s_(2,2,2)
    assert bernstein(1, s((3,))) == -s((2, 2))
    assert bernstein(0, s((2,))) == -s((1, 1))
    assert bernstein(-1, s((1,))) == -unit()
    assert bernstein(-2, s((1,))) == SchurExpansion()
    assert bernstein(1, s((3, 3))) == SchurExpansion()
    assert bernstein(0, s((3, 3))) == s((2, 2, 2))


def test_omega():
    f = s((3, 1)) + s((2, 2)).scaled(t)
    assert omega(f) == s((2, 1, 1)) + s((2, 2)).scaled(t)
    assert omega(omega(f)) == f


def test_hl_vertex_values():
    assert hl_vertex(2, s((1,))) == s((2, 1)) + s((3,)).scaled(t)
    assert hl_vertex(2, unit()) == s((2,))
    assert hl_vertex(0, unit()) == unit()


def test_hl_vertex_dual_values():
    assert hl_vertex_dual(2, s((1,))) == s((2, 1)).scaled(t) + s((1, 1, 1))
    assert hl_vertex_dual(2, unit()) == s((1, 1))
    assert hl_vertex_dual(3, unit()) == s((1, 1, 1))


def test_snake_rule_matches_series():
    for n in range(5):
        for lam in partitions_of(n):
            f = s(lam)
            expected = hl_vertex(3, f)
            assert hl_vertex_snake(3, f) == expected
            for k in range(max(0, (lam[0] if lam else 0) - 3), 5):
                assert hl_vertex_snake(3, f, k) == expected


def test_vertex_on_zero():
    assert hl_vertex(2, SchurExpansion()) == SchurExpansion()
    assert hl_vertex_dual(2, SchurExpansion()) == SchurExpansion()


SERIES = [
    (bernstein, series_bernstein),
    (hl_vertex, series_hl_vertex),
    (hl_vertex_dual, series_hl_vertex_dual),
]


@pytest.mark.parametrize("op, series", SERIES, ids=lambda x: getattr(x, "__name__", ""))
def test_cached_images_match_series(op, series):
    # bernstein is public and takes any m; the vertex operators build from m >= 0
    ms = range(-2, 8) if op is bernstein else range(8)
    for n in range(9):
        for lam in partitions_of(n):
            for m in ms:
                assert op(m, s(lam)) == series(m, s(lam)), (op.__name__, lam, m)


@pytest.mark.parametrize("op, series", SERIES, ids=lambda x: getattr(x, "__name__", ""))
def test_repeated_calls_leave_images_unchanged(op, series):
    f = s((2, 1)).scaled(QTPoly.q(1) - 2 * t) + s((1, 1, 1)).scaled(3)
    first = op(2, f)
    assert op(2, f) == first == series(2, f)
    assert op(2, s((2, 1))) == series(2, s((2, 1)))


@pytest.mark.parametrize("op", [bernstein, hl_vertex, hl_vertex_dual])
def test_series_operators_reject_mixed_degrees(op):
    with pytest.raises(ValueError):
        op(2, s((2,)) + s((1,)))


OPERATORS = [mul_h, mul_e, skew_h, skew_e, bernstein, hl_vertex, hl_vertex_dual]
small_poly = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-3, 3), max_size=3
).map(QTPoly)


@st.composite
def homogeneous_pair(draw):
    shapes = partitions_of(draw(st.integers(0, 4)))
    terms = st.dictionaries(st.sampled_from(shapes), small_poly, max_size=4)
    return SchurExpansion(draw(terms)), SchurExpansion(draw(terms))


@settings(max_examples=60, deadline=None)
@given(
    op=st.sampled_from(OPERATORS),
    m=st.integers(-1, 4),
    pair=homogeneous_pair(),
    a=small_poly,
    b=small_poly,
)
def test_operators_are_linear(op, m, pair, a, b):
    f, g = pair
    assert op(m, f.scaled(a) + g.scaled(b)) == op(m, f).scaled(a) + op(m, g).scaled(b)


def test_cache_info_counts_lookups():
    before = cache_info()["schur.hl_vertex_dual_image"]
    hl_vertex_dual(3, s((2, 1)))
    hl_vertex_dual(3, s((2, 1)))
    info = cache_info()
    assert {name for name in info if name.startswith(("schur.", "partitions."))} == {
        "schur.bernstein_image",
        "schur.hl_vertex_image",
        "schur.hl_vertex_dual_image",
        "partitions.horizontal_strips",
        "partitions.vertical_strips",
        "partitions.horizontal_strips_inside",
        "partitions.vertical_strips_inside",
        "partitions.partitions_of",
    }
    assert all(set(entry) == {"hits", "misses", "size"} for entry in info.values())
    after = info["schur.hl_vertex_dual_image"]
    assert after["hits"] + after["misses"] == before["hits"] + before["misses"] + 2
    assert after["hits"] >= before["hits"] + 1 and after["size"] >= 1


@settings(max_examples=60, deadline=None)
@given(pair=homogeneous_pair(), a=small_poly, b=small_poly)
def test_linear_combination_is_the_sum_of_scaled_terms(pair, a, b):
    f, g = pair
    assert linear_combination([(a, f), (b, g), (-1, f)]) == f.scaled(a) + g.scaled(b) - f
    assert linear_combination([]) == SchurExpansion()


def test_linear_combination_consumes_a_one_shot_generator_once():
    f, g = s((2, 1)), s((3,)) + s((1, 1, 1)).scaled(t)
    pairs = [(QTPoly.q(1), f), (2, g), (-1, f)]
    assert linear_combination(pair for pair in pairs) == linear_combination(pairs)
    assert linear_combination(iter(pairs)) == f.scaled(QTPoly.q(1) - one) + g.scaled(2)
    assert linear_combination(pair for pair in []) == SchurExpansion()


def _holds_no_zero(f: SchurExpansion) -> bool:
    return all(c._terms and all(c._terms.values()) for c in f._terms.values())


def test_no_kernel_output_holds_a_zero_after_cancellation():
    # the accumulators become the output coefficients, so a cancelled entry
    # must be deleted from them, and a slot that cancels entirely dropped
    q = QTPoly.q(1)
    f = s((2,)).scaled(one + q) - s((1, 1))  # s(2,1) in mul_h(1, f) keeps only q
    g = s((2,)) - s((1, 1))  # s(2,1) in mul_h(1, g) cancels entirely
    outputs = {
        "full": linear_combination([(one + q, f), (-one - q, f)]),
        "partial": linear_combination([(1, f), (-1, s((2,)))]),
        "pieri": mul_h(1, f),
        "pieri, full": mul_h(1, g),
        "skew": skew_h(1, f),
        "map": macdonald((2, 2)).map_coefficients(lambda c: c.q_zero()),
    }
    assert outputs["full"] == SchurExpansion()
    assert outputs["partial"] == s((2,)).scaled(q) - s((1, 1))
    assert outputs["pieri"].coefficient((2, 1)) == q and (2, 1) not in outputs["pieri, full"]._terms
    assert (1, 1, 1, 1) not in outputs["map"]._terms
    for name, out in outputs.items():
        assert _holds_no_zero(out), name
    # the Jing operators: weight two basis images so that a shared term cancels
    cancelled = 0
    for op in (hl_vertex, hl_vertex_dual):
        for m in (1, 2, 3):
            for lam in partitions_of(4):
                for nu in partitions_of(4):
                    a, b = op(m, s(lam)), op(m, s(nu))
                    for mu in set(a._terms) & set(b._terms) if lam < nu else ():
                        f = s(lam).scaled(b.coefficient(mu)) - s(nu).scaled(a.coefficient(mu))
                        out = op(m, f)
                        assert mu not in out._terms and _holds_no_zero(out), (op, m, lam, nu)
                        cancelled += 1
    assert cancelled >= 50
    for n in range(8):
        for lam in partitions_of(n):
            for m in range(1, 4):
                for image in (schur._hl_vertex_image(lam, m), schur._hl_vertex_dual_image(lam, m)):
                    assert all(raw and all(raw.values()) for raw in image.values()), (lam, m)


def test_linear_combination_takes_schur_expansions_only():
    with pytest.raises(TypeError, match="take a SchurExpansion, not HLExpansion"):
        linear_combination([(1, s((1,))), (1, HLExpansion({(1,): 1}))])


@pytest.mark.parametrize("warm", [False, True])
def test_non_int_degrees_never_reach_the_cached_images(warm):
    # (lam, 2.0) and (lam, True) hash like (lam, 2) and (lam, 1): a warm table
    # would answer them, and a cold one would keep keys such as (2.0, 2, 1)
    f = s((2, 1))
    clear_caches()
    if warm:
        for m in (1, 2, 3):
            bernstein(m, f), hl_vertex(m, f), hl_vertex_dual(m, f)
            mul_h(m, f), mul_e(m, f), skew_h(m, f), skew_e(m, f)
        hl_vertex(1, unit())
    before = json.dumps(cache_info(), sort_keys=True)
    for call in [
        lambda: hl_vertex(2.0, f),
        lambda: hl_vertex(1.0, unit()),
        lambda: hl_vertex_dual(True, f),
        lambda: bernstein(3.0, f),
        lambda: mul_h(True, f),
        lambda: mul_h(False, f),
        lambda: mul_e(1.0, f),
        lambda: skew_h(1.0, f),
        lambda: skew_e(True, f),
        lambda: hl_vertex_snake(2.0, f),
        lambda: hl_vertex_snake(2, f, 1.0),
        lambda: hl_vertex_snake(True, f, 0),
    ]:
        with pytest.raises(ValueError, match="is not an int"):
            call()
    assert json.dumps(cache_info(), sort_keys=True) == before
    h1 = '{"degree": 1, "terms": [{"lambda": [1], "coeff": [[0, 0, "1"]]}]}'
    assert json.dumps(macdonald((1,)).to_json()) == h1


def test_outputs_and_cached_images_share_one_key_per_exponent_pair():
    # every exponent pair the kernel outputs is one tuple object, held in _KEYS
    clear_caches()
    schur._KEYS.clear()
    raws = []
    for n in range(1, 11):
        for mu in partitions_of(n):
            try:
                classify_shape(mu)
            except UnsupportedShapeError:
                continue
            raws += [c._terms for _, c in macdonald(mu).terms()]
    # every Jing image the builds above cached, and the others of those sizes
    for n in range(10):
        for lam in partitions_of(n):
            for m in range(1, min(4, 10 - n) + 1):
                raws += schur._hl_vertex_image(lam, m).values()
                raws += schur._hl_vertex_dual_image(lam, m).values()
    keys = [key for raw in raws for key in raw]
    assert len(keys) > 70_000
    assert len({id(key) for key in keys}) == len(set(keys)) == len(schur._KEYS)


def test_inputs_keyed_by_fresh_tuples_still_give_shared_keys():
    # a key that enters the kernel from outside, or that a Pieri image passes
    # through unshifted, must leave as the one tuple of _KEYS
    macdonald((2, 1))  # puts the pairs below into _KEYS
    pairs = [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert all(pair in schur._KEYS for pair in pairs)
    coeff = QTPoly({(i, j): i - 2 * j - 1 for i, j in pairs})  # keyed by fresh tuples
    assert all(schur._KEYS[key] is not key for key in coeff._terms)
    f = SchurExpansion({(2, 1): coeff, (3,): 1, (1, 1, 1): t})
    assert f.coefficient((2, 1)) is coeff
    outputs = [
        op(k, f)
        for k in (1, 2)
        for op in (mul_h, mul_e, skew_h, skew_e, bernstein, hl_vertex, hl_vertex_dual)
    ]
    outputs += [
        linear_combination([(coeff, s((2,))), (1, f)]),
        linear_combination(iter([(1, f)])),
        f.map_coefficients(lambda c: c),
    ]
    for out in outputs:
        for c in out._terms.values():
            assert all(schur._KEYS[key] is key for key in c._terms)
