import json
import random

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
from qtkostka.vertex import HLExpansion, UnsupportedShapeError, classify_shape, kostka, macdonald

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
    assert f.to_json() == {
        "degree": 3,
        "terms": [
            {"lambda": [2, 1], "coeff": [[1, 1, "3"]]},
            {"lambda": [1, 1, 1], "coeff": [[0, 0, "1"]]},
        ],
    }
    assert SchurExpansion().to_json() == {"degree": 0, "terms": []}


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
    assert blob.get("basis") == f.basis and blob["degree"] == (f.degree() or 0)
    terms = {tuple(e["lambda"]): QTPoly.from_terms(e["coeff"]) for e in blob["terms"]}
    assert len(terms) == len(blob["terms"]) and type(f)(terms) == f


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
    # a packed coefficient that cancels entirely is the int 0; unpacking
    # keeps only the nonzero digits
    if f._packing is not None and not all(f._terms.values()):
        return False
    return all(c._terms and all(c._terms.values()) for c in f._coeffs().values())


def test_no_kernel_output_holds_a_zero_after_cancellation():
    # a packed sum that cancels entirely must be dropped, and a digit that
    # cancels must not become an entry when the coefficient is unpacked
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
    packed = {name for name, out in outputs.items() if out._packing is not None}
    assert packed == set(outputs) - {"map"} and not outputs["full"]._terms
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
                        assert out._packing is not None
                        assert mu not in out._terms and _holds_no_zero(out), (op, m, lam, nu)
                        cancelled += 1
    assert cancelled >= 50
    # a cached image holds (t-exponent, coefficient) pairs: no zero coefficient,
    # no exponent twice, and no partition without a pair
    for n in range(8):
        for lam in partitions_of(n):
            for m in range(1, 4):
                for image in (schur._hl_vertex_image(lam, m), schur._hl_vertex_dual_image(lam, m)):
                    for pairs in image.values():
                        exps = [e for e, _ in pairs]
                        assert pairs and all(c for _, c in pairs), (lam, m)
                        assert len(set(exps)) == len(exps) and min(exps) >= 0, (lam, m)


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
    # every exponent pair the kernel unpacks is one tuple object, held in
    # _KEYS; a cached image holds no key tuples, only (t-exponent,
    # coefficient) pairs, so it is read through the operator that applies it
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
                for op, image in (
                    (hl_vertex, schur._hl_vertex_image),
                    (hl_vertex_dual, schur._hl_vertex_dual_image),
                ):
                    out = op(m, s(lam))
                    assert out._packing is not None and set(out._terms) == set(image(lam, m))
                    raws += [c._terms for c in out._coeffs().values()]
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
    assert all(out._packing is not None for out in outputs[:-1])
    for out in outputs:
        for c in out._coeffs().values():
            assert all(schur._KEYS[key] is key for key in c._terms)


# --- the packed kernel: exactness, strides and digit widths -----------------


def _random_poly(rng: random.Random, mag: int = 2**40) -> QTPoly:
    terms = {(rng.randint(0, 60), rng.randint(0, 60)): rng.randint(-mag, mag) for _ in range(5)}
    terms[(rng.randint(40, 60), rng.randint(40, 60))] = rng.choice([-mag, mag])
    return QTPoly(terms)


def _random_expansion(rng: random.Random, n: int) -> SchurExpansion:
    shapes = partitions_of(n)
    chosen = rng.sample(shapes, min(4, len(shapes)))
    return SchurExpansion({lam: _random_poly(rng) for lam in chosen})


def _by_linearity(op, f: SchurExpansion) -> SchurExpansion:
    # op on each basis function, scaled and added by QTPoly arithmetic
    total = SchurExpansion()
    for lam, c in f.terms():
        total = total + op(s(lam)).scaled(c)
    return total


OPERATORS = [
    lambda f: mul_h(2, f),
    lambda f: mul_e(1, f),
    lambda f: skew_h(1, f),
    lambda f: skew_e(2, f),
    lambda f: bernstein(1, f),
    lambda f: hl_vertex(2, f),
    lambda f: hl_vertex_dual(1, f),
    omega,
]


@pytest.mark.parametrize("seed", range(5))
def test_the_packed_kernel_is_exact_on_large_signed_high_degree_coefficients(seed):
    # coefficients up to 2^40 in size, both signs, q- and t-degrees of 40 and more
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    f = _random_expansion(rng, n)
    for op in OPERATORS:
        assert op(f) == _by_linearity(op, f)
    # a packed output fed to the next operator without being unpacked
    first = hl_vertex_dual(2, f)
    assert first._packing is not None
    for op in OPERATORS:
        assert op(first) == _by_linearity(op, _by_linearity(lambda g: hl_vertex_dual(2, g), f))
    # weights as large as the coefficients: their products need wider digits
    pairs = [(_random_poly(rng), _random_expansion(rng, n)) for _ in range(3)] + [(-1, first)]
    total = linear_combination(pair for pair in pairs)
    expected = SchurExpansion()
    for w, g in pairs:
        expected = expected + g.scaled(w)
    assert total._packing[0] > 64 and total == expected


def test_a_chain_whose_t_degree_crosses_a_stride_stays_exact():
    # t-degree 58 packs at stride 64; hl_vertex(1, .) on degree n adds up to n
    f = SchurExpansion({(2, 1): QTPoly({(0, 58): 3, (5, 0): -1}), (3,): QTPoly.monomial(1, 57, 2)})
    chain, strides = [mul_h(1, f)], []  # degree 4, bound 58
    for _ in range(2):  # degree 5, bound 62: stride 64; degree 6, bound 67: 128
        strides.append(chain[-1]._packing[1])
        chain.append(hl_vertex(1, chain[-1]))
    assert strides + [chain[-1]._packing[1]] == [64, 64, 128]
    assert chain[1]._packing[1] == 128  # the packed input was re-laid in place
    expected = mul_h(1, f)
    for g in chain:
        assert g == expected
        expected = _by_linearity(lambda x: hl_vertex(1, x), expected)
    # a later pair that needs a wider stride re-lays the sum built so far
    low, high = mul_h(1, f), mul_h(1, SchurExpansion({(3,): QTPoly.t(60)}))
    assert low._packing[1] == high._packing[1] == 64
    total = linear_combination(iter([(1, low), (QTPoly.t(10), high)]))
    assert total._packing[1] == 128
    assert total == mul_h(1, f) + mul_h(1, s((3,))).scaled(QTPoly.t(70))


def test_a_narrow_digit_widens_and_never_wraps(monkeypatch):
    monkeypatch.setattr(schur, "_DIGIT", 16)
    assert schur._layout(0, 2**15 - 1) == (16, 1) and schur._layout(0, 2**15) == (32, 1)
    with pytest.raises(OverflowError):
        schur._pack({(0, 0): 2**15}, 16, 1)  # a digit that does not fit is refused
    # each coefficient fits a 16-bit digit; the images' sums push past it,
    # so the first sum is formed again at 32 bits
    terms = {(1, 2): 2**14, (0, 3): 1 - 2**14}
    f = SchurExpansion({lam: QTPoly(terms) for lam in partitions_of(4)})
    assert schur._bounds(f) == (3, 2**15 - 1)
    g, widths, expected = f, [], f
    for _ in range(4):
        g, expected = hl_vertex(1, g), _by_linearity(lambda x: hl_vertex(1, x), expected)
        widths.append(g._packing[0])
        assert g == expected
    assert widths[0] == 32 and widths == sorted(widths)
    # the running sum is re-laid wider when a weight would overflow its digits
    small = mul_h(1, SchurExpansion({(2,): 3}))
    assert small._packing[0] == 16
    total = linear_combination(iter([(1, small), (2**20 + 1, small), (-(2**20), small)]))
    assert total._packing[0] > 16 and total == mul_h(1, s((2,))).scaled(6)
    # a zero weight adds nothing, however wide the expansion it weights
    small = mul_h(1, SchurExpansion({(2,): 3}))
    total = linear_combination(iter([(0, s((2,)).scaled(2**40)), (1, small)]))
    assert total == mul_h(1, SchurExpansion({(2,): 3}))


def test_macdonald_keeps_qtpolys_and_a_warm_kostka_never_unpacks(monkeypatch):
    calls = []
    unpack = schur._unpack
    monkeypatch.setattr(schur, "_unpack", lambda *args: calls.append(args) or unpack(*args))
    clear_caches()
    shapes = [(3, 2, 1), (4, 2), (2, 2, 1, 1), (3, 3)]  # the last a conjugate
    for mu in shapes:
        h = macdonald(mu)
        assert h._packing is None and all(type(c) is QTPoly for c in h._terms.values())
    assert calls  # the cold builds unpacked their outputs
    calls.clear()
    for mu in shapes:
        for lam in partitions_of(6):
            assert kostka(lam, mu) == macdonald(mu).coefficient(lam)
    assert calls == []


def test_a_packed_pieri_input_still_counts_its_partitions():
    # the benchmark's tracer reads len(f._terms) on the Pieri operators' inputs
    f = hl_vertex_dual(2, macdonald((2, 1)))
    assert f._packing is not None and len(f._terms) == len(f.terms()) == 6
    g = mul_e(1, hl_vertex(2, macdonald((2, 1))))
    assert g._packing is not None and len(g._terms) == len(g.terms())
