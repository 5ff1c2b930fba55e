import hashlib
import inspect
import json
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtkostka import cache_info, clear_caches, oracle, schur, vertex
from qtkostka.battery import _alternative_extension
from qtkostka.oracle import (
    DegeneratePointError,
    _character,
    _orthogonal_basis,
    count_syt,
    count_syt_enumerated,
    generic_points,
    kostka_foulkes,
    kostka_oracle,
    macdonald_oracle,
    power_coords,
    report_entry,
    scalar_qt,
    scalar_t,
    schur_to_power,
    verify_rational_props,
    z_factor,
)
from qtkostka.partitions import linear_extension, partitions_of
from qtkostka.qtpoly import QTPoly
from qtkostka.tableaux import charge_table, column_strict_tableaux, shape, tableau_charge
from qtkostka.vertex import hall_littlewood, macdonald, stem_coefficient

F = Fraction
Q0, T0 = F(1, 3), F(1, 2)


def test_z_factor():
    assert z_factor(()) == 1
    assert z_factor((1, 1, 1)) == 6
    assert z_factor((2, 1)) == 2
    assert z_factor((3,)) == 3
    assert z_factor((2, 2)) == 8
    assert z_factor((4, 4, 2, 1, 1)) == 4 * 4 * 2 * 2 * 2


def test_character_table_degree_three():
    classes = ((1, 1, 1), (2, 1), (3,))
    assert [_character((3,), c) for c in classes] == [1, 1, 1]
    assert [_character((2, 1), c) for c in classes] == [2, 0, -1]
    assert [_character((1, 1, 1), c) for c in classes] == [1, -1, 1]


def test_character_square():
    classes = ((1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,))
    assert [_character((2, 2), c) for c in classes] == [2, 0, 2, -1, 0]


def test_character_orthogonality():
    for n in range(1, 7):
        shapes = partitions_of(n)
        for lam in shapes:
            for mu in shapes:
                total = sum(
                    F(_character(lam, rho) * _character(mu, rho), z_factor(rho))
                    for rho in shapes
                )
                assert total == (1 if lam == mu else 0)


def test_schur_to_power():
    assert schur_to_power((2,)) == {(2,): F(1, 2), (1, 1): F(1, 2)}
    assert schur_to_power((1, 1)) == {(2,): F(-1, 2), (1, 1): F(1, 2)}
    assert schur_to_power((2, 1)) == {(3,): F(-1, 3), (1, 1, 1): F(1, 3)}


def test_power_coords_is_linear():
    mixed = power_coords({(2,): F(1), (1, 1): F(1)})
    assert mixed == {(1, 1): F(1)}  # s_2 + s_11 = h_1^2 = p_1^2


def test_scalar_qt_on_p1():
    p1 = power_coords({(1,): F(1)})
    assert scalar_qt(p1, p1, Q0, T0) == (1 - Q0) / (1 - T0)


def test_scalar_t_on_p11():
    p11 = {(1, 1): F(1)}
    assert scalar_t(p11, p11, T0) == 2 / (1 - T0) ** 2


def test_schur_orthonormal_at_q_equals_t():
    # the pairing weights collapse to z_rho, the classical Hall pairing
    for lam in partitions_of(4):
        for mu in partitions_of(4):
            v = scalar_qt(schur_to_power(lam), schur_to_power(mu), T0, T0)
            assert v == (1 if lam == mu else 0)


def test_scalar_degenerate_points():
    p1 = {(1,): F(1)}
    p2 = {(2,): F(1)}
    with pytest.raises(DegeneratePointError):
        scalar_t(p1, p1, F(1))
    with pytest.raises(DegeneratePointError):
        scalar_qt(p2, p2, Q0, F(-1))  # 1 - t0^2 = 0


def _scalar_qt_reference(f, g, q0, t0):
    """The pairing with every weight recomputed on the spot."""
    total = F(0)
    for rho, fv in f.items():
        gv = g.get(rho, 0)
        if not gv:
            continue
        weight = F(z_factor(rho))
        for k in rho:
            weight *= (1 - q0**k) / (1 - t0**k)
        total += fv * gv * weight
    return total


def test_scalar_qt_matches_the_uncached_formula():
    for q0, t0 in generic_points(3, seed=11, max_n=6):
        for n in range(7):
            for lam in partitions_of(n):
                f = schur_to_power(lam)
                for mu in partitions_of(n):
                    g = schur_to_power(mu)
                    assert scalar_qt(f, g, q0, t0) == _scalar_qt_reference(f, g, q0, t0)


def test_degenerate_point_raises_on_every_call():
    # a raising call leaves nothing in the weight cache
    p1 = {(1,): F(1)}
    for _ in range(2):
        with pytest.raises(DegeneratePointError):
            scalar_qt(p1, p1, Q0, F(1))
        with pytest.raises(DegeneratePointError):
            scalar_t(p1, p1, F(1))


def test_oracle_degenerate_points():
    with pytest.raises(DegeneratePointError):
        macdonald_oracle((2,), Q0, F(1))
    # q0*t0 = 1 zeroes the Gram-Schmidt norm in degree 2
    with pytest.raises(DegeneratePointError):
        macdonald_oracle((2,), F(1, 2), F(2))
    with pytest.raises(DegeneratePointError):
        kostka_oracle((2,), (2,), Q0, F(1))


def _orthogonal_basis_reference(n, q0, t0, order):
    """Classical Gram-Schmidt in Fractions, one scalar_qt per earlier vector."""
    vecs, powers, norms = {}, {}, {}
    for lam in order:
        v = {lam: F(1)}
        pv = dict(schur_to_power(lam))
        for mu, w in vecs.items():
            c = scalar_qt(pv, powers[mu], q0, t0) / norms[mu]
            if not c:
                continue
            for shape, coord in w.items():
                v[shape] = v.get(shape, F(0)) - c * coord
            for rho, coord in powers[mu].items():
                pv[rho] = pv.get(rho, F(0)) - c * coord
        v = {shape: coord for shape, coord in v.items() if coord}
        pv = {rho: coord for rho, coord in pv.items() if coord}
        norm = scalar_qt(pv, pv, q0, t0)
        if norm == 0:
            raise DegeneratePointError(f"zero norm at {lam} for point ({q0}, {t0})")
        vecs[lam] = v
        powers[lam] = pv
        norms[lam] = norm
    return vecs


def _basis_outcome(basis, n, q0, t0, order):
    try:
        return basis(n, q0, t0, order)
    except DegeneratePointError as exc:
        return ("raised", str(exc))


def test_orthogonal_basis_matches_the_reference_loop():
    cases = [(n, pt) for n in range(8) for pt in generic_points(3, seed=n, max_n=max(n, 1))]
    cases.append((8, generic_points(1, seed=8, max_n=8)[0]))
    for n, (q0, t0) in cases:
        orders = {linear_extension(n), _alternative_extension(n)}
        assert len(orders) == (2 if n >= 6 else 1)
        for order in orders:
            got = _orthogonal_basis(n, q0, t0, order)
            assert got == _orthogonal_basis_reference(n, q0, t0, order), (n, q0, t0)
            assert all(type(c) is Fraction for v in got.values() for c in v.values())


def test_orthogonal_basis_raises_where_the_reference_loop_does():
    # t0 = 1 kills 1 - t0^k; q0 t0 = 1 zeroes the norm of s_2; q0 = 1 every weight
    for q0, t0 in ((Q0, F(1)), (F(1, 2), F(2)), (F(1), T0)):
        raised = 0
        for n in range(1, 6):
            order = linear_extension(n)
            want = _basis_outcome(_orthogonal_basis_reference, n, q0, t0, order)
            assert _basis_outcome(_orthogonal_basis, n, q0, t0, order) == want, (n, q0, t0)
            raised += isinstance(want, tuple)
        assert raised


def _refuse(*args, **kwargs):
    raise AssertionError("the oracle reached schur, vertex or QTPoly arithmetic")


def test_oracle_needs_no_schur_vertex_or_qtpoly_arithmetic(monkeypatch):
    shapes = [mu for n in range(1, 7) for mu in partitions_of(n)]
    want = {mu: macdonald_oracle(mu, Q0, T0) for mu in shapes}
    want_k = {
        (lam, mu): kostka_oracle(lam, mu, Q0, T0) for mu in shapes for lam in partitions_of(sum(mu))
    }
    # every binding of a public schur or vertex function, in every loaded module
    targets = {
        id(obj)
        for module in (schur, vertex)
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and callable(obj)
        and not isinstance(obj, type)
        and getattr(obj, "__module__", None) == module.__name__
    }
    patched = 0
    for name, module in list(sys.modules.items()):
        if name == "qtkostka" or name.startswith("qtkostka."):
            for attr, obj in list(vars(module).items()):
                if id(obj) in targets:
                    monkeypatch.setattr(module, attr, _refuse)
                    patched += 1
    assert patched >= len(targets)
    for method in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__"):
        monkeypatch.setattr(QTPoly, method, _refuse)
    clear_caches()
    for mu in shapes:
        assert macdonald_oracle(mu, Q0, T0) == want[mu]
        for lam in partitions_of(sum(mu)):
            assert kostka_oracle(lam, mu, Q0, T0) == want_k[lam, mu]


def _cache_sizes():
    return {name: entry["size"] for name, entry in cache_info().items()}


def test_oracle_refuses_float_and_bool_points():
    with pytest.raises(TypeError) as evaluate:
        QTPoly.one().evaluate(0.5, F(1, 3))
    p1 = {(1,): F(1)}
    kostka_oracle((2,), (2,), Q0, T0)
    sizes = _cache_sizes()
    calls = [
        lambda: scalar_qt(p1, p1, 0.5, F(1, 3)),
        lambda: scalar_t(p1, p1, 0.5),
        lambda: kostka_oracle((2,), (2,), 0.5, F(1, 3)),
        lambda: macdonald_oracle((2,), 0.25, F(1, 3)),
        lambda: scalar_qt(p1, p1, Q0, True),
        lambda: kostka_oracle((2,), (2,), True, T0),
        lambda: macdonald_oracle((2,), Q0, 0.5),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="is not an int or a Fraction"):
            call()
    with pytest.raises(TypeError) as refused:
        calls[0]()
    assert str(refused.value) == str(evaluate.value)
    assert _cache_sizes() == sizes  # no float became a memo key
    assert scalar_qt(p1, p1, 0, 2) == -1  # ints are points


def test_oracle_refuses_non_partitions():
    calls = [
        lambda: schur_to_power((1, 2)),
        lambda: schur_to_power((True,)),
        lambda: z_factor((1, 2)),
        lambda: macdonald_oracle((1, 2), Q0, T0),
        lambda: macdonald_oracle((True,), Q0, T0),
        lambda: macdonald_oracle((1,), Q0, T0, order=((1.0,),)),
        lambda: macdonald_oracle((1,), Q0, T0, order=((True,),)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="is not a partition"):
            call()
    assert len(cache_info()) == 22
    assert macdonald_oracle([1], Q0, T0) == {(1,): 1 - T0}


def test_extension_is_validated():
    descending = ((3,), (2, 1), (1, 1, 1))
    with pytest.raises(ValueError):
        macdonald_oracle((2, 1), Q0, T0, order=descending)
    repeated = ((2, 1), (2, 1), (1, 1, 1))
    with pytest.raises(ValueError):
        macdonald_oracle((2, 1), Q0, T0, order=repeated)


def test_extension_independence():
    # first dominance-incomparable pair lives at degree 6
    base = linear_extension(6)
    i = base.index((2, 2, 2))
    assert base[i + 1] == (3, 1, 1, 1)
    swapped = base[:i] + (base[i + 1], base[i]) + base[i + 2 :]
    assert macdonald_oracle((2, 2, 1, 1), Q0, T0) == macdonald_oracle(
        (2, 2, 1, 1), Q0, T0, order=swapped
    )


def test_kostka_oracle_column():
    assert kostka_oracle((3,), (2, 1), Q0, T0) == T0
    assert kostka_oracle((2, 1), (2, 1), Q0, T0) == 1 + Q0 * T0
    assert kostka_oracle((1, 1, 1), (2, 1), Q0, T0) == Q0


def test_oracle_matches_vertex_output():
    for n in range(1, 5):
        for mu in partitions_of(n):
            f = macdonald(mu)
            for lam in partitions_of(n):
                want = f.coefficient(lam).evaluate(Q0, T0)
                assert kostka_oracle(lam, mu, Q0, T0) == want


def test_cached_power_macdonald_matches_the_uncached_pairing():
    for q0, t0 in generic_points(3, seed=5, max_n=6):
        for n in range(1, 7):
            for mu in partitions_of(n):
                jmu = power_coords(macdonald_oracle(mu, q0, t0))
                for lam in partitions_of(n):
                    want = scalar_t(jmu, schur_to_power(lam), t0)
                    assert kostka_oracle(lam, mu, q0, t0) == want, (lam, mu, q0, t0)


def test_kostka_oracle_refuses_a_non_partition_mu():
    for mu in [(1, 2), (True, 2), (2.0, 1)]:
        with pytest.raises(ValueError, match="is not a partition"):
            kostka_oracle((2, 1), mu, Q0, T0)
    assert kostka_oracle((2, 1), [2, 1], Q0, T0) == 1 + Q0 * T0


def test_kostka_foulkes_values():
    one = QTPoly.one()
    t = QTPoly.t
    assert kostka_foulkes((1, 1, 1), (1, 1, 1)) == one
    assert kostka_foulkes((2, 1), (1, 1, 1)) == t(1) + t(2)
    assert kostka_foulkes((3,), (1, 1, 1)) == t(3)
    assert kostka_foulkes((3,), (2, 1)) == t(1)
    assert kostka_foulkes((2, 1), (2, 1)) == one
    assert kostka_foulkes((1, 1), (2,)) == QTPoly.zero()
    with pytest.raises(ValueError):
        kostka_foulkes((2,), (1, 1, 1))


def test_kostka_foulkes_rows_match_per_shape_enumeration():
    for n in range(8):
        for nu in partitions_of(n):
            row = charge_table(nu)
            for lam in partitions_of(n):
                want = QTPoly.zero()
                for tab in column_strict_tableaux(nu):
                    if shape(tab) != lam:
                        continue
                    want = want + QTPoly.t(tableau_charge(tab))
                assert row.get(lam, QTPoly.zero()) == want
                assert (lam in row) == bool(want)
                assert kostka_foulkes(lam, nu) == want


def test_non_partition_lam_is_refused():
    for lam in [(1, 2), (2, 1, 0), (True, 2), (2.0, 1)]:
        with pytest.raises(ValueError, match="is not a partition"):
            kostka_foulkes(lam, (2, 1))
        with pytest.raises(ValueError, match="is not a partition"):
            kostka_oracle(lam, (2, 1), F(1, 3), F(2, 7))
    with pytest.raises(ValueError, match="size mismatch"):
        kostka_oracle((2,), (2, 1), Q0, T0)
    assert kostka_foulkes([2, 1], (2, 1)) == QTPoly.one()
    assert kostka_foulkes((1, 1, 1), (2, 1)) == QTPoly.zero()


def test_clear_caches_empties_every_oracle_cache():
    before = kostka_oracle((2, 1), (2, 1), Q0, T0)
    info = {name: v for name, v in cache_info().items() if name.startswith("oracle.")}
    assert set(info) == {
        "oracle.character",
        "oracle.schur_to_power",
        "oracle.orthogonal_basis",
        "oracle.power_macdonald",
        "oracle.pairing_weight",
    }
    assert all(set(v) == {"hits", "misses", "size"} for v in info.values())
    kostka_foulkes((2, 1), (1, 1, 1))
    assert all(cache_info()[name]["size"] > 0 for name in info)
    clear_caches()
    assert all(entry["size"] == 0 for entry in cache_info().values())
    assert kostka_oracle((2, 1), (2, 1), Q0, T0) == before


def test_kostka_foulkes_matches_hall_littlewood():
    for n in range(1, 6):
        for mu in partitions_of(n):
            f = hall_littlewood(mu)
            for lam in partitions_of(n):
                assert f.coefficient(lam) == kostka_foulkes(lam, mu)


def test_count_syt():
    assert count_syt((3, 2)) == 5
    assert count_syt((4, 2)) == 9
    assert count_syt((2, 2, 1)) == 5
    for n in range(1, 7):
        for lam in partitions_of(n):
            assert count_syt(lam) == count_syt_enumerated(lam)
    assert count_syt(()) == 1


@pytest.mark.parametrize("lam", [(True,), (1.0,), (1, 2), (2, 0), (-1,), ("a",)])
def test_count_syt_refuses_a_non_partition(lam):
    # (True,) once gave 1 and (1, 2) an ArithmeticError
    with pytest.raises(ValueError, match="is not a partition"):
        count_syt(lam)


def test_generic_points_deterministic_and_generic():
    pts = generic_points(5, seed=123)
    assert pts == generic_points(5, seed=123)
    assert len(pts) == 5
    for q0, t0 in pts:
        assert 0 < q0 < 1 and 0 < t0 < 1
        for i in range(1, 17):
            for j in range(1, 17):
                assert q0**i != t0**j
    assert generic_points(5, seed=124) != pts


def _double_loop_points(count, seed, max_n, rejected):
    # the pairwise power comparison that the set of powers of q0 replaced
    rng = random.Random(seed)
    bound = 2 * max_n
    points = []
    while len(points) < count:
        v = rng.randint(3, 97)
        q0 = F(rng.randint(2, v - 1), v)
        v = rng.randint(3, 97)
        t0 = F(rng.randint(2, v - 1), v)
        if any(q0**i == t0**j for i in range(1, bound + 1) for j in range(1, bound + 1)):
            rejected.append((q0, t0))
            continue
        if (q0, t0) in points:
            continue
        points.append((q0, t0))
    return points


def test_generic_points_match_the_double_loop():
    rejected = []
    for seed in range(20):
        for max_n in range(4, 10):
            expected = _double_loop_points(8, seed, max_n, rejected)
            assert generic_points(8, seed, max_n=max_n) == expected
    assert rejected  # the rejection branch was taken


@pytest.mark.parametrize(
    "count, max_n", [(-1, 8), (True, 8), (2.0, 8), ("2", 8), (2, True), (2, 8.0), (2, None)]
)
def test_generic_points_refuse_a_bad_count_or_max_n(count, max_n):
    with pytest.raises(ValueError, match="is not an int"):
        generic_points(count, 0, max_n=max_n)
    assert generic_points(0, 0) == []


def test_report_entry_shape():
    good = report_entry("some/check", {"n": 3}, True)
    assert good == {"check": "some/check", "params": {"n": 3}, "status": "pass", "detail": ""}
    bad = report_entry("some/check", {}, False, "mismatch at (2,1)")
    assert bad["status"] == "fail"
    assert bad["detail"] == "mismatch at (2,1)"


def test_rational_tables_at_generic_points():
    entries = verify_rational_props(1, 0, generic_points(2, seed=7))
    assert entries
    assert all(e["status"] == "pass" for e in entries)


@pytest.mark.parametrize("point", [(1, Fraction(1, 3)), (2, Fraction(1, 2)), (Fraction(1, 3), 1)])
def test_rational_tables_name_a_point_that_kills_a_denominator(point):
    # these raised a bare ZeroDivisionError: Fraction(0, 0)
    named = re.escape("a = 0, b = 0, (q0, t0) = ({}, {})".format(*point))
    with pytest.raises(DegeneratePointError, match=named):
        verify_rational_props(0, 0, [point])


def test_rational_tables_refuse_a_degree_past_8():
    for a, b in [(3, 0), (0, 6), (2, 2)]:
        with pytest.raises(ValueError, match="3 \\+ 2a \\+ b <= 8"):
            verify_rational_props(a, b, [(Q0, T0)])


# sha256 of every verify_rational_props(a, b, RATIONAL_POINTS) entry, for all
# 3 + 2a + b <= 8 in order, as canonical JSON; the Fraction arithmetic gave it
RATIONAL_POINTS = [p for s in range(1, 5) for p in generic_points(3, s)]
RATIONAL_POINTS += [(2, 3), (F(-2, 3), F(-1, 5))]
RATIONAL_SHA256 = "2e6256f2c7e730f33c78c5e7f537a4054d2bd6cf2ba49be34af89ee4badc207f"


def test_the_rational_tables_are_pinned_beyond_the_default_points():
    entries = [
        entry
        for a in range(3)
        for b in range(6 - 2 * a)
        for entry in verify_rational_props(a, b, RATIONAL_POINTS)
    ]
    assert len(entries) == 630 and all(e["status"] == "pass" for e in entries)
    canonical = json.dumps(entries, sort_keys=True)
    assert hashlib.sha256(canonical.encode()).hexdigest() == RATIONAL_SHA256


def _rational_failures(monkeypatch, name, fault, a=0, b=0) -> set[str]:
    """The rational families that fail at (a, b) with oracle.name replaced by fault(real)."""
    monkeypatch.setattr(oracle, name, fault(getattr(oracle, name)))
    entries = verify_rational_props(a, b, [(Q0, T0)])
    return {e["check"].removeprefix("rational/") for e in entries if e["status"] == "fail"}


def test_a_wrong_bracket_coefficient_fails_both_row_tables(monkeypatch):
    # the four-row table reads the three-row entries through _three_row_entry
    def fault(real):
        return lambda x, y, i, *point: real(x, y, i, *point) + (1 if i == 1 else 0)

    failed = _rational_failures(monkeypatch, "_bracket_coefficient", fault)
    assert failed == {"three-row-table", "four-row-table"}


def test_a_wrong_stem_coefficient_fails_the_recurrences(monkeypatch):
    def fault(real):
        return lambda x, y, i: real(x, y, i) + (QTPoly.t(1) if (x, y, i) == (2, 1, 1) else 0)

    assert _rational_failures(monkeypatch, "stem_coefficient", fault) == {
        "coefficient-recurrences"
    }


def test_a_wrong_e1_product_fails_the_pieri_decomposition(monkeypatch):
    def fault(real):
        def mul_e(k, f):
            out = real(k, f)
            return out + schur.SchurExpansion.schur((out.degree(),))

        return mul_e

    assert _rational_failures(monkeypatch, "mul_e", fault) == {"e1-decomposition"}


def _random_qtpoly(rng: random.Random) -> QTPoly:
    keys = [(rng.randint(0, 9), rng.randint(0, 9)) for _ in range(rng.randint(0, 6))]
    return QTPoly({key: rng.randint(-50, 50) for key in keys})


POINTS_OF_EVERY_SIGN = [
    (0, F(2, 7)),
    (0, -3),
    (2, 3),
    (-3, 5),
    (F(-2, 3), F(-5, 7)),
    (F(3, 4), F(-1, 9)),
    (F(-7, 2), 0),
]


@pytest.mark.parametrize("point", POINTS_OF_EVERY_SIGN)
def test_the_rational_tables_read_a_polynomial_as_evaluate_does(point):
    rng = random.Random(17)
    p = oracle._Point(*map(F, point), {})
    for _ in range(60):
        poly = _random_qtpoly(rng)
        value = p.value(poly)
        assert value.d > 0 and F(value.n, value.d) == poly.evaluate(*point)
        assert p.value(poly) is value  # read once per point
    for x, y, i in [(2, 1, 1), (3, 0, 2), (1, 4, 0), (2, 0, 3)]:
        value = p.stem(x, y, i)
        assert F(value.n, value.d) == stem_coefficient(x, y, i).evaluate(*point)
        assert p.stem(x, y, i) is value


SMALL_RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=9)


@settings(max_examples=200, deadline=None)
@given(x=SMALL_RATIONALS, y=SMALL_RATIONALS, k=st.integers(-4, 4), m=st.integers(-9, 9))
def test_the_integer_ratios_compute_as_fractions_do(x, y, k, m):
    # built unreduced, as the tables build them: the same value over 3 times its denominator
    rx, ry = (oracle._Ratio(3 * v.numerator, 3 * v.denominator) for v in (x, y))

    def value(r):
        assert r.d > 0
        return F(r.n, r.d)

    assert value(rx + ry) == x + y and value(rx - ry) == x - y and value(-rx) == -x
    assert value(rx * ry) == x * y and value(m * rx) == m * x and value(rx * m) == x * m
    assert value(m + rx) == m + x and value(rx + m) == x + m and value(m - rx) == m - x
    assert (rx == ry) == (x == y) and (rx == m) == (x == m) and bool(rx) == bool(x)
    assert repr(rx) == repr(x)
    if y:
        assert value(rx / ry) == x / y
    else:
        with pytest.raises(ZeroDivisionError):
            rx / ry
    if x or k >= 0:
        assert value(rx**k) == x**k
    else:
        with pytest.raises(ZeroDivisionError):
            rx**k


def _reachable(*roots):
    """Every qtkostka function and class the roots reach through the global
    names their code reads, the closures of their wrappers and the functions
    the wrappers cache or check; an instance is named by its class.  A global
    whose __module__ is not a str (a bound builtin method such as a table's
    setdefault has None) is skipped."""
    seen, stack = {}, list(roots)
    while stack:
        obj = stack.pop()
        module = getattr(obj, "__module__", None)
        if id(obj) in seen or not isinstance(module, str) or not module.startswith("qtkostka"):
            continue
        seen[id(obj)] = obj
        if isinstance(obj, type):
            stack.extend(vars(obj).values())
            continue
        if hasattr(obj, "__wrapped__"):
            stack.append(obj.__wrapped__)
        stack.extend(cell.cell_contents for cell in getattr(obj, "__closure__", None) or ())
        code = getattr(obj, "__code__", None)
        codes = [code] if code else []
        while codes:
            code = codes.pop()
            codes.extend(c for c in code.co_consts if inspect.iscode(c))
            stack.extend(obj.__globals__[n] for n in code.co_names if n in obj.__globals__)
    named = (obj if hasattr(obj, "__qualname__") else type(obj) for obj in seen.values())
    return {f"{obj.__module__}.{obj.__qualname__}" for obj in named}


def test_the_walk_skips_builtin_methods_and_names_instances_by_class():
    # a module-level bound builtin has __module__ None, and an instance no __qualname__
    one = schur.SchurExpansion.unit()
    scope = {"__name__": "qtkostka.probe", "key": {}.setdefault, "one": one}
    exec("def root():\n    return key, one", scope)
    assert _reachable(scope["root"]) == {"qtkostka.probe.root", "qtkostka.schur.SchurExpansion"}


def test_the_gram_schmidt_oracle_reaches_no_vertex_schur_or_stats_code():
    other_routes = ("qtkostka.schur.", "qtkostka.vertex.", "qtkostka.stats.")
    reached = _reachable(macdonald_oracle, kostka_oracle)
    assert not {name for name in reached if name.startswith(other_routes)}
    # the walk follows memo tables, checked wrappers and helpers
    for name in [
        "qtkostka.oracle._orthogonal_basis",
        "qtkostka.oracle._character",
        "qtkostka.oracle._power_macdonald",
        "qtkostka.oracle.schur_to_power",
        "qtkostka.partitions.dominance_leq",
        "qtkostka._checks.as_point",
        "qtkostka._checks.int_parts",
    ]:
        assert name in reached
    # and it sees a route crossing where one exists
    assert "qtkostka.vertex.macdonald" in _reachable(verify_rational_props)
