"""The full verification battery: every invariant in one deterministic report.

`_report` lists the checks and runs each one, serially, as it is listed; a
check that raises becomes a failing entry rather than an exception.  No two
entries share (check, params), and the report is sorted on that pair, so the
order in which the checks run does not matter and the whole run is
reproducible from the seed.  Checks look library functions up by their
module-level names when they run, so a wrapper installed on this module (a
tracer, a monkeypatch) sees every call.
"""

from __future__ import annotations

import random
from fractions import Fraction

from ._checks import as_int
from ._series import series_hl_vertex
from .oracle import (
    count_syt,
    count_syt_enumerated,
    generic_points,
    kostka_foulkes,
    kostka_oracle,
    macdonald_oracle,
    report_entry,
    verify_rational_props,
)
from .partitions import (
    Partition,
    conjugate,
    dominance_leq,
    first_row_removed,
    format_partition,
    horizontal_strips,
    linear_extension,
    partitions_of,
    remove_snake,
    snake_height,
    snake_involution,
    vertical_strips,
    weighted_size,
)
from .qtpoly import QTPoly
from .schur import (
    SchurExpansion,
    hl_vertex,
    hl_vertex_dual,
    hl_vertex_snake,
    mul_h,
    omega,
    skew_h,
)
from .stats import (
    TypeSequence,
    add_col_block,
    add_row_block,
    classify_pair,
    full_type,
    head_genfun,
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
from .tableaux import (
    charge,
    format_tableau,
    parse_tableau,
    shape,
    standard_subwords,
    standard_tableaux,
    tableau_charge,
)
from .vertex import (
    UnsupportedShapeError,
    classify_shape,
    component_groups,
    hall_littlewood,
    hl_identity_suite,
    kostka,
    macdonald,
    qt_vertex,
    reassembled_vertex,
    row3_hl,
    two_column_hl,
    vertex4,
    vertex4_second_form,
    vertex4_third_form,
)

_T = parse_tableau


def _shapes(n: int):
    """Each supported partition of n with its classify_shape kind."""
    for mu in partitions_of(n):
        try:
            kind = classify_shape(mu)
        except UnsupportedShapeError:
            continue
        yield mu, kind


def _every_lam(n: int, holds) -> tuple[bool, str]:
    """Whether holds(lam) for every partition lam of n, naming the first lam that fails."""
    for lam in partitions_of(n):
        if not holds(lam):
            return False, f"lam={lam}"
    return True, ""


def _diff(lhs: SchurExpansion, rhs: SchurExpansion) -> str:
    bad = []
    for lam in {p for p, _ in lhs.terms()} | {p for p, _ in rhs.terms()}:
        a, b = lhs.coefficient(lam), rhs.coefficient(lam)
        if a != b:
            bad.append(f"s{lam}: {a} != {b}")
    return "; ".join(sorted(bad)[:4])


def _expansions_equal(lhs: SchurExpansion, rhs: SchurExpansion) -> tuple[bool, str]:
    ok = lhs == rhs
    return ok, "" if ok else _diff(lhs, rhs)


# --- worked examples --------------------------------------------------------


def _check_charge_word() -> tuple[bool, str]:
    word = (7, 3, 4, 6, 2, 2, 3, 5, 1, 1, 1, 2, 4, 8)
    subs = standard_subwords(word)
    want = [(7, 3, 6, 2, 5, 1, 4, 8), (4, 2, 3, 1), (1, 2)]
    ok = charge(word) == 9 and sorted(subs) == sorted(want)
    ok = ok and [charge(s) for s in subs] == [6, 2, 1]
    return ok, f"charge={charge(word)} subwords={subs}"


def _check_row_block() -> tuple[bool, str]:
    first = add_row_block(2, (11, 3), _T("1,3,5,6/2,4")) == _T("1,2,4,6,7/3,5,8")
    second = add_row_block(2, (8, 3, 1), _T("1,2,3/4/5")) == _T("1,2,5,7/3,4/6")
    return first and second, f"example1={first} example2={second}"


def _check_col_block() -> tuple[bool, str]:
    got = add_col_block(2, (4, 3, 1, 1, 1, 1, 1, 1, 1), _T("1,3,5,6/2,4"))
    ok = got == _T("1,3,5,7/2,4,6/8")
    return ok, format_tableau(got)


def _check_unbuild() -> tuple[bool, str]:
    one = unbuild(2, _T("1,4,5/2,6/3"))
    two = unbuild(2, one)
    kind = full_type((2, 2, 2), _T("1,4,5/2,6/3"))
    ok = one == _T("1,3/2/4") and two == _T("1,2") and kind.blocks == ("V", "V", "H")
    return ok, f"{format_tableau(one)}; {format_tableau(two)}; {kind.text()}"


def _check_involution_example() -> tuple[bool, str]:
    t0, rho = _T("1,2,3/4/5"), (8, 3, 1)
    status = classify_pair(5, 2, t0, rho)
    that, flipped = pair_involution(5, 2, t0, rho)
    back = pair_involution(5, 2, that, flipped)
    types = {full_type((2, 2, 1), t0).blocks, full_type((2, 2, 1), that).blocks}
    ok = (
        status == "unstable"
        and that == _T("1,2,3,5/4")
        and flipped == (7, 4, 1)
        and back == (t0, rho)
        and types == {("H", "H", "S")}
    )
    return ok, f"{format_tableau(that)}, {flipped}, types {types}"


def _check_snakes() -> tuple[bool, str]:
    facts = [
        remove_snake((5, 4, 2, 2, 1), 4) == (3, 2, 2, 2, 1),
        remove_snake((5, 4, 2, 2, 1), 5) is None,
        snake_involution((5, 5, 2), 10, (13, 5, 4)) == (12, 5, 5),
        snake_involution((5, 5, 2), 10, (12, 5, 5)) == (13, 5, 4),
        snake_involution((4, 2, 1), 5, (8, 3, 1)) == (7, 4, 1),
    ]
    return all(facts), f"facts={facts}"


# --- schur-operator laws ----------------------------------------------------


def _operators_agree(lhs, rhs, degrees) -> tuple[bool, str]:
    """Compare lhs(s_lam) with rhs(s_lam) for every partition lam of each degree."""
    for n in degrees:
        for lam in partitions_of(n):
            f = SchurExpansion.schur(lam)
            left, right = lhs(f), rhs(f)
            if left != right:
                return False, f"lam={lam}: {_diff(left, right)}"
    return True, ""


def _check_commutation_dual(m: int, n_op: int, max_deg: int) -> tuple[bool, str]:
    return _operators_agree(
        lambda f: hl_vertex_dual(n_op, hl_vertex(m, f)),
        lambda f: hl_vertex(m, hl_vertex_dual(n_op, f)).scaled(QTPoly.t(m - 1)),
        range(max_deg + 1),
    )


def _check_commutation_adjacent(m: int, max_deg: int) -> tuple[bool, str]:
    return _operators_agree(
        lambda f: hl_vertex(m, hl_vertex(m + 1, f)),
        lambda f: hl_vertex(m + 1, hl_vertex(m, f)).scaled(QTPoly.t(1)),
        range(max_deg + 1),
    )


def _check_commutation_mixed(m: int, n_op: int, max_deg: int) -> tuple[bool, str]:
    t = QTPoly.t(1)
    return _operators_agree(
        lambda f: hl_vertex(m - 1, hl_vertex(n_op, f)),
        lambda f: (
            hl_vertex(m, hl_vertex(n_op - 1, f)).scaled(t)
            + hl_vertex(n_op, hl_vertex(m - 1, f)).scaled(t)
            - hl_vertex(n_op - 1, hl_vertex(m, f))
        ),
        range(max_deg + 1),
    )


def _check_snake_rule(m: int, n: int, k_bound: int) -> tuple[bool, str]:
    for lam in partitions_of(n):
        f = SchurExpansion.schur(lam)
        series = hl_vertex(m, f)
        lead = lam[0] if lam else 0
        for k in range(max(0, lead - m), k_bound + 1):
            got = hl_vertex_snake(m, f, k)
            if got != series:
                return False, f"lam={lam} k={k}: {_diff(got, series)}"
    return True, ""


def _check_dual_omega(m: int, n: int, t_points) -> tuple[bool, str]:
    # the closed images make hl_vertex_dual a conjugated hl_vertex, so the
    # right side is the series definition, a derivation of its own
    zero = Fraction(0)
    for lam in partitions_of(n):
        f = SchurExpansion.schur(lam)
        lhs = hl_vertex_dual(m, f)
        rhs = omega(series_hl_vertex(m, omega(f)))
        shapes = {p for p, _ in lhs.terms()} | {p for p, _ in rhs.terms()}
        for t0 in t_points:
            for sh in shapes:
                left = lhs.coefficient(sh).evaluate(zero, t0)
                right = t0**n * rhs.coefficient(sh).evaluate(zero, 1 / t0)
                if left != right:
                    return False, f"lam={lam} shape={sh} t0={t0}: {left} != {right}"
    return True, ""


def _check_adjoint(seed: int, max_deg: int) -> tuple[bool, str]:
    rng = random.Random(seed)

    def pairing(f: SchurExpansion, g: SchurExpansion) -> QTPoly:
        total = QTPoly.zero()
        for lam, c in f.terms():
            total = total + c * g.coefficient(lam)
        return total

    def random_expansion(n: int) -> SchurExpansion:
        shapes = partitions_of(n)
        return SchurExpansion(
            {lam: rng.randint(-3, 3) for lam in rng.sample(shapes, min(3, len(shapes)))}
        )

    for trial in range(10):
        k = rng.randint(0, 3)
        n = rng.randint(k, max(k, max_deg))
        f = random_expansion(n)
        g = random_expansion(n - k)
        if pairing(skew_h(k, f), g) != pairing(f, mul_h(k, g)):
            return False, f"trial={trial} k={k} f={f!r} g={g!r}"
    return True, ""


def _check_iterated_charge(mu: Partition) -> tuple[bool, str]:
    built = SchurExpansion.unit()
    for row in reversed(mu):
        built = hl_vertex(row, built)
    return _expansions_equal(built, hall_littlewood(mu))


# --- vertex-operator checks -------------------------------------------------


def _check_stat_genfun(mu: Partition) -> tuple[bool, str]:
    return _expansions_equal(stat_genfun(mu), macdonald(mu))


def _check_positivity(mu: Partition) -> tuple[bool, str]:
    f = macdonald(mu)
    bad = [str(lam) for lam, c in f.terms() if not c.is_nonnegative()]
    return not bad, "; ".join(bad)


def _check_head_component(mu: Partition, heads, op, base: Partition) -> tuple[bool, str]:
    return _expansions_equal(head_genfun(mu, heads), op(macdonald(base)))


def _check_reassembly(m: int, n: int) -> tuple[bool, str]:
    return _operators_agree(lambda f: reassembled_vertex(m, f), lambda f: qt_vertex(m, f), (n,))


def _check_two_column_table(a: int, b: int) -> tuple[bool, str]:
    return _expansions_equal(
        two_column_hl(a, b).to_schur(), macdonald((2,) * a + (1,) * b)
    )


def _check_three_row_table(a: int, b: int) -> tuple[bool, str]:
    return _expansions_equal(
        row3_hl(a, b).to_schur(), macdonald((3,) + (2,) * a + (1,) * b)
    )


def _check_fourth_forms(n: int) -> tuple[bool, str]:
    return _operators_agree(vertex4, vertex4_third_form, (n,))


def _check_fourth_misprint() -> tuple[bool, str]:
    got = vertex4_second_form(SchurExpansion.unit()).coefficient((4,))
    expected = QTPoly.one() - 2 * QTPoly.q(1) + 2 * QTPoly.q(3)
    sound = vertex4(SchurExpansion.unit()).coefficient((4,))
    ok = got == expected and got != sound
    return ok, f"second form s(4) coefficient: {got}"


def _check_conjugate_agreement(mu: Partition) -> tuple[bool, str]:
    rebuilt = omega(macdonald(mu).map_coefficients(lambda c: c.swap_qt()))
    return _expansions_equal(macdonald(conjugate(mu)), rebuilt)


def _check_h1_commutation(a: int, b: int) -> tuple[bool, str]:
    lhs = hl_vertex(1, macdonald((2,) * a + (1,) * b))
    grown = macdonald((2,) * a + (1,) * (b + 1))
    twisted = grown.map_coefficients(
        lambda c: QTPoly.from_terms(
            [(dq, dt - dq + a, coeff) for (dq, dt), coeff in c.terms()]
        )
    )
    return _expansions_equal(lhs, twisted)


# --- specializations --------------------------------------------------------


def _check_kostka_foulkes(mu: Partition) -> tuple[bool, str]:
    return _every_lam(sum(mu), lambda lam: kostka(lam, mu).q_zero() == kostka_foulkes(lam, mu))


def _check_syt_specialization(mu: Partition) -> tuple[bool, str]:
    one = Fraction(1)
    return _every_lam(sum(mu), lambda lam: kostka(lam, mu).evaluate(one, one) == count_syt(lam))


def _check_extreme_shapes(mu: Partition) -> tuple[bool, str]:
    n = sum(mu)
    col = kostka((1,) * n, mu) == QTPoly.q(weighted_size(conjugate(mu)))
    row = kostka((n,), mu) == QTPoly.t(weighted_size(mu))
    return col and row, f"column={col} row={row}"


def _check_duality(mu: Partition) -> tuple[bool, str]:
    bq, bt = weighted_size(conjugate(mu)), weighted_size(mu)
    return _every_lam(
        sum(mu), lambda lam: kostka(lam, mu) == kostka(conjugate(lam), mu).reverse(bq, bt)
    )


# --- oracle -----------------------------------------------------------------


def _check_oracle_agreement(mu: Partition, q0, t0) -> tuple[bool, str]:
    for lam in partitions_of(sum(mu)):
        got = kostka(lam, mu).evaluate(q0, t0)
        want = kostka_oracle(lam, mu, q0, t0)
        if got != want:
            return False, f"lam={lam}: {got} != {want}"
    return True, ""


def _alternative_extension(n: int) -> tuple[Partition, ...]:
    order = list(linear_extension(n))
    for i in range(len(order) - 1):
        a, b = order[i], order[i + 1]
        if not dominance_leq(a, b) and not dominance_leq(b, a):
            order[i], order[i + 1] = b, a
            return tuple(order)
    return tuple(order)


def _check_extension_independence(n: int, q0, t0) -> tuple[bool, str]:
    base = linear_extension(n)
    other = _alternative_extension(n)
    for mu in partitions_of(n):
        if macdonald_oracle(mu, q0, t0, base) != macdonald_oracle(mu, q0, t0, other):
            return False, f"mu={mu}"
    return True, "orders identical" if base == other else "distinct orders agree"


def _check_hooks(n: int) -> tuple[bool, str]:
    return _every_lam(n, lambda lam: count_syt(lam) == count_syt_enumerated(lam))


# --- build pairs ------------------------------------------------------------


def _pairs(n: int, m: int, strips):
    """Every standard tableau tab of size n with each rho in strips(shape(tab), n + m)."""
    for lam in partitions_of(n):
        for tab in standard_tableaux(lam):
            for rho in strips(lam, n + m):
                yield tab, rho


def _skew_size(tab, rho: Partition) -> int:
    return sum(shape(tab)) - sum(first_row_removed(rho))


def _check_round_trip(n: int, m: int, strips, build, inverse) -> tuple[bool, str]:
    count = 0
    for tab, rho in _pairs(n, m, strips):
        if inverse(m, rho, build(m, rho, tab)) != tab:
            return False, f"tab={format_tableau(tab)} rho={rho}"
        count += 1
    return True, f"{count} pairs"


def _check_charge_shift(n: int, m: int) -> tuple[bool, str]:
    shift = m * (m - 1) // 2 + (m - 1) * n
    for tab, rho in _pairs(n, m, horizontal_strips):
        built = add_row_block(m, rho, tab)
        if tableau_charge(built) != tableau_charge(tab) + _skew_size(tab, rho) + shift:
            return False, f"tab={format_tableau(tab)} rho={rho}"
    return True, ""


def _check_type_preserved(n: int, m: int) -> tuple[bool, str]:
    for tab, rho in _pairs(n, m, horizontal_strips):
        reduced = unbuild(m, add_row_block(m, rho, tab))
        if type_two_col(reduced, n // 2) != type_two_col(tab, n // 2):
            return False, f"tab={format_tableau(tab)} rho={rho}"
    return True, ""


def _check_stability(n: int, m: int) -> tuple[bool, str]:
    stable = unstable = immaterial = 0
    for tab, rho in _pairs(n, m, horizontal_strips):
        status = classify_pair(n, m, tab, rho)
        built = add_row_block(m, rho, tab)
        recovers = unbuild(m, built) == tab
        if status == "immaterial":
            immaterial += 1
            continue
        if (status == "stable") != recovers:
            return False, f"conditions split at tab={format_tableau(tab)} rho={rho}"
        if status == "stable":
            stable += 1
            if snake_height(rho, n) != 1:
                return False, f"stable pair with tall snake: rho={rho}"
        else:
            unstable += 1
    return True, f"stable={stable} unstable={unstable} immaterial={immaterial}"


def _check_involution(n: int, m: int) -> tuple[bool, str]:
    splits = [(a, n - 2 * a) for a in range(n // 2 + 1)]
    for tab, rho in _pairs(n, m, horizontal_strips):
        if classify_pair(n, m, tab, rho) != "unstable":
            continue
        built = add_row_block(m, rho, tab)
        that, flipped = pair_involution(n, m, tab, rho)
        where = f"tab={format_tableau(tab)} rho={rho}"
        if classify_pair(n, m, that, flipped) != "unstable":
            return False, f"image not unstable: {where}"
        if pair_involution(n, m, that, flipped) != (tab, rho):
            return False, f"not an involution: {where}"
        if add_row_block(m, flipped, that) != built:
            return False, f"built tableau moved: {where}"
        if type_two_col(that, n // 2) != type_two_col(tab, n // 2):
            return False, f"type changed: {where}"
        if abs(snake_height(rho, n) - snake_height(flipped, n)) != 1:
            return False, f"height step is not 1: {where}"
        for a, b in splits:
            mu = (2,) * a + (1,) * b
            before = stat_pair(mu, tab)[0] + _skew_size(tab, rho)
            after = stat_pair(mu, that)[0] + _skew_size(that, flipped)
            if before != after:
                return False, f"weight changed for mu={mu}: {where}"
    return True, ""


# --- profiles ---------------------------------------------------------------

_PRINTED_PROFILES = {
    (3, 1, 1, 1): {
        ("1,2,3", ("S", "S", "S")): (1, 2, 3, 4, 2, 1, 1),
        ("1,3/2", ("S", "S", "S")): (2, 4, 6, 5, 4, 2, 1),
        ("1,2/3", ("S", "S", "S")): (1, 2, 4, 5, 6, 4, 2),
        ("1/2/3", ("S", "S", "S")): (1, 1, 2, 4, 3, 2, 1),
    },
    (4, 1, 1): {
        ("1,2,3,4", ("S", "S")): (1, 2, 1, 1),
        ("1,3,4/2", ("S", "S")): (2, 4, 2, 1),
        ("1,2,4/3", ("S", "S")): (2, 4, 2, 1),
        ("1,2,3/4", ("S", "S")): (1, 2, 3, 3),
        ("1,2/3,4", ("S", "S")): (1, 2, 2, 1),
        ("1,3/2,4", ("S", "S")): (1, 2, 2, 1),
        ("1,4/2/3", ("S", "S")): (3, 3, 2, 1),
        ("1,3/2/4", ("S", "S")): (1, 2, 4, 2),
        ("1,2/3/4", ("S", "S")): (1, 2, 4, 2),
        ("1/2/3/4", ("S", "S")): (1, 1, 2, 1),
    },
    (3, 2, 2, 1): {
        ("1,2,3", ("H", "H", "S")): (1, 4, 6, 8, 7, 6, 4, 2, 1, 1),
        ("1,3/2", ("H", "H", "S")): (2, 3, 8, 12, 13, 10, 8, 4, 2, 1),
        ("1,2/3", ("H", "H", "S")): (0, 0, 2, 7, 12, 14, 13, 9, 4, 2),
        ("1/2/3", ("H", "H", "S")): (0, 0, 1, 3, 5, 7, 7, 4, 2, 1),
    },
}


def _check_printed_profile(mu: Partition) -> tuple[bool, str]:
    profile = unimodal_profile(mu)
    bad = []
    for (head_text, blocks), expected in _PRINTED_PROFILES[mu].items():
        key = TypeSequence(parse_tableau(head_text), blocks)
        got = profile.get(key)
        if got != expected:
            bad.append(f"{key.text()}: {got} != {expected}")
    return not bad, "; ".join(bad)


def _check_unimodality(mu: Partition) -> tuple[bool, str]:
    profile = unimodal_profile(mu)
    bad = [ts.text() for ts, seq in profile.items() if not is_unimodal(seq)]
    return not bad, "; ".join(bad) if bad else f"{len(profile)} type classes unimodal"


# --- assembly ---------------------------------------------------------------


def _entry(check: str, params: dict, fn, *args) -> dict:
    """Run fn(*args) now and return its entry; an exception becomes a failing entry."""
    try:
        ok, detail = fn(*args)
        return report_entry(check, params, ok, detail)
    except Exception as exc:  # noqa: BLE001 - failures must become entries
        return report_entry(check, params, False, f"{type(exc).__name__}: {exc}")


def _suite(check: str, fn, *args) -> list[dict]:
    """Run a check that returns its own entries; an exception becomes one failing entry."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - failures must become entries
        return [report_entry(check, {}, False, f"{type(exc).__name__}: {exc}")]


def _report(max_n: int, oracle_degree: int, n_points: int, seed: int):
    if max_n < 1:
        return
    points = generic_points(n_points, seed, max_n)
    t_points = [t0 for _, t0 in points]
    small = min(5, max_n)

    for check, fn in (
        ("examples/charge-word", _check_charge_word),
        ("examples/row-block", _check_row_block),
        ("examples/col-block", _check_col_block),
        ("examples/unbuild-type", _check_unbuild),
        ("examples/pair-involution", _check_involution_example),
        ("examples/snake-removal", _check_snakes),
    ):
        yield _entry(check, {}, fn)

    for n in range(1, max_n + 1):
        kinds = dict(_shapes(n))
        direct = {mu for mu, kind in kinds.items() if kind[0] == "direct"}
        for mu in kinds:
            tag = {"mu": format_partition(mu)}
            yield _entry("vertex/positivity", tag, _check_positivity, mu)
            yield _entry("specialization/kostka-foulkes", tag, _check_kostka_foulkes, mu)
            yield _entry("specialization/syt-count", tag, _check_syt_specialization, mu)
            yield _entry("specialization/extreme-shapes", tag, _check_extreme_shapes, mu)
            yield _entry("specialization/duality", tag, _check_duality, mu)
            if n <= oracle_degree:
                for q0, t0 in points:
                    params = {"mu": format_partition(mu), "q0": str(q0), "t0": str(t0)}
                    yield _entry(
                        "oracle/kostka-agreement", params, _check_oracle_agreement, mu, q0, t0
                    )
            if mu in direct:
                yield _entry("stats/generating-function", tag, _check_stat_genfun, mu)
                yield _entry("profile/unimodality", tag, _check_unimodality, mu)
                if mu in _PRINTED_PROFILES:
                    yield _entry("profile/printed-sequences", tag, _check_printed_profile, mu)
                if conjugate(mu) in direct:
                    yield _entry(
                        "vertex/conjugate-agreement", tag, _check_conjugate_agreement, mu
                    )
        yield _entry("oracle/hook-counting", {"n": n}, _check_hooks, n)
        if n <= min(5, oracle_degree):
            yield _entry(
                "oracle/extension-independence",
                {"n": n},
                _check_extension_independence,
                n,
                *points[0],
            )

    for m in (3, 4):
        for a in range((max_n - m) // 2 + 1):
            for b in range(max_n - m - 2 * a + 1):
                mu = (m,) + (2,) * a + (1,) * b
                base = (2,) * a + (1,) * b
                for gamma, heads, op in component_groups(m):
                    label = "+".join(format_tableau(h) for h in heads)
                    tag = {"mu": format_partition(mu), "heads": label, "gamma": gamma}
                    yield _entry(
                        "stats/head-components", tag, _check_head_component, mu, heads, op, base
                    )

    for m in (3, 4):
        for n in range(small + 1):
            yield _entry("vertex/reassembly", {"m": m, "n": n}, _check_reassembly, m, n)

    yield from _suite("hl-identity", hl_identity_suite, max_n)

    for m in range(1, 5):
        for n_op in range(1, 5):
            tag = {"m": m, "n": n_op}
            yield _entry("schur/commutation-dual", tag, _check_commutation_dual, m, n_op, small)
            yield _entry("schur/commutation-mixed", tag, _check_commutation_mixed, m, n_op, small)
        yield _entry("schur/commutation-adjacent", {"m": m}, _check_commutation_adjacent, m, small)

    snake_deg = min(6, max_n)
    for m in (2, 3, 4):
        for n in range(snake_deg + 1):
            yield _entry("schur/snake-rule", {"m": m, "n": n}, _check_snake_rule, m, n, snake_deg)

    for m in range(1, 5):
        for n in range(small + 1):
            yield _entry(
                "schur/dual-omega-law", {"m": m, "n": n}, _check_dual_omega, m, n, t_points
            )

    yield _entry("schur/adjoint-pairing", {"seed": seed}, _check_adjoint, seed, min(6, max_n))

    for n in range(1, min(7, max_n) + 1):
        for mu in partitions_of(n):
            yield _entry(
                "vertex/iterated-charge", {"mu": format_partition(mu)}, _check_iterated_charge, mu
            )

    for a in range(max_n // 2 + 1):
        for b in range(max_n - 2 * a + 1):
            tag = {"a": a, "b": b}
            yield _entry("vertex/two-column-table", tag, _check_two_column_table, a, b)
            if 3 + 2 * a + b <= max_n:
                yield _entry("vertex/three-row-table", tag, _check_three_row_table, a, b)
                yield from _suite("rational", verify_rational_props, a, b, points)
            if 2 * a + b + 1 <= max_n:
                yield _entry("vertex/h1-commutation", tag, _check_h1_commutation, a, b)

    for n in range(small + 1):
        yield _entry("vertex/fourth-operator-forms", {"n": n}, _check_fourth_forms, n)
    yield _entry("vertex/fourth-operator-misprint", {}, _check_fourth_misprint)

    row_blocks = (horizontal_strips, add_row_block, inverse_row_block)
    col_blocks = (vertical_strips, add_col_block, inverse_col_block)
    for n in range(1, small + 1):
        for m in (2, 3, 4):
            for check, fn, *more in (
                ("pairs/row-round-trip", _check_round_trip, *row_blocks),
                ("pairs/col-round-trip", _check_round_trip, *col_blocks),
                ("pairs/charge-shift", _check_charge_shift),
                ("pairs/type-preserved", _check_type_preserved),
                ("pairs/stability", _check_stability),
                ("pairs/involution", _check_involution),
            ):
                yield _entry(check, {"n": n, "m": m}, fn, n, m, *more)


def run_battery(
    max_n: int = 8,
    oracle_degree: int = 6,
    n_points: int = 3,
    seed: int = 0,
) -> list[dict]:
    """Run every check and return the merged report, sorted by check name.

    Deterministic for a fixed seed; failures appear as report entries rather
    than exceptions.  Every argument is an int (not a bool), and n_points is
    at least 1.
    """
    as_int(max_n, "max_n")
    as_int(oracle_degree, "oracle_degree")
    as_int(n_points, "n_points", 1)
    as_int(seed, "seed")
    if max_n > 8:
        raise ValueError("run_battery is bounded at max_n <= 8")
    if oracle_degree > 6:
        raise ValueError("run_battery is bounded at oracle_degree <= 6")
    return sorted(_report(max_n, oracle_degree, n_points, seed), key=_entry_key)


def _entry_key(entry: dict) -> tuple:
    """(check, params) as run_battery sorts on it; no two entries of a report share it."""
    return entry["check"], tuple(sorted((k, str(v)) for k, v in entry["params"].items()))
