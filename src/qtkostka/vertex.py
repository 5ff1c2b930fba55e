"""Vertex-operator construction of the Macdonald functions H_mu[X;q,t].

Shapes with at most one part larger than 2 (and that part at most 4) are
built from the constant 1 by vertex operators alone: Jing's operator
`hl_vertex(1, .)` b times gives the Hall-Littlewood base H_(1^b)[X;t], a
two-column creation operator adds the columns of height 2, and a row-adding
operator finishes; all other supported shapes are conjugates of these.
Hall-Littlewood expansions of the same functions, with coefficients given by
closed q,t-binomial formulas, provide an independent route used by the
checks: they are `HLExpansion`s, a `SchurExpansion` tagged with the
Hall-Littlewood basis, and `to_schur` converts them through the charge
expansion of `hall_littlewood`, which `macdonald` never calls.
"""

from __future__ import annotations

from typing import Callable, Optional

from ._cache import memo, memo_checked
from ._checks import as_int, as_partition, int_parts
from .partitions import Partition, classify_shape, is_partition
from .partitions import UnsupportedShapeError  # noqa: F401  (re-exported from partitions)
from .qtpoly import QTPoly
from .schur import (
    SchurExpansion,
    hl_vertex,
    hl_vertex_dual,
    linear_combination,
    mul_e,
    mul_h,
    omega,
)
from .tableaux import Tableau, _charge_table


def vertex2(f: SchurExpansion) -> SchurExpansion:
    """The operator H_2^t + q Hbar_2^t prepending a column of height <= 2."""
    ops = ((1, hl_vertex), (QTPoly.q(1), hl_vertex_dual))
    return linear_combination((c, op(2, f)) for c, op in ops)


def vertex3(f: SchurExpansion) -> SchurExpansion:
    """The row-3 creation operator, expanded in powers of q:
    h3 + q (e_1 h2 - h3) + q^2 (e_1 b2 - b3) + q^3 b3, with hm, bm the
    vertex operator and its dual at row size m.  Each term is summed as it
    is built and then dropped."""
    q, one = QTPoly.q, QTPoly.one()

    def terms():
        yield one - q(1), hl_vertex(3, f)
        yield q(3) - q(2), hl_vertex_dual(3, f)
        yield q(1), mul_e(1, hl_vertex(2, f))
        yield q(2), mul_e(1, hl_vertex_dual(2, f))

    return linear_combination(terms())


def vertex4(f: SchurExpansion) -> SchurExpansion:
    """The row-4 creation operator, expanded in powers of q:
    h4 + q (h_1 h3 - h4) + q^2 (h_2 h2 - h4) + q^3 (e_2 h2 - e_1 h3 + h4)
    + q^3 (h_2 b2 - h_1 b3 + b4) + q^4 (e_2 b2 - b4) + q^5 (e_1 b3 - b4) + q^6 b4,
    collected by operator; h4 and b4 carry (1 - q)(1 - q^2) and q^3 times it.
    Each term is summed as it is built and then dropped; h3, b3, h2 and b2
    live only until both of their Pieri terms are summed."""
    q, one = QTPoly.q, QTPoly.one()

    def terms():
        top = (one - q(1)) * (one - q(2))
        yield top, hl_vertex(4, f)
        yield top * q(3), hl_vertex_dual(4, f)
        for op, m, c_h, c_e in (
            (hl_vertex, 3, q(1), -q(3)),
            (hl_vertex_dual, 3, -q(3), q(5)),
            (hl_vertex, 2, q(2), q(3)),
            (hl_vertex_dual, 2, q(3), q(4)),
        ):
            g = op(m, f)
            yield c_h, mul_h(4 - m, g)
            yield c_e, mul_e(4 - m, g)
            del g

    return linear_combination(terms())


def vertex4_third_form(f: SchurExpansion) -> SchurExpansion:
    """The factored rewriting of vertex4 through vertex3 and vertex2."""
    q = QTPoly.q
    one = QTPoly.one()
    h4, b4 = hl_vertex(4, f), hl_vertex_dual(4, f)
    head = (h4 + b4.scaled(q(3))).scaled((one - q(1)) * (one - q(2)))
    v3 = vertex3(f)
    v2 = vertex2(f)
    middle = mul_e(1, v3).scaled(q(1) + q(2))
    tail = mul_e(2, v2).scaled(q(2)) + mul_h(2, v2).scaled(q(3))
    return head + middle - tail


def vertex4_second_form(f: SchurExpansion) -> SchurExpansion:
    """A differently grouped printed variant of vertex4.

    As printed this expression disagrees with vertex4 (on the constant 1
    its s_(4) coefficient is 1 - 2q + 2q^3); it is provided so the
    discrepancy can be detected, and is never used to build anything.
    """
    q = QTPoly.q
    one = QTPoly.one()
    h4, b4 = hl_vertex(4, f), hl_vertex_dual(4, f)
    h3, b3 = hl_vertex(3, f), hl_vertex_dual(3, f)
    h2, b2 = hl_vertex(2, f), hl_vertex_dual(2, f)
    head = (h4 + b4.scaled(q(3))).scaled((one - q(1)) * (one - q(2)))
    middle = mul_e(1, h3 - b3.scaled(q(2))).scaled(q(1) * (one - q(2)))
    inner = h2 + b2.scaled(q(1))
    tail = (mul_h(2, inner) + mul_e(2, inner).scaled(q(1))).scaled(q(2))
    return head - middle + tail


def qt_vertex(m: int, f: SchurExpansion) -> SchurExpansion:
    if as_int(m, "m") == 2:
        return vertex2(f)
    if m == 3:
        return vertex3(f)
    if m == 4:
        return vertex4(f)
    raise ValueError(f"no q,t vertex operator for row size {m}")


# --- head components -------------------------------------------------------

_T = Tableau
_Operator = Callable[[SchurExpansion], SchurExpansion]


def component_groups(m: int) -> list[tuple[int, tuple[_T, ...], _Operator]]:
    """The q-graded pieces of qt_vertex(m), keyed by the head tableaux whose
    statistics they generate.  Two size-4 groups carry a pair of heads that
    only occur combined."""
    if as_int(m, "m") == 3:
        return [
            (0, (((1, 2, 3),),), lambda f: hl_vertex(3, f)),
            (1, (((1, 3), (2,)),), lambda f: mul_e(1, hl_vertex(2, f)) - hl_vertex(3, f)),
            (
                2,
                (((1, 2), (3,)),),
                lambda f: mul_e(1, hl_vertex_dual(2, f)) - hl_vertex_dual(3, f),
            ),
            (3, (((1,), (2,), (3,)),), lambda f: hl_vertex_dual(3, f)),
        ]
    if m == 4:
        return [
            (0, (((1, 2, 3, 4),),), lambda f: hl_vertex(4, f)),
            (
                1,
                (((1, 3, 4), (2,)),),
                lambda f: mul_h(1, hl_vertex(3, f)) - hl_vertex(4, f),
            ),
            (
                2,
                (((1, 2, 4), (3,)), ((1, 2), (3, 4))),
                lambda f: mul_h(2, hl_vertex(2, f)) - hl_vertex(4, f),
            ),
            (
                3,
                (((1, 2, 3), (4,)),),
                lambda f: mul_h(2, hl_vertex_dual(2, f))
                - mul_h(1, hl_vertex_dual(3, f))
                + hl_vertex_dual(4, f),
            ),
            (
                3,
                (((1, 4), (2,), (3,)),),
                lambda f: mul_e(2, hl_vertex(2, f))
                - mul_e(1, hl_vertex(3, f))
                + hl_vertex(4, f),
            ),
            (
                4,
                (((1, 3), (2, 4)), ((1, 3), (2,), (4,))),
                lambda f: mul_e(2, hl_vertex_dual(2, f)) - hl_vertex_dual(4, f),
            ),
            (
                5,
                (((1, 2), (3,), (4,)),),
                lambda f: mul_e(1, hl_vertex_dual(3, f)) - hl_vertex_dual(4, f),
            ),
            (6, (((1,), (2,), (3,), (4,)),), lambda f: hl_vertex_dual(4, f)),
        ]
    raise ValueError(f"no component table for head size {m}")


def reassembled_vertex(m: int, f: SchurExpansion) -> SchurExpansion:
    """Sum of q^gamma times each component group; must equal qt_vertex(m, f)."""
    return linear_combination((QTPoly.q(gamma), op(f)) for gamma, _, op in component_groups(m))


# --- Macdonald functions ----------------------------------------------------


@memo_checked(int_parts)
def hall_littlewood(nu: Partition) -> SchurExpansion:
    """H_nu[X;t] expanded in Schur functions via charge."""
    return SchurExpansion._of(dict(_charge_table(nu)))  # nu in full on a miss, in the table


@memo_checked(int_parts)
def macdonald(mu: Partition) -> SchurExpansion:
    """The Macdonald function H_mu[X;q,t] in the Schur basis."""
    # the full partition check runs on a miss, in classify_shape
    kind = classify_shape(mu)
    if kind[0] == "conjugate":
        base = macdonald(kind[1])
        return omega(base.map_coefficients(lambda p: p.swap_qt()))
    _, m, a, b = kind
    f = SchurExpansion.unit()
    for _ in range(b):  # H_(1^b)[X;t], one column cell at a time
        f = hl_vertex(1, f)
    for _ in range(a):
        f = vertex2(f)
    if m > 2:
        f = vertex3(f) if m == 3 else vertex4(f)
    f._coeffs()  # the table keeps QTPolys, never a packed copy
    return f


def kostka(lam: Partition, mu: Partition) -> QTPoly:
    """The q,t-Kostka coefficient K_{lam,mu}(q,t)."""
    # macdonald runs int_parts on mu and leaves its table unpacked; every
    # partition of |mu| has a nonzero coefficient, so only a miss needs the
    # checks, which read mu again: an iterator is copied first
    lam = int_parts(lam)
    mu = mu if type(mu) is tuple else tuple(mu)
    coeff = macdonald(mu)._terms.get(lam)
    if coeff is None:
        if sum(lam) != sum(mu):
            raise ValueError(f"size mismatch: |{lam}| != |{mu}|")
        as_partition(lam, "lam")
        return QTPoly.zero()
    return coeff


# --- Hall-Littlewood expansions with closed coefficients --------------------


class HLExpansion(SchurExpansion):
    """A linear combination of Hall-Littlewood functions H_nu[X;t]."""

    basis = "hall-littlewood-t"
    __slots__ = ()
    _letter = "H"

    def to_schur(self) -> SchurExpansion:
        return _hl_to_schur(self.terms())


def _hl_to_schur(terms) -> SchurExpansion:
    """The Schur expansion of the sum of coeff * H_nu[X;t] over (nu, coeff) pairs."""
    return linear_combination((coeff, hall_littlewood(nu)) for nu, coeff in terms)


def gaussian_binomial(n: int, k: int) -> QTPoly:
    """The t-binomial coefficient [n choose k]_t, zero for k outside 0..n."""
    return _gaussian_binomial(as_int(n, "n", 0), as_int(k, "k"))


@memo
def _gaussian_binomial(n: int, k: int) -> QTPoly:
    """gaussian_binomial without the checks, by the Pascal recurrence (no division)."""
    if k < 0 or k > n:
        return QTPoly.zero()
    if k == 0 or k == n:
        return QTPoly.one()
    return _gaussian_binomial(n - 1, k - 1) + QTPoly.t(k) * _gaussian_binomial(n - 1, k)


def t_pochhammer(dq: int, dt: int, length: int) -> QTPoly:
    """(x; t)_length for x = q^dq t^dt: the product of (1 - x t^j), j < length."""
    return _t_pochhammer(as_int(dq, "dq", 0), as_int(dt, "dt", 0), as_int(length, "length", 0))


def _t_pochhammer(dq: int, dt: int, length: int) -> QTPoly:
    out = QTPoly.one()
    for j in range(length):
        out = out * (QTPoly.one() - QTPoly._trusted({(dq, dt + j): 1}))
    return out


def stem_coefficient(a: int, b: int, i: int) -> QTPoly:
    """Coefficient of H_(2^i 1^(b+2a-2i))[X;t] in H_(2^a 1^b)[X;q,t], zero for i not in 0..a."""
    return _stem_coefficient(as_int(a, "a", 0), as_int(b, "b", 0), as_int(i, "i"))


def _stem_coefficient(a: int, b: int, i: int) -> QTPoly:
    if i < 0 or i > a:
        return QTPoly.zero()
    return QTPoly.q(a - i) * _t_pochhammer(1, a + b - i + 1, i) * _gaussian_binomial(a, i)


def two_column_hl(a: int, b: int) -> HLExpansion:
    """H_(2^a 1^b)[X;q,t] expanded in the Hall-Littlewood basis."""
    as_int(a, "a", 0)
    as_int(b, "b", 0)
    # no stem coefficient for i in 0..a is zero
    return HLExpansion._of(
        {(2,) * i + (1,) * (b + 2 * a - 2 * i): _stem_coefficient(a, b, i) for i in range(a + 1)}
    )


def row3_hl(a: int, b: int) -> HLExpansion:
    """H_(3 2^a 1^b)[X;q,t] expanded in the Hall-Littlewood basis."""
    as_int(a, "a", 0)
    as_int(b, "b", 0)
    q, t, one = QTPoly.q, QTPoly.t, QTPoly.one()
    terms: dict[Partition, QTPoly] = {}

    def put(nu: Partition, coeff: QTPoly) -> None:
        if coeff:
            terms[nu] = terms.get(nu, QTPoly.zero()) + coeff

    head = (one - q(2) * t(a + b + 1)) * (one - q(1) * t(a + 1))
    for i in range(a + 1):
        put((3,) + (2,) * i + (1,) * (2 * a + b - 2 * i), _stem_coefficient(a, b, i) * head)
    put((1,) * (2 * a + b + 3), q(a + 3))
    for i in range(1, a + 3):
        ones = 2 * a + b + 3 - 2 * i
        coeff = (
            q(1) * _stem_coefficient(a + 1, b, i)
            + (one - t(2 * a + b + 4 - 2 * i)) * q(1) * _stem_coefficient(a + 1, b, i - 1)
            + q(2) * (q(1) - one) * _stem_coefficient(a, b, i) * t(i)
            - q(2) * (q(1) - one) * _stem_coefficient(a, b, i - 1) * t(2 * a + b + 2 - i) * (one + t(1))
            - q(2)
            * (q(1) - one)
            * _stem_coefficient(a, b, i - 2)
            * t(2 * a + b + 3 - i)
            * (one - t(2 * a + b + 4 - 2 * i))
        )
        if ones < 0:
            if coeff:
                raise RuntimeError(
                    f"row3 expansion at a={a}, b={b}: nonzero weight on invalid shape"
                )
            continue
        put((2,) * i + (1,) * ones, coeff)
    return HLExpansion._of({nu: c for nu, c in terms.items() if c})  # a sum may cancel


# --- Hall-Littlewood operator identities ------------------------------------


def _omt(k: int) -> QTPoly:
    """1 - t^k (k must be nonnegative; zero gives the zero polynomial)."""
    if k < 0:
        raise ValueError(f"negative exponent {k}")
    return QTPoly.one() - QTPoly.t(k)


def _prod(*factors) -> QTPoly:
    """Product with lazy factors; short-circuits at zero so that guarded
    factors with otherwise-invalid exponents are never evaluated."""
    out = QTPoly.one()
    for factor in factors:
        if not out:
            return out
        value = factor() if callable(factor) else factor
        out = out * value
    return out


def _sh(*groups: tuple[int, int]) -> Optional[Partition]:
    """Build a shape from (part, multiplicity) groups; None when invalid."""
    rows: list[int] = []
    for value, count in groups:
        if count < 0:
            return None
        rows.extend([value] * count)
    sh = tuple(rows)
    return sh if is_partition(sh) else None


def _identity_entry(name: str, params: dict, lhs: SchurExpansion, rhs_terms) -> dict:
    rhs_terms = [(nu, coeff) for coeff, nu in rhs_terms if coeff]
    if any(nu is None for nu, _ in rhs_terms):
        return {
            "check": name,
            "params": params,
            "status": "fail",
            "detail": "nonzero coefficient on an invalid shape",
        }
    rhs = _hl_to_schur(rhs_terms)
    ok = lhs == rhs
    detail = "exact match" if ok else f"lhs {lhs!r} != rhs {rhs!r}"
    return {"check": name, "params": params, "status": "pass" if ok else "fail", "detail": detail}


def hl_identity_suite(max_n: int) -> list[dict]:
    """Check the Hall-Littlewood expansion identities for all parameters whose
    larger side has size at most max_n.  Both sides are expanded into Schur
    functions through charge, so the comparison is exact."""
    if as_int(max_n, "max_n", 1) > 9:
        raise ValueError("identity suite is bounded at max_n <= 9")
    t, one = QTPoly.t, QTPoly.one()
    entries: list[dict] = []

    def base(x: int, y: int) -> SchurExpansion:
        return hall_littlewood((2,) * x + (1,) * y)

    def base3(a: int, b: int) -> SchurExpansion:
        return hall_littlewood((3,) + (2,) * a + (1,) * b)

    for x in range(max_n + 1):
        for y in range(max_n + 1):
            n = 2 * x + y
            if n + 1 <= max_n:
                entries.append(
                    _identity_entry(
                        "hl-identity/e1-two-column",
                        {"x": x, "y": y},
                        mul_e(1, base(x, y)),
                        [
                            (one, _sh((2, x), (1, y + 1))),
                            (_omt(y), _sh((2, x + 1), (1, y - 1))),
                            (_omt(x), _sh((3, 1), (2, x - 1), (1, y))),
                        ],
                    )
                )
            if n + 2 <= max_n:
                entries.append(
                    _identity_entry(
                        "hl-identity/h2-two-column",
                        {"x": x, "y": y},
                        mul_h(2, base(x, y)),
                        [
                            (one, _sh((2, x + 1), (1, y))),
                            (_omt(y), _sh((3, 1), (2, x), (1, y - 1))),
                            (_omt(x), _sh((3, 1), (2, x - 1), (1, y + 1))),
                            (_omt(x), _sh((4, 1), (2, x - 1), (1, y))),
                        ],
                    )
                )
                entries.append(
                    _identity_entry(
                        "hl-identity/h1h1-two-column",
                        {"x": x, "y": y},
                        mul_h(1, mul_h(1, base(x, y))),
                        [
                            (one, _sh((2, x), (1, y + 2))),
                            (_omt(y + 1) + _omt(y), _sh((2, x + 1), (1, y))),
                            (_prod(_omt(y), lambda: _omt(y - 1)), _sh((2, x + 2), (1, y - 2))),
                            (2 * _omt(x), _sh((3, 1), (2, x - 1), (1, y + 1))),
                            (_omt(y) * (_omt(x + 1) + _omt(x)), _sh((3, 1), (2, x), (1, y - 1))),
                            (_prod(_omt(x), lambda: _omt(x - 1)), _sh((3, 2), (2, x - 2), (1, y))),
                            (_omt(x) * _omt(1), _sh((4, 1), (2, x - 1), (1, y))),
                        ],
                    )
                )
            if n + 3 <= max_n:
                entries.append(
                    _identity_entry(
                        "hl-identity/dual3-two-column",
                        {"x": x, "y": y},
                        hl_vertex_dual(3, base(x, y)),
                        [
                            (t(x), _sh((2, x), (1, y + 3))),
                            (-t(x + y + 1) * (one + t(1)), _sh((2, x + 1), (1, y + 1))),
                            (-t(x + y + 1) * _omt(y), _sh((2, x + 2), (1, y - 1))),
                            (t(2 * x + y + 2), _sh((3, 1), (2, x), (1, y))),
                        ],
                    )
                )
            if n + 4 <= max_n:
                entries.append(
                    _identity_entry(
                        "hl-identity/dual4-two-column",
                        {"a": x, "b": y},
                        hl_vertex_dual(4, base(x, y)),
                        [
                            (t(x), _sh((2, x), (1, y + 4))),
                            (-t(x + y + 1) * (one + t(1) + t(2)), _sh((2, x + 1), (1, y + 2))),
                            (
                                -t(x + y + 1) * (one + t(1) - t(y) - t(y + 1) - t(y + 2)),
                                _sh((2, x + 2), (1, y)),
                            ),
                            (
                                -t(x + y + 1) * _prod(_omt(y), lambda: _omt(y - 1)),
                                _sh((2, x + 3), (1, y - 2)),
                            ),
                            (t(2 * x + y + 2) * (one + t(1)), _sh((3, 1), (2, x), (1, y + 1))),
                            (
                                t(2 * x + y + 2) * (one + t(1)) * _omt(y),
                                _sh((3, 1), (2, x + 1), (1, y - 1)),
                            ),
                            (t(2 * x + y + 2) * _omt(x), _sh((3, 2), (2, x - 1), (1, y))),
                            (-t(2 * x + y + 3), _sh((4, 1), (2, x), (1, y))),
                        ],
                    )
                )
            if 3 + 2 * x + y + 1 <= max_n:
                entries.append(
                    _identity_entry(
                        "hl-identity/e1-row3",
                        {"a": x, "b": y},
                        mul_e(1, base3(x, y)),
                        [
                            (one, _sh((3, 1), (2, x), (1, y + 1))),
                            (_omt(y), _sh((3, 1), (2, x + 1), (1, y - 1))),
                            (_omt(x), _sh((3, 2), (2, x - 1), (1, y))),
                            (_omt(1), _sh((4, 1), (2, x), (1, y))),
                        ],
                    )
                )
    entries.append(
        _identity_entry(
            "hl-identity/dual4-base",
            {},
            hl_vertex_dual(4, SchurExpansion.unit()),
            [
                (one, (1, 1, 1, 1)),
                (-t(1) * (one + t(1) + t(2)), (2, 1, 1)),
                (t(3), (2, 2)),
                (t(2) * (one + t(1)), (3, 1)),
                (-t(3), (4,)),
            ],
        )
    )
    return entries
