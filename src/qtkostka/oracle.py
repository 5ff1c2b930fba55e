"""Independent ground truth for the vertex-operator computations.

Everything in this module is built from first principles: symmetric-group
characters, scalar products evaluated at rational points, Gram-Schmidt
orthogonalization, charge enumeration, and hook lengths.  None of it touches
the vertex operators except where a check explicitly compares the two sides.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from math import factorial, gcd, lcm
from operator import mul
from types import MappingProxyType
from typing import Mapping

from ._cache import memo, memo_checked
from ._checks import _as_points, as_int, as_partition, as_point, int_parts
from .partitions import Partition, arm_leg, dominance_leq, linear_extension, partitions_of
from .qtpoly import QTPoly
from .schur import SchurExpansion, mul_e
from .tableaux import charge_table, standard_tableaux
from .vertex import gaussian_binomial, macdonald, stem_coefficient

_Rational = Fraction
_PowerExpansion = dict
_NumericSchur = dict


class DegeneratePointError(ValueError):
    """Raised when a specialization point kills a needed denominator."""


def _extension(n: int, order) -> tuple[Partition, ...]:
    """The given order of the partitions of n as a tuple of int tuples, or the default one.

    Whether it is a dominance-compatible permutation is checked on a cache miss.
    """
    if order is None:
        return linear_extension(n)
    return tuple(int_parts(lam) for lam in order)


def z_factor(lam: Partition) -> int:
    """The centralizer order z_lam = prod_i i^{m_i} m_i!."""
    lam = as_partition(lam, "lam")
    out = 1
    mult: dict[int, int] = {}
    for p in lam:
        mult[p] = mult.get(p, 0) + 1
    for p, m in mult.items():
        out *= p**m * factorial(m)
    return out


@memo
def _character(lam: Partition, mu: Partition) -> int:
    """Irreducible symmetric-group character chi^lam evaluated on class mu;
    lam and mu are partitions of one size, and every recursive call keeps them so.

    Computed by peeling border strips of size mu[0] off lam; a strip spanning
    rows i..j forces nu_r = lam_{r+1} - 1 on the intermediate rows, which
    leaves exactly one candidate per row interval.
    """
    if not mu:
        return 1
    k, rest = mu[0], mu[1:]
    total = 0
    for i in range(1, len(lam) + 1):
        for j in range(i, len(lam) + 1):
            nu = list(lam)
            for r in range(i, j):
                nu[r - 1] = lam[r] - 1
            last = k - sum(lam[r - 1] - nu[r - 1] for r in range(i, j))
            if last < 1:
                continue
            nu[j - 1] = lam[j - 1] - last
            if nu[j - 1] < 0:
                continue
            trimmed = tuple(p for p in nu if p)
            if any(nu[r] < nu[r + 1] for r in range(len(nu) - 1)):
                continue
            total += (-1) ** (j - i) * _character(trimmed, rest)
    return total


@memo_checked(int_parts)
def schur_to_power(lam: Partition) -> _PowerExpansion:
    """Coordinates of s_lam in the power-sum basis: chi^lam(rho) / z_rho."""
    lam = as_partition(lam, "lam")  # the part order, on a miss
    out = {}
    for rho in partitions_of(sum(lam)):
        chi = _character(lam, rho)
        if chi:
            out[rho] = Fraction(chi, z_factor(rho))
    return out


def power_coords(f: _NumericSchur) -> _PowerExpansion:
    """Convert a numeric Schur-coordinate vector to power-sum coordinates."""
    out: dict[Partition, Fraction] = {}
    for lam, c in f.items():
        if not c:
            continue
        for rho, w in schur_to_power(lam).items():
            out[rho] = out.get(rho, Fraction(0)) + c * w
    return {rho: v for rho, v in out.items() if v}


@memo
def _pairing_weight(rho: Partition, q0: Fraction, t0: Fraction) -> Fraction:
    """<p_rho, p_rho> = z_rho prod_k (1-q0^k)/(1-t0^k) over the parts k of rho.

    A vanishing 1 - t0^k raises, and the memo table stores no exception, so
    every later call at that point raises again.
    """
    weight = Fraction(z_factor(rho))
    for k in rho:
        den = 1 - t0**k
        if den == 0:
            raise DegeneratePointError(f"1 - t0^{k} vanishes at t0 = {t0}")
        weight /= den
        if q0:  # the factor is 1 at q0 = 0, the pairing scalar_t uses
            weight *= 1 - q0**k
    return weight


def scalar_qt(f: _PowerExpansion, g: _PowerExpansion, q0: _Rational, t0: _Rational) -> Fraction:
    """<f, g> with p_lam self-pairings z_lam prod (1-q0^k)/(1-t0^k).

    q0 and t0 are ints or Fractions; floats and bools are refused before any
    weight is looked up.
    """
    q0, t0 = as_point(q0, t0)
    total = Fraction(0)
    for rho, fv in f.items():
        gv = g.get(rho)
        if gv:
            total += fv * gv * _pairing_weight(rho, q0, t0)
    return total


def scalar_t(f: _PowerExpansion, g: _PowerExpansion, t0: _Rational) -> Fraction:
    """<f, g> with p_lam self-pairings z_lam prod 1/(1-t0^k): scalar_qt at q0 = 0."""
    return scalar_qt(f, g, 0, t0)


def _check_extension(n: int, order: tuple[Partition, ...]) -> None:
    if sorted(order) != sorted(partitions_of(n)):
        raise ValueError(f"order is not a permutation of the partitions of {n}")
    for i, lam in enumerate(order):
        for mu in order[i + 1 :]:
            if dominance_leq(mu, lam) and mu != lam:
                raise ValueError("order does not refine dominance")


@memo
def _orthogonal_basis(
    n: int, q0: _Rational, t0: _Rational, order: tuple[Partition, ...]
) -> dict[Partition, _NumericSchur]:
    """Gram-Schmidt the Schur vectors of degree n along the given order.

    Ascending dominance-compatible order makes each output vector unitriangular:
    coordinate 1 on its own shape plus dominance-smaller terms only.

    The vectors are the rows of L^-1 in the exact LDL^T factorization of the
    Gram matrix G_ik = <s_i, s_k> = sum_rho chi^i(rho) chi^k(rho) U_rho, with
    U_rho = <p_rho, p_rho> / z_rho^2.  Scaling every U_rho to one common
    denominator makes G an integer matrix and leaves L unchanged.  Row i is
    built from the rows before it: G (L^-1)^T = L D gives
    L_ij = <s_i, v_j> / <s_j, v_j>, and v_i = s_i - sum_{j<i} L_ij v_j.  Each
    row is kept as integers over one denominator, reduced by their gcd.
    """
    _check_extension(n, order)
    rhos = partitions_of(n)
    units = [_pairing_weight(rho, q0, t0) / z_factor(rho) ** 2 for rho in rhos]
    scale = lcm(*(u.denominator for u in units))
    units = [u.numerator * (scale // u.denominator) for u in units]
    chars: list[list[int]] = []  # chi^k(rho) for the shapes done so far
    rows: list[list[int]] = []  # v_k = rows[k] / dens[k], in the coordinates of order
    dens: list[int] = []
    norms: list[int] = []  # G_k . rows[k], which is <v_k, v_k> * dens[k] * scale
    vecs: dict[Partition, _NumericSchur] = {}
    for i, lam in enumerate(order):
        chi = [_character(lam, rho) for rho in rhos]
        chars.append(chi)
        weighted = list(map(mul, chi, units))
        gram = [sum(map(mul, weighted, other)) for other in chars]  # G_ik for k <= i
        # L_ij v_j = (G_i . rows[j]) / norms[j] * rows[j] / dens[j]
        terms = [(dot, j) for j, row in enumerate(rows) if (dot := sum(map(mul, row, gram)))]
        den = lcm(*(norms[j] * dens[j] for _, j in terms))
        row = [0] * i + [den]
        for dot, j in terms:
            c = dot * (den // (norms[j] * dens[j]))
            for k, x in enumerate(rows[j]):
                if x:
                    row[k] -= c * x
        common = gcd(*row)
        if common > 1:
            row = [x // common for x in row]
            den //= common
        norm = sum(map(mul, row, gram))
        if norm == 0:
            raise DegeneratePointError(f"zero norm at {lam} for point ({q0}, {t0})")
        rows.append(row)
        dens.append(den)
        norms.append(norm)
        vecs[lam] = {order[k]: Fraction(x, den) for k, x in enumerate(row) if x}
    return vecs


def macdonald_oracle(
    mu: Partition,
    q0: _Rational,
    t0: _Rational,
    order: tuple[Partition, ...] | None = None,
) -> _NumericSchur:
    """Numeric J_mu in Schur coordinates, from orthogonality alone.

    The Gram-Schmidt vector for mu is rescaled so that its s_mu coordinate is
    the hook product prod_{cells} (1 - q0^arm t0^(leg+1)).  q0 and t0 are
    ints or Fractions.
    """
    q0, t0 = as_point(q0, t0)
    mu = as_partition(mu, "mu")
    n = sum(mu)
    vecs = _orthogonal_basis(n, q0, t0, _extension(n, order))
    lead = Fraction(1)
    for row in range(1, len(mu) + 1):
        for col in range(1, mu[row - 1] + 1):
            arm, leg = arm_leg(mu, row, col)
            lead *= 1 - q0**arm * t0 ** (leg + 1)
    if lead == 0:
        raise DegeneratePointError(f"leading factor vanishes for {mu} at ({q0}, {t0})")
    return {lam: c * lead for lam, c in vecs[mu].items()}


def kostka_oracle(
    lam: Partition,
    mu: Partition,
    q0: _Rational,
    t0: _Rational,
) -> Fraction:
    """K_{lam,mu}(q0,t0) as <J_mu, s_lam> under the t-deformed pairing."""
    q0, t0 = as_point(q0, t0)
    lam, mu = as_partition(lam, "lam"), int_parts(mu)
    if sum(lam) != sum(mu):
        raise ValueError(f"size mismatch: |{lam}| != |{mu}|")
    return scalar_t(_power_macdonald(mu, q0, t0), schur_to_power(lam), t0)


@memo
def _power_macdonald(mu: Partition, q0: Fraction, t0: Fraction) -> Mapping[Partition, Fraction]:
    """macdonald_oracle in power-sum coordinates, read-only because the cache shares it."""
    return MappingProxyType(power_coords(macdonald_oracle(mu, q0, t0)))


def kostka_foulkes(lam: Partition, mu: Partition) -> QTPoly:
    """Sum of t^charge over column-strict tableaux of shape lam, content mu."""
    lam, mu = int_parts(lam), int_parts(mu)
    if sum(lam) != sum(mu):
        raise ValueError("kostka_foulkes needs |lam| = |mu|")
    k = charge_table(mu).get(lam)
    if k is not None:
        return k
    # K_{lam,mu}(t) vanishes unless lam dominates mu, so a miss is no error
    # by itself
    as_partition(lam, "lam")
    return QTPoly.zero()


def count_syt(lam: Partition) -> int:
    """Number of standard tableaux of shape lam, by the hook-length product."""
    lam = as_partition(lam, "lam")
    den = 1
    for row in range(1, len(lam) + 1):
        for col in range(1, lam[row - 1] + 1):
            arm, leg = arm_leg(lam, row, col)
            den *= arm + leg + 1
    num = factorial(sum(lam))
    if num % den:
        raise ArithmeticError(f"hook product does not divide |lam|! for {lam}")
    return num // den


def count_syt_enumerated(lam: Partition) -> int:
    """Number of standard tableaux of shape lam, by direct enumeration."""
    return len(standard_tableaux(lam))


def _draw_fraction(rng: random.Random) -> Fraction:
    v = rng.randint(3, 97)
    u = rng.randint(2, v - 1)
    return Fraction(u, v)


def generic_points(count: int, seed: int, max_n: int = 8) -> list[tuple[Fraction, Fraction]]:
    """Deterministic generic rational (q0, t0) pairs in (0, 1).

    Both coordinates are u/v with 2 <= u < v <= 97.  A pair is rejected when
    q0^i = t0^j for any exponents up to 2*max_n; with both values inside
    (0, 1) that is the only way any factor (1 - q^i t^j), including the
    negative-j ones hiding in the rational coefficient tables, can vanish.
    """
    as_int(count, "count", 0)
    as_int(max_n, "max_n")
    rng = random.Random(as_int(seed, "seed"))
    bound = 2 * max_n
    points: list[tuple[Fraction, Fraction]] = []
    while len(points) < count:
        q0 = _draw_fraction(rng)
        t0 = _draw_fraction(rng)
        q_powers = {q0**i for i in range(1, bound + 1)}
        if any(t0**j in q_powers for j in range(1, bound + 1)):
            continue
        if (q0, t0) in points:
            continue
        points.append((q0, t0))
    return points


def report_entry(check: str, params: dict, ok: bool, detail: str = "") -> dict:
    """One machine-readable battery line."""
    return {
        "check": check,
        "params": params,
        "status": "pass" if ok else "fail",
        "detail": detail,
    }


# ---------------------------------------------------------------------------
# Numeric evaluation of the rational-coefficient expansion tables.  The
# symbolic package never implements these (their denominators live outside
# polynomial arithmetic); here they are evaluated exactly at rational points
# and compared with the vertex-operator results, on the integer ratios of a
# _Point, which reads each q,t-polynomial there once.
# ---------------------------------------------------------------------------


class _Ratio:
    """n / d with an int n and an int d > 0, never reduced: no gcd per
    operation.  Values compare by cross-multiplying, a zero divisor raises
    ZeroDivisionError, and the other operand is a _Ratio or an int."""

    __slots__ = ("n", "d")

    def __init__(self, n: int, d: int = 1):
        self.n, self.d = n, d

    def __add__(self, other) -> "_Ratio":
        if type(other) is int:
            return _Ratio(self.n + other * self.d, self.d)
        if other.d == self.d:
            return _Ratio(self.n + other.n, self.d)
        return _Ratio(self.n * other.d + other.n * self.d, self.d * other.d)

    __radd__ = __add__

    def __sub__(self, other) -> "_Ratio":
        return self + -other

    def __rsub__(self, other: int) -> "_Ratio":
        return _Ratio(other * self.d - self.n, self.d)

    def __neg__(self) -> "_Ratio":
        return _Ratio(-self.n, self.d)

    def __mul__(self, other) -> "_Ratio":
        if type(other) is int:
            return _Ratio(self.n * other, self.d)
        return _Ratio(self.n * other.n, self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other: "_Ratio") -> "_Ratio":
        if not other.n:
            raise ZeroDivisionError("division by zero")
        sign = 1 if other.n > 0 else -1
        return _Ratio(sign * self.n * other.d, sign * self.d * other.n)

    def __pow__(self, k: int) -> "_Ratio":
        return _Ratio(self.n**k, self.d**k) if k >= 0 else _Ratio(1) / self**-k

    def __eq__(self, other) -> bool:
        if type(other) is int:
            return self.n == other * self.d
        return self.n * other.d == other.n * self.d

    def __bool__(self) -> bool:
        return self.n != 0

    def __repr__(self) -> str:
        return repr(Fraction(self.n, self.d))


class _Point:
    """(q0, t0) = (a/b, c/d) as _Ratios q and t, and each polynomial the tables
    read there once: the sum of coeff * a^i b^(Q-i) c^j d^(T-j) over its terms
    q^i t^j, over b^Q d^T, for its degrees Q and T.  This point's dict keeps
    each value by the polynomial's id, beside the polynomial so that the id
    stays its own; stems, shared by the points of one call, keeps each
    stem_coefficient by (x, y, i), built once per call."""

    __slots__ = ("q", "t", "_powers", "_seen", "_stems")

    def __init__(self, q0: Fraction, t0: Fraction, stems: dict):
        self.q, self.t = (_Ratio(x.numerator, x.denominator) for x in (q0, t0))
        # [1, x, x^2, ...] for x = a, b, c, d, grown as degrees need
        self._powers = tuple([1, x] for x in (self.q.n, self.q.d, self.t.n, self.t.d))
        self._seen: dict = {}
        self._stems = stems

    def value(self, poly: QTPoly) -> _Ratio:
        key = id(poly)
        if key not in self._seen:
            terms = poly.terms()  # sorted, so the last term has the top q-degree
            top_q = terms[-1][0][0] if terms else 0
            top_t = max([j for (_, j), _ in terms], default=0)
            a, b, c, d = self._powers
            while len(a) <= max(top_q, top_t):
                for pows in self._powers:
                    pows.append(pows[-1] * pows[1])
            num = sum(k * a[i] * b[top_q - i] * c[j] * d[top_t - j] for (i, j), k in terms)
            self._seen[key] = (poly, _Ratio(num, b[top_q] * d[top_t]))
        return self._seen[key][1]

    def stem(self, x: int, y: int, i: int) -> _Ratio:
        poly = self._stems.get((x, y, i))
        if poly is None:
            poly = self._stems[x, y, i] = stem_coefficient(x, y, i)
        return self.value(poly)


def _poch(q0: _Ratio, t0: _Ratio, start: int, length: int) -> _Ratio:
    """prod_{j<length} (1 - q0 t0^(start+j)); start may be negative."""
    out = _Ratio(1)
    for j in range(length):
        out *= 1 - q0 * t0 ** (start + j)
    return out


def _bracket_coefficient(x: int, y: int, i: int, p: _Point) -> _Ratio:
    """Coefficient of H_(2^i 1^(3+2x+y-2i))[X;t] in H_(3 2^x 1^y)[X;q,t], 1 <= i <= x+2.

    The four summands are written with every removable pole cancelled, so the
    formula stays finite for i = x+1 and i = x+2 as well.
    """
    if not 1 <= i <= x + 2:
        return 0
    q0, t0 = p.q, p.t
    common = q0 ** (x - i) * _poch(q0, t0, x + y - i + 1, i)
    h1 = 1 - t0 ** (x + 1)
    h2 = 1 - t0 ** (x + 2)
    head = 1 - q0**2 * t0 ** (x + y + 1)
    x1 = (
        common
        * p.value(gaussian_binomial(x + 1, i))
        / h1
        * head
        * (1 - q0 * t0 ** (x + 1))
        / (1 - q0 * t0 ** (x + y + 1 - i))
    )
    x2 = (
        common
        * p.value(gaussian_binomial(x + 2, i))
        / (h1 * h2)
        * head
        * (1 - q0 * t0 ** (x + 1))
        * (1 - t0**i)
        * (1 - t0 ** (2 * x + y + 4 - 2 * i))
        / ((1 - q0 * t0 ** (x + 1 + y - i)) * (1 - q0 * t0 ** (x + 2 + y - i)))
    )
    x3 = (
        common
        * p.value(gaussian_binomial(x + 2, i))
        / h1
        * head
        * (1 - t0**y)
        * (1 - q0)
        / ((1 - q0 * t0 ** (x + 1 + y - i)) * (1 - q0 * t0**y))
    )
    x4 = (
        common
        * p.value(gaussian_binomial(x + 1, i))
        / h1
        * (1 - q0**2 * t0**y)
        * (1 - q0 * t0 ** (x + 1))
        * (1 - q0)
        * (1 - q0 * t0 ** (x + y + 2))
        / (
            (1 - q0 * t0 ** (x + y + 2 - i))
            * (1 - q0 * t0 ** (x + 1 + y - i))
            * (1 - q0 * t0**y)
        )
    )
    return q0 * (x1 + q0 * x2 - q0 * x3 - x4)


def _three_row_coefficients(a: int, b: int, p: _Point) -> _NumericSchur:
    """Numeric HL-basis coefficients of H_(3 2^a 1^b)[X;q,t] from the rational table."""
    q0, t0 = p.q, p.t
    out: dict[Partition, _Ratio] = {}
    head = (1 - q0**2 * t0 ** (a + b + 1)) * (1 - q0 * t0 ** (a + 1))
    for i in range(a + 1):
        shape = (3,) + (2,) * i + (1,) * (2 * a + b - 2 * i)
        out[shape] = p.stem(a, b, i) * head
    out[(1,) * (2 * a + b + 3)] = out.get((1,) * (2 * a + b + 3), 0) + q0 ** (a + 3)
    for i in range(1, a + 3):
        ones = 2 * a + b + 3 - 2 * i
        if ones < 0:
            continue
        shape = (2,) * i + (1,) * ones
        out[shape] = out.get(shape, 0) + _bracket_coefficient(a, b, i, p)
    return {shape: v for shape, v in out.items() if v}


def _three_row_entry(x: int, y: int, i: int, p: _Point) -> _Ratio:
    """Coefficient of H_(2^i 1^(3+2x+y-2i)) in H_(3 2^x 1^y)[X;q,t], any i."""
    if i == 0:
        return p.q ** (x + 3)
    return _bracket_coefficient(x, y, i, p)


def _four_row_coefficients(a: int, b: int, p: _Point) -> _NumericSchur:
    """Numeric HL-basis coefficients of H_(4 2^a 1^b)[X;q,t] from the rational table."""
    q, t = p.q, p.t
    qq = q * q
    top = (1 - q**3 * t ** (a + b + 1)) * (1 - qq * t ** (a + 1))
    a_p = -(
        (1 - q)
        * (1 - qq)
        * top
        / (
            (1 - qq * t ** (a + b + 1))
            * (1 - q * t ** (a + 1))
            * (1 - t ** (a + 1))
            * (1 - q * t ** (a + b + 1))
        )
    )
    b_p = -(
        (1 - t**b)
        * (1 - qq)
        * (1 - q**3 * t ** (a + b + 1))
        / ((1 - q * t**b) * (1 - qq * t ** (a + b + 1)) * (1 - t ** (a + 1)))
    )
    c_p = -(
        (1 - qq * t**b)
        * (1 - qq)
        * (1 - qq * t ** (a + 1))
        / ((1 - q * t**b) * (1 - q * t ** (a + 1)) * (1 - q * t ** (a + b + 1)))
    )
    e_p = top / ((1 - t ** (a + 1)) * (1 - q * t ** (a + b + 1)))

    def c1(i: int) -> _Ratio:
        return p.stem(a + 1, b, i)

    def d(x: int, y: int, i: int) -> _Ratio:
        return p.stem(x, y, i) * (1 - qq * t ** (x + y + 1)) * (1 - q * t ** (x + 1))

    n4 = 4 + 2 * a + b
    out: dict[Partition, _Ratio] = {}
    for i in range(n4 // 2 + 1):
        ones = n4 - 2 * i
        v = a_p * p.stem(a + 2, b, i)
        if b >= 1:
            v += b_p * _three_row_entry(a + 1, b - 1, i, p)
        v += c_p * _three_row_entry(a, b + 1, i, p)
        v += e_p * (1 - q) * c1(i - 1)
        v += (
            q
            * e_p
            * (
                c1(i)
                + (2 - t ** (2 * a + b - 2 * i + 5) - t ** (2 * a + b - 2 * i + 4)) * c1(i - 1)
                + (1 - t ** (2 * a + b - 2 * i + 6))
                * (1 - t ** (2 * a + b - 2 * i + 5))
                * c1(i - 2)
            )
        )
        if v:
            out[(2,) * i + (1,) * ones] = v
    for i in range((1 + 2 * a + b) // 2 + 1):
        ones = 1 + 2 * a + b - 2 * i
        v = 0
        if b >= 1:
            v += b_p * d(a + 1, b - 1, i)
        v += c_p * d(a, b + 1, i)
        v += (
            e_p
            * (1 - q)
            * ((1 - t ** (2 * a + b + 2 - 2 * i)) * c1(i) + (1 - t ** (i + 1)) * c1(i + 1))
        )
        v += (
            q
            * e_p
            * (
                2 * (1 - t ** (i + 1)) * c1(i + 1)
                + (1 - t ** (2 * a + b + 2 - 2 * i)) * (2 - t ** (i + 1) - t**i) * c1(i)
            )
        )
        if v:
            out[(3,) + (2,) * i + (1,) * ones] = v
    for i in range((2 * a + b - 2) // 2 + 1) if 2 * a + b >= 2 else ():
        ones = 2 * a + b - 2 * i - 2
        v = q * e_p * (1 - t ** (i + 2)) * (1 - t ** (i + 1)) * c1(i + 2)
        if v:
            out[(3, 3) + (2,) * i + (1,) * ones] = v
    for i in range((2 * a + b) // 2 + 1):
        ones = 2 * a + b - 2 * i
        v = e_p * (1 - t ** (i + 1)) * (1 - q * t) * c1(i + 1)
        if v:
            out[(4,) + (2,) * i + (1,) * ones] = v
    return out


def _assemble_schur(coeffs: _NumericSchur, p: _Point) -> _NumericSchur:
    """Substitute each H_nu[X;t] with its charge expansion, numerically."""
    out: dict[Partition, _Ratio] = {}
    for nu, c in coeffs.items():
        if not c:
            continue
        g = gcd(c.n, c.d)  # once per row, so that the sums over nu stay small
        c = _Ratio(c.n // g, c.d // g)
        for lam, k in charge_table(nu).items():
            out[lam] = out.get(lam, 0) + c * p.value(k)
    return {lam: v for lam, v in out.items() if v}


def _macdonald_at(f: SchurExpansion, p: _Point) -> _NumericSchur:
    """The nonzero Schur coordinates of f at the point."""
    values = {lam: p.value(c) for lam, c in f.terms()}
    return {lam: v for lam, v in values.items() if v}


def _table_failures(m: int, table, a: int, b: int, p: _Point) -> list[str]:
    """H_(m 2^a 1^b) from its rational table against macdonald's, as failures."""
    got = _assemble_schur(table(a, b, p), p)
    want = _macdonald_at(macdonald((m,) + (2,) * a + (1,) * b), p)
    return [] if got == want else [f"got {got} want {want}"]


def _coef_lemma_failures(a: int, b: int, p: _Point) -> list[str]:
    q0, t0 = p.q, p.t
    bad = []
    for x in range(1, a + 3):
        for y in range(b + 2):
            for z in range(x):
                c_now = p.stem(x, y, z)
                if y >= 1:
                    lhs = p.stem(x, y - 1, z) * (1 - q0 * t0 ** (x + y)) / (
                        1 - q0 * t0 ** (x + y - z)
                    )
                    if c_now != lhs:
                        bad.append(f"coef2 x={x} y={y} z={z}")
                lhs = (
                    p.stem(x, y, z + 1)
                    * q0
                    * (1 - t0 ** (z + 1))
                    / ((1 - t0 ** (x - z)) * (1 - q0 * t0 ** (x + y - z)))
                )
                if c_now != lhs:
                    bad.append(f"coef3 x={x} y={y} z={z}")
                lhs = (
                    p.stem(x - 1, y, z)
                    * q0
                    * (1 - q0 * t0 ** (x + y))
                    * (1 - t0**x)
                    / ((1 - q0 * t0 ** (x + y - z)) * (1 - t0 ** (x - z)))
                )
                if c_now != lhs:
                    bad.append(f"coef4 x={x} y={y} z={z}")
    return bad


def _pieri_failures(a: int, b: int, p: _Point) -> list[str]:
    """e_1 H_(2^(a+1) 1^b) against its stated three-term decomposition."""
    q0, t0 = p.q, p.t
    n = 2 * a + b + 3
    lhs = _macdonald_at(mul_e(1, macdonald((2,) * (a + 1) + (1,) * b)), p)
    coeff_a = (
        (1 - t0 ** (a + 1))
        * (1 - q0 * t0 ** (a + b + 1))
        / ((1 - q0**2 * t0 ** (a + b + 1)) * (1 - q0 * t0 ** (a + 1)))
    )
    coeff_c = (
        (1 - q0)
        * (1 - q0**2 * t0**b)
        / ((1 - q0 * t0**b) * (1 - q0**2 * t0 ** (a + b + 1)))
    )
    rhs: dict[Partition, _Ratio] = {}
    for lam, v in _macdonald_at(macdonald((3,) + (2,) * a + (1,) * b), p).items():
        rhs[lam] = rhs.get(lam, 0) + coeff_a * v
    if b >= 1:
        coeff_b = (
            (1 - t0**b)
            * (1 - q0)
            / ((1 - q0 * t0**b) * (1 - q0 * t0 ** (a + 1)))
        )
        for lam, v in _macdonald_at(macdonald((2,) * (a + 2) + (1,) * (b - 1)), p).items():
            rhs[lam] = rhs.get(lam, 0) + coeff_b * v
    for lam, v in _macdonald_at(macdonald((2,) * (a + 1) + (1,) * (b + 1)), p).items():
        rhs[lam] = rhs.get(lam, 0) + coeff_c * v
    rhs = {lam: v for lam, v in rhs.items() if v}
    bad = []
    for lam in partitions_of(n):
        if lhs.get(lam, 0) != rhs.get(lam, 0):
            bad.append(f"lam={lam}")
    return bad


def verify_rational_props(a: int, b: int, points: list[tuple[Fraction, Fraction]]) -> list[dict]:
    """Check the rational-coefficient expansion tables at the given points.

    Covers the three coefficient recurrences, the three-row and four-row
    HL-basis tables assembled into Schur coordinates via charge, and the e_1
    three-term Pieri decomposition.  All arithmetic is exact.  a and b are
    ints >= 0 with 3 + 2a + b <= 8, and points is a nonempty list of pairs of
    ints or Fractions.  The four-row table needs 4 + 2a + b <= 8: at
    4 + 2a + b = 9 it is left out without an entry, as the default report
    expects.  A point that kills a denominator of the tables raises
    DegeneratePointError.
    """
    as_int(a, "a", 0)
    as_int(b, "b", 0)
    points = _as_points(points, "points")
    if 3 + 2 * a + b > 8:
        raise ValueError(f"the rational tables need 3 + 2a + b <= 8, got a = {a}, b = {b}")
    checks = [
        ("coefficient-recurrences", _coef_lemma_failures),
        ("three-row-table", partial(_table_failures, 3, _three_row_coefficients)),
        ("e1-decomposition", _pieri_failures),
    ]
    if 4 + 2 * a + b <= 8:
        checks.append(("four-row-table", partial(_table_failures, 4, _four_row_coefficients)))
    entries, stems = [], {}
    for q0, t0 in points:
        tag = {"a": a, "b": b, "q0": str(q0), "t0": str(t0)}
        p = _Point(q0, t0, stems)
        try:
            for check, failures in checks:
                bad = failures(a, b, p)
                entries.append(report_entry(f"rational/{check}", tag, not bad, "; ".join(bad)))
        except ZeroDivisionError:
            at = f"a = {a}, b = {b}, (q0, t0) = ({q0}, {t0})"
            raise DegeneratePointError(f"a rational table divides by zero at {at}") from None
    return entries
