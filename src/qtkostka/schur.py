"""Schur expansions and the operators that act on them.

A SchurExpansion is a finite linear combination of Schur functions, keyed by
partitions only, with QTPoly coefficients.  The operators below are linear;
`bernstein`, `hl_vertex` and `hl_vertex_dual` require a homogeneous argument.

Every operator except the snake rule runs through one kernel, `_apply`, and
`linear_combination` sums expansions with QTPoly weights.  Both work on
Kronecker-packed coefficients: q^i t^j is the d-bit digit i*w + j of one
Python int, with the stride w a power of two above a t-degree bound and d a
multiple of `_DIGIT` above an L1 bound, both carried with the expansion.  A
weight's term or an image's t^e shifts a packed coefficient by whole digits
or rows and multiplies it by a small int, so each image term costs a few
bigint operations in C.  An operator's output stays packed, and the next
operator reads it as it is; its QTPolys are unpacked on the first read of a
coefficient.  The Pieri operators take their images from the strip
enumerators in `partitions`.  The other three compute the image of s_lam by
a closed rule the first time (lam, m) is seen and cache it as
(t-exponent, coefficient) pairs: Bernstein's operator straightens
s_(m, lam) (`_straighten`), and the vertex operators are Jing's sums of
Bernstein images of h_k-perp s_lam, on the conjugate for the dual.
`hl_vertex_snake` shares neither the rules nor the cached images, and
`_series` keeps the series definitions as a reference for the checks.

A coefficient of H_mu with |mu| = n has q- and t-degrees at most n(n-1)/2,
so an expansion holds many monomials but few distinct exponent pairs.  Every
unpacked coefficient and every polynomial `map_coefficients` returns is a
fresh dict keying its monomials by one shared tuple per pair, taken from the
module table `_KEYS`, which stores no answers: building every supported H_mu
up to size n leaves at most (n(n-1)/2 + 1)^2 entries (548 up to n = 11).
`QTPoly` arithmetic, and so the Gram-Schmidt oracle, never reads the table.
"""

from __future__ import annotations

import sys
from array import array
from itertools import chain, repeat
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Union

from ._cache import memo
from ._checks import as_int, as_partition, int_parts
from .partitions import (
    Partition,
    conjugate,
    horizontal_strips,
    horizontal_strips_inside,
    remove_snake,
    snake_height,
    vertical_strips,
    vertical_strips_inside,
)
from .qtpoly import QTPoly, TermKey

_Coeff = Union[QTPoly, int]
_Image = dict[Partition, tuple[tuple[int, int], ...]]  # mu -> its (t-exponent, coefficient) pairs
_KEYS: dict[TermKey, TermKey] = {}  # each exponent pair to its one shared tuple
_DIGIT = 64  # the narrowest packed digit, in bits; widths are multiples of it


def _poly(value: _Coeff) -> QTPoly:
    return value if isinstance(value, QTPoly) else QTPoly({(0, 0): value})


def _qtpoly(terms: dict[TermKey, int]) -> QTPoly:
    out = QTPoly.__new__(QTPoly)
    out._terms = terms
    return out


def _layout(t: int, b: int) -> tuple[int, int]:
    """The narrowest (digit width, row stride) holding t-degrees up to t and
    digits up to b in size: a stride above t, a signed digit above b."""
    return _DIGIT * (b.bit_length() // _DIGIT + 1), 1 << t.bit_length()


def _bias(d: int, n: int) -> int:
    """2^(d-1) in each of n d-bit digits: adding it offsets each signed digit,
    and a xor with it then leaves each digit in d-bit two's complement."""
    return int.from_bytes((bytes(d // 8 - 1) + b"\x80") * n, "little")


def _pack(terms: Mapping[TermKey, int], d: int, w: int) -> int:
    """The int whose d-bit signed digit dq*w + dt is the coefficient of q^dq t^dt."""
    size, (dq, dt) = d // 8, max(terms, default=(0, 0))  # dt < w: the last digit
    raw = bytearray((dq * w + dt + 1) * size)
    for (dq, dt), c in terms.items():
        i = (dq * w + dt) * size
        raw[i : i + size] = c.to_bytes(size, "little", signed=True)
    bias = _bias(d, len(raw) // size)
    return (int.from_bytes(raw, "little") ^ bias) - bias


def _unpack(v: int, d: int, w: int) -> dict[TermKey, int]:
    """The nonzero digits of v by exponent pair, each key the tuple of `_KEYS`."""
    size, n, key = d // 8, v.bit_length() // d + 1, _KEYS.setdefault
    bias = _bias(d, n)
    raw = ((v + bias) ^ bias).to_bytes(n * size, "little")
    if d == 64 and sys.byteorder == "little":
        digits = array("q", raw)  # the usual width, read in C
    else:
        cut = range(0, len(raw), size)
        digits = [int.from_bytes(raw[i : i + size], "little", signed=True) for i in cut]
    return {key(k := divmod(i, w), k): c for i, c in enumerate(digits) if c}


def _relaid(packed: dict[Partition, int], old: tuple[int, int], d: int, w: int) -> dict:
    return {lam: _pack(_unpack(v, *old), d, w) for lam, v in packed.items()}


def _sort_key(lam: Partition) -> tuple:
    return (sum(lam), tuple(-p for p in lam))


class SchurExpansion:
    """Mapping from partitions to nonzero QTPoly coefficients.

    Subclasses name another basis; expansions of different types never
    compare equal or add, and the operators below take only this class.
    An operator's output holds packed ints, with _packing (digit width, row
    stride, t-degree bound, L1 bound), until a coefficient is read (`_coeffs`).
    """

    __slots__ = ("_terms", "_packing")
    basis: str | None = None  # written to JSON when set
    _letter = "s"

    def __init__(self, terms: Mapping[Partition, _Coeff] | None = None):
        clean: dict[Partition, QTPoly] = {}
        for lam, coeff in (terms or {}).items():
            lam = as_partition(lam, "lam")
            poly = _poly(coeff)
            if poly:
                clean[lam] = poly
        self._terms, self._packing = clean, None

    @classmethod
    def _of(cls, terms: dict, packing: tuple | None = None) -> "SchurExpansion":
        """The expansion of terms as given: nonzero QTPolys, or ints packed as packing says."""
        out = cls.__new__(cls)
        out._terms, out._packing = terms, packing
        return out

    @classmethod
    def _trusted(cls, terms: Mapping[Partition, QTPoly]) -> "SchurExpansion":
        """The expansion of terms, whose keys are already partitions; zeros are dropped."""
        return cls._of({lam: c for lam, c in terms.items() if c})

    def _coeffs(self) -> dict[Partition, QTPoly]:
        """The coefficients as QTPolys, unpacked in place on the first call."""
        if self._packing is not None:
            d, w = self._packing[:2]
            self._terms = {lam: _qtpoly(_unpack(v, d, w)) for lam, v in self._terms.items()}
            self._packing = None
        return self._terms

    @classmethod
    def unit(cls) -> "SchurExpansion":
        """The constant symmetric function 1."""
        return cls.schur(())

    @classmethod
    def schur(cls, lam: Partition) -> "SchurExpansion":
        return cls._of({as_partition(lam, "lam"): 1}, (_DIGIT, 1, 0, 1))  # 1 packs as itself

    def terms(self) -> list[tuple[Partition, QTPoly]]:
        """Terms sorted by size then descending lexicographic partition."""
        return sorted(self._coeffs().items(), key=lambda kv: _sort_key(kv[0]))

    def coefficient(self, lam: Partition) -> QTPoly:
        coeff = (self._terms if self._packing is None else self._coeffs()).get(int_parts(lam))
        return QTPoly.zero() if coeff is None else coeff

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._coeffs() == other._coeffs()

    def __add__(self, other: "SchurExpansion") -> "SchurExpansion":
        if type(other) is not type(self):
            return NotImplemented
        merged = dict(self._coeffs())
        for lam, coeff in other._coeffs().items():
            merged[lam] = merged.get(lam, QTPoly.zero()) + coeff
        return self._trusted(merged)

    def __sub__(self, other: "SchurExpansion") -> "SchurExpansion":
        return self + other.scaled(-1)

    def __neg__(self) -> "SchurExpansion":
        return self.scaled(-1)

    def scaled(self, coeff: _Coeff) -> "SchurExpansion":
        factor = _poly(coeff)
        return self._trusted({lam: c * factor for lam, c in self._coeffs().items()})

    def map_coefficients(self, fn: Callable[[QTPoly], QTPoly]) -> "SchurExpansion":
        """The expansion with each coefficient c replaced by fn(c), re-keyed by `_KEYS`."""
        shared, out = _KEYS.setdefault, {}
        for lam, c in self._coeffs().items():
            image = _poly(fn(c))._terms  # a QTPoly holds no zeros
            if image:
                out[lam] = _qtpoly({shared(key, key): v for key, v in image.items()})
        return self._of(out)

    def degree(self) -> int | None:
        """Common size of the indexing partitions; None when empty."""
        sizes = {sum(lam) for lam in self._terms}
        if not sizes:
            return None
        if len(sizes) > 1:
            raise ValueError(f"expansion mixes degrees {sorted(sizes)}")
        return sizes.pop()

    def is_nonnegative(self) -> bool:
        return all(c.is_nonnegative() for c in self._coeffs().values())

    def to_json(self) -> dict:
        blob = {"basis": self.basis} if self.basis else {}
        blob["degree"] = self.degree() if self._terms else 0
        blob["terms"] = [
            {"lambda": list(lam), "coeff": coeff.to_terms()} for lam, coeff in self.terms()
        ]
        return blob

    def __repr__(self) -> str:
        bits = [f"({coeff})*{self._letter}{lam}" for lam, coeff in self.terms()]
        return type(self).__name__ + "(" + (" + ".join(bits) or "0") + ")"


def _schur_only(f: SchurExpansion) -> None:
    # an expansion in another basis (a subclass) would be read as Schur terms
    if type(f) is not SchurExpansion:
        raise TypeError(f"the Schur operators take a SchurExpansion, not {type(f).__name__}")


def _bounds(f: SchurExpansion) -> tuple[int, int]:
    """(t-degree bound, L1 bound) over the coefficients of f."""
    if f._packing is not None:
        return f._packing[2:]
    cs = [c._terms for c in f._terms.values()]
    t = max(map(itemgetter(1), chain.from_iterable(cs)), default=0)
    return t, max((sum(map(abs, c.values())) for c in cs), default=0)


def _packed(f: SchurExpansion, d: int, w: int) -> tuple[int, int, dict[Partition, int]]:
    """(d', w', f packed at digit width d' and stride w'), the larger of (d, w), which
    must fit the bounds of f, and the layout f holds; a packed f keeps the result."""
    if f._packing is None:
        return d, w, {lam: _pack(c._terms, d, w) for lam, c in f._terms.items()}
    fd, fw, t, b = f._packing
    if fd < d or fw < w:
        d, w = max(d, fd), max(w, fw)
        f._terms, f._packing = _relaid(f._terms, (fd, fw), d, w), (d, w, t, b)
    return f._packing[0], f._packing[1], f._terms


def linear_combination(pairs: Iterable[tuple[_Coeff, SchurExpansion]]) -> SchurExpansion:
    """The sum of c * F over the (c, F) pairs, each output coefficient built once.
    pairs may be any iterable; it is consumed once, in order, each F let go
    before the next pair is drawn.  The sum is re-laid wider whenever the
    next pair's bounds need it."""
    acc: dict[Partition, int] = {}
    d, w, t, b = _DIGIT, 1, 0, 0  # the layout of acc and the bounds of the sum
    for coeff, f in pairs:
        _schur_only(f)
        weight = _poly(coeff)._terms
        ft, fb = _bounds(f)
        t = max(t, ft + max(map(itemgetter(1), weight), default=0))
        b += fb * sum(map(abs, weight.values()))
        fd, fw, packed = _packed(f, *map(max, _layout(t, max(b, fb)), (d, w)))  # f must fit
        if (fd, fw) != (d, w):
            acc, d, w = _relaid(acc, (d, w), fd, fw), fd, fw
        for (dq, dt), c in weight.items():
            shift = d * (dq * w + dt)
            for lam, v in packed.items():
                x = (v << shift if shift else v) * c
                old = acc.get(lam)
                acc[lam] = x if old is None else old + x
        del f, packed
    return SchurExpansion._of({lam: v for lam, v in acc.items() if v}, (d, w, t, b))


def _apply(f: SchurExpansion, image: Callable, k: int, grow: int = 0) -> SchurExpansion:
    """The linear map sending each s_lam to image(lam, k), applied to f.

    image is either a strip enumerator, whose partitions each carry the
    coefficient 1, or a cached image mapping partitions to (t-exponent,
    coefficient) pairs; grow bounds the t-exponents.  (lam, 2.0) and (lam,
    True) hash like (lam, 2) and (lam, 1), so k is checked before any image is
    looked up.  The output's L1 bound is that of f times the most |c| landing
    on one partition; when it does not fit a digit, the sum is formed again
    at a width that does, so no digit ever wraps.
    """
    as_int(k, "operator degree")
    _schur_only(f)
    t, b = _bounds(f)
    d, w = _layout(t + grow, b)
    while True:
        d, w, packed = _packed(f, d, w)
        acc: dict[Partition, list[int]] = {}  # mu -> [packed sum, sum of |coefficient|]
        for lam, v in packed.items():
            found = image(lam, k)
            pieces = found.items() if isinstance(found, dict) else zip(found, repeat(((0, 1),)))
            for mu, pairs in pieces:
                for e, c in pairs:
                    x = (v << d * e if e else v) * c
                    slot = acc.get(mu)
                    if slot is None:
                        acc[mu] = [x, abs(c)]
                    else:
                        slot[0] += x
                        slot[1] += abs(c)
        bound = b * max(map(itemgetter(1), acc.values()), default=0)
        if bound.bit_length() < d:
            terms = {mu: v for mu, (v, _) in acc.items() if v}
            return SchurExpansion._of(terms, (d, w, t + grow, bound))
        d = _layout(0, bound)[0]


def mul_h(k: int, f: SchurExpansion) -> SchurExpansion:
    """Multiplication by the homogeneous symmetric function h_k."""
    return _apply(f, horizontal_strips, k) if as_int(k, "operator degree") else f


def mul_e(k: int, f: SchurExpansion) -> SchurExpansion:
    """Multiplication by the elementary symmetric function e_k."""
    return _apply(f, vertical_strips, k) if as_int(k, "operator degree") else f


def skew_h(k: int, f: SchurExpansion) -> SchurExpansion:
    """The adjoint of mul_h: removes horizontal k-strips."""
    return _apply(f, horizontal_strips_inside, k) if as_int(k, "operator degree") else f


def skew_e(k: int, f: SchurExpansion) -> SchurExpansion:
    """The adjoint of mul_e: removes vertical k-strips."""
    return _apply(f, vertical_strips_inside, k) if as_int(k, "operator degree") else f


def _straighten(m: int, lam: Partition) -> tuple[int, Partition] | None:
    """(sign, mu) with s_(m, lam) = sign * s_mu, or None when s_(m, lam) = 0.

    m bubbles rightwards by the Jacobi-Trudi rule s_(..,a,b,..) = -s_(..,b-1,a+1,..),
    which vanishes when a = b - 1, as does a negative last entry.
    """
    head: list[int] = []
    for i, part in enumerate(lam):
        if m >= part:
            return (-1) ** i, (*head, m, *lam[i:])
        if m == part - 1:
            return None
        head.append(part - 1)
        m += 1
    if m < 0:
        return None
    # only parts equal to 1 leave a 0 in head, and then m <= 0: the zeros trail
    return (-1) ** len(lam), tuple(p for p in (*head, m) if p)


@memo
def _bernstein_image(lam: Partition, m: int) -> _Image:
    found = _straighten(m, lam)
    return {} if found is None else {found[1]: ((0, found[0]),)}


def _jing_sum(lam: Partition, m: int, dual: bool) -> _Image:
    """Sum of t^e B_{m+k} h_k-perp s_lam over k, where e is k, or |lam| - k when
    dual.  Each k gives its own power of t, so no term cancels."""
    n = sum(lam)
    s_lam = SchurExpansion.schur(lam)
    pieces: dict[Partition, list[tuple[int, int]]] = {}
    # a horizontal strip inside lam has at most lam_1 cells
    for k in range((lam[0] if lam else 0) + 1):
        e = n - k if dual else k  # each coefficient is a packed constant: the int itself
        for mu, c in bernstein(m + k, skew_h(k, s_lam))._terms.items():
            pieces.setdefault(mu, []).append((e, c))
    return {mu: tuple(pairs) for mu, pairs in pieces.items()}


@memo
def _hl_vertex_image(lam: Partition, m: int) -> _Image:
    # Jing: sum_k t^k B_{m+k} h_k-perp
    return _jing_sum(lam, m, False)


@memo
def _hl_vertex_dual_image(lam: Partition, m: int) -> _Image:
    # sum_j t^(n-j) omega B_{m+j} omega e_j-perp, with e_j-perp = omega h_j-perp omega
    return {conjugate(mu): c for mu, c in _jing_sum(conjugate(lam), m, True).items()}


def bernstein(m: int, f: SchurExpansion) -> SchurExpansion:
    """The Bernstein row-adding operator sum_k (-1)^k h_{m+k} e_k-perp.

    It sends s_mu to s_(m, mu) straightened: +-one Schur function, or 0."""
    f.degree()  # rejects an argument that mixes degrees
    return _apply(f, _bernstein_image, m)


def hl_vertex(m: int, f: SchurExpansion) -> SchurExpansion:
    """Jing's Hall-Littlewood vertex operator sum_k t^k S_{m+k} h_k-perp."""
    return _apply(f, _hl_vertex_image, m, f.degree() or 0)


def hl_vertex_snake(m: int, f: SchurExpansion, k: int | None = None) -> SchurExpansion:
    """The Hall-Littlewood vertex operator computed by the border-snake rule.

    For each term s_lam, sum over mu with mu/lam a horizontal (m+k)-strip
    the signed term (-1)^(height-1) t^(mu_1 - m - k) s_(mu minus k-snake),
    skipping mu whose snake complement is not a partition.  Any k with
    m + k >= lam_1 gives the same answer; the default is the smallest.
    """
    as_int(m, "operator degree")
    if k is not None:
        as_int(k, "k", 0)
    _schur_only(f)
    total: dict[Partition, QTPoly] = {}
    for lam, coeff in f.terms():
        first = lam[0] if lam else 0
        kk = max(0, first - m) if k is None else k
        if m + kk < first:
            raise ValueError(f"need m+k >= {first} for shape {lam}, got {m + kk}")
        for mu in horizontal_strips(lam, m + kk):
            rest = remove_snake(mu, kk)
            if rest is None:
                continue
            sign = 1 if kk == 0 else (-1) ** (snake_height(mu, kk) - 1)
            texp = sum(lam) - (sum(mu) - (mu[0] if mu else 0))
            piece = coeff * QTPoly.monomial(0, texp, sign)
            total[rest] = total.get(rest, QTPoly.zero()) + piece
    return SchurExpansion(total)


def hl_vertex_dual(m: int, f: SchurExpansion) -> SchurExpansion:
    """The dual vertex operator sum_{i,j} t^(n-j) (-1)^i e_{m+i+j} h_i-perp e_j-perp,
    where n is the degree of the (homogeneous) argument."""
    return _apply(f, _hl_vertex_dual_image, m, f.degree() or 0)


def omega(f: SchurExpansion) -> SchurExpansion:
    """The involution sending s_lam to s_(lam conjugate)."""
    _schur_only(f)
    return SchurExpansion._of({conjugate(lam): c for lam, c in f._terms.items()}, f._packing)
