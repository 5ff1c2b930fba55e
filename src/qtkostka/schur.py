"""Schur expansions and the operators that act on them.

A SchurExpansion is a finite linear combination of Schur functions, keyed by
partitions only, with QTPoly coefficients.  The operators below are linear;
`bernstein`, `hl_vertex` and `hl_vertex_dual` require a homogeneous argument.

Every operator except the snake rule runs through one kernel, `_apply`: it
looks up the image of each basis function s_lam, multiplies it by the
coefficient of s_lam, and accumulates in place into raw integer
dictionaries, building each output QTPoly once at the end;
`linear_combination` sums expansions with QTPoly weights the same way.  The Pieri
operators take their images from the strip enumerators in `partitions`.
The other three compute the image of s_lam by a closed rule the first time
(lam, m) is seen and cache it as raw dictionaries: Bernstein's operator
straightens s_(m, lam) (`_straighten`), and the vertex operators are Jing's
sums of Bernstein images of h_k-perp s_lam, on the conjugate for the dual.
`hl_vertex_snake` shares neither the rules nor the cached images, and
`_series` keeps the series definitions as a reference for the checks.

A coefficient of H_mu with |mu| = n has q- and t-degrees at most n(n-1)/2,
so an expansion holds many monomials but few distinct exponent pairs.  Every
coefficient the kernel outputs, every cached Jing image and every polynomial
`map_coefficients` returns keys its monomials by one shared tuple per pair,
taken from the module table `_KEYS`.  `_KEYS` gains an entry per distinct
pair ever produced and stores no answers: building every supported H_mu up
to size n leaves at most (n(n-1)/2 + 1)^2 entries (548 up to n = 11).
`_accumulate` makes a tuple per product term to look it up, and a key enters
a slot as its shared tuple the first time; the finished slots, less their
zeros, become the output coefficients themselves, so no sum is copied.
`QTPoly` arithmetic, and so the Gram-Schmidt oracle, never reads the table.
"""

from __future__ import annotations

from itertools import repeat
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

Coeff = Union[QTPoly, int]
_RawPoly = Mapping[TermKey, int]
_RawExpansion = dict[Partition, dict[TermKey, int]]
_UNIT: _RawPoly = {(0, 0): 1}
_KEYS: dict[TermKey, TermKey] = {}  # each exponent pair to its one shared tuple


def _poly(value: Coeff) -> QTPoly:
    return value if isinstance(value, QTPoly) else QTPoly({(0, 0): value})


def _sort_key(lam: Partition) -> tuple:
    return (sum(lam), tuple(-p for p in lam))


class SchurExpansion:
    """Mapping from partitions to nonzero QTPoly coefficients.

    Subclasses name another basis; expansions of different types never
    compare equal or add, and the operators below take only this class.
    """

    __slots__ = ("_terms",)
    basis: str | None = None  # written to and checked in JSON when set
    _letter = "s"

    def __init__(self, terms: Mapping[Partition, Coeff] | None = None):
        clean: dict[Partition, QTPoly] = {}
        for lam, coeff in (terms or {}).items():
            lam = as_partition(lam, "lam")
            poly = _poly(coeff)
            if poly:
                clean[lam] = poly
        self._terms = clean

    @classmethod
    def _trusted(cls, terms: Mapping[Partition, QTPoly]) -> "SchurExpansion":
        """The expansion of terms, whose keys are already partitions; zeros are dropped."""
        out = cls.__new__(cls)
        out._terms = {lam: c for lam, c in terms.items() if c}
        return out

    @classmethod
    def unit(cls) -> "SchurExpansion":
        """The constant symmetric function 1."""
        return cls({(): 1})

    @classmethod
    def schur(cls, lam: Partition) -> "SchurExpansion":
        return cls({tuple(lam): 1})

    def terms(self) -> list[tuple[Partition, QTPoly]]:
        """Terms sorted by size then descending lexicographic partition."""
        return sorted(self._terms.items(), key=lambda kv: _sort_key(kv[0]))

    def coefficient(self, lam: Partition) -> QTPoly:
        coeff = self._terms.get(int_parts(lam))
        return QTPoly.zero() if coeff is None else coeff

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._terms == other._terms

    def __add__(self, other: "SchurExpansion") -> "SchurExpansion":
        if type(other) is not type(self):
            return NotImplemented
        merged = dict(self._terms)
        for lam, coeff in other._terms.items():
            merged[lam] = merged.get(lam, QTPoly.zero()) + coeff
        return self._trusted(merged)

    def __sub__(self, other: "SchurExpansion") -> "SchurExpansion":
        return self + other.scaled(-1)

    def __neg__(self) -> "SchurExpansion":
        return self.scaled(-1)

    def scaled(self, coeff: Coeff) -> "SchurExpansion":
        factor = _poly(coeff)
        return self._trusted({lam: c * factor for lam, c in self._terms.items()})

    def map_coefficients(self, fn: Callable[[QTPoly], QTPoly]) -> "SchurExpansion":
        """The expansion with each coefficient c replaced by fn(c), re-keyed by `_KEYS`."""
        shared, acc = _KEYS.setdefault, {}
        for lam, c in self._terms.items():
            acc[lam] = {shared(key, key): v for key, v in _poly(fn(c))._terms.items()}
        return self._trusted(_expansion(acc)._terms)

    def degree(self) -> int | None:
        """Common size of the indexing partitions; None when empty."""
        sizes = {sum(lam) for lam in self._terms}
        if not sizes:
            return None
        if len(sizes) > 1:
            raise ValueError(f"expansion mixes degrees {sorted(sizes)}")
        return sizes.pop()

    def is_nonnegative(self) -> bool:
        return all(c.is_nonnegative() for c in self._terms.values())

    def to_json(self) -> dict:
        blob = {"basis": self.basis} if self.basis else {}
        blob["degree"] = self.degree() if self._terms else 0
        blob["terms"] = [
            {"lambda": list(lam), "coeff": coeff.to_terms()} for lam, coeff in self.terms()
        ]
        return blob

    @classmethod
    def from_json(cls, data: dict) -> "SchurExpansion":
        if data.get("basis") != cls.basis:
            raise ValueError(f"expected basis {cls.basis!r}, got {data.get('basis')!r}")
        terms = {}
        for entry in data["terms"]:
            lam = as_partition(entry["lambda"], "lambda")
            if lam in terms:
                raise ValueError(f"{lam} appears twice")
            terms[lam] = QTPoly.from_terms(entry["coeff"])
        f = cls(terms)
        degree, given = (f.degree() if f else 0), as_int(data.get("degree"), "degree")
        if given != degree:
            raise ValueError(f"degree {given!r} does not match the size {degree} of the terms")
        return f

    def __repr__(self) -> str:
        bits = [f"({coeff})*{self._letter}{lam}" for lam, coeff in self.terms()]
        return type(self).__name__ + "(" + (" + ".join(bits) or "0") + ")"


def _accumulate(
    acc: _RawExpansion, pieces: Iterable[tuple[Partition, _RawPoly]], coeff: _RawPoly
) -> None:
    """Add coeff times every (mu, piece) into acc, in place; pieces are only read.
    Each key enters a slot as its shared tuple from `_KEYS`."""
    shared = _KEYS.setdefault
    for mu, piece in pieces:
        slot = acc.get(mu)
        if slot is None:
            slot = acc[mu] = {}
        get = slot.get
        if piece is _UNIT:  # a Pieri image: coeff itself, unshifted
            for key, ac in coeff.items():
                slot[shared(key, key)] = get(key, 0) + ac
            continue
        # the shorter factor in the outer loop: fewer inner loops to start
        outer, inner = (piece, coeff) if len(piece) <= len(coeff) else (coeff, piece)
        for (bq, bt), bc in outer.items():
            for (aq, at), ac in inner.items():
                key = (aq + bq, at + bt)
                c = get(key)  # None: the key is new to the slot and enters shared
                slot[shared(key, key) if c is None else key] = (c or 0) + ac * bc


def _expansion(acc: _RawExpansion) -> SchurExpansion:
    """The expansion whose coefficients own the slots of acc, once the zero
    entries are deleted from each in place; emptied slots are dropped."""
    terms = {}
    for mu, slot in acc.items():
        for key in [key for key, c in slot.items() if not c]:
            del slot[key]
        terms[mu] = out = QTPoly.__new__(QTPoly)
        out._terms = slot
    return SchurExpansion._trusted(terms)


def _pieces(f: SchurExpansion) -> Iterable[tuple[Partition, _RawPoly]]:
    return ((lam, c._terms) for lam, c in f._terms.items())


def _schur_only(f: SchurExpansion) -> None:
    # an expansion in another basis (a subclass) would be read as Schur terms
    if type(f) is not SchurExpansion:
        raise TypeError(f"the Schur operators take a SchurExpansion, not {type(f).__name__}")


def linear_combination(pairs: Iterable[tuple[Coeff, SchurExpansion]]) -> SchurExpansion:
    """The sum of c * F over the (c, F) pairs, each output coefficient built once.
    pairs may be any iterable; it is consumed once, in order, each F let go
    before the next pair is drawn."""
    acc: _RawExpansion = {}
    for coeff, f in pairs:
        _schur_only(f)
        _accumulate(acc, _pieces(f), _poly(coeff)._terms)
        del f
    return _expansion(acc)


def _apply(f: SchurExpansion, image: Callable[[Partition, int], object], k: int) -> SchurExpansion:
    """The linear map sending each s_lam to image(lam, k), applied to f.

    image is either a strip enumerator, whose partitions each carry the
    coefficient 1, or a cached basis image mapping partitions to raw
    coefficients.  (lam, 2.0) and (lam, True) hash like (lam, 2) and (lam, 1),
    so k is checked before any image is looked up.
    """
    as_int(k, "operator degree")
    _schur_only(f)
    acc: _RawExpansion = {}
    for lam, coeff in f._terms.items():
        found = image(lam, k)
        pieces = found.items() if isinstance(found, dict) else zip(found, repeat(_UNIT))
        _accumulate(acc, pieces, coeff._terms)
    return _expansion(acc)


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
def _bernstein_image(lam: Partition, m: int) -> _RawExpansion:
    found = _straighten(m, lam)
    return {} if found is None else {found[1]: {(0, 0): found[0]}}


def _jing_sum(lam: Partition, m: int, dual: bool) -> _RawExpansion:
    """Sum of t^e B_{m+k} h_k-perp s_lam over k, where e is k, or |lam| - k when
    dual; cancelled terms are dropped."""
    n = sum(lam)
    s_lam = SchurExpansion.schur(lam)
    acc: _RawExpansion = {}
    # a horizontal strip inside lam has at most lam_1 cells
    for k in range((lam[0] if lam else 0) + 1):
        image = bernstein(m + k, skew_h(k, s_lam))
        _accumulate(acc, _pieces(image), {(0, n - k if dual else k): 1})
    return {mu: c._terms for mu, c in _expansion(acc)._terms.items()}


@memo
def _hl_vertex_image(lam: Partition, m: int) -> _RawExpansion:
    # Jing: sum_k t^k B_{m+k} h_k-perp
    return _jing_sum(lam, m, False)


@memo
def _hl_vertex_dual_image(lam: Partition, m: int) -> _RawExpansion:
    # sum_j t^(n-j) omega B_{m+j} omega e_j-perp, with e_j-perp = omega h_j-perp omega
    return {conjugate(mu): c for mu, c in _jing_sum(conjugate(lam), m, True).items()}


def bernstein(m: int, f: SchurExpansion) -> SchurExpansion:
    """The Bernstein row-adding operator sum_k (-1)^k h_{m+k} e_k-perp.

    It sends s_mu to s_(m, mu) straightened: +-one Schur function, or 0."""
    f.degree()  # rejects an argument that mixes degrees
    return _apply(f, _bernstein_image, m)


def hl_vertex(m: int, f: SchurExpansion) -> SchurExpansion:
    """Jing's Hall-Littlewood vertex operator sum_k t^k S_{m+k} h_k-perp."""
    f.degree()
    return _apply(f, _hl_vertex_image, m)


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
    f.degree()
    return _apply(f, _hl_vertex_dual_image, m)


def omega(f: SchurExpansion) -> SchurExpansion:
    """The involution sending s_lam to s_(lam conjugate)."""
    _schur_only(f)
    return SchurExpansion._trusted({conjugate(lam): c for lam, c in f._terms.items()})
