"""Sparse exact polynomials in the two formal variables q and t.

Coefficients are Python integers, exponents are nonnegative.  Instances
are immutable; arithmetic returns new objects and never normalizes away
exactness.  `evaluate` takes `int` or `Fraction` coordinates only and
stays in integers: with q0 = a/b and t0 = c/d it sums
coeff * a^i b^(Q-i) * c^j d^(T-j) over the terms q^i t^j and divides once
by b^Q d^T, where Q and T are the degrees in q and t.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Mapping, Union

from ._checks import as_int, as_point

TermKey = tuple[int, int]


def _coerce(value: Union["QTPoly", int]) -> "QTPoly":
    if isinstance(value, QTPoly):
        return value
    if isinstance(value, int):
        return QTPoly({(0, 0): value})
    raise TypeError(f"cannot treat {value!r} as a q,t-polynomial")


class QTPoly:
    """Polynomial in q and t with integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[TermKey, int] | None = None):
        clean: dict[TermKey, int] = {}
        for (dq, dt), coeff in (terms or {}).items():
            as_int(dq, "q exponent", 0)
            as_int(dt, "t exponent", 0)
            if as_int(coeff, "coefficient"):
                clean[(dq, dt)] = coeff
        self._terms = clean

    @classmethod
    def _trusted(cls, terms: Mapping[TermKey, int]) -> "QTPoly":
        """The polynomial of terms, whose exponents and coefficients are already
        valid (they come from other QTPolys); zeros are dropped."""
        out = cls.__new__(cls)
        out._terms = {key: c for key, c in terms.items() if c}
        return out

    @classmethod
    def zero(cls) -> "QTPoly":
        return cls()

    @classmethod
    def one(cls) -> "QTPoly":
        return cls({(0, 0): 1})

    @classmethod
    def q(cls, power: int = 1) -> "QTPoly":
        return cls({(power, 0): 1})

    @classmethod
    def t(cls, power: int = 1) -> "QTPoly":
        return cls({(0, power): 1})

    @classmethod
    def monomial(cls, dq: int, dt: int, coeff: int = 1) -> "QTPoly":
        return cls({(dq, dt): coeff})

    def terms(self) -> list[tuple[TermKey, int]]:
        """Terms sorted lexicographically by (q-degree, t-degree)."""
        return sorted(self._terms.items())

    def coefficient(self, dq: int, dt: int) -> int:
        return self._terms.get((dq, dt), 0)

    @property
    def deg_q(self) -> int:
        return max((dq for dq, _ in self._terms), default=0)

    @property
    def deg_t(self) -> int:
        return max((dt for _, dt in self._terms), default=0)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = _coerce(other)
        if not isinstance(other, QTPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: Union["QTPoly", int]) -> "QTPoly":
        other = _coerce(other)
        merged = dict(self._terms)
        for key, coeff in other._terms.items():
            merged[key] = merged.get(key, 0) + coeff
        return QTPoly._trusted(merged)

    __radd__ = __add__

    def __neg__(self) -> "QTPoly":
        return QTPoly._trusted({key: -coeff for key, coeff in self._terms.items()})

    def __sub__(self, other: Union["QTPoly", int]) -> "QTPoly":
        return self + (-_coerce(other))

    def __rsub__(self, other: Union["QTPoly", int]) -> "QTPoly":
        return _coerce(other) + (-self)

    def __mul__(self, other: Union["QTPoly", int]) -> "QTPoly":
        other = _coerce(other)
        product: dict[TermKey, int] = {}
        for (aq, at), ac in self._terms.items():
            for (bq, bt), bc in other._terms.items():
                key = (aq + bq, at + bt)
                product[key] = product.get(key, 0) + ac * bc
        return QTPoly._trusted(product)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "QTPoly":
        as_int(exponent, "exponent", 0)
        result = QTPoly.one()
        for _ in range(exponent):
            result = result * self
        return result

    def evaluate(self, q0: Union[int, Fraction], t0: Union[int, Fraction]) -> Fraction:
        """Exact value at the point (q0, t0), as one integer sum over a common denominator."""
        q0, t0 = as_point(q0, t0)
        if not self._terms:
            return Fraction(0)
        a, b = q0.numerator, q0.denominator
        c, d = t0.numerator, t0.denominator
        top_q, top_t = self.deg_q, self.deg_t
        num = 0
        for (dq, dt), coeff in self._terms.items():
            num += coeff * a**dq * b ** (top_q - dq) * c**dt * d ** (top_t - dt)
        return Fraction(num, b**top_q * d**top_t)

    def evaluate_t(self, t0: Union[int, Fraction]) -> Fraction:
        """Value at t=t0 for polynomials with no q terms."""
        if self.deg_q:
            raise ValueError("polynomial involves q")
        return self.evaluate(0, t0)

    def q_zero(self) -> "QTPoly":
        """The specialization q = 0."""
        return QTPoly._trusted({key: c for key, c in self._terms.items() if key[0] == 0})

    def swap_qt(self) -> "QTPoly":
        """Exchange the roles of q and t."""
        return QTPoly._trusted({(dt, dq): c for (dq, dt), c in self._terms.items()})

    def reverse(self, bound_q: int, bound_t: int) -> "QTPoly":
        """q^A t^B P(1/q, 1/t) for A=bound_q, B=bound_t."""
        as_int(bound_q, "bound_q")
        as_int(bound_t, "bound_t")
        if bound_q < self.deg_q or bound_t < self.deg_t:
            raise ValueError("reversal bounds below the actual degrees")
        return QTPoly._trusted(
            {(bound_q - dq, bound_t - dt): c for (dq, dt), c in self._terms.items()}
        )

    def is_nonnegative(self) -> bool:
        return all(c >= 0 for c in self._terms.values())

    def to_terms(self) -> list[list]:
        """JSON form: [dq, dt, coefficient-as-decimal-string] triples."""
        return [[dq, dt, str(c)] for (dq, dt), c in self.terms()]

    @classmethod
    def from_terms(cls, triples: Iterable[Iterable]) -> "QTPoly":
        """Inverse of to_terms: int exponents, each coefficient an int or a decimal string."""
        data: dict[TermKey, int] = {}
        for dq, dt, coeff in triples:
            as_int(dq, "q exponent", 0)
            as_int(dt, "t exponent", 0)
            if isinstance(coeff, str) and re.fullmatch(r"-?[0-9]+", coeff):
                coeff = int(coeff)
            data[(dq, dt)] = data.get((dq, dt), 0) + as_int(coeff, "coefficient")
        return cls(data)

    def _render(self, mul: str, power) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for (dq, dt), coeff in self.terms():
            factors = []
            if dq:
                factors.append("q" + (power(dq) if dq > 1 else ""))
            if dt:
                factors.append("t" + (power(dt) if dt > 1 else ""))
            mag = abs(coeff)
            if mag != 1 or not factors:
                factors.insert(0, str(mag))
            body = mul.join(factors)
            if not pieces:
                pieces.append(body if coeff > 0 else "-" + body)
            else:
                pieces.append((" + " if coeff > 0 else " - ") + body)
        return "".join(pieces)

    def __str__(self) -> str:
        return self._render("*", lambda e: f"^{e}")

    def latex(self) -> str:
        return self._render("", lambda e: f"^{{{e}}}")

    def __repr__(self) -> str:
        return f"QTPoly({self})"
