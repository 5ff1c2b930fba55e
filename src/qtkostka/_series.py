"""The series definitions of the three vertex-building operators.

`schur` computes the images of `bernstein`, `hl_vertex` and `hl_vertex_dual`
by closed rules (Jacobi-Trudi straightening and Jing's strip sum).  The
functions here evaluate the original series term by term from the Pieri
operators, with no cached images, and sum the terms with
`linear_combination`, so that a check can compare the closed rules with a
second derivation instead of with themselves.  They are slow and meant for
small degrees only.
"""

from __future__ import annotations

from .qtpoly import QTPoly
from .schur import SchurExpansion, linear_combination, mul_e, mul_h, skew_e, skew_h


def series_bernstein(m: int, f: SchurExpansion) -> SchurExpansion:
    """sum_k (-1)^k h_{m+k} e_k-perp f."""
    ks = range((f.degree() or 0) + 1)
    return linear_combination(((-1) ** k, mul_h(m + k, skew_e(k, f))) for k in ks)


def series_hl_vertex(m: int, f: SchurExpansion) -> SchurExpansion:
    """sum_k t^k B_{m+k} h_k-perp f, with B from series_bernstein."""
    ks = range((f.degree() or 0) + 1)
    return linear_combination((QTPoly.t(k), series_bernstein(m + k, skew_h(k, f))) for k in ks)


def series_hl_vertex_dual(m: int, f: SchurExpansion) -> SchurExpansion:
    """sum_{i,j} t^(n-j) (-1)^i e_{m+i+j} h_i-perp e_j-perp f, n the degree of f."""
    n = f.degree() or 0
    return linear_combination(
        (QTPoly.monomial(0, n - j, (-1) ** i), mul_e(m + i + j, skew_h(i, skew_e(j, f))))
        for j in range(n + 1)
        for i in range(n - j + 1)
    )
