"""Exact Macdonald symmetric functions H_mu[X;q,t] for shapes with at most
one part larger than two, together with the standard-tableau statistics that
realize their Schur coefficients and a battery of independent checks.

Everything is computed over the integers (or exact rationals in the
verification oracles); there is no floating point anywhere.
"""

from ._cache import cache_info, clear_caches
from ._checks import InputError
from .partitions import Partition, conjugate, parse_partition, format_partition
from .qtpoly import QTPoly
from .tableaux import Tableau, Word, charge, parse_tableau, format_tableau
from .schur import SchurExpansion
from .vertex import UnsupportedShapeError, macdonald, kostka

__all__ = [
    "InputError",
    "Partition",
    "QTPoly",
    "SchurExpansion",
    "Tableau",
    "UnsupportedShapeError",
    "Word",
    "cache_info",
    "charge",
    "clear_caches",
    "conjugate",
    "format_partition",
    "format_tableau",
    "kostka",
    "macdonald",
    "parse_partition",
    "parse_tableau",
]

__version__ = "0.1.0"
