"""The paper's theorem and positivity past the Tier-1 sizes: every direct
shape at n = 10 and 11, and the three family shapes at n = 12.

Tier-1 deselects these (`addopts` in pyproject.toml); run them with

    PYTHONPATH=src python -m pytest -m slow
"""

import pytest

from qtkostka.oracle import count_syt
from qtkostka.partitions import partitions_of
from qtkostka.stats import stat_genfun
from qtkostka.vertex import UnsupportedShapeError, classify_shape, macdonald

pytestmark = pytest.mark.slow


def _direct_shapes(n):
    out = []
    for mu in partitions_of(n):
        try:
            if classify_shape(mu)[0] == "direct":
                out.append(mu)
        except UnsupportedShapeError:
            pass
    return out


# (2^a 1^b), (3 2^a 1^b) and (4 2^a 1^b): all 14 at n = 10 and all 15 at
# n = 11, then one of each at n = 12
SHAPES = (
    _direct_shapes(10)
    + _direct_shapes(11)
    + [(2, 2, 2, 2, 2, 2), (3, 2, 2, 2, 2, 1), (4, 2, 2, 2, 2)]
)


def test_the_shape_list_is_complete():
    assert [sum(mu) for mu in SHAPES].count(10) == 14
    assert [sum(mu) for mu in SHAPES].count(11) == 15


@pytest.mark.parametrize("mu", SHAPES)
def test_the_tableau_statistics_give_the_macdonald_function(mu):
    assert stat_genfun(mu) == macdonald(mu)


@pytest.mark.parametrize("mu", SHAPES)
def test_every_kostka_coefficient_is_a_positive_count_of_standard_tableaux(mu):
    h = macdonald(mu)
    for lam in partitions_of(sum(mu)):
        terms = h.coefficient(lam).terms()
        assert terms and all(c > 0 for _, c in terms), lam
        assert sum(c for _, c in terms) == count_syt(lam), lam
