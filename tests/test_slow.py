"""The paper's theorem and positivity past the Tier-1 sizes, at n = 11 and 12.

Tier-1 deselects these (`addopts` in pyproject.toml); run them with

    PYTHONPATH=src python -m pytest -m slow
"""

import pytest

from qtkostka.oracle import count_syt
from qtkostka.partitions import partitions_of
from qtkostka.stats import stat_genfun
from qtkostka.vertex import macdonald

pytestmark = pytest.mark.slow

# (2^a 1^b), (3 2^a 1^b) and (4 2^a 1^b) at each size
FAMILY_SHAPES = [
    (2, 2, 2, 2, 2, 1),
    (3, 2, 2, 2, 2),
    (4, 2, 2, 2, 1),
    (2, 2, 2, 2, 2, 2),
    (3, 2, 2, 2, 2, 1),
    (4, 2, 2, 2, 2),
]


@pytest.mark.parametrize("mu", FAMILY_SHAPES)
def test_the_tableau_statistics_give_the_macdonald_function(mu):
    assert stat_genfun(mu) == macdonald(mu)


@pytest.mark.parametrize("mu", FAMILY_SHAPES)
def test_every_kostka_coefficient_is_a_positive_count_of_standard_tableaux(mu):
    h = macdonald(mu)
    for lam in partitions_of(sum(mu)):
        terms = h.coefficient(lam).terms()
        assert terms and all(c > 0 for _, c in terms), lam
        assert sum(c for _, c in terms) == count_syt(lam), lam
