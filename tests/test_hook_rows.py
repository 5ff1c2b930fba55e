"""Every hook row of H_mu in closed form, independent of the paper's routes.

Stembridge (Proc. Amer. Math. Soc. 121 (1994) 367-373): the modified
coefficient of the hook (n-k, 1^k) is e_k[B_mu - 1], where B_mu sums
q^(j-1) t^(i-1) over the cells (i, j) of mu.  In this library's convention
K_{lam,mu}(q,t) = t^n(mu) K~_{lam,mu}(q, 1/t).  The reference below builds e_k
on exponent dicts, with no QTPoly or Schur code.
"""

import pytest

from qtkostka import clear_caches
from qtkostka.partitions import UnsupportedShapeError, classify_shape, partitions_of
from qtkostka.vertex import macdonald


def hook_rows(mu):
    """[K_{(n-k,1^k),mu}(q,t) for k = 0..n-1], each as {(q power, t power): coefficient}."""
    rows = [{(0, 0): 1}]  # rows[k] is e_k of the cells seen so far
    for i, part in enumerate(mu):
        for j in range(1 if i == 0 else 0, part):  # B_mu - 1 drops the cell (1, 1)
            rows.append({})
            for k in range(len(rows) - 1, 0, -1):
                for (a, b), c in rows[k - 1].items():
                    rows[k][a + j, b + i] = rows[k].get((a + j, b + i), 0) + c
    n_mu = sum(i * part for i, part in enumerate(mu))
    return [{(a, n_mu - b): c for (a, b), c in row.items()} for row in rows]


def _supported(n):
    for mu in partitions_of(n):
        try:
            classify_shape(mu)
        except UnsupportedShapeError:
            continue
        yield mu


def _check_hook_rows(n) -> int:
    checked = 0
    for mu in _supported(n):
        h = macdonald(mu)
        for k, row in enumerate(hook_rows(mu)):
            assert dict(h.coefficient((n - k,) + (1,) * k).terms()) == row, (mu, k)
            checked += 1
    return checked


def test_the_reference_on_small_shapes():
    # H_(2) = s_2 + q s_11 and H_(1,1) = t s_2 + s_11
    assert hook_rows((2,)) == [{(0, 0): 1}, {(1, 0): 1}]
    assert hook_rows((1, 1)) == [{(0, 1): 1}, {(0, 0): 1}]
    # K_{(2,1),(2,1)} = 1 + qt
    assert hook_rows((2, 1))[1] == {(1, 1): 1, (0, 0): 1}


def test_every_hook_row_up_to_n_10():
    assert sum(_check_hook_rows(n) for n in range(1, 11)) == 904


@pytest.mark.slow
@pytest.mark.parametrize("n", [13, 14, 15, 16])
def test_every_hook_row_past_the_tier1_sizes(n):
    clear_caches()
    assert _check_hook_rows(n) == n * len(list(_supported(n)))
    clear_caches()
