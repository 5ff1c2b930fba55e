"""Every supported H_mu checked as a polynomial against Macdonald's
characterisation, independent of the paper's routes and of the oracle.

H~_mu is the one symmetric function with (Haiman, J. Amer. Math. Soc. 14
(2001) 941-1006):
- H~_mu[X(1-q)] in the span of the s_lam with lam >= mu (dominance);
- H~_mu[X(1-t)] in the span of the s_lam with lam >= mu';
- <H~_mu, s_(n)> = 1.
In this library's convention K_{lam,mu}(q,t) = t^n(mu) K~_{lam,mu}(q, 1/t).
The coefficient of s_lam in s_nu[X(1-q)] is the integer polynomial
M[lam][nu](q) = sum_rho chi^lam(rho) chi^nu(rho) prod_i (1 - q^rho_i) / z_rho,
so the first condition says that sum_nu M[lam][nu](q) K~_{nu,mu}(q, t) = 0
for every lam not >= mu, and the second says the same with q and t swapped,
for every lam not >= mu'.  The characters (Murnaghan-Nakayama, one rim hook
per cell of hook length rho_1) and the polynomials, {(q power, t power):
coefficient} dicts, are written here; macdonald is read once per shape, and
the check itself runs with the public functions of schur, vertex and oracle
made to raise.
"""

from functools import cache
from math import factorial

import pytest

from qtkostka import clear_caches, oracle, schur, vertex
from qtkostka.partitions import UnsupportedShapeError, classify_shape, partitions_of


@cache
def chi(lam, rho):
    """chi^lam(rho): strip a rim hook of size rho[0], one per cell (i, j) of
    lam with that hook length; the hook's leg gives its sign."""
    if not rho:
        return 1
    cols = [sum(p > j for p in lam) for j in range(lam[0])] if lam else []
    total = 0
    for i, part in enumerate(lam):
        for j in range(part):
            leg = cols[j] - i - 1
            if part - j + leg == rho[0]:
                nu = lam[:i] + tuple(p - 1 for p in lam[i + 1 : i + leg + 1]) + (j,)
                nu += lam[i + leg + 1 :]
                total += (-1) ** leg * chi(tuple(p for p in nu if p), rho[1:])
    return total


def class_size(rho):
    """n! / z_rho."""
    z = 1
    for p in set(rho):
        z *= p ** rho.count(p) * factorial(rho.count(p))
    return factorial(sum(rho)) // z


def dominates(lam, mu):
    """lam >= mu in dominance order, for partitions of one size."""
    return all(sum(lam[:i]) >= sum(mu[:i]) for i in range(1, len(mu) + 1))


def transpose(mu):
    return tuple(sum(p > j for p in mu) for j in range(mu[0])) if mu else ()


@cache
def plethysm_matrix(n):
    """{lam: {nu: {d: c}}}: the nonzero M[lam][nu](q) as {q power: coefficient}."""
    shapes = partitions_of(n)
    factors = {}  # rho -> (n! / z_rho) prod_i (1 - q^rho_i)
    for rho in shapes:
        poly = {0: class_size(rho)}
        for p in rho:
            step = dict(poly)
            for d, c in poly.items():
                step[d + p] = step.get(d + p, 0) - c
            poly = step
        factors[rho] = poly
    out = {}
    for lam in shapes:
        row = out[lam] = {}
        for nu in shapes:
            entry = {}
            for rho in shapes:
                w = chi(lam, rho) * chi(nu, rho)
                for d, c in factors[rho].items() if w else ():
                    entry[d] = entry.get(d, 0) + w * c
            assert all(c % factorial(n) == 0 for c in entry.values()), (lam, nu)
            entry = {d: c // factorial(n) for d, c in entry.items() if c}
            if entry:
                row[nu] = entry
    return out


def modified(mu):
    """{lam: K~_{lam,mu}} from macdonald(mu), by K~(q, t) = t^n(mu) K(q, 1/t)."""
    n_mu = sum(i * p for i, p in enumerate(mu))
    return {
        lam: {(i, n_mu - j): c for (i, j), c in poly.terms()}
        for lam, poly in vertex.macdonald(mu).terms()
    }


def failures(mu, coeffs):
    """The conditions coeffs = {lam: K~_{lam,mu}} breaks, one line each."""
    n = sum(mu)
    bad = []
    if coeffs.get((n,)) != {(0, 0): 1}:
        bad.append(f"<H~, s_({n})> = {coeffs.get((n,))}")
    matrix = plethysm_matrix(n)
    for var, low in [("q", mu), ("t", transpose(mu))]:
        for lam, row in matrix.items():
            if dominates(lam, low):
                continue
            total = {}
            for nu, entry in row.items():
                for (i, j), c in coeffs.get(nu, {}).items():
                    for d, e in entry.items():
                        key = (i + d, j) if var == "q" else (i, j + d)
                        total[key] = total.get(key, 0) + c * e
            if any(total.values()):
                bad.append(f"s_{lam} in H~_mu[X(1-{var})]")
    return bad


def supported(n):
    for mu in partitions_of(n):
        try:
            classify_shape(mu)
        except UnsupportedShapeError:
            continue
        yield mu


def _refuse(*args, **kwargs):
    raise AssertionError("the characterisation check called a route")


def _check_every_shape(monkeypatch, sizes):
    expansions = {mu: modified(mu) for n in sizes for mu in supported(n)}
    for module in (schur, vertex, oracle):
        for name, value in vars(module).items():
            if not name.startswith("_") and callable(value) and not isinstance(value, type):
                monkeypatch.setattr(module, name, _refuse)
    for mu, coeffs in expansions.items():
        assert not failures(mu, coeffs), mu
    return len(expansions)


def test_the_characters_and_the_matrix_on_small_cases():
    assert [chi((2, 1), rho) for rho in [(1, 1, 1), (2, 1), (3,)]] == [2, 0, -1]
    assert [chi((2, 2), rho) for rho in partitions_of(4)] == [0, -1, 2, 0, 2]
    # s_(1)[X(1-q)] = (1-q) s_(1); s_(2)[X(1-q)] = (1-q) s_(2) + (q^2-q) s_(1,1)
    assert plethysm_matrix(1) == {(1,): {(1,): {0: 1, 1: -1}}}
    assert plethysm_matrix(2)[(2,)][(2,)] == {0: 1, 1: -1}
    assert plethysm_matrix(2)[(1, 1)][(2,)] == {1: -1, 2: 1}


def test_every_supported_shape_up_to_n_8(monkeypatch):
    assert _check_every_shape(monkeypatch, range(1, 9)) == 65


@pytest.mark.slow
@pytest.mark.parametrize("n", [9, 10])
def test_every_supported_shape_past_the_tier1_sizes(monkeypatch, n):
    clear_caches()
    assert _check_every_shape(monkeypatch, [n]) == len(list(supported(n)))
    clear_caches()


@pytest.mark.parametrize("term", [(1, 0), (0, 1), (1, 1)], ids=["q", "t", "qt"])
def test_one_extra_term_in_one_coefficient_fails(term):
    # one shape of each family at n = 6, and each coefficient in turn
    for mu in [(2, 2, 1, 1), (3, 2, 1), (4, 2)]:
        coeffs = modified(mu)
        assert not failures(mu, coeffs)
        for lam in partitions_of(6):
            poly = dict(coeffs.get(lam, {}))
            poly[term] = poly.get(term, 0) + 1
            assert failures(mu, {**coeffs, lam: poly}), (mu, lam)
