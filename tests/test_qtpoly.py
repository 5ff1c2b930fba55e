from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qtkostka.qtpoly import QTPoly


def poly(*triples):
    return QTPoly.from_terms(triples)


def test_constructors():
    assert QTPoly.zero() == QTPoly({})
    assert QTPoly.one() == QTPoly({(0, 0): 1})
    assert QTPoly.q(2) == QTPoly({(2, 0): 1})
    assert QTPoly.t() == QTPoly({(0, 1): 1})
    assert not QTPoly.zero()
    assert QTPoly.one()


@pytest.mark.parametrize("c", [-2, 0, 1, 5])
def test_a_constant_hashes_like_the_int_it_equals(c):
    p = QTPoly({(0, 0): c})
    assert p == c and hash(p) == hash(c)
    assert len({c, p}) == 1 and {c: "z"}[p] == "z"
    assert hash(p + QTPoly.q(1)) == hash(QTPoly.q(1) + c)


def test_negative_exponents_rejected():
    with pytest.raises(ValueError):
        QTPoly({(-1, 0): 1})
    with pytest.raises(ValueError):
        QTPoly.monomial(0, -2, 5)


def test_non_integer_coefficients_rejected():
    for coeff in (1.5, 2.0, Fraction(1, 2), Fraction(2), True):
        with pytest.raises(TypeError):
            QTPoly({(0, 0): coeff})
    with pytest.raises(TypeError):
        QTPoly.monomial(1, 1, 0.0)
    assert QTPoly({(1, 0): 3}).coefficient(1, 0) == 3
    assert QTPoly.from_terms([(0, 0, "7")]) == QTPoly({(0, 0): 7})


def test_zero_coefficients_dropped():
    assert QTPoly({(1, 1): 0}) == QTPoly.zero()
    assert (QTPoly.q(1) - QTPoly.q(1)) == QTPoly.zero()


def test_arithmetic():
    p = QTPoly.one() + QTPoly.monomial(1, 1)
    assert p * p == poly((0, 0, 1), (1, 1, 2), (2, 2, 1))
    assert 2 * QTPoly.q(1) == QTPoly.monomial(1, 0, 2)
    assert QTPoly.one() - 2 * QTPoly.q(1) + 2 * QTPoly.q(3) == poly(
        (0, 0, 1), (1, 0, -2), (3, 0, 2)
    )
    assert QTPoly.t(1) * QTPoly.t(1) * QTPoly.t(1) == QTPoly.t(3)


def test_degrees():
    p = poly((2, 3, 4), (0, 1, 1))
    assert p.deg_q == 2 and p.deg_t == 3
    assert QTPoly.zero().deg_q == 0


def test_evaluate():
    p = poly((1, 0, 1), (0, 1, 1))
    assert p.evaluate(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)


def test_evaluate_rejects_float_and_bool_coordinates():
    p = QTPoly.q(1) + QTPoly.t(2)
    for q0, t0 in [(0.1, Fraction(1)), (Fraction(1), 0.5), (True, Fraction(1)), (Fraction(1), False)]:
        with pytest.raises(TypeError, match="is not an int or a Fraction"):
            p.evaluate(q0, t0)
    assert p.evaluate(2, Fraction(1, 3)) == Fraction(19, 9)
    assert QTPoly.zero().evaluate(0, 0) == 0


def test_q_zero_and_swap():
    p = poly((0, 1, 1), (1, 0, 3), (2, 2, 5))
    assert p.q_zero() == QTPoly.t(1)
    assert p.swap_qt() == poly((1, 0, 1), (0, 1, 3), (2, 2, 5))


def test_reverse():
    # reverse over the box (2, 3): exponent (a, b) -> (2-a, 3-b)
    p = poly((0, 0, 1), (2, 3, 4), (1, 1, 2))
    assert p.reverse(2, 3) == poly((2, 3, 1), (0, 0, 4), (1, 2, 2))
    with pytest.raises(ValueError):
        p.reverse(1, 3)


def test_json_round_trip():
    p = poly((0, 0, 1), (3, 2, 7), (1, 5, -2))
    assert QTPoly.from_terms(p.to_terms()) == p
    assert p.to_terms() == [[0, 0, "1"], [1, 5, "-2"], [3, 2, "7"]]


def test_str_forms():
    assert str(QTPoly.zero()) == "0"
    assert str(QTPoly.one() + QTPoly.monomial(1, 1)) == "1 + q*t"
    assert (QTPoly.one() + QTPoly.monomial(1, 1)).latex() == "1 + qt"


coeffs = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), st.integers(-5, 5), max_size=5
)


@given(coeffs, coeffs, coeffs)
def test_ring_laws(a, b, c):
    p, q, r = QTPoly(a), QTPoly(b), QTPoly(c)
    assert p + q == q + p
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert p - p == QTPoly.zero()


def _per_term_value(p: QTPoly, q0: Fraction, t0: Fraction) -> Fraction:
    """The reference evaluation: one Fraction power and product per term."""
    total = Fraction(0)
    for (dq, dt), coeff in p.terms():
        total += coeff * q0**dq * t0**dt
    return total


wide_coeffs = st.dictionaries(
    st.tuples(st.integers(0, 20), st.integers(0, 20)), st.integers(-10**6, 10**6), max_size=8
)
nonzero_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=97).filter(bool)


@given(
    wide_coeffs,
    st.one_of(st.just(Fraction(0)), st.fractions(min_value=-3, max_value=3, max_denominator=97)),
    nonzero_fractions,
    st.booleans(),
)
def test_integer_evaluate_matches_the_per_term_sum(a, q0, t0, invert):
    # covers the zero polynomial, q0 = 0, negative t0 and t0 replaced by 1/t0
    if invert:
        t0 = 1 / t0
    p = QTPoly(a)
    got = p.evaluate(q0, t0)
    assert type(got) is Fraction
    assert got == _per_term_value(p, q0, t0)


@given(coeffs)
def test_swap_and_reverse_involutive(a):
    p = QTPoly(a)
    assert p.swap_qt().swap_qt() == p
    assert p.reverse(p.deg_q, p.deg_t).reverse(p.deg_q, p.deg_t) == p


def test_from_terms_refuses_what_to_terms_never_writes():
    # int() would truncate 1.5 and 0.5, reloading a different polynomial
    for triple in [
        (0, 0, 1.5),
        (0, 0, 2.0),
        (0, 0, True),
        (0, 0, Fraction(2)),
        (0, 0, "1.5"),
        (0, 0, " 7"),
        (0, 0, "1_0"),
        (0, 0, "0x1f"),
        (0.5, 0, 1),
        (0, 1.0, 1),
        (True, 0, 1),
        ("1", 0, 1),
    ]:
        with pytest.raises(TypeError):
            QTPoly.from_terms([triple])
    assert QTPoly.from_terms([(2, 1, "-12"), (2, 1, 5), (0, 0, "0")]) == poly((2, 1, -7))


def test_non_int_exponents_rejected():
    # True and 2.0 hash like 1 and 2; q^1.5 is not a polynomial term
    for key in [(1.5, 0), (0, 2.0), (True, 0), (0, False), ("1", 0)]:
        with pytest.raises(TypeError, match="is not an int"):
            QTPoly({key: 1})
    for make in [
        lambda: QTPoly.q(1.5),
        lambda: QTPoly.t(2.0),
        lambda: QTPoly.monomial(1, True),
        lambda: QTPoly.one().reverse(2.0, 0),
        lambda: QTPoly.one().reverse(0, True),
    ]:
        with pytest.raises(TypeError):
            make()
    assert QTPoly.q(2).reverse(3, 1) == QTPoly.monomial(1, 1)


@given(coeffs, coeffs, st.integers(-3, 3))
def test_arithmetic_results_are_what_the_checked_constructor_builds(a, b, k):
    # the arithmetic builds its results without the per-term checks; they must
    # hold the same terms, with no zero coefficient, as the checked constructor
    p, q = QTPoly(a), QTPoly(b)
    for r in (p + q, p - q, p * q, -p, p + k, k - p, k * p, p * k, p.q_zero(), p.swap_qt()):
        assert r == QTPoly(dict(r.terms()))
        assert all(type(c) is int and c for _, c in r.terms())
    assert (p - p).terms() == []
