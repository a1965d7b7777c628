import pytest
from hypothesis import given, settings, strategies as st

from permchar.cyclo import (
    Cyclotomic,
    cyclotomic_polynomial,
    euler_phi,
    parse_cyclotomic,
    render_cyclotomic,
    root_of_unity,
)


def test_root_of_unity_spec_examples():
    assert root_of_unity(1, 0) == 1
    assert root_of_unity(4, 2) == -1
    assert root_of_unity(6, 3) == -1
    with pytest.raises(ValueError):
        root_of_unity(0)


def test_multiplicative_order_post():
    for n, k in [(6, 1), (6, 2), (8, 2), (12, 8), (5, 3)]:
        z = root_of_unity(n, k)
        order = 1
        w = z
        while not (w == 1):
            w = w * z
            order += 1
        from math import gcd

        assert order == n // gcd(n, k)


def test_arith_spec_examples():
    z3 = root_of_unity(3)
    assert z3 * z3 * z3 == 1
    z8 = root_of_unity(8)
    w = z8 + z8**7
    assert w * w == 2
    z5 = root_of_unity(5)
    v = z5 + z5**4
    assert v.is_real() and not v.is_rational()
    # minimal polynomial x^2 + x - 1
    assert (v * v + v - 1).is_zero()


def test_conjugation():
    z5 = root_of_unity(5)
    assert z5.conjugate() == z5**4
    assert z5.conjugate().conjugate() == z5
    assert root_of_unity(3).is_real() is False
    assert (root_of_unity(3) + root_of_unity(3, 2)).is_rational()


def test_predicates_spec_examples():
    five = Cyclotomic.rational(5)
    assert five.is_rational() and five.is_real() and five.as_rational() == 5
    z3 = root_of_unity(3)
    assert not z3.is_rational() and not z3.is_real()
    v = root_of_unity(5) + root_of_unity(5, 4)
    assert not v.is_rational() and v.is_real() and v.as_rational() is None


def test_conductor_minimization():
    # zeta_6 lives in Q(zeta_3)
    assert root_of_unity(6).conductor == 3
    # (zeta_8 + zeta_8^7)^2 = 2 is rational
    z8 = root_of_unity(8)
    assert ((z8 + z8**7) ** 2).conductor == 1
    # sums of a full Galois orbit are rational
    total = Cyclotomic.rational(0)
    for k in range(1, 7):
        total = total + root_of_unity(7, k)
    assert total == -1


def test_cyclotomic_polynomial_values():
    assert list(cyclotomic_polynomial(1)) == [-1, 1]
    assert list(cyclotomic_polynomial(2)) == [1, 1]
    assert list(cyclotomic_polynomial(4)) == [1, 0, 1]
    assert list(cyclotomic_polynomial(6)) == [1, -1, 1]
    assert list(cyclotomic_polynomial(12)) == [1, 0, -1, 0, 1]
    assert euler_phi(12) == 4


small_rationals = st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)


@st.composite
def cyclotomics(draw):
    n = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12]))
    coords = [draw(small_rationals) for _ in range(euler_phi(n))]
    return Cyclotomic(n, tuple(coords))


@settings(max_examples=60, deadline=None)
@given(cyclotomics(), cyclotomics(), cyclotomics())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + 0 == a and a * 1 == a


@settings(max_examples=60, deadline=None)
@given(cyclotomics(), cyclotomics())
def test_conjugation_is_a_ring_map(a, b):
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert a.conjugate().conjugate() == a


@settings(max_examples=50, deadline=None)
@given(cyclotomics())
def test_reduction_idempotence(a):
    again = Cyclotomic(a.conductor, a.coords)
    assert again == a and again.conductor == a.conductor


@settings(max_examples=50, deadline=None)
@given(cyclotomics(), cyclotomics())
def test_numerical_shadow(a, b):
    """Exact arithmetic agrees with complex floating arithmetic."""
    for exact, approx in [
        (a + b, a.to_complex() + b.to_complex()),
        (a * b, a.to_complex() * b.to_complex()),
        (a - b, a.to_complex() - b.to_complex()),
    ]:
        assert abs(exact.to_complex() - approx) < 1e-9


@settings(max_examples=40, deadline=None)
@given(cyclotomics())
def test_field_embedding_lift_commutes(a):
    """Value is unchanged by computing in a larger field: multiplying by a
    root of unity and dividing it out again round-trips exactly."""
    z = root_of_unity(7)
    assert a * z * z**6 == a
    z2 = root_of_unity(8)
    assert (a + z2) - z2 == a


def test_render_parse_round_trip():
    cases = ["-3/2", "2*E(5)+2*E(5)^4", "E(11)+E(11)^3", "1+E(3)", "-E(7)^2-3*E(7)", "0"]
    for s in cases:
        v = parse_cyclotomic(s)
        assert parse_cyclotomic(render_cyclotomic(v)) == v


@settings(max_examples=40, deadline=None)
@given(cyclotomics())
def test_render_parse_identity(a):
    assert parse_cyclotomic(render_cyclotomic(a)) == a


def test_parse_rejects_garbage():
    for bad in ["", "E(5)^", "E()", "¤", "2**E(5)"]:
        with pytest.raises((ValueError, ZeroDivisionError)):
            parse_cyclotomic(bad)


def test_algebraic_integrality_of_roots():
    z = root_of_unity(12, 5)
    assert all(c.denominator == 1 for c in z.coords)
