import pytest

from permchar.perm import (
    Permutation,
    cycle_string,
    conj_images,
    order_of_images,
    parse_permutation,
    power_images,
)


def test_identity_and_bijection_check():
    p = Permutation.identity(5)
    assert p.is_identity()
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


def test_composition_is_left_to_right():
    a = parse_permutation("(1,2)", 3)
    b = parse_permutation("(2,3)", 3)
    ab = a * b
    # apply a first: 1->2, then b: 2->3
    assert ab[0] == 2


def test_inverse_and_associativity():
    p = parse_permutation("(1,2,3)(4,5)", 6)
    q = parse_permutation("(1,6)", 6)
    r = parse_permutation("(2,4,6)", 6)
    assert (p * ~p).is_identity()
    assert (p * q) * r == p * (q * r)


def test_conjugation_matches_definition():
    p = parse_permutation("(1,2,3)", 5)
    q = parse_permutation("(3,4,5)", 5)
    assert p.conjugate_by(q) == ~q * p * q
    assert conj_images(p.images, q.images) == (~q * p * q).images


def test_order_and_powers():
    p = parse_permutation("(1,2,3)(4,5)", 6)
    assert p.order() == 6
    assert (p**6).is_identity()
    assert p**-1 == ~p
    assert power_images(p.images, 4) == (p * p * p * p).images
    assert order_of_images(p.images) == 6


def test_cycle_string_round_trip():
    for s in ["()", "(1,2)", "(1,2,3)(4,5)", "(2,4,6,8)(1,3)(5,7)"]:
        p = parse_permutation(s, 9)
        assert parse_permutation(cycle_string(p), 9) == p


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_permutation("(1,2", 4)
    with pytest.raises(ValueError):
        parse_permutation("(1,9)", 4)
    with pytest.raises(ValueError):
        parse_permutation("(1,1)", 4)


def test_cycle_type_and_fixed_points():
    p = parse_permutation("(1,2,3)(4,5)", 7)
    assert p.cycle_type() == (1, 1, 2, 3)
    assert p.fixed_points() == 2
