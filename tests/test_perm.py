import random

import pytest

from permchar import corpus
from permchar.charfun import decompose, perm_character
from permchar.classes import conjugacy_classes, conjugation_orbit
from permchar.dixon import character_table, class_matrix
from permchar.group import PermGroup, coset_action, trivial_group
from permchar.perm import (
    Permutation,
    conjugator,
    cycle_string,
    inv_images,
    mul_images,
    order_of_images,
    packed_conjugator,
    packed_multiplier,
    packer,
    parse_permutation,
    power_images,
)

from helpers import conj_images, conjugate_by


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
    assert conjugate_by(p, q) == ~q * p * q
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


# -- the itemgetter kernel against the generator-expression forms it replaced --


def _old_mul_images(p, q):
    return tuple(q[i] for i in p)


def _old_conjugation_orbit(group, images):
    gens = [g.images for g in group.generators]
    inv_gens = [inv_images(g) for g in gens]
    rng_n = range(group.degree)
    orbit = {images}
    queue = [images]
    while queue:
        y = queue.pop()
        for g, gi in zip(gens, inv_gens):
            z = tuple(g[y[gi[i]]] for i in rng_n)
            if z not in orbit:
                orbit.add(z)
                queue.append(z)
    return orbit


def _random_images(rng, n):
    images = list(range(n))
    rng.shuffle(images)
    return tuple(images)


def test_mul_images_matches_the_generator_form():
    rng = random.Random(0)
    for n in range(0, 51):
        for _ in range(20):
            p, q = _random_images(rng, n), _random_images(rng, n)
            got = mul_images(p, q)
            assert type(got) is tuple and got == _old_mul_images(p, q)


def _relabelled_dihedral(rng, n):
    """D_2n on n points (n >= 3), with its points renamed at random; a
    transposition for n = 2 and the trivial group for n = 1."""
    if n == 1:
        return trivial_group(1)
    s = _random_images(rng, n)
    s_inv = inv_images(s)
    gens = [tuple((i + 1) % n for i in range(n)), tuple((n - i) % n for i in range(n))]
    if n == 2:
        gens = gens[:1]
    return PermGroup([mul_images(mul_images(s_inv, g), s) for g in gens], n)


def test_conjugation_orbit_matches_the_generator_form():
    rng = random.Random(1)
    for n in range(1, 51):
        G = _relabelled_dihedral(rng, n)
        for _ in range(4):
            x = G.random_element(rng).images
            got = conjugation_orbit(G, x)
            assert got == _old_conjugation_orbit(G, x)
            assert all(type(y) is tuple and len(y) == n for y in got)


@pytest.mark.parametrize("n", [2, 24, 255, 256, 257])
def test_packed_maps_match_the_tuple_maps(n):
    """Up to degree 256 elements pack to bytes, which order like their
    image tuples, and the packed conjugator and multiplier are translates;
    above it the packed form is the image tuple."""
    rng = random.Random(n)
    pack = packer(n)
    assert pack is (bytes if n <= 256 else tuple)
    ys = [_random_images(rng, n) for _ in range(20)]
    assert sorted(map(pack, ys)) == [pack(y) for y in sorted(ys)]
    for y in ys:
        g = _random_images(rng, n)
        assert packed_conjugator(g)(pack(y)) == pack(conjugator(g)(y))
        assert packed_multiplier(g)(pack(y)) == pack(mul_images(y, g))
        assert tuple(pack(y)) == y


@pytest.mark.parametrize("family", ["c1", "s1"])
def test_degree_one_groups_keep_tuples(family):
    G = corpus.build(family).group
    assert G.degree == 1
    C = conjugacy_classes(G)
    assert C.reps[0].images == (0,)
    assert conjugation_orbit(G, (0,)) == {(0,)}
    assert mul_images((0,), (0,)) == (0,)
    assert class_matrix(C, 0) == [[1]]
    T = character_table(G, C, name=family)
    assert T.degrees == [1]
    assert coset_action(G, trivial_group(1)).reps == [(0,)]
    pi = perm_character(G, trivial_group(1), C)
    assert [str(v) for v in pi.values] == ["1"]
    assert decompose(pi, T) == [1]
