import pytest

from permchar import corpus
from permchar.classes import (
    EnumerationThresholdError,
    conjugacy_classes,
)
from permchar.group import trivial_group
from permchar.perm import parse_permutation


def test_s3_spec_example():
    C = conjugacy_classes(corpus.build("s3").group)
    assert len(C) == 3
    assert C.sizes == [1, 3, 2]
    assert C.orders == [1, 2, 3]
    # squaring: transpositions -> identity, 3-cycles -> 3-cycles
    assert C.power_maps[2] == (0, 0, 2)
    assert C.power_class(1, -1) == 1
    assert C.power_class(0, -1) == 0


def test_trivial_group_single_class():
    C = conjugacy_classes(trivial_group(4))
    assert len(C) == 1 and C.sizes == [1]


def test_threshold_errors():
    with pytest.raises(EnumerationThresholdError):
        conjugacy_classes(corpus.build("s5").group, threshold=100)


@pytest.mark.parametrize("family", ["s4", "a5", "d12", "q16", "sl23", "f13_3", "agl1_27", "c3q16"])
def test_class_partition_and_invariants(family):
    G = corpus.build(family).group
    C = conjugacy_classes(G)
    assert sum(C.sizes) == G.order()
    assert all(G.order() % s == 0 for s in C.sizes)
    assert C.sizes[0] == 1 and C.orders[0] == 1
    # inverse map is an involution fixing the identity class
    inv = C.inverse_map
    assert inv[0] == 0
    assert all(inv[inv[i]] == i for i in range(len(C)))
    # power maps fix the identity class
    assert all(pm[0] == 0 for pm in C.power_maps.values())
    # every element lands in exactly one class
    emap = C.element_class_map()
    assert len(emap) == G.order()
    counts = [0] * len(C)
    for v in emap.values():
        counts[v] += 1
    assert counts == C.sizes


def test_determinism_across_generating_sets():
    """Same classes regardless of how the group was generated."""
    a = parse_permutation("(1,2)", 4)
    b = parse_permutation("(1,2,3,4)", 4)
    from permchar.group import PermGroup

    g1 = PermGroup([a, b], 4)
    g2 = PermGroup([b * a, b, a * b * a], 4)
    assert g2.order() == 24
    c1 = conjugacy_classes(g1)
    c2 = conjugacy_classes(g2)
    assert [r.images for r in c1.reps] == [r.images for r in c2.reps]
    assert c1.sizes == c2.sizes and c1.orders == c2.orders


def test_class_of_arbitrary_element():
    G = corpus.build("a5").group
    C = conjugacy_classes(G)
    for g in [parse_permutation("(1,2,3)", 5), parse_permutation("(1,2,3,4,5)", 5)]:
        k = C.class_of(g)
        assert C.orders[k] == g.order()


def test_power_class_composite_exponents():
    C = conjugacy_classes(corpus.build("c12").group)
    g = C.reps[-1]
    for k in [2, 3, 4, 5, 6, 7, 11, 12, 13]:
        expect = C.class_of(g**k)
        assert C.power_class(len(C) - 1, k) == expect


def test_power_map_operation():
    from permchar.classes import power_map

    C = conjugacy_classes(corpus.build("s3").group)
    assert power_map(C, 1) == (0, 1, 2)
    assert power_map(C, -1) == C.inverse_map
    assert power_map(C, 2) == C.power_maps[2]


def test_real_class_indices_agree_with_inversion():
    C = conjugacy_classes(corpus.build("d10").group)
    assert C.real_class_indices() == [0, 1, 2, 3]
    C2 = conjugacy_classes(corpus.build("c3").group)
    assert C2.real_class_indices() == [0]
