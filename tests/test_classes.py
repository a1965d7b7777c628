import hashlib
import random

import pytest

from permchar import classes, corpus
from permchar.classes import (
    ConjugacyClassSet,
    EnumerationThresholdError,
    _invariant_set,
    conjugacy_classes,
    conjugation_orbit,
)
from permchar.dixon import character_table
from permchar.group import PermGroup, trivial_group
from permchar.perm import (
    Permutation,
    cycle_type,
    inv_images,
    packer,
    parse_permutation,
    power_images,
)
from permchar.verify import SWEEP_FAMILIES

from helpers import ClassEnumeration, conj_images


def _inverse_classes(C) -> list:
    """The class of rep^-1 for every class, by `classify`."""
    return [C.classify(inv_images(r.images)) for r in C.reps]


def test_s3_spec_example():
    G = corpus.build("s3").group
    C = conjugacy_classes(G)
    assert len(C) == 3
    assert C.sizes == [1, 3, 2]
    assert C.orders == [1, 2, 3]
    # squaring: transpositions -> identity, 3-cycles -> 3-cycles
    assert character_table(G, C).power_maps[2] == (0, 0, 2)
    assert _inverse_classes(C) == [0, 1, 2]


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
    # inversion is an involution on the classes fixing the identity class
    inv = _inverse_classes(C)
    assert inv[0] == 0
    assert all(inv[inv[i]] == i for i in range(len(C)))
    # the table's power maps fix the identity class
    assert all(pm[0] == 0 for pm in character_table(G, C).power_maps.values())
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


def test_classify_arbitrary_element():
    G = corpus.build("a5").group
    C = conjugacy_classes(G)
    for g in [parse_permutation("(1,2,3)", 5), parse_permutation("(1,2,3,4,5)", 5)]:
        k = C.classify(g.images)
        assert C.orders[k] == g.order()


def factorize(k: int) -> list:
    """Prime factors of k with multiplicity, in increasing order."""
    out = []
    d = 2
    while d * d <= k:
        while k % d == 0:
            out.append(d)
            k //= d
        d += 1
    if k > 1:
        out.append(k)
    return out


def composed_power_class(T, inverse, i, k):
    """Oracle: the class of rep_i^k composed from the table's prime power
    maps, with `inverse` (the class of each rep^-1) for k = -1; None when k
    needs a prime whose map is not stored."""
    m = T.orders[i]
    k %= m
    if k == 0:
        return 0
    if k == m - 1:
        return inverse[i]
    cur = i
    for p in factorize(k):
        pm = T.power_maps.get(p)
        if pm is None:
            return None
        cur = pm[cur]
    return cur


def test_power_class_composite_exponents():
    """`classify` of rep^k on composite and negative exponents agrees with
    the table's prime power maps composed."""
    for family in ["c12", "s6", "agl1_27", "f13_3", "psl2_11", "c30"]:
        G = corpus.build(family).group
        C = conjugacy_classes(G)
        T = character_table(G, C)
        inverse = _inverse_classes(C)
        composite = 0
        for i, m in enumerate(C.orders):
            for k in range(-2 * m - 1, 2 * m + 2):
                want = composed_power_class(T, inverse, i, k)
                if want is not None:
                    assert C.classify(power_images(C.reps[i].images, k)) == want, (family, i, k)
                    composite += len(factorize(k % m)) > 1
        assert composite > 0, family


def test_element_map_is_kept_above_ten_thousand_elements():
    """On s8 (40,320 elements) the map the enumeration builds is the one
    `classify` reads: it is kept, and it partitions the group into the
    class sizes."""
    G = corpus.build("s8").group
    C = conjugacy_classes(G)
    emap = C.element_class_map()
    assert C.element_class_map() is emap and len(emap) == G.order()
    counts = [0] * len(C)
    for x in G.element_images_iter():
        counts[C.classify(x)] += 1
    assert counts == C.sizes
    # the lex-least member of an element's conjugation orbit is its class rep
    rng = random.Random(0)
    for _ in range(40):
        x = G.random_element(rng).images
        assert min(conjugation_orbit(G, x)) == C.reps[C.classify(x)].images


@pytest.mark.parametrize("family", SWEEP_FAMILIES + ["m11", "psl2_23"])
def test_stored_members_are_the_conjugation_orbits(family):
    """The enumeration keeps each class's members: `elements(i)`, unpacked,
    is the conjugation orbit of rep i, and after the early stop the element
    map still covers the whole group."""
    G = corpus.build(family).group
    C = conjugacy_classes(G)
    for i, r in enumerate(C.reps):
        members = C.elements(i)
        assert len(members) == C.sizes[i]
        assert {tuple(m) for m in members} == conjugation_orbit(G, r.images)
    assert len(C.element_class_map()) == G.order()


@pytest.mark.parametrize("family", ["d512", "d514"])
def test_enumeration_on_either_side_of_degree_256(family):
    """d512 acts on 256 points, so its classes are walked and kept as
    bytes; d514 acts on 257, so as image tuples. Either way they are the
    conjugation orbits of their reps, and `classify` takes both forms."""
    G = corpus.build(family).group
    C = conjugacy_classes(G)
    pack = packer(G.degree)
    assert sum(C.sizes) == G.order()
    for i, r in enumerate(C.reps):
        orbit = conjugation_orbit(G, r.images)
        assert min(orbit) == r.images
        assert set(C.elements(i)) == {pack(y) for y in orbit}
        assert all(C.classify(y) == C.classify(pack(y)) == i for y in orbit)


@pytest.mark.parametrize("family", ["s5", "m11", "psl2_23"])
def test_classify_takes_image_tuples_and_packed_elements(family):
    G = corpus.build(family).group
    C = conjugacy_classes(G)
    pack = packer(G.degree)
    for x in G.element_images_iter():
        assert C.classify(x) == C.classify(pack(x))


def test_enumeration_stops_once_the_classes_cover_the_group(monkeypatch):
    """M11 has found all its classes long before its 7,920th element: the
    enumeration leaves the element iterator there."""
    visited = []
    walk = PermGroup.element_images_iter

    def counting(self):
        for x in walk(self):
            visited.append(x)
            yield x

    monkeypatch.setattr(PermGroup, "element_images_iter", counting)
    G = corpus.build("m11").group
    C = conjugacy_classes(G)
    assert sum(C.sizes) == G.order()
    assert len(visited) < G.order() // 2
    # the last element visited opened the last class found
    assert C.classify(visited[-1]) not in {C.classify(x) for x in visited[:-1]}


ORACLE_FAMILIES = SWEEP_FAMILIES + ["psl2_23", "a7", "d512", "d514", "c257", "c300"]


@pytest.mark.parametrize("family", ORACLE_FAMILIES)
def test_class_set_agrees_with_the_reference_enumeration(family):
    """Below the threshold every class is walked whole: the same reps,
    sizes, orders and members as `ClassEnumeration`, and the same class
    for every element, as an image tuple and packed. With threshold 0 the
    classes are sampled and reps are first-sampled elements, so the
    numbering differs by a bijection that keeps (order, size), and
    `classify` (image tuple or packed) is that bijection on every element."""
    G = corpus.build(family).group
    E = ClassEnumeration(G)
    C = conjugacy_classes(G)
    S = ConjugacyClassSet(G, seed=0, threshold=0)
    pack = packer(G.degree)
    assert [r.images for r in C.reps] == [r.images for r in E.reps]
    assert (C.sizes, C.orders) == (E.sizes, E.orders)
    for i in range(len(C)):
        assert set(C.elements(i)) == {pack(y) for y in E.elements(i)}
    assert sorted(zip(S.orders, S.sizes)) == sorted(zip(E.orders, E.sizes))
    sigma: dict = {}
    for x in G.element_images_iter():
        k = E.classify(x)
        assert C.classify(x) == C.classify(pack(x)) == k
        assert sigma.setdefault(k, S.classify(x)) == S.classify(pack(x))
    assert sorted(sigma.values()) == list(range(len(S)))
    assert all((S.orders[j], S.sizes[j]) == (E.orders[k], E.sizes[k]) for k, j in sigma.items())


def test_whole_walk_draws_no_random_element(monkeypatch):
    """Below the threshold nothing is sampled and no point-set orbit is
    built: the one frame is the trivial one of every point."""
    groups = [corpus.build(family).group for family in ("m11", "a7", "psl2_23", "agl1_27")]

    def forbidden(self, rng):
        raise AssertionError("the whole walk drew a random element")

    frames = []

    class RecordedOrbit(classes._SetOrbit):
        def __init__(self, group, base, pack):
            frames.append(len(base) == group.degree)
            super().__init__(group, base, pack)

    monkeypatch.setattr(PermGroup, "random_element", forbidden)
    monkeypatch.setattr(classes, "_SetOrbit", RecordedOrbit)
    for G in groups:
        C = conjugacy_classes(G)
        assert sum(C.sizes) == G.order()
    assert frames == [True] * len(groups)


def test_whole_walk_finds_sixteen_thousand_singleton_classes():
    """14 disjoint transpositions on 28 points generate an elementary
    abelian group of order 2^14, whose 16,384 classes have one element
    each. Sampling would need about 16,384 ln 16,384, some 159,000
    draws, to see them all, past its default budget of 100,000; the
    whole walk visits each element once."""
    G = PermGroup([Permutation.from_cycles(28, [(2 * i, 2 * i + 1)]) for i in range(14)], 28)
    C = conjugacy_classes(G)
    assert len(C) == G.order() == 16_384
    assert set(C.sizes) == {1} and C.orders.count(2) == 16_383
    assert len(C.element_class_map()) == G.order()
    assert all(C.classify(r.images) == i for i, r in enumerate(C.reps))


def test_real_class_indices_agree_with_inversion():
    for family, real in [("d10", [0, 1, 2, 3]), ("c3", [0])]:
        G = corpus.build(family).group
        C = conjugacy_classes(G)
        assert [k for k, j in enumerate(_inverse_classes(C)) if j == k] == real
        assert character_table(G, C).real_class_indices() == real


@pytest.mark.parametrize("family", [
    "m11", "psl2_23", "a7",
    # above degree 256 the packed records are two bytes a point
    "c300",
    pytest.param("m22", marks=pytest.mark.slow),
])
def test_sampled_classes_agree_with_enumerated_classes(family, enumerated_classes):
    C = enumerated_classes(family)
    G = C.group
    S = ConjugacyClassSet(G, seed=0, threshold=0)
    # sampled reps are first-sampled elements, not lex-least, so the two
    # numberings agree up to the bijection sigma
    sigma = [C.classify(r.images) for r in S.reps]
    assert sorted(sigma) == list(range(len(C)))
    assert [C.sizes[k] for k in sigma] == S.sizes
    assert [C.orders[k] for k in sigma] == S.orders
    for g in G.element_images_iter():
        assert sigma[S.classify(g)] == C.classify(g)


@pytest.mark.parametrize("family", SWEEP_FAMILIES + ["psl2_23", "a7", "d512", "d514", "c257"])
def test_sampled_elements_are_the_conjugation_orbits(family):
    """`elements(i)` of a complete sampled set, a whole class as kept or
    an S-class streamed through its frame's transversal, is the
    conjugation orbit of rep i, packed, with no repeats; `classify` puts
    every member in class i and walks nothing. Above degree 256 both kinds
    of frame keep image tuples (d514, c257)."""
    G = corpus.build(family).group
    S = ConjugacyClassSet(G, seed=0, threshold=0)
    pack = packer(G.degree)
    walked = {ct: list(classes) for ct, classes in S._walked.items()}
    total = S._total
    for i, r in enumerate(S.reps):
        members = list(S.elements(i))
        assert len(members) == len(set(members)) == S.sizes[i]
        assert set(members) == conjugation_orbit(G, r.images, pack)
        assert all(S.classify(x) == i for x in members)
    assert S._walked == walked and S._total == total


def test_sampled_coprime_powers_are_listed_once_per_galois_family(monkeypatch):
    """The 256 classes of C257 are one Galois family: the coprime powers
    of each new class are read off one list of the powers of the family's
    first element, so the only `power_images` call is the sample's own
    257th power in `sample` (65,281 calls when each power of each class
    was computed on its own)."""
    calls = []
    monkeypatch.setattr(classes, "power_images",
                        lambda p, n: calls.append(n) or power_images(p, n))
    S = ConjugacyClassSet(corpus.build("c257").group, seed=0, threshold=0)
    assert S.sizes == [1] * 257
    assert calls == [257]


def test_sampled_classes_build_no_chain_for_frames_that_g_fixes(monkeypatch):
    """In 2^10, ten disjoint transpositions on 20 points, every invariant
    set is a union of the pairs, which G fixes: each frame's orbit is its
    base and its stabilizer G, with no chain built (7,007 `_schreier_sims`
    calls when every new frame ran `orbit_stabilizer`)."""
    G = PermGroup([Permutation.from_cycles(20, [[2 * i, 2 * i + 1]]) for i in range(10)], 20)
    calls = []
    build = PermGroup._schreier_sims
    monkeypatch.setattr(PermGroup, "_schreier_sims",
                        lambda self, *args: calls.append(1) or build(self, *args))
    S = ConjugacyClassSet(G, seed=0, threshold=0)
    assert S.sizes == [1] * 1024 and not calls
    frames = [f for fs in S._frames.values() for f in fs]
    assert len(frames) > 1 and all(f.stabilizer is G for f in frames)
    assert all(S.classify(x) == i for i in range(len(S)) for x in S.elements(i))


# sha256 of repr([rep images]) of ConjugacyClassSet(G, seed=0, threshold=0):
# a sampled rep is the first element added to its class, so these pin the
# order of the samples and of the coprime powers added after each new class
SAMPLED_REP_DIGESTS = {
    "m11": "17e5266417042cd4d66989f9922974f4f9db41487d5ddbfc66fe9aaee58dc667",
    "psl2_23": "0593ed9d7d2cd1831e78af29f48eed5cd06ae6a140156e9fb25a91da48735ba5",
    "agl1_27": "cd9ee2b7a9d84cfb3d5ef36749be4ea7f4fff7aaa2d7e9341784de6a71382f99",
    "d514": "2875d3b2201f50ab71f5c17687e94c354a062b0506b92faa83e784b311ce91d8",
    "c257": "8e29d724b92e7b2d8a023bf93435e0206e4362da11983b52d21f997e18874002",
}


@pytest.mark.parametrize("family", sorted(SAMPLED_REP_DIGESTS))
def test_sampled_reps_match_their_pins(family):
    S = ConjugacyClassSet(corpus.build(family).group, seed=0, threshold=0)
    digest = hashlib.sha256(repr([r.images for r in S.reps]).encode()).hexdigest()
    assert digest == SAMPLED_REP_DIGESTS[family]


def test_sampled_classes_raise_when_the_budget_runs_out():
    with pytest.raises(RuntimeError, match=r"class sizes sum to \d+ of \|G\| = 7920 after 1 samples"):
        ConjugacyClassSet(corpus.build("m11").group, seed=0, budget=1, threshold=0)


@pytest.mark.parametrize("family", [
    "m11", "psl2_23", "a7",
    # a regular cyclic group: every element has one cycle length
    "c300",
    pytest.param("m22", marks=pytest.mark.slow),
])
def test_reduced_class_sizes_equal_whole_class_walks(family):
    """A class sized through the stabilizer of its invariant point set has
    the size of its whole conjugation orbit in G."""
    G = corpus.build(family).group
    S = ConjugacyClassSet(G, seed=0, threshold=0)
    assert S.sizes == [len(conjugation_orbit(G, r.images)) for r in S.reps]
    lengths = [set(r.cycle_type()) for r in S.reps]
    if family == "c300":
        assert all(len(ls) == 1 for ls in lengths)
    if family in ("m11", "a7"):
        # m11 6a has cycle type 2.3.6 and a7 has (1,2)(3,4)(5,6,7)
        assert any(1 not in ls and len(ls) > 1 for ls in lengths)


@pytest.mark.parametrize("text, degree, want", [
    # fixed points and 2-cycles cover 2 points each: the tie goes to length 1
    ("(1,2)(3,4,5,6)", 8, {6, 7}),
    ("(1,2)(3,4,5)", 5, {0, 1}),
    ("(1,2,3,4)(5,6,7,8)", 8, set(range(8))),
    ("(1,2)(3,4)(5,6,7,8,9,10)", 11, {10}),
    # two 3-cycles and a 6-cycle cover 6 points each: the tie goes to length 3
    ("(1,2,3)(4,5,6)(7,8,9,10,11,12)", 12, set(range(6))),
    ("(1,2,3)(4,5,6)(7,8,9,10,11,12)", 13, {12}),
])
def test_invariant_set_takes_the_length_covering_fewest_points(text, degree, want):
    g = parse_permutation(text, degree).images
    assert _invariant_set(g, cycle_type(g)) == want
    # it moves with conjugation: F(x^-1 g x) is F(g) under x
    x = tuple(reversed(range(degree)))
    y = conj_images(g, x)
    assert _invariant_set(y, cycle_type(y)) == {x[p] for p in want}
