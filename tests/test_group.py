import hashlib
import random
from types import SimpleNamespace

import pytest

from permchar import corpus, verify
from permchar.classes import _SetOrbit, conjugacy_classes
from permchar.group import (
    PermGroup,
    _coset_key,
    _gens_fixing,
    _Level,
    _point_orbits,
    centralizer,
    core,
    coset_action,
    is_normal_in,
    is_subgroup,
    normal_closure,
    normalizer,
    o_2prime,
    orbit_stabilizer,
    proper_subgroup,
    setwise_stabilizer,
    sylow_2,
    trivial_group,
)
from permchar.perm import (
    Permutation,
    identity_images,
    inv_images,
    mul_images,
    parse_permutation,
)

from helpers import (
    THEOREM_D_FAMILIES,
    ReferenceChain,
    chain_levels,
    conj_images,
    frozenset_centralizer,
    frozenset_normalizer,
    frozenset_setwise_stabilizer,
    unguarded_fixed_cosets,
)


def brute_force_order(gens, degree):
    seen = {identity_images(degree)}
    frontier = list(seen)
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = mul_images(x, g.images)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return len(seen)


FAMILY_SAMPLE = ["s3", "s4", "s5", "a4", "a5", "d10", "d24", "q8", "q16",
                 "c12", "f7_3", "sl23", "c3q16", "agl1_8", "agl1_9", "psl3_2"]


@pytest.mark.parametrize("family", FAMILY_SAMPLE)
def test_bsgs_order_matches_brute_force(family):
    G = corpus.build(family).group
    assert G.order() == brute_force_order(G.generators, G.degree)


def test_spec_examples_build_group():
    G = PermGroup([parse_permutation("(1,2)", 4), parse_permutation("(1,2,3,4)", 4)], 4)
    assert G.order() == 24
    assert trivial_group(5).order() == 1


@pytest.mark.parametrize("family,degree", [
    ("s6", 6), ("psl2_11", 12), ("agl1_27", 27), ("m11", 11), ("c3q16", 48), ("s5", 600),
])
def test_transversal_inverses_invert_the_transversals(family, degree):
    """Full-mode levels store each inverse at its first use and drop the
    store when the orbit is recomputed; vector-mode levels build it."""
    G = _padded(corpus.build(family).group, degree)
    one = identity_images(degree)
    for lv in G._levels:
        for pt in lv.orbit:
            u = lv.transversal(pt, degree)
            assert u[lv.point] == pt
            assert mul_images(u, lv.transversal_inv(pt, degree)) == one


# the corpus groups the library checks: the sweep and theorem-D families and the Mathieu groups
CORPUS_FAMILIES = sorted(set(verify.SWEEP_FAMILIES) | set(THEOREM_D_FAMILIES) | {"m11", "m22", "m23"})


def _assert_matches_reference(G, R, draws=0, max_listed=2000):
    """G's chain is R's level by level, and so are `draws` seeded random
    elements and, up to order `max_listed`, the order of the elements."""
    assert chain_levels(G._levels) == chain_levels(R.levels)
    assert G.order() == R.order
    if draws:
        rng_g, rng_r = random.Random(G.order()), random.Random(G.order())
        assert ([G.random_element(rng_g).images for _ in range(draws)]
                == [R.random_element(rng_r) for _ in range(draws)])
    if G.order() <= max_listed:
        assert list(G.element_images_iter()) == R.element_images()


@pytest.mark.parametrize("family", CORPUS_FAMILIES)
def test_chain_matches_the_reference_schreier_sims(family):
    G = corpus.build(family).group
    _assert_matches_reference(G, ReferenceChain(G.generators, G.degree), draws=30)


def _assert_two_generated_subgroups_match(G, seed, samples):
    """Seeded 2-generated subgroups: `PermGroup` builds the reference
    chain, and `proper_subgroup` returns None exactly when the reference
    order is |G|, else that same chain."""
    rng = random.Random(seed)
    outcomes = set()
    for _ in range(samples):
        gens = [G.random_element(rng), G.random_element(rng)]
        R = ReferenceChain(gens, G.degree)
        _assert_matches_reference(PermGroup(gens, G.degree), R, draws=5)
        H = proper_subgroup(G, gens)
        assert (H is None) == (R.order == G.order())
        if H is not None:
            _assert_matches_reference(H, R, draws=5)
        outcomes.add(H is None)
    return outcomes


@pytest.mark.parametrize("family", verify.SWEEP_FAMILIES)
def test_two_generated_subgroups_match_the_reference(family):
    G = corpus.build(family).group
    _assert_two_generated_subgroups_match(G, seed=18, samples=12)


@pytest.mark.parametrize("family", ["s5", "psl2_7", "agl1_9", "q16"])
def test_two_generated_subgroups_match_the_reference_with_schreier_vectors(family):
    G = _padded(corpus.build(family).group, 600)
    assert all(not lv.full for lv in G._levels)
    _assert_matches_reference(G, ReferenceChain(G.generators, 600), draws=10)
    # both answers occur, so the stop and the finished build are both checked
    assert _assert_two_generated_subgroups_match(G, seed=18, samples=12) == {True, False}


def test_cyclic_group_of_degree_600_matches_the_reference():
    """One 600-point orbit: every Schreier generator but one comes from a
    tree edge of the Schreier vector."""
    n = 600
    c = Permutation([*range(1, n), 0])
    G = PermGroup([c], n)
    # listing the elements walks 600 Schreier-vector paths per group
    _assert_matches_reference(G, ReferenceChain([c], n), draws=10, max_listed=0)
    assert proper_subgroup(G, [c]) is None
    H = proper_subgroup(G, [c**4])
    assert H.order() == 150
    _assert_matches_reference(H, ReferenceChain([c**4], n), draws=10, max_listed=0)


@pytest.mark.parametrize("family", ["c12", "s4", "m11", "psl2_13"])
def test_whole_group_stop_does_less_than_the_full_build(family, monkeypatch):
    """Generators of G stop the build once the orbit lengths multiply to
    |G|, before the remaining Schreier generators are formed and sifted:
    during the verification pass, or before it (c12's one generator)."""
    G = corpus.build(family).group
    calls = []
    for cls, name in ((PermGroup, "_sift"), (_Level, "transversal")):
        method = getattr(cls, name)
        monkeypatch.setattr(cls, name, lambda self, *a, m=method: calls.append(1) or m(self, *a))
    PermGroup(G.generators, G.degree)
    full = len(calls)
    calls.clear()
    assert proper_subgroup(G, G.generators) is None
    assert len(calls) < full
    assert proper_subgroup(trivial_group(3), []) is None


def test_membership_is_exact():
    G = corpus.build("a5").group
    inside = sum(1 for _ in G.element_images_iter())
    assert inside == 60
    assert parse_permutation("(1,2,3)", 5) in G
    assert parse_permutation("(1,2)", 5) not in G
    p = parse_permutation("(1,2)(3,4)", 5)
    assert (p in G) and (~p in G)


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        PermGroup([parse_permutation("(1,2)", 3)], 4)


def test_element_iteration_unique_and_complete():
    G = corpus.build("s4").group
    elems = list(G.element_images_iter())
    assert len(elems) == 24 == len(set(elems))


@pytest.mark.parametrize("family,degree", [("psl2_7", 600), ("s5", 520), ("s4", 513)])
def test_element_walk_matches_the_reference_with_schreier_vectors(family, degree):
    """The batched walk lists the reference's elements in its order when
    every level keeps a Schreier vector, over three or more levels."""
    G = _padded(corpus.build(family).group, degree)
    assert all(not lv.full for lv in G._levels) and len(G._sorted_orbits) >= 3
    elems = list(G.element_images_iter())
    assert elems == ReferenceChain(G.generators, degree).element_images()
    assert len(set(elems)) == G.order()


@pytest.mark.parametrize("gens,degree", [
    ([], 1), ([], 0), ([], 5), ([(1, 0)], 2), ([(1, 2, 0)], 3),
])
def test_element_walk_of_trivial_and_tiny_groups(gens, degree):
    G = PermGroup(gens, degree)
    elems = list(G.element_images_iter())
    assert elems == ReferenceChain(G.generators, degree).element_images()
    assert len(elems) == G.order()


def test_random_element_is_member_and_deterministic():
    G = corpus.build("psl3_2").group
    r1 = [G.random_element(random.Random(5)) for _ in range(10)]
    r2 = [G.random_element(random.Random(5)) for _ in range(10)]
    assert r1 == r2
    assert all(g in G for g in r1)


def test_coset_action_spec_examples():
    s4 = corpus.build("s4")
    d8 = sylow_2(s4.group)
    act = coset_action(s4.group, d8)
    assert act.degree == 3
    img = PermGroup(act.gen_images, act.degree)
    assert img.order() == 6  # kernel V4
    assert act.kernel().order() == 4
    # H = G: degree-1 action
    act2 = coset_action(s4.group, s4.group)
    assert act2.degree == 1
    # every generator of H fixes coset 0 (H itself), and nothing else does
    S = _coset_zero_stabilizer(act)
    assert all(h in S for h in d8.generators)
    assert S.order() == d8.order()


def _coset_zero_stabilizer(act):
    """Stabilizer in G of coset 0, computed from `gen_images` alone."""
    orbit, _, stab = orbit_stabilizer(act.G, 0, [img.__getitem__ for img in act.gen_images])
    assert len(orbit) == act.degree
    return stab


def _bucket_enumeration(G, H):
    """The coset enumeration that canonical keys replaced, kept as the
    oracle: bucket cosets by the least image of each H-orbit, then find Hy
    in its bucket by testing y * r^-1 in H against each representative r."""
    orbits = _point_orbits(H)

    def invariant(x):
        return tuple(min(x[p] for p in orb) for orb in orbits)

    reps = [identity_images(G.degree)]
    buckets = {invariant(reps[0]): [0]}
    gens = [g.images for g in G.generators]
    images = [[] for _ in gens]
    i = 0
    while i < len(reps):
        for gi, g in enumerate(gens):
            y = mul_images(reps[i], g)
            bucket = buckets.setdefault(invariant(y), [])
            for j in bucket:
                if H.contains_images(mul_images(y, inv_images(reps[j]))):
                    break
            else:
                j = len(reps)
                reps.append(y)
                bucket.append(j)
            images[gi].append(j)
        i += 1
    return reps, [tuple(img) for img in images]


def _assert_matches_bucket_oracle(G, H):
    act = coset_action(G, H)
    reps, gen_images = _bucket_enumeration(G, H)
    assert act.reps == reps
    assert act.gen_images == gen_images


@pytest.mark.parametrize("family", verify.SWEEP_FAMILIES)
def test_coset_action_matches_bucket_oracle_on_sweep_pairs(family):
    G = corpus.build(family).group
    for seed in (0, 1):
        for _, H in verify.sample_subgroups(G, seed=seed, budget=14):
            _assert_matches_bucket_oracle(G, H)


@pytest.mark.parametrize("family,selector", [
    pytest.param(f, s, marks=[pytest.mark.slow] if f == "m23" else [])
    for f, s, _, _ in verify.PAPER_TABLE_ITEMS
])
def test_coset_action_matches_bucket_oracle_on_paper_pairs(family, selector):
    cg = corpus.build(family)
    _assert_matches_bucket_oracle(cg.group, cg.subgroup(selector))


def _padded(K, degree):
    fixed = tuple(range(K.degree, degree))
    return PermGroup([g.images + fixed for g in K.generators], degree)


@pytest.mark.parametrize("family", ["s5", "psl2_7", "agl1_9"])
def test_coset_action_matches_bucket_oracle_with_schreier_vectors(family):
    # above degree 512 the chain keeps Schreier vectors, not transversals
    G = corpus.build(family).group
    for _, H in verify.sample_subgroups(G, seed=0, budget=14):
        Gp, Hp = _padded(G, 600), _padded(H, 600)
        assert all(not lv.full for lv in Hp._levels)
        _assert_matches_bucket_oracle(Gp, Hp)


@pytest.mark.parametrize("family,degree", [
    ("s4", 4), ("a5", 5), ("d12", 6), ("psl3_2", 7), ("s4", 600),
])
def test_coset_key_separates_exactly_the_right_cosets(family, degree):
    G = _padded(corpus.build(family).group, degree)
    elems = list(G.element_images_iter())
    for _, H in verify.sample_subgroups(G, seed=0, budget=6):
        hset = set(H.element_images_iter())
        keys = [_coset_key(H, x) for x in elems]
        for x, kx in zip(elems, keys):
            assert mul_images(kx, inv_images(x)) in hset  # the key lies in Hx
            for y, ky in zip(elems, keys):
                assert (kx == ky) == (mul_images(x, inv_images(y)) in hset)


def _assert_fixed_cosets_match_the_unguarded_count(G, H, seed=0, draws=6):
    """fixed_cosets against sifting every coset, for the identity, the
    generators of G and H, and seeded random elements of G."""
    act = coset_action(G, H)
    rng = random.Random(seed)
    elements = [Permutation(identity_images(G.degree)), *G.generators, *H.generators,
                *(G.random_element(rng) for _ in range(draws))]
    for p in elements:
        assert act.fixed_cosets(p) == unguarded_fixed_cosets(act, p), p
    assert act.fixed_cosets(elements[0]) == act.degree


# every selector of every corpus group, up to this index
_GUARD_MAX_INDEX = 2000


@pytest.mark.parametrize("family", CORPUS_FAMILIES + ["c1"])
def test_fixed_cosets_match_the_unguarded_count_on_corpus_selectors(family):
    cg = corpus.build(family)
    G = cg.group
    for selector in cg.subgroup_names():
        try:
            H = cg.subgroup(selector)
        except ValueError:  # h2p needs an odd field size
            continue
        if G.order() // H.order() <= _GUARD_MAX_INDEX:
            _assert_fixed_cosets_match_the_unguarded_count(G, H)


@pytest.mark.parametrize("family", verify.SWEEP_FAMILIES)
def test_fixed_cosets_match_the_unguarded_count_on_sampled_subgroups(family):
    G = corpus.build(family).group
    for _, H in verify.sample_subgroups(G, seed=1, budget=8):
        _assert_fixed_cosets_match_the_unguarded_count(G, H, seed=1)


@pytest.mark.parametrize("family,selector,transitive", [
    ("agl1_9", "f", True), ("psl3_2", "whole", True), ("s4", "trivial", False),
])
def test_fixed_cosets_guard_on_transitive_and_trivial_subgroups(family, selector, transitive):
    """A transitive H guards with all points, so the guard rejects no
    coset; the trivial group guards with a fixed point."""
    cg = corpus.build(family)
    H = cg.subgroup(selector)
    a, orbit = coset_action(cg.group, H)._guard
    assert orbit == (frozenset(range(H.degree)) if transitive else {a})
    _assert_fixed_cosets_match_the_unguarded_count(cg.group, H)


def test_coset_action_requires_subgroup():
    a5 = corpus.build("a5").group
    odd = PermGroup([parse_permutation("(1,2)", 5)], 5)
    with pytest.raises(ValueError):
        coset_action(a5, odd)
    wrong_degree = PermGroup([parse_permutation("(1,2,3)", 3)], 3)
    with pytest.raises(ValueError):
        coset_action(a5, wrong_degree)


def test_core_examples():
    s4 = corpus.build("s4")
    d8 = sylow_2(s4.group)
    K = core(s4.group, d8)
    assert K.order() == 4
    assert is_normal_in(K, s4.group)
    assert is_subgroup(K, d8)
    s3 = corpus.build("s3").group
    H = PermGroup([parse_permutation("(1,2)", 3)], 3)
    assert core(s3, H).order() == 1
    # H normal -> core = H, and the kernel path agrees with the
    # normality shortcut
    v4 = PermGroup([parse_permutation("(1,2)(3,4)", 4), parse_permutation("(1,3)(2,4)", 4)], 4)
    assert core(s4.group, v4).order() == 4
    kernel = coset_action(s4.group, v4).kernel()
    assert kernel.order() == 4 and is_subgroup(kernel, v4)


def test_kernel_equals_core_across_corpus_pairs():
    rng = random.Random(0)
    for family in ["s4", "a5", "d12", "sl23", "f13_3"]:
        G = corpus.build(family).group
        for _ in range(3):
            H = PermGroup([G.random_element(rng), G.random_element(rng)], G.degree)
            act = coset_action(G, H)
            K = act.kernel()
            # kernel is normal, inside H, and the image is transitive of
            # the right degree
            assert is_normal_in(K, G)
            assert is_subgroup(K, H)
            assert act.degree == G.order() // H.order()
            assert PermGroup(act.gen_images, act.degree).order() == G.order() // K.order()


def test_centralizer_and_normalizer_against_brute_force():
    G = corpus.build("s4").group
    x = parse_permutation("(1,2)(3,4)", 4)
    C = centralizer(G, x)
    assert C.order() == sum(1 for g in G.elements() if (~g * x * g) == x)
    H = PermGroup([x], 4)
    N = normalizer(G, H)
    count = 0
    hset = set(H.element_images_iter())
    for g in G.elements():
        if {(~g * Permutation(h) * g).images for h in hset} == hset:
            count += 1
    assert N.order() == count


def _per_generator(G, act):
    """The action `act(obj, gen_images)` as one map per generator of G."""
    return [lambda obj, g=g.images: act(obj, g) for g in G.generators]


def _parent_pointer_orbit_stabilizer(G, seed, maps):
    """The orbit_stabilizer that the shared breadth-first orbit replaced,
    kept as the oracle: parent pointers, each transversal word rebuilt from
    them, and a second pass of the maps for the Schreier generators, every
    one of them sifted (no stop at |G|/|orbit|). Returns (orbit,
    transversal, stabilizer)."""
    gens = [g.images for g in G.generators]
    orbit_index = {seed: 0}
    orbit = [seed]
    parents = [None]
    queue = [0]
    while queue:
        i = queue.pop(0)
        for gi, f in enumerate(maps):
            img = f(orbit[i])
            if img not in orbit_index:
                orbit_index[img] = len(orbit)
                orbit.append(img)
                parents.append((i, gi))
                queue.append(len(orbit) - 1)

    def word_for(i):
        u = identity_images(G.degree)
        path = []
        while parents[i] is not None:
            i, gi = parents[i]
            path.append(gi)
        for gi in reversed(path):
            u = mul_images(u, gens[gi])
        return u

    words = [word_for(i) for i in range(len(orbit))]
    stab_gens = []
    stab = trivial_group(G.degree)
    for i in range(len(orbit)):
        for g, f in zip(gens, maps):
            j = orbit_index[f(orbit[i])]
            s = mul_images(mul_images(words[i], g), inv_images(words[j]))
            if not stab.contains_images(s):
                stab_gens.append(Permutation(s))
                stab = PermGroup(stab_gens, G.degree)
    return orbit, words, stab


def _conjugate_set(obj, g):
    return frozenset(conj_images(e, g) for e in obj)


def _image_set(obj, g):
    return frozenset(g[p] for p in obj)


def _assert_matches_parent_pointer_oracle(G, seed, act, stab):
    """The orbit, transversal and stabilizer generators are the oracle's,
    with `act` called once per (point, generator); `stab` is the stabilizer
    a public wrapper returned for the same action."""
    calls = 0

    def counted(obj, g):
        nonlocal calls
        calls += 1
        return act(obj, g)

    orbit, transversal, new = orbit_stabilizer(G, seed, _per_generator(G, counted))
    old_orbit, old_transversal, old = _parent_pointer_orbit_stabilizer(
        G, seed, _per_generator(G, act))
    assert orbit == old_orbit
    assert transversal == old_transversal
    old_gens = [g.images for g in old.generators]
    assert [g.images for g in new.generators] == old_gens
    assert [g.images for g in stab.generators] == old_gens
    assert new.order() * len(orbit) == G.order()
    assert calls == len(orbit) * len(G.generators)


@pytest.mark.parametrize("family", verify.SWEEP_FAMILIES)
def test_centralizer_and_normalizer_match_parent_pointer_oracle(family):
    G = corpus.build(family).group
    rng = random.Random(0)
    for _ in range(4):
        x = G.random_element(rng)
        _assert_matches_parent_pointer_oracle(G, x.images, conj_images, centralizer(G, x))
    P = sylow_2(G)
    seed = frozenset(P.element_images_iter())
    _assert_matches_parent_pointer_oracle(G, seed, _conjugate_set, normalizer(G, P))


def test_m11_normalizer_matches_parent_pointer_oracle():
    G = corpus.build("m11").group
    P = sylow_2(G)
    seed = frozenset(P.element_images_iter())
    _assert_matches_parent_pointer_oracle(G, seed, _conjugate_set, normalizer(G, P))


@pytest.mark.parametrize("points", [{0, 1}, {0, 1, 2}])
def test_m23_setwise_stabilizer_matches_parent_pointer_oracle(points):
    G = corpus.build("m23").group
    seed = frozenset(points)
    _assert_matches_parent_pointer_oracle(G, seed, _image_set, setwise_stabilizer(G, points))
    frame = _SetOrbit(G, seed, None)
    old_orbit, old_transversal, old = _parent_pointer_orbit_stabilizer(
        G, seed, _per_generator(G, _image_set))
    assert (list(frame.index), frame.transversal) == (old_orbit, old_transversal)
    assert frame.inverses == [inv_images(u) for u in old_transversal]
    assert [g.images for g in frame.stabilizer.generators] == [g.images for g in old.generators]


def test_stabilizers_invert_only_the_transversal_elements_they_read(monkeypatch):
    """The Schreier loop stops at |G|/|orbit| and skips the identity
    generators of the tree edges, so most transversal elements are never
    inverted; `classes._SetOrbit` still holds every inverse."""
    from permchar import group

    G = corpus.build("m23").group
    inverted = []

    def counted(images):
        inverted.append(images)
        return inv_images(images)

    monkeypatch.setattr(group, "inv_images", counted)
    orbit, _, _ = orbit_stabilizer(G, frozenset({0, 1, 2}), _per_generator(G, _image_set))
    assert len(inverted) < len(orbit) // 10
    frame = _SetOrbit(G, frozenset({0, 1, 2}), None)
    assert len(frame.inverses) == len(frame.index)
    assert all(mul_images(u, v) == identity_images(G.degree)
               for u, v in zip(frame.transversal, frame.inverses))


def test_m22_pair_stabilizer_matches_parent_pointer_oracle():
    G = corpus.build("m22").group
    _assert_matches_parent_pointer_oracle(
        G, frozenset({0, 1}), _image_set, setwise_stabilizer(G, {0, 1})
    )


def test_m11_centralizers_of_class_reps_match_parent_pointer_oracle():
    G = corpus.build("m11").group
    for x in conjugacy_classes(G).reps:
        _assert_matches_parent_pointer_oracle(G, x.images, conj_images, centralizer(G, x))


@pytest.mark.parametrize("family", THEOREM_D_FAMILIES)
def test_sylow_2_normalizer_matches_parent_pointer_oracle(family):
    G = corpus.build(family).group
    P = sylow_2(G)
    seed = frozenset(P.element_images_iter())
    _assert_matches_parent_pointer_oracle(G, seed, _conjugate_set, normalizer(G, P))


def _assert_orbit_keys_match_the_frozenset_walks(G):
    """normalizer, centralizer and setwise_stabilizer, which walk packed
    keys, return the generators of the frozenset walks they replaced."""
    def images(K):
        return [g.images for g in K.generators]

    subgroups = [sylow_2(G)] + [H for _, H in verify.sample_subgroups(G, seed=0, budget=6)]
    for H in subgroups:
        assert images(normalizer(G, H)) == images(frozenset_normalizer(G, H))
    rng = random.Random(0)
    for x in [G.random_element(rng) for _ in range(4)] + list(G.generators):
        assert images(centralizer(G, x)) == images(frozenset_centralizer(G, x))
    for points in [set(range(k)) for k in (1, 2, 3) if k <= G.degree] + [{1, G.degree - 1}]:
        assert (images(setwise_stabilizer(G, points))
                == images(frozenset_setwise_stabilizer(G, points)))


@pytest.mark.parametrize("family", sorted({*verify.SWEEP_FAMILIES, *THEOREM_D_FAMILIES, "m11"}))
def test_orbit_keys_match_the_frozenset_walks(family):
    _assert_orbit_keys_match_the_frozenset_walks(corpus.build(family).group)


@pytest.mark.parametrize("family", ["s4", "a5", "d12", "psl2_7", "agl1_9", "q16"])
def test_orbit_keys_match_the_frozenset_walks_above_degree_256(family):
    # above degree 256 an element set is keyed by a sorted tuple of tuples
    _assert_orbit_keys_match_the_frozenset_walks(_padded(corpus.build(family).group, 300))


def test_normal_closure():
    s4 = corpus.build("s4").group
    assert normal_closure(s4, [parse_permutation("(1,2)", 4)]).order() == 24
    assert normal_closure(s4, [parse_permutation("(1,2)(3,4)", 4)]).order() == 4


@pytest.mark.parametrize("family,expected", [
    ("d10", 2), ("s4", 8), ("a5", 4), ("q16", 16), ("sl23", 8),
    ("agl1_27", 2), ("psl3_2", 8), ("m11", 16),
])
def test_sylow_2_orders(family, expected):
    G = corpus.build(family).group
    P = sylow_2(G)
    assert P.order() == expected
    # all elements are 2-elements
    assert all(g.order() & (g.order() - 1) == 0 for g in P.generators)
    # Lagrange: the odd part
    assert (G.order() // P.order()) % 2 == 1


@pytest.mark.parametrize("family", ["s4", "a5", "psl3_2", "agl1_27", "m11"])
def test_sylow_2_is_kept_on_the_group(family):
    """One P per (group, seed), shared by the context, the corpus selector
    and O^{2'}; a rebuilt copy of G finds the same generators afresh."""
    cg = corpus.build(family)
    G = cg.group
    for seed in (0, 1):
        P = sylow_2(G, seed=seed)
        assert sylow_2(G, seed) is P
        fresh = sylow_2(PermGroup(G.generators, G.degree), seed=seed)
        assert fresh is not P
        assert [g.images for g in fresh.generators] == [g.images for g in P.generators]
    assert sylow_2(G, 0) is not sylow_2(G, 1)
    assert cg.subgroup("sylow2") is sylow_2(G)
    ctx = verify.GroupContext(family, G, None, None, G.order(), cg)
    assert ctx.sylow2(1) is sylow_2(G, seed=1)


@pytest.mark.parametrize("family,expected_index", [
    ("s4", 1), ("c6", 3), ("a5", 1), ("c12", 3), ("q8", 1),
    ("f7_3", 21), ("agl1_27", 13), ("d10", 1), ("c3q16", 1),
])
def test_o_2prime(family, expected_index):
    G = corpus.build(family).group
    N = o_2prime(G)
    assert is_normal_in(N, G)
    assert G.order() // N.order() == expected_index
    assert (G.order() // N.order()) % 2 == 1
    # normal closure of itself is itself
    assert normal_closure(G, N.generators).order() == N.order()


def test_odd_order_o2prime_trivial():
    G = corpus.build("c15").group
    assert o_2prime(G).order() == 1


def test_pointwise_and_setwise_stabilizers():
    a5 = corpus.build("a5").group
    assert a5.pointwise_stabilizer([0]).order() == 12
    assert a5.pointwise_stabilizer([0, 1]).order() == 3
    assert setwise_stabilizer(a5, {0, 1}).order() == 6


@pytest.mark.parametrize("family", CORPUS_FAMILIES)
def test_point_stabilizer_at_the_first_base_point_reads_the_chain(family):
    """G_p for G's first base point p takes the strong generators below G's
    first level; they are the generators that a chain hinted at p gives."""
    G = corpus.build(family).group
    p = G._levels[0].point
    H = G.pointwise_stabilizer([p])
    assert [g.images for g in H.generators] == _gens_fixing(G.generators, G.degree, [p])
    assert H.order() == G.order() // len(G._levels[0].orbit)
    assert all(g.images[p] == p for g in H.generators)


@pytest.mark.parametrize("point", [-1, 4])
def test_stabilizers_reject_points_outside_the_degree(point):
    """A negative point would read from the end of an image tuple, and one
    at the degree past it; both are refused before any orbit is built."""
    s4 = corpus.build("s4").group
    with pytest.raises(ValueError, match=f"point {point} .*degree 4"):
        setwise_stabilizer(s4, {0, point})
    with pytest.raises(ValueError, match=f"point {point} .*degree 4"):
        s4.pointwise_stabilizer([0, point])


def test_lemma_reality_in_normal_subgroup_property():
    """x in N normal in G, x real in G, [G : N C_G(x)] odd => x real in N.

    The index equals the number of N-classes inside x^G, i.e.
    |x^G| / |x^N|.
    """
    cases = [("s4", "a4-core"), ("sl23", "q8-core"), ("a4", "v4")]
    for family, _ in cases:
        G = corpus.build(family).group
        # take the derived-ish normal subgroup: closure of squares
        rng = random.Random(1)
        gens = [G.random_element(rng) for _ in range(4)]
        N = normal_closure(G, [g * g for g in gens])
        if N.order() in (1, G.order()):
            continue
        n_set = set(N.element_images_iter())
        for x_img in sorted(n_set)[:12]:
            x = Permutation(x_img)
            # class of x in G and in N
            cls_g = _conj_class(G, x)
            if ~x not in {Permutation(t) for t in cls_g}:
                continue  # not real in G
            cls_n = _conj_class_within(N, x)
            m = len(cls_g) // len(cls_n)
            if m % 2 == 1:
                assert any(Permutation(t) == ~x for t in cls_n) or (~x).images in cls_n


def _conj_class(G, x):
    gens = [g.images for g in G.generators]
    orbit = {x.images}
    queue = [x.images]
    while queue:
        y = queue.pop()
        for g in gens:
            z = conj_images(y, g)
            if z not in orbit:
                orbit.add(z)
                queue.append(z)
    return orbit


def _conj_class_within(N, x):
    return _conj_class(N, x)


def test_breadth_first_orbit_of_a_20000_point_cycle():
    """The one orbit of x -> x + 7 (mod 20,000) is 0, 7, 14, ... in
    breadth-first order from a Schreier-vector chain level, and every point
    from `_point_orbits`, which reads only the generators and the degree; a
    whole chain of this degree takes seconds, for one transversal walk of
    19,999 steps."""
    n = 20_000
    step = tuple((x + 7) % n for x in range(n))
    bfs = tuple(7 * i % n for i in range(n))
    H = SimpleNamespace(degree=n, generators=[Permutation(step)])
    assert _point_orbits(H) == [frozenset(bfs)]
    level = _Level(0, n)
    assert not level.full
    level.recompute_orbit([step], n)
    assert tuple(level.orbit) == bfs
    assert all(level.orbit[b] == (a, 0) for a, b in zip(bfs, bfs[1:]))


# sha256 of the orbit routines' outputs, written before they were merged:
# every stabilizer generator list, coset transversal and point-orbit
# partition below is pinned, so no seeded stream that reads them can move.
ORBIT_OUTPUTS_DIGEST = "a58fee8b1e51e551a8cd1c7854a8323878f35a98e619d7c305ecef3db89840ce"


def test_orbit_outputs_match_their_pinned_digest():
    def images(K):
        return [g.images for g in K.generators]

    out = []
    for family in [*verify.SWEEP_FAMILIES, "m11"]:
        G = corpus.build(family).group
        P = sylow_2(G)
        act = coset_action(G, P)
        ctx = verify.GroupContext(family, G, None, None, G.order(), None)
        out.append([
            family,
            images(setwise_stabilizer(G, {0, 1})),
            [images(centralizer(G, r)) for r in conjugacy_classes(G).reps],
            images(normalizer(G, P)),
            images(ctx.sylow2_normalizer()),
            act.reps,
            act.gen_images,
            [[tuple(sorted(o)) for o in _point_orbits(H)]
             for _, H in verify.sample_subgroups(G, seed=0, budget=14)],
        ])
    for family in ("m22", "m23"):
        G = corpus.build(family).group
        out.append([family, images(setwise_stabilizer(G, {0, 1})),
                    images(setwise_stabilizer(G, {0, 1, 2}))])
    digest = hashlib.sha256(repr(out).encode()).hexdigest()
    assert digest == ORBIT_OUTPUTS_DIGEST
