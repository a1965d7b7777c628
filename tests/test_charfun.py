import random
from fractions import Fraction

import pytest

from permchar import classes, corpus, verify
from permchar.charfun import (
    ClassFunction,
    atlas_string,
    decompose,
    fs_indicator,
    fs_indicator_brute,
    inner_product,
    perm_character,
    perm_character_by_fusion,
    perm_character_values,
)
from permchar.classes import ConjugacyClassSet, conjugacy_classes
from permchar.cyclo import Cyclotomic, parse_cyclotomic
from permchar.dixon import character_table
from permchar.group import PermGroup, coset_action, sylow_2, trivial_group
from permchar.perm import Permutation, inv_images, parse_permutation
from permchar.tableio import ClassMatching, bundled_table

from helpers import fusion_by_elements, regular_character, trivial_character


def _self_inverse_classes(C) -> list:
    """The classes k with rep_k^-1 in class k, by `classify`."""
    return [k for k, r in enumerate(C.reps) if C.classify(inv_images(r.images)) == k]


def _ctx(family):
    G = corpus.build(family).group
    C = conjugacy_classes(G)
    T = character_table(G, C, name=family)
    return G, C, T


def test_reprs_evaluate_to_equal_values():
    """repr(x) is a call that rebuilds x: for seeded permutations (the
    identity and degree 0 included), and for every value and row of a
    Dixon table."""
    rng = random.Random(0)
    perms = [Permutation(()), Permutation((0,)), Permutation.identity(5)]
    for n in range(2, 12):
        images = list(range(n))
        rng.shuffle(images)
        perms.append(Permutation(images))
    _, _, T = _ctx("psl2_7")
    values = [v for row in T.rows for v in row.values]
    scope = {"parse_permutation": parse_permutation, "parse_cyclotomic": parse_cyclotomic,
             "ClassFunction": ClassFunction}
    for x in [*perms, *values, *T.rows]:
        assert eval(repr(x), scope) == x


def test_perm_character_spec_examples():
    G, C, T = _ctx("s3")
    # H = G: all-ones
    pi = perm_character(G, G, C)
    assert all(v == 1 for v in pi.values)
    # H = A3: values (2, 0, 2) on classes (1A, 2A, 3A)
    a3 = corpus.build("c3").group
    from permchar.group import PermGroup
    from permchar.perm import parse_permutation

    H = PermGroup([parse_permutation("(1,2,3)", 3)], 3)
    pi = perm_character(G, H, C)
    assert [int(v.as_rational()) for v in pi.values] == [2, 0, 2]
    # permutation characters are rational, hence conjugation-fixed
    assert pi.is_rational_valued() and pi.is_real_valued()


# the families of the theorem-D equivalence test in tests/test_verify.py
THEOREM_D_FAMILIES = ["c6", "s4", "a5", "psl3_2", "agl1_27", "q8", "sl23",
                      "d10", "q16", "a4", "c3q16", "f7_3", "f13_3", "a4c4"]


def _assert_fusion_matches_coset_action(G, C, subgroups):
    """pi by class fusion, and by whichever path `perm_character` picks,
    equals pi by the coset action at the reps of the class data C."""
    for H in subgroups:
        oracle = perm_character_values(coset_action(G, H), C.reps)
        assert perm_character_by_fusion(G, H, C) == oracle, H
        assert perm_character(G, H, C) == oracle, H


def _sweep_subgroups(G) -> list:
    """The sweep's subgroups (seeds 0 and 1, budget 14), 1 and G."""
    subgroups = [H for seed in (0, 1)
                 for _, H in verify.sample_subgroups(G, seed=seed, budget=14)]
    return subgroups + [trivial_group(G.degree), G]


@pytest.mark.parametrize("family", ["s4", "a5", "psl2_11", "agl1_27", "c3q16"])
def test_fusion_on_a_sweep_context_probes_only_packed_keys(monkeypatch, family):
    """Fusion packs H's elements and the class reps (`perm.packer`), so the
    packed element map of a sweep context answers every `classify` with
    one probe and never falls back to `_PackedKeys.__missing__`."""
    ctx = verify.context(family)
    subgroups = _sweep_subgroups(ctx.group)
    want = [perm_character_values(coset_action(ctx.group, H), ctx.classes.reps)
            for H in subgroups]

    def unpacked(self, key):
        raise AssertionError(f"classify was given an unpacked key {key!r}")

    monkeypatch.setattr(classes._PackedKeys, "__missing__", unpacked)
    assert isinstance(ctx.classes.element_class_map(), classes._PackedKeys)
    assert [perm_character_by_fusion(ctx.group, H, ctx.classes) for H in subgroups] == want


@pytest.mark.parametrize("family", verify.SWEEP_FAMILIES + sorted(
    set(THEOREM_D_FAMILIES) - set(verify.SWEEP_FAMILIES)))
def test_fusion_matches_coset_action(family):
    """On enumerated class data: the sweep's subgroups, and the Sylow-2
    normalizer of the theorem-D groups."""
    ctx = verify.context(family)
    subgroups = _sweep_subgroups(ctx.group)
    if family in THEOREM_D_FAMILIES:
        subgroups.append(ctx.sylow2_normalizer())
    _assert_fusion_matches_coset_action(ctx.group, ctx.classes, subgroups)


@pytest.mark.parametrize("family", ["s4", "a5", "psl2_11", "agl1_27", "psl3_2"])
def test_fusion_on_sampled_classes_matches_coset_action(family):
    """Classes sampled above the threshold have no element map, so fusion
    walks H class by class: pi equals the coset action's and the count
    with one `classify` per element of H."""
    G = verify.context(family).group
    S = ConjugacyClassSet(G, seed=0, threshold=0)
    assert S.element_class_map() is None
    subgroups = _sweep_subgroups(G)
    _assert_fusion_matches_coset_action(G, S, subgroups)
    for H in subgroups:
        assert perm_character_by_fusion(G, H, S) == fusion_by_elements(G, H, S), H


@pytest.mark.parametrize("family", ["m11", "m22"])
def test_matched_fusion_classifies_once_per_class_of_the_subgroup(monkeypatch, family):
    """On a matching fusion calls `classify` once per conjugacy class of H
    and once per class rep, not once per element of H, and pi equals the
    coset action's and the per-element count: the paper's pairs of the
    family and the sweep's subgroups of order and index at most 10,000."""
    ctx = verify.context(family)
    G, C = ctx.group, ctx.classes
    assert isinstance(C, ClassMatching)
    subgroups = [ctx.subgroup(s) for f, s, _, _ in verify.PAPER_TABLE_ITEMS if f == family]
    subgroups += [H for H in _sweep_subgroups(G)
                  if max(H.order(), G.order() // H.order()) <= 10_000]
    calls = []
    classify = ClassMatching.classify
    monkeypatch.setattr(ClassMatching, "classify",
                        lambda self, images: calls.append(images) or classify(self, images))
    for H in subgroups:
        calls.clear()
        pi = perm_character_by_fusion(G, H, C)
        assert len(calls) == len(conjugacy_classes(H)) + len(C.reps), H
        assert pi == perm_character_values(coset_action(G, H), C.reps), H
        assert pi == fusion_by_elements(G, H, C), H


# the sweep families whose Dixon table `find_representatives` cannot match:
# non-Galois classes collide, or no assignment respects the power maps
UNMATCHABLE_SWEEP_FAMILIES = {"q8", "q16", "q32", "c3q16"}


@pytest.mark.parametrize("family", [
    f for f in verify.SWEEP_FAMILIES if f not in UNMATCHABLE_SWEEP_FAMILIES])
def test_fusion_matches_coset_action_on_matched_classes(family):
    """On a matching of the family's own Dixon table, whose classify is
    exact only up to the ambiguity groups: the sweep's subgroups."""
    enumerated = verify.context(family)
    ctx = verify.GroupContext.for_group(family, enumerated.group, table=enumerated.table)
    assert isinstance(ctx.classes, ClassMatching)
    _assert_fusion_matches_coset_action(ctx.group, ctx.classes, _sweep_subgroups(ctx.group))


@pytest.mark.parametrize("family, selector", [
    pytest.param(f, s, marks=[pytest.mark.slow] if f == "m23" else [])
    for f, s, _, _ in verify.PAPER_TABLE_ITEMS
])
def test_fusion_matches_coset_action_on_the_paper_pairs(family, selector):
    ctx = verify.context(family)
    _assert_fusion_matches_coset_action(ctx.group, ctx.classes, [ctx.subgroup(selector)])


def test_both_perm_character_paths_reject_non_subgroups():
    """A subgroup of the wrong degree or outside G raises the coset
    action's ValueError on the fusion path too, not a KeyError from
    `classify`. The rule sends the small subgroups to fusion and the
    large ones, S5 and S4 against |A4| = 12, to the coset action."""
    G, C, _ = _ctx("a4")
    cases = [
        (trivial_group(5), "degree mismatch"),
        (corpus.build("s5").group, "degree mismatch"),
        (PermGroup([parse_permutation("(1,2)", 4)], 4), "not a subgroup"),
        (corpus.build("s4").group, "not a subgroup"),
    ]
    for H, message in cases:
        for compute in (
            lambda: perm_character(G, H, C),
            lambda: perm_character_by_fusion(G, H, C),
            lambda: coset_action(G, H),
        ):
            with pytest.raises(ValueError, match=message):
                compute()


def test_inner_product_and_row_norms():
    G, C, T = _ctx("s4")
    for row in T.rows:
        assert inner_product(row, row, T.sizes, T.order) == 1
    # transitive action: <pi, 1> = 1
    H = sylow_2(G)
    pi = perm_character(G, H, C)
    assert inner_product(pi, trivial_character(T), T.sizes, T.order) == 1


def test_inner_product_length_mismatch():
    with pytest.raises(ValueError):
        inner_product(ClassFunction([1, 2]), ClassFunction([1]), [1], 1)


def test_floats_are_rejected_not_rounded():
    """A float would enter an exact class function already rounded:
    0.1 as 3602879701896397/36028797018963968, and a norm computed from
    3.0000000000000004 as 13510798882111489/13510798882111488."""
    T = bundled_table("s3")
    with pytest.raises(TypeError):
        ClassFunction([0.1, 1, 1])
    with pytest.raises(TypeError):
        inner_product(ClassFunction([3.0000000000000004, 1, 0]), T.rows[0], T.sizes, T.order)
    with pytest.raises(TypeError):
        Cyclotomic(3, [0.5, 1])
    with pytest.raises(TypeError):
        Cyclotomic.rational(1.0)
    # ints and Fractions are the exact coefficients
    assert ClassFunction([Fraction(1, 10), 1, True]).values[0] == Fraction(1, 10)


def test_decompose_regular_character():
    G, C, T = _ctx("s3")
    mults = decompose(regular_character(T), T)
    assert mults == T.degrees


def test_decompose_errors_on_non_character():
    G, C, T = _ctx("s3")
    bogus = ClassFunction([Fraction(1), Fraction(1), Fraction(0)])
    with pytest.raises(ValueError):
        decompose(bogus, T)


def test_column_reconstruction():
    G, C, T = _ctx("a5")
    H = G.pointwise_stabilizer([0])
    pi = perm_character(G, H, C)
    mults = decompose(pi, T)  # recomposition is checked inside decompose
    assert sum(m * d for m, d in zip(mults, T.degrees)) == 5


def test_atlas_rendering():
    G, C, T = _ctx("s4")
    H = sylow_2(G)
    pi = perm_character(G, H, C)
    assert atlas_string(decompose(pi, T), T) == "1a+2a"
    reg = decompose(regular_character(T), T)
    # multiplicity-2 renders with a doubled letter, 3 with tripled
    assert atlas_string(reg, T) == "1a+1b+2aa+3aaa+3bbb"


def test_fs_indicator_spec_examples():
    _, _, Tq8 = _ctx("q8")
    assert Tq8.fs_indicators() == [1, 1, 1, 1, -1]
    _, _, Ts3 = _ctx("s3")
    assert Ts3.fs_indicators() == [1, 1, 1]
    assert fs_indicator(trivial_character(Ts3), Ts3) == 1


@pytest.mark.parametrize("family", ["s3", "s4", "d10", "q8", "q16", "sl23", "a5",
                                    "c3q16", "f7_3", "f13_3", "c12", "agl1_27"])
def test_fs_indicator_brute_force_oracle(family):
    """Power-map formula equals the literal |G|^-1 sum chi(g^2)."""
    G = corpus.build(family).group
    assert G.order() <= 5000
    C = conjugacy_classes(G)
    T = character_table(G, C, name=family)
    emap = C.element_class_map()
    for i, row in enumerate(T.rows):
        nu = fs_indicator(row, T)
        assert nu == fs_indicator_brute(row, G, emap.__getitem__), (family, i)


@pytest.mark.parametrize("family", ["c3", "c15", "c21", "f7_3", "f13_3"])
def test_burnside_odd_order(family):
    G = corpus.build(family).group
    assert G.order() % 2 == 1
    C = conjugacy_classes(G)
    T = character_table(G, C)
    real_rows = [i for i, r in enumerate(T.rows) if r.is_real_valued()]
    assert real_rows == [0]
    assert all(nu == 0 for nu in T.fs_indicators()[1:])


def test_real_classes_spec_examples():
    # AGL(1,27): exactly 3 real classes
    G = corpus.build("agl1_27").group
    C = conjugacy_classes(G)
    T = character_table(G, C)
    real = T.real_class_indices()
    assert len(real) == 3
    assert real == _self_inverse_classes(C)
    orders = sorted(T.orders[k] for k in real)
    assert orders == [1, 2, 3]  # identity, involutions, translations
    # D10: all 4 classes real
    G, C, T = _ctx("d10")
    assert T.real_class_indices() == [0, 1, 2, 3]
    assert _self_inverse_classes(C) == [0, 1, 2, 3]


def test_real_classes_brute_force_inverse_conjugacy():
    """The table criterion agrees with literal g ~ g^-1 over all elements."""
    G = corpus.build("agl1_27").group
    C = conjugacy_classes(G)
    T = character_table(G, C)
    emap = C.element_class_map()

    real = set()
    for images, k in emap.items():
        if emap[inv_images(images)] == k:
            real.add(k)
        else:
            assert k not in T.real_class_indices()
    # classes where EVERY member's inverse stays inside
    assert sorted(real) == _self_inverse_classes(C) == T.real_class_indices()
