import pytest

from permchar import corpus, verify
from permchar.group import (
    PermGroup,
    _point_orbits,
    is_normal_in,
    is_subgroup,
    normalizer,
    on_sets,
    orbit_stabilizer,
    point_maps,
    sylow_2,
    trivial_group,
)
from permchar.perm import parse_permutation
from permchar.tableio import ClassMatching

from helpers import THEOREM_D_FAMILIES, conj_images


@pytest.fixture(scope="module", autouse=True)
def _fresh_cache():
    verify.clear_context_cache()
    yield


def test_theorem_A_odd_order_frobenius():
    ctx = verify.context("f7_3")
    H = PermGroup([ctx.group.generators[1]], ctx.group.degree)
    assert H.order() == 3
    r = verify.check_theorem_A(ctx, H, "c3")
    assert r.passed
    assert r.hypotheses["index_of_core_odd"] is True
    assert r.conclusion["unique"] is True
    assert r.conclusion["plus_type_real_constituents"] == ["1a"]


def test_theorem_A_s4_d8():
    ctx = verify.context("s4")
    r = verify.check_theorem_A(ctx, ctx.subgroup("sylow2"), "d8")
    assert r.passed
    assert r.conclusion["core_index"] == 6
    assert r.conclusion["plus_type_real_constituents"] == ["1a", "2a"]


def test_theorem_A_d10_sylow():
    ctx = verify.context("d10")
    r = verify.check_theorem_A(ctx, ctx.subgroup("sylow2"), "syl2")
    assert r.passed
    assert len(r.conclusion["plus_type_real_constituents"]) == 3


def test_theorem_B_psl32_s4():
    ctx = verify.context("psl3_2")
    r = verify.check_theorem_B(ctx, ctx.subgroup("point"), "s4")
    assert r.passed
    assert all(r.hypotheses.values())
    assert r.conclusion["nontrivial_real_odd_multiplicity_exists"]
    assert any(w["constituent"] == "6a" and w["multiplicity"] == 1 for w in r.witnesses)


def test_theorem_B_s4_d8():
    ctx = verify.context("s4")
    r = verify.check_theorem_B(ctx, ctx.subgroup("sylow2"), "d8")
    assert r.passed and r.conclusion["nontrivial_real_odd_multiplicity_exists"]


def test_theorem_B_agl_counterexample():
    """Hypothesis failure: conclusion false, theta multiplicity exactly 4
    (even) and theta rational-valued."""
    ctx = verify.context("agl1_27")
    H = ctx.subgroup("h2p")
    r = verify.check_theorem_B(ctx, H, "h2p")
    assert r.passed
    assert r.hypotheses["o2prime_times_H_covers_G"] is False
    assert r.conclusion["nontrivial_real_odd_multiplicity_exists"] is False
    pi, mults = ctx.decompose_perm_character(H)
    theta_rows = [i for i, d in enumerate(ctx.table.degrees) if d == 26]
    assert len(theta_rows) == 1
    theta = theta_rows[0]
    assert mults[theta] == 4
    assert ctx.table.rows[theta].is_rational_valued()
    # a closed form in q would give (27^2-1)/2 = 364, which exceeds the
    # character degree; the honest value is (3^2-1)/2 = 4 (closed form in p)
    assert mults[theta] != 364


@pytest.mark.parametrize("family", THEOREM_D_FAMILIES)
def test_theorem_D_equivalence(family):
    r = verify.check_theorem_D(verify.context(family))
    assert r.passed, r.render()


def test_theorem_D_witness_details():
    r = verify.check_theorem_D(verify.context("s4"))
    c = r.conclusion
    assert c["i_sylow2_normal"] is False
    assert c["ii_no_nontrivial_real_odd_order"] is False
    assert c["iv_every_real_odd_normalizes_some_sylow2"] is False
    assert c["iii_2brauer"] == "out of scope"
    # 3-cycles permute the three Sylow 2-subgroups without fixing any
    assert [w["normalized_sylow_count"] for w in r.witnesses] == [0]
    r5 = verify.check_theorem_D(verify.context("a5"))
    counts = {w["real_odd_class_order"]: w["normalized_sylow_count"] for w in r5.witnesses}
    assert counts[5] == 0  # 5-cycles normalize no Sylow 2-subgroup
    assert counts[3] % 2 == 0  # parity from the Brauer-character argument


def _check_theorem_D_against_brute_force(family):
    """The normalized-Sylow counts read off pi_{N_G(P)} against the
    conjugates of P, and the real odd-order classes read off the table
    against full enumeration."""
    from permchar.classes import conjugacy_classes
    from permchar.perm import inv_images

    ctx = verify.context(family)
    r = verify.check_theorem_D(ctx)
    G, P, table = ctx.group, ctx.sylow2(), ctx.table
    C = conjugacy_classes(G)
    real_odd = sorted(
        (C.orders[k], C.sizes[k])
        for k, r in enumerate(C.reps)
        if C.classify(inv_images(r.images)) == k and C.orders[k] % 2 == 1 and C.orders[k] > 1
    )
    assert sorted((w["real_odd_class_order"], w["class_size"]) for w in r.witnesses) == real_odd
    conjugates = verify.sylow2_conjugates(G, P)
    if P.order() > 1:
        assert f"sylow2_conjugates={len(conjugates)}" in r.notes
    columns = [
        k
        for k in table.real_class_indices()
        if table.orders[k] % 2 == 1 and table.orders[k] > 1
    ]
    assert len(columns) == len(r.witnesses)
    for k, w in zip(columns, r.witnesses):
        x = ctx.classes.reps[k].images
        brute = sum(1 for Q in conjugates if all(conj_images(e, x) in Q for e in Q))
        assert w["normalized_sylow_count"] == brute, (family, k)


@pytest.mark.parametrize("family", THEOREM_D_FAMILIES + ["m11"])
def test_theorem_D_counts_match_sylow_conjugates(family):
    _check_theorem_D_against_brute_force(family)


@pytest.mark.slow
def test_theorem_D_counts_match_sylow_conjugates_m22():
    _check_theorem_D_against_brute_force("m22")


@pytest.mark.parametrize("family", THEOREM_D_FAMILIES + ["m11", pytest.param("m22", marks=pytest.mark.slow)])
def test_sylow2_normalizer_equals_the_normalizer_in_G(family):
    """N_S(P), S the stabilizer of the P-orbit partition, is N_G(P): the
    same order, and each generating set lies in the other group."""
    ctx = verify.GroupContext.for_family(family)
    N, P = ctx.sylow2_normalizer(), ctx.sylow2()
    reference = normalizer(ctx.group, P)
    assert N.order() == reference.order()
    assert is_subgroup(N, reference) and is_subgroup(reference, N)
    assert is_subgroup(P, N) and is_normal_in(P, N)


@pytest.mark.parametrize("family", THEOREM_D_FAMILIES + ["m22"])
def test_partition_labels_give_the_frozenset_paths_generators(family):
    """The P-orbit partition as a label vector walks the same orbit as the
    partition as a frozenset of frozensets, so S and N_S(P) get the same
    generator lists."""
    ctx = verify.GroupContext(family, corpus.build(family).group, None, None, 10**9, None)
    G, P = ctx.group, ctx.sylow2()
    images = lambda H: [g.images for g in H.generators]
    partition = frozenset(_point_orbits(P))
    old = orbit_stabilizer(G, partition, on_sets(on_sets(point_maps(G))))
    new = orbit_stabilizer(G, verify._block_labels(P), verify._partition_maps(G))
    assert len(new[0]) == len(old[0]) and new[1] == old[1]
    assert images(new[2]) == images(old[2])
    assert images(ctx.sylow2_normalizer()) == images(normalizer(old[2], P))


def test_sylow_caches_are_keyed_by_seed():
    """A seed asked after another gets its own Sylow 2-subgroup and its own
    normalizer; a5's seeds 0 and 1 pick different Sylow 2-subgroups."""
    ctx = verify.GroupContext.for_family("a5")
    P0, N0 = ctx.sylow2(seed=0), ctx.sylow2_normalizer(seed=0)
    P1, N1 = ctx.sylow2(seed=1), ctx.sylow2_normalizer(seed=1)
    expect = sylow_2(ctx.group, seed=1)
    assert [g.images for g in P1.generators] == [g.images for g in expect.generators]
    assert set(P1.element_images_iter()) != set(P0.element_images_iter())
    assert is_subgroup(P1, N1) and is_normal_in(P1, N1) and not is_normal_in(P1, N0)
    assert N1.order() == N0.order() == 12
    assert ctx.sylow2(seed=0) is P0 and ctx.sylow2_normalizer(seed=0) is N0


def test_theorem_D_reads_the_table_and_enumerates_nothing(monkeypatch):
    matched = verify.GroupContext.for_family("m11")
    enumerated = verify.GroupContext.for_family("s4")
    classes = enumerated.classes

    def forbidden(*args, **kwargs):
        raise AssertionError("theorem D must not enumerate classes or Sylow conjugates")

    monkeypatch.setattr(verify, "conjugacy_classes", forbidden)
    monkeypatch.setattr(verify, "sylow2_conjugates", forbidden)
    assert verify.check_theorem_D(matched).passed
    assert verify.check_theorem_D(enumerated).passed
    assert isinstance(matched.classes, ClassMatching)
    assert enumerated.classes is classes


def test_theorem_D_refuses_groups_over_the_threshold():
    from permchar.classes import EnumerationThresholdError

    ctx = verify.GroupContext.for_family("m11", threshold=1000)
    with pytest.raises(EnumerationThresholdError, match="threshold 1000"):
        verify.check_theorem_D(ctx)


def test_simple_sylow_avoidance():
    for fam in ["a5", "psl3_2", "m11"]:
        r = verify.check_simple_sylow_avoidance(verify.context(fam))
        assert r.hypotheses == {"nonabelian_simple": True}, fam
        assert r.passed, fam


@pytest.mark.parametrize("family", ["c1", "c3", "c6", "s4", "s5", "sl23"])
def test_simple_sylow_avoidance_holds_vacuously_off_simple_groups(family):
    """The hypothesis is read off the table, so a group that is abelian,
    or has a proper normal subgroup, passes whatever the conclusion."""
    r = verify.check_simple_sylow_avoidance(verify.context(family))
    assert r.hypotheses == {"nonabelian_simple": False}
    assert r.passed


def test_real_coverage_lemma():
    ctx = verify.context("s4")
    # H = <(1,2,3,4)>: several odd-multiplicity real constituents, vacuous
    H = PermGroup([parse_permutation("(1,2,3,4)", 4)], 4)
    r = verify.check_real_coverage(ctx, H, "c4")
    assert r.passed
    assert r.hypotheses["unique_odd_multiplicity_real_constituent"] is False
    # H = G: trivially covered
    r2 = verify.check_real_coverage(ctx, ctx.group, "whole")
    assert r2.passed
    assert r2.conclusion["real_classes_missed_by_H"] == []


def test_lemma_bob_small_sweep():
    for fam in ["s4", "a5", "d12", "sl23"]:
        ctx = verify.context(fam)
        for name, H in verify.sample_subgroups(ctx.group, seed=3, budget=8):
            r = verify.check_lemma_bob(ctx, H, name)
            assert r.passed, r.render()


def test_lemma_bob_regular_character_case():
    """Trivial H: odd-degree real rows must be orthogonal type."""
    for fam in ["s4", "q8", "sl23", "a5"]:
        ctx = verify.context(fam)
        r = verify.check_lemma_bob(ctx, trivial_group(ctx.group.degree), "trivial")
        assert r.passed, r.render()


def test_theorem_4_6_named_instances():
    ctx = verify.context("s4")
    r = verify.check_theorem_4_6(ctx, ctx.subgroup("sylow2"), "d8", maximal=True)
    assert r.passed
    assert r.hypotheses["i_even_index"] is False  # index 3
    assert r.hypotheses["iv_maximal_with_even_core_quotient"] is True
    assert r.conclusion["nontrivial_real_odd_multiplicity_exists"]


def test_burnside_checker():
    assert verify.check_burnside(verify.context("c15")).passed
    assert verify.check_burnside(verify.context("f13_3")).passed
    r = verify.check_burnside(verify.context("s3"))
    assert r.passed  # vacuous: even order
    assert r.hypotheses["odd_order"] is False


def test_c3q16_phenomenon():
    r = verify.check_c3q16_phenomenon()
    assert r.passed
    assert r.conclusion["per_candidate"]["c3q16"]["exhibits"] is False
    assert r.conclusion["per_candidate"]["a4c4"]["exhibits"] is True
    assert r.conclusion["per_candidate"]["a4c4"]["index"] == 3


def test_induction_refuses_class_data_with_ambiguity_groups():
    """Restricting a non-rational character needs exact fusion, which a
    matched classify gives only up to its ambiguity groups."""
    ctx = verify.context("m11")
    with pytest.raises(ValueError, match="ambiguity groups"):
        verify.induction_real_constituents(ctx, ctx.sylow2())


def test_sweep_runner_small(monkeypatch):
    calls = []
    original = verify.GroupContext.decompose_perm_character

    def counting(self, H):
        calls.append(H)
        return original(self, H)

    monkeypatch.setattr(verify.GroupContext, "decompose_perm_character", counting)
    result = verify.theorem_a_sweep(families=["s3", "s4", "d10"], seed=0,
                                    min_pairs=5, per_group=4)
    assert result["pairs"] >= 5
    assert len(calls) == result["pairs"]  # one decomposition per pair
    assert not result["failures"]
    statements = {r.statement for r in result["reports"]}
    assert "theorem-A" in statements and "lemma-plus-type" in statements


def _first_round_theorem_B():
    """Theorem B on the pairs of the sweep's first round."""
    reports = []
    for family in verify.SWEEP_FAMILIES:
        ctx = verify.context(family)
        for name, H in verify.sample_subgroups(ctx.group, seed=0, budget=14):
            reports.append(verify.check_theorem_B(ctx, H, subgroup_name=name))
    return reports


def _paper_pair_reports():
    """Every pair checker on the tabulated pairs of M11, M22 and M23."""
    reports = []
    for family, selector, _, _ in verify.PAPER_TABLE_ITEMS:
        ctx = verify.context(family)
        H = ctx.subgroup(selector)
        for check in (verify.check_theorem_A, verify.check_theorem_B, verify.check_theorem_4_6,
                      verify.check_lemma_bob, verify.check_real_coverage):
            reports.append(check(ctx, H, subgroup_name=selector))
    return reports


# sha256 of the reports' indented JSON list, over reports that neither CLI
# digest covers. A change that alters them on purpose updates the pin and
# says so in CHANGES.md.
@pytest.mark.parametrize("build,count,digest", [
    (_first_round_theorem_B, 291,
     "c997e04fd1d356b55cbe3de3ccb631fafc6822df45d24fa4ad0e601f68d05bd5"),
    (_paper_pair_reports, 35,
     "9410488a64ae337b642ae805269b240e2bb12f85ae0e0882314b52dc55785ab0"),
], ids=["theorem-B-sweep", "paper-pairs"])
def test_pair_reports_match_their_pinned_digests(build, count, digest):
    import hashlib
    import json

    reports = build()
    assert len(reports) == count
    text = json.dumps([r.to_json() for r in reports], indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


class _Opaque:
    """A stand-in subgroup on which every attribute access raises."""

    def __getattribute__(self, name):
        raise AssertionError(f"a pair checker read H.{name}")


_PAIR_CHECKS = [
    (verify.check_theorem_A, verify.theorem_A, {}),
    (verify.check_theorem_B, verify.theorem_B, {}),
    (verify.check_theorem_4_6, verify.theorem_4_6, {}),
    (verify.check_theorem_4_6, verify.theorem_4_6, {"maximal": True}),
    (verify.check_lemma_bob, verify.lemma_bob, {}),
    (verify.check_real_coverage, verify.real_coverage, {}),
]


def _contract_pairs():
    for family, selector, _, _ in verify.PAPER_TABLE_ITEMS:
        ctx = verify.context(family)
        yield ctx, selector, ctx.subgroup(selector)
    ctx = verify.context("psl3_2")
    yield ctx, "trivial", trivial_group(ctx.group.degree)
    yield from ((ctx, name, H) for name, H in verify.sample_subgroups(ctx.group, budget=14))


def test_pair_checkers_read_H_only_through_pi(monkeypatch):
    """Each check_X reports the same given only (pi, mults) and an H that
    cannot be read, and each pi-level core equals its check_X."""
    names = []
    for ctx, name, H in _contract_pairs():
        names.append(name)
        pi, mults = ctx.decompose_perm_character(H)
        for check, core, kwargs in _PAIR_CHECKS:
            expect = check(ctx, H, subgroup_name=name, **kwargs).to_json()
            assert core(ctx, pi, mults, name, **kwargs).to_json() == expect
            with monkeypatch.context() as m:
                m.setattr(ctx, "decompose_perm_character", lambda _: (pi, mults))
                assert check(ctx, _Opaque(), subgroup_name=name, **kwargs).to_json() == expect
    assert {"trivial", "whole"} <= set(names)


def test_report_json_shape():
    r = verify.check_burnside(verify.context("c15"))
    js = r.to_json()
    assert set(js) == {"statement", "group", "subgroup", "hypotheses",
                       "conclusion", "witnesses", "pass", "notes"}
    assert js["pass"] is True


def test_lemma_4_2_restriction_property():
    """G/N odd: real chi restricts to real constituents; real theta below
    has a unique real chi above it."""
    from permchar.charfun import inner_product, restriction_values
    from permchar.classes import conjugacy_classes
    from permchar.dixon import character_table
    from permchar.group import o_2prime

    for fam in ["c6", "f7_3", "agl1_27", "c21"]:
        ctx = verify.context(fam)
        G = ctx.group
        N = o_2prime(G)
        if N.order() in (1, G.order()):
            N = None
        if fam == "f7_3":
            N = PermGroup([G.generators[0]], G.degree)  # C7 normal
        if fam == "c21":
            N = PermGroup([G.generators[0] ** 3], G.degree)
        if N is None or N.order() in (1, G.order()):
            continue
        assert (G.order() // N.order()) % 2 == 1
        NC = conjugacy_classes(N)
        NT = character_table(N)
        fusion = [ctx.classes.classify(r.images) for r in NC.reps]
        for chi in ctx.table.rows:
            rest = restriction_values(chi, fusion)
            mults = [
                inner_product(rest, theta, NT.sizes, NT.order) for theta in NT.rows
            ]
            if chi.is_real_valued():
                for m, theta in zip(mults, NT.rows):
                    if m != 0:
                        assert theta.is_real_valued()
        for j, theta in enumerate(NT.rows):
            if not theta.is_real_valued():
                continue
            above_real = [
                i
                for i, chi in enumerate(ctx.table.rows)
                if chi.is_real_valued()
                and inner_product(restriction_values(chi, fusion), theta, NT.sizes, NT.order) != 0
            ]
            assert len(above_real) == 1, (fam, j)


# -- quantities derived from the permutation character -------------------------------

ORACLE_FAMILIES = ["s4", "s5", "a4", "a5", "d12", "q16", "sl23", "f7_3", "agl1_8", "agl1_9",
                   "psl3_2", "c12"]


def _check_pi_derivations(ctx, H):
    from permchar.group import core, is_subgroup, o_2prime

    G = ctx.group
    pi, _ = ctx.decompose_perm_character(H)
    assert ctx.core_order(pi) == core(G, H).order()
    K = o_2prime(G)
    covers = PermGroup(K.generators + H.generators, G.degree).order() == G.order()
    assert ctx.o2prime_hypotheses(pi) == (covers, is_subgroup(K, H))


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("family", ORACLE_FAMILIES)
def test_pi_derivations_match_group_oracles(family, seed):
    """|core_G(H)|, O^{2'}(G)H = G and O^{2'}(G) <= H read off pi agree
    with the kernel chain, the order of the generated product and
    membership of O^{2'}(G)'s generators in H."""
    ctx = verify.context(family)
    for _, H in verify.sample_subgroups(ctx.group, seed=seed):
        _check_pi_derivations(ctx, H)


@pytest.mark.parametrize("family", verify.SWEEP_FAMILIES + ["m11", "m22", "m23"])
def test_o2prime_classes_match_the_group_oracle(family):
    """The classes of O^{2'}(G) read off the table are those whose rep lies
    in o_2prime(G), and their sizes sum to its order."""
    from permchar.group import o_2prime

    ctx = verify.context(family)
    K = o_2prime(ctx.group)
    got = ctx.table.o2prime_classes()
    assert got == [k for k, r in enumerate(ctx.classes.reps) if K.contains_images(r.images)]
    assert sum(ctx.table.sizes[k] for k in got) == K.order()


@pytest.mark.slow
@pytest.mark.parametrize("family, selector", [
    (f, s) for f, s, _, _ in verify.PAPER_TABLE_ITEMS if s != "triad"
])
def test_pi_derivations_match_group_oracles_mathieu(family, selector):
    ctx = verify.context(family)
    _check_pi_derivations(ctx, ctx.subgroup(selector))


def test_checkers_share_one_perm_character_per_subgroup(monkeypatch):
    """Five checkers on one subgroup compute pi once, on whichever path
    `perm_character` picks: psl3_2's point stabilizer (|H| = 24 <= 6 * 7)
    and, in a matched context, M11's S5 (120 <= 10 * 66) by class fusion
    and no coset action; M11's point stabilizer M10 (720 > 10 * 11) by
    exactly one coset action."""
    from permchar import charfun, group

    calls = []

    def counting(name, original):
        def wrapper(G, H, *rest):
            calls.append(name)
            return original(G, H, *rest)
        return wrapper

    coset = counting("coset", group.coset_action)
    for mod in (group, charfun):
        monkeypatch.setattr(mod, "coset_action", coset)
    monkeypatch.setattr(charfun, "perm_character_by_fusion",
                        counting("fusion", charfun.perm_character_by_fusion))
    for family, selector, path in (("psl3_2", "point", "fusion"), ("m11", "s5", "fusion"),
                                   ("m11", "point0", "coset")):
        calls.clear()
        ctx = verify.GroupContext.for_family(family)
        H = ctx.subgroup(selector)
        verify.check_theorem_A(ctx, H, selector)
        verify.check_lemma_bob(ctx, H, selector)
        verify.check_theorem_4_6(ctx, H, selector, maximal=True)
        verify.check_real_coverage(ctx, H, selector)
        verify.check_theorem_B(ctx, H, selector)
        assert calls == [path], family
        again = PermGroup(list(H.generators), H.degree)
        assert ctx.decompose_perm_character(again) is ctx.decompose_perm_character(H)
        assert calls == [path], family


def test_context_cache_is_keyed_on_the_data_dir(tmp_path):
    verify.context("m11")
    corpus.set_data_dir(tmp_path)
    try:
        with pytest.raises(OSError):
            verify.context("m11")
    finally:
        corpus.set_data_dir(None)
